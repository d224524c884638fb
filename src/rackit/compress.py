"""One-shot layerwise pruning and quantization.

Each weight matrix W (d_out, d_in) is compressed against the Gram matrix
H = X X^T of its input activations, minimizing the per-row quadratic
(w - w')^T H (w - w'), which equals the squared Frobenius reconstruction
error ||(W - W') X||_F^2 summed over rows. Methods:

* ``prune_magnitude`` - keep the largest |w| per row (or per aligned m-group),
  no weight update. Kept as a baseline and oracle anchor.
* ``prune_wanda``     - same, scoring |w_ij| * sqrt(H_jj); mask only.
* ``prune_obs``       - blockwise optimal brain surgeon: invert the damped
  Gram once, walk columns left to right, pick victims per block by greedy
  single-weight elimination (saliency w^2 / [H^-1]_cc on the downdated
  inverse over still-free columns), push each column's error onto the
  columns that have not been processed yet, then polish survivors with an
  exact least-squares refit on the final support. The greedy step removes
  one weight from every row at once. It keeps each row's downdated
  diagonal and rebuilds only the victim's column from the pivot columns
  taken so far, in the order a stored inverse would be downdated, so the
  masks equal a one-row walk's bit for bit.
* ``quantize_obs``    - same machinery, but every column is snapped to a
  symmetric per-row (or per-group) grid and the rounding error compensated.
* ``refit_fixed_mask`` - exact least-squares weights for a given mask, from
  the same per-row refit that polishes ``prune_obs`` survivors.

The factorized-inverse trick: with U the upper Cholesky factor of the damped
H^-1 (so H^-1 = U^T U), the running inverse needed after freezing columns
0..c-1 is exactly U[c:, c:]^T U[c:, c:]. Its leading diagonal entry is
U[c,c]^2 and its leading row is U[c,c] * U[c, c:], so the per-column update
reduces to err = (w_c - q_c) / U[c,c] and W[:, c+1:] -= err * U[c, c+1:].

Everything here runs in float64; layers never see each other's outputs, so
each ref is compressed on its own and results are stitched in ref order.
"""

from __future__ import annotations

import math
import time
from contextlib import closing
from dataclasses import dataclass, field, fields

import numpy as np

from .calibration import CalibrationSet, merged_gram
from .errors import CholeskyError, NumericalError, ValidationError
from .model import (
    ModelBundle,
    PrunableLayerRef,
    apply_compressed,
    check_ref,
    get_weight,
    model_content_hash,
    sort_refs,
)
from .numkernel import (
    check_damp_fraction,
    cholesky,
    dampen,
    inverse_via_cholesky,
    single_blas_thread,
    solve_spd,
    usable_cpus,
)

__all__ = [
    "SparsityPattern",
    "RefReport",
    "CompressionReport",
    "prune_magnitude",
    "prune_wanda",
    "prune_obs",
    "quantize_obs",
    "refit_fixed_mask",
    "compress_model",
    "trace_form_loss",
]

DEFAULT_BLOCK_SIZE = 32
DEFAULT_DAMP_FRACTION = 0.01

SUPPORTED_BITS = (2, 3, 4, 8)

METHODS = ("magnitude", "wanda", "obs", "obs_quant")

# The Gram compress_model solves: the prompt phase's, or prompt plus decode.
COMPRESSION_MODES = ("prompt_only", "rac")


@dataclass(frozen=True)
class SparsityPattern:
    """What to do to each row: drop a fraction, drop n-of-m, or quantize."""

    kind: str
    sparsity: float = 0.0
    n: int = 0
    m: int = 0
    bits: int = 0
    group_size: int | None = None

    def __post_init__(self):
        reads = {"unstructured": ("sparsity",), "semi_structured": ("n", "m"),
                 "quantize": ("bits", "group_size")}.get(self.kind)
        if reads is None:
            raise ValidationError(f"unknown pattern kind {self.kind!r}")
        # A field the kind does not read must keep its default.
        unused = [f.name for f in fields(self) if f.name not in ("kind", *reads)
                  and getattr(self, f.name) != f.default]
        if unused:
            raise ValidationError(f"pattern kind {self.kind!r} takes no {', '.join(unused)}")
        if self.kind == "unstructured":
            if not 0.0 <= self.sparsity <= 1.0:
                raise ValidationError(f"sparsity must be in [0, 1], got {self.sparsity}")
        elif self.kind == "semi_structured":
            if not 0 < self.n < self.m:
                raise ValidationError(f"need 0 < n < m, got n={self.n} m={self.m}")
        elif self.kind == "quantize":
            if self.bits not in SUPPORTED_BITS:
                raise ValidationError(
                    f"bits must be one of {SUPPORTED_BITS}, got {self.bits}"
                )
            if self.group_size is not None and self.group_size < 1:
                raise ValidationError("group_size must be >= 1 or None")

    @classmethod
    def unstructured(cls, sparsity: float) -> "SparsityPattern":
        return cls(kind="unstructured", sparsity=float(sparsity))

    @classmethod
    def semi_structured(cls, n: int, m: int) -> "SparsityPattern":
        return cls(kind="semi_structured", n=int(n), m=int(m))

    @classmethod
    def quantize(cls, bits: int, group_size: int | None = None) -> "SparsityPattern":
        return cls(kind="quantize", bits=int(bits), group_size=group_size)

    def describe(self) -> dict:
        if self.kind == "unstructured":
            return {"kind": self.kind, "sparsity": self.sparsity}
        if self.kind == "semi_structured":
            return {"kind": self.kind, "n": self.n, "m": self.m}
        # Every grid is symmetric; the key stays so reports and provenance keep their bytes.
        return {"kind": self.kind, "bits": self.bits, "symmetric": True,
                "group_size": self.group_size}


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def row_keep_target(d_in: int, sparsity: float) -> int:
    """Surviving weights per row for an unstructured pattern."""
    return _round_half_up((1.0 - sparsity) * d_in)


def _keep_mask(scores: np.ndarray, keep: int) -> np.ndarray:
    """Per-row mask keeping the ``keep`` highest scores; ties keep the lower
    column index (stable sort on descending score)."""
    mask = np.zeros(scores.shape, dtype=bool)
    order = np.argsort(-scores, axis=1, kind="stable")
    np.put_along_axis(mask, order[:, :keep], True, axis=1)
    return mask


def _check_inputs(weights, pattern: SparsityPattern | None, gram=None,
                  block_size: int | None = None, quantize: bool = False,
                  ref: PrunableLayerRef | None = None):
    """The one input check of every entry point and of each compressed ref.

    Returns ``weights`` and ``gram`` as float64 arrays (``gram`` stays None
    when not given). ``pattern`` must be a quantize pattern when ``quantize``
    is set and a pruning pattern otherwise; None (the refit) skips the
    pattern checks, as a None ``gram`` or ``block_size`` skips theirs. The
    weights need at least one input column. A Gram must be square, finite,
    exactly symmetric and as wide as the weights (a failure names ``ref``, if given).
    """
    W = np.asarray(weights, dtype=np.float64)
    if W.ndim != 2:
        raise ValidationError(f"weights must be 2-D, got shape {W.shape}")
    if not np.isfinite(W).all():
        raise ValidationError("weights must be finite")
    d_in = W.shape[1]
    if d_in == 0:
        raise ValidationError("weights must have at least one input column")
    if pattern is not None:
        if quantize and pattern.kind != "quantize":
            raise ValidationError("quantize_obs requires a quantize pattern")
        if not quantize and pattern.kind == "quantize":
            raise ValidationError("pruning requires an unstructured or semi_structured pattern")
        if pattern.kind == "semi_structured" and d_in % pattern.m != 0:
            raise ValidationError(f"input width {d_in} is not a multiple of m={pattern.m}")
        gs = pattern.group_size
        if gs is not None and d_in % gs != 0:
            raise ValidationError(f"group_size {gs} does not divide input width {d_in}")
    H = None
    if gram is not None:
        H = np.asarray(gram, dtype=np.float64)
        source = f"calibration ref {ref}: " if ref is not None else ""
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValidationError(f"{source}expected a square matrix, got shape {H.shape}")
        if not np.isfinite(H).all():
            raise ValidationError(f"{source}matrix entries must be finite")
        if not (H == H.T).all():
            raise ValidationError(f"{source}matrix is not exactly symmetric")
        if H.shape[0] != d_in:
            raise ValidationError(
                f"{source}gram dimension {H.shape[0]} does not match input width {d_in}"
            )
    if block_size is not None:
        if block_size < 1:
            raise ValidationError("block_size must be >= 1")
        if pattern.kind == "semi_structured" and block_size % pattern.m != 0:
            raise ValidationError(f"block_size {block_size} must be a multiple of m={pattern.m}")
    return W, H


def _score_mask(scores: np.ndarray, pattern: SparsityPattern) -> np.ndarray:
    d_in = scores.shape[1]
    if pattern.kind == "unstructured":
        return _keep_mask(scores, row_keep_target(d_in, pattern.sparsity))
    mask = np.empty(scores.shape, dtype=bool)
    for g in range(0, d_in, pattern.m):
        mask[:, g : g + pattern.m] = _keep_mask(scores[:, g : g + pattern.m], pattern.n)
    return mask


def prune_magnitude(weights, pattern: SparsityPattern):
    """Keep the largest-magnitude weights; returns (mask, masked weights)."""
    W, _ = _check_inputs(weights, pattern)
    mask = _score_mask(np.abs(W), pattern)
    return mask, np.where(mask, W, 0.0)


def prune_wanda(weights, gram: np.ndarray, pattern: SparsityPattern):
    """Activation-aware magnitude pruning: score |w_ij| * sqrt(H_jj).

    Mask only; surviving weights are returned unchanged.
    """
    W, H = _check_inputs(weights, pattern, gram)
    diag = np.diag(H)
    if (diag < 0).any():
        raise ValidationError("gram diagonal must be nonnegative")
    mask = _score_mask(np.abs(W) * np.sqrt(diag)[None, :], pattern)
    return mask, np.where(mask, W, 0.0)


def _upper_inverse_factor(damped: np.ndarray) -> np.ndarray:
    """Upper-triangular U with damped^-1 == U.T @ U."""
    return np.ascontiguousarray(cholesky(inverse_via_cholesky(damped)).T)


def _obs_walk(W: np.ndarray, U: np.ndarray, block_size: int, choose) -> None:
    """Blockwise left-to-right column walk with error feedback, in place on W.

    ``choose(W, c, i2)`` returns the replacement for column ``c`` (``i2`` ends
    the current block); it sees W with the error of every earlier column
    already pushed forward. Within a block each column's scaled error updates
    the rest of the block at once; the block's errors reach the columns past
    it in one product.
    """
    d_out, d_in = W.shape
    for i1 in range(0, d_in, block_size):
        i2 = min(i1 + block_size, d_in)
        err_block = np.zeros((d_out, i2 - i1))
        for c in range(i1, i2):
            q = choose(W, c, i2)
            err = (W[:, c] - q) / U[c, c]
            W[:, c + 1 : i2] -= np.outer(err, U[c, c + 1 : i2])
            W[:, c] = q
            err_block[:, c - i1] = err
        W[:, i2:] -= err_block @ U[i1:i2, i2:]


# Bound on rows * cols**2 for one row slice of the greedy mask. The slice's
# two history buffers (pivot columns taken, and the terms that rebuild a
# column) hold fewer than quota * rows * cols <= rows * cols**2 floats each:
# at most about 8 MB each, or one row's worth for blocks over 1024 wide.
_STACK_ENTRIES = 2 ** 20


def _greedy_block_mask(W_block: np.ndarray, ub: np.ndarray, quota: int) -> np.ndarray:
    """Greedy elimination of ``quota`` weights per row inside one block.

    ``ub.T @ ub`` is the inverse Hessian over all not-yet-frozen columns,
    restricted to the block, so the saliency w^2 / M_cc prices each removal
    with full compensation over everything still free. After each removal the
    inverse is Sherman-Morrison downdated and the row's working copy absorbs
    the compensation, so later picks see the true conditional state. Tied
    saliencies drop the higher column, matching the magnitude tie rule.

    Rows are independent, so every step eliminates one weight in every row at
    once. The downdated inverse is never stored. A step reads only its
    diagonal, which is kept up to date, and the victim's column, which is
    rebuilt from ``M0`` and the history of pivot columns and pivots taken so
    far, by the same left fold of downdates a stored inverse would have
    received. Each entry a step reads therefore sees the float operations of
    a one-row walk on the shrinking inverse, and the masks are that walk's
    bit for bit. Eliminated columns read as inf saliency; what the downdates
    leave in their entries is never read. This costs O(quota**2 * cols) per
    row instead of the O(quota * cols**2) of downdating a stored inverse.
    Rows go through in slices of at most ``max(1, _STACK_ENTRIES // cols**2)``,
    which bounds the history buffers (see ``_STACK_ENTRIES``).
    """
    d_out, cols = W_block.shape
    M0 = ub.T @ ub
    mask = np.ones((d_out, cols), dtype=bool)
    step = max(1, _STACK_ENTRIES // cols**2)
    for r0 in range(0, d_out, step):
        mask[r0 : r0 + step] = _greedy_rows(W_block[r0 : r0 + step], M0, quota)
    return mask


def _greedy_rows(W_rows: np.ndarray, M0: np.ndarray, quota: int) -> np.ndarray:
    """Row-batched body of :func:`_greedy_block_mask`; returns the kept mask.

    Step k rebuilds the victim column from ``M0[:, c]`` minus the k terms
    ``(col_s * col_s[c]) / pivot_s`` in one buffer, and ``np.subtract.reduce``
    over its first axis subtracts them in step order. The last step needs no
    downdate, so the history holds ``quota - 1`` columns.
    """
    rows, cols = W_rows.shape
    at = np.arange(rows)
    w = W_rows.copy()
    diag = np.tile(np.diag(M0), (rows, 1))
    live = np.ones((rows, cols), dtype=bool)
    depth = max(quota - 1, 0)
    history = np.empty((depth, rows, cols))
    pivots = np.empty((depth, rows))
    terms = np.empty((depth, rows, cols))
    for k in range(quota):
        sal = np.divide(w**2, diag, out=np.full((rows, cols), np.inf), where=live)
        c = cols - 1 - np.argmin(sal[:, ::-1], axis=1)
        live[at, c] = False
        if k == depth:
            break
        pivot = pivots[k] = diag[at, c]
        buf = terms[: k + 1]
        buf[0] = M0.T[c]
        np.multiply(history[:k], history[:k, at, c][:, :, None], out=buf[1:])
        buf[1:] /= pivots[:k, :, None]
        col = np.subtract.reduce(buf, axis=0, out=history[k])
        w -= (w[at, c] / pivot)[:, None] * col
        diag -= (col * col) / pivot[:, None]
    return live


def _refit_survivors(W_orig: np.ndarray, walked: np.ndarray, mask: np.ndarray,
                     damped: np.ndarray) -> np.ndarray:
    """Exact per-row least squares on the final support, in residual form.

    Correcting the walked weights by H_SS^-1 (H_SS w_S - H_S,: w_orig) lands
    on the refit optimum while leaving already-optimal rows bit-identical
    (their residual is exactly zero). From all-zero walked weights this is
    the direct solve of H_SS w'_S = H_S,: w_orig bit for bit, because
    ``0 - b`` is exactly ``-b`` and the solve is odd in its right-hand side.
    """
    out = walked.copy()
    for r in range(out.shape[0]):
        s = mask[r]
        H_SS = damped[np.ix_(s, s)]
        resid = H_SS @ out[r, s] - damped[s] @ W_orig[r]
        if not resid.any():
            continue
        try:
            out[r, s] -= solve_spd(H_SS, resid)
        except CholeskyError as exc:
            raise NumericalError(
                f"singular support submatrix for row {r} (increase dampening)"
            ) from exc
    return out


def prune_obs(weights, gram: np.ndarray, pattern: SparsityPattern,
              block_size: int = DEFAULT_BLOCK_SIZE,
              damp_fraction: float = DEFAULT_DAMP_FRACTION):
    """Blockwise OBS pruning; returns (mask, compensated weights).

    Columns are processed left to right in blocks. Unstructured masks are
    chosen per block by greedy single-weight elimination against the exact
    inverse Hessian over not-yet-frozen columns (quota round-distributed over
    blocks so every row ends with exactly round((1 - s) * d_in) survivors);
    semi-structured masks are chosen per aligned m-group as the walk reaches
    it. Pruning errors propagate into later columns through the Cholesky
    factor of the damped inverse Gram, and the survivors finally get an exact
    least-squares polish on their support.
    """
    W_orig, H = _check_inputs(weights, pattern, gram, block_size)
    W = W_orig.copy()
    d_out, d_in = W.shape
    damped = dampen(H, damp_fraction)
    U = _upper_inverse_factor(damped)
    diag = np.diag(U)

    mask = np.ones((d_out, d_in), dtype=bool)
    if pattern.kind == "unstructured":
        prune_total = d_in - row_keep_target(d_in, pattern.sparsity)
        if prune_total == 0:
            return mask, W

    def choose(W, c, i2):
        if pattern.kind == "unstructured" and c % block_size == 0:
            quota = (_round_half_up(prune_total * i2 / d_in)
                     - _round_half_up(prune_total * c / d_in))
            if quota > 0:
                mask[:, c:i2] = _greedy_block_mask(W[:, c:i2], U[c:i2, c:i2], quota)
        elif pattern.kind == "semi_structured" and c % pattern.m == 0:
            grp = slice(c, c + pattern.m)
            mask[:, grp] = _keep_mask(W[:, grp] ** 2 / diag[grp] ** 2, pattern.n)
        return np.where(mask[:, c], W[:, c], 0.0)

    _obs_walk(W, U, block_size, choose)
    return mask, _refit_survivors(W_orig, W, mask, damped)


def _grid_snap(W_cols: np.ndarray, scale: np.ndarray, qmax: int) -> np.ndarray:
    """Snap columns to the per-row symmetric grid {-qmax..qmax} * scale."""
    positive = scale > 0
    levels = np.divide(W_cols, scale[:, None], out=np.zeros_like(W_cols),
                       where=positive[:, None])
    return np.clip(np.round(levels), -qmax, qmax) * scale[:, None]


def _quantize_obs_impl(weights, gram: np.ndarray, pattern: SparsityPattern,
                       block_size: int, damp_fraction: float):
    W, H = _check_inputs(weights, pattern, gram, block_size, quantize=True)
    W = W.copy()
    gs = pattern.group_size or W.shape[1]
    qmax = 2 ** (pattern.bits - 1) - 1

    U = _upper_inverse_factor(dampen(H, damp_fraction))
    scales = []

    def choose(W, c, i2):
        if c % gs == 0:
            # Group grids are refit on the current weights so that error
            # compensation from earlier columns is taken into account.
            scales.append(np.abs(W[:, c : c + gs]).max(axis=1) / qmax)
        return _grid_snap(W[:, c : c + 1], scales[-1], qmax)[:, 0]

    _obs_walk(W, U, block_size, choose)
    return W, np.stack(scales, axis=1)


def quantize_obs(weights, gram: np.ndarray, pattern: SparsityPattern,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 damp_fraction: float = DEFAULT_DAMP_FRACTION) -> np.ndarray:
    """Error-compensated rounding onto a symmetric per-row (or per-group) grid.

    The scale is max|w| in the group divided by 2^(bits-1) - 1; an ungrouped
    grid is one group that spans the row. With an identity Gram no
    compensation flows and the result is plain round-to-nearest.
    """
    W, _ = _quantize_obs_impl(weights, gram, pattern, block_size, damp_fraction)
    return W


def refit_fixed_mask(weights, gram: np.ndarray, mask) -> np.ndarray:
    """Least-squares optimal weights on a fixed support.

    Per row, the surviving coefficients solve H_SS w'_S = H_S,: w, through
    the refit that polishes :func:`prune_obs` output. Rows with empty
    support come back all zero.
    """
    W, H = _check_inputs(weights, None, gram)
    M = np.asarray(mask, dtype=bool)
    if M.shape != W.shape:
        raise ValidationError(
            f"mask shape {M.shape} does not match weights shape {W.shape}"
        )
    return _refit_survivors(W, np.zeros_like(W), M, H)


def trace_form_loss(original, compressed, gram: np.ndarray) -> float:
    """Sum over rows of (w - w')^T H (w - w'); equals ||(W - W') X||_F^2.

    ``original`` and ``compressed`` have one shape: a matrix, or one row.
    """
    A = np.atleast_2d(np.asarray(original, dtype=np.float64))
    B = np.atleast_2d(np.asarray(compressed, dtype=np.float64))
    if A.shape != B.shape:
        raise ValidationError(
            f"compressed shape {B.shape} does not match original shape {A.shape}"
        )
    _, H = _check_inputs(A, None, gram)
    return _trace_loss(A, B, H)


def _trace_loss(W: np.ndarray, W_new: np.ndarray, H: np.ndarray) -> float:
    """:func:`trace_form_loss` on float64 matrices of one shape and a checked
    Gram, without the checks."""
    D = W - W_new
    return float(np.einsum("ij,ij->", D @ H, D))


@dataclass
class RefReport:
    ref: PrunableLayerRef
    loss: float
    seconds: float
    achieved: dict


@dataclass
class CompressionReport:
    method: str
    pattern: dict
    calibration_mode: str
    input_model_hash: str
    output_model_hash: str
    refs: list[RefReport] = field(default_factory=list)

    def as_dict(self) -> dict:
        """Deterministic report body; wall-clock timings live in `timings()`."""
        return {
            "method": self.method,
            "pattern": self.pattern,
            "calibration_mode": self.calibration_mode,
            "input_model_hash": self.input_model_hash,
            "output_model_hash": self.output_model_hash,
            "refs": {str(r.ref): {"loss": r.loss, "achieved": r.achieved}
                     for r in self.refs},
        }

    def timings(self) -> dict:
        return {str(r.ref): r.seconds for r in self.refs}


def _prune_audit(mask: np.ndarray, pattern: SparsityPattern) -> dict:
    d_in = mask.shape[1]
    audit = {"kind": pattern.kind,
             "sparsity": float(1.0 - mask.mean())}
    if pattern.kind == "unstructured":
        target = row_keep_target(d_in, pattern.sparsity)
        counts = mask.sum(axis=1)
        audit["keep_per_row"] = target
        audit["rows_off_target"] = int((counts != target).sum())
    else:
        groups = mask.reshape(mask.shape[0], d_in // pattern.m, pattern.m)
        zeros = pattern.m - groups.sum(axis=2)
        audit["n"] = pattern.n
        audit["m"] = pattern.m
        audit["groups"] = int(zeros.size)
        audit["groups_with_exact_zeros"] = int((zeros == pattern.m - pattern.n).sum())
    return audit


# The solve a forked pool worker runs; set by the pool's initializer, so it
# reaches the workers through fork and is never pickled.
_worker_solve = None


def _install_worker_solve(solve) -> None:
    global _worker_solve
    _worker_solve = solve


def _run_worker_solve(index: int):
    return _worker_solve(index)


def _solve_all(solve, count: int, workers: int, take) -> None:
    """``take(solve(i))`` for each ``i`` in ``range(count)``, in index order,
    with the solves spread over ``workers`` forked workers.

    Each result reaches ``take`` as soon as it and every result before it are
    in, while the workers go on with the rest, so the caller need not hold
    them all. The error of the first failing index is raised, as the plain
    loop would; a worker that dies raises ``BrokenProcessPool``. The workers
    inherit everything ``solve`` reads, the caller's BLAS thread counts
    included. Where one worker would do, or where this process cannot fork
    children safely (a daemonic process, or a second Python thread that may
    hold a lock at the fork), the loop runs here instead. No worker is left
    running on return, also when a solve or ``take`` raises.
    """
    if workers > 1:
        import multiprocessing
        import threading

        if multiprocessing.current_process().daemon or threading.active_count() > 1:
            workers = 1
    if workers == 1:
        for i in range(count):
            take(solve(i))
        return
    from concurrent.futures import ProcessPoolExecutor

    # With fork, the executor starts every worker before its own threads.
    # Closing the result iterator cancels the solves not yet handed out, and
    # leaving the pool's block joins every worker.
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_install_worker_solve,
                             initargs=(solve,)) as pool, \
            closing(pool.map(_run_worker_solve, range(count))) as results:
        for result in results:
            take(result)


def compress_model(model: ModelBundle, calib: CalibrationSet, mode: str,
                   method: str, pattern: SparsityPattern, refs=None,
                   block_size: int = DEFAULT_BLOCK_SIZE,
                   damp_fraction: float = DEFAULT_DAMP_FRACTION):
    """Compress every requested ref independently against its calibration Gram.

    ``mode`` names the Gram that is solved: ``rac`` uses prompt + decode,
    ``prompt_only`` the prompt-phase Gram alone, whichever mode collected the
    calibration. ``mode`` and ``method`` take the underscore names of
    :data:`COMPRESSION_MODES` and :data:`METHODS`. Reported losses are
    evaluated on the same (undamped) Gram the solver consumed. The
    calibration's model and every ref are checked here before any solve
    starts. The Gram solvers ``obs`` and ``obs_quant`` run in forked
    workers, one per usable CPU (:func:`usable_cpus`, :func:`_solve_all`);
    ``magnitude`` and ``wanda`` take a few milliseconds a ref, less than
    starting the workers costs, and run here. Each ref's weights go into the
    bundle as its result arrives, in ref order, so the results are never all
    held at once. Every solve has BLAS on one thread
    (:func:`single_blas_thread`), which is faster on these small matrices and
    keeps the result independent of the caller's thread count and of the
    number of CPUs. Returns (compressed bundle, :class:`CompressionReport`).
    """
    model_hash = model_content_hash(model)
    recorded = calib.provenance.get("model_hash")
    if recorded is not None and recorded != model_hash:
        raise ValidationError(
            "calibration set was collected on a different model "
            f"(calibration {str(recorded)[:12]}.., model {model_hash[:12]}..)"
        )
    if mode not in COMPRESSION_MODES:
        raise ValidationError(f"unknown compression mode {mode!r}")
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}, expected one of {METHODS}")
    check_damp_fraction(damp_fraction)

    refs = sort_refs(calib.refs if refs is None else refs)
    if not refs:
        raise ValidationError("no refs selected for compression")
    for ref in refs:
        check_ref(model.config, ref)
    missing = [r for r in refs if r not in calib.stats]
    if missing:
        raise ValidationError(f"calibration set lacks refs: {missing}")

    def gram_of(ref):  # the Gram that mode solves against
        return merged_gram(calib, ref) if mode == "rac" else calib.stats[ref].gram_prompt

    for ref in refs:
        st = calib.stats[ref]
        _check_inputs(get_weight(model, ref), pattern, gram_of(ref), block_size,
                      quantize=method == "obs_quant", ref=ref)
        if mode == "rac" and st.n_decode == 0:
            raise ValidationError(
                f"mode 'rac' requires decode columns, but {ref} has none"
            )
        if mode != "rac" and st.n_prompt == 0:
            raise ValidationError(
                f"mode {mode!r} requires prompt columns, but {ref} has none"
            )

    def solve(index: int):
        ref = refs[index]
        start = time.perf_counter()
        W = get_weight(model, ref)
        gram = gram_of(ref)
        if method == "obs_quant":
            W_new, scales = _quantize_obs_impl(W, gram, pattern, block_size,
                                               damp_fraction)
            achieved = {
                "kind": "quantize",
                "bits": pattern.bits,
                "group_size": pattern.group_size,
                "groups_per_row": int(scales.shape[1]),
                "scale_mean": float(scales.mean()),
                "scale_max": float(scales.max()),
            }
        else:
            mask, W_new = (
                prune_magnitude(W, pattern) if method == "magnitude"
                else prune_wanda(W, gram, pattern) if method == "wanda"
                else prune_obs(W, gram, pattern, block_size, damp_fraction))
            achieved = _prune_audit(mask, pattern)
        # The Gram solvers have checked ``gram``; magnitude reads it only here.
        loss = (trace_form_loss if method == "magnitude" else _trace_loss)(W, W_new, gram)
        return RefReport(ref, loss, time.perf_counter() - start, achieved), W_new

    bundle, reports = model, []

    def take(result):  # keeps the report; the weights live on in the bundle only
        nonlocal bundle
        ref_report, W_new = result
        bundle = apply_compressed(bundle, ref_report.ref, W_new)
        reports.append(ref_report)

    workers = min(len(refs), usable_cpus()) if method in ("obs", "obs_quant") else 1
    with single_blas_thread():
        _solve_all(solve, len(refs), workers, take)

    report = CompressionReport(
        method=method,
        pattern=pattern.describe(),
        calibration_mode=mode,
        input_model_hash=model_hash,
        output_model_hash=model_content_hash(bundle),
        refs=reports,
    )
    return bundle, report
