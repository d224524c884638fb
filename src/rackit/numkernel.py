"""Symmetric-matrix primitives backing the layerwise solvers.

Gram accumulators are plain float64 arrays that take blocks of activation
columns in arrival order. A block updates each entry as the sum of one
product per column, added left to right, so the bits never depend on how a
column sequence is cut into blocks. Factorization and inversion go through
LAPACK (dpotrf/dpotri) so the solvers only ever see explicitly symmetric
matrices. Every routine works in 64-bit floats regardless of how model
weights are stored.

Accumulators are single-writer: nothing here locks, callers must not share a
matrix between concurrent updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri

from .errors import CholeskyError, NumericalError, ValidationError

__all__ = [
    "SymMatrix",
    "CholeskyFactor",
    "accumulate_gram",
    "dampen",
    "cholesky",
    "inverse_via_cholesky",
]


@dataclass
class SymMatrix:
    """Square symmetric float64 matrix.

    ``data`` is row-major with ``data[i, j] == data[j, i]`` exactly. The plain
    constructor trusts its inputs; use :meth:`from_array` for untrusted data.
    """

    dim: int
    data: np.ndarray

    @classmethod
    def zeros(cls, dim: int) -> "SymMatrix":
        if dim < 1:
            raise ValidationError(f"matrix dimension must be >= 1, got {dim}")
        return cls(dim, np.zeros((dim, dim), dtype=np.float64))

    @classmethod
    def from_array(cls, arr) -> "SymMatrix":
        """Validated constructor: square, finite, exactly symmetric."""
        data = np.array(arr, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ValidationError(f"expected a square matrix, got shape {data.shape}")
        if not np.isfinite(data).all():
            raise ValidationError("matrix entries must be finite")
        if not (data == data.T).all():
            raise ValidationError("matrix is not exactly symmetric")
        return cls(data.shape[0], data)

    def copy(self) -> "SymMatrix":
        return SymMatrix(self.dim, self.data.copy())


@dataclass
class CholeskyFactor:
    """Lower-triangular factor L with L @ L.T reconstructing the source."""

    dim: int
    lower: np.ndarray

    def __post_init__(self):
        if not (np.diag(self.lower) > 0).all():
            raise NumericalError("Cholesky factor must have positive diagonal")

    def reconstruct(self) -> np.ndarray:
        return self.lower @ self.lower.T


# Row strip height and columns per chunk of the tiled Gram update; one strip
# buffer holds (_CHUNK_COLS + 1) * (_STRIP_ROWS + 1) * dim floats, 1.2 MB at
# dim 512.
_STRIP_ROWS = 8
_CHUNK_COLS = 32


def accumulate_gram(acc: SymMatrix, columns) -> SymMatrix:
    """Add ``x xᵀ`` for each column ``x`` of ``columns`` to ``acc``, in place.

    ``columns`` is one column of length ``acc.dim`` or a ``(T, acc.dim)``
    block of T columns in arrival order. Every entry gets the left fold
    ``((H + x1_i x1_j) + x2_i x2_j) + ...``, the bits of one rank-1 update
    per column, so a column sequence gives the same Gram however it is cut
    into blocks. An empty block changes nothing. A block with a wrong shape
    or a non-finite entry raises :class:`ValidationError` before ``acc`` is
    touched.

    Only the upper triangle is computed, in strips of ``_STRIP_ROWS`` rows
    from the diagonal rightwards. For each chunk of ``_CHUNK_COLS`` columns a
    buffer holds the strip followed by the chunk's products, and one
    ``np.add.reduce`` over the buffer's first axis adds them in order into
    the strip. The strip is then mirrored into the lower triangle, which is
    exact because ``x_i x_j == x_j x_i`` in IEEE arithmetic.

    No strip may be a single 1x1 tile, the last row on its own when ``dim``
    is 1 more than a multiple of ``_STRIP_ROWS``: numpy would then reduce
    the one-element rows as a contiguous run, summing pairwise instead of
    left to right, and the diagonal entry would change bits. That last row
    joins the strip above it, and a 1-wide Gram takes one update per column.
    """
    x = np.asarray(columns, dtype=np.float64)
    block = x[None, :] if x.ndim == 1 else x
    if block.ndim != 2 or block.shape[1] != acc.dim:
        raise ValidationError(
            f"columns have shape {x.shape}, accumulator dimension is {acc.dim}"
        )
    if not np.isfinite(block).all():
        raise ValidationError("column entries must be finite")
    h, d = acc.data, acc.dim
    if d == 1:
        for col in block:
            h += col[:, None] * col[None, :]
        return acc
    starts = list(range(0, d, _STRIP_ROWS))
    if d % _STRIP_ROWS == 1:
        del starts[-1]
    buf = np.empty((min(_CHUNK_COLS, len(block)) + 1) * (_STRIP_ROWS + 1) * d)
    for i0, i1 in zip(starts, starts[1:] + [d]):
        strip = h[i0:i1, i0:]
        for t0 in range(0, len(block), _CHUNK_COLS):
            chunk = block[t0 : t0 + _CHUNK_COLS]
            n = len(chunk)
            tile = buf[: (n + 1) * strip.size].reshape(n + 1, *strip.shape)
            tile[0] = strip
            np.multiply(chunk[:, i0:i1, None], chunk[:, None, i0:], out=tile[1:])
            np.add.reduce(tile, axis=0, out=strip)
        h[i1:, i0:i1] = h[i0:i1, i1:].T
    return acc


def dampen(m: SymMatrix, fraction: float) -> SymMatrix:
    """Return a copy with ``fraction * mean(diag)`` added to every diagonal entry.

    A zero mean diagonal falls back to adding ``fraction * 1.0`` so that a
    positive fraction always moves the matrix toward positive definiteness.
    """
    if fraction < 0:
        raise ValidationError(f"dampening fraction must be >= 0, got {fraction}")
    mean_diag = float(np.trace(m.data)) / m.dim
    shift = fraction * (mean_diag if mean_diag != 0.0 else 1.0)
    out = m.data.copy()
    out[np.diag_indices(m.dim)] += shift
    return SymMatrix(m.dim, out)


def cholesky(m: SymMatrix) -> CholeskyFactor:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Raises :class:`CholeskyError` carrying the 0-based index of the first
    non-positive pivot.
    """
    c, info = dpotrf(m.data, lower=1, clean=1, overwrite_a=0)
    if info > 0:
        raise CholeskyError(info - 1)
    if info < 0:
        raise NumericalError(f"dpotrf rejected argument {-info}")
    return CholeskyFactor(m.dim, c)


def inverse_via_cholesky(m: SymMatrix) -> SymMatrix:
    """Inverse of a symmetric positive definite matrix via its Cholesky factor."""
    inv, info = dpotri(cholesky(m).lower, lower=1)
    if info != 0:
        raise NumericalError(f"dpotri failed with info={info}")
    # dpotri fills one triangle only; mirror it so symmetry is exact.
    lower = np.tril(inv)
    full = lower + np.tril(inv, -1).T
    if not np.isfinite(full).all():
        raise NumericalError("inverse contains non-finite entries")
    return SymMatrix(m.dim, full)
