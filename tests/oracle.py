"""Independent reference implementations used only to check the package.

Most of this is written in a deliberately different style from the
library: full-sequence vectorized forward with an explicit causal mask, no
KV cache, no incremental state. Agreement between the two is evidence, not
tautology. The exceptions are older library loops kept verbatim, so that
their replacements can be held to their bits: the one-token runtime driver
(``stepwise_run``), the per-row greedy OBS mask, the per-column Gram update,
the direct fixed-mask refit and scipy's Cholesky solve wrappers.
"""

import math

import numpy as np
import scipy.linalg
from scipy.special import erf

from rackit.errors import NumericalError, ValidationError
from rackit.model import (
    GREEDY,
    STOP_BYTE,
    ModelBundle,
    PrunableLayerRef,
    Sampler,
    sort_refs,
)

_SQRT1_2 = 1.0 / math.sqrt(2.0)


def _ln_rows(x, gain, bias, eps):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def _gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def reference_forward(model, tokens, refs=()):
    """Whole-sequence forward with masked attention.

    Returns (logits, hidden_before_final_norm, captures) where captures maps
    each requested ref to the (T, d_in) matrix of slot inputs.
    """
    cfg = model.config
    toks = np.asarray(list(tokens), dtype=np.int64)
    T = toks.size
    heads, hd = cfg.n_heads, cfg.head_dim
    want = {(r.layer_index, r.slot) for r in refs}
    caps = {}

    def grab(li, slot, rows):
        if (li, slot) in want:
            caps[PrunableLayerRef(li, slot)] = np.array(rows)

    x = model.token_embedding[toks] + model.position_embedding[:T]
    causal = np.tril(np.ones((T, T), dtype=bool))
    for li, lw in enumerate(model.layers):
        u = _ln_rows(x, lw.ln1_gain, lw.ln1_bias, cfg.layernorm_epsilon)
        grab(li, "attn_q", u)
        grab(li, "attn_k", u)
        grab(li, "attn_v", u)
        q = (u @ lw.attn_q.T).reshape(T, heads, hd)
        k = (u @ lw.attn_k.T).reshape(T, heads, hd)
        v = (u @ lw.attn_v.T).reshape(T, heads, hd)
        scores = np.einsum("qhd,khd->hqk", q, k) / np.sqrt(hd)
        scores = np.where(causal[None, :, :], scores, -np.inf)
        scores = scores - scores.max(axis=2, keepdims=True)
        att = np.exp(scores)
        att = att / att.sum(axis=2, keepdims=True)
        ctx = np.einsum("hqk,khd->qhd", att, v).reshape(T, cfg.d_model)
        grab(li, "attn_out", ctx)
        x = x + ctx @ lw.attn_out.T
        u2 = _ln_rows(x, lw.ln2_gain, lw.ln2_bias, cfg.layernorm_epsilon)
        grab(li, "mlp_up", u2)
        act = _gelu(u2 @ lw.mlp_up.T)
        grab(li, "mlp_down", act)
        x = x + act @ lw.mlp_down.T

    final = _ln_rows(x, model.final_norm_gain, model.final_norm_bias,
                     cfg.layernorm_epsilon)
    logits = final @ model.output_projection.T
    return logits, x, caps


def uncached_greedy_decode(model, prompt, max_new):
    """Greedy rollout that re-forwards the whole prefix at every step."""
    seq = list(prompt)
    for _ in range(max_new):
        logits, _, _ = reference_forward(model, seq)
        tok = int(np.argmax(logits[-1]))
        seq.append(tok)
        if tok == 0:
            break
    return seq


def rtn_quantize(W, bits, group_size=None):
    """Plain round-to-nearest onto the symmetric max-abs grid."""
    qmax = 2 ** (bits - 1) - 1
    W = np.asarray(W, dtype=np.float64)
    out = np.zeros_like(W)
    if group_size is None:
        groups = [(0, W.shape[1])]
    else:
        groups = [(g, g + group_size) for g in range(0, W.shape[1], group_size)]
    for g1, g2 in groups:
        block = W[:, g1:g2]
        scale = np.abs(block).max(axis=1) / qmax
        positive = scale > 0
        levels = np.divide(block, scale[:, None], out=np.zeros_like(block),
                           where=positive[:, None])
        out[:, g1:g2] = np.clip(np.round(levels), -qmax, qmax) * scale[:, None]
    return out


def direct_loss(original, compressed, X):
    """Reconstruction objective straight from its definition on materialized X."""
    D = np.atleast_2d(np.asarray(original) - np.asarray(compressed))
    return float(np.linalg.norm(D @ X, ord="fro") ** 2)


def accumulate_gram_per_column(acc: np.ndarray, column) -> np.ndarray:
    """Rank-1 update ``acc += column @ column.T``, in place.

    The outer product of a column with itself is elementwise symmetric, so the
    exact-symmetry invariant survives without any mirroring step. Updates are
    applied in arrival order; the same column sequence always reproduces the
    same bits.
    """
    col = np.asarray(column, dtype=np.float64)
    if col.ndim != 1 or col.shape[0] != acc.shape[0]:
        raise ValidationError(
            f"column has shape {col.shape}, accumulator dimension is {acc.shape[0]}"
        )
    if not np.isfinite(col).all():
        raise ValidationError("column entries must be finite")
    acc += col[:, None] * col[None, :]
    return acc


def greedy_block_mask_per_row(W_block, ub, quota):
    """One row at a time, on an inverse that shrinks by ``np.delete``.

    The greedy in-block OBS elimination as a plain per-row loop: saliency
    w^2 / M_cc over the live columns, the higher column on ties, then the
    Sherman-Morrison downdate and removal of the victim's row and column.
    """
    d_out, cols = W_block.shape
    M0 = ub.T @ ub
    mask = np.ones((d_out, cols), dtype=bool)
    for r in range(d_out):
        live = np.arange(cols)
        M = M0.copy()
        w = W_block[r].copy()
        for _ in range(quota):
            sal = w[live] ** 2 / np.diag(M)
            k = sal.size - 1 - int(np.argmin(sal[::-1]))
            c = live[k]
            mask[r, c] = False
            pivot = M[k, k]
            col = M[:, k].copy()
            w[live] -= (w[c] / pivot) * col
            w[c] = 0.0
            M -= np.outer(col, col) / pivot
            M = np.delete(np.delete(M, k, axis=0), k, axis=1)
            live = np.delete(live, k)
    return mask


def cho_solve_scipy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b through scipy.linalg's Cholesky wrappers."""
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(a, lower=True), b)


def inverse_scipy(a: np.ndarray) -> np.ndarray:
    """Inverse of an SPD matrix by scipy's dpotri on its lower Cholesky
    factor, the lower triangle mirrored into the upper."""
    inv, info = scipy.linalg.lapack.dpotri(scipy.linalg.cho_factor(a, lower=True)[0],
                                           lower=1)
    assert info == 0
    return np.tril(inv) + np.tril(inv, -1).T


def _solve_on_support(H_SS: np.ndarray, rhs: np.ndarray, row: int) -> np.ndarray:
    """Solve H_SS x = rhs by Cholesky for one row's support."""
    try:
        return cho_solve_scipy(H_SS, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"singular support submatrix for row {row} (increase dampening)"
        ) from exc


def refit_fixed_mask_direct(weights, gram: np.ndarray, mask) -> np.ndarray:
    """Least-squares optimal weights on a fixed support, one direct solve per row.

    Per row, the surviving coefficients solve H_SS w'_S = H_S,: w. Rows with
    empty support come back all zero.
    """
    W = np.asarray(weights, dtype=np.float64)
    M = np.asarray(mask, dtype=bool)
    if W.ndim != 2 or M.shape != W.shape:
        raise ValidationError(
            f"mask shape {M.shape} does not match weights shape {W.shape}"
        )
    H = np.asarray(gram, dtype=np.float64)
    if H.shape != (W.shape[1], W.shape[1]):
        raise ValidationError(
            f"gram dimension {H.shape[0]} does not match input width {W.shape[1]}"
        )
    out = np.zeros_like(W)
    for r in range(W.shape[0]):
        support = np.flatnonzero(M[r])
        if support.size == 0:
            continue
        out[r, support] = _solve_on_support(
            H[np.ix_(support, support)], H[support, :] @ W[r], r
        )
    return out


def _step_layer_norm(v, gain, bias, eps):
    mu = v.mean()
    centered = v - mu
    var = np.mean(centered * centered)
    return centered * (gain / np.sqrt(var + eps)) + bias


def _step_gelu(v):
    return 0.5 * v * (1.0 + erf(v * _SQRT1_2))


class _StepState:
    """The one-token driver's own state: the position reached plus one
    (max_positions, heads, head_dim) KV cache per layer."""

    def __init__(self, model: ModelBundle):
        cfg = model.config
        self.position = 0
        shape = (cfg.max_positions, cfg.n_heads, cfg.head_dim)
        self._k = [np.empty(shape) for _ in range(cfg.n_layers)]
        self._v = [np.empty(shape) for _ in range(cfg.n_layers)]


def _step_advance(model: ModelBundle, state: _StepState, token: int, collect=None):
    """Process one token; returns (logits, last-block hidden state)."""
    cfg = model.config
    pos = state.position
    if not 0 <= token < cfg.vocab_size:
        raise ValidationError(f"token {token} outside byte vocabulary")
    if pos >= cfg.max_positions:
        raise ValidationError(
            f"sequence exceeds max_positions={cfg.max_positions}"
        )
    heads, hd = cfg.n_heads, cfg.head_dim
    inv_sqrt_hd = 1.0 / math.sqrt(hd)

    x = model.token_embedding[token] + model.position_embedding[pos]
    for li, lw in enumerate(model.layers):
        u = _step_layer_norm(x, lw.ln1_gain, lw.ln1_bias, cfg.layernorm_epsilon)
        if collect is not None:
            for slot in ("attn_q", "attn_k", "attn_v"):
                sink = collect.get((li, slot))
                if sink is not None:
                    sink.append(u.copy())
        q = (lw.attn_q @ u).reshape(heads, hd)
        state._k[li][pos] = (lw.attn_k @ u).reshape(heads, hd)
        state._v[li][pos] = (lw.attn_v @ u).reshape(heads, hd)
        keys = state._k[li][: pos + 1]
        vals = state._v[li][: pos + 1]
        scores = np.einsum("phd,hd->hp", keys, q) * inv_sqrt_hd
        scores -= scores.max(axis=1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=1, keepdims=True)
        ctx = np.einsum("hp,phd->hd", scores, vals).reshape(cfg.d_model)
        if collect is not None:
            sink = collect.get((li, "attn_out"))
            if sink is not None:
                sink.append(ctx.copy())
        x = x + lw.attn_out @ ctx
        u2 = _step_layer_norm(x, lw.ln2_gain, lw.ln2_bias, cfg.layernorm_epsilon)
        if collect is not None:
            sink = collect.get((li, "mlp_up"))
            if sink is not None:
                sink.append(u2.copy())
        act = _step_gelu(lw.mlp_up @ u2)
        if collect is not None:
            sink = collect.get((li, "mlp_down"))
            if sink is not None:
                sink.append(act.copy())
        x = x + lw.mlp_down @ act

    state.position = pos + 1
    final = _step_layer_norm(x, model.final_norm_gain, model.final_norm_bias,
                             cfg.layernorm_epsilon)
    logits = model.output_projection @ final
    return logits, x


def _sample(logits, sampler: Sampler, rng):
    if sampler.kind == "greedy":
        return int(np.argmax(logits))
    z = logits / sampler.temperature
    z = z - z.max()
    p = np.exp(z)
    p /= p.sum()
    return int(rng.choice(p.size, p=p))


def stepwise_run(model: ModelBundle, tokens, refs=(), max_new: int = 0,
                 sampler: Sampler = GREEDY):
    """The one-token-at-a-time runtime driver, kept as the reference.

    Advance ``tokens``, then sample up to ``max_new`` more.

    Generation ends after ``max_new`` tokens or at the stop byte 0x00, which
    is kept. Returns (tokens, logits, hidden states, captures), with one row
    per advanced position. The last sampled token is advanced only when
    ``refs`` asks for captures, so that its slot inputs are recorded too.
    """
    refs = sort_refs(refs)
    for r in refs:
        if r.layer_index >= model.config.n_layers:
            raise ValidationError(f"capture ref {r} out of range")
    seq = [int(t) for t in tokens]
    if not seq:
        raise ValidationError("token sequence must be nonempty")
    if max_new < 0:
        raise ValidationError(f"max_new must be >= 0, got {max_new}")
    cap = model.config.max_positions
    if len(seq) + max_new > cap:
        what = (f"prompt ({len(seq)}) + max_new ({max_new})" if max_new
                else f"sequence length {len(seq)}")
        raise ValidationError(f"{what} exceeds max_positions={cap}")
    collect = {(r.layer_index, r.slot): [] for r in refs} or None
    state = _StepState(model)
    logits_rows = []
    hidden_rows = []

    def step(tok):
        logits, hidden = _step_advance(model, state, tok, collect)
        logits_rows.append(logits)
        hidden_rows.append(hidden)

    for tok in seq:
        step(tok)
    rng = np.random.default_rng(sampler.seed) if sampler.kind == "temperature" else None
    for i in range(max_new):
        tok = _sample(logits_rows[-1], sampler, rng)
        seq.append(tok)
        done = tok == STOP_BYTE or i == max_new - 1
        if collect is not None or not done:
            step(tok)
        if done:
            break
    captures = {
        r: np.array(collect[(r.layer_index, r.slot)]) for r in refs
    } if collect else {}
    return seq, np.array(logits_rows), np.array(hidden_rows), captures
