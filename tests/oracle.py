"""Independent reference implementations used only to check the package.

Everything here is written in a deliberately different style from the
library: full-sequence vectorized forward with an explicit causal mask, no
KV cache, no incremental state. Agreement between the two is evidence, not
tautology.
"""

import numpy as np
from scipy.special import erf

from rackit.model import PrunableLayerRef


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
