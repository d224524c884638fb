"""Incremental transformer runtime with activation capture and KV caching.

One step routine, :func:`_advance`, moves a chunk of T known tokens through
the model against the KV cache. A chunk that feeds captures or sampling is
prefix-stable: its products and attention give every row the bits of a
one-token step, so captures, prompt prefills and rollouts depend on each
position's prefix alone, in any chunking. Such runs go through as one chunk
of known tokens, then one chunk per generated token. A sequence that is only
scored goes through as one chunk of plain matrix products, which is faster
but can round differently from a one-row product; whole-sequence scores are
therefore deterministic per (model, sequence) only, not per prefix, and stay
within about 1e-15 relative of a token-by-token pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from ..errors import ValidationError
from .bundle import BYTE_VOCAB, SLOT_INPUT, ModelBundle, PrunableLayerRef, sort_refs

__all__ = [
    "STOP_BYTE",
    "Sampler",
    "GREEDY",
    "DecodeState",
    "check_tokens",
    "forward_teacher_forced",
    "last_layer_states",
    "decode",
    "rollout",
]

STOP_BYTE = 0

_SQRT1_2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Sampler:
    """Token picker: argmax, or softmax at a temperature with its own seed."""

    kind: str = "greedy"
    temperature: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("greedy", "temperature"):
            raise ValidationError(f"unknown sampler kind {self.kind!r}")
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValidationError("temperature must be finite and positive")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


GREEDY = Sampler()


def check_tokens(tokens) -> list[int]:
    """``tokens`` as a list of ints; a token that is not an integral byte
    value raises :class:`ValidationError`."""
    seq = []
    for t in tokens:
        try:
            i = int(t)
        except (TypeError, ValueError, OverflowError):
            i = None
        if i is None or i != t:
            raise ValidationError(f"token {t!r} is not an integer")
        if not 0 <= i < BYTE_VOCAB:
            raise ValidationError(f"token {i} outside byte vocabulary")
        seq.append(i)
    return seq


class DecodeState:
    """Single-owner incremental state: the position reached plus per-layer KV cache.

    The cache holds exactly ``position`` filled rows per layer.
    """

    def __init__(self, model: ModelBundle):
        cfg = model.config
        self.position = 0
        shape = (cfg.max_positions, cfg.n_heads, cfg.head_dim)
        self._k = [np.empty(shape) for _ in range(cfg.n_layers)]
        self._v = [np.empty(shape) for _ in range(cfg.n_layers)]


def _layer_norm(v, gain, bias, eps):
    # add.reduce / n, not mean(axis=-1): the same bits as a 1-D mean, cheaper
    n = v.shape[-1]
    mu = np.add.reduce(v, axis=-1, keepdims=True) / n
    centered = v - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / n
    return centered * (gain / np.sqrt(var + eps)) + bias


def _gelu(v):
    return 0.5 * v * (1.0 + erf(v * _SQRT1_2))


def _product(u, w, stable):
    """``u @ w.T`` over the T rows of ``u``.

    A stable product of several rows runs one row at a time inside numpy,
    so each row has the bits of the one-row product; otherwise, and for a
    single row, it is one matrix product.
    """
    if stable and len(u) > 1:
        return (u[:, None, :] @ w.T)[:, 0]
    return u @ w.T


def _attend(q, keys, vals, scale, stable):
    """Causal softmax attention of the T queries ``q`` at the last T cache rows.

    A stable chunk, or a single query, goes through ``einsum`` over all
    cache rows with the future masked out, which gives each query the bits
    of a one-query step. Other chunks go through batched ``matmul``, which
    is faster on long chunks but rounds differently.
    """
    t, p = q.shape[0], keys.shape[0]
    future = np.triu(np.ones((t, p), dtype=bool), p - t + 1) if t > 1 else None
    per_query = stable or t == 1
    if per_query:
        scores = np.einsum("phd,thd->thp", keys, q) * scale
        # einsum lays the scores out as (t, p, h), so the sum over p below
        # adds in cache order and the masked zeros at the end change no bit
        # (a sum over contiguous p would add pairwise, in another order).
        if future is not None:
            scores.transpose(0, 2, 1)[future] = -np.inf
    else:
        scores = (q.transpose(1, 0, 2) @ keys.transpose(1, 2, 0)) * scale
        scores[:, future] = -np.inf
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    if per_query:
        return np.einsum("thp,phd->thd", scores, vals)
    return (scores @ vals.transpose(1, 0, 2)).transpose(1, 0, 2)


def _advance(model: ModelBundle, state: DecodeState, tokens, collect, stable):
    """Process a chunk of T valid tokens; returns (logits, last-block states), T rows each.

    ``collect`` maps (layer, activation), activations named as in
    :data:`SLOT_INPUT`, to a list that receives the chunk's rows of that
    activation as one (T, d_in) array, or is None. A ``stable`` chunk gives
    every row the bits of a one-token step (:func:`_product`, :func:`_attend`).
    """
    cfg = model.config
    pos = state.position
    t = len(tokens)
    heads, hd = cfg.n_heads, cfg.head_dim
    eps = cfg.layernorm_epsilon
    inv_sqrt_hd = 1.0 / math.sqrt(hd)

    def keep(li, activation, rows):
        if collect is not None and (li, activation) in collect:
            collect[(li, activation)].append(rows)

    x = model.token_embedding[tokens] + model.position_embedding[pos : pos + t]
    for li, lw in enumerate(model.layers):
        u = _layer_norm(x, lw.ln1_gain, lw.ln1_bias, eps)
        keep(li, "ln1", u)
        q = _product(u, lw.attn_q, stable).reshape(t, heads, hd)
        state._k[li][pos : pos + t] = _product(u, lw.attn_k, stable).reshape(t, heads, hd)
        state._v[li][pos : pos + t] = _product(u, lw.attn_v, stable).reshape(t, heads, hd)
        ctx = _attend(q, state._k[li][: pos + t], state._v[li][: pos + t],
                      inv_sqrt_hd, stable).reshape(t, cfg.d_model)
        keep(li, "ctx", ctx)
        x = x + _product(ctx, lw.attn_out, stable)
        u2 = _layer_norm(x, lw.ln2_gain, lw.ln2_bias, eps)
        keep(li, "ln2", u2)
        act = _gelu(_product(u2, lw.mlp_up, stable))
        keep(li, "gelu", act)
        x = x + _product(act, lw.mlp_down, stable)

    state.position = pos + t
    final = _layer_norm(x, model.final_norm_gain, model.final_norm_bias, eps)
    return _product(final, model.output_projection, stable), x


def _sample(logits, sampler: Sampler, rng):
    if sampler.kind == "greedy":
        return int(np.argmax(logits))
    z = logits / sampler.temperature
    z = z - z.max()
    p = np.exp(z)
    p /= p.sum()
    return int(rng.choice(p.size, p=p))


def _run(model: ModelBundle, tokens, refs=(), max_new: int = 0,
         sampler: Sampler = GREEDY):
    """The one driver: advance ``tokens``, then sample up to ``max_new`` more.

    Generation ends after ``max_new`` tokens or at the stop byte 0x00, which
    is kept. Returns (tokens, logits, hidden states, captures), with one row
    per advanced position. The last sampled token is advanced only when
    ``refs`` asks for captures, so that its slot inputs are recorded too.
    ``tokens`` go through as one chunk, and each sampled token as its own.
    The chunks are prefix-stable when the run captures or samples; a
    sequence that is only scored goes through plain matrix products.
    """
    refs = sort_refs(refs)
    cfg = model.config
    for r in refs:
        if r.layer_index >= cfg.n_layers:
            raise ValidationError(f"capture ref {r} out of range")
    seq = check_tokens(tokens)
    if not seq:
        raise ValidationError("token sequence must be nonempty")
    if max_new < 0:
        raise ValidationError(f"max_new must be >= 0, got {max_new}")
    cap = cfg.max_positions
    if len(seq) + max_new > cap:
        what = (f"prompt ({len(seq)}) + max_new ({max_new})" if max_new
                else f"sequence length {len(seq)}")
        raise ValidationError(f"{what} exceeds max_positions={cap}")
    collect = {(r.layer_index, SLOT_INPUT[r.slot]): [] for r in refs} or None
    stable = collect is not None or max_new > 0
    state = DecodeState(model)
    logits_rows = []
    hidden_rows = []

    def step(chunk):
        logits, hidden = _advance(model, state, chunk, collect, stable)
        logits_rows.append(logits)
        hidden_rows.append(hidden)

    step(seq)
    rng = np.random.default_rng(sampler.seed) if sampler.kind == "temperature" else None
    for i in range(max_new):
        tok = _sample(logits_rows[-1][-1], sampler, rng)
        seq.append(tok)
        done = tok == STOP_BYTE or i == max_new - 1
        if collect is not None or not done:
            step([tok])
        if done:
            break
    joined = {key: np.concatenate(parts) for key, parts in (collect or {}).items()}
    captures = {r: joined[(r.layer_index, SLOT_INPUT[r.slot])] for r in refs}
    return seq, np.concatenate(logits_rows), np.concatenate(hidden_rows), captures


def forward_teacher_forced(model: ModelBundle, tokens, capture=()):
    """Run a fixed token sequence; returns (logits, captured input columns).

    ``capture`` is an iterable of :class:`PrunableLayerRef`. For each ref the
    result holds one row per position: the vector that the slot's weight
    matrix multiplied at that position, in position order. Refs whose slots
    read the same activation (:data:`SLOT_INPUT`) share one array.
    """
    _, logits, _, captures = _run(model, tokens, capture)
    return logits, captures


def last_layer_states(model: ModelBundle, tokens) -> np.ndarray:
    """Hidden state after the last block (before the final norm), per position."""
    return _run(model, tokens)[2]


def decode(model: ModelBundle, prompt, max_new: int, sampler: Sampler = GREEDY):
    """Autoregressive continuation of ``prompt``.

    Returns prompt + generated tokens. Generation ends after ``max_new``
    tokens or as soon as the stop byte 0x00 is emitted (the stop byte is part
    of the returned sequence). The prompt must be nonempty and
    ``len(prompt) + max_new`` must fit in the position table.
    """
    return _run(model, prompt, (), max_new, sampler)[0]


def rollout(model: ModelBundle, prompt, max_new: int, sampler: Sampler = GREEDY,
            capture=()):
    """:func:`decode` that also captures slot inputs at every position.

    Returns (tokens, captures) with the tokens of :func:`decode` and, per
    ref in ``capture``, one row per returned token, generated ones included.
    The captures equal those of :func:`forward_teacher_forced` on the tokens.
    """
    tokens, _, _, captures = _run(model, prompt, capture, max_new, sampler)
    return tokens, captures
