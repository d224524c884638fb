"""Incremental transformer runtime with activation capture and KV caching.

Every forward pass, teacher-forced or sampled, advances one position at a
time through the same step routine. Position t therefore never sees data
from later positions and its arithmetic does not depend on total sequence
length, which makes causality and cache consistency hold bit-for-bit by
construction rather than by masking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from ..errors import ValidationError
from .bundle import ModelBundle, PrunableLayerRef, sort_refs

__all__ = [
    "STOP_BYTE",
    "Sampler",
    "GREEDY",
    "DecodeState",
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
        if self.temperature <= 0:
            raise ValidationError("temperature must be positive")


GREEDY = Sampler()


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
    mu = v.mean()
    centered = v - mu
    var = np.mean(centered * centered)
    return centered * (gain / np.sqrt(var + eps)) + bias


def _gelu(v):
    return 0.5 * v * (1.0 + erf(v * _SQRT1_2))


def _advance(model: ModelBundle, state: DecodeState, token: int, collect=None):
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
        u = _layer_norm(x, lw.ln1_gain, lw.ln1_bias, cfg.layernorm_epsilon)
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
        u2 = _layer_norm(x, lw.ln2_gain, lw.ln2_bias, cfg.layernorm_epsilon)
        if collect is not None:
            sink = collect.get((li, "mlp_up"))
            if sink is not None:
                sink.append(u2.copy())
        act = _gelu(lw.mlp_up @ u2)
        if collect is not None:
            sink = collect.get((li, "mlp_down"))
            if sink is not None:
                sink.append(act.copy())
        x = x + lw.mlp_down @ act

    state.position = pos + 1
    final = _layer_norm(x, model.final_norm_gain, model.final_norm_bias,
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


def _run(model: ModelBundle, tokens, refs=(), max_new: int = 0,
         sampler: Sampler = GREEDY):
    """The one stepwise driver: advance ``tokens``, then sample up to ``max_new`` more.

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
    state = DecodeState(model)
    logits_rows = []
    hidden_rows = []

    def step(tok):
        logits, hidden = _advance(model, state, tok, collect)
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


def forward_teacher_forced(model: ModelBundle, tokens, capture=()):
    """Run a fixed token sequence; returns (logits, captured input columns).

    ``capture`` is an iterable of :class:`PrunableLayerRef`. For each ref the
    result holds one row per position: the vector that the slot's weight
    matrix multiplied at that position, in position order.
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
