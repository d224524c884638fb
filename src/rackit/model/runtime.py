"""Incremental transformer runtime with activation capture and KV caching.

One step routine, :func:`_advance`, moves a (B, T) block of known tokens,
T positions of B sequences, through the model against the KV caches. One
driver, :func:`_lockstep`, advances B sequences in lockstep: at step s every
sequence is at position s, so each takes its prompt token while s is inside
its prompt and a sampled token after that, and leaves the batch after
``max_new`` new tokens or its stop byte. The positions that every prompt
covers go through as one block, then each step as a (B, 1) block.

A block that feeds captures or sampling, or holds several sequences, is
prefix-stable: its products and attention give every row the bits of a
one-token step of that sequence alone, so captures, prompt prefills and
rollouts depend on each position's prefix alone, in any chunking and any
batch. A single sequence that is only scored goes through as one chunk of
plain matrix products, which is faster but can round differently from a
one-row product; whole-sequence scores are therefore deterministic per
(model, sequence) only, not per prefix, and stay within about 1e-15 relative
of a token-by-token pass.

:func:`rollouts` is the batched entry point. It runs its prompts in lockstep
batches of as many sequences as fit in :data:`_LOCKSTEP_BYTES`, which bounds
a batch's KV caches, logits, hidden states and capture buffers together.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from ..errors import ValidationError
from .bundle import (
    BYTE_VOCAB,
    SLOT_INPUT,
    ModelBundle,
    ModelConfig,
    PrunableLayerRef,
    slot_input_dim,
    sort_refs,
)

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
    "rollouts",
]

STOP_BYTE = 0

_SQRT1_2 = 1.0 / math.sqrt(2.0)

# Bytes one lockstep batch may hold in KV caches, logits, hidden states and
# capture buffers; rollouts() sizes its batches by it. At the 64-wide,
# 4-layer shape with every ref captured, a 160-position sequence holds about
# 3.4 MB, so a batch takes 4 of them.
_LOCKSTEP_BYTES = 2**24


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
    """Incremental state of a lockstep batch: the position that every
    sequence has reached, which of the batch's sequences are still in it
    (``rows``), and per-layer KV caches of shape (rows, positions, heads,
    head_dim) that hold exactly ``position`` filled positions.
    """

    def __init__(self, model: ModelBundle, batch: int, positions: int):
        cfg = model.config
        self.position = 0
        self.rows = np.arange(batch)
        shape = (batch, positions, cfg.n_heads, cfg.head_dim)
        self._k = [np.empty(shape) for _ in range(cfg.n_layers)]
        self._v = [np.empty(shape) for _ in range(cfg.n_layers)]

    def keep(self, live) -> None:
        """Drop the sequences where the boolean mask ``live`` is False."""
        self.rows = self.rows[live]
        self._k = [k[live] for k in self._k]
        self._v = [v[live] for v in self._v]


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
    """``u @ w.T`` over the rows of ``u``.

    A stable product of several rows runs one row at a time inside numpy,
    so each row has the bits of the one-row product; otherwise, and for a
    single row, it is one matrix product.
    """
    if stable and len(u) > 1:
        return (u[:, None, :] @ w.T)[:, 0]
    return u @ w.T


def _attend(q, keys, vals, scale, stable):
    """Causal softmax attention of the (B, T) queries ``q`` at the last T
    cache positions of each sequence.

    A stable chunk, or a single query, goes through ``einsum`` over all
    cache positions with the future masked out, which gives each query the
    bits of a one-query step of its own sequence. Other chunks go through
    batched ``matmul``, which is faster on long chunks but rounds differently.
    """
    t, p = q.shape[1], keys.shape[1]
    future = np.triu(np.ones((t, p), dtype=bool), p - t + 1) if t > 1 else None
    per_query = stable or t == 1
    if per_query:
        scores = np.einsum("bphd,bthd->bthp", keys, q) * scale
        # einsum lays the scores out as (b, t, p, h), so the sum over p below
        # adds in cache order and the masked zeros at the end change no bit
        # (a sum over contiguous p would add pairwise, in another order).
        if future is not None:
            np.copyto(scores, -np.inf, where=future[:, None, :])
    else:
        scores = (q.transpose(0, 2, 1, 3) @ keys.transpose(0, 2, 3, 1)) * scale
        np.copyto(scores, -np.inf, where=future)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    if per_query:
        return np.einsum("bthp,bphd->bthd", scores, vals)
    return (scores @ vals.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)


def _advance(model: ModelBundle, state: DecodeState, tokens, collect, stable):
    """Process the (B, T) block ``tokens``, T positions of each sequence in
    ``state``; returns (logits, last-block states), each (B, T, width).

    ``collect`` maps (layer, activation), activations named as in
    :data:`SLOT_INPUT`, to one (positions, d_in) buffer per sequence of the
    batch, which receives that sequence's rows of the activation, or is
    None. A ``stable`` block gives every row the bits of a one-token step
    (:func:`_product`, :func:`_attend`).
    """
    cfg = model.config
    pos = state.position
    b, t = tokens.shape
    heads, hd = cfg.n_heads, cfg.head_dim
    eps = cfg.layernorm_epsilon
    inv_sqrt_hd = 1.0 / math.sqrt(hd)

    def keep(li, activation, rows):
        if collect is not None and (li, activation) in collect:
            sinks = collect[(li, activation)]
            for j, block in zip(state.rows, rows.reshape(b, t, -1)):
                sinks[j][pos : pos + t] = block

    x = (model.token_embedding[tokens]
         + model.position_embedding[pos : pos + t]).reshape(b * t, cfg.d_model)
    for li, lw in enumerate(model.layers):
        u = _layer_norm(x, lw.ln1_gain, lw.ln1_bias, eps)
        keep(li, "ln1", u)
        q = _product(u, lw.attn_q, stable).reshape(b, t, heads, hd)
        state._k[li][:, pos : pos + t] = _product(u, lw.attn_k, stable).reshape(b, t, heads, hd)
        state._v[li][:, pos : pos + t] = _product(u, lw.attn_v, stable).reshape(b, t, heads, hd)
        ctx = _attend(q, state._k[li][:, : pos + t], state._v[li][:, : pos + t],
                      inv_sqrt_hd, stable).reshape(b * t, cfg.d_model)
        keep(li, "ctx", ctx)
        x = x + _product(ctx, lw.attn_out, stable)
        u2 = _layer_norm(x, lw.ln2_gain, lw.ln2_bias, eps)
        keep(li, "ln2", u2)
        act = _gelu(_product(u2, lw.mlp_up, stable))
        keep(li, "gelu", act)
        x = x + _product(act, lw.mlp_down, stable)

    state.position = pos + t
    final = _layer_norm(x, model.final_norm_gain, model.final_norm_bias, eps)
    logits = _product(final, model.output_projection, stable)
    return logits.reshape(b, t, -1), x.reshape(b, t, -1)


def _sample(logits, sampler: Sampler, rng):
    if sampler.kind == "greedy":
        return int(np.argmax(logits))
    z = logits / sampler.temperature
    z = z - z.max()
    p = np.exp(z)
    p /= p.sum()
    return int(rng.choice(p.size, p=p))


def _check_run(model: ModelBundle, prompts, refs, max_new, samplers):
    """The inputs of :func:`_lockstep`, checked: (token lists, sorted refs,
    max_new, one sampler per prompt)."""
    refs = sort_refs(refs)
    cfg = model.config
    for r in refs:
        if r.layer_index >= cfg.n_layers:
            raise ValidationError(f"capture ref {r} out of range")
    seqs = [check_tokens(p) for p in prompts]
    if not all(seqs):
        raise ValidationError("token sequence must be nonempty")
    if isinstance(max_new, bool) or not isinstance(max_new, numbers.Integral):
        raise ValidationError(f"max_new must be an integer, got {max_new!r}")
    max_new = int(max_new)
    if max_new < 0:
        raise ValidationError(f"max_new must be >= 0, got {max_new}")
    samplers = [GREEDY] * len(seqs) if samplers is None else list(samplers)
    if len(samplers) != len(seqs):
        raise ValidationError(f"{len(samplers)} samplers for {len(seqs)} prompts")
    cap = cfg.max_positions
    for seq in seqs:
        if len(seq) + max_new > cap:
            what = (f"prompt ({len(seq)}) + max_new ({max_new})" if max_new
                    else f"sequence length {len(seq)}")
            raise ValidationError(f"{what} exceeds max_positions={cap}")
    return seqs, refs, max_new, samplers


def _lockstep(model: ModelBundle, seqs, refs, max_new: int, samplers):
    """Advance the checked token lists ``seqs`` in lockstep, then sample up
    to ``max_new`` more tokens for each with its own sampler.

    Generation ends after ``max_new`` tokens or at the stop byte 0x00, which
    is kept. Returns, per sequence, (tokens, logits, hidden states,
    captures), with one row per advanced position. A sequence's last sampled
    token is advanced only when ``refs`` asks for captures, so that its slot
    inputs are recorded too. The positions that every sequence knows go
    through as one block, and each later position as one (B, 1) block. The
    blocks are prefix-stable when the run captures, samples or holds several
    sequences; a single sequence that is only scored goes through plain
    matrix products.
    """
    cfg = model.config
    batch = len(seqs)
    lengths = [len(seq) for seq in seqs]
    positions = max(lengths) + max_new
    widths = _capture_widths(cfg, refs)
    # Each sequence's captures are views into one allocation of its own: a
    # caller that holds one sequence's captures holds no other sequence's
    # memory, and one large block per sequence, unlike one small buffer per
    # activation, is returned to the system when it is dropped.
    collect = None
    if widths:
        ends = np.cumsum([positions * width for width in widths.values()])
        blocks = [np.empty(ends[-1]) for _ in seqs]
        collect = {key: [block[end - positions * width : end].reshape(positions, width)
                         for block in blocks]
                   for (key, width), end in zip(widths.items(), ends)}
    stable = collect is not None or max_new > 0 or batch > 1
    logits = hidden = None
    state = DecodeState(model, batch, positions)
    rngs = [np.random.default_rng(s.seed) if s.kind == "temperature" else None
            for s in samplers]
    done = [max_new == 0] * batch

    def advanced(j):
        # A sequence's last sampled token is advanced only for its captures.
        return len(seqs[j]) - (collect is None and len(seqs[j]) > lengths[j])

    def step(block):
        nonlocal logits, hidden
        pos = state.position
        block_logits, block_hidden = _advance(model, state, np.array(block), collect, stable)
        if logits is None:
            # Made after the first block, whose temporaries are the largest,
            # has freed them. Made before it, they left the freed memory at
            # the top of the heap, which the allocator gave back and took
            # again on every scoring forward: about 2,000 page faults per
            # 192-token forward at the 128-wide shape, against 100.
            logits = np.empty((batch, positions, BYTE_VOCAB))
            hidden = np.empty((batch, positions, cfg.d_model))
        logits[state.rows, pos : state.position] = block_logits
        hidden[state.rows, pos : state.position] = block_hidden

    step([seq[: min(lengths)] for seq in seqs])
    while len(state.rows):
        pos = state.position
        block = []
        live = np.ones(len(state.rows), dtype=bool)
        for i, j in enumerate(state.rows):
            seq = seqs[j]
            if pos == len(seq) and not done[j]:
                seq.append(_sample(logits[j, pos - 1], samplers[j], rngs[j]))
                done[j] = seq[-1] == STOP_BYTE or len(seq) - lengths[j] == max_new
            if done[j] and pos == advanced(j):
                live[i] = False
            else:
                block.append([seq[pos]])
        if not live.all():
            state.keep(live)
        if block:
            step(block)
    out = []
    for j, seq in enumerate(seqs):
        n = advanced(j)
        views = {key: sinks[j][:n] for key, sinks in (collect or {}).items()}
        captures = {r: views[(r.layer_index, SLOT_INPUT[r.slot])] for r in refs}
        out.append((seq, logits[j, :n], hidden[j, :n], captures))
    return out


def _run(model: ModelBundle, prompts, refs=(), max_new=0, samplers=None):
    """:func:`_lockstep` of ``prompts`` as one batch, after checking every
    input; ``samplers`` gives one sampler per prompt, greedy if None."""
    return _lockstep(model, *_check_run(model, prompts, refs, max_new, samplers))


def _capture_widths(cfg: ModelConfig, refs) -> dict:
    """The width of each (layer, activation) that capturing ``refs`` records."""
    return {(r.layer_index, SLOT_INPUT[r.slot]): slot_input_dim(cfg, r.slot) for r in refs}


def _lockstep_width(cfg: ModelConfig, positions: int, refs) -> int:
    """How many sequences of ``positions`` positions, capturing ``refs``, one
    lockstep batch holds within :data:`_LOCKSTEP_BYTES` (at least one)."""
    captured = sum(_capture_widths(cfg, refs).values())
    per_position = captured + 2 * cfg.n_layers * cfg.d_model + BYTE_VOCAB + cfg.d_model
    return max(1, _LOCKSTEP_BYTES // (8 * positions * per_position))


def forward_teacher_forced(model: ModelBundle, tokens, capture=()):
    """Run a fixed token sequence; returns (logits, captured input columns).

    ``capture`` is an iterable of :class:`PrunableLayerRef`. For each ref the
    result holds one row per position: the vector that the slot's weight
    matrix multiplied at that position, in position order. Refs whose slots
    read the same activation (:data:`SLOT_INPUT`) share one array.
    """
    _, logits, _, captures = _run(model, [tokens], capture)[0]
    return logits, captures


def last_layer_states(model: ModelBundle, tokens) -> np.ndarray:
    """Hidden state after the last block (before the final norm), per position."""
    return _run(model, [tokens])[0][2]


def decode(model: ModelBundle, prompt, max_new: int, sampler: Sampler = GREEDY):
    """Autoregressive continuation of ``prompt``.

    Returns prompt + generated tokens. Generation ends after ``max_new``
    tokens or as soon as the stop byte 0x00 is emitted (the stop byte is part
    of the returned sequence). The prompt must be nonempty and
    ``len(prompt) + max_new`` must fit in the position table.
    """
    return _run(model, [prompt], (), max_new, [sampler])[0][0]


def rollout(model: ModelBundle, prompt, max_new: int, sampler: Sampler = GREEDY,
            capture=()):
    """:func:`decode` that also captures slot inputs at every position.

    Returns (tokens, captures) with the tokens of :func:`decode` and, per
    ref in ``capture``, one row per returned token, generated ones included.
    The captures equal those of :func:`forward_teacher_forced` on the tokens.
    """
    tokens, _, _, captures = _run(model, [prompt], capture, max_new, [sampler])[0]
    return tokens, captures


def rollouts(model: ModelBundle, prompts, max_new: int, samplers=None, capture=()):
    """:func:`rollout` of each prompt, advanced in lockstep batches.

    ``samplers`` gives each prompt its own sampler, greedy for all if None.
    Every input is checked before the first batch runs. Returns an iterator
    of (tokens, captures) per prompt, in order, each equal bit for bit to
    ``rollout(model, prompt, max_new, sampler, capture)``. A batch holds as
    many prompts as fit in :data:`_LOCKSTEP_BYTES`.
    """
    seqs, refs, max_new, samplers = _check_run(model, prompts, capture, max_new, samplers)
    positions = max(map(len, seqs), default=1) + max_new
    width = _lockstep_width(model.config, positions, refs)

    def batches():
        for start in range(0, len(seqs), width):
            stop = start + width
            # The generator expression ends, and so drops its batch, before the
            # next batch starts.
            yield from ((tokens, captures) for tokens, _, _, captures in _lockstep(
                model, seqs[start:stop], refs, max_new, samplers[start:stop]))

    return batches()
