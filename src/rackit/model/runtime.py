"""Incremental transformer runtime with activation capture and KV caching.

One step routine, :func:`_advance`, moves a (B, T) block of known tokens,
T positions of B sequences, through the model against the KV caches. Two
paths drive it:

- :func:`_score` runs one known sequence as one block. The block is
  prefix-stable exactly when it captures. A sequence that is only scored
  goes through plain matrix products, which are faster but can round
  differently from a one-row product; whole-sequence scores are therefore
  deterministic per (model, sequence) only, not per prefix, and stay within
  about 1e-15 relative of a token-by-token pass.
- :func:`_lockstep` generates, and every block it runs is prefix-stable. It
  advances B sequences in lockstep: at step s every sequence is at position
  s, so each takes its prompt token while s is inside its prompt and a
  sampled token after that. The positions that every prompt covers go
  through as one block, then each step as a (B, 1) block.

A prefix-stable block gives every row the bits of a one-token step of its
own sequence alone, so captures, prompt prefills and rollouts depend on each
position's prefix alone, in any chunking and any batch.

:func:`rollouts` is the batched entry point. It runs its prompts in lockstep
batches of as many sequences as fit in :data:`_LOCKSTEP_BYTES`.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from ..errors import NumericalError, ValidationError
from ..numkernel import _scipy_module
from .bundle import (
    BYTE_VOCAB,
    SLOT_INPUT,
    ModelBundle,
    ModelConfig,
    check_count,
    check_real,
    check_ref,
    slot_input_dim,
    sort_refs,
)

__all__ = [
    "Sampler",
    "GREEDY",
    "check_tokens",
    "forward_teacher_forced",
    "last_layer_states",
    "decode",
    "rollouts",
]

STOP_BYTE = 0

_SQRT1_2 = 1.0 / math.sqrt(2.0)

# Bytes one lockstep batch may hold; rollouts() sizes its batches by it. The
# count per position (_lockstep_width) bounds the KV caches, the capture
# buffers, and the logits and hidden temporaries of the first block, which
# spans every position the batch's prompts share. At the 64-wide, 4-layer
# shape with every ref captured, a 160-position sequence counts about
# 3.4 MB, so a batch takes 4 of them.
_LOCKSTEP_BYTES = 2**24


@dataclass(frozen=True)
class Sampler:
    """Token picker: argmax when ``temperature`` is None, else softmax at
    that temperature, drawn from its own ``seed``."""

    temperature: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.temperature is not None:
            temperature = check_real("temperature", self.temperature)
            if not (math.isfinite(temperature) and temperature > 0):
                raise ValidationError("temperature must be finite and positive")
            object.__setattr__(self, "temperature", temperature)
        object.__setattr__(self, "seed", check_count("seed", self.seed, 0))


GREEDY = Sampler()


def check_tokens(tokens) -> list[int]:
    """``tokens`` as a list of ints; ``tokens`` that is not iterable, or a
    token that is not an integral byte value, raises :class:`ValidationError`."""
    if not isinstance(tokens, Iterable):
        raise ValidationError(f"tokens must be iterable, got {type(tokens).__name__}")
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


@functools.cache
def _erf():
    """scipy's ``erf`` ufunc, loaded on the first forward.

    ``import scipy.special`` takes 0.2-0.3 s, most of it in scipy's array-API
    layer, so the ufunc is taken from the extension module that defines it,
    which :func:`_scipy_module` loads in a few milliseconds; a later
    ``import scipy.special`` reuses that module, so both see one ``erf``
    object. A scipy without that extension, or whose extension has no
    ``erf``, goes through ``scipy.special``.
    """
    erf = getattr(_scipy_module("special", "_special_ufuncs"), "erf", None)
    if erf is None:
        from scipy.special import erf
    return erf


def _gelu(v):
    return 0.5 * v * (1.0 + _erf()(v * _SQRT1_2))


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
    if sampler.temperature is None:
        return int(np.argmax(logits))
    with np.errstate(over="ignore"):
        z = logits / sampler.temperature
    top = z.max()
    if not np.isfinite(top):
        raise NumericalError(f"logits overflow at temperature {sampler.temperature!r}")
    p = np.exp(z - top)
    p /= p.sum()
    return int(rng.choice(p.size, p=p))


def _check_run(model: ModelBundle, prompts, refs, max_new, samplers):
    """The inputs of :func:`_lockstep`, checked: (token lists, sorted refs,
    max_new, one sampler per prompt)."""
    refs = sort_refs(refs)
    cfg = model.config
    for r in refs:
        check_ref(cfg, r)
    seqs = [check_tokens(p) for p in prompts]
    if not all(seqs):
        raise ValidationError("token sequence must be nonempty")
    max_new = check_count("max_new", max_new, 0)
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


def _capture_widths(cfg: ModelConfig, refs) -> dict:
    """The width of each (layer, activation) that capturing ``refs`` records."""
    return {(r.layer_index, SLOT_INPUT[r.slot]): slot_input_dim(cfg, r.slot) for r in refs}


def _capture_buffers(cfg: ModelConfig, refs, batch: int, positions: int):
    """Capture buffers for ``batch`` sequences of up to ``positions`` tokens.

    Returns (collect, captures): ``collect`` is the mapping that
    :func:`_advance` writes into, None if ``refs`` is empty, and
    ``captures(j, n)`` maps each ref to the first ``n`` rows of sequence j.
    Refs that read one activation (:data:`SLOT_INPUT`) get one array.
    """
    widths = _capture_widths(cfg, refs)
    collect = None
    if widths:
        # Each sequence's captures are views into one allocation of its own:
        # a caller that holds one sequence's captures holds no other
        # sequence's memory, and one large block per sequence, unlike one
        # small buffer per activation, is returned to the system when it is
        # dropped.
        ends = np.cumsum([positions * width for width in widths.values()])
        blocks = [np.empty(ends[-1]) for _ in range(batch)]
        collect = {key: [block[end - positions * width : end].reshape(positions, width)
                         for block in blocks]
                   for (key, width), end in zip(widths.items(), ends)}

    def captures(j, n):
        views = {key: sinks[j][:n] for key, sinks in (collect or {}).items()}
        return {r: views[(r.layer_index, SLOT_INPUT[r.slot])] for r in refs}

    return collect, captures


def _score(model: ModelBundle, tokens, refs=()):
    """Run the known sequence ``tokens`` as one block, prefix-stable exactly
    when it captures ``refs``; returns (logits, hidden states, captures),
    with one row per position."""
    (seq,), refs, _, _ = _check_run(model, [tokens], refs, 0, None)
    collect, captures = _capture_buffers(model.config, refs, 1, len(seq))
    state = DecodeState(model, 1, len(seq))
    logits, hidden = _advance(model, state, np.array([seq]), collect, collect is not None)
    return logits[0], hidden[0], captures(0, len(seq))


def _lockstep(model: ModelBundle, seqs, refs, max_new: int, samplers):
    """Sample up to ``max_new`` tokens after each of the checked token lists
    ``seqs``, each with its own sampler, advancing them in lockstep; returns
    (tokens, captures) per sequence, with one capture row per token.

    Generation ends after ``max_new`` tokens or at the stop byte 0x00, which
    is kept. A sequence leaves the batch when it has no token left to feed,
    so every returned token has been advanced. The positions that every
    sequence knows go through as one block, and each later position as one
    (B, 1) block; every block is prefix-stable, and a sequence samples from
    the last logits row of its block.
    """
    lengths = [len(seq) for seq in seqs]
    positions = max(lengths) + max_new
    collect, captures = _capture_buffers(model.config, refs, len(seqs), positions)
    state = DecodeState(model, len(seqs), positions)
    rngs = [None if s.temperature is None else np.random.default_rng(s.seed)
            for s in samplers]
    block = [seq[: min(lengths)] for seq in seqs]
    while block:
        logits = _advance(model, state, np.array(block), collect, True)[0][:, -1]
        pos = state.position
        live = np.ones(len(state.rows), dtype=bool)
        block = []
        for i, j in enumerate(state.rows):
            seq = seqs[j]
            new = len(seq) - lengths[j]
            if pos == len(seq) and new < max_new and not (new and seq[-1] == STOP_BYTE):
                seq.append(_sample(logits[i], samplers[j], rngs[j]))
            live[i] = pos < len(seq)
            if live[i]:
                block.append([seq[pos]])
        if not live.all():
            state.keep(live)
    return [(seq, captures(j, len(seq))) for j, seq in enumerate(seqs)]


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
    logits, _, captures = _score(model, tokens, capture)
    return logits, captures


def last_layer_states(model: ModelBundle, tokens) -> np.ndarray:
    """Hidden state after the last block (before the final norm), per position."""
    return _score(model, tokens)[1]


def decode(model: ModelBundle, prompt, max_new: int, sampler: Sampler = GREEDY):
    """Autoregressive continuation of ``prompt``.

    Returns prompt + generated tokens. Generation ends after ``max_new``
    tokens or as soon as the stop byte 0x00 is emitted (the stop byte is part
    of the returned sequence). The prompt must be nonempty and
    ``len(prompt) + max_new`` must fit in the position table.
    """
    return next(rollouts(model, [prompt], max_new, [sampler]))[0]


def rollouts(model: ModelBundle, prompts, max_new: int, samplers=None, capture=()):
    """:func:`decode` of each prompt with its captures, in lockstep batches.

    ``samplers`` gives each prompt its own sampler, greedy for all if None.
    Every input is checked before the first batch runs. Returns an iterator
    of (tokens, captures) per prompt, in order, each equal bit for bit to a
    batch of one, ``next(rollouts(model, [prompt], max_new, [sampler], capture))``;
    per ref, the captures are :func:`forward_teacher_forced`'s on the tokens. A batch holds as
    many prompts as fit in :data:`_LOCKSTEP_BYTES`.
    """
    seqs, refs, max_new, samplers = _check_run(model, prompts, capture, max_new, samplers)
    positions = max(map(len, seqs), default=1) + max_new
    width = _lockstep_width(model.config, positions, refs)

    def batches():
        for start in range(0, len(seqs), width):
            stop = start + width
            # yield from drops its batch before the next batch starts.
            yield from _lockstep(model, seqs[start:stop], refs, max_new, samplers[start:stop])

    return batches()
