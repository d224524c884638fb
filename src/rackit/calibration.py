"""Calibration statistics: per-layer input Gram matrices.

Four ways to gather them, all reading activations from the target model:

* ``corpus``       - teacher-force an arbitrary byte stream, cut at the token
  budget into ``max_positions``-sized chunks that are treated as prompts.
* ``prompt_only``  - teacher-force the prompts themselves.
* ``rac``          - prompts plus the model's own decode rollouts: each prompt
  is continued autoregressively and the rollout captures the target's slot
  inputs at every position as it goes; the columns at generated positions
  land in a separate decode Gram.
* ``off_policy``   - like ``rac`` but a different model writes the rollout;
  the target model is teacher-forced on the foreign trace, so the statistics
  are still the target's own activations.

Every prompt or corpus chunk makes one pass through the target. Only Gram
matrices and column counts are stored, never raw activation matrices. Each
phase of a sequence goes to a Gram as one block of columns in position
order, whose bits equal those of one rank-1 update per column, and sequences
are consumed in input order, so a given collection is bit-reproducible. The
refs that read the same activation (``attn_q``, ``attn_k`` and ``attn_v``
all take the first layer norm's output) get that Gram computed once.
Prompt-phase and decode-phase Grams are kept separate so one collection pass
can later serve both prompt-only and decode-aware compression.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ContainerError, ValidationError
from .model import (
    ModelBundle,
    ModelConfig,
    PrunableLayerRef,
    decode,
    forward_teacher_forced,
    model_content_hash,
    rollout,
    slot_input_dim,
    sort_refs,
)
from .model.container import (
    manifest_count,
    pack_arrays,
    read_container,
    unpack_array,
    write_container,
)
from .model.runtime import GREEDY, Sampler, check_tokens
from .numkernel import accumulate_gram

logger = logging.getLogger(__name__)

__all__ = [
    "MODES",
    "CalibrationConfig",
    "LayerStats",
    "CalibrationSet",
    "collect",
    "merged_gram",
    "prompt_digest",
    "load_prompt_file",
]

MODES = ("corpus", "prompt_only", "rac", "off_policy")


@dataclass(frozen=True)
class CalibrationConfig:
    mode: str
    prompts: tuple = ()
    t_max: int = 0
    sampler: Sampler = GREEDY
    trace_model: ModelBundle | None = None
    token_budget: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"unknown calibration mode {self.mode!r}")
        if self.t_max < 0:
            raise ValidationError("t_max must be >= 0")
        decodes = self.mode in ("rac", "off_policy")
        if decodes and self.t_max == 0:
            raise ValidationError(f"mode {self.mode!r} requires t_max > 0")
        if not decodes and (self.t_max > 0 or self.sampler.kind != "greedy"):
            raise ValidationError(f"mode {self.mode!r} does not decode; it takes no "
                                  "t_max above 0 and no temperature sampler")
        if self.mode == "off_policy" and self.trace_model is None:
            raise ValidationError("off_policy mode requires a trace model")
        if self.mode != "off_policy" and self.trace_model is not None:
            raise ValidationError(f"mode {self.mode!r} takes no trace model; only off_policy does")
        if self.mode == "corpus" and self.prompts:
            raise ValidationError("mode 'corpus' takes no prompts; it reads the corpus stream")
        if self.token_budget is not None and self.token_budget <= 0:
            raise ValidationError("token_budget must be positive when set")


@dataclass
class LayerStats:
    """Per-ref statistics: separate prompt and decode Grams (square float64
    arrays) plus column counts."""

    gram_prompt: np.ndarray
    gram_decode: np.ndarray
    n_prompt: int = 0
    n_decode: int = 0


class CalibrationSet:
    """Ordered map from prunable ref to :class:`LayerStats`, plus provenance."""

    def __init__(self, stats: dict[PrunableLayerRef, LayerStats], provenance=None):
        self.stats = dict(stats)
        self.provenance = dict(provenance or {})

    @classmethod
    def empty(cls, config: ModelConfig, refs) -> "CalibrationSet":
        refs = sort_refs(refs)
        if not refs:
            raise ValidationError("calibration needs at least one ref")
        stats = {}
        for r in refs:
            dim = slot_input_dim(config, r.slot)
            stats[r] = LayerStats(np.zeros((dim, dim)), np.zeros((dim, dim)))
        return cls(stats)

    @property
    def refs(self) -> tuple[PrunableLayerRef, ...]:
        return tuple(self.stats)

    def content_digest(self) -> str:
        """SHA-256 over counts and Gram bytes; provenance is not included."""
        h = hashlib.sha256()
        for ref, st in self.stats.items():
            h.update(f"{ref}:{st.n_prompt}:{st.n_decode}".encode())
            h.update(np.ascontiguousarray(st.gram_prompt, dtype="<f8").tobytes())
            h.update(np.ascontiguousarray(st.gram_decode, dtype="<f8").tobytes())
        return h.hexdigest()

    def save(self, path) -> None:
        grams = [g for st in self.stats.values() for g in (st.gram_prompt, st.gram_decode)]
        parts, offsets = pack_arrays(grams, "<f8")
        refs_meta = [
            {
                "layer": ref.layer_index,
                "slot": ref.slot,
                "dim": st.gram_prompt.shape[0],
                "n_prompt": st.n_prompt,
                "n_decode": st.n_decode,
                "offset_prompt": offsets[2 * i],
                "offset_decode": offsets[2 * i + 1],
                "length": len(parts[2 * i]),
            }
            for i, (ref, st) in enumerate(self.stats.items())
        ]
        write_container(path, "RACC", {"provenance": self.provenance, "refs": refs_meta}, parts)

    @classmethod
    def load(cls, path) -> "CalibrationSet":
        manifest, blob = read_container(path, "RACC")
        provenance = manifest.get("provenance", {})
        # prune reads these two fields, so a wrong type is a bad file.
        if not isinstance(provenance.get("model_hash"), (str, type(None))):
            raise ContainerError(f"{path}: provenance model_hash must be a string or null, "
                                 f"got {provenance['model_hash']!r}")
        if "mode" in provenance and provenance["mode"] not in MODES:
            raise ContainerError(f"{path}: provenance mode must be one of {MODES}, "
                                 f"got {provenance['mode']!r}")
        refs_meta = manifest.get("refs", [])
        if not isinstance(refs_meta, list):
            raise ContainerError(f"{path}: refs must be a list")
        stats = {}
        end = 0
        for i, meta in enumerate(refs_meta):
            what = f"{path}: ref entry {i}"
            try:
                ref = PrunableLayerRef(manifest_count(meta, "layer", what), meta.get("slot"))
            except ValidationError as exc:
                raise ContainerError(f"{what}: {exc}") from exc
            if ref in stats:
                raise ContainerError(f"{path}: duplicate ref {ref}")
            dim = manifest_count(meta, "dim", what)
            grams = []
            for key in ("offset_prompt", "offset_decode"):
                data, end = unpack_array(blob, meta, key, end, (dim, dim), "<f8",
                                         f"{path}: Gram for {ref}")
                if not (np.isfinite(data).all() and (data == data.T).all()):
                    raise ContainerError(
                        f"{path}: Gram for {ref} is not finite and symmetric"
                    )
                grams.append(data.copy())
            stats[ref] = LayerStats(
                *grams,
                n_prompt=manifest_count(meta, "n_prompt", what),
                n_decode=manifest_count(meta, "n_decode", what),
            )
        if not stats:
            raise ContainerError(f"{path}: calibration container holds no refs")
        return cls(stats, provenance)


def merged_gram(calib: CalibrationSet, ref: PrunableLayerRef) -> np.ndarray:
    """Prompt Gram + decode Gram; the statistic for decode-aware compression."""
    st = calib.stats.get(ref)
    if st is None:
        raise ValidationError(f"ref {ref} not present in calibration set")
    return st.gram_prompt + st.gram_decode


def prompt_digest(prompt) -> str:
    return hashlib.sha256(bytes(int(t) for t in prompt)).hexdigest()


def load_prompt_file(path) -> list[list[int]]:
    """UTF-8 text, one prompt per line; the line's bytes are the tokens."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})"
        ) from None
    prompts = [list(line.encode("utf-8")) for line in text.split("\n") if line]
    if not prompts:
        raise ValidationError(f"{path}: no prompts found")
    return prompts


def _check_prompts(prompts) -> list[list[int]]:
    seqs = [check_tokens(p) for p in prompts]
    if not seqs:
        raise ValidationError("prompt list is empty")
    for i, p in enumerate(seqs):
        if not p:
            raise ValidationError(f"prompt {i} is empty")
    return seqs


def _corpus_chunks(corpus, token_budget, size: int, warnings: list) -> list[list[int]]:
    """The byte stream cut at ``token_budget`` and split into ``size``-long
    sequences; a stream shorter than the budget yields what it has and
    records a warning.
    """
    if corpus is None:
        raise ValidationError("corpus mode requires a byte stream")
    data = bytes(corpus)
    if not data:
        raise ValidationError("corpus stream is empty")
    if token_budget is not None and len(data) < token_budget:
        msg = f"corpus exhausted after {len(data)} of {token_budget} requested columns"
        logger.warning(msg)
        warnings.append(msg)
    data = data[:token_budget]
    return [list(data[i : i + size]) for i in range(0, len(data), size)]


def _accumulate(dest: CalibrationSet, captures, start: int, stop: int,
                phase: str, limit) -> int:
    """Stream captured columns [start, stop), at most ``limit``, into the
    destination Grams.

    Returns how many positions were consumed (identical for every ref).
    """
    take = min(stop - start, limit)
    if take <= 0:
        return 0
    prev_cols = prev_gram = None
    for ref, st in dest.stats.items():
        gram = st.gram_prompt if phase == "prompt" else st.gram_decode
        cols = captures[ref]
        if cols is prev_cols:
            # Refs that read one activation (SLOT_INPUT) share their
            # capture array and so have received the same columns.
            np.copyto(gram, prev_gram)
        else:
            accumulate_gram(gram, cols[start : start + take])
        prev_cols, prev_gram = cols, gram
        if phase == "prompt":
            st.n_prompt += take
        else:
            st.n_decode += take
    return take


def _child_sampler(sampler: Sampler, index: int) -> Sampler:
    if sampler.kind == "greedy":
        return sampler
    child = np.random.SeedSequence(sampler.seed, spawn_key=(index,))
    return replace(sampler, seed=int(child.generate_state(1, np.uint64)[0]))


def collect(model: ModelBundle, config: CalibrationConfig, refs,
            corpus=None) -> CalibrationSet:
    """Collect the Grams demanded by ``config.mode`` and attach provenance.

    ``corpus`` is the byte stream of corpus mode; no other mode takes one.
    """
    if config.mode != "corpus" and corpus is not None:
        raise ValidationError(f"mode {config.mode!r} takes no corpus; only corpus does")
    provenance = {
        "mode": config.mode,
        "model_hash": model_content_hash(model),
        "trace_model_hash": (
            model_content_hash(config.trace_model)
            if config.trace_model is not None else None
        ),
        "t_max": config.t_max,
        "sampler": {
            "kind": config.sampler.kind,
            "temperature": config.sampler.temperature,
            "seed": config.sampler.seed,
        },
        "token_budget": config.token_budget,
        "prompt_hashes": [],
        "warnings": [],
    }
    if config.mode == "corpus":
        prompts = _corpus_chunks(corpus, config.token_budget, model.config.max_positions,
                                 provenance["warnings"])
    else:
        prompts = _check_prompts(config.prompts)
        provenance["prompt_hashes"] = [prompt_digest(p) for p in prompts]
    dest = CalibrationSet.empty(model.config, refs)
    # A token budget goes to prompt columns first and to decode columns after.
    budget = config.token_budget or math.inf
    prompt_left = min(budget, sum(len(p) for p in prompts))
    decode_left = 0 if config.mode in ("corpus", "prompt_only") else budget - prompt_left
    source = config.trace_model if config.mode == "off_policy" else model
    for m, prompt in enumerate(prompts):
        if prompt_left == 0 and decode_left == 0:
            break
        if decode_left == 0:
            full = prompt
            _, captures = forward_teacher_forced(model, prompt, dest.refs)
        else:
            for cfg, who in ((model.config, "target"), (source.config, "trace")):
                if len(prompt) + config.t_max > cfg.max_positions:
                    raise ValidationError(
                        f"prompt {m} + t_max exceeds {who} model "
                        f"max_positions={cfg.max_positions}"
                    )
            sampler = _child_sampler(config.sampler, m)
            if config.mode == "rac":
                full, captures = rollout(model, prompt, config.t_max, sampler, dest.refs)
            else:
                full = decode(source, prompt, config.t_max, sampler)
                _, captures = forward_teacher_forced(model, full, dest.refs)
        prompt_left -= _accumulate(dest, captures, 0, len(prompt), "prompt", prompt_left)
        decode_left -= _accumulate(dest, captures, len(prompt), len(full), "decode",
                                   decode_left)
    dest.provenance = provenance
    return dest
