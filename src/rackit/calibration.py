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

Every prompt or corpus chunk makes one pass through the target. Rollouts
run in lockstep batches (:func:`rackit.model.rollouts`). A token budget is
spent on prompt columns first and decode columns after, in prompt order; a
batch admits a prompt only if the budget is sure to reach its rollout, so a
prompt that the budget leaves without decode columns is only teacher-forced
and need not leave room for ``t_max`` more positions. Only Gram
matrices and column counts are stored, never raw activation matrices. Each
phase of a sequence goes to a Gram as one block of columns in position
order, whose bits equal those of one rank-1 update per column, and sequences
are consumed in input order, so a given collection is bit-reproducible. The
refs that read the same activation (``attn_q``, ``attn_k`` and ``attn_v``
all take the first layer norm's output) get that Gram computed once, for the
first of them, and copied to the others when the collection ends.
Prompt-phase and decode-phase Grams are kept separate so one collection pass
can later serve both prompt-only and decode-aware compression.

The Gram updates run on a thread pool, one thread per usable CPU
(:func:`rackit.numkernel.usable_cpus`), while the calling thread runs the
next sequence's forward; numpy's loops release the GIL. One rule keeps the
bits: a sequence's blocks go to the pool only once every update of the
sequence before has finished, so each Gram is updated by one thread at a
time, in sequence order, with the same kernel. The digest does not depend on
the number of CPUs. Column counts and the token budget stay in the calling
thread, and an update's error is raised there unchanged. No pool thread
outlives :func:`collect`.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ContainerError, ValidationError
# ``decode`` is no longer called here. It stays in this module's namespace
# because bench/tracer.py wraps it by that name.
from .model import (
    SLOT_INPUT,
    ModelBundle,
    ModelConfig,
    PrunableLayerRef,
    check_ref,
    decode,
    forward_teacher_forced,
    model_content_hash,
    rollouts,
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
from .model.runtime import GREEDY, Sampler, check_count, check_tokens
from .numkernel import accumulate_gram, usable_cpus

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
    """What ``collect`` reads: the prompts, or in ``corpus`` mode the byte
    stream in ``corpus``, and how far past each prompt it decodes."""

    mode: str
    prompts: tuple = ()
    corpus: bytes | None = None
    t_max: int = 0
    sampler: Sampler = GREEDY
    trace_model: ModelBundle | None = None
    token_budget: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"unknown calibration mode {self.mode!r}")
        # Store the checked ints, so a numpy integer still serializes.
        object.__setattr__(self, "t_max", check_count("t_max", self.t_max, 0))
        if self.token_budget is not None:
            object.__setattr__(self, "token_budget",
                               check_count("token_budget", self.token_budget, 1))
        if self.decodes and self.t_max == 0:
            raise ValidationError(f"mode {self.mode!r} requires t_max > 0")
        if not self.decodes and (self.t_max > 0 or self.sampler.kind != "greedy"):
            raise ValidationError(f"mode {self.mode!r} does not decode; it takes no "
                                  "t_max above 0 and no temperature sampler")
        if self.mode == "off_policy" and self.trace_model is None:
            raise ValidationError("off_policy mode requires a trace model")
        if self.mode != "off_policy" and self.trace_model is not None:
            raise ValidationError(f"mode {self.mode!r} takes no trace model; only off_policy does")
        if self.mode == "corpus" and (self.prompts or not self.corpus):
            raise ValidationError("mode 'corpus' reads a non-empty corpus stream and "
                                  "takes no prompts")
        if self.mode != "corpus" and self.corpus is not None:
            raise ValidationError(f"mode {self.mode!r} takes no corpus; only corpus does")

    @property
    def decodes(self) -> bool:
        """Whether the mode rolls each prompt out and gathers decode columns."""
        return self.mode in ("rac", "off_policy")


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
            check_ref(config, r)
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
            h.update(np.ascontiguousarray(st.gram_prompt, dtype="<f8"))
            h.update(np.ascontiguousarray(st.gram_decode, dtype="<f8"))
        return h.hexdigest()

    def save(self, path) -> None:
        grams = [g for st in self.stats.values() for g in (st.gram_prompt, st.gram_decode)]
        parts, offsets, lengths = pack_arrays(grams, "<f8")
        refs_meta = [
            {
                "layer": ref.layer_index,
                "slot": ref.slot,
                "dim": st.gram_prompt.shape[0],
                "n_prompt": st.n_prompt,
                "n_decode": st.n_decode,
                "offset_prompt": offsets[2 * i],
                "offset_decode": offsets[2 * i + 1],
                "length": lengths[2 * i],
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
            counts = {phase: manifest_count(meta, f"n_{phase}", what)
                      for phase in ("prompt", "decode")}
            grams = []
            for phase, count in counts.items():
                name = f"{path}: {phase} Gram for {ref}"
                data, end = unpack_array(blob, meta, f"offset_{phase}", end, (dim, dim),
                                         "<f8", name)
                # A Gram sums ``count`` outer products x x^T, so it is symmetric,
                # its diagonal is >= 0, and it is all zero when ``count`` is 0.
                if not (np.isfinite(data).all() and (data == data.T).all()):
                    raise ContainerError(f"{name} is not finite and symmetric")
                if (np.diag(data) < 0).any():
                    raise ContainerError(f"{name} has a negative diagonal entry")
                if count == 0 and data.any():
                    raise ContainerError(f"{name} is not zero, but n_{phase} is 0")
                grams.append(data)
            stats[ref] = LayerStats(*grams, counts["prompt"], counts["decode"])
        if not stats:
            raise ContainerError(f"{path}: calibration container holds no refs")
        return cls(stats, provenance)


def merged_gram(calib: CalibrationSet, ref: PrunableLayerRef) -> np.ndarray:
    """Prompt Gram + decode Gram; the statistic for decode-aware compression.
    An overflow gives infinities, without a warning, for the solvers' check."""
    st = calib.stats.get(ref)
    if st is None:
        raise ValidationError(f"ref {ref} not present in calibration set")
    with np.errstate(over="ignore"):
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
    data = bytes(corpus)
    if token_budget is not None and len(data) < token_budget:
        msg = f"corpus exhausted after {len(data)} of {token_budget} requested columns"
        logger.warning(msg)
        warnings.append(msg)
    data = data[:token_budget]
    return [list(data[i : i + size]) for i in range(0, len(data), size)]


def _readers(refs) -> dict:
    """Map each ref to the first of ``refs`` that reads the same activation
    (SLOT_INPUT) of its layer; refs that read one activation receive the same
    columns, so only that first one's Grams need folding."""
    first = {}
    return {ref: first.setdefault((ref.layer_index, SLOT_INPUT[ref.slot]), ref)
            for ref in refs}


def _accumulate(pool, previous: list, dest: CalibrationSet, readers: dict, prompt,
                full, captures, left: dict) -> list:
    """Hand one sequence's captured columns to ``pool`` to fold into the
    destination Grams, and return the folds' futures: the prompt positions,
    then the generated ones, each phase taking at most the ``left[phase]``
    columns its budget has left, which it then lowers.

    It first waits for ``previous``, the folds of the sequence before, so
    each Gram takes its blocks one at a time and in sequence order. Only the
    refs that ``readers`` maps to themselves get Grams folded; every ref's
    counts rise here. The captures come in as an argument, so that nothing
    holds them once the returned folds are done.
    """
    for fold in previous:
        fold.result()
    blocks = []
    for phase, start, stop in (("prompt", 0, len(prompt)), ("decode", len(prompt), len(full))):
        take = min(stop - start, left[phase])
        if take <= 0:
            continue
        left[phase] -= take
        for ref, st in dest.stats.items():
            if phase == "prompt":
                st.n_prompt += take
            else:
                st.n_decode += take
            if readers[ref] == ref:
                gram = st.gram_prompt if phase == "prompt" else st.gram_decode
                blocks.append((gram, captures[ref][start : start + take]))
    # The widest Grams take longest, so they start first.
    blocks.sort(key=lambda block: -block[0].shape[0])
    return [pool.submit(accumulate_gram, gram, columns) for gram, columns in blocks]


def _child_sampler(sampler: Sampler, index: int) -> Sampler:
    if sampler.kind == "greedy":
        return sampler
    child = np.random.SeedSequence(sampler.seed, spawn_key=(index,))
    return replace(sampler, seed=int(child.generate_state(1, np.uint64)[0]))


def collect(model: ModelBundle, config: CalibrationConfig, refs) -> CalibrationSet:
    """Collect the Grams demanded by ``config.mode`` and attach provenance."""
    dest = CalibrationSet.empty(model.config, refs)
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
        prompts = _corpus_chunks(config.corpus, config.token_budget,
                                 model.config.max_positions, provenance["warnings"])
    else:
        prompts = _check_prompts(config.prompts)
        provenance["prompt_hashes"] = [prompt_digest(p) for p in prompts]
    # A token budget goes to prompt columns first and to decode columns after.
    budget = config.token_budget or math.inf
    prompt_columns = min(budget, sum(len(p) for p in prompts))
    left = {"prompt": prompt_columns,
            "decode": budget - prompt_columns if config.decodes else 0}
    source = config.trace_model if config.mode == "off_policy" else model
    readers = _readers(dest.refs)
    # Imported here, so that commands that never calibrate do not load it.
    from concurrent.futures import ThreadPoolExecutor

    # Leaving the block joins every pool thread, also on error.
    with ThreadPoolExecutor(usable_cpus()) as pool:
        folds = []
        m = 0
        while m < len(prompts) and (left["prompt"] or left["decode"]):
            if left["decode"] == 0:
                batch = prompts[m : m + 1]
                sequences = ((p, forward_teacher_forced(model, p, dest.refs)[1])
                             for p in batch)
            else:
                # A batch admits only prompts that are certain to be rolled out:
                # each earlier member takes at most t_max decode columns.
                batch = [p for i, p in enumerate(prompts[m:])
                         if left["decode"] > i * config.t_max]
                for i, prompt in enumerate(batch, m):
                    for cfg, who in ((model.config, "target"), (source.config, "trace")):
                        if len(prompt) + config.t_max > cfg.max_positions:
                            raise ValidationError(
                                f"prompt {i} + t_max exceeds {who} model "
                                f"max_positions={cfg.max_positions}"
                            )
                samplers = [_child_sampler(config.sampler, i)
                            for i in range(m, m + len(batch))]
                if config.mode == "rac":
                    sequences = rollouts(model, batch, config.t_max, samplers, dest.refs)
                else:
                    sequences = ((full, forward_teacher_forced(model, full, dest.refs)[1])
                                 for full, _ in rollouts(source, batch, config.t_max,
                                                         samplers))
            # Sequences are drawn one at a time and their captures passed
            # straight on: the pool folds one sequence while the next one's
            # forward runs, and lets go of its captures once those folds are
            # done.
            for prompt in batch:
                folds = _accumulate(pool, folds, dest, readers, prompt, *next(sequences),
                                    left)
            m += len(batch)
        for fold in folds:
            fold.result()
    for ref, first in readers.items():
        if first != ref:
            st, source_st = dest.stats[ref], dest.stats[first]
            np.copyto(st.gram_prompt, source_st.gram_prompt)
            np.copyto(st.gram_decode, source_st.gram_decode)
    dest.provenance = provenance
    return dest
