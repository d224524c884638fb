"""Tokenwise reconstruction-error diagnostics and a perplexity stand-in.

The central quantity is e_t: the L2 distance between the dense and compressed
models' last-block hidden states at position t, with both models
teacher-forced on the identical sequence (in practice the dense model's own
greedy rollout on a held-out prompt, so errors are comparable across
compression variants). Positions before the rollout boundary are the prompt
phase; the rest are the decode phase.

:func:`eval_nll` scores its chunks on a thread pool, one thread per usable
CPU (:func:`rackit.numkernel.usable_cpus`), with every loaded OpenBLAS on one
thread (:func:`rackit.numkernel.single_blas_thread`): two Python threads that
each drive a multi-threaded OpenBLAS slow each other down. numpy releases the
GIL in every product of a chunk. The chunk sums are added in chunk order on
the calling thread, so the result has the bits of a serial loop whatever the
CPU count; a chunk's error is raised there unchanged, and no pool thread
outlives the call.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .model import ModelBundle, forward_teacher_forced, last_layer_states
from .model.runtime import check_count, check_tokens
from .numkernel import single_blas_thread, usable_cpus

logger = logging.getLogger(__name__)

__all__ = [
    "RATIO_EPSILON",
    "DiagnosticTrace",
    "EvalResult",
    "error_trace",
    "error_traces",
    "ratio_map",
    "summarize_phase_errors",
    "eval_nll",
    "write_errors_csv",
    "write_ratios_csv",
    "write_json",
]

RATIO_EPSILON = 1e-12


@dataclass
class DiagnosticTrace:
    """Per-token errors for one problem; ``errors`` maps method label to e_t."""

    problem_id: str
    boundary: int
    errors: dict[str, np.ndarray]


def error_traces(dense: ModelBundle, compressed, sequence) -> list[np.ndarray]:
    """e_t of each model in ``compressed`` for every position of ``sequence``
    under teacher forcing; the dense states are computed once."""
    compressed, sequence = list(compressed), list(sequence)
    if any(dense.config != model.config for model in compressed):
        raise ValidationError("dense and compressed models have different shapes")
    h_dense = last_layer_states(dense, sequence)
    return [np.linalg.norm(h_dense - last_layer_states(model, sequence), axis=1)
            for model in compressed]


def error_trace(dense: ModelBundle, compressed: ModelBundle, sequence) -> np.ndarray:
    """e_t for every position of ``sequence`` under teacher forcing."""
    return error_traces(dense, [compressed], sequence)[0]


def ratio_map(errors_a, errors_b) -> list[np.ndarray]:
    """Per-problem, per-token ratios e_a / e_b.

    Entries where the denominator falls below ``RATIO_EPSILON`` come back as
    NaN rather than infinity. Swapping the arguments yields reciprocals
    wherever both directions are defined.
    """
    if len(errors_a) != len(errors_b):
        raise ValidationError("ratio inputs cover different problem counts")
    out = []
    for i, (a, b) in enumerate(zip(errors_a, errors_b)):
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.shape != b.shape:
            raise ValidationError(f"ratio inputs for problem {i} have different lengths")
        r = np.full_like(a, np.nan)
        np.divide(a, b, out=r, where=b >= RATIO_EPSILON)
        out.append(r)
    return out


def summarize_phase_errors(traces) -> dict[str, dict[str, float | None]]:
    """Pooled mean e_t per method, split at each problem's phase boundary.

    A phase with no tokens at all is reported as None.
    """
    pools: dict[str, dict[str, list]] = {}
    for trace in traces:
        for method, errs in trace.errors.items():
            slot = pools.setdefault(method, {"prompt": [], "decode": []})
            slot["prompt"].append(errs[: trace.boundary])
            slot["decode"].append(errs[trace.boundary :])
    summary = {}
    for method, slot in pools.items():
        entry = {}
        for phase in ("prompt", "decode"):
            values = np.concatenate(slot[phase])
            entry[f"mean_{phase}_error"] = float(values.mean()) if values.size else None
        summary[method] = entry
    return summary


@dataclass
class EvalResult:
    mean_nll: float
    tokens: int


def _chunk_nll(model: ModelBundle, chunk: bytes) -> float:
    """Summed negative log-likelihood of the T - 1 next-byte predictions in
    a chunk of T bytes."""
    logits, _ = forward_teacher_forced(model, list(chunk))
    peak = logits.max(axis=1)
    lse = peak + np.log(np.exp(logits - peak[:, None]).sum(axis=1))
    targets = np.frombuffer(chunk, dtype=np.uint8)[1:]
    picked = logits[np.arange(len(chunk) - 1), targets]
    return float((lse[:-1] - picked).sum())


def eval_nll(model: ModelBundle, text, budget: int) -> EvalResult:
    """Teacher-forced mean next-byte negative log-likelihood.

    ``text`` is bytes-like, or a sequence of byte tokens; ``budget`` is an
    integer >= 1. The stream is consumed in non-overlapping
    max_positions-sized chunks; a chunk of length T scores T - 1
    predictions. Stops once ``budget`` tokens are scored, or earlier (with a
    warning) if the stream runs out. Chunks are scored on a thread pool and
    their sums added in chunk order.
    """
    budget = check_count("budget", budget, 1)
    if isinstance(text, str):
        raise ValidationError("text must be bytes or byte tokens, got str")
    bytes_like = isinstance(text, (bytes, bytearray, memoryview))
    data = bytes(text) if bytes_like else bytes(check_tokens(text))
    if len(data) < 2:
        raise ValidationError("text stream too short to score")
    size = model.config.max_positions
    if size < 2:
        raise ValidationError(f"max_positions={size} leaves no next byte to score")
    chunks = []
    offset = 0
    scored = 0
    while scored < budget and offset < len(data):
        chunk = data[offset : offset + min(size, budget - scored + 1)]
        offset += len(chunk)
        if len(chunk) < 2:
            break
        chunks.append(chunk)
        scored += len(chunk) - 1
    # Imported here, so that importing rackit does not load it.
    from concurrent.futures import ThreadPoolExecutor

    total = 0.0
    # Leaving the block joins every pool thread, also on error.
    with single_blas_thread(), ThreadPoolExecutor(usable_cpus()) as pool:
        for chunk_sum in pool.map(_chunk_nll, [model] * len(chunks), chunks):
            total += chunk_sum
    if scored < budget:
        logger.warning("stream exhausted after scoring %d of %d tokens", scored, budget)
    return EvalResult(mean_nll=total / scored, tokens=scored)


def write_errors_csv(path, traces) -> None:
    """Rows: problem, t, phase, method, e_t."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["problem", "t", "phase", "method", "e_t"])
        for trace in traces:
            for method, errs in trace.errors.items():
                for t, value in enumerate(errs):
                    phase = "prompt" if t < trace.boundary else "decode"
                    writer.writerow([trace.problem_id, t, phase, method, repr(float(value))])


def write_ratios_csv(path, problem_ids, ratios) -> None:
    """Rows: problem, t, r_t; undefined ratios are left blank."""
    if len(problem_ids) != len(ratios):
        raise ValidationError("problem ids and ratio rows differ in count")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["problem", "t", "r_t"])
        for pid, row in zip(problem_ids, ratios):
            for t, value in enumerate(row):
                cell = "" if np.isnan(value) else repr(float(value))
                writer.writerow([pid, t, cell])


def write_json(path, body: dict) -> None:
    """The JSON format of every report and sidecar: indent 2, sorted keys,
    trailing newline."""
    Path(path).write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
