"""Tokenwise reconstruction-error diagnostics and a perplexity stand-in.

The central quantity is e_t: the L2 distance between the dense and compressed
models' last-block hidden states at position t, with both models
teacher-forced on the identical sequence (in practice the dense model's own
greedy rollout on a held-out prompt, so errors are comparable across
compression variants). Positions before the rollout boundary are the prompt
phase; the rest are the decode phase.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import ModelBundle, forward_teacher_forced, last_layer_states

logger = logging.getLogger(__name__)

__all__ = [
    "RATIO_EPSILON",
    "DiagnosticTrace",
    "EvalResult",
    "error_trace",
    "ratio_map",
    "summarize_phase_errors",
    "eval_nll",
    "write_errors_csv",
    "write_ratios_csv",
    "write_summary_json",
]

RATIO_EPSILON = 1e-12


@dataclass
class DiagnosticTrace:
    """Per-token errors for one problem; ``errors`` maps method label to e_t."""

    problem_id: str
    boundary: int
    errors: dict[str, np.ndarray]


def error_trace(dense: ModelBundle, compressed: ModelBundle, sequence) -> np.ndarray:
    """e_t for every position of ``sequence`` under teacher forcing."""
    if dense.config != compressed.config:
        raise ValidationError("dense and compressed models have different shapes")
    seq = [int(t) for t in sequence]
    h_dense = last_layer_states(dense, seq)
    h_comp = last_layer_states(compressed, seq)
    return np.linalg.norm(h_dense - h_comp, axis=1)


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


def eval_nll(model: ModelBundle, text, budget: int) -> EvalResult:
    """Teacher-forced mean next-byte negative log-likelihood.

    The stream is consumed in non-overlapping max_positions-sized chunks; a
    chunk of length T scores T - 1 predictions. Stops once ``budget`` tokens
    are scored, or earlier (with a warning) if the stream runs out.
    """
    data = bytes(text)
    if budget <= 0:
        raise ValidationError("budget must be positive")
    if len(data) < 2:
        raise ValidationError("text stream too short to score")
    size = model.config.max_positions
    offset = 0
    scored = 0
    total = 0.0
    while scored < budget and offset < len(data):
        chunk = data[offset : offset + min(size, budget - scored + 1)]
        offset += len(chunk)
        if len(chunk) < 2:
            break
        logits, _ = forward_teacher_forced(model, list(chunk))
        peak = logits.max(axis=1)
        lse = peak + np.log(np.exp(logits - peak[:, None]).sum(axis=1))
        targets = np.frombuffer(chunk, dtype=np.uint8)[1:]
        picked = logits[np.arange(len(chunk) - 1), targets]
        total += float((lse[:-1] - picked).sum())
        scored += len(chunk) - 1
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


def write_summary_json(path, summary: dict, extra: dict) -> None:
    body = {"phase_means": summary, **extra}
    with open(path, "w") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")
