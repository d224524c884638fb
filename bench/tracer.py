"""In-process pipeline with spans around the calls into each rackit module.

    python3 bench/tracer.py --workload rac-c06 --seed 1 --workdir DIR \\
        --spans SPANS.jsonl --result RESULT.json

``bench/run.py --trace 1`` starts this as a child with ``src`` on
PYTHONPATH, after it has written the workload's inputs and models to DIR. It
runs each of the workload's commands through ``rackit.cli.main`` three times
in this one process, before going on to the next: plain, then with every
public function named in PUBLIC and METHODS replaced, in the namespace its
caller looks it up in, by a wrapper that records a span (name, start, end,
parent, command index) and adds to counters, then plain again. Spans stay in
memory until the run ends; then they go to SPANS as JSON lines and the
per-layer figures to RESULT. ``trace.overhead_s`` is the sum over commands of
the traced time minus the mean of the two plain times.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import rackit.calibration
import rackit.cli
import rackit.compress
import rackit.diagnostics
from rackit.model import SLOTS

from workloads import WORKLOADS


def _file_size(position: int):
    return lambda args, result: os.path.getsize(args[position])


def _one(args, result):
    return 1


def _generated(args, result):
    return len(result) - len(args[1])


def _sequence(args, result):
    return len(args[1])


def _columns(args, result):
    stats = result.stats[result.refs[0]]
    return stats.n_prompt + stats.n_decode


def _slot_seconds(slot: str):
    return lambda args, result: sum(r.seconds for r in result[1].refs if r.ref.slot == slot)


# (namespace, attribute, span name, {counter: amount(args, result)}). Decode
# and the forwards take (model, tokens, ...) positionally at every call site.
PUBLIC = [
    (rackit.cli, "load_model", "model.load", {"model.bytes": _file_size(0)}),
    (rackit.cli, "save_model", "model.save", {"model.bytes": _file_size(1)}),
    (rackit.cli, "collect", "calibration.collect", {"calibration.columns": _columns}),
    (rackit.cli, "compress_model", "compress.total",
     {f"compress.{slot}_s": _slot_seconds(slot) for slot in SLOTS}),
    (rackit.cli, "decode", "model.decode", {"model.decode_tokens": _generated}),
    (rackit.cli, "error_trace", "diagnostics.error_trace",
     {"diagnostics.error_trace_calls": _one}),
    (rackit.cli, "eval_nll", "diagnostics.eval_nll",
     {"diagnostics.scored_tokens": lambda args, result: result.tokens}),
    (rackit.calibration, "decode", "model.decode", {"model.decode_tokens": _generated}),
    (rackit.calibration, "forward_teacher_forced", "model.forward",
     {"model.forward_tokens": _sequence}),
    (rackit.calibration, "accumulate_gram", "numkernel.gram",
     {"numkernel.gram_updates": _one}),
    (rackit.diagnostics, "forward_teacher_forced", "model.forward",
     {"model.forward_tokens": _sequence}),
    (rackit.diagnostics, "last_layer_states", "model.forward",
     {"model.forward_tokens": _sequence}),
    (rackit.compress, "prune_obs", "compress.prune_obs", {}),
    (rackit.compress, "cholesky", "numkernel.factor", {}),
    (rackit.compress, "inverse_via_cholesky", "numkernel.factor", {}),
]

# CalibrationSet methods, which every caller looks up through the class;
# save(self, path) and the classmethod load(cls, path) both see the path second.
METHODS = [
    ("load", "calibration.load", {"calibration.bytes": _file_size(1)}),
    ("save", "calibration.save", {"calibration.bytes": _file_size(1)}),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, command index]
        self.counts: dict[str, float] = defaultdict(float)
        self.command = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, counters: dict):
        def traced(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.command]
            self.spans.append(record)
            self._stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            for counter, amount in counters.items():
                self.counts[counter] += amount(args, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, counters in PUBLIC:
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, counters))
        cls = rackit.calibration.CalibrationSet
        for attr, name, counters in METHODS:
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            if isinstance(original, classmethod):
                setattr(cls, attr, classmethod(self.wrap(original.__func__, name, counters)))
            else:
                setattr(cls, attr, self.wrap(original, name, counters))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def command_span(self, index: int, name: str):
        self.command = index
        return self.wrap(rackit.cli.main, f"cli.{name}", {})

    def layer_metrics(self) -> dict[str, float]:
        """Summed span seconds per traced name, and every counter."""
        out = {}
        for _, _, name, counters in PUBLIC + [(None,) + m for m in METHODS]:
            out[f"{name}_s"] = 0.0
            out.update(dict.fromkeys(counters, 0.0))
        for name, start, end, _, _ in self.spans:
            if f"{name}_s" in out:
                out[f"{name}_s"] += end - start
        out.update(self.counts)
        return out


def run_command(label: str, argv, main=rackit.cli.main) -> float:
    """Run one command through rackit.cli.main; returns its wall time."""
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{label} exited {code}")
    return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    commands = WORKLOADS[args.workload].pipeline_commands(args.seed)
    os.chdir(args.workdir)

    # Each command runs plain, traced, then plain again before the next one
    # starts, so drift in machine speed cancels out of the difference.
    tracer = Tracer()
    plain = traced = 0.0
    for index, (_, label, argv) in enumerate(commands):
        before = run_command(label, argv)
        tracer.install()
        try:
            traced += run_command(label, argv, tracer.command_span(index, label))
        finally:
            tracer.uninstall()
        plain += (before + run_command(label, argv)) / 2

    with open(args.spans, "w") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "fields": ["name", "start", "end", "parent", "command"],
                             "commands": [label for _, label, _ in commands]}) + "\n")
        for record in tracer.spans:
            fh.write(json.dumps(record) + "\n")
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = traced - plain
    Path(args.result).write_text(json.dumps(metrics, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
