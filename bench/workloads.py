"""The benchmark's two workloads: seeded inputs and the CLI commands they run.

Every command runs with its working directory set to the workload's work
directory, so all paths below are relative to it.

The generated models are part of each workload's definition and do not
depend on the seed: rac-c06 uses model seed 6002, offpolicy-wide uses 7002
for the target and 7104 for the trace model. With these models greedy
rollouts of seeded printable-ASCII prompts run to t_max, so the decode share
of the work is the same on every seed. Many random models emit the stop byte
within a few dozen steps on some prompts, which would make the stage times
depend on the seed more than on the code. The seed draws the calibration
prompts, the held-out prompts and the evaluation text.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

T_MAX = 128
MAX_POSITIONS = 192
PROMPT_BYTES = 32
N_PROMPTS = 8
N_HELDOUT = 4

_WORDS = (
    "the of and to in is was for on that with as by at from his her it an "
    "were are which this be or has had not but one their also its first new "
    "after two who they have been more other all into over time year city "
    "river music film game team war state name world work life early during"
).split()


@dataclass(frozen=True)
class Compressed:
    """One `prune` output: its label in `diagnose` and its CLI flags."""

    label: str
    flags: tuple[str, ...]

    @property
    def path(self) -> str:
        return f"{self.label}.tmc"

    @property
    def report(self) -> str:
        return f"{self.label}.tmc.report.json"


@dataclass(frozen=True)
class Workload:
    name: str
    target: tuple[int, int, int, int, int]  # d_model, layers, heads, d_mlp, model seed
    trace: tuple[int, int, int, int, int] | None
    compressed: tuple[Compressed, ...]
    diagnosed: int  # how many of `compressed`, in order, go to `diagnose`
    eval_budget: int

    @property
    def calib_mode(self) -> str:
        return "rac" if self.trace is None else "off-policy"

    def setup_commands(self) -> list[tuple[str, list[str]]]:
        models = [("dense.tmc", self.target)]
        if self.trace is not None:
            models.append(("trace.tmc", self.trace))
        return [
            (f"gen-model-{out.split('.')[0]}",
             ["gen-model", "--d-model", str(d), "--layers", str(n), "--heads", str(h),
              "--d-mlp", str(m), "--max-positions", str(MAX_POSITIONS),
              "--seed", str(seed), "--out", out])
            for out, (d, n, h, m, seed) in models
        ]

    def pipeline_commands(self, seed: int) -> list[tuple[str, str, list[str]]]:
        """(stage, label, argv) in run order; stages name the end-to-end metrics."""
        s = str(seed)
        calibrate = ["calibrate", "--model", "dense.tmc", "--mode", self.calib_mode,
                     "--prompts", "prompts.txt", "--t-max", str(T_MAX), "--seed", s,
                     "--out", "calib.racc"]
        if self.trace is not None:
            calibrate += ["--trace-model", "trace.tmc"]
        cmds = [("calibrate", "calibrate", calibrate)]
        for c in self.compressed:
            cmds.append(("prune", f"prune-{c.label}",
                         ["prune", "--model", "dense.tmc", "--calib", "calib.racc",
                          *c.flags, "--seed", s, "--out", c.path]))
        diagnose = ["diagnose", "--dense", "dense.tmc", "--prompts", "heldout.txt",
                    "--t-max", str(T_MAX), "--out-dir", "diag", "--seed", s]
        for c in self.compressed[: self.diagnosed]:
            diagnose += ["--compressed", f"{c.label}={c.path}"]
        cmds.append(("diagnose", "diagnose", diagnose))
        cmds.append(("eval", "eval",
                     ["eval", "--model", self.compressed[0].path, "--text", "text.txt",
                      "--budget", str(self.eval_budget), "--out", "eval.json",
                      "--seed", s]))
        return cmds

    def write_inputs(self, workdir: Path, seed: int) -> None:
        """Prompt files and evaluation text, drawn from ``seed`` alone."""
        prompts_rng, heldout_rng, text_rng = (
            np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3))
        (workdir / "prompts.txt").write_bytes(_prompt_lines(prompts_rng, N_PROMPTS))
        (workdir / "heldout.txt").write_bytes(_prompt_lines(heldout_rng, N_HELDOUT))
        # Non-overlapping chunks of MAX_POSITIONS bytes score MAX_POSITIONS - 1
        # tokens each; leave a spare chunk so the budget is always reached.
        need = (self.eval_budget // (MAX_POSITIONS - 1) + 2) * MAX_POSITIONS
        words = text_rng.choice(len(_WORDS), size=need // 3)
        text = " ".join(_WORDS[i] for i in words).encode("ascii")
        (workdir / "text.txt").write_bytes(text[:need])


def _prompt_lines(rng, count: int) -> bytes:
    """``count`` lines of PROMPT_BYTES printable ASCII bytes (space to '~')."""
    rows = rng.integers(32, 127, size=(count, PROMPT_BYTES), dtype=np.uint8)
    return b"".join(bytes(row) + b"\n" for row in rows)


WORKLOADS = {
    wl.name: wl
    for wl in (
        # The test_c06 shape: the paper's rac-vs-prompt-only comparison.
        Workload(
            name="rac-c06",
            target=(64, 4, 4, 256, 6002),
            trace=None,
            compressed=(
                Compressed("rac", ("--method", "obs", "--sparsity", "0.5",
                                   "--calib-mode", "rac")),
                Compressed("po", ("--method", "obs", "--sparsity", "0.5",
                                  "--calib-mode", "prompt-only")),
            ),
            diagnosed=2,
            eval_budget=2048,
        ),
        # The same modules weighted the other way: wider Grams, off-policy
        # replay, no greedy mask, one-model diagnose, a larger eval budget.
        Workload(
            name="offpolicy-wide",
            target=(128, 4, 4, 512, 7002),
            trace=(32, 2, 2, 128, 7104),
            compressed=(
                Compressed("nm24", ("--method", "obs", "--nm", "2:4")),
                Compressed("q4", ("--method", "obs-quant", "--bits", "4",
                                  "--group-size", "32")),
            ),
            diagnosed=1,
            eval_budget=8192,
        ),
    )
}
