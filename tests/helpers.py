"""Shared builders for test inputs, and a fresh-interpreter launcher."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import rackit
import rackit.calibration
from rackit.model import ModelConfig


def small_config(**overrides) -> ModelConfig:
    base = dict(d_model=16, n_layers=2, n_heads=2, d_mlp=32, max_positions=64)
    base.update(overrides)
    return ModelConfig(**base)


def random_gram(rng, dim, n_cols=None):
    """PD-almost-surely Gram from a materialized activation matrix."""
    n = n_cols if n_cols is not None else 4 * dim
    X = rng.standard_normal((dim, n))
    return X @ X.T, X


def random_prompts(rng, count, min_len=3, max_len=8):
    """Byte prompts that avoid the stop byte so rollouts are not cut short."""
    out = []
    for _ in range(count):
        n = int(rng.integers(min_len, max_len + 1))
        out.append([int(t) for t in rng.integers(1, 256, size=n)])
    return out


def nan_in_first_capture(monkeypatch):
    """Make ``collect``'s teacher-forced forwards capture a NaN in the first
    column of one activation, so its Gram update fails."""
    real = rackit.calibration.forward_teacher_forced

    def forward(model, tokens, capture=()):
        logits, captures = real(model, tokens, capture)
        next(iter(captures.values()))[0, 0] = np.nan
        return logits, captures

    monkeypatch.setattr(rackit.calibration, "forward_teacher_forced", forward)


def fresh_python(code: str, *args, cwd=None) -> dict:
    """Run ``code`` in a fresh interpreter with rackit on the path; its last
    stdout line, parsed as JSON."""
    src = str(Path(rackit.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


# For fresh_python: runs each argument vector (split at "--") through
# rackit.cli.main and reports the exit codes, the scipy modules loaded, and
# then the number of OpenBLAS builds that the thread pin finds.
CLI_PROBE = """
    import json, sys
    from rackit import numkernel
    from rackit.cli import main

    argv, runs = sys.argv[1:] + ["--"], []
    while argv:
        runs.append(argv[:argv.index("--")])
        argv = argv[argv.index("--") + 1:]
    codes = [main(run) for run in runs]
    print(json.dumps({
        "codes": codes,
        "scipy_modules": sorted(m for m in sys.modules
                                if m == "scipy" or m.startswith("scipy.")),
        "openblas": len(numkernel._openblas_thread_controls()),
    }))
"""
