"""Benchmark of the rackit CLI pipeline on two fixed workloads.

    python3 bench/run.py --workload rac-c06 --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/`` and nothing needs installing. With ``--trace 0`` it times set-up
(``gen-model`` plus the input files) five times, then runs whole rounds of
``calibrate → prune → diagnose → eval``, each command in a fresh
``python -m rackit.cli`` process, until ``--seconds`` have passed, and
reports the median of each stage over the rounds. With ``--trace 1`` it
instead runs the same commands in one process, plain, with spans around the
calls into each rackit module, and plain again (see tracer.py), and reports
the per-layer figures. Either way the artifacts of the last round are checked
against reference computations (reference.py) outside the timed region.

Informational JSON lines (machine facts, artifact hashes, check results)
come first; the last line of standard output is the result object.

BLAS thread variables are removed from the children's environment, so the
program runs with the thread count its BLAS picks by itself, whatever the
calling shell sets. The count the children see is reported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import reference
from workloads import N_HELDOUT, T_MAX, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 150
STAGES = ("calibrate", "prune", "diagnose", "eval")


class CommandFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, cwd: Path, log_stem: Path):
    """Run one process to its end; returns (seconds, peak RSS in MB, stdout)."""
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = Path(f"{log_stem}.out").read_text()
    if proc.returncode != 0:
        raise CommandFailed(
            f"{' '.join(map(str, argv))} exited {proc.returncode}:\n"
            + Path(f"{log_stem}.err").read_text()[-2000:])
    return seconds, usage.ru_maxrss / 1024.0, stdout


def run_cli(argv, workdir: Path, label: str):
    return run_child([sys.executable, "-m", "rackit.cli", *argv], workdir,
                     workdir / "logs" / label)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def setup(wl, seed: int, workdir: Path) -> tuple[float, dict]:
    """Write the inputs and generate the models; returns (seconds, hashes)."""
    start = time.perf_counter()
    wl.write_inputs(workdir, seed)
    hashes = {}
    for label, argv in wl.setup_commands():
        _, _, stdout = run_cli(argv, workdir, label)
        hashes[argv[-1]] = last_json(stdout)["hash"]
    return time.perf_counter() - start, hashes


def file_digests(workdir: Path) -> dict[str, str]:
    """sha256 of every artifact; `.log` sidecars hold wall-clock data."""
    return {
        str(p.relative_to(workdir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(workdir.rglob("*"))
        if p.is_file() and p.suffix != ".log" and "logs" not in p.relative_to(workdir).parts
    }


def timed_round(wl, seed: int, workdir: Path) -> dict:
    stages = dict.fromkeys(STAGES, 0.0)
    rss = 0.0
    outputs = {}
    start = time.perf_counter()
    for stage, label, argv in wl.pipeline_commands(seed):
        seconds, mb, stdout = run_cli(argv, workdir, label)
        stages[stage] += seconds
        rss = max(rss, mb)
        outputs[label] = last_json(stdout)
    return {"pipeline": time.perf_counter() - start, "stages": stages,
            "rss": rss, "outputs": outputs}


def verify(wl, workdir: Path) -> tuple[reference.Checks, dict]:
    """Check the artifacts in ``workdir``; returns (checks, quality metrics)."""
    sys.path.insert(0, str(SRC))
    from rackit.model import GREEDY, decode, load_model

    checks = reference.Checks()
    dense = reference.Model(workdir / "dense.tmc")
    source_file = "dense.tmc" if wl.trace is None else "trace.tmc"
    source = dense if wl.trace is None else reference.Model(workdir / source_file)
    candidate_source = load_model(workdir / source_file)
    n_layers = dense.config["n_layers"]

    # Calibration: rollouts of the trace source, Grams of the target.
    calib = reference.read_calibration(workdir / "calib.racc")
    grams = {}
    n_prompt = n_decode = 0
    for m, prompt in enumerate(reference.read_prompts(workdir / "prompts.txt")):
        seq = decode(candidate_source, prompt, T_MAX, GREEDY)
        logits, _, inputs = source.forward(seq)
        checks.rollout(f"calibration rollout {m}", logits, seq, len(prompt), T_MAX)
        if source is not dense:
            _, _, inputs = dense.forward(seq)
        b = len(prompt)
        for key, X in inputs.items():
            acc = grams.setdefault(key, [0.0, 0.0, 0.0, 0.0])
            A = np.abs(X)
            acc[0] = acc[0] + X[:b].T @ X[:b]
            acc[1] = acc[1] + X[b:].T @ X[b:]
            acc[2] = acc[2] + A[:b].T @ A[:b]
            acc[3] = acc[3] + A[b:].T @ A[b:]
        n_prompt += b
        n_decode += len(seq) - b
    checks.calibration(calib, grams, (n_prompt, n_decode))

    # Compressed models against the dense one and the Grams they used.
    compressed = {}
    reports = {}
    for c in wl.compressed:
        comp = compressed[c.label] = reference.Model(workdir / c.path)
        report = reports[c.label] = json.loads((workdir / c.report).read_text())
        checks.untouched(c.label, dense, comp)
        checks.expect(len(report["refs"]) == n_layers * len(reference.SLOTS),
                      f"{c.label}: report covers {len(report['refs'])} refs")
        pattern = report["pattern"]
        for ref, body in report["refs"].items():
            layer, slot = ref.split(".", 1)
            key = (int(layer), slot)
            W, W_new = dense.slot(*key), comp.slot(*key)
            gram = reference.compress_gram(calib, key, report["calibration_mode"])
            if pattern["kind"] == "unstructured":
                checks.unstructured(c.label, key, W_new, pattern["sparsity"])
            elif pattern["kind"] == "semi_structured":
                checks.n_of_m(c.label, key, W_new, pattern["n"], pattern["m"])
            else:
                checks.quantized(c.label, key, W_new, pattern["bits"],
                                 pattern["group_size"])
            if report["method"] == "obs":
                checks.normal_equations(c.label, key, W, W_new, gram)
            checks.loss(c.label, key, body["loss"], W, W_new, gram)

    # diagnose: held-out rollouts of the dense model and e_t per model.
    errors = reference.read_errors_csv(workdir / "diag" / "errors.csv")
    labels = [c.label for c in wl.compressed[: wl.diagnosed]]
    candidate_dense = candidate_source if source is dense else load_model(workdir / "dense.tmc")
    decode_errors = {label: [] for label in labels}
    heldout = reference.read_prompts(workdir / "heldout.txt")
    checks.expect(len(heldout) == N_HELDOUT, f"{len(heldout)} held-out prompts")
    for idx, prompt in enumerate(heldout):
        seq = decode(candidate_dense, prompt, T_MAX, GREEDY)
        logits, h_dense, _ = dense.forward(seq)
        checks.rollout(f"held-out rollout {idx}", logits, seq, len(prompt), T_MAX)
        for label in labels:
            _, h_comp, _ = compressed[label].forward(seq)
            got = errors.get((f"p{idx}", label), [])
            checks.error_trace(f"diagnose p{idx} {label}", got, h_dense, h_comp)
            decode_errors[label].append(
                np.linalg.norm(h_dense - h_comp, axis=1)[len(prompt):])
    summary = json.loads((workdir / "diag" / "summary.json").read_text())
    for label in labels:
        got = summary["phase_means"][label]["mean_decode_error"]
        want = float(np.concatenate(decode_errors[label]).mean())
        checks.expect(abs(got - want) <= reference.F64_SLACK * want,
                      f"summary {label} mean decode error {got!r} vs {want!r}")

    # eval on the first compressed model.
    result = json.loads((workdir / "eval.json").read_text())
    checks.eval_nll(result, compressed[wl.compressed[0].label],
                    (workdir / "text.txt").read_bytes(), wl.eval_budget)

    first = wl.compressed[0].label
    quality = {
        "loss_rel": reference.relative_loss(reports[first], dense, calib),
        "decode_err": summary["phase_means"][first]["mean_decode_error"],
        "nll": result["mean_nll"],
    }
    return checks, quality


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def measure(wl, seed: int, seconds: float, workdir: Path) -> tuple[int, dict, dict]:
    """The --trace 0 run: returns (commands run, end-to-end metrics, artifacts)."""
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, model_hashes = setup(wl, seed, workdir)
        setups.append(elapsed)
    rounds = []
    digests = None
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(timed_round(wl, seed, workdir))
        current = file_digests(workdir)
        if digests is not None and current != digests:
            changed = sorted(k for k in current if current[k] != digests.get(k))
            raise CommandFailed(f"artifacts differ between rounds: {changed}")
        digests = current
    med = statistics.median
    metrics = {
        "setup_s": metric(med(setups), "s"),
        "pipeline_s": metric(med(r["pipeline"] for r in rounds), "s"),
        **{f"{stage}_s": metric(med(r["stages"][stage] for r in rounds), "s")
           for stage in STAGES},
        "peak_rss_mb": metric(max(r["rss"] for r in rounds), "MB"),
    }
    outputs = rounds[-1]["outputs"]
    artifacts = {
        "model_hash": {**model_hashes,
                       **{o["model"]: o["output_model_hash"]
                          for label, o in outputs.items() if label.startswith("prune-")}},
        "calibration_digest": outputs["calibrate"]["digest"],
        "sha256": digests,
        "rounds": [{"pipeline": r["pipeline"], **r["stages"]} for r in rounds],
    }
    commands = SETUP_REPEATS * len(wl.setup_commands()) + len(rounds) * len(
        wl.pipeline_commands(seed))
    return commands, metrics, artifacts


def trace(wl, seed: int, workdir: Path) -> tuple[int, dict]:
    """The --trace 1 run: returns (commands run, per-layer metrics)."""
    setup(wl, seed, workdir)
    spans = OUT / f"trace-{wl.name}-seed{seed}.jsonl"
    result = workdir / "trace_metrics.json"
    run_child([sys.executable, str(HERE / "tracer.py"), "--workload", wl.name,
               "--seed", str(seed), "--workdir", str(workdir), "--spans", str(spans),
               "--result", str(result)], workdir, workdir / "logs" / "tracer")
    layers = json.loads(result.read_text())
    imports = [run_child([sys.executable, "-c", "import rackit.cli"], workdir,
                         workdir / "logs" / "import")[0] for _ in range(IMPORT_REPEATS)]
    layers["cli.import_s"] = statistics.median(imports)
    commands = len(wl.setup_commands()) + 3 * len(wl.pipeline_commands(seed))
    metrics = {}
    for name, value in sorted(layers.items()):
        unit = "s" if name.endswith("_s") else "bytes" if name.endswith("bytes") else "count"
        metrics[name] = metric(value, unit)
    return commands, metrics


def machine_facts(workdir: Path) -> dict:
    _, _, stdout = run_child([sys.executable, str(HERE / "machine.py")], workdir,
                             workdir / "logs" / "machine")
    return last_json(stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rackit" / "cli.py").is_file():
        sys.stderr.write(f"error: no rackit sources under {SRC}; "
                         "run from the root of a source checkout\n")
        return 2
    wl = WORKLOADS[args.workload]
    workdir = OUT / wl.name
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "logs").mkdir(parents=True)

    try:
        print(json.dumps({"machine": machine_facts(workdir)}), flush=True)
        if args.trace:
            attempted, metrics = trace(wl, args.seed, workdir)
        else:
            attempted, metrics, artifacts = measure(wl, args.seed, args.seconds, workdir)
            print(json.dumps({"artifacts": artifacts}), flush=True)
        checks, quality = verify(wl, workdir)
    except CommandFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if not args.trace:
        metrics["loss_rel"] = metric(quality["loss_rel"], "1")
        metrics["decode_err"] = metric(quality["decode_err"], "1")
        metrics["nll"] = metric(quality["nll"], "nats")
    print(json.dumps({"checks": {"passed": checks.passed, "failures": checks.failures}}))
    print(json.dumps({"correct": not checks.failures, "attempted": attempted,
                      "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
