"""Checks on the benchmark's tooling that need no benchmark run."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import rackit
from rackit.calibration import MODES, CalibrationSet
from rackit.cli import _COMMANDS, main
from rackit.compress import COMPRESSION_MODES, METHODS
from rackit.model import Sampler

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(monkeypatch, name: str):
    """``bench/<name>.py`` imported with ``bench/`` on the path, writing no
    bytecode; yields the module, then forgets the bench modules it imported."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        for imported in ("workloads", "reference"):
            sys.modules.pop(imported, None)


@pytest.fixture
def tracer(monkeypatch):
    yield from _bench_module(monkeypatch, "tracer")


@pytest.fixture
def bench_run(monkeypatch):
    yield from _bench_module(monkeypatch, "run")


def test_every_traced_name_resolves(tracer):
    """The tracer replaces functions by name; a renamed one would go untraced."""
    for owner, attr, _, _ in tracer.PUBLIC:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
    for attr, _, _ in tracer.METHODS:
        assert attr in CalibrationSet.__dict__, attr
        assert callable(getattr(CalibrationSet, attr)), attr


@pytest.mark.parametrize("module", [
    "rackit", "rackit.model", "rackit.numkernel", "rackit.compress", "rackit.calibration",
    "rackit.diagnostics", "rackit.cli", "rackit.model.bundle", "rackit.model.container",
    "rackit.model.runtime",
])
def test_every_exported_name_resolves(module):
    """A name left in ``__all__`` after its object is removed would break
    ``from module import *``."""
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing objects: {missing}"


def test_cli_choices_are_library_names():
    """The CLI turns dashes into underscores and nothing else, so each choice
    must name what the library checks; a choice without a library twin would
    fail only when it is run."""
    library = {("calibrate", "--mode"): MODES,
               ("prune", "--method"): METHODS,
               ("prune", "--calib-mode"): COMPRESSION_MODES}
    flags = {(command, flag.name): flag.choices
             for command, spec in _COMMANDS.items() for flag in spec.flags}
    for key, names in library.items():
        for choice in flags[key]:
            assert choice.replace("-", "_") in names, (key, choice)
    for choice in flags[("calibrate", "--sampler")]:
        Sampler(kind=choice.replace("-", "_"))


def _assert_benchmark_checks_pass(bench_run, name, tmp_path, monkeypatch, capsys):
    """The CLI's artifacts for workload ``name``, seed 1, pass
    ``bench/run.py``'s checks, which hold them to a whole-sequence forward
    and byte-layout parsers that share no code with rackit."""
    monkeypatch.chdir(tmp_path)
    workload = bench_run.WORKLOADS[name]
    workload.write_inputs(tmp_path, 1)
    commands = [argv for _, argv in workload.setup_commands()]
    commands += [argv for _, _, argv in workload.pipeline_commands(1)]
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()
    checks, _ = bench_run.verify(workload, tmp_path)
    assert checks.passed > 0
    assert checks.failures == []


def test_benchmark_checks_pass_on_rac_c06(bench_run, tmp_path, monkeypatch, capsys):
    """On-policy rollouts and replays, greedy OBS masks, two-model diagnose."""
    _assert_benchmark_checks_pass(bench_run, "rac-c06", tmp_path, monkeypatch, capsys)


def test_benchmark_checks_pass_on_offpolicy_wide(bench_run, tmp_path, monkeypatch, capsys):
    """Trace-model rollouts with target replays, the 2:4 and 4-bit paths and
    the large eval."""
    _assert_benchmark_checks_pass(bench_run, "offpolicy-wide", tmp_path, monkeypatch,
                                  capsys)


def _import_time_statements(node):
    """Import statements that run when the module is imported: every one
    outside a function body, class bodies and conditional blocks included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _import_time_statements(child)


def test_no_module_level_scipy_import():
    """A scipy import at module level makes every command pay for it at
    start-up, including gen-model and prune, which need no scipy module."""
    found = []
    for path in sorted(Path(rackit.__file__).parent.rglob("*.py")):
        for stmt in _import_time_statements(ast.parse(path.read_text(), str(path))):
            if isinstance(stmt, ast.Import):
                names = [alias.name for alias in stmt.names]
            else:  # relative imports name rackit's own modules
                names = [stmt.module] if stmt.level == 0 else []
            found += [f"{path.name}:{stmt.lineno} {name}" for name in names
                      if name == "scipy" or name.startswith("scipy.")]
    assert found == []
