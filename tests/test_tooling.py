"""Checks on the benchmark's tooling that need no benchmark run."""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import rackit
from rackit.calibration import CalibrationSet
from rackit.cli import _COMMANDS, _command_flags, main

BENCH = Path(__file__).resolve().parent.parent / "bench"
README = BENCH.parent / "README.md"


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


def _import_time_imports(*packages: str) -> list[str]:
    """``file:line name`` of each import of one of ``packages``, or of a
    module inside one, that runs when a module of rackit is imported."""
    found = []
    for path in sorted(Path(rackit.__file__).parent.rglob("*.py")):
        for stmt in _import_time_statements(ast.parse(path.read_text(), str(path))):
            if isinstance(stmt, ast.Import):
                names = [alias.name for alias in stmt.names]
            else:  # relative imports name rackit's own modules
                names = [stmt.module] if stmt.level == 0 else []
            found += [f"{path.name}:{stmt.lineno} {name}" for name in names
                      if name.split(".")[0] in packages]
    return found


def test_no_module_level_scipy_import():
    """A scipy import at module level makes every command pay for it at
    start-up, including gen-model and prune, which need no scipy module."""
    assert _import_time_imports("scipy") == []


def test_no_module_level_pool_import():
    """The pools are imported by the functions that open them, so that
    ``cli.import_s`` never pays for ``concurrent.futures`` or
    ``multiprocessing``."""
    assert _import_time_imports("concurrent", "multiprocessing") == []


def test_readme_library_use_runs(capsys):
    """README's "Library use" example runs as written and prints its result."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, f"{README}:Library use", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_readme_names_every_flag():
    """README documents every flag of every command, --seed and --config too."""
    text = README.read_text(encoding="utf-8")
    flags = {flag.name for command in _COMMANDS for flag in _command_flags(command)}
    missing = sorted(name for name in flags | {"--config"}
                     if not re.search(rf"{name}(?![\w-])", text))
    assert missing == []


def test_readme_names_no_other_flag():
    """Every flag that README's CLI walkthrough names is a flag of some
    command, or --config."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI walkthrough\n", 1)[1].split("\n## Library use\n", 1)[0]
    flags = {flag.name for command in _COMMANDS for flag in _command_flags(command)}
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", section))
    assert sorted(named - flags - {"--config"}) == []
