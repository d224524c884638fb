"""Checks on the benchmark's tooling that need no benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

from rackit.calibration import MODES, CalibrationSet
from rackit.cli import _COMMANDS
from rackit.compress import COMPRESSION_MODES, METHODS
from rackit.model import Sampler

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracer(monkeypatch):
    """``bench/tracer.py`` imported with ``bench/`` on the path, writing no bytecode."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop("workloads", None)


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
