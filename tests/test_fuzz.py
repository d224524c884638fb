"""Loader fuzzing: a damaged .tmc or .racc fails with ContainerError only.

Two kinds of damage: the file cut at any length, and one manifest field
deleted or given another type, sign, NaN or size. Either the loader still
accepts the file or it raises ContainerError; any other exception escapes
and fails the test. Arrays are packed back to back, so a changed offset
must always raise.
"""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackit.calibration import CalibrationConfig, CalibrationSet, collect
from rackit.cli import main
from rackit.errors import ContainerError
from rackit.model import ModelConfig, all_refs, generate_model, load_model, save_model

_HEADER = struct.Struct("<Q")
_OTHER_VALUES = ["x", None, True, [], {}, 1.5]
_OFFSET_KEYS = ("offset", "offset_prompt", "offset_decode")


@pytest.fixture(scope="module")
def containers(tmp_path_factory):
    """Raw bytes of one small .tmc and one .racc, plus a scratch file path."""
    root = tmp_path_factory.mktemp("fuzz")
    model = generate_model(ModelConfig(d_model=4, n_layers=2, n_heads=2, d_mlp=8,
                                       max_positions=8), seed=3)
    save_model(model, root / "m.tmc")
    refs = all_refs(model.config)[:3]
    calib = collect(model, CalibrationConfig(mode="rac", prompts=((5, 6, 7),), t_max=3),
                    refs)
    calib.save(root / "c.racc")
    return {
        "tmc": (b"TMC1", (root / "m.tmc").read_bytes(), load_model),
        "racc": (b"RACC", (root / "c.racc").read_bytes(), CalibrationSet.load),
        "scratch": root / "damaged",
    }


def _split(magic: bytes, raw: bytes):
    (mlen,) = _HEADER.unpack_from(raw, len(magic))
    start = len(magic) + _HEADER.size
    return json.loads(raw[start : start + mlen]), raw[start + mlen :]


def _draw_path(draw, node) -> list:
    """A path into the manifest, drawn top-down so that the outer fields,
    which hold the structure, are hit as often as the many leaves."""
    path = []
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                   else range(len(node))))
        path.append(key)
        child = node[key]
        if not isinstance(child, (dict, list)) or not child or draw(st.booleans()):
            return path
        node = child


def _mutated(value, kind: str, draw):
    if kind == "type":
        return draw(st.sampled_from(_OTHER_VALUES))
    if kind == "sign":
        numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
        return -value - draw(st.integers(0, 1)) if numeric else -1
    if kind == "nan":
        return float("nan")
    # size
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value * draw(st.sampled_from([0, 2, 2**33])) + draw(st.integers(-1, 1))
    if isinstance(value, (str, list)):
        return value[: len(value) // 2] if draw(st.booleans()) else value * 2
    return [value, value]


@pytest.mark.parametrize("kind", ["tmc", "racc"])
@settings(max_examples=150)
@given(data=st.data())
def test_truncation_raises_container_error(containers, kind, data):
    _, raw, loader = containers[kind]
    path = containers["scratch"]
    path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
    with pytest.raises(ContainerError):
        loader(path)


@pytest.mark.parametrize("kind", ["tmc", "racc"])
@settings(max_examples=1000)
@given(data=st.data())
def test_manifest_mutation_raises_only_container_error(containers, kind, data):
    magic, raw, loader = containers[kind]
    manifest, blob = _split(magic, raw)
    path = _draw_path(data.draw, manifest)
    parent = manifest
    for key in path[:-1]:
        parent = parent[key]
    action = data.draw(st.sampled_from(["delete", "type", "sign", "nan", "size"]))
    old = parent[path[-1]]
    if action == "delete":
        del parent[path[-1]]
        changed = True
    else:
        new = parent[path[-1]] = _mutated(old, action, data.draw)
        changed = type(new) is not type(old) or new != old
    body = json.dumps(manifest).encode()
    damaged = containers["scratch"]
    damaged.write_bytes(magic + _HEADER.pack(len(body)) + body + blob)
    try:
        loader(damaged)
    except ContainerError:
        return
    assert not (changed and path[-1] in _OFFSET_KEYS), f"{path} loaded after {action}"


@pytest.mark.parametrize("key", ["d_model", "n_layers", "n_heads", "d_mlp", "max_positions"])
@pytest.mark.parametrize("bad", [True, 1.5, "8"])
def test_config_size_that_is_no_integer_exits_3(tmp_path, capsys, key, bad):
    """A size must be an integer: read as 1, ``"n_layers": true`` would load a
    1-layer model's weights under another content hash."""
    path, text = tmp_path / "m.tmc", tmp_path / "t.txt"
    save_model(generate_model(ModelConfig(d_model=4, n_layers=1, n_heads=2, d_mlp=8,
                                          max_positions=8), seed=3), path)
    manifest, blob = _split(b"TMC1", path.read_bytes())
    manifest["config"][key] = bad
    body = json.dumps(manifest).encode()
    path.write_bytes(b"TMC1" + _HEADER.pack(len(body)) + body + blob)
    text.write_bytes(b"abc")
    assert main(["eval", "--model", str(path), "--text", str(text)]) == 3
    assert f"{key} must be an integer, got {bad!r}" in capsys.readouterr().err
