"""TMC v1 weight container.

Layout: magic ``TMC1``, an unsigned 64-bit little-endian manifest length, the
UTF-8 JSON manifest, then one blob of little-endian float32 tensor data. The
manifest records the model config, a tensor directory mapping each name to
{shape, offset, length} (offsets relative to the blob start, tensors
concatenated in directory order), and free-form provenance. Tensors are
row-major. Saving is atomic (temp file + rename) and re-saving a loaded
bundle reproduces the input bytes exactly.

The calibration container (``RACC``) shares this framing; ``write_container``
and ``read_container`` implement it for both.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from ..errors import ContainerError, ValidationError
from .bundle import (
    LayerWeights,
    ModelBundle,
    ModelConfig,
    config_as_dict,
    named_tensors,
    tensor_schema,
    validate_bundle,
)

__all__ = [
    "save_model",
    "load_model",
    "atomic_write_bytes",
    "write_container",
    "read_container",
    "manifest_count",
]

MAGIC = b"TMC1"
_HEADER = struct.Struct("<Q")


def atomic_write_bytes(path, payload: bytes) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def write_container(path, magic: bytes, manifest: dict, parts) -> None:
    """Atomically write ``magic + u64 LE manifest length + JSON + blob``."""
    mbytes = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
    atomic_write_bytes(path, magic + _HEADER.pack(len(mbytes)) + mbytes + b"".join(parts))


def read_container(path, magic: bytes, fmt: str) -> tuple[dict, bytes]:
    """Parse the framing written by :func:`write_container`.

    Returns (manifest, blob). The manifest must be a JSON object naming
    ``fmt`` at version 1, with an object (or no) ``provenance``.
    """
    data = Path(path).read_bytes()
    if len(data) < len(magic) + _HEADER.size or data[: len(magic)] != magic:
        raise ContainerError(f"{path}: not a {fmt} container")
    (mlen,) = _HEADER.unpack_from(data, len(magic))
    start = len(magic) + _HEADER.size
    if start + mlen > len(data):
        raise ContainerError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(data[start : start + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerError(f"{path}: bad manifest ({exc})") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != fmt \
            or manifest.get("version") != 1:
        raise ContainerError(f"{path}: unsupported {fmt} container version")
    if not isinstance(manifest.get("provenance", {}), dict):
        raise ContainerError(f"{path}: provenance must be an object")
    return manifest, data[start + mlen :]


def manifest_count(entry, key: str, what: str) -> int:
    """``entry[key]`` as a non-negative int; anything else is a ContainerError."""
    value = entry.get(key) if isinstance(entry, dict) else None
    if type(value) is not int or value < 0:
        raise ContainerError(f"{what}: {key!r} must be a non-negative integer, got {value!r}")
    return value


def save_model(bundle: ModelBundle, path) -> None:
    directory = {}
    parts = []
    offset = 0
    for name, arr in named_tensors(bundle):
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        directory[name] = {"shape": list(arr.shape), "offset": offset, "length": len(raw)}
        parts.append(raw)
        offset += len(raw)
    manifest = {
        "format": "TMC",
        "version": 1,
        "config": config_as_dict(bundle.config),
        "tensors": directory,
        "provenance": bundle.provenance,
    }
    write_container(path, MAGIC, manifest, parts)


def _read_tensor(blob: bytes, directory: dict, name: str, expected_shape,
                 expected_offset: int) -> np.ndarray:
    """One tensor, which must sit at ``expected_offset``: tensors are packed
    in ``tensor_schema`` order, as :func:`save_model` writes them."""
    entry = directory.get(name)
    if entry is None:
        raise ContainerError(f"tensor {name!r} missing from container")
    shape = entry.get("shape") if isinstance(entry, dict) else None
    if shape != list(expected_shape):
        raise ContainerError(
            f"tensor {name!r} has shape {shape}, expected {tuple(expected_shape)}"
        )
    count = int(np.prod(expected_shape))
    if entry.get("length") != count * 4:
        raise ContainerError(f"tensor {name!r} length does not match its shape")
    offset = manifest_count(entry, "offset", f"tensor {name!r}")
    if offset != expected_offset:
        raise ContainerError(
            f"tensor {name!r} at offset {offset}, expected {expected_offset}"
        )
    if offset + count * 4 > len(blob):
        raise ContainerError(f"tensor {name!r} overruns the data blob")
    flat = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
    return flat.astype(np.float64).reshape(expected_shape)


def load_model(path) -> ModelBundle:
    manifest, blob = read_container(path, MAGIC, "TMC")
    try:
        config = ModelConfig(**manifest["config"])
    except (KeyError, TypeError, ValidationError) as exc:
        raise ContainerError(f"{path}: bad config block ({exc})") from exc
    directory = manifest.get("tensors", {})
    if not isinstance(directory, dict):
        raise ContainerError(f"{path}: tensor directory must be an object")

    top, blocks = {}, {}
    offset = 0
    for name, layer, field, shape in tensor_schema(config):
        owner = top if layer is None else blocks.setdefault(layer, {})
        owner[field] = _read_tensor(blob, directory, name, shape, offset)
        offset += owner[field].size * 4
    bundle = ModelBundle(
        config=config,
        layers=[LayerWeights(**fields) for fields in blocks.values()],
        provenance=manifest.get("provenance", {}),
        **top,
    )
    try:
        validate_bundle(bundle)
    except ValidationError as exc:
        raise ContainerError(f"{path}: {exc}") from exc
    return bundle
