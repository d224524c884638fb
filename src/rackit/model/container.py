"""TMC v1 weight container.

Layout: magic ``TMC1``, an unsigned 64-bit little-endian manifest length, the
UTF-8 JSON manifest, then one blob of little-endian float32 tensor data. The
manifest records the model config, a tensor directory mapping each name to
{shape, offset, length} (offsets relative to the blob start, tensors
concatenated in ``tensor_schema`` order), and free-form provenance. Tensors
are row-major. Saving is atomic (temp file + rename) and re-saving a loaded
bundle reproduces the input bytes exactly.

Neither direction builds the whole payload in memory. The writer streams the
header, the manifest and then each array, through the buffer protocol, into
the temp file; ``save_model`` converts each tensor to float32 only as it is
written. The reader reads the blob with one ``readinto`` into a fresh
buffer of its own, so the blob starts at offset 0 of its allocation and every
array, at a multiple of its itemsize, is aligned.

The calibration container (``RACC``) shares this framing, stated once in
``write_container`` and ``read_container`` (each format's magic is in
``_MAGIC``), and the packing rule of the blob, which ``pack_arrays`` and
``unpack_array`` implement: arrays back to back in table order, so a stored
offset off that layout is an error.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from ..errors import ContainerError, ValidationError
from .bundle import (
    ModelBundle,
    ModelConfig,
    assemble_bundle,
    check_count,
    config_as_dict,
    named_tensors,
)

__all__ = [
    "save_model",
    "load_model",
    "write_container",
    "read_container",
    "manifest_count",
    "pack_arrays",
    "unpack_array",
]

# Format name -> the magic bytes that open its files.
_MAGIC = {"TMC": b"TMC1", "RACC": b"RACC"}
_HEADER = struct.Struct("<Q")


def write_container(path, fmt: str, fields: dict, parts) -> None:
    """Atomically write ``magic + u64 LE manifest length + JSON + blob``; the
    manifest is ``format``, ``version`` 1, then ``fields`` in their order.

    ``parts`` are the blob's arrays (or any C-contiguous buffers), written in
    order; an iterator is consumed one part at a time. On any error, a part's
    included, the temp file is removed and ``path`` is untouched.
    """
    manifest = {"format": fmt, "version": 1, **fields}
    mbytes = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(_MAGIC[fmt] + _HEADER.pack(len(mbytes)) + mbytes)
            f.writelines(parts)  # drops each part before it takes the next
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_container(path, fmt: str) -> tuple[dict, memoryview]:
    """Parse the framing written by :func:`write_container`.

    Returns (manifest, blob). The manifest must be a JSON object naming
    ``fmt`` at version 1, with an object (or no) ``provenance``. The blob is
    a writable view of a buffer that holds it alone.
    """
    magic = _MAGIC[fmt]
    start = len(magic) + _HEADER.size
    with open(path, "rb") as f:
        head = f.read(start)
        if len(head) < start or head[: len(magic)] != magic:
            raise ContainerError(f"{path}: not a {fmt} container")
        (mlen,) = _HEADER.unpack_from(head, len(magic))
        size = os.fstat(f.fileno()).st_size - start - mlen
        if size < 0:
            raise ContainerError(f"{path}: truncated manifest")
        try:
            manifest = json.loads(f.read(mlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ContainerError(f"{path}: bad manifest ({exc})") from exc
        if not isinstance(manifest, dict) or manifest.get("format") != fmt \
                or manifest.get("version") != 1:
            raise ContainerError(f"{path}: unsupported {fmt} container version")
        if not isinstance(manifest.get("provenance", {}), dict):
            raise ContainerError(f"{path}: provenance must be an object")
        blob = np.empty(size, np.uint8)
        got = f.readinto(blob)
    if got != size:
        raise ContainerError(f"{path}: data blob is {got} bytes, expected {size}")
    return manifest, memoryview(blob)


def manifest_count(entry, key: str, what: str) -> int:
    """``entry[key]`` as a non-negative int; anything else is a ContainerError."""
    value = entry.get(key) if isinstance(entry, dict) else None
    try:
        return check_count(f"{what}: {key!r}", value, 0)
    except ValidationError as exc:
        raise ContainerError(str(exc)) from None


def pack_arrays(arrays, dtype: str) -> tuple[Iterator[np.ndarray], list[int], list[int]]:
    """The packing rule of both containers: arrays sit back to back in the
    order given, as raw ``dtype`` bytes.

    Returns (parts, offsets, lengths). The layout, each array's offset in the
    blob and byte length, comes from its size and the dtype's itemsize, with
    nothing converted. ``parts`` is a generator of the arrays as C-contiguous
    ``dtype`` arrays, each converted only when it is reached (an array that
    already is one comes back itself), so a writer that consumes it holds one
    converted array at a time.
    """
    arrays = list(arrays)
    itemsize = np.dtype(dtype).itemsize
    lengths = [np.size(arr) * itemsize for arr in arrays]
    offsets = list(itertools.accumulate(lengths, initial=0))[:-1]
    parts = (np.ascontiguousarray(arr, dtype=dtype) for arr in arrays)
    return parts, offsets, lengths


def unpack_array(blob, entry, key: str, expected_offset: int, shape, dtype: str,
                 what: str) -> tuple[np.ndarray, int]:
    """The array that ``entry[key]`` locates in ``blob``, a view of it, and
    the offset where the next array must start.

    Under :func:`pack_arrays` the array sits at ``expected_offset``, the end
    of the one before it; ``entry["length"]`` must be its byte size and it
    must fit in the blob. ``what`` names the array and starts with the file
    path, as every error raised here does.
    """
    offset = manifest_count(entry, key, what)
    if offset != expected_offset:
        raise ContainerError(f"{what}: {key!r} is {offset}, expected {expected_offset}")
    count = math.prod(shape)
    size = count * np.dtype(dtype).itemsize
    if entry.get("length") != size:
        raise ContainerError(f"{what}: length does not match shape {tuple(shape)}")
    if offset + size > len(blob):
        raise ContainerError(f"{what} overruns the data blob")
    array = np.frombuffer(blob, dtype=dtype, count=count, offset=offset).reshape(shape)
    return array, offset + size


def save_model(bundle: ModelBundle, path) -> None:
    names, arrays = zip(*named_tensors(bundle))
    parts, offsets, lengths = pack_arrays(arrays, "<f4")
    directory = {
        name: {"shape": list(arr.shape), "offset": offset, "length": length}
        for name, arr, offset, length in zip(names, arrays, offsets, lengths)
    }
    write_container(path, "TMC", {
        "config": config_as_dict(bundle.config),
        "tensors": directory,
        "provenance": bundle.provenance,
    }, parts)


def load_model(path) -> ModelBundle:
    manifest, blob = read_container(path, "TMC")
    try:
        config = ModelConfig(**manifest["config"])
    except (KeyError, TypeError, ValidationError) as exc:
        raise ContainerError(f"{path}: bad config block ({exc})") from exc
    directory = manifest.get("tensors", {})
    if not isinstance(directory, dict):
        raise ContainerError(f"{path}: tensor directory must be an object")
    end = 0

    def read(name, field, shape):
        nonlocal end
        what = f"{path}: tensor {name!r}"
        entry = directory.get(name)
        if entry is None:
            raise ContainerError(f"{what} missing from container")
        stored = entry.get("shape") if isinstance(entry, dict) else None
        if stored != list(shape):
            raise ContainerError(f"{what} has shape {stored}, expected {shape}")
        array, end = unpack_array(blob, entry, "offset", end, shape, "<f4", what)
        if not np.isfinite(array).all():
            raise ContainerError(f"{path}: tensor {name} contains non-finite entries")
        return array.astype(np.float64)

    return assemble_bundle(config, read, manifest.get("provenance", {}))
