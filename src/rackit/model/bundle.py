"""Model configuration, weight bundles, and seeded generation.

The architecture is a byte-level pre-norm decoder: learned token and position
embeddings, per-block causal multi-head attention and a GELU MLP, a final
LayerNorm, and an output projection back to the 256-byte vocabulary. Byte
0x00 doubles as the stop symbol during decoding.

Six weight slots per block are eligible for compression; embeddings, norms,
and the output projection are never touched.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np

from ..errors import ValidationError

__all__ = [
    "SLOTS",
    "SLOT_INPUT",
    "ModelConfig",
    "PrunableLayerRef",
    "LayerWeights",
    "ModelBundle",
    "all_refs",
    "sort_refs",
    "parse_ref",
    "slot_shape",
    "slot_input_dim",
    "check_ref",
    "get_weight",
    "apply_compressed",
    "generate_model",
    "named_tensors",
    "tensor_schema",
    "config_as_dict",
    "model_content_hash",
]

SLOTS = ("attn_q", "attn_k", "attn_v", "attn_out", "mlp_up", "mlp_down")

# The activation each slot's weight multiplies, per block: the first layer
# norm's output, the attention context, the second layer norm's output and
# the GELU output. Slots that read one activation share its captures.
SLOT_INPUT = {"attn_q": "ln1", "attn_k": "ln1", "attn_v": "ln1",
              "attn_out": "ctx", "mlp_up": "ln2", "mlp_down": "gelu"}

BYTE_VOCAB = 256


@dataclass(frozen=True)
class ModelConfig:
    d_model: int
    n_layers: int
    n_heads: int
    d_mlp: int
    max_positions: int
    vocab_size: int = BYTE_VOCAB
    layernorm_epsilon: float = 1e-5

    def __post_init__(self):
        for name in ("d_model", "n_layers", "n_heads", "d_mlp", "max_positions"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")
        if self.vocab_size != BYTE_VOCAB:
            raise ValidationError(
                f"vocab_size is fixed at {BYTE_VOCAB} (byte-level), got {self.vocab_size}"
            )
        if self.d_model % self.n_heads != 0:
            raise ValidationError(
                f"d_model={self.d_model} must be divisible by n_heads={self.n_heads}"
            )
        eps = self.layernorm_epsilon
        if not (isinstance(eps, numbers.Real) and math.isfinite(eps) and eps > 0):
            raise ValidationError(f"layernorm_epsilon must be finite and positive, got {eps!r}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


@dataclass(frozen=True)
class PrunableLayerRef:
    """Addresses one compressible weight matrix: (block index, slot name)."""

    layer_index: int
    slot: str

    def __post_init__(self):
        if self.slot not in SLOTS:
            raise ValidationError(f"unknown slot {self.slot!r}, expected one of {SLOTS}")
        if self.layer_index < 0:
            raise ValidationError(f"layer_index must be >= 0, got {self.layer_index}")

    def __str__(self) -> str:
        return f"{self.layer_index}.{self.slot}"


def parse_ref(text: str) -> PrunableLayerRef:
    layer, _, slot = text.partition(".")
    try:
        idx = int(layer)
    except ValueError:
        raise ValidationError(f"bad ref {text!r}, expected '<layer>.<slot>'") from None
    return PrunableLayerRef(idx, slot)


def sort_refs(refs) -> tuple[PrunableLayerRef, ...]:
    return tuple(sorted(set(refs), key=lambda r: (r.layer_index, SLOTS.index(r.slot))))


def all_refs(config: ModelConfig) -> tuple[PrunableLayerRef, ...]:
    return tuple(
        PrunableLayerRef(i, slot) for i in range(config.n_layers) for slot in SLOTS
    )


@dataclass(frozen=True)
class LayerWeights:
    """One block's tensors, in canonical order. A slot's tensor is named
    after its field, any other field's with its ``_`` turned into ``.``
    (``ln1_gain`` is ``layers.<i>.ln1.gain``)."""

    ln1_gain: np.ndarray
    ln1_bias: np.ndarray
    attn_q: np.ndarray
    attn_k: np.ndarray
    attn_v: np.ndarray
    attn_out: np.ndarray
    ln2_gain: np.ndarray
    ln2_bias: np.ndarray
    mlp_up: np.ndarray
    mlp_down: np.ndarray


@dataclass(frozen=True)
class ModelBundle:
    """Immutable-by-convention weight container; arrays are float64 in memory."""

    config: ModelConfig
    token_embedding: np.ndarray
    position_embedding: np.ndarray
    layers: list[LayerWeights]
    final_norm_gain: np.ndarray
    final_norm_bias: np.ndarray
    output_projection: np.ndarray
    provenance: dict = field(default_factory=dict)


def slot_shape(config: ModelConfig, slot: str) -> tuple[int, int]:
    """(d_out, d_in) of a slot's weight matrix; rows act on input columns."""
    d, m = config.d_model, config.d_mlp
    shapes = {
        "attn_q": (d, d),
        "attn_k": (d, d),
        "attn_v": (d, d),
        "attn_out": (d, d),
        "mlp_up": (m, d),
        "mlp_down": (d, m),
    }
    if slot not in shapes:
        raise ValidationError(f"unknown slot {slot!r}")
    return shapes[slot]


def slot_input_dim(config: ModelConfig, slot: str) -> int:
    return slot_shape(config, slot)[1]


def check_ref(config: ModelConfig, ref: PrunableLayerRef) -> None:
    """Raise :class:`ValidationError` unless ``ref`` names a block of the model."""
    if ref.layer_index >= config.n_layers:
        raise ValidationError(f"ref {ref} out of range for a {config.n_layers}-layer model")


def get_weight(bundle: ModelBundle, ref: PrunableLayerRef) -> np.ndarray:
    check_ref(bundle.config, ref)
    return getattr(bundle.layers[ref.layer_index], ref.slot)


def apply_compressed(bundle: ModelBundle, ref: PrunableLayerRef, weights) -> ModelBundle:
    """Return a bundle with one slot replaced; everything else is shared."""
    check_ref(bundle.config, ref)
    arr = np.array(weights, dtype=np.float64)
    expected = slot_shape(bundle.config, ref.slot)
    if arr.shape != expected:
        raise ValidationError(
            f"weights for {ref} must have shape {expected}, got {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ValidationError(f"weights for {ref} contain non-finite entries")
    layers = list(bundle.layers)
    layers[ref.layer_index] = replace(layers[ref.layer_index], **{ref.slot: arr})
    return replace(bundle, layers=layers)


def generate_model(config: ModelConfig, seed: int) -> ModelBundle:
    """Seeded random bundle, bit-identical for the same (config, seed).

    Matrix weights are standard normal scaled by 1/sqrt(d_model) and snapped
    to float32 so container round-trips are lossless; norm gains start at one
    and biases at zero. Matrices are drawn in ``tensor_schema`` order; that
    draw order is part of the determinism contract and must not change.
    """
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(config.d_model)

    def make(name, field, shape):
        if field.endswith("_gain"):
            return np.ones(shape)
        if field.endswith("_bias"):
            return np.zeros(shape)
        w = rng.standard_normal(shape) * scale
        return w.astype(np.float32).astype(np.float64)

    return assemble_bundle(config, make, {"kind": "random", "seed": int(seed)})


def tensor_schema(config: ModelConfig):
    """The one tensor table: (name, block index or None, field, shape) per
    tensor, in the canonical order used by hashing and containers.

    ``field`` names the attribute of :class:`ModelBundle` (block index None)
    or of that block's :class:`LayerWeights`.
    """
    d, vocab = config.d_model, config.vocab_size
    yield "token_embedding", None, "token_embedding", (vocab, d)
    yield "position_embedding", None, "position_embedding", (config.max_positions, d)
    for i in range(config.n_layers):
        for f in fields(LayerWeights):
            if f.name in SLOTS:
                yield f"layers.{i}.{f.name}", i, f.name, slot_shape(config, f.name)
            else:
                yield f"layers.{i}.{f.name.replace('_', '.')}", i, f.name, (d,)
    yield "final_norm.gain", None, "final_norm_gain", (d,)
    yield "final_norm.bias", None, "final_norm_bias", (d,)
    yield "output_projection", None, "output_projection", (vocab, d)


def assemble_bundle(config: ModelConfig, make, provenance: dict) -> ModelBundle:
    """Bundle whose tensors are ``make(name, field, shape)``, called once per
    tensor in ``tensor_schema`` order; blocks are filled as the walk goes, so
    a ``make`` that raises stops at that tensor."""
    top, blocks = {}, {}
    for name, layer, field, shape in tensor_schema(config):
        owner = top if layer is None else blocks.setdefault(layer, {})
        owner[field] = make(name, field, shape)
    return ModelBundle(
        config=config,
        layers=[LayerWeights(**fields) for fields in blocks.values()],
        provenance=provenance,
        **top,
    )


def named_tensors(bundle: ModelBundle):
    """Canonical (name, array) iteration order used by hashing and containers."""
    for name, layer, field, _ in tensor_schema(bundle.config):
        yield name, getattr(bundle if layer is None else bundle.layers[layer], field)


def config_as_dict(config: ModelConfig) -> dict:
    return {
        "vocab_size": config.vocab_size,
        "d_model": config.d_model,
        "n_layers": config.n_layers,
        "n_heads": config.n_heads,
        "d_mlp": config.d_mlp,
        "max_positions": config.max_positions,
        "layernorm_epsilon": config.layernorm_epsilon,
    }


def model_content_hash(bundle: ModelBundle) -> str:
    """SHA-256 over the config and float32 tensor bytes; ignores provenance."""
    h = hashlib.sha256()
    h.update(json.dumps(config_as_dict(bundle.config), separators=(",", ":")).encode())
    for name, arr in named_tensors(bundle):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr, dtype="<f4"))
    return h.hexdigest()

