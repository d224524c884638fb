"""Reasoning-aware compression toolkit for byte-level decoder transformers.

Layerwise one-shot pruning and quantization where the calibration second
moments can come from prompt tokens alone, from a raw byte corpus, or from
the model's own greedy/sampled rollouts, plus decode-phase reconstruction
diagnostics for comparing the resulting models.
"""

from .errors import (
    CholeskyError,
    ContainerError,
    NumericalError,
    RackitError,
    ValidationError,
)
from .numkernel import (
    accumulate_gram,
    cholesky,
    dampen,
    inverse_via_cholesky,
)
from .model import (
    GREEDY,
    ModelBundle,
    ModelConfig,
    PrunableLayerRef,
    Sampler,
    SLOTS,
    all_refs,
    apply_compressed,
    decode,
    forward_teacher_forced,
    generate_model,
    get_weight,
    last_layer_states,
    load_model,
    model_content_hash,
    save_model,
    sort_refs,
)
from .calibration import (
    CalibrationConfig,
    CalibrationSet,
    LayerStats,
    collect,
    load_prompt_file,
    merged_gram,
)
from .compress import (
    CompressionReport,
    SparsityPattern,
    compress_model,
    prune_magnitude,
    prune_obs,
    prune_wanda,
    quantize_obs,
    refit_fixed_mask,
    row_keep_target,
    trace_form_loss,
)
from .diagnostics import (
    DiagnosticTrace,
    EvalResult,
    error_trace,
    eval_nll,
    ratio_map,
    summarize_phase_errors,
)

__version__ = "0.1.0"

__all__ = [
    "CholeskyError",
    "ContainerError",
    "NumericalError",
    "RackitError",
    "ValidationError",
    "accumulate_gram",
    "cholesky",
    "dampen",
    "inverse_via_cholesky",
    "GREEDY",
    "ModelBundle",
    "ModelConfig",
    "PrunableLayerRef",
    "Sampler",
    "SLOTS",
    "all_refs",
    "apply_compressed",
    "decode",
    "forward_teacher_forced",
    "generate_model",
    "get_weight",
    "last_layer_states",
    "load_model",
    "model_content_hash",
    "save_model",
    "sort_refs",
    "CalibrationConfig",
    "CalibrationSet",
    "LayerStats",
    "collect",
    "load_prompt_file",
    "merged_gram",
    "CompressionReport",
    "SparsityPattern",
    "compress_model",
    "prune_magnitude",
    "prune_obs",
    "prune_wanda",
    "quantize_obs",
    "refit_fixed_mask",
    "row_keep_target",
    "trace_form_loss",
    "DiagnosticTrace",
    "EvalResult",
    "error_trace",
    "eval_nll",
    "ratio_map",
    "summarize_phase_errors",
    "__version__",
]
