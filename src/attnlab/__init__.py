"""attnlab: a desk-scale laboratory for KV-cache attention mechanisms.

Five mechanisms under one roof — independent per-head K/V, fully shared,
grouped, latent-compressed, and shared-plus-low-rank-residual — with
provably equivalent decode paths, exact closed-form cost models, and
gauge-invariant head-diversity analytics. Everything runs on numpy in
seconds; nothing here trains a model.
"""

from .archive import read_archive, write_archive
from .attention import forward_attention, rmsnorm, softmax_row
from .cache import (
    DecodeCache,
    DecodeStepOutput,
    append_token,
    decode_explicit,
    decode_factored,
    empty_cache,
    equivalence_report,
    prefill,
    set_alloc_hook,
)
from .config import AttentionConfig, Mechanism, RngSpec
from .costs import (
    MIB,
    CostQuery,
    ablation_table,
    cache_bytes,
    cache_ratio,
    decode_flops,
    decode_flops_breakdown,
    kv_param_count,
)
from .diversity import (
    bilinear_forms,
    center_gram,
    cosine,
    diversity_report,
    factorization_gap,
    gram,
    magnitude_report,
    spectrum,
    svd_truncate,
)
from .errors import (
    ArchiveError,
    CapacityError,
    ConfigurationError,
    DimensionError,
    LabError,
    NumericalError,
    ParameterError,
    UnsupportedMechanismError,
)
from .gradcheck import gradcheck_rows
from .jacobi import jacobi_eigh
from .presets import PRESET_NAMES, PRESETS, ScalePreset, config_for, get_preset
from .weights import (
    WeightSet,
    effective_weights,
    gqa_group,
    init_weights,
    projection_backward,
)

__all__ = [
    "AttentionConfig", "Mechanism", "RngSpec",
    "WeightSet", "init_weights", "effective_weights",
    "projection_backward", "gqa_group",
    "forward_attention", "rmsnorm", "softmax_row",
    "DecodeCache", "DecodeStepOutput", "empty_cache", "prefill",
    "append_token", "decode_explicit", "decode_factored",
    "equivalence_report", "set_alloc_hook",
    "MIB", "CostQuery", "cache_bytes", "cache_ratio",
    "kv_param_count", "decode_flops", "decode_flops_breakdown",
    "ablation_table",
    "bilinear_forms", "gram", "cosine", "center_gram", "spectrum",
    "diversity_report", "magnitude_report", "svd_truncate",
    "factorization_gap", "jacobi_eigh",
    "PRESET_NAMES", "PRESETS", "ScalePreset", "get_preset", "config_for",
    "read_archive", "write_archive",
    "gradcheck_rows",
    "LabError", "ConfigurationError", "DimensionError", "NumericalError",
    "CapacityError", "UnsupportedMechanismError",
    "ParameterError", "ArchiveError",
]

__version__ = "0.1.0"
