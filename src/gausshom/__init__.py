"""Multimode Gaussian quantum optics over a spatial x spectral mode lattice,
with exact threshold and photon-number-resolving detection, applied to
heralded Hong-Ou-Mandel interference."""

from .core import (
    CovarianceState,
    FrequencyGrid,
    ModeLayout,
    Transform,
    UnphysicalStateError,
    apply,
    vacuum_state,
)
from .detection import (
    DetectionPattern,
    p_pnr,
    p_threshold,
    p_vacuum,
    pnr_distribution,
    probability,
    vacuum_probabilities,
)
from .elements import (
    bandpass_filter,
    beam_splitter,
    delay,
    loss,
    phase_shifter,
    squeezer,
)
from .experiments import (
    CSV_COLUMNS,
    HhomConfig,
    RatioResult,
    SweepResult,
    analytic_heralded_purity,
    build_hhom,
    bunching,
    distinguishable_four_fold,
    filter_study_config,
    four_fold,
    heralding_efficiency,
    heralding_rate,
    hom_visibility,
    mzi_visibility,
    ratio_r,
    single_pair_probability,
    structured_source_config,
    sweep,
    xi_to_db,
)
from .jsa import PS, THZ, JsaMatrix, JsaSpec, SchmidtData, build_jsa, default_grid, schmidt_decompose

__all__ = [
    "CovarianceState", "FrequencyGrid", "ModeLayout", "Transform",
    "UnphysicalStateError", "apply", "vacuum_state",
    "DetectionPattern",
    "p_pnr", "p_threshold", "p_vacuum", "pnr_distribution", "probability",
    "vacuum_probabilities",
    "bandpass_filter", "beam_splitter", "delay", "loss", "phase_shifter",
    "squeezer",
    "PS", "THZ", "JsaMatrix", "JsaSpec", "SchmidtData", "build_jsa",
    "default_grid", "schmidt_decompose",
    "CSV_COLUMNS", "HhomConfig", "RatioResult", "SweepResult",
    "analytic_heralded_purity", "build_hhom", "bunching",
    "distinguishable_four_fold", "filter_study_config", "four_fold",
    "heralding_efficiency", "heralding_rate", "hom_visibility",
    "mzi_visibility", "ratio_r", "single_pair_probability",
    "structured_source_config", "sweep", "xi_to_db",
]

__version__ = "0.1.0"
