"""adasketch: randomized recovery of high-dimensional vectors from few
adaptively or non-adaptively chosen linear measurements, with exact
information-cost accounting and a Monte Carlo benchmark harness."""

from .adaptive import (
    AdaptivePlan,
    approximate,
    level_sensitivity,
    levels_for_accuracy,
    levels_for_budget,
    plan_cost_cap,
    repetitions,
)
from .discover import (
    BASIC,
    PRECONDITIONED,
    DiscoverConfig,
    bucket_count,
    discover,
    discover_cost_cap,
)
from .errors import CapViolationError, DimensionError, ParameterError
from .families import VectorFamily, gen_vector
from .harness import (
    ErrorEstimate,
    ExperimentConfig,
    compare_methods,
    cost_audit,
    estimate_error,
    make_method,
    param_table,
    write_csv,
)
from .hashing import equi_hash, pairwise_hash
from .nonadaptive import (
    countsketch,
    countsketch_params,
    denoised_countsketch,
    denoised_linsketch,
    linsketch,
)
from .oracle import MeasurementOracle, lp_norm
from .precondition import precond, precond_measurements
from .rng import RngStream
from .spotting import (
    SpotParams,
    shrink,
    shrink_depth,
    shrink_schedule,
    spot,
    spot_heavy_hitter_constant,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptivePlan", "BASIC", "CapViolationError", "DimensionError",
    "DiscoverConfig", "ErrorEstimate", "ExperimentConfig",
    "MeasurementOracle", "PRECONDITIONED", "ParameterError", "RngStream",
    "SpotParams", "VectorFamily", "approximate", "bucket_count",
    "compare_methods", "cost_audit", "countsketch", "countsketch_params",
    "denoised_countsketch", "denoised_linsketch", "discover",
    "discover_cost_cap", "equi_hash", "estimate_error", "gen_vector",
    "level_sensitivity", "levels_for_accuracy",
    "levels_for_budget", "linsketch", "lp_norm",
    "make_method", "pairwise_hash", "param_table", "plan_cost_cap", "precond",
    "precond_measurements", "repetitions",
    "shrink", "shrink_depth", "shrink_schedule", "spot",
    "spot_heavy_hitter_constant", "write_csv",
]
