"""Multivariate Hawkes-process toolkit for blockchain event streams.

Models block arrivals and price-jump events as a mutually exciting point
process: ingestion of raw block/price data, exact likelihood evaluation,
maximum-likelihood fitting with a profile search over shared decays,
branching-structure simulation, and time-rescaling goodness-of-fit analysis.
"""

__version__ = "0.1.0"

from .core import (
    HawkesModel,
    compensator,
    compensator_quadrature,
    intensity_naive,
    intensity_recursive,
    kernel_norms,
    log_likelihood,
    spectral_radius,
)
from .events import EventSequence, merge_components, read_events_csv, write_events_csv
from .fit import (
    FitConfig,
    FitResult,
    PoissonFit,
    fit_full,
    fit_given_decays,
    fit_poisson,
    fit_result_to_dict,
    loglik_and_grad,
    model_from_dict,
    model_to_dict,
)
from .gof import (
    GofReport,
    gof_report,
    ks_exp1,
    qq_exponential,
    qq_slope,
    slope_deviation,
    time_rescale,
)
from .ingest import (
    JumpConfig,
    build_trivariate,
    clean_blocks,
    extract_jumps,
    log_returns,
)
from .kernels import ExponentialKernel, SumExpKernel
from .sim import SimConfig, simulate

__all__ = [
    "__version__",
    "EventSequence",
    "ExponentialKernel",
    "FitConfig",
    "FitResult",
    "GofReport",
    "HawkesModel",
    "JumpConfig",
    "PoissonFit",
    "SimConfig",
    "SumExpKernel",
    "build_trivariate",
    "clean_blocks",
    "compensator",
    "compensator_quadrature",
    "extract_jumps",
    "fit_full",
    "fit_given_decays",
    "fit_poisson",
    "fit_result_to_dict",
    "gof_report",
    "intensity_naive",
    "intensity_recursive",
    "kernel_norms",
    "ks_exp1",
    "log_likelihood",
    "log_returns",
    "loglik_and_grad",
    "merge_components",
    "model_from_dict",
    "model_to_dict",
    "qq_exponential",
    "qq_slope",
    "read_events_csv",
    "simulate",
    "slope_deviation",
    "spectral_radius",
    "time_rescale",
    "write_events_csv",
]
