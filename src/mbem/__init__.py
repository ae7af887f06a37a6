"""Mixture-model estimation via batch, online, mini-batch, and truncated
mini-batch EM for exponential-family components, with an experiment harness.
"""

__version__ = "0.1.0"

from .engine import (
    DEFAULT_LEARNING_RATE,
    EmState,
    LearningRate,
    RunConfig,
    RunRecord,
    TruncationRegion,
    batch_em_step,
    minibatch_step,
    polyak_update,
    region_contains,
    reset_stat,
    run,
)
from .families import (
    Exponential,
    Gaussian,
    MixtureParams,
    Poisson,
    SuffStats,
    log_density,
    mean_sbar,
    sample,
    theta_bar,
)
from .metrics import (
    MetricReport,
    adjusted_rand_index,
    dataset_loglik,
    map_labels,
    squared_error,
)

__all__ = [
    "DEFAULT_LEARNING_RATE",
    "EmState",
    "Exponential",
    "Gaussian",
    "LearningRate",
    "MetricReport",
    "MixtureParams",
    "Poisson",
    "RunConfig",
    "RunRecord",
    "SuffStats",
    "TruncationRegion",
    "adjusted_rand_index",
    "batch_em_step",
    "dataset_loglik",
    "log_density",
    "map_labels",
    "mean_sbar",
    "minibatch_step",
    "polyak_update",
    "region_contains",
    "reset_stat",
    "run",
    "sample",
    "squared_error",
    "theta_bar",
]
