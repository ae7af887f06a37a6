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
    reset_stat,
    run,
)
from .families import (
    Exponential,
    Gaussian,
    MixtureParams,
    Poisson,
    SuffStats,
    mean_sbar,
    sample,
    theta_bar,
)
from .metrics import (
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
    "MixtureParams",
    "Poisson",
    "RunConfig",
    "RunRecord",
    "SuffStats",
    "TruncationRegion",
    "adjusted_rand_index",
    "batch_em_step",
    "dataset_loglik",
    "map_labels",
    "mean_sbar",
    "minibatch_step",
    "polyak_update",
    "reset_stat",
    "run",
    "sample",
    "squared_error",
    "theta_bar",
]
