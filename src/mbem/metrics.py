"""Metrics for the experiment protocols: data-set log-likelihood, MAP cluster
labels, adjusted Rand index, and permutation-aligned squared parameter error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InvalidInputError
from .families import MixtureParams, _log_sum_exp, _log_weighted_rows, _normalise


@dataclass(frozen=True)
class MetricReport:
    """Metric bundle for one run."""

    loglik: float
    se: float
    ari: float
    runtime_seconds: float

    def __post_init__(self):
        if not math.isnan(self.ari) and self.ari > 1.0 + 1e-12:
            raise InvalidInputError(f"adjusted Rand index cannot exceed 1, got {self.ari}")
        if self.runtime_seconds < 0.0:
            raise InvalidInputError("runtime cannot be negative")


def dataset_loglik(data: np.ndarray, theta: MixtureParams) -> float:
    """Total log-likelihood sum_i log f(y_i; theta).

    Summed with exact compensated accumulation (``math.fsum``), so the result
    is independent of data ordering and duplicating every observation doubles
    the value exactly.
    """
    data = np.asarray(data, dtype=float)
    if data.shape[0] < 1:
        raise InvalidInputError("need at least one observation")
    return _loglik(_log_weighted_rows(data, theta))


def map_labels(data: np.ndarray, theta: MixtureParams) -> np.ndarray:
    """Maximum a posteriori component label per observation (0-based).

    Ties break toward the lowest component index.
    """
    return _map_labels(_log_weighted_rows(data, theta))


# Both read the ((g, n) log-weighted matrix, column maximum) pair of
# ``families._log_weighted_rows``, so one density pass can serve both.

def _loglik(rows: tuple) -> float:
    """:func:`dataset_loglik` from a log-weighted density pass."""
    return math.fsum(_log_sum_exp(*rows).tolist())


def _map_labels(rows: tuple) -> np.ndarray:
    """:func:`map_labels` from a log-weighted density pass."""
    return np.argmax(_normalise(*rows), axis=0)


def adjusted_rand_index(a: np.ndarray, b: np.ndarray) -> float:
    """Chance-corrected partition agreement between two label vectors.

    Computed from the pair-count contingency table with exact integer
    arithmetic, so relabeling either argument never changes the value.  When
    both partitions are a single cluster the index is 1 by convention.
    """
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape != b.shape:
        raise InvalidInputError(f"label vectors differ in length: {a.shape[0]} vs {b.shape[0]}")
    n = a.shape[0]
    if n < 2:
        raise InvalidInputError("need at least two observations")
    _, a_codes = np.unique(a, return_inverse=True)
    _, b_codes = np.unique(b, return_inverse=True)
    ka, kb = int(a_codes.max()) + 1, int(b_codes.max()) + 1
    table = np.zeros((ka, kb), dtype=np.int64)
    np.add.at(table, (a_codes, b_codes), 1)

    def choose2(x: int) -> int:
        return x * (x - 1) // 2

    # Python ints: the marginal products overflow int64 near n = 1e5.
    pair_index = sum(choose2(int(v)) for v in table.ravel())
    row_pairs = sum(choose2(int(v)) for v in table.sum(axis=1))
    col_pairs = sum(choose2(int(v)) for v in table.sum(axis=0))
    total_pairs = choose2(n)
    expected = row_pairs * col_pairs / total_pairs
    maximum = (row_pairs + col_pairs) / 2.0
    if maximum == expected:
        return 1.0
    return (pair_index - expected) / (maximum - expected)


def _component_blocks(theta: MixtureParams) -> np.ndarray:
    """(g, k) matrix of flattened per-component parameters, weight first."""
    if theta.family_tag == "gaussian":
        rows = [
            np.concatenate(([theta.weights[z]], c.mean, c.cov.ravel()))
            for z, c in enumerate(theta.components)
        ]
    else:
        rows = [np.array([theta.weights[z], c.rate]) for z, c in enumerate(theta.components)]
    return np.stack(rows)


def squared_error(theta_hat: MixtureParams, theta_true: MixtureParams) -> float:
    """Permutation-aligned squared distance between two parameter vectors.

    Flattens weights, means, and full covariance entries (or rates) per
    component and minimizes the squared Euclidean distance over component
    relabelings by optimal assignment.
    """
    if theta_hat.g != theta_true.g or theta_hat.dim != theta_true.dim:
        raise InvalidInputError("parameter vectors differ in shape")
    if theta_hat.family_tag != theta_true.family_tag:
        raise InvalidInputError("parameter vectors belong to different families")
    blocks_hat = _component_blocks(theta_hat)
    blocks_true = _component_blocks(theta_true)
    # cost[z, w] = squared distance between estimated component z and true w.
    # The total is an exact compensated sum, so relabeling either argument
    # can never change it by a rounding ulp.
    cost = ((blocks_hat[:, None, :] - blocks_true[None, :, :]) ** 2).sum(axis=2)
    rows, cols = linear_sum_assignment(cost)
    return math.fsum(cost[rows, cols].tolist())
