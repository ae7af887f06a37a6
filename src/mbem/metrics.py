"""Metrics for the experiment protocols: data-set log-likelihood, MAP cluster
labels, adjusted Rand index, and permutation-aligned squared parameter error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .families import MixtureParams, _density_pass


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

    The sum is exact and correctly rounded, equal bit for bit to
    ``math.fsum`` over the per-observation terms (:func:`_exact_sum`), so the
    result is independent of data ordering and duplicating every observation
    doubles the value exactly.
    """
    data = np.asarray(data, dtype=float)
    if data.shape[0] < 1:
        raise InvalidInputError("need at least one observation")
    return _exact_sum(_density_pass(data, theta)[0])


def map_labels(data: np.ndarray, theta: MixtureParams) -> np.ndarray:
    """Maximum a posteriori component label per observation (0-based).

    The label is the first component whose log pi_z + log f(y; omega_z) is
    the column maximum, so ties break toward the lowest component index.
    Raises :class:`DegeneratePointError` if some observation has zero density
    under every component.
    """
    return _density_pass(data, theta, labels=True)[1]


#: Extraction passes of :func:`_exact_sum` before ``math.fsum`` takes the rest.
_EXTRACTIONS = 2


def _exact_sum(x: np.ndarray) -> float:
    """Correctly rounded sum of a float64 vector: ``math.fsum(x.tolist())``,
    bit for bit, without the Python list.

    Error-free extraction (Rump, Ogita & Oishi 2008, SIAM J. Sci. Comput.
    31(1)): with n < 2^M and every |x_i| < 2^e, sigma = 2^(e+M) splits each
    x_i into q_i = (sigma + x_i) - sigma, a multiple of 2^(e+M-53), and the
    exact remainder x_i - q_i, below 2^(e+M-53) in magnitude.  The q_i sum
    to at most sigma, so their floating-point sum is exact in any order.
    Each pass repeats this on the remainders; ``math.fsum`` then rounds the
    exact pass sums together with the remainders that are still nonzero.
    Non-finite input, all-zero input and a sigma that would overflow go to
    ``math.fsum`` whole, so inf, NaN, signed zeros and ``OverflowError``
    behave exactly as there.
    """
    hi, lo = float(x.max(initial=0.0)), float(x.min(initial=0.0))
    top = max(hi, -lo)
    if not (math.isfinite(hi) and math.isfinite(lo)) or top == 0.0:
        return math.fsum(x.tolist())
    bits = x.size.bit_length()
    exponent = math.frexp(top)[1] + bits
    if exponent > 1022:
        return math.fsum(x.tolist())
    parts, rest, q = [], x, None
    # Below 2^-1000 a pass would leave the normal range; fsum takes the rest.
    for _ in range(_EXTRACTIONS):
        if exponent < -1000:
            break
        sigma = math.ldexp(1.0, exponent)
        q = np.add(rest, sigma, out=q)
        q -= sigma
        parts.append(float(q.sum()))
        rest = np.subtract(rest, q, out=None if rest is x else rest)
        exponent -= 53 - bits
    return math.fsum(parts + rest[rest != 0.0].tolist())


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
    cells, a_sizes, b_sizes = _contingency(a, b)

    # The int64 counts are at most n, so each choose2 and each of the three
    # pair sums stays below n^2 / 2, within int64 up to n = 3e9; the marginal
    # product below does not, so it is taken in Python ints (int64 overflows
    # near n = 1e5).
    def pairs(counts: np.ndarray) -> int:
        return int((counts * (counts - 1) // 2).sum())

    pair_index = pairs(cells)
    row_pairs = pairs(a_sizes)
    col_pairs = pairs(b_sizes)
    total_pairs = n * (n - 1) // 2
    expected = row_pairs * col_pairs / total_pairs
    maximum = (row_pairs + col_pairs) / 2.0
    if maximum == expected:
        return 1.0
    return (pair_index - expected) / (maximum - expected)


def _contingency(a: np.ndarray, b: np.ndarray) -> tuple:
    """Contingency counts of two equal-length label vectors: ``(cells,
    a_sizes, b_sizes)``, the counts of the table's cells, rows and columns.

    Non-negative integer labels whose table has at most n cells are counted
    by one ``np.bincount`` of the labels themselves; unused labels add empty
    rows and columns, which add 0 to every pair sum.  Other labels (negative,
    bool, float, or a table larger than n) are first coded by ``np.unique``,
    and only the occupied cells are counted, so memory stays linear in n
    whatever the number of distinct labels.
    """
    n = a.shape[0]
    if a.dtype.kind in "iu" and b.dtype.kind in "iu" and a.min() >= 0 and b.min() >= 0:
        ka, kb = int(a.max()) + 1, int(b.max()) + 1
        if ka * kb <= n:
            codes = a.astype(np.intp) * kb + b.astype(np.intp)
            table = np.bincount(codes, minlength=ka * kb).reshape(ka, kb)
            return table.ravel(), table.sum(axis=1), table.sum(axis=0)
    _, a_codes = np.unique(a, return_inverse=True)
    _, b_codes = np.unique(b, return_inverse=True)
    # Both codes are below n, so the cell code stays below n^2.
    cell_codes = a_codes.astype(np.int64) * (int(b_codes.max()) + 1) + b_codes
    _, cells = np.unique(cell_codes, return_counts=True)
    return cells, np.bincount(a_codes), np.bincount(b_codes)


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
    cost = ((blocks_hat[:, None, :] - blocks_true[None, :, :]) ** 2).sum(axis=2).tolist()
    cols = _min_cost_assignment(cost)
    return math.fsum(row[w] for row, w in zip(cost, cols))


def _min_cost_assignment(cost: list) -> list:
    """Column of each row in a minimum-total assignment of the square cost
    matrix ``cost`` (a list of g rows of floats).

    The Kuhn–Munkres method in its shortest-augmenting-path form, with row
    and column potentials ``u`` and ``v``: each row joins by the shortest
    augmenting path in reduced costs ``cost - u - v``, found in O(g^2), so a
    solve is O(g^3).  It is exact as ``scipy.optimize.linear_sum_assignment``
    is: where two assignments tie in exact arithmetic, either may be picked,
    and their float totals can differ by one rounding.  Index 0 of ``u``,
    ``v``, ``owner`` and ``way`` is the root of the path; ``owner[w]`` is the
    1-based row holding column ``w``, 0 while it is free.  A non-finite cost
    still ends the search: the first free column is taken when none is nearer.
    """
    g = len(cost)
    u, v = [0.0] * (g + 1), [0.0] * (g + 1)
    owner, way = [0] * (g + 1), [0] * (g + 1)
    for i in range(1, g + 1):
        owner[0], w0 = i, 0
        dist, used = [math.inf] * (g + 1), [False] * (g + 1)
        while owner[w0]:
            used[w0] = True
            z = owner[w0]
            row, uz = cost[z - 1], u[z]
            delta, w1 = math.inf, 0
            for w in range(1, g + 1):
                if not used[w]:
                    reduced = row[w - 1] - uz - v[w]
                    if reduced < dist[w]:
                        dist[w], way[w] = reduced, w0
                    if w1 == 0 or dist[w] < delta:
                        delta, w1 = dist[w], w
            for w in range(g + 1):
                if used[w]:
                    u[owner[w]] += delta
                    v[w] -= delta
                else:
                    dist[w] -= delta
            w0 = w1
        while w0:
            owner[w0] = owner[way[w0]]
            w0 = way[w0]
    cols = [0] * g
    for w in range(1, g + 1):
        cols[owner[w] - 1] = w - 1
    return cols
