import math
import tracemalloc
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbem.errors import DegeneratePointError, InvalidInputError
from mbem.families import (
    Exponential,
    Gaussian,
    MixtureParams,
    Poisson,
    log_densities,
    responsibilities_batch,
    sample,
)
from mbem.metrics import (
    _contingency,
    _exact_sum,
    _min_cost_assignment,
    adjusted_rand_index,
    dataset_loglik,
    map_labels,
    squared_error,
)

from conftest import log_density, make_gaussian_mixture

STD_NORMAL_1D = MixtureParams([1.0], (Gaussian([0.0], [[1.0]]),))


# ---------------------------------------------------------------------------
# dataset_loglik
# ---------------------------------------------------------------------------

def test_loglik_single_point_equals_log_density(rng):
    theta = make_gaussian_mixture(rng, 2, 2)
    y = rng.normal(0, 1, (1, 2))
    assert dataset_loglik(y, theta) == log_density(y[0], theta)


def test_loglik_duplicated_data_doubles_exactly(rng):
    theta = make_gaussian_mixture(rng, 1, 2)
    data, _ = sample(theta, 101, rng)
    assert dataset_loglik(np.vstack([data, data]), theta) == 2.0 * dataset_loglik(data, theta)


def test_loglik_two_points_at_standard_normal_mode():
    assert dataset_loglik(np.zeros((2, 1)), STD_NORMAL_1D) == pytest.approx(
        -math.log(2 * math.pi), abs=1e-15
    )


def test_loglik_split_additivity(rng):
    # compensated summation leaves at most the final rounding between the
    # whole-set value and the sum of the split values
    theta = make_gaussian_mixture(rng, 1, 2)
    for _ in range(30):
        data, _ = sample(theta, int(rng.integers(5, 200)), rng)
        k = int(rng.integers(1, len(data)))
        whole = dataset_loglik(data, theta)
        parts = dataset_loglik(data[:k], theta) + dataset_loglik(data[k:], theta)
        assert abs(whole - parts) <= np.spacing(abs(whole))


def test_loglik_order_invariance(rng):
    theta = make_gaussian_mixture(rng, 1, 3)
    data, _ = sample(theta, 200, rng)
    shuffled = data[rng.permutation(len(data))]
    assert dataset_loglik(data, theta) == dataset_loglik(shuffled, theta)


def test_loglik_of_a_scalar_is_its_log_density(rng):
    # a scalar is one observation of a d = 1 mixture, as in log_densities
    theta = make_gaussian_mixture(rng, 1, 2)
    assert dataset_loglik(0.3, theta) == log_densities(0.3, theta)[0]


def test_loglik_requires_data():
    with pytest.raises(InvalidInputError, match="need at least one observation"):
        dataset_loglik(np.zeros((0, 1)), STD_NORMAL_1D)


def _outcome(total, values):
    """What a summation function does with ``values``: its value (repr keeps
    the sign of zero and NaN) or its exception type and message."""
    try:
        return repr(total(values))
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def _assert_sums_like_fsum(values):
    x = np.array(values, dtype=float)
    assert _outcome(_exact_sum, x) == _outcome(math.fsum, values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
def test_exact_sum_equals_fsum_on_finite_floats(values):
    # every finite double: ±0.0, subnormals, mixed signs, up to 1.8e308, and
    # sums that overflow, where both raise the same OverflowError
    _assert_sums_like_fsum(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=20))
def test_exact_sum_equals_fsum_with_inf_and_nan(values):
    _assert_sums_like_fsum(values)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    extra=st.integers(1, 5000),
    span=st.tuples(st.integers(-1074, 1023), st.integers(-1074, 1023)).map(sorted),
)
def test_exact_sum_equals_fsum_above_2_17_rows(seed, extra, span):
    # more rows than 2^17, so each extraction keeps fewer than 36 bits, with
    # signs and binary exponents drawn across the span
    rng = np.random.default_rng(seed)
    n = 2**17 + extra
    x = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(span[0], span[1] + 1, n))
    _assert_sums_like_fsum(x.tolist())


@pytest.mark.parametrize("values", [
    [], [0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 1.0, -1.0], [5e-324, -5e-324],
    [1e308, 1e308], [1e308, 1e308, -1e308], [-1.7e308, -1.7e308],
    [math.inf, 1.0], [math.inf, -math.inf], [math.nan, 1.0], [1e308, math.inf],
    [1.0, 1e100, 1.0, -1e100], [2.0**-1022, 2.0**-1074, -(2.0**-1023)],
])
def test_exact_sum_equals_fsum_on_edge_cases(values):
    _assert_sums_like_fsum(values)


# ---------------------------------------------------------------------------
# map_labels
# ---------------------------------------------------------------------------

def test_map_labels_single_component(rng):
    data = rng.normal(0, 1, (25, 1))
    assert np.array_equal(map_labels(data, STD_NORMAL_1D), np.zeros(25, dtype=int))


def test_map_labels_tie_breaks_to_lowest_index():
    theta = MixtureParams([0.5, 0.5], (Gaussian([-1.0], [[1.0]]), Gaussian([1.0], [[1.0]])))
    assert map_labels(np.array([[0.0]]), theta)[0] == 0


def test_map_labels_ties_break_to_lowest_index_among_tied():
    # components 1 and 2 are identical and tie for the maximum; 0 is far off
    theta = MixtureParams(
        [0.2, 0.4, 0.4],
        (Gaussian([-5.0], [[1.0]]), Gaussian([5.0], [[1.0]]), Gaussian([5.0], [[1.0]])),
    )
    assert map_labels(np.array([[4.0], [6.0], [-5.0]]), theta).tolist() == [1, 1, 0]
    same = MixtureParams([0.25] * 4, (Gaussian([0.0], [[1.0]]),) * 4)
    assert np.array_equal(map_labels(np.linspace(-3, 3, 7)[:, None], same), np.zeros(7, dtype=int))


@pytest.mark.parametrize("d, g", [(1, 1), (1, 2), (2, 3), (4, 3), (3, 10)])
def test_map_labels_equal_argmax_of_responsibilities(d, g):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        theta = make_gaussian_mixture(rng, d, g, weight_floor=0.05)
        data, _ = sample(theta, 3000, rng)
        fitted = map_labels(data, theta)
        assert fitted.dtype == np.intp
        assert np.array_equal(fitted, np.argmax(responsibilities_batch(data, theta), axis=1))


def test_map_labels_rate_family_and_zero_density_row():
    theta = MixtureParams([0.5, 0.5], (Exponential(0.5), Exponential(4.0)))
    data = np.array([[0.01], [0.2], [3.0], [9.0]])
    assert np.array_equal(map_labels(data, theta), np.argmax(responsibilities_batch(data, theta), axis=1))
    with pytest.raises(DegeneratePointError):
        map_labels(np.array([[1.0], [-1.0]]), theta)


def test_map_labels_recovers_well_separated_sample(rng):
    theta = MixtureParams(
        [0.5, 0.5], (Gaussian([0.0], [[1.0]]), Gaussian([20.0], [[1.0]]))
    )  # separation 20 sigma
    data, labels = sample(theta, 2000, rng)
    fitted = map_labels(data, theta)
    assert adjusted_rand_index(fitted, labels) == 1.0


def test_evaluation_holds_no_component_by_row_matrix():
    # d = 4, g = 10: the (g, n) log-weighted matrix alone is 2.5 times the
    # data; the blocked pass holds the (n,) results and (g, b) blocks
    d, g, n = 4, 10, 200_000
    rng = np.random.default_rng(15)
    theta = MixtureParams(np.full(g, 1.0 / g), tuple(Gaussian(rng.normal(0, 3, d), np.eye(d)) for _ in range(g)))
    data, _ = sample(theta, n, rng)
    bound = 1.25 * data.nbytes  # half the (g, n) matrix, fixed before measuring
    for evaluate in (dataset_loglik, map_labels):
        tracemalloc.start()
        try:
            evaluate(data, theta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, evaluate.__name__


# ---------------------------------------------------------------------------
# adjusted_rand_index
# ---------------------------------------------------------------------------

def _ari_pair_oracle(a, b):
    """Direct pair-enumeration Hubert-Arabie index."""
    n = len(a)
    n11 = n10 = n01 = 0
    for i, j in combinations(range(n), 2):
        sa, sb = a[i] == a[j], b[i] == b[j]
        n11 += sa and sb
        n10 += sa and not sb
        n01 += sb and not sa
    pairs = n * (n - 1) // 2
    expected = (n11 + n10) * (n11 + n01) / pairs
    maximum = (2 * n11 + n10 + n01) / 2.0
    if maximum == expected:
        return 1.0
    return (n11 - expected) / (maximum - expected)


def test_ari_identical_partitions():
    a = np.array([0, 0, 1, 1, 2, 2])
    assert adjusted_rand_index(a, a) == 1.0


def test_ari_single_cluster_against_nonconstant():
    a = np.array([0, 0, 1, 1])
    b = np.zeros(4, dtype=int)
    assert adjusted_rand_index(a, b) == 0.0


def test_ari_frozen_cross_example():
    # enumeration over all six pairs of [1,1,2,2] vs [1,2,1,2] gives -1/2
    assert adjusted_rand_index([1, 1, 2, 2], [1, 2, 1, 2]) == pytest.approx(-0.5, abs=1e-15)


def test_ari_matches_pair_enumeration_oracle(rng):
    for _ in range(100):
        n = int(rng.integers(2, 13))
        a = rng.integers(0, 4, n)
        b = rng.integers(0, 4, n)
        assert adjusted_rand_index(a, b) == pytest.approx(_ari_pair_oracle(a, b), abs=1e-12)


def test_ari_symmetry(rng):
    for _ in range(30):
        n = int(rng.integers(2, 40))
        a, b = rng.integers(0, 5, n), rng.integers(0, 5, n)
        assert adjusted_rand_index(a, b) == adjusted_rand_index(b, a)


def test_ari_relabel_invariance_exact(rng):
    for _ in range(30):
        n = int(rng.integers(4, 40))
        a, b = rng.integers(0, 4, n), rng.integers(0, 4, n)
        perm = rng.permutation(4)
        assert adjusted_rand_index(perm[a], b) == adjusted_rand_index(a, b)
        assert adjusted_rand_index(a, perm[b]) == adjusted_rand_index(a, b)


def test_ari_both_single_cluster_convention():
    assert adjusted_rand_index([3, 3, 3], [7, 7, 7]) == 1.0


def test_ari_length_mismatch():
    with pytest.raises(InvalidInputError):
        adjusted_rand_index([0, 1], [0, 1, 2])


def _ari_by_unique(a, b):
    """The index on labels coded 0..k-1 in sorted order, as float labels,
    which always take the np.unique path."""
    return adjusted_rand_index(np.unique(a, return_inverse=True)[1].astype(float),
                               np.unique(b, return_inverse=True)[1].astype(float))


def _ari_dense_table(a, b):
    """The index from the dense (distinct a) x (distinct b) table, the
    unique-path arithmetic before only occupied cells were counted."""
    _, a_codes = np.unique(a, return_inverse=True)
    _, b_codes = np.unique(b, return_inverse=True)
    table = np.zeros((a_codes.max() + 1, b_codes.max() + 1), dtype=np.int64)
    np.add.at(table, (a_codes, b_codes), 1)

    def pairs(counts):
        return int((counts * (counts - 1) // 2).sum())

    n = len(a)
    row_pairs, col_pairs = pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = row_pairs * col_pairs / (n * (n - 1) // 2)
    maximum = (row_pairs + col_pairs) / 2.0
    if maximum == expected:
        return 1.0
    return (pairs(table) - expected) / (maximum - expected)


def _margins(a, b):
    """Row and column counts of the contingency table ``_contingency`` built."""
    _, a_sizes, b_sizes = _contingency(a, b)
    return a_sizes.size, b_sizes.size


def test_ari_bincount_path_equals_unique_path():
    rng = np.random.default_rng(3)
    n = 5000
    truth = rng.integers(0, 4, n)
    noisy = np.where(rng.random(n) < 0.3, rng.integers(0, 4, n), truth)
    cases = {
        "contiguous": (truth, noisy),
        "non-contiguous": (np.array([0, 3, 7, 20])[truth], np.array([1, 5, 6, 40])[noisy]),
        "uint8": (truth.astype(np.uint8), (noisy * 60).astype(np.uint8)),
    }
    for a, b in cases.values():
        assert _margins(a, b) == (int(a.max()) + 1, int(b.max()) + 1)  # bincount path
        assert adjusted_rand_index(a, b) == _ari_by_unique(a, b) == _ari_dense_table(a, b)
    value = adjusted_rand_index(truth, noisy)
    fallbacks = {
        "negative": (truth - 2, noisy),
        "bool": (truth == 1, noisy == 1),
        "float": (truth.astype(float), noisy.astype(float)),
    }
    for name, (a, b) in fallbacks.items():
        assert _margins(a, b) == (np.unique(a).size, np.unique(b).size)
        expected = value if name != "bool" else _ari_by_unique(a, b)
        assert adjusted_rand_index(a, b) == expected == _ari_dense_table(a, b)


def test_ari_unique_path_counts_only_occupied_cells():
    # empty cells add 0 to every pair sum, so counting the occupied ones
    # leaves the index unchanged
    rng = np.random.default_rng(5)
    for k in (2, 7, 40, 300):
        a = rng.integers(0, k, 600) * 0.5 - 3.0
        b = np.where(rng.random(600) < 0.5, a, rng.integers(0, k, 600) * 1.5)
        cells, a_sizes, b_sizes = _contingency(a, b)
        assert cells.min() > 0 and cells.sum() == a_sizes.sum() == b_sizes.sum() == 600
        assert adjusted_rand_index(a, b) == _ari_dense_table(a, b)


def test_ari_many_distinct_labels_memory_linear_in_n():
    # 3000 distinct float labels on each side: a dense table would hold
    # 3000 x 3000 int64 (72 MB); the occupied cells number at most n
    rng = np.random.default_rng(6)
    n = 3000
    a = rng.permutation(n).astype(float)
    b = np.where(rng.random(n) < 0.5, a, rng.permutation(n)).astype(float)
    bound = 50 * a.nbytes  # 1.2 MB, fixed before measuring
    tracemalloc.start()
    try:
        value = adjusted_rand_index(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound
    assert value == _ari_dense_table(a, b)


def test_ari_huge_label_takes_unique_path():
    # a bincount over labels up to 2^62 would need an impossible table; the
    # (max a + 1)(max b + 1) <= n bound sends it to np.unique
    rng = np.random.default_rng(4)
    a = rng.integers(0, 3, 1000)
    big = np.array([0, 7, 2**62])[a]
    assert _margins(big, a) == (3, 3)
    assert adjusted_rand_index(big, a) == 1.0
    b = rng.integers(0, 3, 1000)
    assert _margins(big.astype(np.uint64), b) == (3, 3)
    assert adjusted_rand_index(big.astype(np.uint64), b) == adjusted_rand_index(a, b)


def test_ari_large_n_no_overflow():
    # marginal pair products exceed int64 near n = 1e5; exact integers keep this safe
    n = 100_000
    rng = np.random.default_rng(0)
    a = rng.integers(0, 3, n)
    b = a.copy()
    assert adjusted_rand_index(a, b) == 1.0


# ---------------------------------------------------------------------------
# squared_error
# ---------------------------------------------------------------------------

def _two_comp(w, mu, var):
    return MixtureParams(w, (Gaussian([mu[0]], [[var[0]]]), Gaussian([mu[1]], [[var[1]]])))


def test_squared_error_zero_on_equal(rng):
    theta = make_gaussian_mixture(rng, 2, 3)
    assert squared_error(theta, theta) == 0.0


def test_squared_error_zero_on_reversed_components():
    a = _two_comp([0.3, 0.7], [-1.0, 2.0], [1.0, 2.0])
    b = _two_comp([0.7, 0.3], [2.0, -1.0], [2.0, 1.0])
    assert squared_error(a, b) == 0.0


def test_squared_error_coordinate_arithmetic():
    a = MixtureParams([1.0], (Gaussian([1.0], [[2.0]]),))
    b = MixtureParams([1.0], (Gaussian([0.0], [[1.0]]),))
    assert squared_error(a, b) == pytest.approx(2.0, abs=1e-15)


def test_squared_error_permutation_invariance_exact(rng):
    theta = make_gaussian_mixture(rng, 2, 4)
    ref = make_gaussian_mixture(rng, 2, 4)
    base = squared_error(theta, ref)
    for perm in permutations(range(4)):
        shuffled = MixtureParams(
            theta.weights[list(perm)], tuple(theta.components[z] for z in perm)
        )
        assert squared_error(shuffled, ref) == base


def test_squared_error_pseudo_metric(rng):
    a = make_gaussian_mixture(rng, 1, 2)
    b = make_gaussian_mixture(rng, 1, 2)
    assert squared_error(a, b) > 0.0
    flipped = MixtureParams(a.weights[[1, 0]], (a.components[1], a.components[0]))
    assert squared_error(a, flipped) == 0.0


@pytest.mark.parametrize("g", [3, 8, 9])
def test_squared_error_assignment_matches_enumeration(g):
    # the optimal assignment must agree with brute-force enumeration
    rng = np.random.default_rng(4)
    comps_a = tuple(Gaussian([float(rng.normal())], [[1.0 + float(rng.uniform())]]) for _ in range(g))
    comps_b = tuple(Gaussian([float(rng.normal())], [[1.0 + float(rng.uniform())]]) for _ in range(g))
    wa = rng.dirichlet(np.ones(g)) + 0.01
    wa /= wa.sum()
    wb = rng.dirichlet(np.ones(g)) + 0.01
    wb /= wb.sum()
    a = MixtureParams(wa, comps_a)
    b = MixtureParams(wb, comps_b)
    from mbem.metrics import _component_blocks

    blocks_a, blocks_b = _component_blocks(a), _component_blocks(b)
    cost = ((blocks_a[:, None, :] - blocks_b[None, :, :]) ** 2).sum(axis=2)
    brute = min(sum(cost[z, p[z]] for z in range(g)) for p in permutations(range(g)))
    assert squared_error(a, b) == pytest.approx(brute, rel=1e-12)


def test_assignment_total_matches_scipy():
    # the package's own solver against scipy's, which the package no longer
    # imports: 1200 square matrices, g = 1..12, costs spread over 1e-5..1e5,
    # a quarter with many tied entries.  Two assignments that tie in exact
    # arithmetic may differ by one rounding in their float totals, so either
    # solver may pick the one an ulp above.
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(15)
    for trial in range(1200):
        g = trial % 12 + 1
        scale = 10.0 ** rng.uniform(-5.0, 5.0)
        if trial % 4 == 0:
            cost = rng.integers(0, 3, (g, g)) * scale
        elif trial % 4 == 1:
            cost = 10.0 ** rng.uniform(-5.0, 5.0, (g, g))
        else:
            cost = rng.random((g, g)) * scale
        cols = _min_cost_assignment(cost.tolist())
        assert sorted(cols) == list(range(g))
        total = math.fsum(cost[np.arange(g), cols].tolist())
        rows, ref_cols = linear_sum_assignment(cost)
        ref = math.fsum(cost[rows, ref_cols].tolist())
        assert abs(total - ref) <= math.ulp(ref), (trial, total, ref)


def test_assignment_takes_the_cheap_diagonal_over_the_greedy_start():
    # row 0's cheapest column is not in the optimum: 1 + 100 > 2 + 2
    assert _min_cost_assignment([[1.0, 2.0], [2.0, 100.0]]) == [1, 0]
    assert _min_cost_assignment([[0.0]]) == [0]


def test_assignment_ends_on_non_finite_costs():
    # an overflowed cost still yields a permutation instead of a stalled search
    cols = _min_cost_assignment([[math.inf, math.inf], [math.inf, 1.0]])
    assert sorted(cols) == [0, 1]


def test_squared_error_shape_mismatch():
    a = MixtureParams([1.0], (Gaussian([0.0], [[1.0]]),))
    b = MixtureParams([0.5, 0.5], (Gaussian([0.0], [[1.0]]), Gaussian([1.0], [[1.0]])))
    with pytest.raises(InvalidInputError):
        squared_error(a, b)
    c = MixtureParams([1.0], (Poisson(1.0),))
    with pytest.raises(InvalidInputError):
        squared_error(a, c)


def test_squared_error_rate_family():
    a = MixtureParams([0.5, 0.5], (Poisson(1.0), Poisson(4.0)))
    b = MixtureParams([0.5, 0.5], (Poisson(4.0), Poisson(1.0)))
    assert squared_error(a, b) == 0.0
