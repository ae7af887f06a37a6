import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.special import gammaln

from mbem.errors import (
    DegenerateComponentError,
    DegenerateCovarianceError,
    DegeneratePointError,
    EmptyComponentError,
    InvalidInputError,
)
from mbem.families import (
    Exponential,
    Gaussian,
    MixtureParams,
    Poisson,
    SuffStats,
    log_densities,
    log_density,
    mean_sbar,
    pack_symmetric,
    params_from_dict,
    params_to_dict,
    responsibilities_batch,
    sample,
    stats_from_params,
    theta_bar,
    unpack_symmetric,
)
from mbem.families import (
    _as_data_matrix,
    _blend,
    _block_rows,
    _cholesky_or_raise,
    _density_pass,
    _estep,
    _log_sum_exp,
    _log_weighted,
    _stack,
)

from conftest import count_cholesky, make_gaussian_mixture

STD_NORMAL_1D = MixtureParams([1.0], (Gaussian([0.0], [[1.0]]),))

TWO_COMP_2D = MixtureParams(
    [0.3, 0.7],
    (Gaussian([0.0, 0.0], np.eye(2)), Gaussian([3.0, 3.0], np.eye(2))),
)


# ---------------------------------------------------------------------------
# parameter types
# ---------------------------------------------------------------------------

def test_weights_must_sum_to_one():
    with pytest.raises(InvalidInputError):
        MixtureParams([0.5, 0.6], (Gaussian([0.0], [[1.0]]), Gaussian([1.0], [[1.0]])))


def test_weights_must_be_positive():
    with pytest.raises(InvalidInputError):
        MixtureParams([1.0, 0.0], (Gaussian([0.0], [[1.0]]), Gaussian([1.0], [[1.0]])))


def test_covariance_must_be_positive_definite():
    with pytest.raises(InvalidInputError):
        Gaussian([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])


def test_covariance_must_be_symmetric():
    with pytest.raises(InvalidInputError):
        Gaussian([0.0, 0.0], [[1.0, 0.5], [0.1, 1.0]])


def test_gaussian_arrays_are_read_only_copies():
    mean, cov = np.array([1.0, 2.0]), np.array([[2.0, 0.5], [0.5, 1.0]])
    comp = Gaussian(mean, cov)
    for arr in (comp.mean, comp.cov, comp.chol):
        with pytest.raises(ValueError):
            arr[0] = 7.0
    # the caller's arrays are copied, not frozen
    mean[0] = cov[0, 0] = 3.0
    assert comp.mean[0] == 1.0 and comp.cov[0, 0] == 2.0


def test_gaussian_keeps_its_validation_factor():
    comp = Gaussian([0.0, 0.0], [[2.0, 0.5], [0.5, 1.0]])
    assert np.array_equal(comp.chol, np.linalg.cholesky(comp.cov))
    assert "chol" not in repr(comp)
    back = pickle.loads(pickle.dumps(comp))
    assert np.array_equal(back.chol, comp.chol) and not back.chol.flags.writeable
    with pytest.raises(TypeError):
        Gaussian([0.0], [[1.0]], chol=np.eye(1))


def test_rates_must_be_positive():
    for cls in (Exponential, Poisson):
        with pytest.raises(InvalidInputError):
            cls(0.0)
        with pytest.raises(InvalidInputError):
            cls(-1.0)


def test_params_dict_round_trip():
    theta = TWO_COMP_2D
    back = params_from_dict(params_to_dict(theta))
    assert np.array_equal(back.weights, theta.weights)
    assert np.array_equal(back.means(), theta.means())
    assert np.array_equal(back.covariances(), theta.covariances())
    pois = MixtureParams([0.25, 0.75], (Poisson(2.0), Poisson(7.0)))
    assert np.array_equal(params_from_dict(params_to_dict(pois)).rates(), pois.rates())


def test_pack_unpack_round_trip(rng):
    for d in (1, 2, 5):
        a = rng.normal(size=(d, d))
        m = a + a.T
        back = unpack_symmetric(pack_symmetric(m), d)
        assert np.array_equal(back, m)
        assert np.array_equal(back, back.T)


# ---------------------------------------------------------------------------
# log_density
# ---------------------------------------------------------------------------

def test_log_density_standard_normal_at_mode():
    assert log_density([0.0], STD_NORMAL_1D) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-15)


def test_log_density_duplicate_component_collapse():
    single = MixtureParams([1.0], (Gaussian([1.5], [[2.0]]),))
    double = MixtureParams([0.5, 0.5], (Gaussian([1.5], [[2.0]]), Gaussian([1.5], [[2.0]])))
    for y in (-3.0, 0.0, 2.5):
        assert log_density([y], double) == pytest.approx(log_density([y], single), abs=1e-14)


def test_log_density_two_component_2d_oracle():
    # frozen from a 60-digit direct summation of the two weighted normal
    # densities at y = (1, 1)
    assert log_density([1.0, 1.0], TWO_COMP_2D) == pytest.approx(-3.931946844346568, abs=1e-13)


def test_log_density_rejects_nonfinite_input():
    with pytest.raises(InvalidInputError):
        log_density([np.nan], STD_NORMAL_1D)
    with pytest.raises(InvalidInputError):
        log_density([np.inf, 0.0], TWO_COMP_2D)


@pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]],
                         ids=["nan", "inf", "-inf", "inf-and-minus-inf"])
def test_data_matrix_rejects_nonfinite_coordinates(bad):
    # +inf and -inf in one matrix sum to NaN
    y = np.zeros((6, 2))
    y.flat[: len(bad)] = bad
    with pytest.raises(InvalidInputError, match="non-finite"):
        _as_data_matrix(y, 2)


def test_data_matrix_accepts_finite_rows_whose_sum_overflows():
    y = np.full((2, 3), 1e308)
    with np.errstate(over="ignore"):
        assert math.isinf(y.sum())
    assert _as_data_matrix(y, 3) is y


def test_data_matrix_check_builds_no_mask():
    # an elementwise mask of a float matrix is 1/8 of its bytes
    y = np.random.default_rng(2).standard_normal((20_000, 50))
    bound = 0.01 * y.nbytes  # fixed before measuring
    tracemalloc.start()
    try:
        _as_data_matrix(y, 50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_log_density_rejects_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        log_density([0.0, 1.0, 2.0], TWO_COMP_2D)


def test_log_density_no_underflow_at_high_dimension():
    d = 100
    theta = MixtureParams([1.0], (Gaussian(np.zeros(d), np.eye(d)),))
    y = np.full(d, 10.0)
    expected = -0.5 * d * math.log(2 * math.pi) - 0.5 * d * 100.0
    assert log_density(y, theta) == pytest.approx(expected, rel=1e-12)


def test_log_density_exponential_and_poisson():
    exp_mix = MixtureParams([1.0], (Exponential(2.0),))
    assert log_density([1.0], exp_mix) == pytest.approx(math.log(2.0) - 2.0, abs=1e-14)
    assert log_density([-1.0], exp_mix) == -np.inf
    poi_mix = MixtureParams([1.0], (Poisson(3.0),))
    assert log_density([2.0], poi_mix) == pytest.approx(2 * math.log(3.0) - 3.0 - math.log(2.0), abs=1e-13)
    # off the nonnegative integers the Poisson density is zero
    assert log_density([-1.0], poi_mix) == -np.inf
    assert log_density([1.5], poi_mix) == -np.inf


# ---------------------------------------------------------------------------
# responsibilities
# ---------------------------------------------------------------------------

def test_responsibilities_single_component():
    assert np.array_equal(responsibilities_batch([0.7], STD_NORMAL_1D)[0], [1.0])


def test_responsibilities_identical_components():
    double = MixtureParams([0.5, 0.5], (Gaussian([1.5], [[2.0]]), Gaussian([1.5], [[2.0]])))
    np.testing.assert_allclose(responsibilities_batch([0.3], double)[0], [0.5, 0.5], atol=1e-15)


def test_responsibilities_reflection_symmetry():
    theta = MixtureParams([0.5, 0.5], (Gaussian([-1.0], [[1.0]]), Gaussian([1.0], [[1.0]])))
    np.testing.assert_allclose(responsibilities_batch([0.0], theta)[0], [0.5, 0.5], atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.floats(-30, 30))
def test_responsibilities_sum_to_one(seed, y):
    rng = np.random.default_rng(seed)
    theta = make_gaussian_mixture(rng, 1, int(rng.integers(1, 5)))
    tau = responsibilities_batch([y], theta)[0]
    assert abs(tau.sum() - 1.0) <= 1e-12
    assert np.all(tau >= 0.0)


def test_responsibilities_log_shift_invariance(rng):
    # softmax of the log-weighted densities is unchanged when all components
    # are scaled by one positive constant
    theta = make_gaussian_mixture(rng, 2, 3)
    y = rng.normal(0, 3, (20, 2))
    tau = responsibilities_batch(y, theta)
    lw = _log_weighted(y, _stack(theta)) + 123.456  # common log-scale shift, (g, n)
    shifted = np.exp(lw - lw.max(axis=0))
    shifted /= shifted.sum(axis=0)
    np.testing.assert_allclose(tau, shifted.T, atol=1e-15)


def test_responsibilities_degenerate_point():
    exp_mix = MixtureParams([0.5, 0.5], (Exponential(1.0), Exponential(2.0)))
    from mbem.errors import DegeneratePointError

    with pytest.raises(DegeneratePointError):
        responsibilities_batch([-1.0], exp_mix)
    poi_mix = MixtureParams([0.5, 0.5], (Poisson(1.0), Poisson(2.0)))
    with pytest.raises(DegeneratePointError):
        responsibilities_batch([[1.5]], poi_mix)


# ---------------------------------------------------------------------------
# sbar
# ---------------------------------------------------------------------------

def test_sbar_single_component_is_raw_statistic(rng):
    d = 3
    theta = make_gaussian_mixture(rng, d, 1)
    y = rng.normal(0, 2, d)
    s = mean_sbar(y, theta)
    assert s.mass[0] == 1.0
    np.testing.assert_allclose(s.moment1[0], y, atol=1e-15)
    np.testing.assert_allclose(unpack_symmetric(s.moment2[0], d), np.outer(y, y), atol=1e-15)


def test_sbar_mass_sums_to_one(rng):
    theta = make_gaussian_mixture(rng, 2, 3)
    for _ in range(10):
        s = mean_sbar(rng.normal(0, 3, 2), theta)
        assert abs(s.mass.sum() - 1.0) <= 1e-12


def test_sbar_zero_point_kills_first_moment():
    s = mean_sbar([0.0, 0.0], TWO_COMP_2D)
    np.testing.assert_array_equal(s.moment1, np.zeros((2, 2)))


def test_mean_sbar_matches_average_of_single_points(rng):
    theta = make_gaussian_mixture(rng, 2, 2)
    data = rng.normal(0, 2, (7, 2))
    s = mean_sbar(data, theta)
    singles = [mean_sbar(y, theta) for y in data]
    np.testing.assert_allclose(s.mass, np.mean([t.mass for t in singles], axis=0), atol=1e-14)
    np.testing.assert_allclose(s.moment1, np.mean([t.moment1 for t in singles], axis=0), atol=1e-14)
    np.testing.assert_allclose(s.moment2, np.mean([t.moment2 for t in singles], axis=0), atol=1e-13)


def test_mean_sbar_one_row_equals_single_point(rng):
    # the statistic a run starts from is mean_sbar of its first batch; a
    # one-row batch gives the single-point statistic bit for bit
    theta = make_gaussian_mixture(rng, 2, 2)
    y = rng.normal(0, 1, (1, 2))
    a = mean_sbar(y, theta)
    b = mean_sbar(y[0], theta)
    assert np.array_equal(a.mass, b.mass)
    assert np.array_equal(a.moment1, b.moment1)
    assert np.array_equal(a.moment2, b.moment2)


def test_mean_sbar_rejects_an_empty_batch():
    # an average over no rows is undefined: a typed error, not NaN blocks
    with pytest.raises(InvalidInputError):
        mean_sbar(np.empty((0, 2)), TWO_COMP_2D)


def test_mean_sbar_normalized_and_single_component_empirical(rng):
    theta = make_gaussian_mixture(rng, 2, 1)
    data, _ = sample(theta, 40, rng)
    s = mean_sbar(data, theta)
    assert abs(s.mass.sum() - 1.0) <= 1e-12
    np.testing.assert_allclose(s.moment1[0], data.mean(axis=0), atol=1e-12)


# ---------------------------------------------------------------------------
# theta_bar
# ---------------------------------------------------------------------------

def test_theta_bar_point_mass_is_degenerate():
    s = mean_sbar([1.0], STD_NORMAL_1D)
    with pytest.raises(DegenerateCovarianceError):
        theta_bar(s, "gaussian")


def test_theta_bar_two_point_variance():
    s = mean_sbar(np.array([[-1.0], [1.0]]), STD_NORMAL_1D)
    t = theta_bar(s, "gaussian")
    assert t.weights[0] == 1.0
    assert t.components[0].mean[0] == pytest.approx(0.0, abs=1e-15)
    assert t.components[0].cov[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_theta_bar_exponential_rates():
    s = SuffStats([0.4, 0.6], np.array([[0.8], [3.0]]))
    t = theta_bar(s, "exponential")
    np.testing.assert_allclose(t.rates(), [0.5, 0.2], atol=1e-15)
    np.testing.assert_allclose(t.weights, [0.4, 0.6], atol=1e-15)


def test_theta_bar_poisson_rates():
    s = SuffStats([0.4, 0.6], np.array([[0.8], [3.0]]))
    t = theta_bar(s, "poisson")
    np.testing.assert_allclose(t.rates(), [2.0, 5.0], atol=1e-15)


def test_theta_bar_rejects_unknown_family_tag():
    s = SuffStats([0.4, 0.6], np.array([[0.8], [3.0]]))
    with pytest.raises(InvalidInputError):
        theta_bar(s, "gamma")


def test_theta_bar_empty_component():
    s = SuffStats([1e-13, 1.0 - 1e-13], np.array([[0.5], [0.5]]))
    with pytest.raises(EmptyComponentError):
        theta_bar(s, "poisson")


def test_theta_bar_nonpositive_rate_is_degenerate():
    s = SuffStats([0.5, 0.5], np.array([[0.0], [1.0]]))
    with pytest.raises(DegenerateComponentError):
        theta_bar(s, "poisson")


def test_theta_bar_weights_sum_exactly_to_one(rng):
    for _ in range(20):
        g = int(rng.integers(1, 5))
        mass = rng.dirichlet(np.ones(g)) + 0.01
        s = SuffStats(mass, rng.uniform(0.5, 2.0, (g, 1)) * mass[:, None])
        t = theta_bar(s, "poisson")
        assert t.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_fixed_point_property_single_component(rng):
    # theta_bar of the averaged statistic map equals the closed-form MLE
    theta = make_gaussian_mixture(rng, 2, 1)
    data, _, _ = (lambda Y: (Y, None, None))(sample(theta, 300, rng)[0])
    t = theta_bar(mean_sbar(data, theta), theta.family_tag)
    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / len(data)
    np.testing.assert_allclose(t.components[0].mean, mean, atol=1e-10)
    np.testing.assert_allclose(t.components[0].cov, cov, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.01, 0.99))
def test_convex_combination_stays_valid(seed, gamma):
    # blending statistics of two scattered point clouds keeps theta_bar defined
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 3))
    g = int(rng.integers(1, 3))
    theta = make_gaussian_mixture(rng, d, g)
    a = mean_sbar(rng.normal(0, 2, (d + 5, d)), theta)
    b = mean_sbar(rng.normal(1, 3, (d + 5, d)), theta)
    mixed = SuffStats(*_blend((a.mass, a.moment1, a.moment2), (b.mass, b.moment1, b.moment2), gamma))
    assert abs(mixed.mass.sum() - 1.0) <= 1e-10
    try:
        t = theta_bar(mixed, theta.family_tag)
    except (EmptyComponentError, DegenerateCovarianceError):
        return  # combination landed on a boundary case; nothing to check
    assert t.weights.sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 1.0), st.integers(1, 10), st.integers(1, 5))
def test_blend_preserves_total_mass(seed, gamma, g, d):
    rng = np.random.default_rng(seed)

    def unit_mass_stats():
        return SuffStats(rng.dirichlet(np.ones(g)), rng.normal(0, 3, (g, d)),
                         rng.normal(0, 3, (g, d * (d + 1) // 2)))

    a, b = unit_mass_stats(), unit_mass_stats()
    mixed = _blend((a.mass, a.moment1, a.moment2), (b.mass, b.moment1, b.moment2), gamma)
    assert abs(mixed[0].sum() - 1.0) <= 1e-12
    for block, s, t in zip(mixed, (a.mass, a.moment1, a.moment2), (b.mass, b.moment1, b.moment2)):
        assert np.array_equal(block, (1.0 - gamma) * s + gamma * t)


def _reference_log_weighted(y, theta):
    """Per-component log pi_z + log f(y; omega_z): a fresh Cholesky factor and
    scipy's solve_triangular per component and call, columns stacked."""
    cols = []
    for log_w, comp in zip(np.log(theta.weights), theta.components):
        x = y[:, 0]
        if isinstance(comp, Gaussian):
            chol = np.linalg.cholesky(comp.cov)
            z = solve_triangular(chol, (y - comp.mean).T, lower=True)
            log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
            dens = -0.5 * (comp.dim * math.log(2.0 * math.pi) + log_det + np.einsum("dn,dn->n", z, z))
        elif isinstance(comp, Exponential):
            dens = np.where(x >= 0.0, math.log(comp.rate) - comp.rate * x, -np.inf)
        else:
            support = (x >= 0.0) & (x == np.floor(x))
            dens = np.where(support, x * math.log(comp.rate) - comp.rate - gammaln(x + 1.0), -np.inf)
        cols.append(log_w + dens)
    return np.column_stack(cols)


def _reference_sbar(y, theta):
    lw = _reference_log_weighted(y, theta)
    tau = np.exp(lw - lw.max(axis=1)[:, None])
    tau /= tau.sum(axis=1)[:, None]
    n, d = y.shape

    # Column means of the products tau_z, tau_z y_j and (tau_z y_i) y_j, each
    # summed exactly: a plain column sum drifts by about n ulps, more than
    # the 1e-12 the kernels are held to at 1e5 rows.
    def mean(cols):
        return np.array([math.fsum(c.tolist()) for c in cols.T]) / n

    mass = mean(tau)
    moment1 = np.stack([mean(tau[:, z : z + 1] * y) for z in range(theta.g)])
    if theta.family_tag != "gaussian":
        return mass, moment1, None
    rows, cols = np.triu_indices(d)
    return mass, moment1, np.stack([mean((tau[:, z : z + 1] * y)[:, rows] * y[:, cols]) for z in range(theta.g)])


def _reference_theta_bar(mass, moment1, moment2):
    """Gaussian M-step, one component at a time."""
    d = moment1.shape[1]
    iu = np.triu_indices(d)
    means = moment1 / mass[:, None]
    covs = []
    for z in range(len(mass)):
        scatter = np.zeros((d, d))
        scatter[iu] = moment2[z]
        scatter.T[iu] = moment2[z]
        covs.append(scatter / mass[z] - np.outer(means[z], means[z]))
    return mass / mass.sum(), means, np.stack(covs)


def _kernel_shape(family):
    """(g, d) of a kernel-test family: "gaussian-dxg" (g defaults to 3) or a
    two-component rate family."""
    if not family.startswith("gaussian"):
        return 2, 1
    d, _, g = family.removeprefix("gaussian-").partition("x")
    return int(g or 3), int(d)


def _kernel_sizes(family):
    """Row counts of a kernel case: n = 40 keeps the ids "<family>-<seed>",
    4095 to 8195 are fixed sizes kept for their stable ids, and b - 1 to
    2b + 3 straddle the family's own row blocks (b rows) of the E-step and
    evaluation passes."""
    b = _block_rows(*_kernel_shape(family))
    return (1, 2, 40, 4095, 4096, 4097, 8195, b - 1, b, b + 1, 2 * b + 3)


_KERNEL_CASES = [
    pytest.param(family, seed, n, id=f"{family}-{seed}" + ("" if n == 40 else f"-n{n}"))
    for family in ("gaussian-1", "gaussian-3", "gaussian-3x10", "exponential", "poisson")
    for n in _kernel_sizes(family)
    for seed in (0, 1, 2)
]


@pytest.mark.parametrize("family, seed, n", _KERNEL_CASES)
def test_stacked_kernels_equal_per_component_reference(family, seed, n):
    # one observation keeps the per-component arithmetic order, so the E-step
    # reproduces the reference bit for bit; over more rows the component-major
    # blocks reorder the sums, within 1e-12 of the largest reference entry of
    # each block.  The M-step keeps its order; it is checked where the
    # covariances are well defined (n >= 40).  "gaussian-dxg" sets g
    # (default 3), and g >= 8 is where numpy's row sums turn pairwise.
    rng = np.random.default_rng(seed)
    if family.startswith("gaussian"):
        g, d = _kernel_shape(family)
        theta = make_gaussian_mixture(rng, d, g)
    else:
        cls = Exponential if family == "exponential" else Poisson
        theta = MixtureParams([0.3, 0.7], (cls(float(rng.uniform(0.5, 2))), cls(float(rng.uniform(3, 9)))))
    y, _ = sample(theta, n, rng)
    expected = _reference_sbar(y, theta)
    stats = mean_sbar(y, theta)
    for got in (_estep(y, _stack(theta)), (stats.mass, stats.moment1, stats.moment2)):
        for block, ref in zip(got, expected):
            if ref is None:
                assert block is None
            elif n == 1:
                assert np.array_equal(block, ref)
            else:
                assert np.max(np.abs(block - ref)) <= 1e-12 * np.max(np.abs(ref))
    lw = _log_weighted(y, _stack(theta))
    ref = _reference_log_weighted(y, theta).T
    if n == 1:
        assert np.array_equal(lw, ref)
    else:
        assert np.max(np.abs(lw - ref)) <= 1e-12 * np.max(np.abs(ref))
    if family.startswith("gaussian") and n >= 40:
        weights, means, covs = _reference_theta_bar(*expected)
        t = theta_bar(SuffStats(*expected), "gaussian")
        assert np.array_equal(t.weights, weights)
        assert np.array_equal(t.means(), means)
        assert np.array_equal(t.covariances(), covs)


def _full_matrix_evaluation(y, theta):
    """Log densities and MAP labels from the whole (g, n) log-weighted
    matrix: its column log-sum-exp and its first column maximum."""
    lw = _log_weighted(y, _stack(theta))
    return _log_sum_exp(lw, lw.max(axis=0)), np.argmax(lw, axis=0)


def _assert_pass_equals_full_matrix(y, theta):
    dens, labels = _density_pass(y, theta, labels=True)
    ref_dens, ref_labels = _full_matrix_evaluation(y, theta)
    assert np.array_equal(dens, ref_dens)
    assert labels.dtype == np.intp and np.array_equal(labels, ref_labels)
    alone, none = _density_pass(y, theta)
    assert np.array_equal(alone, ref_dens) and none is None
    # responsibilities normalise the full matrix, lone last column included
    lw = _log_weighted(y, _stack(theta))
    tau = np.exp(lw - lw.max(axis=0))
    tau /= tau.sum(axis=0)
    assert np.array_equal(responsibilities_batch(y, theta), tau.T)


@pytest.mark.parametrize("d, g", [(1, 3), (4, 3), (3, 10), (50, 10)])
def test_density_pass_equals_full_matrix(d, g):
    # g = 10 >= 8: NumPy sums a lone column pairwise, the columns of a wider
    # matrix one component at a time; k b + 1 rows leave a one-row last block.
    # Overlapping components give each row comparable terms, whose sum
    # depends on the order.
    rng = np.random.default_rng(d * 100 + g)
    theta = MixtureParams(
        rng.dirichlet(np.full(g, 5.0)),
        tuple(Gaussian(rng.normal(0.0, 0.3, d), np.eye(d) * rng.uniform(0.8, 1.2)) for _ in range(g)),
    )
    b = _block_rows(g, d)
    for n in (1, 2, b - 1, b, b + 1, 2 * b + 1, 2 * b + 3, 3 * b + 1, 4 * b + 1):
        y, _ = sample(theta, n, rng)
        _assert_pass_equals_full_matrix(y, theta)


@pytest.mark.parametrize("family", ["exponential", "poisson"])
def test_density_pass_equals_full_matrix_rate_family(family):
    rng = np.random.default_rng(12)
    cls = Exponential if family == "exponential" else Poisson
    g = 9
    theta = MixtureParams(np.full(g, 1.0 / g), tuple(cls(float(r)) for r in rng.uniform(0.2, 6.0, g)))
    b = _block_rows(g, 1)
    for n in (1, 2, b - 1, b, b + 1, 2 * b + 1, 2 * b + 3, 3 * b + 1):
        y, _ = sample(theta, n, rng)
        _assert_pass_equals_full_matrix(y, theta)


def test_density_pass_zero_density_row():
    # a negative value has zero density under every exponential component,
    # in the last block, at a row past two full blocks
    theta = MixtureParams([0.25] * 4, tuple(Exponential(r) for r in (0.5, 1.0, 2.0, 4.0)))
    b = _block_rows(4, 1)
    y, _ = sample(theta, 2 * b + 3, np.random.default_rng(13))
    y[2 * b + 1] = -1.0
    dens, labels = _density_pass(y, theta)
    assert labels is None
    assert np.array_equal(dens, _full_matrix_evaluation(y, theta)[0])
    assert np.isneginf(dens[2 * b + 1]) and np.isfinite(np.delete(dens, 2 * b + 1)).all()
    with pytest.raises(DegeneratePointError):
        _density_pass(y, theta, labels=True)


def _ill_conditioned_mixture(rng, d, g, smallest):
    """Gaussian mixture whose covariances span eigenvalues [smallest, 10]."""
    comps = []
    for _ in range(g):
        q, _ = np.linalg.qr(rng.normal(0, 1, (d, d)))
        eigs = np.exp(rng.uniform(math.log(smallest), math.log(10.0), d))
        eigs[0] = smallest
        cov = (q * eigs) @ q.T
        comps.append(Gaussian(rng.normal(0, 1, d), (cov + cov.T) / 2.0))
    return MixtureParams(np.full(g, 1.0 / g), tuple(comps))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.floats(-8.0, 0.0))
def test_log_space_paths_finite_at_d50_near_singular(seed, g, log10_smallest):
    rng = np.random.default_rng(seed)
    theta = _ill_conditioned_mixture(rng, 50, g, 10.0**log10_smallest)
    near, _ = sample(theta, 20, rng)
    y = np.vstack([near, rng.normal(0, 3, (20, 50))])
    logf = log_densities(y, theta)
    assert np.all(np.isfinite(logf))
    tau = responsibilities_batch(y, theta)
    assert np.all(np.isfinite(tau)) and np.all(tau >= 0.0)
    np.testing.assert_allclose(tau.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    mass, moment1, moment2 = _estep(y, _stack(theta))
    assert abs(mass.sum() - 1.0) <= 1e-12
    assert np.all(np.isfinite(moment1)) and np.all(np.isfinite(moment2))


def test_stats_from_params_inverts_theta_bar(rng):
    theta = make_gaussian_mixture(rng, 2, 3)
    t = theta_bar(stats_from_params(theta), theta.family_tag)
    np.testing.assert_allclose(t.weights, theta.weights, atol=1e-14)
    np.testing.assert_allclose(t.means(), theta.means(), atol=1e-13)
    np.testing.assert_allclose(t.covariances(), theta.covariances(), atol=1e-12)
    pois = MixtureParams([0.25, 0.75], (Poisson(2.0), Poisson(7.0)))
    back = theta_bar(stats_from_params(pois), pois.family_tag)
    np.testing.assert_allclose(back.rates(), pois.rates(), atol=1e-13)
    expo = MixtureParams([0.5, 0.5], (Exponential(0.5), Exponential(4.0)))
    back = theta_bar(stats_from_params(expo), expo.family_tag)
    np.testing.assert_allclose(back.rates(), expo.rates(), atol=1e-13)
    # the stacked second moment takes the same products as one outer product per component
    w = theta.weights
    packed = [w[z] * pack_symmetric(c.cov + np.outer(c.mean, c.mean)) for z, c in enumerate(theta.components)]
    assert np.array_equal(stats_from_params(theta).moment2, np.stack(packed))


def _round_trip_theta(family, seed, d, g):
    rng = np.random.default_rng(seed)
    if family == "gaussian":
        # the generator's mean scale (N(0, 9) coordinates) keeps |mu|^2 within
        # a few decades of the smallest eigenvalue; far beyond that the
        # covariance rebuild S3/s1 - mu mu^T loses digits
        return make_gaussian_mixture(rng, d, g)
    kind = Poisson if family == "poisson" else Exponential
    rates = 10.0 ** rng.uniform(-3.0, 3.0, g)
    return MixtureParams(rng.dirichlet(np.full(g, 2.0)), tuple(kind(r) for r in rates))


def _blocks(theta):
    if theta.family_tag == "gaussian":
        return theta.weights, theta.means(), theta.covariances()
    return theta.weights, theta.rates()


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["gaussian", "poisson", "exponential"]),
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(1, 6),
)
def test_theta_bar_of_stats_from_params_is_identity(family, seed, d, g):
    theta = _round_trip_theta(family, seed, d, g)
    back = theta_bar(stats_from_params(theta), family)
    for got, want in zip(_blocks(back), _blocks(theta)):
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


# ---------------------------------------------------------------------------
# factored stacks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 4, 50])
def test_stack_factors_are_the_validation_factors(d):
    theta = make_gaussian_mixture(np.random.default_rng(d), d, 3)
    chols = _stack(theta).chols
    assert np.array_equal(chols, np.linalg.cholesky(theta.covariances()))
    assert np.array_equal(chols, np.stack([c.chol for c in theta.components]))


def test_stack_and_sample_factorise_nothing(monkeypatch):
    theta = make_gaussian_mixture(np.random.default_rng(0), 4, 3)
    calls = count_cholesky(monkeypatch)
    _stack(theta)
    sample(theta, 100, np.random.default_rng(1))
    assert calls == []


def test_cholesky_or_raise_sum_overflow_is_silent():
    # finite covariances whose entries sum past the float64 range
    covs = np.stack([np.eye(2) * 1e308] * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chols = _cholesky_or_raise(covs)
    assert np.array_equal(chols, np.linalg.cholesky(covs))


# ---------------------------------------------------------------------------
# weighted-MLE oracle: theta_bar maximizes the complete-data objective
# ---------------------------------------------------------------------------

def _component_neg_q(params, d, s1, s2, scatter):
    """Negative per-component complete-data objective over (mu, chol(Sigma))."""
    mu = params[:d]
    if d == 1:
        chol = np.array([[math.exp(params[1])]])
    else:
        chol = np.zeros((2, 2))
        chol[0, 0] = math.exp(params[2])
        chol[1, 0] = params[3]
        chol[1, 1] = math.exp(params[4])
    sigma = chol @ chol.T
    inv = np.linalg.inv(sigma)
    shifted = scatter - np.outer(s2, mu) - np.outer(mu, s2) + s1 * np.outer(mu, mu)
    val = (
        -0.5 * s1 * d * math.log(2 * math.pi)
        - 0.5 * s1 * math.log(np.linalg.det(sigma))
        - 0.5 * np.trace(inv @ shifted)
    )
    return -val


def test_theta_bar_maximizes_q_gaussian(rng):
    from scipy.optimize import minimize

    for _ in range(12):
        d = int(rng.integers(1, 3))
        g = int(rng.integers(1, 3))
        pts = rng.normal(0, 2, (10, d))
        tau = rng.dirichlet(np.ones(g), 10)
        mass = tau.mean(axis=0)
        m1 = tau.T @ pts / 10
        m2 = np.stack([pack_symmetric((tau[:, z : z + 1] * pts).T @ pts / 10) for z in range(g)])
        stats = SuffStats(mass, m1, m2)
        t = theta_bar(stats, "gaussian")
        for z in range(g):
            scatter = unpack_symmetric(m2[z], d)
            nparams = d + (1 if d == 1 else 3)
            best = None
            for x0 in (np.zeros(nparams), np.concatenate([0.5 * m1[z] / mass[z], np.zeros(nparams - d)])):
                res = minimize(
                    _component_neg_q,
                    x0,
                    args=(d, mass[z], m1[z], scatter),
                    method="Nelder-Mead",
                    options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 50_000, "maxfev": 50_000},
                )
                if best is None or res.fun < best.fun:
                    best = res
            np.testing.assert_allclose(best.x[:d], t.components[z].mean, atol=1e-6)
            if d == 1:
                np.testing.assert_allclose(math.exp(best.x[1]) ** 2, t.components[z].cov[0, 0], atol=1e-6)


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def test_sample_single_component_labels(rng):
    _, labels = sample(STD_NORMAL_1D, 50, rng)
    assert np.array_equal(labels, np.zeros(50, dtype=labels.dtype))


def test_sample_label_frequencies_match_weights():
    theta = MixtureParams(
        [0.2, 0.3, 0.5],
        (Gaussian([0.0], [[1.0]]), Gaussian([5.0], [[1.0]]), Gaussian([10.0], [[1.0]])),
    )
    n = 100_000
    _, labels = sample(theta, n, np.random.default_rng(7))
    counts = np.bincount(labels, minlength=3) / n
    for z, pi in enumerate(theta.weights):
        assert abs(counts[z] - pi) <= 3.0 * math.sqrt(pi * (1 - pi) / n)


def test_sample_clt_mean_bound():
    data, _ = sample(STD_NORMAL_1D, 100_000, np.random.default_rng(11))
    assert abs(data.mean()) <= 0.02  # 3 / sqrt(n) rounded up


def test_sample_reproducible():
    a = sample(TWO_COMP_2D, 100, np.random.default_rng(3))
    b = sample(TWO_COMP_2D, 100, np.random.default_rng(3))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_sample_count_families():
    expo = MixtureParams([1.0], (Exponential(4.0),))
    data, _ = sample(expo, 50_000, np.random.default_rng(5))
    assert data.shape == (50_000, 1)
    assert data.mean() == pytest.approx(0.25, abs=0.01)
    pois = MixtureParams([1.0], (Poisson(3.0),))
    data, _ = sample(pois, 50_000, np.random.default_rng(5))
    assert data.mean() == pytest.approx(3.0, abs=0.05)
    assert np.array_equal(data, np.round(data))


def _two_array_sample(theta, n, rng):
    """Gaussian draws with the noise and the output in separate arrays."""
    labels = rng.choice(theta.g, size=n, p=theta.weights)
    noise = rng.standard_normal((n, theta.dim))
    out = np.empty((n, theta.dim))
    for z, comp in enumerate(theta.components):
        idx = labels == z
        out[idx] = comp.mean + noise[idx] @ np.linalg.cholesky(comp.cov).T
    return out, labels


@pytest.mark.parametrize("d", [1, 4, 50])
def test_sample_in_place_equals_two_array_reference(d):
    for seed in range(4):
        theta = make_gaussian_mixture(np.random.default_rng(seed), d, 3)
        for n in (2, 1001):  # two rows leave a component empty
            got = sample(theta, n, np.random.default_rng(100 + seed))
            ref = _two_array_sample(theta, n, np.random.default_rng(100 + seed))
            assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


def test_sample_holds_the_data_and_one_component():
    # d = 50, four equal components: besides the data, the peak holds one
    # component's gathered rows and their product by L^T, a quarter of the
    # data each, and the labels; a separate noise array would add the data
    d, g, n = 50, 4, 20_000
    theta = MixtureParams(
        np.full(g, 0.25), tuple(Gaussian(np.full(d, 3.0 * z), np.eye(d)) for z in range(g))
    )
    bound = 1.65 * n * d * 8  # fixed before measuring
    tracemalloc.start()
    try:
        data, _ = sample(theta, n, np.random.default_rng(14))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data.shape == (n, d)
    assert peak < bound


@pytest.mark.parametrize("d", [1, 4, 50])
def test_sample_chunks_equal_whole_component_transform(d):
    # one component puts every row in it, so its chunks straddle n exactly;
    # plain chunks of b rows would end on a short GEMM, which rounds
    # differently from one GEMM over the component
    b = _block_rows(1, d)
    for g in (1, 3):
        theta = make_gaussian_mixture(np.random.default_rng(d), d, g)
        for n in (b - 1, b + 1, 2 * b + 5, 5 * b + 3):
            got = sample(theta, n, np.random.default_rng(n))
            ref = _two_array_sample(theta, n, np.random.default_rng(n))
            assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1]), (g, n)


def test_sample_holds_the_data_and_one_chunk():
    # d = 50, four equal components of about five chunks each: besides the
    # data, the peak holds the labels, one component's mask and row indices,
    # and one chunk's gathered rows and their product by L^T, each under
    # 2 b rows (2 MiB); whole components would hold a quarter of the data each
    d, g = 50, 4
    n = 5 * g * _block_rows(1, d)
    theta = MixtureParams(
        np.full(g, 0.25), tuple(Gaussian(np.full(d, 3.0 * z), np.eye(d)) for z in range(g))
    )
    rng = np.random.default_rng(15)
    bound = n * d * 8 + 16 * n + 4 * 2**20  # fixed before measuring
    tracemalloc.start()
    try:
        data, _ = sample(theta, n, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data.shape == (n, d)
    assert peak < bound


def test_sample_requires_positive_n():
    with pytest.raises(InvalidInputError):
        sample(STD_NORMAL_1D, 0, np.random.default_rng(0))
