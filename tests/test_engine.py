import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import mbem.engine
from mbem.data import random_partition_init, read_labeled_csv, template_from_labeled_data
from mbem.engine import (
    DEFAULT_LEARNING_RATE,
    EmState,
    LearningRate,
    RunConfig,
    TruncationRegion,
    batch_em_step,
    minibatch_step,
    polyak_update,
    run,
)
from mbem.errors import (
    DegenerateComponentError,
    EmptyComponentError,
    EngineRunError,
    InvalidInputError,
    TruncationError,
)
from mbem.families import (
    Exponential,
    Gaussian,
    MixtureParams,
    Poisson,
    mean_sbar,
    sample,
    theta_bar,
)
from mbem.families import _blend
from mbem.metrics import dataset_loglik

from conftest import (
    make_gaussian_mixture,
    region_breaks,
    region_contains,
    replay,
    reset_stat,
    stats_from_params,
)


def _params_equal(a: MixtureParams, b: MixtureParams) -> bool:
    if not np.array_equal(a.weights, b.weights):
        return False
    if a.family_tag == "gaussian":
        return np.array_equal(a.means(), b.means()) and np.array_equal(
            a.covariances(), b.covariances()
        )
    return np.array_equal(a.rates(), b.rates())


# ---------------------------------------------------------------------------
# learning-rate schedule
# ---------------------------------------------------------------------------

def test_schedule_first_step_is_gamma0():
    lr = LearningRate(1.0 - 1e-10, 0.6)
    assert lr.at(1) == 1.0 - 1e-10


def test_schedule_definition_at_r2():
    lr = LearningRate(0.9, 0.6)
    assert lr.at(2) == pytest.approx(0.9 * 2.0 ** (-0.6), abs=1e-16)


def test_schedule_strictly_decreasing_and_in_unit_interval():
    lr = DEFAULT_LEARNING_RATE
    values = [lr.at(r) for r in range(1, 2000)]
    assert all(0.0 < v < 1.0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_schedule_partial_sums():
    # direct-summation oracle over r <= 1e6: the step series diverges past
    # 100 while the squared series stays bounded by its Riemann tail
    r = np.arange(1, 1_000_001, dtype=float)
    lr = DEFAULT_LEARNING_RATE
    gam = lr.gamma0 * r ** (-lr.alpha)
    assert gam.sum() > 100.0
    sq = (gam**2).sum()
    assert np.isfinite(sq)
    assert sq < 1.0 + 1.0 / (2 * lr.alpha - 1.0)  # 1 + integral tail bound


def test_schedule_validation():
    with pytest.raises(InvalidInputError):
        LearningRate(1.0, 0.6)
    with pytest.raises(InvalidInputError):
        LearningRate(0.5, 0.5)
    with pytest.raises(InvalidInputError):
        LearningRate(0.5, 1.1)
    with pytest.raises(InvalidInputError):
        DEFAULT_LEARNING_RATE.at(0)


# ---------------------------------------------------------------------------
# batch EM
# ---------------------------------------------------------------------------

def test_batch_em_single_component_converges_in_one_step(rng):
    theta = make_gaussian_mixture(rng, 2, 1)
    data, _ = sample(theta, 200, rng)
    start = make_gaussian_mixture(rng, 2, 1)
    t = batch_em_step(data, start)
    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / len(data)
    np.testing.assert_allclose(t.components[0].mean, mean, atol=1e-12)
    np.testing.assert_allclose(t.components[0].cov, cov, atol=1e-12)


def test_batch_em_fixed_point(rng):
    theta = make_gaussian_mixture(rng, 1, 2)
    data, _ = sample(theta, 400, rng)
    t = theta
    for _ in range(200):
        t = batch_em_step(data, t)
    after = batch_em_step(data, t)
    np.testing.assert_allclose(after.weights, t.weights, atol=1e-12)
    np.testing.assert_allclose(after.means(), t.means(), atol=1e-12)
    np.testing.assert_allclose(after.covariances(), t.covariances(), atol=1e-12)


def test_batch_em_matches_naive_direct_formula_oracle():
    # independent 1-D two-component EM with raw densities, no log-space
    def naive_em(y, w, mu, var, iters):
        y = y.ravel()
        for _ in range(iters):
            dens = np.stack(
                [
                    w[z] / math.sqrt(2 * math.pi * var[z]) * np.exp(-((y - mu[z]) ** 2) / (2 * var[z]))
                    for z in range(2)
                ],
                axis=1,
            )
            tau = dens / dens.sum(axis=1, keepdims=True)
            nk = tau.sum(axis=0)
            w = nk / len(y)
            mu = (tau * y[:, None]).sum(axis=0) / nk
            var = np.array([(tau[:, z] * (y - mu[z]) ** 2).sum() / nk[z] for z in range(2)])
        return w, mu, var

    theta = MixtureParams([0.5, 0.5], (Gaussian([-2.0], [[1.0]]), Gaussian([2.0], [[1.5]])))
    data, _ = sample(theta, 200, np.random.default_rng(5))
    t = MixtureParams([0.4, 0.6], (Gaussian([-1.0], [[2.0]]), Gaussian([1.0], [[0.8]])))
    for _ in range(3):
        t = batch_em_step(data, t)
    w, mu, var = naive_em(data, np.array([0.4, 0.6]), np.array([-1.0, 1.0]), np.array([2.0, 0.8]), 3)
    np.testing.assert_allclose(t.weights, w, atol=1e-10)
    np.testing.assert_allclose(t.means().ravel(), mu, atol=1e-10)
    np.testing.assert_allclose(t.covariances().ravel(), var, atol=1e-10)


def test_batch_em_loglik_ascent(rng):
    for _ in range(10):
        theta = make_gaussian_mixture(rng, 2, 2)
        data, _ = sample(theta, 100, rng)
        t = random_partition_init(data, 2, rng)
        prev = dataset_loglik(data, t)
        for _ in range(30):
            t = batch_em_step(data, t)
            cur = dataset_loglik(data, t)
            assert cur >= prev - 1e-8
            prev = cur


# ---------------------------------------------------------------------------
# mini-batch steps
# ---------------------------------------------------------------------------

def test_minibatch_full_data_unit_gamma_equals_batch_step(rng):
    theta = make_gaussian_mixture(rng, 2, 2)
    data, _ = sample(theta, 150, rng)
    init = random_partition_init(data, 2, rng)
    t_batch = init
    state = EmState(stats=mean_sbar(data, init), theta=init)
    for _ in range(4):
        t_batch = batch_em_step(data, t_batch)
        state = minibatch_step(state, data, 1.0)
        assert _params_equal(t_batch, state.theta)


def test_zero_step_leaves_statistic_unchanged(rng):
    theta = make_gaussian_mixture(rng, 2, 2)
    data, _ = sample(theta, 50, rng)
    s = mean_sbar(data, theta)
    other = mean_sbar(data + 1.0, theta)
    mass, moment1, moment2 = _blend(
        (s.mass, s.moment1, s.moment2), (other.mass, other.moment1, other.moment2), 0.0
    )
    assert np.array_equal(mass, s.mass)
    assert np.array_equal(moment1, s.moment1)
    assert np.array_equal(moment2, s.moment2)


def test_single_point_batch_reduces_to_online_update(rng):
    theta = make_gaussian_mixture(rng, 1, 2)
    data, _ = sample(theta, 30, rng)
    init = random_partition_init(data, 2, rng)
    state = EmState(stats=mean_sbar(data[:5], init), theta=init)
    y = data[7:8]
    gamma = 0.3
    stepped = minibatch_step(state, y, gamma)
    point = mean_sbar(y[0], init)
    for block in ("mass", "moment1", "moment2"):
        manual = (1.0 - gamma) * getattr(state.stats, block) + gamma * getattr(point, block)
        np.testing.assert_allclose(getattr(stepped.stats, block), manual, atol=1e-15)


def test_step_mass_conservation(rng):
    theta = make_gaussian_mixture(rng, 2, 3)
    data, _ = sample(theta, 300, rng)
    init = random_partition_init(data, 3, rng)
    state = EmState(stats=mean_sbar(data[:30], init), theta=init)
    lr = DEFAULT_LEARNING_RATE
    for r in range(1, 40):
        batch = data[rng.integers(0, len(data), 30)]
        state = minibatch_step(state, batch, lr.at(r))
        assert abs(state.stats.mass.sum() - 1.0) <= 1e-10


def test_minibatch_step_rejects_bad_gamma(rng):
    theta = make_gaussian_mixture(rng, 1, 1)
    data, _ = sample(theta, 20, rng)
    state = EmState(stats=mean_sbar(data, theta), theta=theta)
    with pytest.raises(InvalidInputError):
        minibatch_step(state, data, 0.0)
    with pytest.raises(InvalidInputError):
        minibatch_step(state, data, 1.5)


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------

def test_region_contains_interior_point():
    theta = MixtureParams([0.5, 0.5], (Gaussian([0.0], [[1.0]]), Gaussian([1.0], [[1.0]])))
    assert region_contains(theta, TruncationRegion(1000, 1000, 1000))


def test_region_simplex_floor():
    # the weight floor is the first bound tested: a member that also breaks
    # the mean bound or the low eigenvalue reports the floor
    w = np.array([1e-6, 1.0 - 1e-6])
    for mean, var in ((0.0, 1.0), (2000.0, 1.0), (0.0, 1e-4)):
        theta = MixtureParams(w, (Gaussian([mean], [[var]]), Gaussian([1.0], [[1.0]])))
        assert region_breaks(theta, TruncationRegion(1000, 1000, 1000)) == "weight", (mean, var)


def test_region_eigenvalue_threshold_arithmetic():
    # each bound breaks at m = 0 and holds at m = 9001; where two break,
    # the mean comes before the low eigenvalue, and that before the high one
    cases = [
        ([0.0, 0.0], np.diag([1e-4, 1.0]), "low"),
        ([0.0, 0.0], np.diag([1e4, 1.0]), "high"),
        ([2000.0, 0.0], np.eye(2), "mean"),
        ([2000.0, 0.0], np.diag([1e-4, 1.0]), "mean"),
        ([0.0, 0.0], np.diag([1e-4, 1e4]), "low"),
    ]
    for mean, cov, reason in cases:
        theta = MixtureParams([1.0], (Gaussian(mean, cov),))
        assert region_breaks(theta, TruncationRegion(1000, 1000, 1000, m=0)) == reason, (mean, cov)
        assert region_breaks(theta, TruncationRegion(1000, 1000, 1000, m=9001)) is None, (mean, cov)


def test_region_rate_family_box():
    region = TruncationRegion(1000, 1000, 1000)
    theta = MixtureParams([0.5, 0.5], (Poisson(0.5), Poisson(3.0)))
    assert region_breaks(theta, region) is None
    tiny = MixtureParams([0.5, 0.5], (Poisson(1e-5), Poisson(3.0)))
    assert region_breaks(tiny, region) == "low"
    huge = MixtureParams([0.5, 0.5], (Poisson(0.5), Poisson(5e3)))
    assert region_breaks(huge, region) == "high"
    starved = MixtureParams([1e-6, 1.0 - 1e-6], (Poisson(1e-5), Poisson(3.0)))
    assert region_breaks(starved, region) == "weight"


def test_region_growth_is_monotone(rng):
    # membership at index m implies membership at m + 1
    for _ in range(50):
        theta = make_gaussian_mixture(rng, 2, 2)
        region = TruncationRegion(float(rng.uniform(1, 20)), float(rng.uniform(1, 20)),
                                  float(rng.uniform(1, 20)), m=int(rng.integers(0, 5)))
        if region_contains(theta, region):
            assert region_contains(theta, TruncationRegion(region.c1, region.c2, region.c3, m=region.m + 1))


def test_truncated_step_matches_plain_when_region_never_binds(rng):
    theta = make_gaussian_mixture(rng, 2, 2)
    data, _ = sample(theta, 200, rng)
    init = random_partition_init(data, 2, rng)
    region = TruncationRegion(1000, 1000, 1000)
    s0 = mean_sbar(data[:20], init)
    plain = EmState(stats=s0, theta=init)
    trunc = EmState(stats=s0, theta=init, region=region)
    for r in range(1, 20):
        batch = data[rng.integers(0, len(data), 20)]
        gamma = DEFAULT_LEARNING_RATE.at(r)
        plain = minibatch_step(plain, batch, gamma)
        trunc = minibatch_step(trunc, batch, gamma)
        assert _params_equal(plain.theta, trunc.theta)
        assert np.array_equal(plain.stats.mass, trunc.stats.mass)
    assert trunc.region == region


def test_truncated_step_resets_on_degenerate_candidate(rng):
    theta = make_gaussian_mixture(rng, 1, 2)
    data, _ = sample(theta, 100, rng)
    init = random_partition_init(data, 2, rng)
    region = TruncationRegion(1000, 1000, 1000)
    # statistic whose covariance collapses to a point mass: eigenvalue 0
    bad = mean_sbar(np.zeros((4, 1)), init)
    state = EmState(stats=bad, theta=init, region=region)
    stepped = minibatch_step(state, data[:10], 1e-6)
    assert stepped.region == replace(region, m=1)
    assert region_contains(stepped.theta, TruncationRegion(1000, 1000, 1000, m=0))
    # the public step is the only path to the reset statistic: it must be the
    # object-level reference's, bit for bit
    expected = _reference_reset_stat(state, data[:10], region)
    assert np.array_equal(stepped.stats.mass, expected.mass)
    assert np.array_equal(stepped.stats.moment1, expected.moment1)
    assert np.array_equal(stepped.stats.moment2, expected.moment2)


def test_truncation_index_monotone_and_counts_events(rng):
    theta = make_gaussian_mixture(rng, 1, 2)
    data, _ = sample(theta, 200, rng)
    init = random_partition_init(data, 2, rng)
    # a tight eigenvalue box forces repeated resets until m grows enough
    region = TruncationRegion(4.0, 1.0, 1.05)
    state = EmState(stats=mean_sbar(data[:20], init), theta=init, region=region)
    ms = [0]
    for r in range(1, 15):
        batch = data[rng.integers(0, len(data), 20)]
        state = minibatch_step(state, batch, DEFAULT_LEARNING_RATE.at(r))
        ms.append(state.region.m)
    diffs = np.diff(ms)
    assert np.all(diffs >= 0)
    assert np.all(diffs <= 1)
    assert state.region.m > region.m
    # a reset grows only the index: the constants stay those of the start
    assert state.region == replace(region, m=state.region.m)


def test_truncated_step_and_reset_need_a_region(rng):
    # the step reads the region from the state; without one it is untruncated
    theta = make_gaussian_mixture(rng, 1, 2)
    data, _ = sample(theta, 40, rng)
    state = EmState(stats=mean_sbar(data[:10], theta), theta=theta)
    assert state.region is None
    assert minibatch_step(state, data[10:20], 0.5).region is None


def test_reset_stat_identity_on_base_region():
    # dyadic parameter values survive the statistic round trip bit for bit
    theta = MixtureParams(
        [0.5, 0.5],
        (Gaussian([-2.0, 0.5], np.diag([1.0, 0.5])), Gaussian([2.0, -0.25], np.diag([0.25, 2.0]))),
    )
    data = np.array([[-2.0, 0.5], [2.0, -0.25], [-1.0, 0.0], [1.0, 0.25], [0.5, -1.0]])
    region = TruncationRegion(1000, 1000, 1000)
    state = EmState(stats=mean_sbar(data, theta), theta=theta, region=region)
    # anchor falls back to state.theta when the batch statistic is degenerate
    stats = reset_stat(
        EmState(stats=state.stats, theta=theta, region=region),
        np.array([[0.0, 0.0]]),  # single point: anchor M-step is degenerate
    )
    rebuilt = theta_bar(stats, theta.family_tag)
    assert _params_equal(rebuilt, theta)


def test_reset_stat_clips_small_eigenvalue(rng):
    theta = MixtureParams([1.0], (Gaussian([0.0], [[1e-9]]),))
    region = TruncationRegion(1000, 1000, 1000)
    state = EmState(stats=mean_sbar(np.array([[0.0]]), theta), theta=theta, region=region)
    stats = reset_stat(state, np.array([[0.0]]))
    rebuilt = theta_bar(stats, theta.family_tag)
    assert rebuilt.components[0].cov[0, 0] == pytest.approx(1e-3, rel=1e-9)
    assert region_contains(rebuilt, TruncationRegion(1000, 1000, 1000, m=0))


def test_reset_unrecoverable_when_weight_floor_infeasible(rng):
    from mbem.errors import TruncationError

    theta = make_gaussian_mixture(rng, 1, 2)
    data, _ = sample(theta, 60, rng)
    init = random_partition_init(data, 2, rng)
    # c1 = 1 demands every weight >= 1: no two-component vector can comply
    region = TruncationRegion(1.0, 1000.0, 1000.0)
    state = EmState(stats=mean_sbar(data[:10], init), theta=init, region=region)
    with pytest.raises(TruncationError):
        reset_stat(state, data[10:30])


def test_reset_stat_postcondition_on_random_states(rng):
    base = TruncationRegion(50, 50, 50)
    for _ in range(20):
        theta = make_gaussian_mixture(rng, 2, 2)
        data, _ = sample(theta, 60, rng)
        init = random_partition_init(data, 2, rng)
        state = EmState(stats=mean_sbar(data[:10], init), theta=init, region=base)
        stats = reset_stat(state, data[10:30])
        assert region_contains(theta_bar(stats, init.family_tag), TruncationRegion(50, 50, 50, m=0))


# Object-level reference for the truncation reset: the per-component
# projection and the reset built from the public maps, as they stood before
# the engine ran resets on stacked arrays.

def _project_into_base_region(
    theta: MixtureParams, region: TruncationRegion, margin: float = 0.0
) -> MixtureParams:
    """Project a parameter vector into the base (m = 0) region.

    Weights are floored and rebalanced on the simplex, mean coordinates are
    clipped, and covariance eigenvalues (or rates) are clipped.  Parameters
    already inside the region are returned unchanged, bit for bit.  A small
    ``margin`` shrinks the target region slightly so that rebuilding the
    statistic cannot round the image back outside.
    """
    floor = (1.0 + margin) / region.c1
    w = theta.weights
    if np.any(w < floor):
        if theta.g * floor > 1.0:
            raise TruncationError("weight floor is infeasible for this component count")
        lifted = np.maximum(w, floor)
        surplus = lifted.sum() - 1.0
        slack = lifted - floor
        w = lifted - surplus * slack / slack.sum()
    hi_mean = region.c2 * (1.0 - margin)
    lo_eig, hi_eig = (1.0 + margin) / region.c3, region.c3 * (1.0 - margin)
    if theta.family_tag == "gaussian":
        comps = []
        for comp in theta.components:
            mean = comp.mean
            if np.any(np.abs(mean) > hi_mean):
                mean = np.clip(mean, -hi_mean, hi_mean)
            cov = comp.cov
            eigs = np.linalg.eigvalsh(cov)
            if eigs[0] < lo_eig or eigs[-1] > hi_eig:
                vals, vecs = np.linalg.eigh(cov)
                vals = np.clip(vals, lo_eig, hi_eig)
                rebuilt = (vecs * vals) @ vecs.T
                cov = (rebuilt + rebuilt.T) / 2.0
            comps.append(Gaussian(mean, cov))
        return MixtureParams(w, tuple(comps))
    rates = theta.rates()
    clipped = np.clip(rates, lo_eig, hi_eig)
    comps = tuple(
        type(theta.components[0])(r) if r != c.rate else c
        for r, c in zip(clipped, theta.components)
    )
    return MixtureParams(w, comps)


def _reference_reset_stat(state: EmState, batch: np.ndarray, region: TruncationRegion):
    """Replacement statistic inside the base region after a truncation event.

    Builds the fresh-batch statistic at the last accepted parameters, maps it
    to parameter space (falling back to the last accepted parameters when the
    map is undefined), projects into the base region, and rebuilds the
    statistic from the projected parameters.  Deterministic given its inputs.
    """
    family = state.theta.family_tag
    try:
        anchor = theta_bar(mean_sbar(batch, state.theta), family)
    except (EmptyComponentError, DegenerateComponentError):
        anchor = state.theta
    base = replace(region, m=0)
    # Rounding in the rebuild can land an eigenvalue a hair outside the
    # region; retry with a slightly shrunken target before giving up.
    for margin in (0.0, 1e-12, 1e-9, 1e-6):
        projected = _project_into_base_region(anchor, region, margin)
        stats = stats_from_params(projected)
        if region_contains(theta_bar(stats, family), base):
            return stats
    raise TruncationError("projection failed to land inside the base region")


def _reset_theta(family, cov_scale=1.0):
    """Three components with weights 0.6 / 0.35 / 0.05 and spread-out scales."""
    rng = np.random.default_rng(31)
    weights = [0.6, 0.35, 0.05]
    if family == "exponential":
        return MixtureParams(weights, tuple(Exponential(r) for r in (0.2, 1.0, 5.0)))
    if family == "poisson":
        return MixtureParams(weights, tuple(Poisson(r) for r in (2.0, 8.0, 20.0)))
    d = int(family.split("-")[1])
    comps = []
    for z, eigs in enumerate((np.geomspace(0.05, 0.5, d), np.ones(d), np.geomspace(1.0, 3.0, d))):
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        cov = cov_scale * (q * eigs) @ q.T
        comps.append(Gaussian(np.full(d, 4.0 * (z - 1)), (cov + cov.T) / 2.0))
    return MixtureParams(weights, tuple(comps))


def _anchor_eigs(anchor):
    return np.linalg.eigvalsh(anchor.covariances())


# case: (truncation constants, covariance scale, guard on the reference anchor)
_RESET_CASES = {
    "inside": ((1000.0, 1000.0, 1000.0), 1.0, lambda a, r: region_contains(a, r)),
    "weight-floor": ((10.0, 1000.0, 1000.0), 1.0, lambda a, r: a.weights.min() < 1.0 / r.c1),
    "mean-clip": ((1000.0, 2.0, 1000.0), 1.0, lambda a, r: np.abs(a.means()).max() > r.c2),
    "low-eig": ((1000.0, 1000.0, 10.0), 1.0, lambda a, r: _anchor_eigs(a).min() < 1.0 / r.c3),
    "high-eig": ((1000.0, 1000.0, 10.0), 12.0, lambda a, r: _anchor_eigs(a).max() > r.c3),
    "rate-clip": ((1000.0, 1000.0, 2.0), 1.0,
                  lambda a, r: not ((a.rates() >= 1.0 / r.c3) & (a.rates() <= r.c3)).all()),
    "fallback": ((1000.0, 1000.0, 1000.0), 1.0, lambda a, r: a is None),
    "infeasible": ((1.0, 1000.0, 1000.0), 1.0, lambda a, r: True),
}


_GAUSSIAN_ONLY = ("mean-clip", "low-eig", "high-eig")


@pytest.mark.parametrize(
    "family, case",
    [
        (family, case)
        for family in ("gaussian-1", "gaussian-2", "gaussian-4", "exponential", "poisson")
        for case in _RESET_CASES
        if case not in (("rate-clip",) if family.startswith("gaussian") else _GAUSSIAN_ONLY)
    ],
)
def test_reset_stat_equals_object_reference(family, case):
    # the engine resets on stacked arrays; every statistic block must equal
    # the object-level reference bit for bit, on every projection branch
    gaussian = family.startswith("gaussian")
    constants, cov_scale, guard = _RESET_CASES[case]
    region = TruncationRegion(*constants)
    theta = _reset_theta(family, cov_scale)
    data, _ = sample(theta, 200, np.random.default_rng(32))
    # a one-point batch makes the anchor M-step undefined: a zero covariance,
    # or an infinite / zero rate at the point 0
    batch = (data[:1] if gaussian else np.zeros((1, 1))) if case == "fallback" else data
    try:
        anchor = theta_bar(mean_sbar(batch, theta), theta.family_tag)
    except (EmptyComponentError, DegenerateComponentError):
        anchor = None
    assert guard(anchor, region), "the case does not reach its branch"
    state = EmState(stats=mean_sbar(data, theta), theta=theta, region=region)
    if case == "infeasible":
        with pytest.raises(TruncationError):
            _reference_reset_stat(state, batch, region)
        with pytest.raises(TruncationError):
            reset_stat(state, batch)
        return
    expected = _reference_reset_stat(state, batch, region)
    got = reset_stat(state, batch)
    assert np.array_equal(got.mass, expected.mass)
    assert np.array_equal(got.moment1, expected.moment1)
    if gaussian:
        assert np.array_equal(got.moment2, expected.moment2)
    else:
        assert got.moment2 is None and expected.moment2 is None


# ---------------------------------------------------------------------------
# Polyak averaging
# ---------------------------------------------------------------------------

def test_polyak_first_term(rng):
    theta = make_gaussian_mixture(rng, 2, 2)
    assert polyak_update(None, theta, 1) is theta


def test_polyak_constant_sequence(rng):
    theta = make_gaussian_mixture(rng, 2, 2)
    acc = None
    for i in range(1, 20):
        acc = polyak_update(acc, theta, i)
    np.testing.assert_allclose(acc.weights, theta.weights, atol=1e-14)
    np.testing.assert_allclose(acc.means(), theta.means(), atol=1e-14)
    np.testing.assert_allclose(acc.covariances(), theta.covariances(), atol=1e-14)


def test_polyak_equals_mean_of_trace(rng):
    theta = make_gaussian_mixture(rng, 2, 2)
    data, _ = sample(theta, 500, rng)
    init = random_partition_init(data, 2, rng)
    cfg = RunConfig(epochs=5, batch_size=50, polyak=True, seed=9)
    rec = run(data, cfg, init)
    iterates, averages, state = replay(data, cfg, init)
    # the replay is the run's own trajectory
    assert _params_equal(state.theta, rec.final_theta)
    assert _params_equal(averages[-1], rec.polyak_theta)
    acc = rec.polyak_theta
    np.testing.assert_allclose(acc.weights, np.mean([t.weights for t in iterates], axis=0), atol=1e-12)
    np.testing.assert_allclose(acc.means(), np.mean([t.means() for t in iterates], axis=0), atol=1e-12)
    np.testing.assert_allclose(
        acc.covariances(), np.mean([t.covariances() for t in iterates], axis=0), atol=1e-12
    )


def test_polyak_missing_accumulator_is_invalid_input(rng):
    theta = make_gaussian_mixture(rng, 2, 2)
    for i in (2, 5):
        with pytest.raises(InvalidInputError, match="theta_acc"):
            polyak_update(None, theta, i)


def test_polyak_rate_family():
    a = MixtureParams([0.5, 0.5], (Poisson(1.0), Poisson(2.0)))
    b = MixtureParams([0.25, 0.75], (Poisson(3.0), Poisson(6.0)))
    acc = polyak_update(polyak_update(None, a, 1), b, 2)
    np.testing.assert_allclose(acc.rates(), [2.0, 4.0], atol=1e-15)
    np.testing.assert_allclose(acc.weights, [0.375, 0.625], atol=1e-15)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_epoch_accounting(rng):
    theta = make_gaussian_mixture(rng, 1, 2)
    data, _ = sample(theta, 1000, rng)
    init = random_partition_init(data, 2, rng)
    rec = run(data, RunConfig(epochs=10, batch_size=100, seed=1), init)
    assert rec.iterations == 100
    assert len(rec.trace) == 10
    rec = run(data, RunConfig(epochs=10, batch_size=200, seed=1), init)
    assert rec.iterations == 50
    rec = run(data, RunConfig(epochs=10), init)
    assert rec.iterations == 10


def test_run_determinism(rng):
    theta = make_gaussian_mixture(rng, 2, 2)
    data, _ = sample(theta, 600, rng)
    init = random_partition_init(data, 2, rng)
    cfg = RunConfig(epochs=4, batch_size=60, truncation=TruncationRegion(), polyak=True, seed=77)
    a = run(data, cfg, init)
    b = run(data, cfg, init)
    assert _params_equal(a.final_theta, b.final_theta)
    assert _params_equal(a.polyak_theta, b.polyak_theta)
    assert a.truncation_events == b.truncation_events
    for ta, tb in zip(a.trace, b.trace):
        assert _params_equal(ta, tb)


@pytest.mark.parametrize("batch_size", [100, None], ids=["minibatch", "batch"])
def test_run_wraps_engine_errors_with_iteration_index(batch_size):
    # untruncated run from a degenerate start: one component swallows no points
    data = np.concatenate([np.random.default_rng(0).normal(-4, 1, 500),
                           np.random.default_rng(1).normal(4, 1, 500)])[:, None]
    init = MixtureParams([0.5, 0.5], (Gaussian([0.0], [[1e-9]]), Gaussian([1.0], [[1.0]])))
    with pytest.raises(EngineRunError) as err:
        run(data, RunConfig(epochs=2, batch_size=batch_size, seed=3), init)
    assert err.value.iteration == 1


@pytest.mark.parametrize("batch_size", [10, None], ids=["minibatch", "batch"])
def test_run_rejects_non_finite_row_at_iteration_zero(batch_size):
    # with seed 0 the one mini-batch epoch never draws row 123; the data are
    # invalid all the same and must be rejected before the first step
    truth = MixtureParams([0.5, 0.5], (Gaussian([-3.0], [[1.0]]), Gaussian([3.0], [[1.0]])))
    data, _ = sample(truth, 1000, np.random.default_rng(0))
    data[123, 0] = np.nan
    with pytest.raises(EngineRunError) as err:
        run(data, RunConfig(epochs=1, batch_size=batch_size, seed=0), truth)
    assert err.value.iteration == 0
    assert isinstance(err.value.__cause__, InvalidInputError)


def test_batch_run_is_iterated_batch_em_step(rng):
    # batch EM runs through the mini-batch loop at gamma = 1 on the full data;
    # its trace must match the standalone sweep bit for bit
    theta = make_gaussian_mixture(rng, 2, 3)
    data, _ = sample(theta, 300, rng)
    init = random_partition_init(data, 3, rng)
    rec = run(data, RunConfig(epochs=6, polyak=True), init)
    sweeps, t = [], init
    for _ in range(6):
        t = batch_em_step(data, t)
        sweeps.append(t)
    assert rec.iterations == len(rec.trace) == len(rec.polyak_trace) == 6
    for r, (traced, averaged) in enumerate(zip(rec.trace, rec.polyak_trace), start=1):
        assert _params_equal(traced, sweeps[r - 1])
        head = sweeps[:r]
        np.testing.assert_allclose(averaged.weights, np.mean([s.weights for s in head], axis=0), atol=1e-12)
        np.testing.assert_allclose(averaged.means(), np.mean([s.means() for s in head], axis=0), atol=1e-12)
        np.testing.assert_allclose(
            averaged.covariances(), np.mean([s.covariances() for s in head], axis=0), atol=1e-12
        )
    assert rec.final_theta is rec.trace[-1]
    assert rec.polyak_theta is rec.polyak_trace[-1]


def test_run_recovers_poisson_mixture_rates():
    truth = MixtureParams([0.4, 0.6], (Poisson(2.0), Poisson(15.0)))
    data, _ = sample(truth, 50_000, np.random.default_rng(8))
    init = MixtureParams([0.5, 0.5], (Poisson(1.0), Poisson(20.0)))
    rec = run(data, RunConfig(epochs=10, batch_size=5_000, seed=2), init)
    rates = np.sort(rec.final_theta.rates())
    np.testing.assert_allclose(rates, [2.0, 15.0], atol=0.15)
    np.testing.assert_allclose(np.sort(rec.final_theta.weights), [0.4, 0.6], atol=0.02)


def test_truncated_run_on_exponential_mixture():
    from mbem.families import Exponential

    truth = MixtureParams([0.5, 0.5], (Exponential(0.2), Exponential(5.0)))
    data, _ = sample(truth, 20_000, np.random.default_rng(4))
    init = MixtureParams([0.5, 0.5], (Exponential(0.5), Exponential(2.0)))
    cfg = RunConfig(epochs=10, batch_size=2_000, truncation=TruncationRegion(), seed=6)
    rec = run(data, cfg, init)
    rates = np.sort(rec.final_theta.rates())
    np.testing.assert_allclose(rates, [0.2, 5.0], rtol=0.15)
    assert rec.truncation_events == 0  # default region never binds here


def test_run_batch_size_validation(rng):
    theta = make_gaussian_mixture(rng, 1, 1)
    data, _ = sample(theta, 20, rng)
    with pytest.raises(InvalidInputError):
        run(data, RunConfig(epochs=1, batch_size=50), theta)
    # without a batch size the run is batch EM: one iteration per epoch
    rec = run(data, RunConfig(), theta)
    assert rec.iterations == RunConfig().epochs == len(rec.trace)
    assert rec.truncation_events == 0
    # a region needs a batch size: there is no truncated batch EM
    with pytest.raises(InvalidInputError):
        RunConfig(epochs=1, batch_size=None, truncation=TruncationRegion())
    with pytest.raises(InvalidInputError):
        RunConfig(truncation=TruncationRegion())
    with pytest.raises(InvalidInputError):
        RunConfig(batch_size=0)


IRIS_CSV = Path(__file__).parent / "data" / "iris.csv"


def _iris_case(truncated, polyak):
    rng = np.random.default_rng(11)
    template = template_from_labeled_data(*read_labeled_csv(IRIS_CSV))
    data, _ = sample(template, 600, rng)
    init = random_partition_init(data, 3, rng)
    # batch size 1 makes the truncated run reset; untruncated EM needs a
    # full-rank first statistic, so it gets larger batches
    batch = 1 if truncated else 20
    region = TruncationRegion() if truncated else None
    return data, RunConfig(epochs=2, batch_size=batch, truncation=region, polyak=polyak, seed=5), init


def _poisson_case(truncated, polyak):
    truth = MixtureParams([0.4, 0.6], (Poisson(2.0), Poisson(15.0)))
    data, _ = sample(truth, 300, np.random.default_rng(3))
    init = MixtureParams([0.5, 0.5], (Poisson(1.0), Poisson(5.0)))
    # the rate box [1/(3+m), 3+m] excludes rate 15 until m has grown
    region = TruncationRegion(20.0, 2.0, 3.0) if truncated else None
    cfg = RunConfig(epochs=2, batch_size=4, polyak=polyak, truncation=region, seed=7)
    return data, cfg, init


def _poisson_uneven_case(truncated, polyak):
    # batch size 7 does not divide n = 300: each epoch draws 43 batches
    # (301 indices), so a draw that follows n rather than the batches of an
    # epoch falls out of step with the replay from the second epoch on
    data, cfg, init = _poisson_case(truncated, polyak)
    return data, replace(cfg, batch_size=7), init


@pytest.mark.parametrize("polyak", [False, True], ids=["plain", "polyak"])
@pytest.mark.parametrize("truncated", [False, True], ids=["minibatch", "truncated-minibatch"])
@pytest.mark.parametrize(
    "case", [_iris_case, _poisson_case, _poisson_uneven_case], ids=["gaussian", "poisson", "poisson-b7"]
)
def test_run_is_iterated_public_steps(case, truncated, polyak):
    # run() iterates on stacked arrays; every record entry must equal the
    # object-level steps replayed on the same draws, bit for bit
    data, cfg, init = case(truncated, polyak)
    rec = run(data, cfg, init)
    iterates, averages, state = replay(data, cfg, init)
    per_epoch = math.ceil(len(data) / cfg.batch_size)
    assert rec.iterations == len(iterates)
    assert len(rec.trace) == cfg.epochs
    assert all(_params_equal(a, b) for a, b in zip(rec.trace, iterates[per_epoch - 1 :: per_epoch]))
    assert _params_equal(rec.final_theta, state.theta)
    if polyak:
        assert len(rec.polyak_trace) == cfg.epochs
        assert all(
            _params_equal(a, b) for a, b in zip(rec.polyak_trace, averages[per_epoch - 1 :: per_epoch])
        )
        assert _params_equal(rec.polyak_theta, averages[-1])
    else:
        assert rec.polyak_theta is None and rec.polyak_trace == []
    assert rec.truncation_events == (state.region.m - cfg.truncation.m if truncated else 0)
    assert sum(rec.resets.values()) == rec.truncation_events
    if truncated:
        assert rec.truncation_events > 0


@pytest.mark.parametrize(
    "seed, resets",
    [
        (1, {"weight": 145, "low": 104, "DegenerateCovarianceError": 1}),
        (2, {"weight": 167, "low": 109, "DegenerateCovarianceError": 1}),
        (3, {"weight": 196, "low": 62, "DegenerateCovarianceError": 1}),
    ],
    ids=["seed1", "seed2", "seed3"],
)
def test_online_resets_per_reason(seed, resets):
    # truncated batch-size-1 EM on the iris template resets 250, 277 and
    # 259 times in 5000 steps, mostly on the weight floor: a reset lifts a
    # starved component to weight 1/c1, and it decays below the floor again.
    # The first step's covariance rests on two rows and is singular.
    template = template_from_labeled_data(*read_labeled_csv(IRIS_CSV))
    data, _ = sample(template, 5000, np.random.default_rng(1))
    init = random_partition_init(data, 3, np.random.default_rng(seed))
    cfg = RunConfig(epochs=1, batch_size=1, truncation=TruncationRegion(), seed=seed)
    rec = run(data, cfg, init)
    assert rec.resets == resets
    assert rec.truncation_events == sum(resets.values())


def test_truncation_events_count_from_a_nonzero_start():
    # a region that starts at m = 3 reports the resets of this run only
    data, cfg, init = _poisson_case(True, False)
    cfg = replace(cfg, truncation=replace(cfg.truncation, m=3))
    rec = run(data, cfg, init)
    _, _, state = replay(data, cfg, init)
    assert state.region.m > 3
    assert rec.truncation_events == state.region.m - 3


# ---------------------------------------------------------------------------
# runs in lockstep
# ---------------------------------------------------------------------------

def _outcome(result):
    """Every field of a run's result, or its error's type, iteration,
    message and cause type."""
    if isinstance(result, Exception):
        return type(result), result.iteration, str(result), type(result.__cause__)

    def value(v):
        if isinstance(v, list):
            return [value(t) for t in v]
        if isinstance(v, MixtureParams):
            blocks = (v.means(), v.covariances()) if v.family_tag == "gaussian" else (v.rates(),)
            return tuple(a.tobytes() for a in (v.weights, *blocks))
        return v

    return {f.name: value(getattr(result, f.name)) for f in fields(result)}


def _alone(data, config, init):
    try:
        return run(data, config, init)
    except EngineRunError as exc:
        return exc


def _assert_lockstep_equals_alone(data, configs, init):
    group = run(data, configs, init)
    assert isinstance(group, tuple) and len(group) == len(configs)
    for config, result in zip(configs, group):
        assert _outcome(result) == _outcome(_alone(data, config, init)), config
    return group


@pytest.mark.parametrize("batch_size", [1, 2, 10, 500])
@pytest.mark.parametrize("d", [1, 4, 50])
def test_lockstep_run_equals_each_run_alone(d, batch_size):
    # mb, mb-polyak, mb-trunc and mb-trunc-polyak of one batch size, each
    # with its own seed, as the grid groups them; at batch size 500 an
    # epoch is one batch, drawn by one call per step
    rng = np.random.default_rng([d, batch_size])
    data, _ = sample(make_gaussian_mixture(rng, d, 3), 500, rng)
    init = random_partition_init(data, 3, rng)
    configs = tuple(
        RunConfig(
            epochs=1 if d == 50 else 2,
            batch_size=batch_size,
            truncation=TruncationRegion() if truncated else None,
            polyak=polyak,
            seed=seed,
        )
        for seed, (truncated, polyak) in enumerate(
            [(False, False), (False, True), (True, False), (True, True)], start=40
        )
    )
    _assert_lockstep_equals_alone(data, configs, init)


@pytest.mark.parametrize("batch_size", [1, 3, 10])
def test_draw_chunk_size_moves_no_bit(monkeypatch, batch_size):
    # one index per call, 7 per call (chunks that straddle the epoch
    # boundary) and a whole run per call give the default's records, in a
    # group and alone
    rng = np.random.default_rng([997, batch_size])
    data, _ = sample(make_gaussian_mixture(rng, 4, 3), 997, rng)
    init = random_partition_init(data, 3, rng)
    base = RunConfig(epochs=2, batch_size=batch_size, truncation=TruncationRegion(), seed=30)
    configs = (base, replace(base, seed=31, polyak=True), replace(base, seed=32, truncation=None))

    def outcomes():
        group = run(data, configs, init)
        return [_outcome(r) for r in group] + [_outcome(_alone(data, c, init)) for c in configs]

    expected = outcomes()
    assert all(isinstance(o, dict) for o in expected[:2])
    for elements in (1, 7, 2**20):
        monkeypatch.setattr(mbem.engine, "_DRAW_ELEMENTS", elements)
        assert outcomes() == expected, elements


def test_lockstep_members_reset_at_different_steps():
    # truncated batch-size-1 runs reset often; with their own seeds and
    # regions they reset at different steps and different counts
    data, config, init = _iris_case(True, True)
    configs = (
        config,
        replace(config, seed=6, polyak=False),
        replace(config, seed=7, truncation=TruncationRegion(500.0, 1000.0, 1000.0, m=3)),
    )
    group = _assert_lockstep_equals_alone(data, configs, init)
    events = [r.truncation_events for r in group]
    assert min(events) > 0 and len(set(events)) == len(events)
    # the steps at which each run resets, from the public steps on its draws
    resets = []
    for cfg in configs:
        rng = np.random.default_rng(cfg.seed)
        n = len(data)
        state = EmState(mean_sbar(data[rng.integers(0, n, size=1)], init), init, cfg.truncation)
        at = []
        for r in range(1, cfg.epochs * n + 1):
            m = state.region.m
            state = minibatch_step(state, data[rng.integers(0, n, size=1)], cfg.learning_rate.at(r))
            if state.region.m > m:
                at.append(r)
        assert len(at) == state.region.m - cfg.truncation.m
        resets.append(tuple(at))
    assert len(set(resets)) == len(resets)


def test_lockstep_failing_member_leaves_the_group():
    # untruncated batch-size-1 EM fails at iteration 1 on the iris template;
    # its truncated twins run on, and the failure is the one it raises alone
    data, config, init = _iris_case(True, False)
    configs = (replace(config, truncation=None), config, replace(config, seed=8, polyak=True))
    group = _assert_lockstep_equals_alone(data, configs, init)
    assert isinstance(group[0], EngineRunError) and group[0].iteration == 1
    assert all(r.iterations == config.epochs * len(data) for r in group[1:])
    with pytest.raises(EngineRunError, match=str(group[0]).replace("(", r"\(")) as err:
        run(data, configs[0], init)
    assert err.value.iteration == 1


@pytest.mark.parametrize("truncated", [False, True], ids=["minibatch", "truncated-minibatch"])
def test_lockstep_rate_family_equals_each_run_alone(truncated):
    data, config, init = _poisson_case(truncated, False)
    configs = (config, replace(config, seed=9, polyak=True), replace(config, seed=10))
    _assert_lockstep_equals_alone(data, configs, init)


def test_lockstep_batch_em_group():
    data, _, init = _iris_case(False, False)
    _assert_lockstep_equals_alone(data, (RunConfig(epochs=3), RunConfig(epochs=3, polyak=True)), init)


def test_run_returns_a_record_for_a_config_and_a_tuple_for_a_tuple():
    data, config, init = _iris_case(False, True)
    record = run(data, config, init)
    (grouped,) = run(data, (config,), init)
    assert _outcome(grouped) == _outcome(record)


@pytest.mark.parametrize(
    "change",
    [{"epochs": 3}, {"batch_size": 21}, {"learning_rate": LearningRate(0.5, 0.6)}],
    ids=["epochs", "batch_size", "learning_rate"],
)
def test_lockstep_configs_must_share_epochs_batch_size_and_schedule(change):
    data, config, init = _iris_case(False, False)
    with pytest.raises(InvalidInputError, match="lockstep"):
        run(data, (config, replace(config, seed=9, **change)), init)
    with pytest.raises(InvalidInputError):
        run(data, (), init)
