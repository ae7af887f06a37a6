"""EM iteration machinery: batch, online/mini-batch, and truncated variants.

The mini-batch update follows the stochastic-approximation form

    s_r = s_{r-1} + gamma_r * (mean_i sbar(y_i; theta_{r-1}) - s_{r-1}),
    theta_r = theta_bar(s_r),

with batch size 1 recovering the online update and gamma = 1 with the full
data recovering one batch EM sweep.  A truncation region added to the same
step gives the truncated variant: it tests the candidate parameter against a
growing family of compact regions; leaving the current region triggers a
reset to a projected statistic inside the base region and grows the region
index by one.  So two values choose the variant: the batch size (none for
batch EM) and the region (none for untruncated EM).

:func:`run` iterates on stacked arrays: the statistic blocks
``(mass, moment1, moment2)`` and the parameter stack of
:mod:`mbem.families` (weights, means, covariances, their Cholesky factors
and log normalisers, or rates).  Each M-step factorises once and the next
E-step reuses that factor.  A truncation reset (``_reset``) starts from the
batch E-step the rejected step computed, projects its M-step image into the
base region (``_project``) and rebuilds the statistic from it, also on
arrays, and hands back the factored M-step image it tested.  Batch indices
are drawn with one generator call per epoch.
``MixtureParams`` objects are built only at epoch boundaries (the trace),
with ``keep_iterates`` and for the returned results.  The public step
functions and :func:`reset_stat` wrap the same array maps and read the region
from the state they are given.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateComponentError,
    EmptyComponentError,
    EngineRunError,
    EstimationError,
    InvalidInputError,
    TruncationError,
)
from .families import (
    MixtureParams,
    SuffStats,
    _as_data_matrix,
    _blend,
    _estep,
    _mstep,
    _stack,
    _Stacked,
    _stats,
    mean_sbar,
    theta_bar,
)


# ---------------------------------------------------------------------------
# learning-rate schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LearningRate:
    """Robbins-Monro step-size schedule gamma_r = gamma0 * r**(-alpha).

    With gamma0 in (0, 1) and alpha in (1/2, 1] every step lies in (0, 1),
    sum gamma_r diverges, and sum gamma_r**2 converges.
    """

    gamma0: float
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.gamma0 < 1.0:
            raise InvalidInputError(f"gamma0 must lie in (0, 1), got {self.gamma0}")
        if not 0.5 < self.alpha <= 1.0:
            raise InvalidInputError(f"alpha must lie in (1/2, 1], got {self.alpha}")

    def at(self, r: int) -> float:
        """Step size for iteration ``r`` (1-based)."""
        if r < 1:
            raise InvalidInputError(f"iteration index must be >= 1, got {r}")
        return self.gamma0 * float(r) ** (-self.alpha)


#: Schedule used throughout the experiment protocols.
DEFAULT_LEARNING_RATE = LearningRate(gamma0=1.0 - 1e-10, alpha=0.6)


# ---------------------------------------------------------------------------
# truncation regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TruncationRegion:
    """Growing compact parameter region indexed by ``m``.

    For the normal family the region at index m keeps weights at or above
    1/(c1+m), mean coordinates inside [-(c2+m), c2+m], and covariance
    eigenvalues inside [1/(c3+m), c3+m].  Rate families use the weight floor
    and confine rates to [1/(c3+m), c3+m].
    """

    c1: float = 1000.0
    c2: float = 1000.0
    c3: float = 1000.0
    m: int = 0

    def __post_init__(self):
        if min(self.c1, self.c2, self.c3) < 1.0:
            raise InvalidInputError("truncation constants must be >= 1")
        if self.m < 0:
            raise InvalidInputError("region index must be nonnegative")

    def grown(self) -> "TruncationRegion":
        """Region after one reset: the index advances by one."""
        return replace(self, m=self.m + 1)


def _inside(p: _Stacked, region: TruncationRegion) -> bool:
    """Whether a parameter stack lies in the region at its current index;
    one batched ``eigvalsh``.

    Each bound is tested on one extreme value.  As in an elementwise test, a
    NaN weight or mean coordinate is never out of bounds (``fmin``/``fmax``
    skip it) and a NaN eigenvalue or rate is never in bounds."""
    m = float(region.m)
    if np.fmin.reduce(p.weights) < 1.0 / (region.c1 + m):
        return False
    lo, hi = 1.0 / (region.c3 + m), region.c3 + m
    if p.family == "gaussian":
        if np.fmax.reduce(np.abs(p.means), axis=None) > region.c2 + m:
            return False
        eigs = np.linalg.eigvalsh(p.covs)
        return bool(eigs[:, 0].min() >= lo and eigs[:, -1].max() <= hi)
    return bool(p.rates.min() >= lo and p.rates.max() <= hi)


def _project(p: _Stacked, region: TruncationRegion, margin: float = 0.0) -> _Stacked:
    """Project a parameter stack into the base (m = 0) region.

    Weights are floored and rebalanced on the simplex, mean coordinates are
    clipped, and covariance eigenvalues (or rates) are clipped.  Parameters
    already inside the region are returned unchanged, bit for bit.  A small
    ``margin`` shrinks the target region slightly so that rebuilding the
    statistic cannot round the image back outside.  The result is not
    factored.
    """
    floor = (1.0 + margin) / region.c1
    w = p.weights
    if (w < floor).any():
        if w.shape[0] * floor > 1.0:
            raise TruncationError("weight floor is infeasible for this component count")
        lifted = np.maximum(w, floor)
        surplus = lifted.sum() - 1.0
        slack = lifted - floor
        w = lifted - surplus * slack / slack.sum()
    hi_mean = region.c2 * (1.0 - margin)
    lo_eig, hi_eig = (1.0 + margin) / region.c3, region.c3 * (1.0 - margin)
    if p.family != "gaussian":
        return _Stacked(p.family, w, rates=np.clip(p.rates, lo_eig, hi_eig))
    covs = p.covs
    eigs = np.linalg.eigvalsh(covs)
    outside = np.flatnonzero((eigs[:, 0] < lo_eig) | (eigs[:, -1] > hi_eig))
    if outside.size:
        covs = covs.copy()
        for z in outside:
            vals, vecs = np.linalg.eigh(covs[z])
            vals = np.clip(vals, lo_eig, hi_eig)
            rebuilt = (vecs * vals) @ vecs.T
            covs[z] = (rebuilt + rebuilt.T) / 2.0
    return _Stacked(p.family, w, np.clip(p.means, -hi_mean, hi_mean), covs)


# ---------------------------------------------------------------------------
# engine state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmState:
    """Engine state between steps.

    ``theta`` equals the M-step image of ``stats`` after every completed step;
    before the first step it is the supplied initializer.  ``region`` is the
    current truncation region: with one, :func:`minibatch_step` is truncated;
    :func:`reset_stat` requires it.
    """

    stats: SuffStats
    theta: MixtureParams
    region: TruncationRegion | None = None


# ---------------------------------------------------------------------------
# steps
# ---------------------------------------------------------------------------

def batch_em_step(data: np.ndarray, theta: MixtureParams) -> MixtureParams:
    """One full E+M sweep over ``data``.

    Reference for :func:`run` without a batch size (batch EM), whose
    per-epoch trace equals iterated calls of this function bit for bit.
    """
    return theta_bar(mean_sbar(data, theta), theta.family_tag)


def _check_gamma(gamma: float) -> None:
    if not 0.0 < gamma <= 1.0:
        raise InvalidInputError(f"step size must lie in (0, 1], got {gamma}")


def _advance(
    stats: tuple, params: _Stacked, batch: np.ndarray, gamma: float, region: TruncationRegion | None
) -> tuple:
    """One step on arrays: ``(stats, params, region)`` after the step.

    ``stats`` is ``(mass, moment1, moment2)``, ``params`` the factored stack
    of its M-step image and ``batch`` a validated (n, d) matrix.  With a
    ``region`` the step is truncated and a reset goes through :func:`_reset`.
    """
    sbar = _estep(batch, params)
    candidate = _blend(stats, sbar, gamma)
    if region is None:
        return candidate, _mstep(candidate, params.family), None
    try:
        theta = _mstep(candidate, params.family)
        inside = _inside(theta, region)
    except (EmptyComponentError, DegenerateComponentError):
        inside = False
    if inside:
        return candidate, theta, region
    stats, theta = _reset(params, sbar, region)
    return stats, theta, region.grown()


def minibatch_step(state: EmState, batch: np.ndarray, gamma: float) -> EmState:
    """One stochastic-approximation step, truncated when ``state.region`` is set.

    Without a region the candidate is always accepted.  With one, a
    candidate outside ``state.region``, or whose M-step image is undefined
    (empty component, degenerate covariance, nonpositive rate), is replaced
    by a reset, and the returned state carries the grown region.
    """
    _check_gamma(gamma)
    data = _as_data_matrix(batch, state.theta.dim)
    s = state.stats
    stats, params, region = _advance(
        (s.mass, s.moment1, s.moment2), _stack(state.theta), data, gamma, state.region
    )
    return EmState(SuffStats(*stats), params.mixture(), region)


def reset_stat(state: EmState, batch: np.ndarray) -> SuffStats:
    """Replacement statistic inside the base region after a truncation event.

    Builds the fresh-batch statistic at the last accepted parameters, maps it
    to parameter space (falling back to the last accepted parameters when the
    map is undefined), projects into the base region of ``state.region``, and
    rebuilds the statistic from the projected parameters.  Deterministic
    given its inputs.  Raises :class:`InvalidInputError` when
    ``state.region`` is None.
    """
    if state.region is None:
        raise InvalidInputError("reset_stat needs a state with a region, got region=None")
    data = _as_data_matrix(batch, state.theta.dim)
    params = _stack(state.theta)
    return SuffStats(*_reset(params, _estep(data, params), state.region)[0])


def _reset(params: _Stacked, sbar: tuple, region: TruncationRegion) -> tuple:
    """:func:`reset_stat` on arrays, given the batch E-step ``sbar`` at
    ``params``: the statistic blocks and their factored M-step image."""
    try:
        anchor = _mstep(sbar, params.family)
    except (EmptyComponentError, DegenerateComponentError):
        anchor = params
    base = replace(region, m=0)
    # Rounding in the rebuild can land an eigenvalue a hair outside the
    # region; retry with a slightly shrunken target before giving up.
    for margin in (0.0, 1e-12, 1e-9, 1e-6):
        stats = _stats(_project(anchor, region, margin))
        theta = _mstep(stats, params.family)
        if _inside(theta, base):
            return stats, theta
    raise TruncationError("projection failed to land inside the base region")


# ---------------------------------------------------------------------------
# Polyak averaging
# ---------------------------------------------------------------------------

def polyak_update(theta_acc: MixtureParams | None, theta_new: MixtureParams, i: int) -> MixtureParams:
    """Running average of parameter iterates, element-wise per block.

    Uses the iterative form avg_i = ((i - 1) * avg_{i-1} + theta_i) / i, so no
    iterate history is stored.  At i = 1 the accumulator is the new iterate;
    from i = 2 on, ``theta_acc`` must be the average of iterates 1 to i - 1.
    """
    if i < 1:
        raise InvalidInputError(f"averaging index must be >= 1, got {i}")
    if i == 1:
        return theta_new
    if theta_acc is None:
        raise InvalidInputError(
            f"averaging index {i} needs theta_acc, the average of iterates 1 to {i - 1}; got None"
        )
    return _average(_stack(theta_acc), _stack(theta_new), i).mixture()


def _average(acc: _Stacked | None, new: _Stacked, i: int) -> _Stacked:
    """:func:`polyak_update` on stacked arrays; the result is not factored."""
    if i == 1:
        return new
    prev = float(i - 1)
    inv = 1.0 / float(i)
    weights = (prev * acc.weights + new.weights) * inv
    if new.family == "gaussian":
        means = (prev * acc.means + new.means) * inv
        covs = (prev * acc.covs + new.covs) * inv
        return _Stacked(new.family, weights, means, covs)
    return _Stacked(new.family, weights, rates=(prev * acc.rates + new.rates) * inv)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """One run: budget, batch size, schedule, truncation region, averaging, seed.

    The batch size and the region choose the variant.  ``batch_size=None``
    is batch EM; a batch size N is mini-batch EM (online EM at N = 1),
    truncated when ``truncation`` holds a region.  A region needs a batch
    size: there is no truncated batch EM.
    """

    epochs: int = 10
    batch_size: int | None = None
    learning_rate: LearningRate = DEFAULT_LEARNING_RATE
    truncation: TruncationRegion | None = None
    polyak: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise InvalidInputError("epoch budget must be at least 1")
        if self.batch_size is None:
            if self.truncation is not None:
                raise InvalidInputError("truncated EM needs a batch size; batch EM takes no region")
        elif self.batch_size < 1:
            raise InvalidInputError(f"batch size must be at least 1, got {self.batch_size}")


@dataclass
class RunRecord:
    """Everything one run produced: parameters, per-epoch traces, counts, timings."""

    final_theta: MixtureParams
    polyak_theta: MixtureParams | None
    trace: list
    polyak_trace: list
    iterations: int
    truncation_events: int
    wall_time: float
    cpu_time: float
    iterates: list | None = None


def run(
    data: np.ndarray,
    config: RunConfig,
    init: MixtureParams,
    *,
    keep_iterates: bool = False,
) -> RunRecord:
    """Execute one configured run and record its trace.

    ``config.batch_size`` and ``config.truncation`` choose the variant (see
    :class:`RunConfig`).  Mini-batch variants perform epochs * ceil(n / N)
    iterations on batches drawn uniformly with replacement by
    ``default_rng(config.seed)``, the run's only source of randomness,
    starting from the E-step average of one such batch at ``init``.  Batch
    EM is the same loop with the whole data set as the batch and gamma_r = 1:
    one iteration per epoch, no draws, starting from the statistic whose
    M-step image is ``init``.  The trace is recorded at epoch boundaries.
    ``truncation_events`` is the number of resets, the growth of the region
    index m over the run.  Identical seed and config give a bit-identical
    record apart from the timing fields.

    The loop works on stacked arrays (see the module docstring).  ``data``
    is checked once: a non-finite row or a wrong width raises
    :class:`EngineRunError` at iteration 0.  The record equals iterating
    :func:`minibatch_step` from a state that carries ``config.truncation``,
    and :func:`polyak_update`, on the same draws, bit for bit.
    """
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        data = _as_data_matrix(data, init.dim)
    except InvalidInputError as exc:
        raise EngineRunError(0, str(exc)) from exc
    n = data.shape[0]
    full = config.batch_size is None
    if full:
        per_epoch = 1
    else:
        if config.batch_size > n:
            raise InvalidInputError(f"batch size {config.batch_size} exceeds data size {n}")
        per_epoch = math.ceil(n / config.batch_size)
        rng = np.random.default_rng(config.seed)

    def batches():
        """Every iteration's batch: the data itself (batch EM), or rows drawn
        with one index call per epoch, which yields the same stream as one
        call per batch and holds at most n + N - 1 indices."""
        for _ in range(config.epochs):
            if full:
                yield data
            else:
                for rows in rng.integers(0, n, size=(per_epoch, config.batch_size)):
                    yield data.take(rows, axis=0)

    try:
        params = _stack(init)
        if full:
            # At gamma = 1 the blend keeps none of s0 (0 * s0 + 1 * s == s).
            stats = _stats(params)
        else:
            stats = _estep(data.take(rng.integers(0, n, size=config.batch_size), axis=0), params)
    except EstimationError as exc:
        raise EngineRunError(0, str(exc)) from exc
    region = config.truncation
    total = config.epochs * per_epoch
    acc = None
    trace, polyak_trace, iterates = [], [], []
    for r, batch in enumerate(batches(), start=1):
        gamma = 1.0 if full else config.learning_rate.at(r)
        try:
            stats, params, region = _advance(stats, params, batch, gamma, region)
        except EstimationError as exc:
            raise EngineRunError(r, str(exc)) from exc
        if config.polyak:
            acc = _average(acc, params, r)
        boundary = r % per_epoch == 0
        theta = params.mixture() if keep_iterates or boundary else None
        if keep_iterates:
            iterates.append(theta)
        if boundary:
            trace.append(theta)
            if config.polyak:
                polyak_trace.append(acc.mixture())
    # The last iteration ends an epoch, so the trace holds the final iterates.
    return RunRecord(
        final_theta=trace[-1],
        polyak_theta=polyak_trace[-1] if config.polyak else None,
        trace=trace,
        polyak_trace=polyak_trace,
        iterations=total,
        truncation_events=0 if region is None else region.m - config.truncation.m,
        wall_time=time.perf_counter() - wall0,
        cpu_time=time.process_time() - cpu0,
        iterates=iterates if keep_iterates else None,
    )
