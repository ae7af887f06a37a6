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

:func:`run` advances a group of runs in lockstep: runs on the same data
from the same init with the same epochs, batch size and schedule, which
differ only in seed, region and averaging.  It works on stacked arrays with
a leading run (member) axis: the statistic blocks ``(mass, moment1,
moment2)`` and the parameter stack of :mod:`mbem.families` (weights, means,
covariances, their Cholesky factors and log normalisers, or rates).  Each
M-step factorises once and the next E-step reuses that factor.  A Gaussian
group at batch size 1 takes one E-step for every member's row; any other
batch is one member's at a time.  The step after the E-step, ``_advance``,
decides each member's outcome (accepted, reset with a reason, or failed)
and is the one place a truncation reset happens (``_reset``, on the
member's own slice): it starts from the batch E-step the rejected step
computed, projects its M-step image into the base region (``_project``) and
rebuilds the statistic from it, also on arrays.  Each member draws its
batch indices from its own generator, in chunks of at most
``_DRAW_ELEMENTS``, whatever its group.  ``MixtureParams`` objects are
built only at epoch boundaries, for the trace and the returned results.
The public step functions wrap the same array maps, as a group of one, and
read the region from the state they are given: :func:`minibatch_step` on a
state with a region performs exactly that reset and returns the state with
the index one higher.
"""

from __future__ import annotations

import math
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
    _row_estep,
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


def _inside(p: _Stacked, regions: list) -> list:
    """Per member of a parameter stack with a leading member axis, the first
    bound of its region (``regions``, one per member) that it breaks at that
    region's current index, or None when it lies inside or has no region.

    The bounds, in test order: ``"weight"`` (the floor), ``"mean"``,
    ``"low"`` and ``"high"`` (the smallest and largest eigenvalue, or rate),
    each on one extreme value per member, with one batched ``eigvalsh`` over
    the members that have a region.  As in an elementwise test, a NaN weight
    or mean coordinate is never out of bounds (``fmin``/``fmax`` skip it)
    and a NaN eigenvalue or rate is never in bounds."""
    out = [None] * len(regions)
    tested = [i for i, region in enumerate(regions) if region is not None]
    if not tested:
        return out
    pick = slice(None) if len(tested) == len(regions) else tested
    weights = np.fmin.reduce(p.weights[pick], axis=-1).tolist()
    if p.family == "gaussian":
        means = np.fmax.reduce(np.abs(p.means[pick]), axis=(-2, -1)).tolist()
        eigs = np.linalg.eigvalsh(p.covs[pick])
        low, high = eigs[..., 0], eigs[..., -1]
    else:
        means = [-math.inf] * len(tested)
        low = high = p.rates[pick]
    low = np.minimum.reduce(low, axis=-1).tolist()
    high = np.maximum.reduce(high, axis=-1).tolist()
    for i, w, mu, lo, hi in zip(tested, weights, means, low, high):
        region = regions[i]
        m = float(region.m)
        if w < 1.0 / (region.c1 + m):
            out[i] = "weight"
        elif mu > region.c2 + m:
            out[i] = "mean"
        elif not lo >= 1.0 / (region.c3 + m):
            out[i] = "low"
        elif not hi <= region.c3 + m:
            out[i] = "high"
    return out


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
    current truncation region: with one, :func:`minibatch_step` is truncated,
    and a step that resets returns the state with the index one higher.
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


def _member(x: tuple, i) -> tuple:
    """Member ``i`` of a statistic triple or parameter stack with a leading
    member axis: a view without that axis for an int, a view for a slice, a
    copy for a list of positions, and with ``i = None`` a view of the whole
    as a group of one."""
    items = [a if a is None or isinstance(a, str) else a[i] for a in x]
    return _Stacked(*items) if isinstance(x, _Stacked) else tuple(items)


def _join(members: list) -> tuple:
    """Statistic triples or parameter stacks stacked along a new leading
    member axis, the inverse of :func:`_member`."""
    first = members[0]
    # np.array copies the same values as np.stack, with less call overhead.
    items = [
        a if a is None or isinstance(a, str) else np.array([m[k] for m in members])
        for k, a in enumerate(first)
    ]
    return _Stacked(*items) if isinstance(first, _Stacked) else tuple(items)


def _attempt(fn, *args):
    """``fn(*args)``, or the :class:`EstimationError` it raises."""
    try:
        return fn(*args)
    except EstimationError as exc:
        return exc


def _advance(stats: tuple, params: _Stacked, sbar: tuple, gamma: float, regions: list) -> tuple:
    """One step of a group after its E-step, on arrays with a leading member
    axis: ``(stats, params, regions, outcomes)`` after the step.

    ``stats`` is ``(mass, moment1, moment2)``, ``params`` the factored stack
    of its M-step image, ``sbar`` each member's batch E-step at ``params``
    and ``regions`` each member's region, None for an untruncated member.
    One M-step serves the group; when it fails, it is redone member by
    member to find whose it is.  Only truncated members take the region
    test, and a reset goes through :func:`_reset` on the member's own slice.
    ``outcomes`` has one entry per member: None when its step was accepted;
    the reason when it reset (the :func:`_inside` bound the candidate broke,
    or its M-step error's class name); the :class:`EstimationError` when it
    failed, whose rows the returned arrays still hold.
    """
    candidate = _blend(stats, sbar, gamma)
    try:
        theta = _mstep(candidate, params.family)
    except EstimationError:
        images = [_attempt(_mstep, _member(candidate, i), params.family) for i in range(len(regions))]
        failed = [i for i, image in enumerate(images) if isinstance(image, Exception)]
        # A failed member keeps its last accepted parameters until it resets or leaves.
        theta = _join([_member(params, i) if i in failed else image for i, image in enumerate(images)])
        outcomes = _inside(theta, [None if i in failed else region for i, region in enumerate(regions)])
        for i in failed:
            undefined = isinstance(images[i], (EmptyComponentError, DegenerateComponentError))
            outcomes[i] = type(images[i]).__name__ if undefined and regions[i] is not None else images[i]
    else:
        outcomes = _inside(theta, regions)
    regions = list(regions)
    for i, outcome in enumerate(outcomes):
        if not isinstance(outcome, str):
            continue
        try:
            reset = _reset(_member(params, i), _member(sbar, i), regions[i])
        except EstimationError as exc:
            outcomes[i] = exc
            continue
        for whole, part in zip((*candidate, *theta[1:]), (*reset[0], *reset[1][1:])):
            if whole is not None:
                whole[i] = part
        regions[i] = replace(regions[i], m=regions[i].m + 1)
    return candidate, theta, regions, outcomes


def minibatch_step(state: EmState, batch: np.ndarray, gamma: float) -> EmState:
    """One stochastic-approximation step, truncated when ``state.region`` is set.

    Without a region the candidate is always accepted.  With one, a
    candidate outside ``state.region``, or whose M-step image is undefined
    (empty component, degenerate covariance, nonpositive rate), is replaced
    by the reset of :func:`_reset`, and the returned state carries the
    region with the index one higher.
    """
    _check_gamma(gamma)
    data = _as_data_matrix(batch, state.theta.dim)
    s = state.stats
    params = _stack(state.theta)
    stats, params, regions, outcomes = _advance(
        _member((s.mass, s.moment1, s.moment2), None),
        _member(params, None),
        _member(_estep(data, params), None),
        gamma,
        [state.region],
    )
    if isinstance(outcomes[0], Exception):
        raise outcomes[0]
    return EmState(SuffStats(*_member(stats, 0)), _member(params, 0).mixture(), regions[0])


def _reset(params: _Stacked, sbar: tuple, region: TruncationRegion) -> tuple:
    """Replacement statistic inside the base region after a truncation event.

    ``sbar`` is the batch E-step at ``params``, the last accepted
    parameters of one run.  Its M-step image (``params`` itself when that
    image is undefined) is projected into the base (m = 0) region of
    ``region``, and the statistic is rebuilt from the projected parameters.
    Returns the statistic blocks and their factored M-step image.
    Deterministic given its inputs; raises :class:`TruncationError` when no
    projection lands inside the base region.
    """
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
        if _inside(_member(theta, None), [base])[0] is None:
            return stats, theta
    raise TruncationError("projection failed to land inside the base region")


# ---------------------------------------------------------------------------
# Polyak averaging
# ---------------------------------------------------------------------------

def polyak_update(theta_acc: MixtureParams | None, theta_new: MixtureParams, i: int) -> MixtureParams:
    """Running average of the parameters of successive steps, element-wise per block.

    Uses the iterative form avg_i = ((i - 1) * avg_{i-1} + theta_i) / i, so no
    history is stored.  At i = 1 the accumulator is ``theta_new``; from
    i = 2 on, ``theta_acc`` must be the average of theta_1 to theta_{i-1}.
    """
    if i < 1:
        raise InvalidInputError(f"averaging index must be >= 1, got {i}")
    if i == 1:
        return theta_new
    if theta_acc is None:
        raise InvalidInputError(
            f"averaging index {i} needs theta_acc, the average of theta_1 to theta_{i - 1}; got None"
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
    """Everything one run produced: parameters, per-epoch traces, counts.

    ``resets`` maps each reason a step reset for (see :func:`_advance`) to
    its count, in order of first occurrence; the counts sum to
    ``truncation_events``."""

    final_theta: MixtureParams
    polyak_theta: MixtureParams | None
    trace: list
    polyak_trace: list
    iterations: int
    truncation_events: int
    resets: dict


def _lockstep(configs: tuple) -> RunConfig:
    """The first of ``configs``, once they are checked to run in lockstep."""
    if not configs or not all(isinstance(c, RunConfig) for c in configs):
        raise InvalidInputError("run takes a RunConfig or a non-empty tuple of them")
    lead = configs[0]
    for c in configs[1:]:
        if (c.epochs, c.batch_size, c.learning_rate) != (lead.epochs, lead.batch_size, lead.learning_rate):
            raise InvalidInputError(
                "runs in lockstep must share epochs, batch_size and learning_rate; "
                f"got {c} beside {lead}"
            )
    return lead


#: Most batch indices a run draws per generator call (64 KiB of int64),
#: enough for many batch-size-1 steps per call.
_DRAW_ELEMENTS = 2**13


def _draws(rng: np.random.Generator, n: int, batch_size: int, count: int):
    """``count`` batch index rows, ``_DRAW_ELEMENTS // batch_size`` of them
    (at least one) per call.

    PCG64 carries its spare 32-bit half across calls, so this is the stream
    of one call per batch, and a run holds at most ``_DRAW_ELEMENTS``
    indices plus one batch between its steps.
    """
    rows = max(1, _DRAW_ELEMENTS // batch_size)
    for start in range(0, count, rows):
        yield from rng.integers(0, n, size=(min(rows, count - start), batch_size))


def _drop(r: int, results: list, out: list, live: list, *members) -> list:
    """``live`` and each per-member list or stack of ``members`` without
    the positions whose entry of ``results`` is an error, which goes to
    ``out`` as :class:`EngineRunError` at iteration ``r``."""
    keep = [i for i, result in enumerate(results) if not isinstance(result, Exception)]
    if len(keep) == len(live):
        return [live, *members]
    for i, exc in enumerate(results):
        if i not in keep:
            out[live[i]] = error = EngineRunError(r, str(exc))
            error.__cause__ = exc
    return [[live[i] for i in keep]] + [
        None if x is None else [x[i] for i in keep] if isinstance(x, list) else _member(x, keep)
        for x in members
    ]


def run(data: np.ndarray, config, init: MixtureParams):
    """Execute one configured run, or a tuple of runs in lockstep, and
    record each one's trace.

    ``config.batch_size`` and ``config.truncation`` choose the variant (see
    :class:`RunConfig`).  Mini-batch variants perform epochs * ceil(n / N)
    iterations on batches drawn uniformly with replacement by
    ``default_rng(config.seed)``, the run's only source of randomness,
    starting from the E-step average of one such batch at ``init``.  Batch
    EM is the same loop with the whole data set as the batch and gamma_r = 1:
    one iteration per epoch, no draws, starting from the statistic whose
    M-step image is ``init``.  The trace is recorded at epoch boundaries.
    ``truncation_events`` is the number of resets, the growth of the region
    index m over the run, and ``resets`` counts them per reason.  Identical
    seed and config give a bit-identical record.

    ``config`` may also be a tuple of configs that share ``epochs``,
    ``batch_size`` and ``learning_rate`` (else :class:`InvalidInputError`);
    they differ only in seed, region and averaging.  Their runs advance in
    lockstep on arrays with a leading run axis, so each NumPy call serves
    all of them, and the result is a tuple with one entry per config.  Each
    entry is the record the config gives alone, bit for bit.  A run that
    fails leaves the group, and its entry is the :class:`EngineRunError`
    that it raises alone; the others run on.  A single ``RunConfig`` is a
    group of one: its record is returned, and its failure raised.

    The loop works on stacked arrays (see the module docstring).  ``data``
    is checked once: a non-finite row or a wrong width raises
    :class:`EngineRunError` at iteration 0, whatever the group.  The record
    equals iterating :func:`minibatch_step` from a state that carries
    ``config.truncation``, and :func:`polyak_update`, on the same draws, bit
    for bit; that replay gives the parameters of every step, which the
    record does not keep.
    """
    configs = (config,) if isinstance(config, RunConfig) else tuple(config)
    lead = _lockstep(configs)
    try:
        data = _as_data_matrix(data, init.dim)
    except InvalidInputError as exc:
        raise EngineRunError(0, str(exc)) from exc
    n = data.shape[0]
    full = lead.batch_size is None
    params = _join([_stack(init)] * len(configs))
    if full:
        per_epoch = 1
        draws = [None] * len(configs)
        try:
            # At gamma = 1 the blend keeps none of s0 (0 * s0 + 1 * s == s).
            stats = _join([_stats(_member(params, 0))] * len(configs))
        except EstimationError as exc:
            raise EngineRunError(0, str(exc)) from exc
    else:
        if lead.batch_size > n:
            raise InvalidInputError(f"batch size {lead.batch_size} exceeds data size {n}")
        per_epoch = math.ceil(n / lead.batch_size)
        stats = None
        draws = [
            _draws(np.random.default_rng(c.seed), n, lead.batch_size, lead.epochs * per_epoch + 1)
            for c in configs
        ]
    # One Gaussian row per run: one E-step serves the whole group.
    rowwise = lead.batch_size == 1 and init.family_tag == "gaussian"
    total = lead.epochs * per_epoch
    live = list(range(len(configs)))  # the positions in ``configs`` of the runs still going
    regions = [c.truncation for c in configs]
    acc = None
    averaged = any(c.polyak for c in configs)
    out = [None] * len(configs)
    traces = [[] for _ in configs]
    resets = [{} for _ in configs]
    polyak_traces = [[] for _ in configs]
    # Iteration 0 of a mini-batch group draws the first batches, whose
    # E-steps are the starting statistics.
    for r in range(1 if full else 0, total + 1):
        if rowwise:
            y = data.take(np.concatenate([next(d) for d in draws]), axis=0)
            try:
                sbar = _row_estep(y, params)
            except EstimationError:
                sbar = [_attempt(_row_estep, y[i], _member(params, i)) for i in range(len(live))]
        else:
            # One run's batch at a time.
            sbar = [
                _attempt(_estep, data if full else data.take(next(d), axis=0), _member(params, i))
                for i, d in enumerate(draws)
            ]
        if isinstance(sbar, list):
            live, regions, draws, stats, params, acc, sbar = _drop(
                r, sbar, out, live, regions, draws, stats, params, acc, sbar
            )
            if not live:
                break
            sbar = _join(sbar)
        if r == 0:
            stats = sbar
            continue
        gamma = 1.0 if full else lead.learning_rate.at(r)
        stats, params, regions, outcomes = _advance(stats, params, sbar, gamma, regions)
        if any(outcomes):  # a reset or a failure
            for k, outcome in zip(live, outcomes):
                if isinstance(outcome, str):
                    resets[k][outcome] = resets[k].get(outcome, 0) + 1
            live, regions, draws, stats, params, acc = _drop(
                r, outcomes, out, live, regions, draws, stats, params, acc
            )
            if not live:
                break
        if averaged:
            acc = _average(acc, params, r)
        if r % per_epoch == 0:
            for i, k in enumerate(live):
                traces[k].append(_member(params, i).mixture())
                if configs[k].polyak:
                    polyak_traces[k].append(_member(acc, i).mixture())
    for k in live:
        # The last iteration ends an epoch, so the trace holds the final parameters.
        out[k] = RunRecord(
            final_theta=traces[k][-1],
            polyak_theta=polyak_traces[k][-1] if configs[k].polyak else None,
            trace=traces[k],
            polyak_trace=polyak_traces[k],
            iterations=total,
            truncation_events=sum(resets[k].values()),
            resets=resets[k],
        )
    if isinstance(config, RunConfig):
        if isinstance(out[0], EngineRunError):
            raise out[0]
        return out[0]
    return tuple(out)
