import math
import struct

import numpy as np
import pytest

from mbem.engine import EmState, _inside, _member, _reset, minibatch_step, polyak_update
from mbem.families import (
    Gaussian,
    MixtureParams,
    SuffStats,
    _as_data_matrix,
    _estep,
    _stack,
    _stats,
    log_densities,
    mean_sbar,
    sample,
)


def make_gaussian_mixture(rng, d, g, weight_floor=0.15):
    """Well-conditioned random Gaussian mixture for generating test instances."""
    comps = []
    for _ in range(g):
        mean = rng.normal(0.0, 3.0, d)
        a = rng.normal(0.0, 1.0, (d, d))
        cov = a @ a.T + np.eye(d) * rng.uniform(0.5, 1.5)
        cov = (cov + cov.T) / 2.0
        comps.append(Gaussian(mean, cov))
    w = rng.dirichlet(np.ones(g) + 1.0)
    w = np.maximum(w, weight_floor)
    w /= w.sum()
    return MixtureParams(w, tuple(comps))


def count_cholesky(monkeypatch):
    """List that gets one entry per np.linalg.cholesky call from here on."""
    calls = []
    original = np.linalg.cholesky

    def counted(a, *args, **kwargs):
        calls.append(a)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return calls


def random_instance(rng, max_d=2, max_g=3, n=60):
    """(data, generating params) pair drawn from a random mixture."""
    d = int(rng.integers(1, max_d + 1))
    g = int(rng.integers(1, max_g + 1))
    theta = make_gaussian_mixture(rng, d, g)
    data, labels = sample(theta, n, rng)
    return data, labels, theta


def region_contains(theta, region):
    """Whether ``theta`` lies in ``region`` at its current index: the
    engine's own test, on the parameters' stack as a group of one."""
    return bool(_inside(_member(_stack(theta), None), [region])[0])


def reset_stat(state, batch):
    """The statistic a truncated step from ``state`` on ``batch`` resets to:
    the engine's own reset, at the state's parameters and region."""
    params = _stack(state.theta)
    sbar = _estep(_as_data_matrix(batch, state.theta.dim), params)
    return SuffStats(*_reset(params, sbar, state.region)[0])


def replay(data, cfg, init):
    """Iterate the public steps on the draws ``run`` makes for a mini-batch
    ``cfg``: (iterates, Polyak averages, last state), one entry per step.

    Each batch is ``rng.integers(0, n, size=N)`` rows from
    ``default_rng(cfg.seed)``; the first batch's ``mean_sbar`` at ``init``
    is the starting statistic.  The averages are empty without
    ``cfg.polyak``."""
    rng = np.random.default_rng(cfg.seed)
    n = len(data)

    def draw():
        return data[rng.integers(0, n, size=cfg.batch_size)]

    state = EmState(stats=mean_sbar(draw(), init), theta=init, region=cfg.truncation)
    acc, iterates, averages = None, [], []
    for r in range(1, cfg.epochs * math.ceil(n / cfg.batch_size) + 1):
        state = minibatch_step(state, draw(), cfg.learning_rate.at(r))
        iterates.append(state.theta)
        if cfg.polyak:
            acc = polyak_update(acc, state.theta, r)
            averages.append(acc)
    return iterates, averages, state


def log_density(y, theta):
    """Log mixture density at a single point: its one-row density pass."""
    return float(log_densities(np.asarray(y, dtype=float).reshape(1, -1), theta)[0])


def stats_from_params(theta):
    """The unit-mass statistic whose M-step image is ``theta``."""
    return SuffStats(*_stats(_stack(theta)))


def idx_bytes(array):
    """The unsigned-byte IDX encoding of ``array``, whose shape is the header."""
    array = np.ascontiguousarray(array, dtype=np.uint8)
    return struct.pack(f">BBBB{array.ndim}I", 0, 0, 0x08, array.ndim, *array.shape) + array.tobytes()


def write_idx(path, array):
    """Write ``array`` (n x rows x cols images, or n labels) as an IDX file."""
    with open(path, "wb") as f:
        f.write(idx_bytes(array))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
