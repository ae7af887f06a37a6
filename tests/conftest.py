import numpy as np
import pytest

from mbem.families import Gaussian, MixtureParams, sample


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


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
