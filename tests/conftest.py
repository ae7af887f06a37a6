import struct

import numpy as np
import pytest

from mbem.engine import _inside
from mbem.families import Gaussian, MixtureParams, SuffStats, _stack, _stats, log_densities, sample


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
    engine's own test, on the parameters' stack."""
    return _inside(_stack(theta), region)


def log_density(y, theta):
    """Log mixture density at a single point: its one-row density pass."""
    return float(log_densities(np.asarray(y, dtype=float).reshape(1, -1), theta)[0])


def stats_from_params(theta):
    """The unit-mass statistic whose M-step image is ``theta``."""
    return SuffStats(*_stats(_stack(theta)))


def write_idx(dataset, images_path, labels_path=None):
    """Write an ``IdxImageSet``, and its labels when ``labels_path`` is
    given, as unsigned-byte IDX files."""
    with open(images_path, "wb") as f:
        f.write(struct.pack(">BBBBIII", 0, 0, 0x08, 3, dataset.n, dataset.rows, dataset.cols))
        f.write(np.ascontiguousarray(dataset.pixels, dtype=np.uint8).tobytes())
    if labels_path is not None:
        with open(labels_path, "wb") as f:
            f.write(struct.pack(">BBBBI", 0, 0, 0x08, 1, dataset.n))
            f.write(np.ascontiguousarray(dataset.labels, dtype=np.uint8).tobytes())


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
