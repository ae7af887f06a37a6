"""Exponential-family finite mixtures: densities, responsibilities, and the
conditional-expectation / maximization maps that drive every EM variant.

Three component families are supported:

* multivariate normal with full covariance,
* exponential (positive rate),
* Poisson (positive rate).

All mixture computations run in log space and are combined with log-sum-exp;
unnormalized log densities are never exponentiated directly, so the code
stays usable at dimensions where raw densities underflow.

The per-observation conditional expectation of the complete-data sufficient
statistic is exposed, averaged over a batch of observations, as
:func:`mean_sbar`, and the maximizer of the statistic-linear complete-data
objective as :func:`theta_bar`.  For the normal family these are

    s1_z = tau_z,  s2_z = tau_z * y,  S3_z = tau_z * y y^T

and

    pi_z = s1_z / sum_j s1_j,  mu_z = s2_z / s1_z,
    Sigma_z = S3_z / s1_z - s2_z s2_z^T / s1_z^2,

where tau_z is the posterior component probability.  Rate-family M-steps are
the weighted maximum-likelihood solutions: rate = s1/s2 (exponential) and
rate = s2/s1 (Poisson).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import gammaln

from .errors import (
    DegenerateComponentError,
    DegenerateCovarianceError,
    DegeneratePointError,
    EmptyComponentError,
    InvalidInputError,
    NumericDomainError,
)

_LOG_2PI = math.log(2.0 * math.pi)

#: Components whose statistic mass falls at or below this floor are treated
#: as empty rather than divided by near-zero.
S1_FLOOR = 1e-12

#: Absolute symmetry tolerance, scaled by the matrix magnitude.
_SYM_TOL = 1e-12


# ---------------------------------------------------------------------------
# packed symmetric storage
# ---------------------------------------------------------------------------

def pack_symmetric(m: np.ndarray) -> np.ndarray:
    """Return the upper triangle of a symmetric matrix as a length d(d+1)/2 vector."""
    d = m.shape[0]
    iu = np.triu_indices(d)
    return np.asarray(m, dtype=float)[iu]


def unpack_symmetric(v: np.ndarray, d: int) -> np.ndarray:
    """Rebuild the full symmetric matrix from its packed upper triangle.

    The result is exactly symmetric: both triangles are written from the
    same packed entries.
    """
    iu = np.triu_indices(d)
    m = np.zeros((d, d))
    m[iu] = v
    m.T[iu] = v
    return m


# ---------------------------------------------------------------------------
# component parameter variants
# ---------------------------------------------------------------------------

def _check_symmetric(m: np.ndarray) -> bool:
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
    return float(np.max(np.abs(m - m.T))) <= _SYM_TOL * scale


@dataclass(frozen=True)
class Gaussian:
    """Multivariate normal component: mean vector and full SPD covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        d = mean.shape[0]
        if mean.ndim != 1 or cov.shape != (d, d):
            raise InvalidInputError(f"mean/covariance shapes disagree: {mean.shape} vs {cov.shape}")
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise InvalidInputError("non-finite Gaussian parameters")
        if not _check_symmetric(cov):
            raise InvalidInputError("covariance is not symmetric")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise InvalidInputError("covariance is not positive definite") from exc

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class Exponential:
    """Exponential component parameterized by its positive rate."""

    rate: float

    def __post_init__(self):
        rate = float(self.rate)
        object.__setattr__(self, "rate", rate)
        if not math.isfinite(rate) or rate <= 0.0:
            raise InvalidInputError(f"exponential rate must be positive, got {rate}")

    @property
    def dim(self) -> int:
        return 1


@dataclass(frozen=True)
class Poisson:
    """Poisson component parameterized by its positive rate."""

    rate: float

    def __post_init__(self):
        rate = float(self.rate)
        object.__setattr__(self, "rate", rate)
        if not math.isfinite(rate) or rate <= 0.0:
            raise InvalidInputError(f"poisson rate must be positive, got {rate}")

    @property
    def dim(self) -> int:
        return 1


Component = Union[Gaussian, Exponential, Poisson]

_FAMILY_TAGS = {Gaussian: "gaussian", Exponential: "exponential", Poisson: "poisson"}


# ---------------------------------------------------------------------------
# mixture parameter vector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixtureParams:
    """Full mixture parameter vector: mixing weights plus component parameters.

    Invariants enforced on construction: weights are strictly positive and sum
    to one within 1e-12, all components share one family and dimension.
    """

    weights: np.ndarray
    components: tuple

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        comps = tuple(self.components)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "components", comps)
        if w.ndim != 1 or len(comps) != w.shape[0] or w.shape[0] < 1:
            raise InvalidInputError("weights and components must have equal positive length")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise InvalidInputError("mixing weights must be finite and strictly positive")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise InvalidInputError(f"mixing weights sum to {w.sum()!r}, not 1")
        kinds = {type(c) for c in comps}
        if len(kinds) != 1 or kinds.pop() not in _FAMILY_TAGS:
            raise InvalidInputError("components must all belong to one supported family")
        dims = {c.dim for c in comps}
        if len(dims) != 1:
            raise InvalidInputError("components must share one dimension")

    @property
    def g(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    @property
    def family_tag(self) -> str:
        return _FAMILY_TAGS[type(self.components[0])]

    def means(self) -> np.ndarray:
        """Stacked (g, d) component means (Gaussian only)."""
        return np.stack([c.mean for c in self.components])

    def covariances(self) -> np.ndarray:
        """Stacked (g, d, d) component covariances (Gaussian only)."""
        return np.stack([c.cov for c in self.components])

    def rates(self) -> np.ndarray:
        """Stacked (g,) component rates (exponential/Poisson only)."""
        return np.array([c.rate for c in self.components])


def params_to_dict(theta: MixtureParams) -> dict:
    """JSON-compatible representation of a mixture parameter vector."""
    out = {"family": theta.family_tag, "weights": theta.weights.tolist()}
    if theta.family_tag == "gaussian":
        out["components"] = [
            {"mean": c.mean.tolist(), "cov": c.cov.tolist()} for c in theta.components
        ]
    else:
        out["components"] = [{"rate": c.rate} for c in theta.components]
    return out


def params_from_dict(spec: dict) -> MixtureParams:
    """Inverse of :func:`params_to_dict`."""
    family = spec["family"]
    if family == "gaussian":
        comps = tuple(Gaussian(np.array(c["mean"]), np.array(c["cov"])) for c in spec["components"])
    elif family == "exponential":
        comps = tuple(Exponential(c["rate"]) for c in spec["components"])
    elif family == "poisson":
        comps = tuple(Poisson(c["rate"]) for c in spec["components"])
    else:
        raise InvalidInputError(f"unknown family {family!r}")
    return MixtureParams(np.array(spec["weights"], dtype=float), comps)


# ---------------------------------------------------------------------------
# sufficient statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuffStats:
    """Per-component sufficient-statistic triplet.

    ``mass`` holds the responsibility mass s1 (g,), ``moment1`` the weighted
    first moment s2 (g, d), and ``moment2`` the weighted second moment S3 in
    packed-symmetric layout (g, d(d+1)/2).  Rate families carry no second
    moment (``moment2 is None``) and use d = 1.
    """

    mass: np.ndarray
    moment1: np.ndarray
    moment2: np.ndarray | None = None

    def __post_init__(self):
        mass = np.atleast_1d(np.asarray(self.mass, dtype=float))
        m1 = np.atleast_2d(np.asarray(self.moment1, dtype=float))
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "moment1", m1)
        if self.moment2 is not None:
            object.__setattr__(self, "moment2", np.atleast_2d(np.asarray(self.moment2, dtype=float)))
        g = mass.shape[0]
        if m1.shape[0] != g or (self.moment2 is not None and self.moment2.shape[0] != g):
            raise InvalidInputError("sufficient-statistic blocks disagree on component count")

    @property
    def g(self) -> int:
        return self.mass.shape[0]

    @property
    def dim(self) -> int:
        return self.moment1.shape[1]

    def blend(self, other: "SuffStats", gamma: float) -> "SuffStats":
        """Convex combination (1 - gamma) * self + gamma * other.

        This is the stochastic-approximation update applied by the online and
        mini-batch engines; total mass 1 is preserved up to rounding.
        """
        if not 0.0 <= gamma <= 1.0:
            raise InvalidInputError(f"blend weight must lie in [0, 1], got {gamma}")
        keep = 1.0 - gamma
        m2 = None
        if self.moment2 is not None:
            m2 = keep * self.moment2 + gamma * other.moment2
        return SuffStats(
            keep * self.mass + gamma * other.mass,
            keep * self.moment1 + gamma * other.moment1,
            m2,
        )


# ---------------------------------------------------------------------------
# log densities and responsibilities
# ---------------------------------------------------------------------------

def _as_data_matrix(y: np.ndarray, dim: int) -> np.ndarray:
    """Validate observations and return them as an (n, d) float matrix."""
    arr = np.asarray(y, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        # A single point when it matches the model dimension, else a column
        # of scalar observations.
        arr = arr.reshape(1, -1) if arr.shape[0] == dim else arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise InvalidInputError(f"observations have dimension {arr.shape[-1]}, model has {dim}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("observations contain non-finite coordinates")
    return arr


def _component_log_density(component: Component, y: np.ndarray) -> np.ndarray:
    """Vectorized log density of one component over the rows of ``y``."""
    if isinstance(component, Gaussian):
        d = component.dim
        try:
            chol = np.linalg.cholesky(component.cov)
        except np.linalg.LinAlgError as exc:
            raise NumericDomainError("singular component covariance") from exc
        diff = y - component.mean
        z = solve_triangular(chol, diff.T, lower=True)
        quad = np.einsum("dn,dn->n", z, z)
        log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
        return -0.5 * (d * _LOG_2PI + log_det + quad)
    x = y[:, 0]
    if isinstance(component, Exponential):
        out = np.where(x >= 0.0, math.log(component.rate) - component.rate * x, -np.inf)
        return out
    if isinstance(component, Poisson):
        # Support is the nonnegative integers; gammaln would accept any x > -1.
        lam = component.rate
        support = (x >= 0.0) & (x == np.floor(x))
        with np.errstate(invalid="ignore"):
            out = np.where(support, x * math.log(lam) - lam - gammaln(x + 1.0), -np.inf)
        return out
    raise InvalidInputError(f"unsupported component type {type(component).__name__}")


def _log_weighted_densities(y: np.ndarray, theta: MixtureParams) -> np.ndarray:
    """(n, g) matrix of log pi_z + log f(y_i; omega_z)."""
    log_w = np.log(theta.weights)
    cols = [
        log_w[z] + _component_log_density(theta.components[z], y)
        for z in range(theta.g)
    ]
    return np.column_stack(cols)


def log_densities(y: np.ndarray, theta: MixtureParams) -> np.ndarray:
    """Log mixture density at each row of ``y``, via log-sum-exp.

    Returns -inf where every component assigns zero density; raises
    :class:`InvalidInputError` on non-finite coordinates.
    """
    data = _as_data_matrix(y, theta.dim)
    lw = _log_weighted_densities(data, theta)
    top = lw.max(axis=1)
    finite = np.isfinite(top)
    shift = np.where(finite, top, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = shift + np.log(np.exp(lw - shift[:, None]).sum(axis=1))
    out[~finite] = -np.inf
    return out


def log_density(y: np.ndarray, theta: MixtureParams) -> float:
    """Log mixture density log sum_z pi_z f(y; omega_z) at a single point."""
    return float(log_densities(np.asarray(y, dtype=float).reshape(1, -1), theta)[0])


def responsibilities_batch(y: np.ndarray, theta: MixtureParams) -> np.ndarray:
    """(n, g) posterior component probabilities, computed in log space.

    Raises :class:`DegeneratePointError` if some observation has zero density
    under every component.
    """
    data = _as_data_matrix(y, theta.dim)
    lw = _log_weighted_densities(data, theta)
    top = lw.max(axis=1)
    if not np.all(np.isfinite(top)):
        raise DegeneratePointError("observation has zero density under every component")
    tau = np.exp(lw - top[:, None])
    tau /= tau.sum(axis=1)[:, None]
    return tau


# ---------------------------------------------------------------------------
# E-step map: conditional expectation of the sufficient statistic
# ---------------------------------------------------------------------------

def mean_sbar(y: np.ndarray, theta: MixtureParams) -> SuffStats:
    """Average of the per-observation statistic map over the rows of ``y``.

    This is the batch E-step: the engines feed it either a mini-batch or the
    full data set.  Total mass sums to one because responsibilities do.
    """
    data = _as_data_matrix(y, theta.dim)
    n, d = data.shape
    tau = responsibilities_batch(data, theta)
    mass = tau.mean(axis=0)
    moment1 = tau.T @ data / n
    if theta.family_tag != "gaussian":
        return SuffStats(mass, moment1, None)
    iu = np.triu_indices(d)
    moment2 = np.empty((theta.g, d * (d + 1) // 2))
    for z in range(theta.g):
        scatter = (tau[:, z : z + 1] * data).T @ data / n
        moment2[z] = scatter[iu]
    return SuffStats(mass, moment1, moment2)


# ---------------------------------------------------------------------------
# M-step map
# ---------------------------------------------------------------------------

def theta_bar(stats: SuffStats, family: str) -> MixtureParams:
    """Maximizer of the statistic-linear complete-data objective.

    ``family`` is a family tag (:attr:`MixtureParams.family_tag`):
    ``"gaussian"``, ``"exponential"`` or ``"poisson"``; any other tag raises
    :class:`InvalidInputError`.  Raises :class:`EmptyComponentError` when a
    component's mass is at or below the floor, and
    :class:`DegenerateCovarianceError` / :class:`DegenerateComponentError`
    when the maximizer falls outside the parameter space.  The truncated
    engines convert these into resets.
    """
    if family not in _FAMILY_TAGS.values():
        raise InvalidInputError(f"unknown family tag {family!r}")
    mass = stats.mass
    if not np.all(np.isfinite(mass)):
        raise InvalidInputError("non-finite statistic mass")
    if np.any(mass <= S1_FLOOR):
        z = int(np.argmin(mass))
        raise EmptyComponentError(f"component {z} mass {mass[z]:.3e} at or below floor {S1_FLOOR}")
    weights = mass / mass.sum()

    if family == "gaussian":
        d = stats.dim
        means = stats.moment1 / mass[:, None]
        comps = []
        for z in range(stats.g):
            scatter = unpack_symmetric(stats.moment2[z], d) / mass[z]
            cov = scatter - np.outer(means[z], means[z])
            if not np.all(np.isfinite(cov)):
                raise DegenerateCovarianceError(f"component {z} covariance is not finite")
            try:
                np.linalg.cholesky(cov)
            except np.linalg.LinAlgError as exc:
                raise DegenerateCovarianceError(
                    f"component {z} covariance has a nonpositive eigenvalue"
                ) from exc
            comps.append(Gaussian(means[z], cov))
        return MixtureParams(weights, tuple(comps))

    second = stats.moment1[:, 0]
    if family == "exponential":
        # Weighted MLE of the rate: maximizes s1*log(rate) - rate*s2.
        with np.errstate(divide="ignore", invalid="ignore"):
            rates = mass / second
        cls = Exponential
    else:
        # Weighted MLE of the Poisson rate: maximizes s2*log(rate) - rate*s1.
        rates = second / mass
        cls = Poisson
    if np.any(~np.isfinite(rates)) or np.any(rates <= 0.0):
        z = int(np.argmin(np.where(np.isfinite(rates), rates, -np.inf)))
        raise DegenerateComponentError(f"component {z} rate is not a positive finite number")
    return MixtureParams(weights, tuple(cls(r) for r in rates))


def stats_from_params(theta: MixtureParams) -> SuffStats:
    """A unit-mass statistic vector whose M-step image is ``theta``.

    Inverts the M-step map with total mass fixed at one: s1 = pi,
    s2 = pi * mu, S3 = pi * (Sigma + mu mu^T) for the normal family, and the
    rate-family analogues.  Used by the truncation reset to re-anchor the
    engine at a projected parameter value.
    """
    w = theta.weights
    if theta.family_tag == "gaussian":
        means = theta.means()
        moment1 = w[:, None] * means
        d = theta.dim
        moment2 = np.stack(
            [
                w[z] * pack_symmetric(theta.components[z].cov + np.outer(means[z], means[z]))
                for z in range(theta.g)
            ]
        )
        return SuffStats(w.copy(), moment1, moment2)
    rates = theta.rates()
    if theta.family_tag == "exponential":
        moment1 = (w / rates)[:, None]
    else:
        moment1 = (w * rates)[:, None]
    return SuffStats(w.copy(), moment1, None)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample(theta: MixtureParams, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` i.i.d. observations and their generating component labels.

    Labels are 0-based.  Draws are bit-reproducible for a given generator
    state: labels first, then one fixed block of component draws.
    """
    if n < 1:
        raise InvalidInputError("sample size must be at least 1")
    labels = rng.choice(theta.g, size=n, p=theta.weights)
    if theta.family_tag == "gaussian":
        d = theta.dim
        noise = rng.standard_normal((n, d))
        out = np.empty((n, d))
        for z in range(theta.g):
            idx = labels == z
            if not np.any(idx):
                continue
            chol = np.linalg.cholesky(theta.components[z].cov)
            out[idx] = theta.components[z].mean + noise[idx] @ chol.T
        return out, labels
    rates = theta.rates()
    if theta.family_tag == "exponential":
        out = (rng.standard_exponential(n) / rates[labels])[:, None]
    else:
        out = rng.poisson(rates[labels]).astype(float)[:, None]
    return out, labels
