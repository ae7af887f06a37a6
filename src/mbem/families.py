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

Both maps are thin wrappers over array kernels that the engine's hot loop
calls directly: ``_estep`` takes validated rows and a factored parameter
stack (``_Stacked``) to the statistic blocks ``(mass, moment1, moment2)``,
and ``_mstep`` takes those blocks to a factored stack, with one Cholesky
factorisation per component that the next E-step reuses.  ``_stats``
inverts ``_mstep`` on a stack, giving the unit-mass statistic whose M-step
image is the stack (s1 = pi, s2 = pi mu, S3 = pi (Sigma + mu mu^T)), and
``_blend`` is the one stochastic-approximation blend of two block triples.

Every row pass walks its rows through one generator, ``_weighted_blocks``.
A block has ``_BLOCK_ELEMENTS // (g d)`` rows (:func:`_block_rows`), so its
largest temporary, the (g, d, b) scatter product, holds at most
``_BLOCK_ELEMENTS`` float64 (1 MiB) whatever the shape.  Each block is
transposed once to (d, b); each Gaussian component whitens the centred
block y - mu_z with one GEMM by its inverse Cholesky factor, computed once
per pass (never L^-1 y - L^-1 mu, which cancels when |mu| is much larger
than the spread).  The transposed block and the (g, b) log-weighted block
live in two buffers that every block of the pass reuses: the E-step
(``_estep``) turns the latter into responsibilities in place, the
evaluation pass (``_density_pass``) keeps per-row log densities and MAP
labels, and ``_log_weighted`` collects the (g, n) matrix.  A single Gaussian observation has its own kernel
(``_row_log_weighted``, ``_row_estep``), with no blocks, transposes or
division by n.  It keeps the triangular solve: batch-size-1 truncated runs
are chaotic, so a last-bit change in one step moves their whole trajectory,
and they stay bit-identical to the solve-based arithmetic.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Union

import numpy as np
import scipy

from .errors import (
    DegenerateComponentError,
    DegenerateCovarianceError,
    DegeneratePointError,
    EmptyComponentError,
    InvalidInputError,
)

_LOG_2PI = math.log(2.0 * math.pi)

#: Components whose statistic mass falls at or below this floor are treated
#: as empty rather than divided by near-zero.
S1_FLOOR = 1e-12

#: Absolute symmetry tolerance, scaled by the matrix magnitude.
_SYM_TOL = 1e-12


def _flapack():
    """SciPy's compiled LAPACK module, loaded without the ``scipy.linalg``
    package init (about 300 modules and 24 MB of memory).

    Its routines are the very objects ``scipy.linalg.lapack`` hands out, so
    results do not depend on which of the two loaded it.  ``import scipy``
    above still runs SciPy's own init, which sets library paths on Windows.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    path = os.path.join(
        scipy.__path__[0], "linalg", "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0]
    )
    spec = importlib.util.spec_from_file_location(
        name, path, loader=importlib.machinery.ExtensionFileLoader(name, path)
    )
    try:
        module = importlib.util.module_from_spec(spec)
    except ImportError as exc:
        raise ImportError(f"cannot load SciPy's LAPACK module {path}: {exc}", name=name,
                          path=path) from exc
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_LAPACK = _flapack()

#: LAPACK triangular solve, the routine behind ``scipy.linalg.solve_triangular``
#: for float64 input, called directly to skip that wrapper's per-call checks.
_TRTRS = _LAPACK.dtrtrs

#: LAPACK triangular inverse, behind the L^-1 of :func:`_weighted_blocks`.
_TRTRI = _LAPACK.dtrtri

#: Elements of the largest temporary of an E-step or evaluation block, the
#: (g, d, b) scatter product; memory does not grow with the batch.
_BLOCK_ELEMENTS = 2**17


# ---------------------------------------------------------------------------
# packed symmetric storage
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _triu(d: int) -> tuple:
    """Row and column indices of the upper triangle of a d x d matrix (read-only, shared)."""
    rows, cols = np.triu_indices(d)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


@lru_cache(maxsize=None)
def _unpack_index(d: int) -> np.ndarray:
    """(d, d) position in the packed upper triangle of each entry of a d x d
    symmetric matrix (read-only, shared)."""
    rows, cols = _triu(d)
    index = np.empty((d, d), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(rows.size)
    index.flags.writeable = False
    return index


def unpack_symmetric(v: np.ndarray, d: int) -> np.ndarray:
    """Rebuild the full symmetric matrix (or a stack of them, one per row of
    ``v``) from its packed upper triangle.

    The result is exactly symmetric: both triangles are gathered from the
    same packed entries.
    """
    return np.asarray(v, dtype=float)[..., _unpack_index(d)]


# ---------------------------------------------------------------------------
# component parameter variants
# ---------------------------------------------------------------------------

def _check_symmetric(m: np.ndarray) -> bool:
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
    return float(np.max(np.abs(m - m.T))) <= _SYM_TOL * scale


@dataclass(frozen=True, eq=False)
class Gaussian:
    """Multivariate normal component: mean vector and full SPD covariance.

    ``mean`` and ``cov`` are read-only copies of the arguments, and ``chol``
    is the read-only lower Cholesky factor of ``cov`` that validation
    computes; stacks and samplers use it rather than factorise ``cov`` again.
    """

    mean: np.ndarray
    cov: np.ndarray
    chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mean = np.atleast_1d(np.array(self.mean, dtype=float))
        cov = np.atleast_2d(np.array(self.cov, dtype=float))
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
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise InvalidInputError("covariance is not positive definite") from exc
        object.__setattr__(self, "chol", chol)
        mean.flags.writeable = cov.flags.writeable = chol.flags.writeable = False

    def __reduce__(self):
        # Unpickled arrays are writable; rebuilding keeps them read-only.
        return Gaussian, (self.mean, self.cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class _RateComponent:
    """Scalar component parameterized by its positive rate; the subclass's
    family tag names it in messages."""

    rate: float

    def __post_init__(self):
        rate = float(self.rate)
        object.__setattr__(self, "rate", rate)
        if not math.isfinite(rate) or rate <= 0.0:
            raise InvalidInputError(f"{_FAMILY_TAGS[type(self)]} rate must be positive, got {rate}")

    @property
    def dim(self) -> int:
        return 1


@dataclass(frozen=True)
class Exponential(_RateComponent):
    """Exponential component parameterized by its positive rate."""


@dataclass(frozen=True)
class Poisson(_RateComponent):
    """Poisson component parameterized by its positive rate."""


Component = Union[Gaussian, Exponential, Poisson]

_FAMILY_TAGS = {Gaussian: "gaussian", Exponential: "exponential", Poisson: "poisson"}


# ---------------------------------------------------------------------------
# mixture parameter vector
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
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
    packed-symmetric layout (g, d(d+1)/2): each row is the upper triangle,
    ``S3[np.triu_indices(d)]``.  Rate families carry no second
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


def _blend(s: tuple, t: tuple, gamma: float) -> tuple:
    """(1 - gamma) * s + gamma * t, block by block, on ``(mass, moment1, moment2)``.

    This is the stochastic-approximation update of the online and mini-batch
    engines; total mass 1 is preserved up to rounding.
    """
    keep = 1.0 - gamma
    mass = keep * s[0] + gamma * t[0]
    moment1 = keep * s[1] + gamma * t[1]
    moment2 = None if s[2] is None else keep * s[2] + gamma * t[2]
    return mass, moment1, moment2


# ---------------------------------------------------------------------------
# stacked parameters: the arrays the EM kernels work on
# ---------------------------------------------------------------------------

class _Stacked(NamedTuple):
    """A mixture parameter vector as stacked per-component arrays.

    ``weights`` is (g,); Gaussian stacks carry ``means`` (g, d) and ``covs``
    (g, d, d), rate families ``rates`` (g,).  A stack that feeds an E-step is
    *factored*: it also holds ``log_weights`` (g,), the lower Cholesky
    factors ``chols`` (g, d, d) and ``log_norms`` (g,) = d log 2pi + log det
    Sigma, computed once when the stack is made.
    """

    family: str
    weights: np.ndarray
    means: np.ndarray | None = None
    covs: np.ndarray | None = None
    rates: np.ndarray | None = None
    log_weights: np.ndarray | None = None
    chols: np.ndarray | None = None
    log_norms: np.ndarray | None = None

    def mixture(self) -> MixtureParams:
        """The validated parameter object with these values."""
        if self.family == "gaussian":
            comps = tuple(Gaussian(m, c) for m, c in zip(self.means, self.covs))
        else:
            cls = Exponential if self.family == "exponential" else Poisson
            comps = tuple(cls(r) for r in self.rates)
        return MixtureParams(self.weights, comps)


def _log_norms(chols: np.ndarray) -> np.ndarray:
    """d log 2pi + log det Sigma per component, from the Cholesky factors."""
    return chols.shape[-1] * _LOG_2PI + 2.0 * np.add.reduce(np.log(chols.diagonal(0, -2, -1)), axis=-1)


def _stack(theta: MixtureParams) -> _Stacked:
    """Stacked arrays of ``theta``, factored for an E-step with the Cholesky
    factors its components were validated with."""
    family, w = theta.family_tag, theta.weights
    if family != "gaussian":
        return _Stacked(family, w, rates=theta.rates(), log_weights=np.log(w))
    chols = np.stack([c.chol for c in theta.components])
    return _Stacked(
        family, w, theta.means(), theta.covariances(), None, np.log(w), chols, _log_norms(chols)
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
    # A finite sum means finite entries, with no (n, d) mask; an overflowing
    # one takes the exact test.
    with np.errstate(over="ignore", invalid="ignore"):
        total = arr.sum()
    if not math.isfinite(total) and not np.isfinite(arr).all():
        raise InvalidInputError("observations contain non-finite coordinates")
    return arr


def _rate_log_density(p: _Stacked, z: int, x: np.ndarray) -> np.ndarray:
    """Log density of rate component ``z`` of a stack at the values ``x``."""
    rate = float(p.rates[z])
    if p.family == "exponential":
        return np.where(x >= 0.0, math.log(rate) - rate * x, -np.inf)
    # Imported here, so that only Poisson densities load scipy.special.
    from scipy.special import gammaln

    # Poisson support is the nonnegative integers; gammaln would accept any x > -1.
    support = (x >= 0.0) & (x == np.floor(x))
    with np.errstate(invalid="ignore"):
        return np.where(support, x * math.log(rate) - rate - gammaln(x + 1.0), -np.inf)


def _block_rows(g: int, d: int) -> int:
    """Rows per block of a pass with ``g`` components in ``d`` dimensions."""
    return max(1, _BLOCK_ELEMENTS // (g * d))


def _row_log_weighted(y: np.ndarray, p: _Stacked) -> np.ndarray:
    """(..., g) log pi_z + log f(y; omega_z) of one observation ``y`` (..., d)
    per member of a factored Gaussian stack whose arrays lead with the same
    member axes (none for one mixture).

    One observation keeps the triangular solve: batch-size-1 runs, which are
    chaotic under truncation, keep their bits.  Each solve is the call
    scipy.linalg.solve_triangular(chol, diff, lower=True) makes for a
    C-ordered factor (every slice of a stack's ``chols`` is), on a (d, 1)
    column, one per component of every member.  The squared norms are one
    "dn,dn->n" contraction with a leading component axis, which sums each
    column as the per-column call does, whatever the number of members.
    """
    # All centred columns at once, each overwritten by its whitened column:
    # a column of this fresh array is a contiguous float64 vector, which the
    # solve overwrites in place.
    xs = (y[..., None, :] - p.means)[..., None]
    d = xs.shape[-2]
    cols = xs.reshape(-1, d, 1)
    for diff, chol in zip(cols, p.chols.reshape(-1, d, d)):
        _TRTRS(chol.T, diff, lower=0, trans=1, overwrite_b=1)
    out = np.einsum("zdn,zdn->zn", cols, cols).reshape(p.log_norms.shape)
    out += p.log_norms
    out *= -0.5
    out += p.log_weights
    return out


def _weighted_blocks(y: np.ndarray, p: _Stacked):
    """``(start, yt, lw)`` per block of :func:`_block_rows` rows of validated
    ``y`` at a factored stack: ``yt`` is the block transposed to a C-ordered
    (d, b) matrix, and the first b columns of ``lw`` hold
    log pi_z + log f(y_i; omega_z).  Both are views of buffers that every
    block of the pass reuses, so a block is gone once the next is drawn.

    ``lw`` has two columns or more unless n = 1, so a one-row last block
    carries a stale second column: NumPy sums a lone (g, 1) column pairwise
    from g = 8 on, but the columns of a wider matrix one component at a
    time, as it sums those of the full (g, n) matrix.
    """
    n, d = y.shape
    g = p.weights.shape[0]
    rows = _block_rows(g, d)
    gaussian = p.family == "gaussian"
    if gaussian and n > 1:
        # trtri of the upper factor L^T in Fortran order returns (L^-1)^T in
        # Fortran order, whose transpose is L^-1.
        inv = np.stack([_TRTRI(chol.T, lower=0)[0].T for chol in p.chols])
    buf = np.zeros((g, min(n, max(2, rows))))
    flat = np.empty(d * min(n, rows))
    for start in range(0, n, rows):
        b = min(rows, n - start)
        # A C-ordered (d, b) matrix at the buffer start, laid out as a fresh array is
        yt = flat[: d * b].reshape(d, b)
        yt[:] = y[start : start + b].T
        lw = buf[:, :b]
        if not gaussian:
            for z in range(g):
                np.add(p.log_weights[z], _rate_log_density(p, z, yt[0]), out=lw[z])
        elif n == 1:
            lw[:, 0] = _row_log_weighted(y[0], p)
        else:
            for z in range(g):
                # Centre before whitening: L^-1 y - L^-1 mu cancels when |mu| >> spread.
                x = inv[z] @ (yt - p.means[z][:, None])
                np.einsum("dn,dn->n", x, x, out=lw[z])
            del x  # not held while the caller works on the block
            # log pi_z + -0.5 * (log_norm_z + quad), one operation at a time over
            # all components: the same rounding as the per-component expression.
            lw += p.log_norms[:, None]
            lw *= -0.5
            lw += p.log_weights[:, None]
        yield start, yt, buf[:, : max(2, b)]


def _log_weighted(y: np.ndarray, p: _Stacked) -> np.ndarray:
    """(g, n) matrix of log pi_z + log f(y_i; omega_z) over validated rows
    ``y`` at a factored stack."""
    out = np.empty((p.weights.shape[0], y.shape[0]))
    for start, yt, lw in _weighted_blocks(y, p):
        b = yt.shape[1]
        out[:, start : start + b] = lw[:, :b]
    return out


def _log_sum_exp(lw: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Column log-sum-exp of a (g, n) ``lw`` given its column maximum
    ``top``; -inf where ``top`` is not finite."""
    finite = np.isfinite(top)
    shift = np.where(finite, top, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = shift + np.log(np.exp(lw - shift).sum(axis=0))
    out[~finite] = -np.inf
    return out


def _normalise(lw: np.ndarray) -> np.ndarray:
    """Columns of exp(lw) (g, n) scaled to sum to one, in place in ``lw``;
    raises :class:`DegeneratePointError` if some observation has zero
    density under every component."""
    top = lw.max(axis=0)
    if not np.isfinite(top).all():
        raise DegeneratePointError("observation has zero density under every component")
    lw -= top
    np.exp(lw, out=lw)
    lw /= lw.sum(axis=0)
    return lw


def _density_pass(y: np.ndarray, theta: MixtureParams, labels: bool = False) -> tuple:
    """The evaluation pass: validate ``y`` and return its per-row log mixture
    densities (n,) and, with ``labels``, its MAP component labels (n,), else
    None.

    Holds one (g, b) log-weighted block of :func:`_weighted_blocks` at a
    time, never the (g, n) matrix.  The results equal :func:`_log_sum_exp`
    of the full matrix and its first column maximum bit for bit.  A row of
    zero density under every component has log density -inf; with
    ``labels`` it raises :class:`DegeneratePointError`.
    """
    y = _as_data_matrix(y, theta.dim)
    dens = np.empty(y.shape[0])
    found = np.empty(y.shape[0], dtype=np.intp) if labels else None
    for start, yt, lw in _weighted_blocks(y, _stack(theta)):
        b = yt.shape[1]
        top = lw.max(axis=0)
        dens[start : start + b] = _log_sum_exp(lw, top)[:b]
        if found is None:
            continue
        block, top = lw[:, :b], top[:b]
        if not np.isfinite(top).all():
            raise DegeneratePointError("observation has zero density under every component")
        # label = number of leading components below the maximum: branch-free
        # row passes, where argmax down the short component axis is a strided scan.
        below = block[0] != top
        out = found[start : start + b]
        out[:] = below
        for z in range(1, theta.g - 1):
            below &= block[z] != top
            out += below
    return dens, found


def log_densities(y: np.ndarray, theta: MixtureParams) -> np.ndarray:
    """Log mixture density at each row of ``y``, via log-sum-exp.

    Returns -inf where every component assigns zero density; raises
    :class:`InvalidInputError` on non-finite coordinates.
    """
    return _density_pass(y, theta)[0]


def responsibilities_batch(y: np.ndarray, theta: MixtureParams) -> np.ndarray:
    """(n, g) posterior component probabilities, computed in log space.

    Raises :class:`DegeneratePointError` if some observation has zero density
    under every component.
    """
    return _normalise(_log_weighted(_as_data_matrix(y, theta.dim), _stack(theta))).T


# ---------------------------------------------------------------------------
# E-step map: conditional expectation of the sufficient statistic
# ---------------------------------------------------------------------------

def _estep(y: np.ndarray, p: _Stacked) -> tuple:
    """E-step kernel: ``(mass, moment1, moment2)`` averaged over validated
    rows ``y`` at a factored stack (``moment2`` is None for rate families).

    Turns each block of :func:`_weighted_blocks` into responsibilities in
    place; the first block's sums start the totals, so a single block
    allocates no accumulators.  One Gaussian observation goes through
    :func:`_row_estep`.
    """
    n, d = y.shape
    if n < 1:
        raise InvalidInputError("the E-step needs at least one observation")
    gaussian = p.family == "gaussian"
    if gaussian and n == 1:
        return _row_estep(y[0], p)
    total = None
    for _, yt, lw in _weighted_blocks(y, p):
        tau = _normalise(lw[:, : yt.shape[1]])
        part = [tau.sum(axis=1), tau @ yt.T]
        if gaussian:
            # (tau_z y) y^T for every component in one batched matmul; the
            # product order (tau_z y_i) y_j keeps single-observation bits.
            part.append((tau[:, None, :] * yt) @ yt.T)
        total = part if total is None else [a + b for a, b in zip(total, part)]
    mass, moment1 = total[0] / n, total[1] / n
    if not gaussian:
        return mass, moment1, None
    rows, cols = _triu(d)
    return mass, moment1, total[2][:, rows, cols] / n


def _row_estep(y: np.ndarray, p: _Stacked) -> tuple:
    """:func:`_estep` of one observation ``y`` (..., d) per member of a
    factored Gaussian stack (see :func:`_row_log_weighted`): tau, tau y and
    the packed (tau y_i) y_j, the products the blocked pass forms, in its
    order, without its division by n = 1."""
    lw = _row_log_weighted(y, p)
    # _normalise on one column per member: its array-shaped checks would
    # cost more than this form, with the same arithmetic.
    top = np.maximum.reduce(lw, axis=-1, keepdims=True)
    # One member's maximum is finite when the sum is; an overflowing sum of
    # several raises, and a caller that retries member by member loses nothing.
    if not math.isfinite(np.add.reduce(top, axis=None)):
        raise DegeneratePointError("observation has zero density under every component")
    tau = np.exp(lw - top)
    tau /= np.add.reduce(tau, axis=-1, keepdims=True)
    moment1 = tau[..., None] * y[..., None, :]
    rows, cols = _triu(y.shape[-1])
    return tau, moment1, moment1[..., rows] * y.take(cols, axis=-1)[..., None, :]


def mean_sbar(y: np.ndarray, theta: MixtureParams) -> SuffStats:
    """Average of the per-observation statistic map over the rows of ``y``.

    This is the batch E-step: the engines feed it either a mini-batch or the
    full data set.  Total mass sums to one because responsibilities do.
    """
    data = _as_data_matrix(y, theta.dim)
    return SuffStats(*_estep(data, _stack(theta)))


# ---------------------------------------------------------------------------
# M-step map
# ---------------------------------------------------------------------------

def _cholesky_or_raise(covs: np.ndarray) -> np.ndarray:
    """Stacked lower Cholesky factors of the M-step covariances (g, d, d),
    or of several mixtures' covariances behind leading member axes.

    On failure, raises :class:`DegenerateCovarianceError` naming the first
    component that is non-finite or not positive definite, counted across
    members.
    """
    if np.logical_and.reduce(np.isfinite(covs), axis=None):
        try:
            return np.linalg.cholesky(covs)
        except np.linalg.LinAlgError:
            pass
    d = covs.shape[-1]
    chols = np.empty_like(covs)
    for z, (cov, out) in enumerate(zip(covs.reshape(-1, d, d), chols.reshape(-1, d, d))):
        if not np.all(np.isfinite(cov)):
            raise DegenerateCovarianceError(f"component {z} covariance is not finite")
        try:
            out[:] = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise DegenerateCovarianceError(
                f"component {z} covariance has a nonpositive eigenvalue"
            ) from exc
    return chols


def _mstep(stats: tuple, family: str) -> _Stacked:
    """M-step kernel: the factored stack maximizing the objective at
    ``(mass, moment1, moment2)``; raises as :func:`theta_bar` does.

    Blocks with leading member axes give a stack with the same axes, each
    member the M-step image of its own blocks, bit for bit; a message then
    counts components across members."""
    mass, moment1, moment2 = stats
    total = np.add.reduce(mass, axis=-1, keepdims=True)
    # Finite totals and a smallest mass above the floor clear both checks.
    if not (math.isfinite(np.add.reduce(total, axis=None)) and np.minimum.reduce(mass, axis=None) > S1_FLOOR):
        if not np.isfinite(mass).all():
            raise InvalidInputError("non-finite statistic mass")
        if (mass <= S1_FLOOR).any():
            z = int(np.argmin(mass))
            raise EmptyComponentError(
                f"component {z} mass {mass.flat[z]:.3e} at or below floor {S1_FLOOR}"
            )
    weights = mass / total

    if family == "gaussian":
        means = moment1 / mass[..., None]
        covs = (
            unpack_symmetric(moment2, moment1.shape[-1]) / mass[..., None, None]
            - means[..., :, None] * means[..., None, :]
        )
        chols = _cholesky_or_raise(covs)
        return _Stacked(family, weights, means, covs, None, np.log(weights), chols, _log_norms(chols))

    second = moment1[..., 0]
    if family == "exponential":
        # Weighted MLE of the rate: maximizes s1*log(rate) - rate*s2.
        with np.errstate(divide="ignore", invalid="ignore"):
            rates = mass / second
    else:
        # Weighted MLE of the Poisson rate: maximizes s2*log(rate) - rate*s1.
        rates = second / mass
    if (~np.isfinite(rates)).any() or (rates <= 0.0).any():
        z = int(np.argmin(np.where(np.isfinite(rates), rates, -np.inf)))
        raise DegenerateComponentError(f"component {z} rate is not a positive finite number")
    return _Stacked(family, weights, rates=rates, log_weights=np.log(weights))


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
    return _mstep((stats.mass, stats.moment1, stats.moment2), family).mixture()


def _stats(p: _Stacked) -> tuple:
    """A unit-mass statistic ``(mass, moment1, moment2)`` whose M-step image
    is the stack: the M-step map inverted with total mass fixed at one,
    s1 = pi, s2 = pi * mu, S3 = pi * (Sigma + mu mu^T) for the normal
    family, and s2 = pi / rate (exponential) or pi * rate (Poisson)."""
    w = p.weights
    if p.family == "gaussian":
        rows, cols = _triu(p.means.shape[1])
        second = p.covs + p.means[:, :, None] * p.means[:, None, :]
        return w.copy(), w[:, None] * p.means, w[:, None] * second[:, rows, cols]
    if p.family == "exponential":
        return w.copy(), (w / p.rates)[:, None], None
    return w.copy(), (w * p.rates)[:, None], None


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample(theta: MixtureParams, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` i.i.d. observations and their generating component labels.

    Labels are 0-based.  Draws are bit-reproducible for a given generator
    state: labels first, then one fixed block of component draws.

    Gaussian rows are transformed in place: the standard-normal draw is the
    returned array, and each component's rows become mean + L noise.  Every
    row belongs to one component, so each is transformed once, from its own
    noise.  A component's rows go through in chunks of
    ``_block_rows(1, d)`` rows, the last taking the remainder, so besides
    the data only one chunk's gathered rows and their product by L^T are
    held.  No chunk is shorter than that unless the component is: a GEMM
    over a few tail rows rounds differently, and chunks of at least that
    size give the bits of one GEMM over the whole component.  L is the
    factor the component was validated with.
    """
    if n < 1:
        raise InvalidInputError("sample size must be at least 1")
    labels = rng.choice(theta.g, size=n, p=theta.weights)
    if theta.family_tag == "gaussian":
        out = rng.standard_normal((n, theta.dim))
        step = _block_rows(1, theta.dim)
        for z, comp in enumerate(theta.components):
            idx = np.flatnonzero(labels == z)
            chol_t = comp.chol.T
            # cut every ``step`` rows, but not before the last whole chunk
            for rows in np.split(idx, range(step, idx.size // step * step, step)):
                out[rows] = out[rows] @ chol_t + comp.mean
        return out, labels
    rates = theta.rates()
    if theta.family_tag == "exponential":
        out = (rng.standard_exponential(n) / rates[labels])[:, None]
    else:
        out = rng.poisson(rates[labels]).astype(float)[:, None]
    return out, labels
