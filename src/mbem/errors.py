"""Exception types raised by the estimation toolkit.

The truncated algorithms rely on catching :class:`EmptyComponentError` and
:class:`DegenerateComponentError` to convert M-step failures into truncation
events, so these must stay distinguishable from generic input errors.
"""


class EstimationError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(EstimationError, ValueError):
    """Malformed caller input: wrong shapes, non-finite values, bad ranges."""


class DegeneratePointError(EstimationError):
    """Every mixture component assigns zero density to the observation."""


class EmptyComponentError(EstimationError):
    """A component's sufficient-statistic mass fell below the usable floor."""


class DegenerateComponentError(EstimationError):
    """The M-step produced parameters outside the valid parameter space."""


class DegenerateCovarianceError(DegenerateComponentError):
    """The M-step covariance has a nonpositive eigenvalue."""


class TruncationError(EstimationError):
    """A truncation reset could not produce a statistic inside the base region."""


class InitializationError(EstimationError):
    """Randomized initialization failed after the allowed number of retries."""


class EngineRunError(EstimationError):
    """An engine iteration failed; carries the iteration index.

    The original error is attached as ``__cause__``.
    """

    def __init__(self, iteration: int, message: str):
        super().__init__(f"iteration {iteration}: {message}")
        self.iteration = iteration


class IdxFormatError(EstimationError, ValueError):
    """An IDX byte stream violates the format; message includes the byte offset."""
