"""Exception hierarchy shared across the package."""


class InvopError(Exception):
    """Base class for all errors raised by this package."""


class NonAdmissibleCoefficient(InvopError):
    """Coefficient violates the positivity lower bound of the forward problem."""


class SingularSystem(InvopError):
    """Assembled Galerkin system is not symmetric positive definite."""


class DimensionMismatch(InvopError):
    """Array shapes or mesh sizes are inconsistent."""


class NonFiniteValue(InvopError):
    """An array that must be finite holds a NaN or an infinity."""


class NonAdmissiblePerturbation(InvopError):
    """Perturbation amplitude exceeds the admissibility margin of the center."""


class DependentImages(InvopError):
    """Training images are (numerically) linearly dependent."""


class IllConditionedFit(InvopError):
    """Least-squares system too ill-conditioned even after one reseed."""


class EmptyProbeSet(InvopError):
    """A probe-based estimate was requested with no probes."""


class WidthTooLarge(InvopError):
    """Mollification width does not fit the unit interval."""


class PropertyViolation(InvopError):
    """A mollification property check failed."""

    def __init__(self, message, xi=None):
        super().__init__(message)
        self.xi = xi


class DegenerateScale(InvopError):
    """A scale to divide by is zero: both the noise level and the surrogate
    error, or the source direction of a target."""


class Stalled(InvopError):
    """Line search failed to make progress."""


class DegenerateFit(InvopError):
    """Slope fit impossible: all abscissae coincide."""


class ConfigInvalid(InvopError):
    """Study or CLI configuration failed validation."""
