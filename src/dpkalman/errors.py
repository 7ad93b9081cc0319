"""Error taxonomy for the library, mapped onto the CLI exit codes."""

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3


class DPKalmanError(Exception):
    """Base class for all library errors."""

    exit_code = EXIT_VALIDATION


class ValidationError(DPKalmanError):
    """An input violates a documented precondition or schema."""


class DimensionMismatchError(ValidationError):
    """Array shapes are inconsistent with each other or with the model."""


class NonSymmetricError(ValidationError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class NonPositiveSigmaError(ValidationError):
    """Noise scales must be strictly positive here."""


class OutOfDomainError(ValidationError):
    """A scalar parameter lies outside its admissible range."""


class NotDetectableError(ValidationError):
    """The pair (H, C) fails the observability precondition of the steady state."""


class FactorizationError(ValidationError):
    """A covariance factorization failed (negative eigenvalue)."""


class InvalidTargetError(ValidationError):
    """A calibration target violates its admissibility constraints."""


class DegenerateSystemError(ValidationError):
    """The dynamics are degenerate for the requested computation."""


class EmptyNetworkError(ValidationError):
    """A network needs at least one agent."""


class ConfigError(ValidationError):
    """A configuration document failed to parse or validate."""


class NumericalError(DPKalmanError):
    """A numerical procedure did not produce a trustworthy result."""

    exit_code = EXIT_NUMERICAL


class NoConvergenceError(NumericalError):
    """An iterative solver hit its iteration cap before converging."""


class SingularMatrixError(NumericalError):
    """A matrix that must be inverted is singular by condition estimate."""
