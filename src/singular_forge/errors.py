"""Exception hierarchy shared by all modules."""


class SingularForgeError(Exception):
    """Base class for all library errors."""


class DomainError(SingularForgeError):
    """Argument outside the validity domain of a nonlinearity or profile."""


class QuadratureError(SingularForgeError):
    """A quadrature panel missed its tolerance, or a tail did not close."""


class ConvergenceError(SingularForgeError):
    """Iteration failed to converge; carries partial diagnostics.

    Attributes set when available: ``solution`` (partial RemainderSolution),
    ``ratios`` (successive-difference ratios observed so far).
    """

    def __init__(self, message, solution=None, ratios=None):
        super().__init__(message)
        self.solution = solution
        self.ratios = ratios or []


class IterateOutOfDomainError(ConvergenceError):
    """A Picard iterate left the nonlinearity's validity domain."""


class NoLimitError(SingularForgeError):
    """The classification limit did not stabilize numerically."""


class GridError(SingularForgeError):
    """Grid construction violates a precondition (e.g. phi(rho0) <= s_min)."""


class OrderError(SingularForgeError):
    """Kernel arguments violate rho >= tau (resp. r <= s)."""


class NoContractionError(SingularForgeError):
    """No starting point in the probe window produced a contracting map."""


class InconclusiveError(SingularForgeError):
    """Not enough data (grid too short) to decide a diagnostic."""


class FitError(SingularForgeError):
    """Too few envelope points for a decay-rate fit."""


class ConfigError(SingularForgeError):
    """Invalid run configuration; message names the offending field."""
