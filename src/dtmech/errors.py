"""Error taxonomy.

Numerical failures (subclasses of :class:`NumericalError`) map to CLI exit
code 3; configuration problems are plain ``ValueError`` and map to exit 2.
"""


class NumericalError(Exception):
    """Base class for numerical failure modes of the library."""


class DivergentTransform(NumericalError):
    """The smearing integral does not converge for the requested signal.

    Raised when a declared growth per step g*tau is not below 1, on either
    route, or when the undeclared-growth screening probe finds the integrand
    (|F|^2 for Monte Carlo) still growing past the weight's bulk.
    """


class QuadratureNotConverged(NumericalError):
    """Node escalation and the panel fallback both missed the error target."""

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


class BackwardOnly(NumericalError):
    """Scheme analysis needs backward weight beta > 0 (alpha = 1 is excluded)."""


class GridUnderResolved(NumericalError):
    """Probe grid cannot resolve the requested profile or drift."""


class StiffnessFailure(NumericalError):
    """Adaptive step control collapsed while integrating a trajectory."""


class FitUnstable(NumericalError):
    """Log-linear fit residual exceeded its threshold."""

    def __init__(self, message, estimate=None, residual=None):
        super().__init__(message)
        self.estimate = estimate
        self.residual = residual
