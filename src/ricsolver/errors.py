"""Exception types shared across the solver modules.

Everything derives from SolverError so callers can catch the library's
failures with one except clause without swallowing unrelated bugs.
"""


class SolverError(Exception):
    """Base class for all errors raised by this package."""


class InadmissibleParameter(SolverError):
    """A parameter sits where the closed forms are undefined: sigma = 0,
    gamma = 1, Phi + gamma at or below its positive floor, delta <= 0,
    mu2 <= 0 or lambda < 0; or where a method needs more: alpha <= 0 for
    the cs steady level, lambda = 0 for claim arrivals."""


class DegenerateK(SolverError):
    """The denominator defining the exponent k is numerically zero."""


class ComplexDiscriminant(SolverError):
    """A Riccati discriminant went negative; no real closed form exists."""


class FiniteTimeBlowup(SolverError):
    """A Riccati coefficient (C, or G of the exponential-quadratic modes)
    reaches a pole in finite time, e.g. 2 kappa + Delta <= 0."""


class NonadmissibleValueSign(SolverError):
    """(1-gamma)*v <= 0, so the ambiguity scaling Psi is undefined."""


class NonpositiveWealth(SolverError):
    """Wealth must be strictly positive for the power-utility value."""


class QuadratureBudgetExceeded(SolverError):
    """Adaptive quadrature could not meet tolerance within its panel budget."""


class FixedPointDivergence(SolverError):
    """The cs steady level w has no bracketed root, or its residual is not finite."""


class StabilityViolation(SolverError):
    """Grid does not satisfy the finite-difference scheme's requirements."""


class SingularLinearSystem(SolverError):
    """The implicit finite-difference step produced a singular system."""


class ConfigError(SolverError):
    """Malformed configuration input (unknown key, unparsable value)."""
