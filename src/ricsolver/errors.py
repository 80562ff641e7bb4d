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
    the cs steady level, lambda = 0 for claim arrivals; or a time t outside
    [0, T] at which a solver's g, strategy or coefficients are asked for,
    or a negative or NaN lag of the Riccati closed forms."""


class DegenerateK(SolverError):
    """The exponent pair (k, phi) = ((1-gamma)/D, 1 + D) has no exact-mode
    closed form: D = 0, k is not finite, or derived phi lies within the
    band around 1 where g^k loses accuracy (the unit-EIS mode's)."""


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
    """Adaptive quadrature could not meet tolerance within its panel budget,
    or a Chebyshev series (the g kernel, the H table) did not converge
    within its node-doubling budget."""


class KernelOutOfRange(SolverError):
    """g underflows to 0, overflows or is lost to rounding at the point
    asked for, typically at a factor value |m| far outside the factor's
    stationary range; or a lag series (an H table, the g kernel's lag
    functions) has samples that are not finite."""


class FixedPointDivergence(SolverError):
    """The cs steady level w has no bracketed root, or its residual is not finite."""


class StabilityViolation(SolverError):
    """Grid does not satisfy the finite-difference scheme's requirements."""


class SingularLinearSystem(SolverError):
    """The implicit finite-difference step produced a singular system."""


class ConfigError(SolverError):
    """Malformed configuration input (unknown key, unparsable value)."""
