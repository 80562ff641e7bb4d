"""Log-linearized solver for the non-unit-EIS case.

The only nonlinearity the closed form cannot absorb is the consumption-
wealth ratio z = c/x = delta^phi / g.  Expanding z to first order in ln z
around a steady level w,

    z ~ w (1 - ln w + ln z),

turns the reduced equation into the same exponential-quadratic family as
the unit-EIS mode, with w playing the discount rate:

    g(t, m) ~ exp(G(t) m^2 + L(t) m + H(t)).

The steady level itself solves ln w = E[ln z(t0, m_inf)], where m_inf is
the stationary factor level.  The expectation is taken under the baseline
stationary law Normal(0, beta^2/(2 alpha)) and evaluated at t0; both
choices are conventions of this implementation, recorded here because the
reference formulas leave them open.  The expectation of the quadratic
exponent is exact, so w is a scalar root in ln w; w = delta reproduces the
common one-shot approximation.

The reinsurance ratio q/x is untouched by the approximation and stays
identical to the exact mode's at machine precision.
"""

from __future__ import annotations

import math

from .errors import FixedPointDivergence, InadmissibleParameter
from .exact import (
    ExactCoeffs,
    GBundle,
    StrategyPoint,
    _check_wealth,
    _Surface,
    exact_coeffs,
    strategy_from_ratio,
)
from .params import ModelParams
from .uniteis import ExpQuadCoeffs, _glh_bundle, glh_state, quadratic_noise_coeff

__all__ = [
    "CsSolver",
    "SteadyLevel",
    "cs_reduction",
    "steady_state_w",
]

_ROOT_TOL = 1e-13  # final width of the ln w bracket
_MAX_STEP = 64.0  # largest bracket-expansion step in ln w
_MAX_EVALUATIONS = 100


def cs_reduction(w: float, params: ModelParams, eco: ExactCoeffs | None = None) -> ExpQuadCoeffs:
    """ExpQuadCoeffs of the log-linearized mode at steady level w.

    Everything except the consumption term is shared with the exact mode,
    so the affine sources h1_0, h1_1, h2_0 are taken from there verbatim;
    the linearization only adds w (1 - ln w + phi ln delta) to the constant
    source and swaps the discount rate to w.  G0 is the completion-of-
    squares leftover, identically zero at the derived exponent k; it is
    computed from its formula rather than pinned to zero.
    """
    if w <= 0.0:
        raise ValueError(f"steady consumption-wealth level w = {w!r} must be positive")
    if eco is None:
        eco = exact_coeffs(params)
    mk, pf = params.market, params.preference
    base = eco.base
    G0 = quadratic_noise_coeff(base.k, params)
    p0 = eco.h1_0 + w * (1.0 - math.log(w) + base.phi * math.log(pf.delta))
    return ExpQuadCoeffs(
        G0=G0,
        G1=-2.0 * (mk.beta**2 + 2.0 * G0),
        G2=2.0 * base.kappa + w,
        G3=base.b0,
        disc=w,
        d1=-base.kappa,
        h1_src=eco.h1_1,
        h2_0=eco.h2_0,
        p0=p0,
        beta=mk.beta,
        T=params.horizon.T,
    )


class SteadyLevel(float):
    """w, with its root's residual evaluations and final ln w bracket width
    (0.0 when the residual vanished exactly; 0 and 0.0 for a pinned w)."""

    def __new__(cls, w: float, evaluations: int = 0, bracket: float = 0.0):
        level = super().__new__(cls, w)
        level.evaluations, level.bracket = evaluations, bracket
        return level


def steady_state_w(params: ModelParams) -> SteadyLevel:
    """Steady consumption-wealth level w, the root in y = ln w of
    F(y) = y - (phi ln delta - G s^2 - H).

    (G, H) are taken at t0 for w = e^y and s^2 = beta^2/(2 alpha) is the
    stationary factor variance.  F rises with slope about 1 below the root
    and tends to 1 far above it, so steps of 1, 2, 4, ... from ln delta
    against the sign of F expand a bracket, and Illinois regula falsi
    shrinks it below 1e-13.  Raises InadmissibleParameter when alpha <= 0
    (no stationary law), and FixedPointDivergence when F keeps its sign
    within 127 of ln delta, is not finite, or the bracket is still open
    after 100 evaluations.
    """
    mk, pf = params.market, params.preference
    if mk.alpha <= 0.0:
        raise InadmissibleParameter(
            f"alpha = {mk.alpha!r}: the steady level needs the factor's stationary "
            "law, which exists only for alpha > 0"
        )
    eco = exact_coeffs(params)
    phi_log_delta = eco.base.phi * math.log(pf.delta)
    s2 = mk.beta**2 / (2.0 * mk.alpha)
    evaluations = 0

    def residual(y: float) -> float:
        nonlocal evaluations
        evaluations += 1
        G, _, H = glh_state(params.horizon.t0, cs_reduction(math.exp(y), params, eco))
        r = y - (phi_log_delta - G * s2 - H)
        if not math.isfinite(r):
            raise FixedPointDivergence(f"level residual is {r!r} at ln w = {y!r}")
        return r

    a = math.log(pf.delta)
    fa = residual(a)
    step = -1.0 if fa > 0.0 else 1.0
    b, fb = a + step, residual(a + step)
    while fa * fb > 0.0:
        if abs(step) >= _MAX_STEP:
            raise FixedPointDivergence(f"level residual keeps its sign out to ln w = {b!r}")
        step *= 2.0
        a, fa, b, fb = b, fb, b + step, residual(b + step)
    # Illinois: a secant step inside [a, b]; when the same end survives
    # twice its residual is halved, so both ends close in on the root.
    while fb != 0.0 and abs(b - a) > _ROOT_TOL:
        if evaluations >= _MAX_EVALUATIONS:
            raise FixedPointDivergence(f"ln w bracket still {abs(b - a):.3e} wide")
        c = (a * fb - b * fa) / (fb - fa)
        fc = residual(c)
        if fc * fb < 0.0:
            a, fa = b, fb
        else:
            fa *= 0.5
        b, fb = c, fc
    return SteadyLevel(math.exp(b), evaluations, 0.0 if fb == 0.0 else abs(b - a))


class CsSolver(_Surface):
    """The log-linearized mode bound to one parameter set; resolves w once.

    w pins the steady level to a positive number; None solves for it
    (steady_state_w).  The bound w is a SteadyLevel.
    """

    aggregator = "power"

    def __init__(self, params: ModelParams, w: float | None = None):
        self.params = params
        self.w = steady_state_w(params) if w is None else SteadyLevel(w)
        self._eco = exact_coeffs(params)
        self._red = cs_reduction(self.w, params, self._eco)
        self.k = self._eco.base.k

    def g(self, t: float, m: float) -> GBundle:
        return _glh_bundle(t, m, self._red)

    def strategy(self, t: float, x: float, m: float) -> StrategyPoint:
        """Reads u = 2 G m + L and c/x = delta^phi / g off (G, L, H) at t."""
        _check_wealth(x)
        G, L, H = glh_state(t, self._red)
        u = 2.0 * G * m + L
        c_over_x = self._eco.delta_phi / math.exp(G * m * m + L * m + H)
        return strategy_from_ratio(t, x, m, u, c_over_x, self.k, self._eco)
