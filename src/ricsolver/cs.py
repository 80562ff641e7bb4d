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

The mode's coefficient object is the exact mode's zero-discount reduction
(ExactCoeffs.lag) with the discount swapped to w (cs_reduction); CsSolver is
an ExpQuadSurface, so its g, value and derivatives are the unit-EIS mode's
code on these constants, and its strategy is the exact mode's rule on g.
"""

from __future__ import annotations

import math

from .errors import FixedPointDivergence, InadmissibleParameter
from .exact import ExactCoeffs, _lag_G, _Surface, exact_coeffs
from .params import ModelParams
from .uniteis import ExpQuadCoeffs, ExpQuadSurface, quadratic_noise_coeff

__all__ = [
    "CsSolver",
    "SteadyLevel",
    "cs_reduction",
    "steady_state_w",
]

_ROOT_TOL = 1e-13  # final width of the ln w bracket
_MAX_STEP = 64.0  # largest bracket-expansion step in ln w
_MAX_EVALUATIONS = 100


def cs_reduction(w: float, eco: ExactCoeffs) -> ExpQuadCoeffs:
    """ExpQuadCoeffs of the log-linearized mode at steady level w, built
    from the exact mode's coefficients eco.

    It is eco.lag, the exact mode's zero-discount reduction, with the
    discount rate w and with w (1 - ln w + phi ln delta) added to its
    constant source: everything except the consumption term is shared with
    the exact mode.  G0 is the completion-of-squares leftover, identically
    zero at the derived exponent k; it is computed from its formula rather
    than pinned to zero.  Raises InadmissibleParameter unless 0 < w < inf.
    """
    if not 0.0 < w < math.inf:  # NaN fails too
        raise InadmissibleParameter(
            f"steady consumption-wealth level w = {w!r} must be positive and finite")
    params, base, lag = eco.params, eco.base, eco.lag
    p0 = lag.p0 + w * (1.0 - math.log(w) + base.phi * math.log(params.preference.delta))
    return ExpQuadCoeffs(params=params, G0=quadratic_noise_coeff(base.k, params), G3=lag.G3,
                         disc=w, d1=lag.d1, h1_src=lag.h1_src, h2_0=lag.h2_0, p0=p0)


class SteadyLevel(float):
    """w, with its root's residual evaluations, final ln w bracket width
    (0.0 when the residual vanished exactly), exact coefficients eco and
    reduction at w; a pinned w has 0, 0.0, None and None."""

    def __new__(cls, w: float, evaluations: int = 0, bracket: float = 0.0,
                eco: ExactCoeffs | None = None, reduction: ExpQuadCoeffs | None = None):
        level = super().__new__(cls, w)
        level.evaluations, level.bracket = evaluations, bracket
        level.eco, level.reduction = eco, reduction
        return level


def steady_state_w(params: ModelParams) -> SteadyLevel:
    """Steady consumption-wealth level w, the root in y = ln w of
    F(y) = y - (phi ln delta - G s^2 - H).

    (G, H) are taken at t0 for w = e^y and s^2 = beta^2/(2 alpha) is the
    stationary factor variance.  One evaluation builds the reduction at w
    and its H table, then reads G in closed form and H from the table at
    the lag T - t0 (every table spans [0, T], so one basis row serves all
    of one length); L is never evaluated at t0.  F rises with slope about
    1 below the root and tends to 1 far above it, so steps of 1, 2, 4, ...
    from ln delta against the sign of F expand a bracket, and Illinois
    regula falsi shrinks it below 1e-13.  Raises InadmissibleParameter
    when alpha <= 0 (no stationary law), and FixedPointDivergence when F
    keeps its sign within 127 of ln delta, is not finite, or the bracket is
    still open after 100 evaluations.
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
    tau0 = params.horizon.T - params.horizon.t0
    evaluations, reduction, basis = 0, None, None

    def residual(y: float) -> float:
        nonlocal evaluations, reduction, basis
        evaluations += 1
        reduction = cs_reduction(math.exp(y), eco)
        table = reduction.h_table
        if basis is None or basis.size != table.rows.shape[-1]:
            basis = table.basis(tau0)
        H = float((basis @ table.rows.T)[0])
        r = y - (phi_log_delta - _lag_G(tau0, reduction) * s2 - H)
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
    # Every evaluation is stored as b, so the last one is at the returned w.
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
    bracket = 0.0 if fb == 0.0 else abs(b - a)
    return SteadyLevel(math.exp(b), evaluations, bracket, eco, reduction)


class CsSolver(ExpQuadSurface):
    """The log-linearized mode bound to one parameter set; resolves w once.

    w pins the steady level to a positive finite number; None solves for it
    (steady_state_w).  The bound w is a SteadyLevel, and coeffs the
    reduction at it: the root's, or built here for a pinned w.
    """

    aggregator = "power"

    def __init__(self, params: ModelParams, w: float | None = None):
        self.params = params
        self.w = steady_state_w(params) if w is None else SteadyLevel(w)
        eco = self.w.eco or exact_coeffs(params)
        self.coeffs = self.w.reduction or cs_reduction(self.w, eco)
        self.k, self.delta_phi = eco.base.k, eco.delta_phi

    strategy = _Surface.strategy  # named per solver class, as in ExactSolver
