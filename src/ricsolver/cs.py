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
reference formulas leave them open.  A damped fixed-point iteration
resolves w; w = delta reproduces the common one-shot approximation.

The reinsurance ratio q/x is untouched by the approximation and stays
identical to the exact mode's at machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FixedPointDivergence, NonpositiveWealth
from .exact import (
    ExactCoeffs,
    GBundle,
    GValue,
    StrategyPoint,
    ValueDerivs,
    derivs_from_g,
    exact_coeffs,
    strategy_from_ratio,
)
from .params import ModelParams
from .quadrature import DEFAULT_QUAD, QuadratureConfig, gauss_hermite_mean
from .uniteis import (
    ExpQuadCoeffs,
    _glh_bundle,
    coeff_G,
    coeff_H,
    coeff_L,
    glh_state,
    quadratic_noise_coeff,
)

__all__ = [
    "CsCoeffs",
    "CsSolver",
    "cs_reduction",
    "steady_state_w",
]

_GH_NODES = 64
_GH_SELF_CHECK = 1e-9
_FP_TOL = 1e-10
_FP_MAX_ITER = 200
_FP_DAMPING = 0.5


@dataclass(frozen=True)
class CsCoeffs:
    """Reduction constants and (G, L, H) evaluated at one time t."""

    w: float
    t: float
    G: float
    L: float
    H: float
    red: ExpQuadCoeffs

    @property
    def G0(self) -> float:
        return self.red.G0

    @property
    def G1(self) -> float:
        return self.red.G1

    @property
    def G2(self) -> float:
        return self.red.G2

    @property
    def G3(self) -> float:
        return self.red.G3


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


def _log_ratio_mean(
    red: ExpQuadCoeffs,
    t0: float,
    phi_log_delta: float,
    std: float,
    quad: QuadratureConfig,
    n: int,
) -> float:
    """E[ln z(t0, m_inf)] = phi ln delta - E[G m^2 + L m + H] over m_inf."""
    G, L, H = glh_state(t0, red, quad)

    def f(m):
        return phi_log_delta - (G * m * m + L * m + H)

    return gauss_hermite_mean(f, std, n)


def steady_state_w(
    params: ModelParams,
    mode: str = "fixed_point",
    value: float | None = None,
    quad: QuadratureConfig = DEFAULT_QUAD,
) -> float:
    """Steady consumption-wealth level w.

    mode "fixed" returns the user-pinned value.  mode "fixed_point" solves
    ln w = E[ln z(t0, m_inf)] by damped iteration w <- (1-eta) w + eta
    exp(E[ln z]) with eta = 0.5, starting from w = delta; the expectation
    uses 64 Gauss-Hermite nodes over Normal(0, beta^2/(2 alpha)) and must
    agree with the node-doubled value to 1e-9, else the iterate is deemed
    untrustworthy and the iteration aborts.
    """
    if mode == "fixed":
        if value is None:
            raise ValueError('mode "fixed" needs an explicit value')
        if value <= 0.0:
            raise ValueError(f"pinned w = {value!r} must be positive")
        return float(value)
    if mode != "fixed_point":
        raise ValueError(f'unknown mode {mode!r}; expected "fixed" or "fixed_point"')

    mk, pf = params.market, params.preference
    eco = exact_coeffs(params)
    phi_log_delta = eco.base.phi * math.log(pf.delta)
    std = mk.beta / math.sqrt(2.0 * mk.alpha)
    t0 = params.horizon.t0
    w = pf.delta
    for _ in range(_FP_MAX_ITER):
        red = cs_reduction(w, params, eco)
        mean = _log_ratio_mean(red, t0, phi_log_delta, std, quad, _GH_NODES)
        check = _log_ratio_mean(red, t0, phi_log_delta, std, quad, 2 * _GH_NODES)
        if abs(mean - check) > _GH_SELF_CHECK * max(1.0, abs(mean)):
            raise FixedPointDivergence(
                f"node-doubling moved E[ln z] by {abs(mean - check):.3e} "
                f"(> {_GH_SELF_CHECK:g}); the expectation is not converged"
            )
        w_next = (1.0 - _FP_DAMPING) * w + _FP_DAMPING * math.exp(mean)
        if not math.isfinite(w_next) or w_next <= 0.0:
            raise FixedPointDivergence(
                f"iterate left the admissible domain: w = {w_next!r}"
            )
        if abs(w_next - w) < _FP_TOL:
            return w_next
        w = w_next
    raise FixedPointDivergence(
        f"|w_(n+1) - w_n| >= {_FP_TOL:g} after {_FP_MAX_ITER} iterations "
        f"(last iterate {w!r})"
    )


class CsSolver:
    """Convenience wrapper; resolves w once and binds it.

    w may be a positive number (pinned) or the string "fixed_point".
    """

    aggregator = "power"

    def __init__(
        self,
        params: ModelParams,
        w: float | str = "fixed_point",
        quad: QuadratureConfig = DEFAULT_QUAD,
    ):
        self.params = params
        self.quad = quad
        if isinstance(w, str):
            self.w = steady_state_w(params, mode=w, quad=quad)
        else:
            self.w = steady_state_w(params, mode="fixed", value=float(w), quad=quad)
        self._eco = exact_coeffs(params)
        self._red = cs_reduction(self.w, params, self._eco)

    def coeffs(self, t: float) -> CsCoeffs:
        G, L, H = glh_state(t, self._red, self.quad)
        return CsCoeffs(w=self.w, t=t, G=G, L=L, H=H, red=self._red)

    def G(self, t: float) -> float:
        return float(coeff_G(t, self._red))

    def L(self, t: float) -> float:
        return float(coeff_L(t, self._red))

    def H(self, t: float) -> float:
        return coeff_H(t, self._red, self.quad)

    def g(self, t: float, m: float) -> GValue:
        b = self.g_full(t, m)
        return GValue(g=b.g, g_m=b.g_m)

    def g_full(self, t: float, m: float) -> GBundle:
        if t > self._red.T:
            raise ValueError(f"t = {t} is past the terminal time T = {self._red.T}")
        return _glh_bundle(t, m, self._red, self.quad)

    def value(self, t: float, x: float, m: float) -> float:
        if x <= 0.0:
            raise NonpositiveWealth(f"wealth must be positive, got x = {x}")
        g = self.g(t, m).g
        gamma = self.params.preference.gamma
        return x ** (1.0 - gamma) * g**self._eco.base.k / (1.0 - gamma)

    def value_derivs(self, t: float, x: float, m: float) -> ValueDerivs:
        if x <= 0.0:
            raise NonpositiveWealth(f"wealth must be positive, got x = {x}")
        gb = self.g_full(t, m)
        return derivs_from_g(x, self.params.preference.gamma, self._eco.base.k, gb)

    def strategy(self, t: float, x: float, m: float) -> StrategyPoint:
        if x <= 0.0:
            raise NonpositiveWealth(f"wealth must be positive, got x = {x}")
        if t > self._red.T:
            raise ValueError(f"t = {t} is past the terminal time T = {self._red.T}")
        G, L, H = glh_state(t, self._red, self.quad)
        u = 2.0 * G * m + L
        c_over_x = self._eco.delta_phi / math.exp(G * m * m + L * m + H)
        return strategy_from_ratio(t, x, m, u, c_over_x, self._eco.base.k, self._eco)
