"""Closed-form solver for the unit-EIS aggregator.

With elasticity of intertemporal substitution equal to one, consumption is
myopic (c* = delta x) and the conjecture

    v(t, x, m) = x^(1-gamma) g(t, m) / (1 - gamma),
    g(t, m)    = exp(G(t) m^2 + L(t) m + H(t)),

closes the max-min equation provided (G, L, H) solve, forward in t with
zero terminal values,

    G' = G1 G^2 + G2 G + G3,
    L' = [G1 G + (disc - d1)] L - (2 h2_0 G + h1_src),
    H' = disc H - [(beta^2/2 + G0) L^2 + h2_0 L + beta^2 G + p0].

In the lag tau = T - t, G is the zero-initial-value Riccati kernel of
riccati.py and L its linear companion (riccati_linear_zero_ic), both closed
form; H is one adaptive quadrature on top of them.
The log-linearized mode reduces to the same three equations with its own
constants and discount rate, so the reduction machinery below is written
against the neutral coefficient container ExpQuadCoeffs and shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InadmissibleParameter
from .exact import GBundle, StrategyPoint, _check_wealth, _Surface, strategy_from_ratio
from .params import ModelParams
from .quadrature import DEFAULT_QUAD, QuadratureConfig, adaptive_gauss
from .riccati import riccati_linear_zero_ic, riccati_zero_ic

__all__ = [
    "ExpQuadCoeffs",
    "UnitEisCoeffs",
    "UnitEisSolver",
    "coeff_G",
    "coeff_L",
    "coeff_H",
    "glh_rhs",
    "glh_state",
    "quadratic_noise_coeff",
    "unit_coeffs",
    "unit_strategy",
]


# ---------------------------------------------------------------- #
# shared exponential-quadratic reduction

@dataclass(frozen=True)
class ExpQuadCoeffs:
    """Constants of one exponential-quadratic reduction.

    disc is the discount rate acting on L and H (delta here, the steady
    consumption-wealth level in the log-linearized mode); d1 is the slope
    of the m-drift; h1_src the constant source in the L equation; p0 the
    constant source in the H equation.
    """

    G0: float
    G1: float
    G2: float
    G3: float
    disc: float
    d1: float
    h1_src: float
    h2_0: float
    p0: float
    beta: float
    T: float

    def kernel_abc(self) -> tuple[float, float, float]:
        """Riccati coefficients of G in the lag variable tau = T - t."""
        return -self.G1, -self.G2, -self.G3


def coeff_G(t, co: ExpQuadCoeffs):
    """G(t), vectorized over t (requires t <= T)."""
    tau = co.T - np.asarray(t, dtype=float)
    a, b, c = co.kernel_abc()
    return riccati_zero_ic(tau, a, b, c)


def _lag_L(tau, co: ExpQuadCoeffs):
    """L at lag tau = T - t: z' = -(disc - d1 - G1 G) z + 2 h2_0 G + h1_src."""
    a, b, c = co.kernel_abc()
    return riccati_linear_zero_ic(tau, a, b, c, co.disc - co.d1, 2.0 * co.h2_0, co.h1_src)


def coeff_L(t, co: ExpQuadCoeffs):
    """L(t), vectorized over t (requires t <= T)."""
    t = np.asarray(t, dtype=float)
    if np.any(t > co.T):
        raise ValueError(f"t = {t} is past the terminal time T = {co.T}")
    return _lag_L(co.T - t, co)


def coeff_H(t: float, co: ExpQuadCoeffs, quad: QuadratureConfig = DEFAULT_QUAD) -> float:
    """H(t), one adaptive quadrature over s of the discounted L/G quadratic form.

    H(t) = int_t^T e^{-disc (s-t)} [(beta^2/2 + G0) L^2 + h2_0 L + beta^2 G] ds
           + p0 (1 - e^{-disc (T-t)}) / disc,
    with the affine term switching to its disc -> 0 limit p0 (T-t) when disc
    is tiny.  L and G are closed form at the nodes.
    """
    if t > co.T:
        raise ValueError(f"t = {t} is past the terminal time T = {co.T}")
    if t == co.T:
        return 0.0

    def f(s: np.ndarray) -> np.ndarray:
        L = _lag_L(co.T - s, co)
        G = coeff_G(s, co)
        quad_form = (0.5 * co.beta**2 + co.G0) * L * L + co.h2_0 * L + co.beta**2 * G
        return np.exp(-co.disc * (s - t)) * quad_form

    integral = float(adaptive_gauss(f, t, co.T, quad))
    span = co.T - t
    if abs(co.disc) < 1e-12:
        affine = co.p0 * span
    else:
        affine = co.p0 * (-math.expm1(-co.disc * span)) / co.disc
    return integral + affine


def glh_rhs(G: float, L: float, H: float, co: ExpQuadCoeffs):
    """Forward-time right-hand sides (dG/dt, dL/dt, dH/dt) at given values."""
    dG = co.G1 * G * G + co.G2 * G + co.G3
    dL = (co.G1 * G + (co.disc - co.d1)) * L - (2.0 * co.h2_0 * G + co.h1_src)
    quad_form = (0.5 * co.beta**2 + co.G0) * L * L + co.h2_0 * L + co.beta**2 * G
    dH = co.disc * H - (quad_form + co.p0)
    return dG, dL, dH


def glh_state(
    t: float, co: ExpQuadCoeffs, quad: QuadratureConfig = DEFAULT_QUAD
) -> tuple[float, float, float]:
    """(G, L, H) at time t <= T."""
    if t > co.T:
        raise ValueError(f"t = {t} is past the terminal time T = {co.T}")
    return float(coeff_G(t, co)), float(coeff_L(t, co)), coeff_H(t, co, quad)


def _glh_bundle(t: float, m: float, co: ExpQuadCoeffs) -> GBundle:
    """g = exp(G m^2 + L m + H) with derivatives; g_t via the ODE right-hand
    sides, so it is exact up to the quadrature error in H."""
    G, L, H = glh_state(t, co)
    g = math.exp(G * m * m + L * m + H)
    lin = 2.0 * G * m + L
    dG, dL, dH = glh_rhs(G, L, H, co)
    return GBundle(
        g=g,
        g_m=g * lin,
        g_mm=g * (lin * lin + 2.0 * G),
        g_t=g * (dG * m * m + dL * m + dH),
    )


# ---------------------------------------------------------------- #
# unit-EIS constants

def quadratic_noise_coeff(k: float, params: ModelParams) -> float:
    """Coefficient of (g_m)^2/g left by the pi/xi completion of squares.

    k beta^2 rho1^2 (1-gamma-Phi)^2 / (2 (Phi+gamma)(1-gamma))
    - Phi k beta^2 / (2 (1-gamma)) + beta^2 (k-1)/2.
    Identically zero at the derived k; the unit-EIS mode pins k = 1 and
    keeps the leftover.
    """
    mk, pf = params.market, params.preference
    one_g = 1.0 - pf.gamma
    pg = pf.Phi + pf.gamma
    return (
        k * mk.beta**2 * mk.rho1**2 * (one_g - pf.Phi) ** 2 / (2.0 * pg * one_g)
        - pf.Phi * k * mk.beta**2 / (2.0 * one_g)
        + mk.beta**2 * (k - 1.0) / 2.0
    )


@dataclass(frozen=True)
class UnitEisCoeffs:
    """Reduction constants plus the strategy loadings for the unit-EIS mode."""

    params: ModelParams
    red: ExpQuadCoeffs
    kappa: float
    c_pi: float


def unit_coeffs(params: ModelParams) -> UnitEisCoeffs:
    """Assemble the unit-EIS constants; rejects gamma = 1 and sigma = 0.

    The value normalization 1/(1-gamma) (and the noise coefficient G0 when
    Phi > 0) degenerates at gamma = 1 exactly; the mode covers EIS = 1 with
    any other gamma.
    """
    mk, ins, pf = params.market, params.insurance, params.preference
    one_g = 1.0 - pf.gamma
    if abs(one_g) < 1e-12:
        raise InadmissibleParameter(
            "gamma = 1 makes the 1/(1-gamma) value normalization degenerate; "
            "perturb gamma away from 1"
        )
    pg = pf.Phi + pf.gamma
    if pg <= 0.0:
        raise InadmissibleParameter(f"Phi + gamma = {pg!r} must be positive")
    if mk.sigma == 0.0:
        raise InadmissibleParameter("sigma = 0 leaves the risky asset without volatility")
    kappa = mk.alpha - (one_g - pf.Phi) * mk.beta * mk.rho1 / pg
    G0 = quadratic_noise_coeff(1.0, params)
    x_claims = ins.lam * ins.theta1**2 * ins.mu1**2 / (2.0 * pg * ins.mu2)
    p0 = one_g * (
        pf.delta * math.log(pf.delta)
        + mk.r
        - pf.delta
        + (mk.a - mk.r) ** 2 / (2.0 * pg * mk.sigma**2)
        + x_claims
    )
    red = ExpQuadCoeffs(
        G0=G0,
        G1=-2.0 * (mk.beta**2 + 2.0 * G0),
        G2=2.0 * kappa + pf.delta,
        G3=-one_g / (2.0 * pg),
        disc=pf.delta,
        d1=-kappa,
        h1_src=one_g * (mk.a - mk.r) / (pg * mk.sigma),
        h2_0=(one_g - pf.Phi) * (mk.a - mk.r) * mk.beta * mk.rho1 / (pg * mk.sigma),
        p0=p0,
        beta=mk.beta,
        T=params.horizon.T,
    )
    c_pi = (one_g - pf.Phi) * mk.beta * mk.rho1 * mk.sigma / one_g
    return UnitEisCoeffs(params=params, red=red, kappa=kappa, c_pi=c_pi)


# ---------------------------------------------------------------- #
# strategy and solver

def unit_strategy(t: float, x: float, m: float, co: UnitEisCoeffs) -> StrategyPoint:
    """Optimal controls and worst-case distortions; c*/x = delta exactly.

    Needs only G and L, both closed form, so no quadrature is involved.
    """
    _check_wealth(x)
    u = 2.0 * coeff_G(t, co.red) * m + coeff_L(t, co.red)
    return strategy_from_ratio(t, x, m, u, co.params.preference.delta, 1.0, co)


class UnitEisSolver(_Surface):
    """The unit-EIS mode bound to one parameter set; the g-exponent is 1."""

    aggregator = "unit"
    k = 1.0

    def __init__(self, params: ModelParams):
        self.params = params
        self.coeffs = unit_coeffs(params)

    def g_full(self, t: float, m: float) -> GBundle:
        return _glh_bundle(t, m, self.coeffs.red)

    def strategy(self, t: float, x: float, m: float) -> StrategyPoint:
        return unit_strategy(t, x, m, self.coeffs)
