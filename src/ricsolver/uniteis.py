"""Closed-form solver for the unit-EIS aggregator, and the
exponential-quadratic surface it shares with the log-linearized mode.

With elasticity of intertemporal substitution equal to one, consumption is
myopic (c* = delta x) and the conjecture

    v(t, x, m) = x^(1-gamma) g(t, m) / (1 - gamma),
    g(t, m)    = exp(G(t) m^2 + L(t) m + H(t)),

closes the max-min equation provided (G, L, H) solve, forward in t with
zero terminal values,

    G' = G1 G^2 + G2 G + G3,
    L' = [G1 G + (disc - d1)] L - (2 h2_0 G + h1_src),
    H' = disc H - [(beta^2/2 + G0) L^2 + h2_0 L + beta^2 G + p0],

with G1 = -2 (beta^2 + 2 G0) and G2 = disc - 2 d1.  The constants are an
ExpQuadCoeffs (exact.py, with the shared series code): unit_coeffs here,
cs.cs_reduction for the log-linearized mode, and ExactCoeffs.lag, whose
zero-discount (G, L, H) are the exact kernel's (-C, -B, A).  In the lag
tau = T - t, G and L are closed form (riccati.py).  H solves dH/dtau =
-disc H + s(tau), H(0) = 0, with s quadratic in (G, L) (ExpQuadCoeffs.source
plus p0); each coefficient object tabulates it once, at first use, as a
Chebyshev series on [0, T] (ExpQuadCoeffs.h_table, an exact.LagSeries), so
(G, L, H) at any t is two closed forms and one table read.  ExpQuadSurface,
the unit-EIS and cs solvers, reads g off them on the grid t x m
(exact._Surface); coeff_H integrates H pointwise as the reference.  The
constants shared with the exact mode come from params.reduction_terms;
unit EIS is its k = 1 case.
"""

from __future__ import annotations

import math

import numpy as np

from .exact import (
    ExpQuadCoeffs,
    GBundle,
    StrategyPoint,
    _check_factor,
    _check_wealth,
    _g_out_of_range,
    _lag_G,
    _lag_L,
    _LOG_MAX,
    _Surface,
    strategy_from_ratio,
)
from .params import ModelParams, _horizon_times, reduction_terms, require_inputs, require_preference
from .quadrature import adaptive_gauss

__all__ = [
    "ExpQuadCoeffs",
    "ExpQuadSurface",
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
# the exponential-quadratic reduction's (G, L, H)

def coeff_G(t, co: ExpQuadCoeffs):
    """G(t), vectorized over t in [0, T]."""
    T = co.params.horizon.T
    return _lag_G(T - _horizon_times(t, T, "G"), co)


def coeff_L(t, co: ExpQuadCoeffs):
    """L(t), vectorized over t in [0, T]."""
    T = co.params.horizon.T
    return _lag_L(T - _horizon_times(t, T, "L"), co)


def coeff_H(t: float, co: ExpQuadCoeffs) -> float:
    """H(t), one adaptive quadrature over s of the discounted L/G quadratic form.

    H(t) = int_t^T e^{-disc (s-t)} [(beta^2/2 + G0) L^2 + h2_0 L + beta^2 G] ds
           + p0 (1 - e^{-disc (T-t)}) / disc,
    with the affine term switching to its disc -> 0 limit p0 (T-t) when disc
    is tiny.  L and G are closed form at the nodes.
    """
    T = co.params.horizon.T
    t = float(_horizon_times(t, T, "H"))
    if t == T:
        return 0.0

    def f(s: np.ndarray) -> np.ndarray:
        return np.exp(-co.disc * (s - t)) * co.source(coeff_G(s, co), _lag_L(T - s, co))

    integral = float(adaptive_gauss(f, t, T))
    span = T - t
    if abs(co.disc) < 1e-12:
        affine = co.p0 * span
    else:
        affine = co.p0 * (-math.expm1(-co.disc * span)) / co.disc
    return integral + affine


def glh_rhs(G: float, L: float, H: float, co: ExpQuadCoeffs):
    """Forward-time right-hand sides (dG/dt, dL/dt, dH/dt) at given values."""
    dG = co.G1 * G * G + co.G2 * G + co.G3
    dL = (co.G1 * G + (co.disc - co.d1)) * L - (2.0 * co.h2_0 * G + co.h1_src)
    dH = co.disc * H - (co.source(G, L) + co.p0)
    return dG, dL, dH


def glh_state(t, co: ExpQuadCoeffs):
    """(G, L, H) at t in [0, T], each of t's shape (floats at a scalar t): G
    and L closed form, H one read of the table co.h_table."""
    T = co.params.horizon.T
    tau = T - _horizon_times(t, T, "the H table")
    H = co.h_table(tau)[..., 0]
    return _lag_G(tau, co), _lag_L(tau, co), H if H.ndim else float(H)


class ExpQuadSurface(_Surface):
    """A solver surface whose g is exp(G m^2 + L m + H) of its coefficient
    object coeffs; the unit-EIS and log-linearized solvers are both one."""

    coeffs: ExpQuadCoeffs

    def g(self, t, m) -> GBundle:
        """g with derivatives on the grid t x m; g_t via the ODE right-hand
        sides, so it is exact up to the table error in H."""
        _check_factor(m)
        co = self.coeffs
        G, L, H = glh_state(t, co)
        if getattr(m, "ndim", 0):  # t down, m across the grid
            G, L, H = np.expand_dims((G, L, H), -1)
        expo = G * m * m + L * m + H
        if getattr(expo, "ndim", 0):
            g = np.exp(np.minimum(expo, _LOG_MAX))  # no overflow to warn of
            fits = ((expo <= _LOG_MAX) & (g > 0.0)).all()  # False at NaN
        else:  # math.exp at a point: numpy's exp can miss it by an ulp
            g = math.exp(expo) if expo <= _LOG_MAX else math.inf
            fits = 0.0 < g < math.inf
        if not fits:
            raise _g_out_of_range(t, m)
        lin = 2.0 * G * m + L
        dG, dL, dH = glh_rhs(G, L, H, co)
        return GBundle(
            g=g,
            g_m=g * lin,
            g_mm=g * (lin * lin + 2.0 * G),
            g_t=g * (dG * m * m + dL * m + dH),
            u=lin,
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


def unit_coeffs(params: ModelParams) -> ExpQuadCoeffs:
    """The unit-EIS reduction; rejects whatever require_preference and
    require_inputs do.

    The value normalization 1/(1-gamma) (and the noise coefficient G0 when
    Phi > 0) degenerates at gamma = 1 exactly; the mode covers EIS = 1 with
    any other gamma.  G3 and h1_src are b0 and h1_1 at k = 1.
    """
    mk, pf = params.market, params.preference
    require_preference(pf.gamma, pf.Phi)
    require_inputs(params)
    kappa, b0, h1_1, h2_0, premium, claims = reduction_terms(params, 1.0)
    p0 = (1.0 - pf.gamma) * (
        pf.delta * math.log(pf.delta) + mk.r - pf.delta + premium + claims
    )
    return ExpQuadCoeffs(
        params=params,
        G0=quadratic_noise_coeff(1.0, params),
        G3=b0,
        disc=pf.delta,
        d1=-kappa,
        h1_src=h1_1,
        h2_0=h2_0,
        p0=p0,
    )


# ---------------------------------------------------------------- #
# strategy and solver

def unit_strategy(t, x, m, co: ExpQuadCoeffs) -> StrategyPoint:
    """Optimal controls and worst-case distortions on the grid t x m; c*/x = delta.

    Needs only G and L, both closed form, so no quadrature is involved.
    """
    _check_wealth(x)
    _check_factor(m)
    tau = co.params.horizon.T - _horizon_times(t, co.params.horizon.T, "the strategy")
    G, L = _lag_G(tau, co), _lag_L(tau, co)
    if getattr(m, "ndim", 0):
        G, L = np.expand_dims((G, L), -1)
    return strategy_from_ratio(x, m, 2.0 * G * m + L, co.params.preference.delta, 1.0, co.params)


class UnitEisSolver(ExpQuadSurface):
    """The unit-EIS mode bound to one parameter set; the g-exponent is 1."""

    aggregator = "unit"
    k = 1.0

    def __init__(self, params: ModelParams):
        self.params = params
        self.coeffs = unit_coeffs(params)

    def c_over_x(self, g):
        """c*/x = delta, whatever g is."""
        return self.params.preference.delta

    def strategy(self, t, x, m) -> StrategyPoint:
        return unit_strategy(t, x, m, self.coeffs)
