"""Closed-form solution in the exact (non-unit-EIS) mode.

The value function is v(t, x, m) = x^(1-gamma) g(t, m)^k / (1-gamma) with

    g(t, m) = delta^phi * int_t^T h(t, m; s) ds + h(t, m; T),
    h(t, m; s) = exp(A(t, s) - B(t, s) m - C(t, s) m^2),

where (A, B, C) solve, backward in t with A = B = C = 0 at t = s,

    dC/dt = 2 beta^2 C^2 + 2 kappa C - b0
    dB/dt = (kappa + 2 beta^2 C) B - 2 h2_0 C + h1_1
    dA/dt = -(1/2) beta^2 B^2 + beta^2 C + h2_0 B - h1_0.

Every coefficient of these ODEs is constant, so A, B and C depend on the
lag tau = s - t only.  In tau, C is the zero-initial-value Riccati kernel of
riccati.py and B its linear companion (riccati_linear_zero_ic), both closed
form; A is one adaptive quadrature of its right-hand side over the lag.
g is built on a lag table (LagTable), made once per ExactCoeffs at the
first g it is asked for: Chebyshev interpolants on tau in [0, T] of
B-hat(tau) = B(0, tau), sampled from the closed form, and of A-hat(tau) =
A(0, tau), the exact Chebyshev antiderivative of the A right-hand side.
The interpolant degree is doubled until the trailing coefficients are
negligible.  g and its derivatives are then one adaptive integral over the
lag.

coeff_A, coeff_B and h_eval evaluate the same coefficients pointwise,
independently of the table; the verification layer and the tests use them
as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import chebyshev

from .errors import DegenerateK, NonpositiveWealth, QuadratureBudgetExceeded
from .params import DerivedCoeffs, ModelParams, derive_coeffs
from .quadrature import DEFAULT_QUAD, QuadratureConfig, adaptive_gauss
from .riccati import riccati_linear_zero_ic, riccati_zero_ic

_UNIT_PHI_TOL = 1e-9
# Lag-table node counts: start, doubling cap, and the trailing-coefficient
# level below which the interpolants count as converged.
_TABLE_MIN_NODES = 16
_TABLE_MAX_NODES = 1024
_TABLE_TAIL_TOL = 1e-14


@dataclass(frozen=True)
class ExactCoeffs:
    """DerivedCoeffs plus the reduced-equation constants.

    The reduced equation for g is
        g_t + (1/2) beta^2 g_mm + H2(m) g_m + H1(m) g + delta^phi = 0
    with the discount H1 and the drift H2 below.  c_pi is the factor
    loading inside pi*: pi*/x = (R + c_pi g_m/g) / ((Phi+gamma) sigma^2)
    with R = sigma m + a - r.
    """

    params: ModelParams
    base: DerivedCoeffs
    h1_0: float
    h1_1: float
    h2_0: float
    c_pi: float
    delta_phi: float
    beta: float
    T: float

    def H1(self, m):
        """Discount of the reduced equation, h1_0 + h1_1 m - b0 m^2."""
        return self.h1_0 + self.h1_1 * m - self.base.b0 * m * m

    def H2(self, m):
        """Factor drift of the reduced equation, h2_0 - kappa m."""
        return self.h2_0 - self.base.kappa * m

    @cached_property
    def lag_table(self) -> "LagTable":
        """A-hat and B-hat on [0, T]; built at first use, then shared."""
        return _build_lag_table(self)


@dataclass(frozen=True)
class LagTable:
    """Chebyshev interpolants of A-hat(tau) = A(0, tau) and B-hat(tau) =
    B(0, tau) in the lag tau in [0, span].

    coef[:, 0] and coef[:, 1] are their Chebyshev coefficients in
    y = 2 tau / span - 1.  tail, the error estimate, is the largest of the
    highest-degree eighth of either column relative to max(1, that
    column's largest coefficient): an absolute measure for the O(1)
    exponents that enter h.
    """

    span: float
    coef: np.ndarray
    tail: float

    def __call__(self, tau) -> np.ndarray:
        """(A-hat, B-hat) at the lags tau; shape tau.shape + (2,).

        The basis is cos(j arccos y) directly: numpy's chebval is a Python
        loop over the degree and would cost more than the rest of g.
        """
        y = np.clip(2.0 * np.asarray(tau, dtype=float) / self.span - 1.0, -1.0, 1.0)
        return _cheb_basis(np.arccos(y), self.coef.shape[0]) @ self.coef


@dataclass(frozen=True)
class GBundle:
    """g with every derivative the verification layer consumes."""

    g: float
    g_m: float
    g_mm: float
    g_t: float


@dataclass(frozen=True)
class StrategyPoint:
    """Optimal controls and worst-case drift distortions at one (t, x, m).

    pi: amount in the risky asset; q: retained claim fraction; c: consumption
    rate; xi1..xi3 distort the asset, the orthogonal factor noise, and the
    claim noise. *_over_x are the wealth-scaled ratios.
    """

    pi: float
    q: float
    c: float
    xi1: float
    xi2: float
    xi3: float
    pi_over_x: float
    q_over_x: float
    c_over_x: float


@dataclass(frozen=True)
class ValueDerivs:
    """v and the partial derivatives the HJBI bracket consumes."""

    v: float
    v_t: float
    v_x: float
    v_xx: float
    v_m: float
    v_mm: float
    v_xm: float


def exact_coeffs(params: ModelParams) -> ExactCoeffs:
    """Assemble every constant of the closed form; validates applicability."""
    base = derive_coeffs(params)
    if abs(base.phi - 1.0) <= _UNIT_PHI_TOL:
        raise DegenerateK(
            f"derived phi = {base.phi!r} is within {_UNIT_PHI_TOL} of 1; "
            "this mode has a removable singularity there, use the unit-EIS solver"
        )
    mk, ins, pf = params.market, params.insurance, params.preference
    one_g = 1.0 - pf.gamma
    pg = pf.Phi + pf.gamma
    x_claims = ins.lam * ins.theta1**2 * ins.mu1**2 / (2.0 * pg * ins.mu2)
    # delta/(1 - 1/phi) is written as delta*phi/(phi-1) so phi = 0 is fine;
    # phi = 1 is excluded above.
    h1_0 = (one_g / base.k) * (
        mk.r
        + (mk.a - mk.r) ** 2 / (2.0 * pg * mk.sigma**2)
        + x_claims
        - pf.delta * base.phi / (base.phi - 1.0)
    )
    h1_1 = one_g * (mk.a - mk.r) / (base.k * pg * mk.sigma)
    h2_0 = (one_g - pf.Phi) * (mk.a - mk.r) * mk.beta * mk.rho1 / (pg * mk.sigma)
    c_pi = (one_g - pf.Phi) * base.k * mk.beta * mk.rho1 * mk.sigma / one_g
    return ExactCoeffs(
        params=params,
        base=base,
        h1_0=h1_0,
        h1_1=h1_1,
        h2_0=h2_0,
        c_pi=c_pi,
        delta_phi=pf.delta**base.phi,
        beta=mk.beta,
        T=params.horizon.T,
    )


# ---------------------------------------------------------------- #
# A, B, C

def _lag_C(tau, co: ExactCoeffs):
    """C at lag tau: y' = -2 beta^2 y^2 - 2 kappa y + b0, y(0) = 0."""
    return riccati_zero_ic(tau, -2.0 * co.beta**2, -2.0 * co.base.kappa, co.base.b0)


def _lag_B(tau, co: ExactCoeffs):
    """B at lag tau: z' = -(kappa + 2 beta^2 C) z + 2 h2_0 C - h1_1, z(0) = 0."""
    base = co.base
    return riccati_linear_zero_ic(
        tau, -2.0 * co.beta**2, -2.0 * base.kappa, base.b0, base.kappa, 2.0 * co.h2_0, -co.h1_1
    )


def _lag(t, s) -> np.ndarray:
    tau = np.asarray(s, dtype=float) - np.asarray(t, dtype=float)
    if np.any(tau < 0.0):
        raise ValueError("the coefficients need t <= s")
    return tau


def coeff_C(t, s, co: ExactCoeffs):
    """C(t, s), vectorized over broadcastable t and s (requires t <= s)."""
    return _lag_C(_lag(t, s), co)


def coeff_B(t, s, co: ExactCoeffs):
    """B(t, s), vectorized over broadcastable t and s (requires t <= s)."""
    return _lag_B(_lag(t, s), co)


def _dA_dtau(tau, co: ExactCoeffs):
    """Lag derivative of A less its constant h1_0: beta^2 B^2/2 - beta^2 C - h2_0 B."""
    B = _lag_B(tau, co)
    return 0.5 * co.beta**2 * B * B - co.beta**2 * _lag_C(tau, co) - co.h2_0 * B


def coeff_A(t: float, s: float, co: ExactCoeffs, quad: QuadratureConfig = DEFAULT_QUAD) -> float:
    """A(t, s) = int_0^{s-t} [beta^2 B^2/2 - beta^2 C - h2_0 B](tau) dtau + h1_0 (s-t).

    One adaptive integral over the lag; B and C are closed form at its nodes.
    """
    tau = float(_lag(t, s))
    return float(adaptive_gauss(lambda u: _dA_dtau(u, co), 0.0, tau, quad)) + co.h1_0 * tau


def abc_rhs(A, B, C, co: ExactCoeffs):
    """Backward-ODE right-hand sides (dA/dt, dB/dt, dC/dt) at given values."""
    base = co.base
    dC = 2.0 * co.beta**2 * C * C + 2.0 * base.kappa * C - base.b0
    dB = (base.kappa + 2.0 * co.beta**2 * C) * B - 2.0 * co.h2_0 * C + co.h1_1
    dA = -0.5 * co.beta**2 * B * B + co.beta**2 * C + co.h2_0 * B - co.h1_0
    return dA, dB, dC


def h_eval(t: float, m: float, s: float, co: ExactCoeffs) -> float:
    """h(t, m; s) = exp(A - B m - C m^2)."""
    A = coeff_A(t, s, co)
    B = coeff_B(t, s, co)
    C = coeff_C(t, s, co)
    return math.exp(A - B * m - C * m * m)


# ---------------------------------------------------------------- #
# the lag table

def _cheb_basis(theta: np.ndarray, n: int) -> np.ndarray:
    """T_j(cos theta) = cos(j theta) for j < n; shape theta.shape + (n,)."""
    return np.cos(theta[..., None] * np.arange(n))


def _build_lag_table(co: ExactCoeffs) -> LagTable:
    """Sample B-hat at n Chebyshev points of [0, T], doubling n until both
    interpolants have converged; A-hat is the antiderivative of its
    right-hand side."""
    span = co.T
    n = _TABLE_MIN_NODES
    while True:
        theta = np.pi * (np.arange(n) + 0.5) / n
        tau = 0.5 * span * (1.0 + np.cos(theta))
        B = _lag_B(tau, co)
        dA = _dA_dtau(tau, co)
        c_dA, c_B = (2.0 / n) * (_cheb_basis(theta, n).T @ np.stack([dA, B], axis=-1)).T
        c_dA[0] *= 0.5
        c_B[0] *= 0.5
        c_A = chebyshev.chebint(c_dA, lbnd=-1.0, scl=0.5 * span)
        c_A[:2] += 0.5 * span * co.h1_0  # h1_0 tau = h1_0 span (1 + y) / 2
        coef = np.stack([c_A, np.append(c_B, 0.0)], axis=-1)
        tail = max(
            float(np.max(np.abs(col[-(n // 8):])) / max(1.0, float(np.max(np.abs(col)))))
            for col in coef.T
        )
        if tail <= _TABLE_TAIL_TOL:
            return LagTable(span=span, coef=coef, tail=tail)
        if 2 * n > _TABLE_MAX_NODES:
            raise QuadratureBudgetExceeded(
                f"lag table on [0, {span}] not converged at {n} nodes: "
                f"trailing coefficient {tail:.3e} > {_TABLE_TAIL_TOL:g}"
            )
        n *= 2


# ---------------------------------------------------------------- #
# g and everything built on it

def g_bundle(t: float, m: float, co: ExactCoeffs) -> GBundle:
    """g with g_m, g_mm, g_t in one adaptive pass."""
    g, g_m, g_mm, g_t = g_bundle_array(t, np.array([m], dtype=float), co)[:, 0]
    return GBundle(g=float(g), g_m=float(g_m), g_mm=float(g_mm), g_t=float(g_t))


def g_bundle_array(t: float, m: np.ndarray, co: ExactCoeffs) -> np.ndarray:
    """Rows g, g_m, g_mm, g_t at one t for a 1-d array of m; shape (4, m.size).

    One adaptive integral over the lag tau in [0, T - t] covers every m; its
    error control is the max-norm over all 4 m.size columns.  A-hat and
    B-hat come from the lag table.  All derivatives are differentiation
    under the integral; g_t uses the backward-ODE right-hand sides for
    (A_t, B_t, C_t) plus the boundary term -delta^phi from the moving lower
    limit (h(t, m; t) = 1).
    """
    T = co.T
    if t > T:
        raise ValueError(f"t = {t} is past the terminal time T = {T}")
    if t < 0.0:
        raise ValueError(f"t = {t} is before 0; the lag table covers t in [0, T = {T}]")
    table = co.lag_table

    def columns(tau: np.ndarray) -> np.ndarray:
        AB = table(tau)
        A, B = AB[:, :1], AB[:, 1:]
        C = _lag_C(tau, co)[:, None]
        h = np.exp(A - B * m - C * m * m)
        lin = B + 2.0 * C * m
        dA, dB, dC = abc_rhs(A, B, C, co)
        return np.concatenate(
            [h, -h * lin, h * (lin * lin - 2.0 * C), h * (dA - m * dB - m * m * dC)],
            axis=-1,
        )

    span = T - t
    ints = adaptive_gauss(columns, 0.0, span)
    term = columns(np.array([span]))[0]
    out = (co.delta_phi * ints + term).reshape(4, m.size)
    out[3] -= co.delta_phi
    return out


def derivs_from_g(x: float, gamma: float, k: float, gb: GBundle) -> ValueDerivs:
    """Partial derivatives of v = x^(1-gamma) g^k / (1-gamma) from a g-bundle.

    Shared by every mode whose value function has this separable shape; the
    unit-EIS mode passes k = 1.
    """
    one_g = 1.0 - gamma
    gk = gb.g**k
    v = x**one_g * gk / one_g
    ratio_m = k * gb.g_m / gb.g
    return ValueDerivs(
        v=v,
        v_t=v * k * gb.g_t / gb.g,
        v_x=x ** (-gamma) * gk,
        v_xx=-gamma * x ** (-gamma - 1.0) * gk,
        v_m=v * ratio_m,
        v_mm=v * (k * (k - 1.0) * (gb.g_m / gb.g) ** 2 + k * gb.g_mm / gb.g),
        v_xm=x ** (-gamma) * gk * ratio_m,
    )


def strategy_from_ratio(
    t: float, x: float, m: float, u: float, c_over_x: float, k: float, co
) -> StrategyPoint:
    """Strategy formulas given u = g_m/g and the consumption ratio c/x.

    Every mode shares them: the exact and log-linearized modes pass
    c/x = delta^phi / g, the unit-EIS mode delta with k = 1.  co is any
    coefficient bundle with params and c_pi.  Elementwise, so broadcastable
    arrays of (t, x, m, u, c_over_x) give arrays of ratios
    (TabulatedStrategy's grid)."""
    mk, ins, pf = co.params.market, co.params.insurance, co.params.preference
    pg = pf.Phi + pf.gamma
    one_g = 1.0 - pf.gamma
    R = mk.sigma * m + mk.a - mk.r
    pi_over_x = (R + co.c_pi * u) / (pg * mk.sigma**2)
    q_over_x = ins.theta1 * ins.mu1 / (pg * ins.mu2)
    xi1 = pf.Phi * R / (pg * mk.sigma) + pf.Phi * k * mk.beta * mk.rho1 * u / (one_g * pg)
    xi2 = pf.Phi * k * mk.beta * math.sqrt(1.0 - mk.rho1**2) * u / one_g
    xi3 = pf.Phi * ins.theta1 * ins.mu1 * math.sqrt(ins.lam) / (pg * math.sqrt(ins.mu2))
    return StrategyPoint(
        pi=pi_over_x * x,
        q=q_over_x * x,
        c=c_over_x * x,
        xi1=xi1,
        xi2=xi2,
        xi3=xi3,
        pi_over_x=pi_over_x,
        q_over_x=q_over_x,
        c_over_x=c_over_x,
    )


class _Surface:
    """Value and value derivatives of one mode, written once.

    Every mode's value is v = x^(1-gamma) g^k / (1-gamma).  A subclass sets
    params and the exponent k and implements g(t, m) -> GBundle; the
    strategy stays with each mode, whose rules differ.
    """

    params: ModelParams
    k: float

    def g(self, t: float, m: float) -> GBundle:
        raise NotImplementedError

    def value(self, t: float, x: float, m: float) -> float:
        """v(t, x, m); requires x > 0."""
        _check_wealth(x)
        gamma = self.params.preference.gamma
        return x ** (1.0 - gamma) * self.g(t, m).g ** self.k / (1.0 - gamma)

    def value_derivs(self, t: float, x: float, m: float) -> ValueDerivs:
        """ValueDerivs at (t, x, m); requires x > 0."""
        _check_wealth(x)
        return derivs_from_g(x, self.params.preference.gamma, self.k, self.g(t, m))


def _check_wealth(x: float) -> None:
    if x <= 0.0:
        raise NonpositiveWealth(f"wealth must be positive, got x = {x}")


class ExactSolver(_Surface):
    """The exact mode bound to one parameter set; g is the lag-table kernel."""

    aggregator = "power"

    def __init__(self, params: ModelParams):
        self.params = params
        self.coeffs = exact_coeffs(params)
        self.k = self.coeffs.base.k

    def g(self, t: float, m: float) -> GBundle:
        return g_bundle(t, m, self.coeffs)

    def strategy(self, t: float, x: float, m: float) -> StrategyPoint:
        """Optimal (pi, q, c) and worst-case (xi1, xi2, xi3) at (t, x, m)."""
        _check_wealth(x)
        gv = self.g(t, m)
        co = self.coeffs
        return strategy_from_ratio(t, x, m, gv.g_m / gv.g, co.delta_phi / gv.g, self.k, co)
