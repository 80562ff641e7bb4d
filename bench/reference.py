"""Independent references for the benchmark's correctness checks.

Nothing here calls the package's quadratures, closed forms or derived
constants.  The structural constants are rebuilt from the public
parameter record, and the coefficient ODEs are integrated with
``scipy.integrate.solve_ivp`` in the lag variable tau = T - t (or s - t).
Tolerances of the integrator (rtol 1e-12) sit three orders below the
accuracy the package promises, so a disagreement is the package's.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
from scipy.integrate import solve_ivp

_ODE = dict(method="DOP853", rtol=1e-12, atol=1e-14)


def exact_constants(p) -> SimpleNamespace:
    """Derived exponent pair (k, phi) and the reduced-equation constants.

    k and phi make k (1 - phi)/(1 - gamma) = -1; the reduced equation is
    g_t + beta^2/2 g_mm + (h2_0 - kappa m) g_m + (h1_0 + h1_1 m - b0 m^2) g
    + delta^phi = 0 with g(T, m) = 1.
    """
    mk, ins, pf = p.market, p.insurance, p.preference
    og, pg = 1.0 - pf.gamma, pf.Phi + pf.gamma
    rho2 = mk.rho1**2
    k = 1.0 / (1.0 - pf.Phi / og + (og - pf.Phi) ** 2 * rho2 / (og * pg))
    phi = 2.0 - pf.gamma - pf.Phi + (og - pf.Phi) ** 2 * rho2 / pg
    prem = mk.a - mk.r
    x_claims = ins.lam * ins.theta1**2 * ins.mu1**2 / (2.0 * pg * ins.mu2)
    return SimpleNamespace(
        k=k,
        phi=phi,
        kappa=mk.alpha - (og - pf.Phi) * mk.beta * mk.rho1 / pg,
        b0=-og / (2.0 * k * pg),
        h1_0=(og / k) * (mk.r + prem**2 / (2.0 * pg * mk.sigma**2) + x_claims
                         - pf.delta * phi / (phi - 1.0)),
        h1_1=og * prem / (k * pg * mk.sigma),
        h2_0=(og - pf.Phi) * prem * mk.beta * mk.rho1 / (pg * mk.sigma),
        dphi=pf.delta**phi,
        x_claims=x_claims,
    )


def q_over_x(p) -> float:
    ins, pf = p.insurance, p.preference
    return ins.theta1 * ins.mu1 / ((pf.Phi + pf.gamma) * ins.mu2)


def exact_g(p, t: float, m: float) -> tuple[float, float]:
    """(g, g_m) at (t, m) from the (A, B, C) ODEs and the running h integrals.

    h(tau) = exp(A - B m - C m^2) depends on the lag tau = s - t only, so
    g = delta^phi int_0^{T-t} h dtau + h(T - t), and g_m the same with
    -(B + 2 C m) h in place of h.
    """
    c = exact_constants(p)
    beta2 = p.market.beta**2

    def rhs(_, y):
        A, B, C = y[0], y[1], y[2]
        h = math.exp(A - B * m - C * m * m)
        return (
            -(-0.5 * beta2 * B * B + beta2 * C + c.h2_0 * B - c.h1_0),
            -((c.kappa + 2.0 * beta2 * C) * B - 2.0 * c.h2_0 * C + c.h1_1),
            -(2.0 * beta2 * C * C + 2.0 * c.kappa * C - c.b0),
            h,
            -(B + 2.0 * C * m) * h,
        )

    tau = p.horizon.T - t
    if tau == 0.0:
        return 1.0, 0.0
    A, B, C, I, J = solve_ivp(rhs, (0.0, tau), np.zeros(5), **_ODE).y[:, -1]
    h = math.exp(A - B * m - C * m * m)
    return c.dphi * I + h, c.dphi * J - (B + 2.0 * C * m) * h


def _expquad(p, k: float, disc: float, p0: float, G3: float, h1_src: float):
    """Constants of g = exp(G m^2 + L m + H) for exponent k and discount disc."""
    mk, pf = p.market, p.preference
    og, pg = 1.0 - pf.gamma, pf.Phi + pf.gamma
    beta2 = mk.beta**2
    G0 = (k * beta2 * mk.rho1**2 * (og - pf.Phi) ** 2 / (2.0 * pg * og)
          - pf.Phi * k * beta2 / (2.0 * og) + beta2 * (k - 1.0) / 2.0)
    kappa = mk.alpha - (og - pf.Phi) * mk.beta * mk.rho1 / pg
    return SimpleNamespace(
        G0=G0, G1=-2.0 * (beta2 + 2.0 * G0), G2=2.0 * kappa + disc, G3=G3,
        disc=disc, d1=-kappa, h1_src=h1_src,
        h2_0=(og - pf.Phi) * (mk.a - mk.r) * mk.beta * mk.rho1 / (pg * mk.sigma),
        p0=p0, beta2=beta2,
    )


def unit_constants(p) -> SimpleNamespace:
    mk, pf = p.market, p.preference
    og, pg = 1.0 - pf.gamma, pf.Phi + pf.gamma
    x = exact_constants(p).x_claims
    p0 = og * (pf.delta * math.log(pf.delta) + mk.r - pf.delta
               + (mk.a - mk.r) ** 2 / (2.0 * pg * mk.sigma**2) + x)
    return _expquad(p, 1.0, pf.delta, p0, -og / (2.0 * pg),
                    og * (mk.a - mk.r) / (pg * mk.sigma))


def cs_constants(p, w: float) -> SimpleNamespace:
    c = exact_constants(p)
    p0 = c.h1_0 + w * (1.0 - math.log(w) + c.phi * math.log(p.preference.delta))
    return _expquad(p, c.k, w, p0, c.b0, c.h1_1)


def glh(co: SimpleNamespace, tau: float) -> tuple[float, float, float]:
    """(G, L, H) at lag tau = T - t from the forward ODEs, zero at T."""
    if tau == 0.0:
        return 0.0, 0.0, 0.0

    def rhs(_, y):
        G, L, H = y
        quad = (0.5 * co.beta2 + co.G0) * L * L + co.h2_0 * L + co.beta2 * G
        return (
            -(co.G1 * G * G + co.G2 * G + co.G3),
            -((co.G1 * G + co.disc - co.d1) * L - (2.0 * co.h2_0 * G + co.h1_src)),
            -(co.disc * H - (quad + co.p0)),
        )

    G, L, H = solve_ivp(rhs, (0.0, tau), np.zeros(3), **_ODE).y[:, -1]
    return float(G), float(L), float(H)


def _pi_over_x(p, m: float, u: float, k: float) -> float:
    """Optimal risky ratio (R + c_pi u) / ((Phi + gamma) sigma^2), u = g_m/g."""
    mk, pf = p.market, p.preference
    og = 1.0 - pf.gamma
    c_pi = (og - pf.Phi) * k * mk.beta * mk.rho1 * mk.sigma / og
    R = mk.sigma * m + mk.a - mk.r
    return (R + c_pi * u) / ((pf.Phi + pf.gamma) * mk.sigma**2)


def _value(p, x: float, g: float, k: float) -> float:
    og = 1.0 - p.preference.gamma
    return x**og * g**k / og


def solution(p, mode: str, t: float, x: float, m: float, w: float | None = None):
    """Reference (pi/x, c/x, value) at (t, x, m) in one of the three modes."""
    if mode == "exact":
        c = exact_constants(p)
        g, g_m = exact_g(p, t, m)
        return _pi_over_x(p, m, g_m / g, c.k), c.dphi / g, _value(p, x, g, c.k)
    tau = p.horizon.T - t
    if mode == "unit_eis":
        G, L, H = glh(unit_constants(p), tau)
        g = math.exp(G * m * m + L * m + H)
        return _pi_over_x(p, m, 2.0 * G * m + L, 1.0), p.preference.delta, _value(p, x, g, 1.0)
    c = exact_constants(p)
    G, L, H = glh(cs_constants(p, w), tau)
    g = math.exp(G * m * m + L * m + H)
    return _pi_over_x(p, m, 2.0 * G * m + L, c.k), c.dphi / g, _value(p, x, g, c.k)


def cs_level_residual(p, w: float) -> float:
    """ln w - (phi ln delta - (G s^2 + H)) at t0, s^2 = beta^2 / (2 alpha).

    E[G m^2 + L m + H] under Normal(0, s^2) is G s^2 + H exactly, so a
    converged fixed point makes this vanish to the iteration's step size.
    """
    c = exact_constants(p)
    G, _, H = glh(cs_constants(p, w), p.horizon.T - p.horizon.t0)
    s2 = p.market.beta**2 / (2.0 * p.market.alpha)
    return math.log(w) - (c.phi * math.log(p.preference.delta) - (G * s2 + H))


def ou_moments(m0: float, drift0: float, kappa: float, beta: float, span: float):
    """Mean and variance at time span of dm = (drift0 - kappa m) dt + beta dW."""
    e = math.exp(-kappa * span)
    level = drift0 / kappa
    return level + (m0 - level) * e, beta**2 * (1.0 - e * e) / (2.0 * kappa)


def z_mean(sample: np.ndarray, mean: float, var: float) -> float:
    """z-score of the sample mean against a known mean and variance."""
    return (float(np.mean(sample)) - mean) / math.sqrt(var / sample.size)


def z_var(sample: np.ndarray, var: float) -> float:
    """z-score of the sample variance of a Gaussian sample against var."""
    n = sample.size
    return (float(np.var(sample, ddof=1)) - var) / (var * math.sqrt(2.0 / (n - 1)))
