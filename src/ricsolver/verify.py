"""Independent numerical verification tools.

Nothing here reuses the closed-form integral representations being checked:
the finite-difference solver marches the linear equation for g directly,
the residual evaluator differentiates a candidate g numerically, the saddle
check evaluates the raw max-min bracket at perturbed controls, and the
Monte Carlo evaluator estimates the expectation that the closed form claims
to equal.  Agreement between any two of these and the closed form is
evidence; disagreement localizes the defect.  The checks take arrays, as
the solver surface does, so each suite at the end sets them against the
solvers in one array evaluation per parameter set and returns the rows
`ricsolver verify` reports.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from contextlib import closing
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .cs import CsSolver
from .errors import InadmissibleParameter, SingularLinearSystem, SolverError, StabilityViolation
from .exact import (
    ExactCoeffs,
    ExactSolver,
    ValueDerivs,
    abc_rhs,
    coeff_A,
    coeff_B,
    coeff_C,
    exact_coeffs,
)
from .params import ModelParams, derive_k_phi
from .simulate import _draw_ahead, _steps
from .uniteis import ExpQuadCoeffs, UnitEisSolver

__all__ = [
    "CheckRow",
    "Grid2D",
    "MC_DT",
    "SUITES",
    "SaddleReport",
    "abc_bounds_margin",
    "abc_ode_residual",
    "bounds_suite",
    "fd_solve_g",
    "fd_suite",
    "hjbi_saddle_check",
    "mc_feynman_kac",
    "mc_g",
    "mc_suite",
    "ode_suite",
    "pde_residual",
    "pde_suite",
    "saddle_suite",
]


@dataclass(frozen=True)
class CheckRow:
    """One verification result, serialization-ready."""

    name: str
    point: str
    value: float
    tolerance: float
    passed: bool
    note: str = ""  # a comment line the CLI prints above the table, if any


@dataclass(frozen=True)
class Grid2D:
    """Uniform rectangle [t0, T] x [-m_max, m_max]."""

    n_t: int
    n_m: int
    m_max: float

    def __post_init__(self):
        if self.n_t < 3:
            raise ValueError(f"n_t = {self.n_t} must be >= 3")
        if self.n_m < 5:
            raise ValueError(f"n_m = {self.n_m} must be >= 5")
        if self.m_max <= 0.0:
            raise ValueError(f"m_max = {self.m_max} must be positive")

    def t_nodes(self, t0: float, T: float) -> np.ndarray:
        if T <= t0:
            raise ValueError(f"need t0 < T, got [{t0}, {T}]")
        return np.linspace(t0, T, self.n_t)

    def m_nodes(self) -> np.ndarray:
        return np.linspace(-self.m_max, self.m_max, self.n_m)


# ---------------------------------------------------------------- #
# finite-difference solve

def fd_solve_g(params: ModelParams, grid: Grid2D) -> np.ndarray:
    """Solve g_t + (1/2) beta^2 g_mm + H2 g_m + H1 g + delta^phi = 0 on grid.

    Trapezoidal (Crank-Nicolson) time stepping backward from g(T, .) = 1,
    second-order central space differences, zero m-derivative at the
    artificial boundary via the one-sided stencil (3, -4, 1)/(2 dm).  The
    domain must cover at least eight stationary standard deviations of the
    factor, m_max >= 8 beta / sqrt(2 alpha), so the misfit of the flat
    boundary against the decaying solution stays inside the boundary layer
    that the inward mean reversion confines.  The step matrix I - dt/2 L
    is the same at every step, so it is LU-factored once (LAPACK gbtrf) and
    each step back-substitutes (gbtrs); those are the two halves of the
    banded solve gbsv, so the bits are those of one gbsv per step.  A
    singular or non-finite system raises SingularLinearSystem.

    Returns an (n_t, n_m) array indexed by (t node, m node).
    """
    from scipy.linalg.lapack import dgbtrf, dgbtrs  # kept out of `import ricsolver`

    mk = params.market
    if mk.alpha > 0.0:
        m_floor = 8.0 * mk.beta / math.sqrt(2.0 * mk.alpha)
        if grid.m_max < m_floor:
            raise StabilityViolation(
                f"m_max = {grid.m_max} is below 8 beta / sqrt(2 alpha) = "
                f"{m_floor:.6g}; the flat boundary would contaminate the interior"
            )
    eco = exact_coeffs(params)
    dp = eco.delta_phi

    t = grid.t_nodes(params.horizon.t0, params.horizon.T)
    m = grid.m_nodes()
    n = grid.n_m
    dt = t[1] - t[0]
    dm = m[1] - m[0]

    H1 = eco.lag.H1(m)
    H2 = eco.lag.H2(m)
    diff = 0.5 * mk.beta**2 / dm**2
    adv = H2 / (2.0 * dm)

    # interior rows of the spatial operator L: sub/diag/sup
    sub = diff - adv
    dia = -2.0 * diff + H1
    sup = diff + adv

    # banded matrix (l=2, u=2) for I - dt/2 L with one-sided Neumann rows,
    # under the two rows gbtrf fills with the U factor's extra diagonals
    lu = np.zeros((7, n))
    ab = lu[2:]
    ab[2, 1:-1] = 1.0 - 0.5 * dt * dia[1:-1]
    ab[1, 2:] = -0.5 * dt * sup[1:-1]
    ab[3, 0:-2] = -0.5 * dt * sub[1:-1]
    # left boundary row: 3 g_0 - 4 g_1 + g_2 = 0
    ab[2, 0] = 3.0
    ab[1, 1] = -4.0
    ab[0, 2] = 1.0
    # right boundary row: g_{n-3} - 4 g_{n-2} + 3 g_{n-1} = 0
    ab[2, n - 1] = 3.0
    ab[3, n - 2] = -4.0
    ab[4, n - 3] = 1.0
    if not np.all(np.isfinite(ab)):
        raise SingularLinearSystem("banded matrix has non-finite entries")
    lu, piv, info = dgbtrf(lu, 2, 2, overwrite_ab=True)
    if info != 0:
        raise SingularLinearSystem(f"banded LU factorization failed: info = {info}")

    out = np.empty((grid.n_t, n))
    out[-1] = 1.0
    g = out[-1].copy()
    for i in range(grid.n_t - 2, -1, -1):
        rhs = np.empty(n)
        lg = sub[1:-1] * g[:-2] + dia[1:-1] * g[1:-1] + sup[1:-1] * g[2:]
        rhs[1:-1] = g[1:-1] + 0.5 * dt * lg + dt * dp
        rhs[0] = 0.0
        rhs[-1] = 0.0
        g, info = dgbtrs(lu, 2, 2, rhs, piv)
        if info != 0 or not np.all(np.isfinite(g)):
            raise SingularLinearSystem("banded solve produced non-finite values")
        out[i] = g
    return out


# ---------------------------------------------------------------- #
# equation residuals

def _residual_ops(co: ExactCoeffs | ExpQuadCoeffs):
    """Residual function of the reduced equation co carries, elementwise."""
    beta2 = 0.5 * co.params.market.beta**2
    if isinstance(co, ExactCoeffs):
        lag, dp = co.lag, co.delta_phi

        def res(t, m, g, g_t, g_m, g_mm):
            return g_t + beta2 * g_mm + lag.H2(m) * g_m + lag.H1(m) * g + dp

        return res

    def res(t, m, g, g_t, g_m, g_mm):
        return (
            g_t
            + beta2 * g_mm
            + co.H2(m) * g_m
            + co.H1(m) * g
            - co.disc * g * np.log(g)
            + co.G0 * g_m * g_m / g
        )

    return res


# Central-difference steps of pde_residual in t and m, chosen so the
# evaluation noise of g stays well below the truncation error.
_PDE_H_T, _PDE_H_M = 1e-3, 1e-2


def pde_residual(
    g_like: Callable[[np.ndarray, np.ndarray], np.ndarray],
    coeffs: ExactCoeffs | ExpQuadCoeffs,
    grid: Grid2D,
) -> float:
    """Max |residual| / max(|g|, 1) over the grid of the reduced equation
    that a mode's coefficient object carries, on its horizon [t0, T].

    g_like(t, m) maps a 1-d t and m to g on the grid t x m, as a solver's
    lambda t, m: s.g(t, m).g does; six calls cover the stencil.  An
    ExactCoeffs gives the linear equation of the exact mode; an
    ExpQuadCoeffs (unit_coeffs, cs_reduction, a solver's coeffs) its
    semilinear exponential-quadratic counterpart.  Derivatives are central
    differences with steps (h_t, h_m) = (1e-3, 1e-2).  Rows with
    t + h_t > T cannot be centered in time and give the terminal residual
    |g(T, m) - 1| instead; rows with t - h_t < 0 take the one-sided
    second-order difference in t, because g is defined on [0, T] only.
    """
    res_fn = _residual_ops(coeffs)
    h_t, h_m = _PDE_H_T, _PDE_H_M
    t0, T = coeffs.params.horizon.t0, coeffs.params.horizon.T
    t_nodes = grid.t_nodes(t0, T)
    m = grid.m_nodes()
    g_T = g_like(np.array([T]), m)
    t = t_nodes[t_nodes + h_t <= T]
    one_sided = t - h_t < 0.0
    g0, g_up = g_like(t, m), g_like(t + h_t, m)
    g_lo = g_like(np.where(one_sided, t + 2.0 * h_t, t - h_t), m)
    g_t = np.where(one_sided[:, None], (-3.0 * g0 + 4.0 * g_up - g_lo) / (2.0 * h_t),
                   (g_up - g_lo) / (2.0 * h_t))
    gp, gn = g_like(t, m + h_m), g_like(t, m - h_m)
    g_m = (gp - gn) / (2.0 * h_m)
    g_mm = (gp - 2.0 * g0 + gn) / (h_m * h_m)
    r = res_fn(t[:, None], m, g0, g_t, g_m, g_mm)
    scaled = lambda res, g: np.max(np.abs(res) / np.maximum(np.abs(g), 1.0), initial=0.0)
    return float(np.maximum(scaled(g_T - 1.0, g_T), scaled(r, g0)))  # NaN stays NaN


# ---------------------------------------------------------------- #
# coefficient ODE residuals and bounds

_ODE_H = 1e-4  # central-difference step of abc_ode_residual


def abc_ode_residual(params: ModelParams, t, s):
    """Max relative residual of the coefficient ODE system at each pair of
    broadcastable t and s (a float at a scalar pair).

    The t-derivatives of (A, B, C) (B and C closed form, A the g kernel's
    series) are taken by central differences with step 1e-4, one-sided on
    t, t + h, t + 2h where t - h < 0, and compared to the stated right-hand
    sides; each residual is normalized by max(|rhs|, 1).  One coefficient
    object and one coeff_A call serve every pair and stencil time.
    """
    h = _ODE_H
    co = exact_coeffs(params)
    t, s = np.broadcast_arrays(t, s)
    one_sided = t - h < 0.0
    ts = np.stack([t, t + h, np.where(one_sided, t + 2 * h, t - h)])
    A, B, C = coeff_A(ts, s, co), coeff_B(ts, s, co), coeff_C(ts, s, co)
    rhs = abc_rhs(A[0], B[0], C[0], co)
    fd = [np.where(one_sided, (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2 * h), (y[1] - y[2]) / (2 * h))
          for y in (A, B, C)]
    r = np.max([np.abs(f - r) / np.maximum(np.abs(r), 1.0) for f, r in zip(fd, rhs)], axis=0)
    return r if r.ndim else float(r)


def _bound_constants(co: ExactCoeffs) -> tuple[float, float, float]:
    """(b1, A1, A2) of the bounds |B| <= |b1| (s-t) and
    A >= A1 (T-t)(s-t) + A2 (s-t).

    b1 scales the B bound; A1 = -h2_0 b1 and A2 is the constant drift h1_0
    of A minus the C-bound tail.
    """
    mk, pf, base, lag = co.params.market, co.params.preference, co.base, co.lag
    one_g = 1.0 - pf.gamma
    denom = 2.0 * base.kappa + base.Delta
    bracket = 4.0 * (one_g - pf.Phi) * base.b0 * base.k * mk.beta * mk.rho1 / (one_g * denom) - 1.0
    b1 = lag.h1_src * bracket
    A2 = lag.p0 - 2.0 * base.b0 * mk.beta**2 / denom
    return b1, -lag.h2_0 * b1, A2


def abc_bounds_margin(params: ModelParams, t, s):
    """Smallest slack of the stated coefficient bounds at each pair of
    broadcastable t and s (a float at a scalar pair).

    Bounds (gamma > 1, rho1 <= 0): 0 <= C <= min(b0 (s-t), 2 b0/(2 kappa
    + Delta)); |B| <= |b1| (s-t); A >= A1 (T-t)(s-t) + A2 (s-t), with A
    the g kernel's series.  A nonnegative return means every bound holds.
    One coefficient object and one coeff_A call serve every pair.
    """
    co = exact_coeffs(params)
    base = co.base
    b1, A1, A2 = _bound_constants(co)
    T = params.horizon.T
    tau = s - t
    C = coeff_C(t, s, co)
    B = coeff_B(t, s, co)
    A = coeff_A(t, s, co)
    margin = np.minimum.reduce([
        C,
        base.b0 * tau - C,
        2.0 * base.b0 / (2.0 * base.kappa + base.Delta) - C,
        abs(b1) * tau - np.abs(B),
        A - A1 * (T - t) * tau - A2 * tau,
    ])
    return margin if margin.ndim else float(margin)


# ---------------------------------------------------------------- #
# saddle check

@dataclass(frozen=True)
class SaddleReport:
    """Outcome of one saddle check: bracket level and perturbation verdicts.
    v, bracket_at_optimum, tolerance and n_violations have the checked
    grid's shape (a float and an int at one point); the counts are per point.
    """

    point: tuple
    v: float
    bracket_at_optimum: float
    tolerance: float
    n_control_perturbations: int
    n_distortion_perturbations: int
    violations: tuple[str, ...]
    n_violations: int

    @property
    def passed(self) -> bool:
        return not self.violations


def _aggregator_f(kind: str, c, v, params: ModelParams):
    """Intertemporal aggregator f(c, v), elementwise; -inf where (1-gamma) v or c
    is not positive (1 there in the logs; np.power keeps scalars on the array loop)."""
    pf = params.preference
    A = (1.0 - pf.gamma) * v
    off = (A <= 0.0) | (c <= 0.0)
    A, c = np.where(off, 1.0, A), np.where(off, 1.0, c)
    if kind == "unit":
        f = pf.delta * A * (np.log(c) - np.log(A) / (1.0 - pf.gamma))
    else:
        phi = derive_k_phi(pf.gamma, pf.Phi, params.market.rho1)[1]
        expo = 1.0 - 1.0 / phi
        cb = c * np.power(A, -1.0 / (1.0 - pf.gamma))
        f = (pf.delta / expo) * A * (np.power(cb, expo) - 1.0)
    return np.where(off, -np.inf, f)


def hjbi_bracket(
    controls: tuple[float, float, float],
    distortions: tuple[float, float, float],
    point: tuple[float, float, float],
    d: ValueDerivs,
    params: ModelParams,
    aggregator: str,
) -> float:
    """The max-min integrand at explicit controls and distortions,
    elementwise over broadcastable arrays of every argument (a float when
    all are scalars); point is (t, x, m) and d the value derivatives there.

    Assembled from raw model coefficients and the candidate value
    derivatives only; no first-order-condition shortcut is taken, so a
    wrong optimizer or a wrong value function shows up as a nonzero or
    improvable bracket.
    """
    pi, q, c = controls
    xi1, xi2, xi3 = distortions
    t, x, m = point
    mk, ins, pf = params.market, params.insurance, params.preference
    lam_mu2 = ins.lam * ins.mu2
    drift_x = (
        mk.r * x
        + pi * (mk.sigma * m + mk.a - mk.r)
        + ins.lam * ins.theta1 * ins.mu1 * q
        - c
        - pi * mk.sigma * xi1
        - q * math.sqrt(lam_mu2) * xi3
    )
    drift_m = -(mk.alpha * m + mk.beta * mk.rho1 * xi1
                + mk.beta * math.sqrt(1.0 - mk.rho1**2) * xi2)
    val = (
        d.v_t
        + drift_x * d.v_x
        + 0.5 * (mk.sigma**2 * pi**2 + lam_mu2 * q**2) * d.v_xx
        + drift_m * d.v_m
        + 0.5 * mk.beta**2 * d.v_mm
        + pi * mk.sigma * mk.beta * mk.rho1 * d.v_xm
        + _aggregator_f(aggregator, c, d.v, params)
    )
    if pf.Phi > 0.0:
        inv_two_psi = (1.0 - pf.gamma) * d.v / (2.0 * pf.Phi)
        val = val + inv_two_psi * (xi1 * xi1 + xi2 * xi2 + xi3 * xi3)
    else:
        val = np.where((xi1 != 0.0) | (xi2 != 0.0) | (xi3 != 0.0), np.inf, val)
    return val if np.ndim(val) else float(val)


_SADDLE_RADIUS = 0.1  # relative size of the perturbations hjbi_saddle_check draws


def hjbi_saddle_check(v_fn, point: tuple, samples: int = 20, seed: int = 0) -> SaddleReport:
    """Check the saddle property of v_fn's optimum at (t, x, m): on the grid
    t x m of a scalar or 1-d t and m, x broadcast against it, as the solver
    surface evaluates.

    v_fn must expose params, aggregator ("power" or "unit") and
    strategy_and_derivs(t, x, m).  The bracket at the reported optimum must
    vanish within 1e-6 (1 + |v|); each of `samples` random perturbations of
    (pi, q, c) alone must not increase it, and of (xi1, xi2, xi3) alone must
    not decrease it.  With Phi = 0 the distortion is pinned at zero and only
    control perturbations are drawn (any nonzero distortion costs an
    infinite penalty there).  One block of uniforms on [-1, 1] of shape
    (samples, 6) + grid (3 columns with Phi = 0) scales the controls by its
    first three columns and the distortions by the last three, so at a point
    it is the stream of drawing the two triples sample by sample.  On a grid
    each violation message names its (t, m).
    """
    if samples < 0:
        raise ValueError(f"samples = {samples} must be >= 0")
    t, x, m = point
    radius = _SADDLE_RADIUS
    params, agg = v_fn.params, v_fn.aggregator
    sp, d = v_fn.strategy_and_derivs(t, x, m)
    ctrl_opt, dist_opt = (sp.pi, sp.q, sp.c), (sp.xi1, sp.xi2, sp.xi3)
    b_opt = hjbi_bracket(ctrl_opt, dist_opt, point, d, params, agg)
    tol = 1e-6 * (1.0 + abs(d.v))
    grid = np.shape(d.v)
    do_xi = params.preference.Phi > 0.0
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(samples, 6 if do_xi else 3) + grid)
    u = np.moveaxis(u, 1, 0)  # u[i]: column i of every sample, shape (samples,) + grid
    ctrl = (sp.pi + radius * (1.0 + abs(sp.pi)) * u[0],
            np.maximum(sp.q + radius * (1.0 + abs(sp.q)) * u[1], 0.0),
            sp.c * np.exp(radius * u[2]))
    b_ctrl = hjbi_bracket(ctrl, dist_opt, point, d, params, agg)
    dist = tuple(xi + radius * w for xi, w in zip(dist_opt, u[3:]))
    b_dist = hjbi_bracket(ctrl_opt, dist, point, d, params, agg) if do_xi else np.inf
    missed = ~(np.abs(b_opt) <= tol)  # NaN misses too
    bad = np.stack(np.broadcast_arrays(b_ctrl > b_opt + tol, b_dist < b_opt - tol), axis=1)

    b_opt_g, tol_g, n_t = np.asarray(b_opt), np.asarray(tol), np.ndim(t)
    at = lambda g: (f" at (t, m) = ({np.asarray(t)[g[:n_t]]:.6g}, {np.asarray(m)[g[n_t:]]:.6g})"
                    if grid else "")
    violations = [f"bracket at optimum = {b_opt_g[g]:.3e} exceeds tolerance {tol_g[g]:.3e}{at(g)}"
                  for g in map(tuple, np.argwhere(missed))]
    kinds = ((b_ctrl, ctrl, "control perturbation raised the bracket", ">", "(pi, q, c)"),
             (b_dist, dist, "distortion perturbation lowered the bracket", "<", "xi"))
    for k, kind, *g in np.argwhere(bad):  # sample by sample, controls first
        b, z, what, rel, names = kinds[kind]
        g, kg = tuple(g), (k, *g)
        values = ", ".join(f"{zi[kg]:.6g}" for zi in z)
        violations.append(f"{what}: {b[kg]:.6e} {rel} {b_opt_g[g]:.6e} at {names} = ({values})"
                          + at(g))
    n_violations = missed + bad.sum(axis=(0, 1))
    return SaddleReport(point, d.v, b_opt, tol, samples, samples if do_xi else 0,
                        tuple(violations), n_violations if grid else int(n_violations))


# ---------------------------------------------------------------- #
# Monte Carlo Feynman-Kac

# The CLI's step: 200 steps over a span of 0.5.  The control in mc_g
# cancels the trapezoid's leading second-order bias, and what is left stays
# under 0.4 of the controlled standard error at the CLI's 4096 paths for
# t0 in {0, 0.5} and |m| <= 2.
MC_DT = 2.5e-3


def _ou_step(h2_0: float, kappa: float, beta: float, h: float) -> tuple[float, float, float]:
    """(decay, shift, sd) of the exact step m -> decay m + shift + sd z.

    The factor dm = (h2_0 - kappa m) du + beta dW is an OU process, so its
    transition over h is Gaussian with mean e^{-kappa h} m
    + h2_0 (1 - e^{-kappa h}) / kappa and variance
    beta^2 (1 - e^{-2 kappa h}) / (2 kappa); kappa = 0 is the limit
    (h2_0 h, beta^2 h).
    """
    if kappa == 0.0:
        return 1.0, h2_0 * h, beta * math.sqrt(h)
    em = math.expm1(-kappa * h)
    var = -math.expm1(-2.0 * kappa * h) / (2.0 * kappa)
    return 1.0 + em, -h2_0 * em / kappa, beta * math.sqrt(var)


def _fk_steps(span: float, dt: float) -> tuple[int, float]:
    """(n_steps, h) of the engine's uniform grid over span; (0, 0) for none."""
    return (0, 0.0) if span == 0.0 else _steps(span, dt)


def _fk_paths(
    params: ModelParams,
    t: float,
    m: float,
    s: float,
    n_paths: int,
    dt: float,
    seed: int,
    collect_running: bool,
):
    """Common engine: exact OU factor steps, trapezoid accumulation.

    The factor is drawn from its exact Gaussian transition (_ou_step), so
    the only step bias left is the trapezoid's, second order in dt.
    Returns (I_final, S_running) where I_final[i] = int_t^s H1 along path i
    (trapezoid) and S_running[i] = int_t^s exp(I(u)) du (trapezoid in u,
    present only when collect_running).  One Philox(seed) stream gives one
    normal block per step; a worker thread draws the blocks ahead of the
    step arithmetic, several steps per call (simulate._draw_ahead), so the
    bits are those of drawing each block at the top of its step.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths = {n_paths} must be >= 1")
    if not dt > 0.0:  # NaN fails too
        raise ValueError(f"dt = {dt} must be positive")
    if s < t:
        raise ValueError(f"need t <= s, got t = {t}, s = {s}")
    eco = exact_coeffs(params)
    lag = eco.lag
    n_steps, h = _fk_steps(s - t, dt)
    if n_steps == 0:
        zeros = np.zeros(n_paths)
        return zeros, (np.zeros(n_paths) if collect_running else None)
    decay, shift, sd = _ou_step(lag.h2_0, eco.base.kappa, params.market.beta, h)
    rng = np.random.Generator(np.random.Philox(seed))
    mv = np.full(n_paths, float(m))
    I = np.zeros(n_paths)
    S = np.zeros(n_paths) if collect_running else None
    h1_prev = lag.H1(mv)
    exp_prev = np.ones(n_paths) if collect_running else None
    # Each step updates these buffers in place, in the operation order of
    # mv = decay mv + shift + sd z, H1(mv) = h1_0 + h1_1 mv - b0 mv mv,
    # I += (h/2)(H1 before + H1 after) and S += (h/2)(e^I before + e^I after).
    h1_new, tmp = np.empty(n_paths), np.empty(n_paths)
    e = np.empty(n_paths) if collect_running else None
    half_h = 0.5 * h
    with closing(_draw_ahead(rng, (n_paths,), n_steps)) as blocks:
        for z in blocks:
            mv *= decay
            mv += shift
            z *= sd
            mv += z
            np.multiply(mv, lag.h1_src, out=h1_new)
            h1_new += lag.p0
            np.multiply(mv, eco.base.b0, out=tmp)
            tmp *= mv
            h1_new -= tmp
            np.add(h1_prev, h1_new, out=tmp)
            tmp *= half_h
            I += tmp
            h1_prev, h1_new = h1_new, h1_prev
            if collect_running:
                np.exp(I, out=e)
                np.add(exp_prev, e, out=tmp)
                tmp *= half_h
                S += tmp
                exp_prev, e = e, exp_prev
    return I, S


def _mean(values: np.ndarray) -> float:
    """Mean by compensated summation, shifted by the first value, so equal
    values give exactly that value."""
    v0 = float(values[0])
    return v0 + math.fsum(values - v0) / values.size


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error; equal values give se = 0."""
    n = values.size
    mean = _mean(values)
    if n == 1:
        return mean, 0.0
    var = math.fsum((values - mean) ** 2) / (n - 1)
    return mean, math.sqrt(var / n)


def _ou_j(y: float) -> tuple[float, float]:
    """(J1, J2)(y) = int_0^1 (c(u), c(u)^2) du with c(u) = (1 - e^{-yu})/y,
    i.e. (y + q)/y^2 and (y + q - q^2/2)/y^3 with q = expm1(-y).  Those
    cancel to third order as y -> 0, so |y| < 1/4 sums the Taylor series
    (-y)^n / (n+2)! and (-y)^n (2^{n+2} - 2) / ((n+2)! (n+3)) instead;
    y = 0 gives the limit (1/2, 1/3)."""
    if abs(y) < 0.25:
        terms = [(-y) ** n / math.factorial(n + 2) for n in range(18)]
        return (math.fsum(terms),
                math.fsum(tn * (2 ** (n + 2) - 2) / (n + 3) for n, tn in enumerate(terms)))
    q = math.expm1(-y)
    return (y + q) / y**2, (y + q - 0.5 * q * q) / y**3


def _ou_h1_mean(eco: ExactCoeffs, beta: float, m: float, span: float) -> float:
    """E int_0^span H1(m_u) du in closed form, for the OU factor
    dm = (h2_0 - kappa m) du + beta dW started at m.

    Its mean is m + d c(u) with d = h2_0 - kappa m and c(u) =
    (1 - e^{-kappa u})/kappa, and its variance beta^2 (c - kappa c^2/2).  So
    E H1(m_u) = H1(m) + (H1'(m) d - b0 beta^2) c - b0 (d^2 - kappa beta^2/2) c^2
    is quadratic in c, and its integral takes (J1, J2) of _ou_j at
    kappa span.  Only p0, h1_src, b0, h2_0, kappa and beta enter: nothing
    of the A, B, C, L, G, H that the Monte Carlo checks.
    """
    lag, kappa, b0 = eco.lag, eco.base.kappa, eco.base.b0
    d = lag.h2_0 - kappa * m
    j1, j2 = _ou_j(kappa * span)
    linear = (lag.h1_src - 2.0 * b0 * m) * d - b0 * beta**2
    square = -b0 * (d * d - 0.5 * kappa * beta**2)
    return span * (lag.H1(m) + span * (linear * j1 + span * square * j2))


class McEstimate(tuple):
    """(estimate, se) of a Monte Carlo mean with the OU-moment control.  As
    os.stat_result does, it unpacks and compares as that pair and carries
    more by name: b, the fitted control coefficient, and plain_se, the
    standard error of the same paths without the control."""

    def __new__(cls, estimate: float, se: float, b: float, plain_se: float):
        self = super().__new__(cls, (estimate, se))
        self.b, self.plain_se = b, plain_se
        return self


def _controlled(y: np.ndarray, x: np.ndarray) -> McEstimate:
    """Mean of y - b x with the zero-mean control x and b = Cov(y, x)/Var x
    fitted on the same sample (Glasserman 2004, sec. 4.1); b = 0 where x
    does not vary (beta = 0, or a zero span)."""
    y_mean, plain_se = _mean_se(y)
    xc = x - _mean(x)
    var = math.fsum(xc * xc)
    b = math.fsum(xc * (y - y_mean)) / var if var > 0.0 else 0.0
    return McEstimate(*_mean_se(y - b * x), b, plain_se)


def mc_feynman_kac(
    params: ModelParams,
    t: float,
    m: float,
    s: float,
    n_paths: int,
    dt: float,
    seed: int,
) -> McEstimate:
    """(estimate, std error) of E[exp(int_t^s H1(m_u) du)], m driven by H2.

    Exact OU factor steps of uniform width span/round(span/dt) (dt is a
    target), one counter-based stream for the whole batch with one draw
    block per step, trapezoid accumulation of the discount integral.  A
    worker thread draws the blocks ahead of the step arithmetic, several
    steps per call, and is joined before the call returns or raises; the
    stream is drawn in order, so the result has the bits of a serial loop.  The control is
    I(s) minus its continuous-time mean (_ou_h1_mean), as in mc_g.
    """
    I, _ = _fk_paths(params, t, m, s, n_paths, dt, seed, collect_running=False)
    mean = _ou_h1_mean(exact_coeffs(params), params.market.beta, m, s - t)
    return _controlled(np.exp(I), I - mean)


def mc_g(
    params: ModelParams,
    t: float,
    m: float,
    n_paths: int,
    dt: float,
    seed: int,
) -> McEstimate:
    """(estimate, std error) of g(t, m) by its expectation representation.

    Per path: Y = delta^phi int_t^T exp(I(u)) du + exp(I(T)), with I the
    running trapezoid of H1 along exact OU factor steps of target width dt;
    the outer integral reuses the same path grid.  The estimate is the mean
    of Y - b X with the control X = I(T) - E int_t^T H1(m_u) du, whose mean
    is the continuous-time OU moment integral (_ou_h1_mean), and b fitted on
    the same paths.  The control takes 6-35x off the standard error at the
    default calibration (t in {0, 0.5}, |m| <= 2); and as I's trapezoid bias
    enters Y and X alike, centring X on the continuous mean cancels the
    leading second-order bias in dt as well.  The paths are _fk_paths':
    one Philox(seed) stream drawn ahead on a worker thread, several steps
    per call, with the bits of a serial loop.
    """
    eco = exact_coeffs(params)
    I, S = _fk_paths(
        params, t, m, params.horizon.T, n_paths, dt, seed, collect_running=True
    )
    mean = _ou_h1_mean(eco, params.market.beta, m, params.horizon.T - t)
    return _controlled(eco.delta_phi * S + np.exp(I), I - mean)


# ---------------------------------------------------------------- #
# suites: the rows of `ricsolver verify`

def _lag_pairs(rng: np.random.Generator, T: float) -> tuple[np.ndarray, np.ndarray]:
    """50 pairs t ~ U(0, T - 0.02), s ~ U(t + 0.01, T) from one (50, 2) block
    scaled as Generator.uniform scales: the bits of drawing pair by pair."""
    u = rng.random((50, 2))
    t = (T - 0.02) * u[:, 0]
    return t, (t + 0.01) + (T - (t + 0.01)) * u[:, 1]


def ode_suite(params: ModelParams, seed: int) -> list[CheckRow]:
    """abc_ode_residual at 50 random (t, s) pairs, in one call."""
    t, s = _lag_pairs(np.random.default_rng(seed), params.horizon.T)
    r = abc_ode_residual(params, t, s)
    return [CheckRow("abc_ode_residual", f"t={ti:.4f} s={si:.4f}", ri, 1e-4, ri <= 1e-4)
            for ti, si, ri in zip(t.tolist(), s.tolist(), r.tolist())]


# The box of the bounds suite's parameter draws, in draw order: one
# uniform (block, field, low, high) each, drawn as one vector per set.
_BOUNDS_BOX = (
    ("market", "sigma", 0.15, 1.0), ("market", "beta", 0.1, 0.6),
    ("market", "alpha", 1.0, 8.0), ("market", "rho1", -0.95, 0.0),
    ("preference", "gamma", 1.05, 2.5), ("preference", "Phi", 0.0, 1.2),
    ("preference", "delta", 0.02, 0.2), ("insurance", "theta1", 0.1, 1.0),
)


def bounds_suite(seed: int) -> list[CheckRow]:
    """Coefficient bounds at random gamma > 1 draws, rho1 <= 0: one
    abc_bounds_margin call over 50 random (t, s) pairs per draw.  The pairs
    are drawn before the margin, so a draw the solver refuses still takes
    its 100 uniforms from the stream."""
    rng = np.random.default_rng(seed)
    blocks, names, low, high = zip(*_BOUNDS_BOX)
    rows = []
    draws = 0
    while draws < 20:
        base, fields = ModelParams(), {}
        for block, name, value in zip(blocks, names, rng.uniform(low, high).tolist()):
            fields.setdefault(block, {})[name] = value
        params = dataclasses.replace(
            base, **{b: dataclasses.replace(getattr(base, b), **f) for b, f in fields.items()})
        t, s = _lag_pairs(rng, params.horizon.T)
        try:
            worst = float(np.min(abc_bounds_margin(params, t, s)))
        except SolverError:
            continue
        draws += 1
        pf, mk = params.preference, params.market
        rows.append(CheckRow(
            "abc_bounds_margin",
            f"draw {draws}: gamma={pf.gamma:.3f} Phi={pf.Phi:.3f} "
            f"rho1={mk.rho1:.3f} over 50 pairs",
            worst, 0.0, worst >= -1e-12,
        ))
    return rows


def pde_suite(params: ModelParams) -> list[CheckRow]:
    """Residuals of each mode's g in its own equation on a 10 x 10 grid,
    plus the unit-EIS g against the linear equation as a negative control,
    which passes when its residual exceeds its tolerance.  A mode whose
    solver refuses the parameters gives an error row."""
    grid = Grid2D(n_t=10, n_m=10, m_max=2.0)
    ex = ExactSolver(params)
    r = pde_residual(lambda t, m: ex.g(t, m).g, ex.coeffs, grid)
    rows = [CheckRow("pde_residual_g1", "10x10 grid |m|<=2", r, 1e-4, r <= 1e-4)]
    unit = cache(lambda: UnitEisSolver(params))  # one H table for both unit-EIS rows
    for name, solver, coeffs, point, tol, control in (
        ("pde_residual_unit", unit, None, lambda s: "10x10 grid", 1e-4, False),
        ("pde_residual_cs", lambda: CsSolver(params), None,
         lambda s: f"10x10 grid w={s.w:.6g}", 1e-4, False),
        ("pde_negative_control", unit, ex.coeffs, lambda s: "unit g against g1", 1e-2, True),
    ):
        try:
            s = solver()
            r = pde_residual(lambda t, m: s.g(t, m).g, coeffs or s.coeffs, grid)
        except SolverError as exc:
            rows.append(CheckRow(name, f"error: {exc}", math.nan, tol, False))
            continue
        rows.append(CheckRow(name, point(s), r, tol, r > tol if control else r <= tol))
    return rows


def fd_suite(params: ModelParams) -> list[CheckRow]:
    """fd_solve_g on a 400 x 401 grid against the exact g at 20 nodes."""
    grid = Grid2D(n_t=400, n_m=401, m_max=4.0)
    gv = fd_solve_g(params, grid)
    tn = grid.t_nodes(params.horizon.t0, params.horizon.T)
    mn = grid.m_nodes()
    rng = np.random.default_rng(7)
    draws = []
    for _ in range(20):
        i = int(rng.integers(0, grid.n_t - 1))
        j = int(rng.integers(0, grid.n_m))
        while abs(mn[j]) > 2.0:
            j = int(rng.integers(0, grid.n_m))
        draws.append((i, j))
    i, j = np.array(draws).T
    closed = np.diagonal(ExactSolver(params).g(tn[i], mn[j]).g)  # draw k at (t_k, m_k)
    rel = np.abs(gv[i, j] - closed) / np.abs(closed)
    return [CheckRow("fd_vs_closed_g", f"t={t:.4f} m={m:.4f}", float(r), 1e-4, bool(r <= 1e-4))
            for t, m, r in zip(tn[i], mn[j], rel)]


def saddle_suite(params: ModelParams, samples: int, seed: int) -> list[CheckRow]:
    """hjbi_saddle_check of the exact mode on the grid of 10 interior t and
    10 m, one call with one seed for the whole grid; a row per point."""
    t0, T = params.horizon.t0, params.horizon.T
    ts = t0 + (T - t0) * (np.arange(10) + 0.5) / 10.0
    ms = np.linspace(-2.0, 2.0, 10)
    rep = hjbi_saddle_check(ExactSolver(params), (ts, 1.0, ms), samples=samples, seed=seed)
    return [CheckRow("saddle_violations", f"t={t:.4f} m={m:.4f}", float(n), 0.0, n == 0)
            for (t, m), n in zip(itertools.product(ts, ms), rep.n_violations.ravel().tolist())]


def mc_suite(params: ModelParams, n_paths: int, seed: int) -> list[CheckRow]:
    """z-score of mc_g (exact OU steps of target width MC_DT, OU-moment
    control) against the exact g at (t0, m0); the row's note records how
    the Monte Carlo ran, the control's fitted b and the standard error the
    same paths give without it.

    A run of several paths with no spread (beta = 0: every path is the same
    trapezoid) has no z-score.  Its row is instead the relative gap
    |est - closed| / closed against twice the trapezoid's O(h^2) bias, which
    a second run at half the step sizes by Richardson, plus the closed
    form's own 1e-9; the note states the gap and the bias.  Fewer than two
    paths have no standard error and raise InadmissibleParameter.
    """
    if n_paths < 2:
        raise InadmissibleParameter(
            f"n_paths = {n_paths}: the mc check's standard error needs at least two paths")
    t0 = params.horizon.t0
    m0 = params.market.m0
    # through mc_g by name, so a wrapper on verify.mc_g sees each call
    mc = mc_g(params, t0, m0, n_paths=n_paths, dt=MC_DT, seed=seed)
    est, se = mc
    closed = ExactSolver(params).g(t0, m0).g
    n_steps, h = _fk_steps(params.horizon.T - t0, MC_DT)
    point = (f"t={t0:.4f} m={m0:.4f} paths={n_paths} est={est:.8f} "
             f"closed={closed:.8f} se={se:.2e}")
    note = (f"diag mc: scheme = exact_ou, dt = {MC_DT:.9g}, "
            f"n_steps = {n_steps}, n_paths = {n_paths}, seed = {seed}, "
            f"control = ou_moments, b = {mc.b:.6g}, plain_se = {mc.plain_se:.2e}")
    if se == 0.0:
        # the same span in twice the steps: bias(h) = 4/3 (est(h) - est(h/2))
        est2, _ = mc_g(params, t0, m0, n_paths=n_paths, dt=0.5 * h, seed=seed)
        bias = 4.0 / 3.0 * abs(est - est2) / abs(closed)
        gap, tol = abs(est - closed) / abs(closed), 2.0 * bias + 1e-9
        return [CheckRow("mc_g_rel_gap", point, gap, tol, gap <= tol,
                         note=f"{note}, spread = 0, rel_gap = {gap:.3e}, "
                              f"trapezoid_bias = {bias:.3e}")]
    z = abs(est - closed) / se
    return [CheckRow("mc_g_z_score", point, z, 3.0, z <= 3.0, note=note)]


# Each suite as `ricsolver verify --suite NAME` runs it, in the order of
# `--suite all`; opts carries the parsed seed, samples and n_paths.
SUITES = {
    "ode": lambda params, opts: ode_suite(params, opts.seed),
    "bounds": lambda params, opts: bounds_suite(opts.seed),
    "pde": lambda params, opts: pde_suite(params),
    "fd": lambda params, opts: fd_suite(params),
    "saddle": lambda params, opts: saddle_suite(params, opts.samples, opts.seed),
    "mc": lambda params, opts: mc_suite(params, opts.n_paths, opts.seed),
}
