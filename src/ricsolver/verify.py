"""Independent numerical verification tools.

Nothing here reuses the closed-form integral representations being checked:
the finite-difference solver marches the linear equation for g directly,
the residual evaluator differentiates a candidate g numerically, the saddle
check evaluates the raw max-min bracket at perturbed controls, and the
Monte Carlo evaluator estimates the expectation that the closed form claims
to equal.  Agreement between any two of these and the closed form is
evidence; disagreement localizes the defect.  The suites at the end set
these tools against the solvers and return the rows `ricsolver verify`
reports.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cs import CsSolver, cs_reduction
from .errors import SingularLinearSystem, SolverError, StabilityViolation
from .exact import (
    ExactSolver,
    ValueDerivs,
    abc_rhs,
    coeff_A,
    coeff_B,
    coeff_C,
    exact_coeffs,
)
from .params import ModelParams, derive_k_phi
from .simulate import _steps
from .uniteis import UnitEisSolver, unit_coeffs

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
    that the inward mean reversion confines.

    Returns an (n_t, n_m) array indexed by (t node, m node).
    """
    from scipy.linalg import solve_banded  # kept out of `import ricsolver`

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

    H1 = eco.H1(m)
    H2 = eco.H2(m)
    diff = 0.5 * mk.beta**2 / dm**2
    adv = H2 / (2.0 * dm)

    # interior rows of the spatial operator L: sub/diag/sup
    sub = diff - adv
    dia = -2.0 * diff + H1
    sup = diff + adv

    # banded matrix (l=2, u=2) for I - dt/2 L with one-sided Neumann rows
    ab = np.zeros((5, n))
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

    out = np.empty((grid.n_t, n))
    out[-1] = 1.0
    g = out[-1].copy()
    for i in range(grid.n_t - 2, -1, -1):
        rhs = np.empty(n)
        lg = sub[1:-1] * g[:-2] + dia[1:-1] * g[1:-1] + sup[1:-1] * g[2:]
        rhs[1:-1] = g[1:-1] + 0.5 * dt * lg + dt * dp
        rhs[0] = 0.0
        rhs[-1] = 0.0
        try:
            g = solve_banded((2, 2), ab, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularLinearSystem(f"banded solve failed: {exc}") from exc
        if not np.all(np.isfinite(g)):
            raise SingularLinearSystem("banded solve produced non-finite values")
        out[i] = g
    return out


# ---------------------------------------------------------------- #
# equation residuals

def _residual_ops(equation_id: str, params: ModelParams, w: float | None):
    """Pointwise residual function for the named equation."""
    if equation_id == "g1":
        eco = exact_coeffs(params)
        beta2 = 0.5 * params.market.beta**2
        dp = eco.delta_phi

        def res(t, m, g, g_t, g_m, g_mm):
            return g_t + beta2 * g_mm + eco.H2(m) * g_m + eco.H1(m) * g + dp

        return res
    if equation_id == "unit":
        red = unit_coeffs(params).red
    elif equation_id == "cs":
        if w is None:
            raise ValueError('equation_id "cs" needs the steady level w')
        red = cs_reduction(w, params)
    else:
        raise ValueError(f"unknown equation_id {equation_id!r}")
    beta2 = 0.5 * red.beta**2

    def res(t, m, g, g_t, g_m, g_mm):
        lin_src = red.p0 + red.h1_src * m - red.G3 * m * m
        return (
            g_t
            + beta2 * g_mm
            + (red.d1 * m + red.h2_0) * g_m
            + lin_src * g
            - red.disc * g * math.log(g)
            + red.G0 * g_m * g_m / g
        )

    return res


# Central-difference steps of pde_residual in t and m, chosen so the
# evaluation noise of g stays well below the truncation error.
_PDE_H_T, _PDE_H_M = 1e-3, 1e-2


def pde_residual(
    g_like: Callable[[float, float], float],
    equation_id: str,
    grid: Grid2D,
    params: ModelParams,
    w: float | None = None,
) -> float:
    """Max |residual| / max(|g|, 1) of the named equation over the grid.

    equation_id is one of "g1" (linear equation of the exact mode), "unit",
    "cs" (their semilinear counterparts; "cs" needs w).  Derivatives are
    central differences with steps (h_t, h_m) = (1e-3, 1e-2).  Rows with
    t + h_t > T cannot be centered in time and contribute the terminal
    condition residual |g(T, m) - 1| instead; rows with t - h_t < 0 take
    the one-sided second-order difference in t, because g is defined on
    [0, T] only.
    """
    res_fn = _residual_ops(equation_id, params, w)
    h_t, h_m = _PDE_H_T, _PDE_H_M
    T = params.horizon.T
    t_nodes = grid.t_nodes(params.horizon.t0, T)
    m_nodes = grid.m_nodes()
    worst = 0.0
    for t in t_nodes:
        for m in m_nodes:
            if t + h_t > T:
                g_T = g_like(T, m)
                worst = max(worst, abs(g_T - 1.0) / max(abs(g_T), 1.0))
                continue
            g0 = g_like(t, m)
            if t - h_t < 0.0:
                g_t = (-3.0 * g0 + 4.0 * g_like(t + h_t, m) - g_like(t + 2.0 * h_t, m)) / (
                    2.0 * h_t
                )
            else:
                g_t = (g_like(t + h_t, m) - g_like(t - h_t, m)) / (2.0 * h_t)
            gp = g_like(t, m + h_m)
            gn = g_like(t, m - h_m)
            g_m = (gp - gn) / (2.0 * h_m)
            g_mm = (gp - 2.0 * g0 + gn) / (h_m * h_m)
            r = res_fn(t, m, g0, g_t, g_m, g_mm)
            worst = max(worst, abs(r) / max(abs(g0), 1.0))
    return worst


# ---------------------------------------------------------------- #
# coefficient ODE residuals and bounds

_ODE_H = 1e-4  # central-difference step of abc_ode_residual


def abc_ode_residual(params: ModelParams, t: float, s: float) -> float:
    """Max relative residual of the coefficient ODE system at (t, s).

    The t-derivatives of the closed forms of (A, B, C) are taken by
    central differences with step 1e-4 and compared to the stated
    right-hand sides; each residual is normalized by max(|rhs|, 1).
    """
    h = _ODE_H
    co = exact_coeffs(params)
    A = coeff_A(t, s, co)
    B = float(coeff_B(t, s, co))
    C = float(coeff_C(t, s, co))
    rhs = abc_rhs(A, B, C, co)
    fd = (
        (coeff_A(t + h, s, co) - coeff_A(t - h, s, co)) / (2 * h),
        (float(coeff_B(t + h, s, co)) - float(coeff_B(t - h, s, co))) / (2 * h),
        (float(coeff_C(t + h, s, co)) - float(coeff_C(t - h, s, co))) / (2 * h),
    )
    return max(
        abs(f - r) / max(abs(r), 1.0) for f, r in zip(fd, (rhs[0], rhs[1], rhs[2]))
    )


def abc_bounds_margin(params: ModelParams, t: float, s: float) -> float:
    """Smallest slack of the stated coefficient bounds at (t, s).

    Bounds (gamma > 1, rho1 <= 0): 0 <= C <= min(b0 (s-t), 2 b0/(2 kappa
    + Delta)); |B| <= |b1| (s-t); A >= A1 (T-t)(s-t) + A2 (s-t).  A
    nonnegative return means every bound holds.
    """
    co = exact_coeffs(params)
    base = co.base
    T = params.horizon.T
    tau = s - t
    C = float(coeff_C(t, s, co))
    B = float(coeff_B(t, s, co))
    A = coeff_A(t, s, co)
    return min(
        C,
        base.b0 * tau - C,
        2.0 * base.b0 / (2.0 * base.kappa + base.Delta) - C,
        abs(base.b1) * tau - abs(B),
        A - base.A1 * (T - t) * tau - base.A2 * tau,
    )


# ---------------------------------------------------------------- #
# saddle check

@dataclass(frozen=True)
class SaddleReport:
    """Outcome of one saddle check: bracket level and perturbation verdicts."""

    point: tuple[float, float, float]
    v: float
    bracket_at_optimum: float
    tolerance: float
    n_control_perturbations: int
    n_distortion_perturbations: int
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _aggregator_f(kind: str, c: float, v: float, params: ModelParams) -> float:
    """Intertemporal aggregator f(c, v) at positive (1-gamma) v."""
    pf = params.preference
    A = (1.0 - pf.gamma) * v
    if A <= 0.0 or c <= 0.0:
        return -math.inf
    if kind == "unit":
        return pf.delta * A * (math.log(c) - math.log(A) / (1.0 - pf.gamma))
    phi = derive_k_phi(pf.gamma, pf.Phi, params.market.rho1)[1]
    expo = 1.0 - 1.0 / phi
    cb = c * A ** (-1.0 / (1.0 - pf.gamma))
    return (pf.delta / expo) * A * (cb**expo - 1.0)


def hjbi_bracket(
    controls: tuple[float, float, float],
    distortions: tuple[float, float, float],
    point: tuple[float, float, float],
    d: ValueDerivs,
    params: ModelParams,
    aggregator: str,
) -> float:
    """The max-min integrand at explicit controls and distortions.

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
        val += inv_two_psi * (xi1 * xi1 + xi2 * xi2 + xi3 * xi3)
    elif xi1 != 0.0 or xi2 != 0.0 or xi3 != 0.0:
        return math.inf
    return val


_SADDLE_RADIUS = 0.1  # relative size of the perturbations hjbi_saddle_check draws


def hjbi_saddle_check(
    v_fn,
    point: tuple[float, float, float],
    samples: int = 20,
    seed: int = 0,
) -> SaddleReport:
    """Check the saddle property of v_fn's optimum at one state point.

    v_fn must expose params, aggregator ("power" or "unit"), strategy(t,x,m)
    and value_derivs(t,x,m).  The bracket at the reported optimum must
    vanish within 1e-6 (1 + |v|); each of `samples` random perturbations of
    (pi, q, c) alone must not increase it, and of (xi1, xi2, xi3) alone must
    not decrease it.  With Phi = 0 the distortion is pinned at zero and only
    control perturbations are drawn (any nonzero distortion costs an
    infinite penalty there).
    """
    t, x, m = point
    radius = _SADDLE_RADIUS
    params: ModelParams = v_fn.params
    agg: str = v_fn.aggregator
    sp = v_fn.strategy(t, x, m)
    d = v_fn.value_derivs(t, x, m)
    ctrl_opt = (sp.pi, sp.q, sp.c)
    dist_opt = (sp.xi1, sp.xi2, sp.xi3)
    b_opt = hjbi_bracket(ctrl_opt, dist_opt, point, d, params, agg)
    tol = 1e-6 * (1.0 + abs(d.v))
    violations: list[str] = []
    if not abs(b_opt) <= tol:
        violations.append(
            f"bracket at optimum = {b_opt:.3e} exceeds tolerance {tol:.3e}"
        )

    rng = np.random.default_rng(seed)
    do_xi = params.preference.Phi > 0.0
    n_ctrl = 0
    n_dist = 0
    for _ in range(samples):
        u = rng.uniform(-1.0, 1.0, size=3)
        pi_p = sp.pi + radius * (1.0 + abs(sp.pi)) * u[0]
        q_p = max(sp.q + radius * (1.0 + abs(sp.q)) * u[1], 0.0)
        c_p = sp.c * math.exp(radius * u[2])
        b = hjbi_bracket((pi_p, q_p, c_p), dist_opt, point, d, params, agg)
        n_ctrl += 1
        if b > b_opt + tol:
            violations.append(
                f"control perturbation raised the bracket: {b:.6e} > {b_opt:.6e} "
                f"at (pi, q, c) = ({pi_p:.6g}, {q_p:.6g}, {c_p:.6g})"
            )
        if do_xi:
            w = rng.uniform(-1.0, 1.0, size=3)
            xi_p = (
                sp.xi1 + radius * w[0],
                sp.xi2 + radius * w[1],
                sp.xi3 + radius * w[2],
            )
            b = hjbi_bracket(ctrl_opt, xi_p, point, d, params, agg)
            n_dist += 1
            if b < b_opt - tol:
                violations.append(
                    f"distortion perturbation lowered the bracket: {b:.6e} < "
                    f"{b_opt:.6e} at xi = ({xi_p[0]:.6g}, {xi_p[1]:.6g}, {xi_p[2]:.6g})"
                )
    return SaddleReport(
        point=point,
        v=d.v,
        bracket_at_optimum=b_opt,
        tolerance=tol,
        n_control_perturbations=n_ctrl,
        n_distortion_perturbations=n_dist,
        violations=tuple(violations),
    )


# ---------------------------------------------------------------- #
# Monte Carlo Feynman-Kac

# The CLI's step: 200 steps over a span of 0.5 keep the trapezoid's
# second-order bias under 0.4 standard errors at 1e5 paths for |m| <= 2.
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
    present only when collect_running).
    """
    if n_paths < 1:
        raise ValueError(f"n_paths = {n_paths} must be >= 1")
    if dt <= 0.0:
        raise ValueError(f"dt = {dt} must be positive")
    if s < t:
        raise ValueError(f"need t <= s, got t = {t}, s = {s}")
    eco = exact_coeffs(params)
    n_steps, h = _fk_steps(s - t, dt)
    if n_steps == 0:
        zeros = np.zeros(n_paths)
        return zeros, (np.zeros(n_paths) if collect_running else None)
    decay, shift, sd = _ou_step(eco.h2_0, eco.base.kappa, params.market.beta, h)
    rng = np.random.Generator(np.random.Philox(seed))
    mv = np.full(n_paths, float(m))
    I = np.zeros(n_paths)
    S = np.zeros(n_paths) if collect_running else None
    h1_prev = eco.H1(mv)
    exp_prev = np.ones(n_paths) if collect_running else None
    for _ in range(n_steps):
        z = rng.standard_normal(n_paths)
        mv = decay * mv + shift + sd * z
        h1_new = eco.H1(mv)
        I = I + 0.5 * h * (h1_prev + h1_new)
        h1_prev = h1_new
        if collect_running:
            e = np.exp(I)
            S += 0.5 * h * (exp_prev + e)
            exp_prev = e
    return I, S


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error by compensated summation."""
    n = values.size
    mean = math.fsum(values) / n
    if n == 1:
        return mean, 0.0
    var = math.fsum((values - mean) ** 2) / (n - 1)
    return mean, math.sqrt(var / n)


def mc_feynman_kac(
    params: ModelParams,
    t: float,
    m: float,
    s: float,
    n_paths: int,
    dt: float,
    seed: int,
) -> tuple[float, float]:
    """(estimate, std error) of E[exp(int_t^s H1(m_u) du)], m driven by H2.

    Exact OU factor steps of uniform width span/round(span/dt) (dt is a
    target), one counter-based stream for the whole batch with one draw
    block per step, trapezoid accumulation of the discount integral.
    """
    I, _ = _fk_paths(params, t, m, s, n_paths, dt, seed, collect_running=False)
    return _mean_se(np.exp(I))


def mc_g(
    params: ModelParams,
    t: float,
    m: float,
    n_paths: int,
    dt: float,
    seed: int,
) -> tuple[float, float]:
    """(estimate, std error) of g(t, m) by its expectation representation.

    Per path: delta^phi int_t^T exp(I(u)) du + exp(I(T)), with I the running
    trapezoid of H1 along exact OU factor steps of target width dt; the
    outer integral reuses the same path grid.  Both trapezoids leave a
    bias second order in dt.
    """
    eco = exact_coeffs(params)
    I, S = _fk_paths(
        params, t, m, params.horizon.T, n_paths, dt, seed, collect_running=True
    )
    return _mean_se(eco.delta_phi * S + np.exp(I))


# ---------------------------------------------------------------- #
# suites: the rows of `ricsolver verify`

def ode_suite(params: ModelParams, seed: int) -> list[CheckRow]:
    """abc_ode_residual at 50 random (t, s) pairs."""
    rng = np.random.default_rng(seed)
    T = params.horizon.T
    rows = []
    for i in range(50):
        t = rng.uniform(0.0, T - 0.02)
        s = rng.uniform(t + 0.01, T)
        r = abc_ode_residual(params, t, s)
        rows.append(CheckRow("abc_ode_residual", f"t={t:.4f} s={s:.4f}",
                             r, 1e-4, r <= 1e-4))
    return rows


def bounds_suite(seed: int) -> list[CheckRow]:
    """Coefficient bounds at random gamma > 1 draws, rho1 <= 0."""
    rng = np.random.default_rng(seed)
    rows = []
    draws = 0
    while draws < 20:
        base = ModelParams()
        params = dataclasses.replace(
            base,
            market=dataclasses.replace(
                base.market,
                sigma=rng.uniform(0.15, 1.0),
                beta=rng.uniform(0.1, 0.6),
                alpha=rng.uniform(1.0, 8.0),
                rho1=rng.uniform(-0.95, 0.0),
            ),
            preference=dataclasses.replace(
                base.preference,
                gamma=rng.uniform(1.05, 2.5),
                Phi=rng.uniform(0.0, 1.2),
                delta=rng.uniform(0.02, 0.2),
            ),
            insurance=dataclasses.replace(
                base.insurance, theta1=rng.uniform(0.1, 1.0)
            ),
        )
        try:
            worst = math.inf
            for _ in range(50):
                t = rng.uniform(0.0, params.horizon.T - 0.02)
                s = rng.uniform(t + 0.01, params.horizon.T)
                worst = min(worst, abc_bounds_margin(params, t, s))
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
    plus the unit-EIS g against the linear equation as a negative control."""
    grid = Grid2D(n_t=10, n_m=10, m_max=2.0)
    rows = []
    ex = ExactSolver(params)
    r = pde_residual(lambda t, m: ex.g(t, m).g, "g1", grid, params)
    rows.append(CheckRow("pde_residual_g1", "10x10 grid |m|<=2", r, 1e-4, r <= 1e-4))
    try:
        un = UnitEisSolver(params)
        r = pde_residual(lambda t, m: un.g(t, m).g, "unit", grid, params)
        rows.append(CheckRow("pde_residual_unit", "10x10 grid", r, 1e-4, r <= 1e-4))
    except SolverError as exc:
        rows.append(CheckRow("pde_residual_unit", f"error: {exc}", math.nan, 1e-4, False))
    try:
        cs = CsSolver(params)
        r = pde_residual(lambda t, m: cs.g(t, m).g, "cs", grid, params, w=cs.w)
        rows.append(CheckRow("pde_residual_cs", f"10x10 grid w={cs.w:.6g}",
                             r, 1e-4, r <= 1e-4))
    except SolverError as exc:
        rows.append(CheckRow("pde_residual_cs", f"error: {exc}", math.nan, 1e-4, False))
    # negative control: the unit-mode g must NOT satisfy the linear equation
    try:
        un = UnitEisSolver(params)
        r = pde_residual(lambda t, m: un.g(t, m).g, "g1", grid, params)
        rows.append(CheckRow("pde_negative_control", "unit g against g1",
                             r, 1e-2, r > 1e-2))
    except SolverError as exc:
        rows.append(CheckRow("pde_negative_control", f"error: {exc}",
                             math.nan, 1e-2, False))
    return rows


def fd_suite(params: ModelParams) -> list[CheckRow]:
    """fd_solve_g on a 400 x 401 grid against the exact g at 20 nodes."""
    grid = Grid2D(n_t=400, n_m=401, m_max=4.0)
    gv = fd_solve_g(params, grid)
    tn = grid.t_nodes(params.horizon.t0, params.horizon.T)
    mn = grid.m_nodes()
    ex = ExactSolver(params)
    rng = np.random.default_rng(7)
    rows = []
    for _ in range(20):
        i = int(rng.integers(0, grid.n_t - 1))
        j = int(rng.integers(0, grid.n_m))
        while abs(mn[j]) > 2.0:
            j = int(rng.integers(0, grid.n_m))
        closed = ex.g(tn[i], mn[j]).g
        rel = abs(gv[i, j] - closed) / abs(closed)
        rows.append(CheckRow("fd_vs_closed_g", f"t={tn[i]:.4f} m={mn[j]:.4f}",
                             rel, 1e-4, rel <= 1e-4))
    return rows


def saddle_suite(params: ModelParams, samples: int, seed: int) -> list[CheckRow]:
    """hjbi_saddle_check of the exact mode at 10 x 10 interior points."""
    t0, T = params.horizon.t0, params.horizon.T
    ts = t0 + (T - t0) * (np.arange(10) + 0.5) / 10.0
    ms = np.linspace(-2.0, 2.0, 10)
    ex = ExactSolver(params)
    rows = []
    for i, t in enumerate(ts):
        for j, m in enumerate(ms):
            rep = hjbi_saddle_check(ex, (float(t), 1.0, float(m)),
                                    samples=samples, seed=seed + 31 * i + j)
            rows.append(CheckRow(
                "saddle_violations",
                f"t={t:.4f} m={m:.4f}",
                float(len(rep.violations)), 0.0, rep.passed,
            ))
    return rows


def mc_suite(params: ModelParams, n_paths: int, seed: int) -> list[CheckRow]:
    """z-score of mc_g (exact OU steps of target width MC_DT) against the
    exact g at (t0, m0); the row's note records how the Monte Carlo ran."""
    t0 = params.horizon.t0
    m0 = params.market.m0
    est, se = mc_g(params, t0, m0, n_paths=n_paths, dt=MC_DT, seed=seed)
    closed = ExactSolver(params).g(t0, m0).g
    z = abs(est - closed) / se if se > 0 else math.inf
    n_steps, _ = _fk_steps(params.horizon.T - t0, MC_DT)
    return [CheckRow("mc_g_z_score",
                     f"t={t0:.4f} m={m0:.4f} paths={n_paths} est={est:.8f} "
                     f"closed={closed:.8f} se={se:.2e}",
                     z, 3.0, z <= 3.0,
                     note=f"diag mc: scheme = exact_ou, dt = {MC_DT:.9g}, "
                          f"n_steps = {n_steps}, n_paths = {n_paths}, seed = {seed}")]


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
