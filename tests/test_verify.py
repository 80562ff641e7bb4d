import dataclasses
import math
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from ricsolver import (
    CsSolver,
    ExactSolver,
    Grid2D,
    ModelParams,
    StabilityViolation,
    UnitEisSolver,
    abc_bounds_margin,
    abc_ode_residual,
    derive_coeffs,
    exact_coeffs,
    fd_solve_g,
    hjbi_bracket,
    hjbi_saddle_check,
    mc_feynman_kac,
    mc_g,
    pde_residual,
)

from ricsolver.errors import SingularLinearSystem
from ricsolver.exact import coeff_A
from ricsolver.simulate import _chunk_steps
from ricsolver.verify import (MC_DT, _fk_paths, _fk_steps, _lag_pairs, _mean_se,
                              _ou_h1_mean, _ou_step, fd_suite, mc_suite, pde_suite,
                              saddle_suite)

CRITERION_GRID = Grid2D(n_t=400, n_m=401, m_max=4.0)


def repl(params, **kw):
    blocks = {}
    for block in ("market", "insurance", "preference", "horizon"):
        obj = getattr(params, block)
        fields = {f.name for f in dataclasses.fields(obj)}
        hits = {k: v for k, v in kw.items() if k in fields}
        if hits:
            blocks[block] = dataclasses.replace(obj, **hits)
    return dataclasses.replace(params, **blocks)


# ---------------------------------------------------------------- #
# grid and scheme

def test_grid_validation():
    with pytest.raises(ValueError):
        Grid2D(n_t=2, n_m=10, m_max=2.0)
    with pytest.raises(ValueError):
        Grid2D(n_t=10, n_m=4, m_max=2.0)
    with pytest.raises(ValueError):
        Grid2D(n_t=10, n_m=10, m_max=0.0)


def test_domain_floor_enforced(base_params):
    # 8 beta / sqrt(2 alpha) = 0.632... at the default calibration
    with pytest.raises(StabilityViolation):
        fd_solve_g(base_params, Grid2D(n_t=10, n_m=10, m_max=0.5))


def _fd_reference(params, grid):
    """fd_solve_g's Crank-Nicolson march with one solve_banded call per step."""
    from scipy.linalg import solve_banded

    eco = exact_coeffs(params)
    lag, dp = eco.lag, eco.delta_phi
    t = grid.t_nodes(params.horizon.t0, params.horizon.T)
    m = grid.m_nodes()
    n, dt, dm = grid.n_m, t[1] - t[0], m[1] - m[0]
    diff = 0.5 * params.market.beta**2 / dm**2
    adv = lag.H2(m) / (2.0 * dm)
    sub, dia, sup = diff - adv, -2.0 * diff + lag.H1(m), diff + adv
    ab = np.zeros((5, n))
    ab[2, 1:-1] = 1.0 - 0.5 * dt * dia[1:-1]
    ab[1, 2:] = -0.5 * dt * sup[1:-1]
    ab[3, 0:-2] = -0.5 * dt * sub[1:-1]
    ab[2, 0], ab[1, 1], ab[0, 2] = 3.0, -4.0, 1.0
    ab[2, n - 1], ab[3, n - 2], ab[4, n - 3] = 3.0, -4.0, 1.0
    out = np.ones((grid.n_t, n))
    for i in range(grid.n_t - 2, -1, -1):
        g = out[i + 1]
        rhs = np.zeros(n)
        lg = sub[1:-1] * g[:-2] + dia[1:-1] * g[1:-1] + sup[1:-1] * g[2:]
        rhs[1:-1] = g[1:-1] + 0.5 * dt * lg + dt * dp
        out[i] = solve_banded((2, 2), ab, rhs)
    return out


@pytest.mark.parametrize("beta, n_t, n_m", [(0.25, 40, 41), (1.0, 7, 9)])
def test_fd_factored_once_matches_a_banded_solve_per_step(base_params, beta, n_t, n_m):
    params = repl(base_params, beta=beta)
    grid = Grid2D(n_t=n_t, n_m=n_m, m_max=8.0)
    assert np.array_equal(fd_solve_g(params, grid), _fd_reference(params, grid))


def test_fd_refuses_a_non_finite_system(base_params):
    # m_max = 1e160 overflows H1 ~ -b0 m^2 to -inf on the outer nodes: a typed
    # refusal, not the ValueError of a finiteness check inside scipy
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SingularLinearSystem, match="non-finite"):
        fd_solve_g(base_params, Grid2D(n_t=5, n_m=7, m_max=1e160))


def test_fd_matches_closed_form(base_params):
    gv = fd_solve_g(base_params, CRITERION_GRID)
    tn = CRITERION_GRID.t_nodes(base_params.horizon.t0, base_params.horizon.T)
    mn = CRITERION_GRID.m_nodes()
    solver = ExactSolver(base_params)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        i = int(rng.integers(0, len(tn) - 1))
        j = int(rng.integers(0, len(mn)))
        while abs(mn[j]) > 2.0:
            j = int(rng.integers(0, len(mn)))
        closed = solver.g(tn[i], mn[j]).g
        worst = max(worst, abs(gv[i, j] - closed) / abs(closed))
    assert worst < 1e-4
    assert worst < 1e-5  # measured 4.8e-7; alert well before the contract


def test_fd_degenerate_diffusion_line(base_params):
    # beta = 0 and a = r freeze m and kill the excess return, so along
    # m = 0 the solution is the scalar linear ODE with constant source:
    # g(t, 0) = e^(h1_0 tau) (1 + delta^phi/h1_0) - delta^phi/h1_0
    params = repl(base_params, beta=0.0, a=0.02)
    co = exact_coeffs(params)
    grid = Grid2D(n_t=3001, n_m=5, m_max=1.0)
    gv = fd_solve_g(params, grid)
    tn = grid.t_nodes(params.horizon.t0, params.horizon.T)
    mid = grid.n_m // 2
    dp = params.preference.delta ** co.base.phi
    h10 = co.lag.p0
    worst = 0.0
    for i in (0, 1500, 2999):
        tau = params.horizon.T - tn[i]
        ref = math.exp(h10 * tau) * (1.0 + dp / h10) - dp / h10
        worst = max(worst, abs(gv[i, mid] - ref) / abs(ref))
    assert worst < 1e-8


def test_fd_second_order_in_space_and_time():
    # convergence order needs diffusion-resolved cells (cell Peclet below
    # ~2); the default calibration is advection-dominated at feasible grid
    # sizes, so measure on a diffusive variant instead
    params = repl(ModelParams(), beta=1.0, alpha=1.0)
    solver = ExactSolver(params)
    errs = []
    for n_t, n_m in ((101, 121), (201, 241)):
        grid = Grid2D(n_t=n_t, n_m=n_m, m_max=6.0)
        gv = fd_solve_g(params, grid)
        tn = grid.t_nodes(params.horizon.t0, params.horizon.T)
        mn = grid.m_nodes()
        worst = 0.0
        for i in range(0, len(tn), 17):
            if tn[i] > 0.91:
                continue
            for j in range(0, len(mn), 13):
                if abs(mn[j]) > 2.0:
                    continue
                ref = solver.g(tn[i], mn[j]).g
                worst = max(worst, abs(gv[i, j] - ref))
        errs.append(worst)
    ratio = errs[0] / errs[1]
    # halving both steps should shrink the error ~4x (measured 3.8)
    assert 2.8 < ratio < 6.0


# ---------------------------------------------------------------- #
# residual checks

def test_pde_residual_exact(base_params):
    grid = Grid2D(n_t=10, n_m=10, m_max=2.0)
    # t0 = 0 puts the first row at the lower end of g's domain [0, T]
    from_zero = dataclasses.replace(
        base_params, horizon=dataclasses.replace(base_params.horizon, t0=0.0)
    )
    for params in (base_params, from_zero):
        solver = ExactSolver(params)
        r = pde_residual(lambda t, m: solver.g(t, m).g, solver.coeffs, grid)
        assert r < 1e-4


def test_pde_residual_unit(base_params):
    grid = Grid2D(n_t=10, n_m=10, m_max=2.0)
    solver = UnitEisSolver(base_params)
    r = pde_residual(lambda t, m: solver.g(t, m).g, solver.coeffs, grid)
    assert r < 1e-4


def test_pde_residual_cs(loglin_params):
    grid = Grid2D(n_t=10, n_m=10, m_max=2.0)
    solver = CsSolver(loglin_params)
    r = pde_residual(lambda t, m: solver.g(t, m).g, solver.coeffs, grid)
    assert r < 1e-4


def test_pde_residual_negative_control(base_params):
    # the unit-mode g pushed through the non-unit equation must fail loudly
    grid = Grid2D(n_t=10, n_m=10, m_max=2.0)
    solver = UnitEisSolver(base_params)
    r = pde_residual(lambda t, m: solver.g(t, m).g, exact_coeffs(base_params), grid)
    assert r > 1e-2


def test_abc_ode_residual_small(base_params):
    for t, s in [(0.1, 0.9), (0.5, 1.0), (0.8, 0.85)]:
        assert abc_ode_residual(base_params, t, s) < 1e-4


def test_abc_bounds_margin_nonnegative(base_params):
    for t, s in [(0.0, 1.0), (0.3, 0.7), (0.9, 1.0)]:
        assert abc_bounds_margin(base_params, t, s) >= -1e-12


def test_lag_pairs_are_the_pairwise_draws():
    # one (50, 2) block, scaled as Generator.uniform scales: the bits of the
    # interleaved t, s draws the suites made before
    for seed in (0, 5, 11):
        rng = np.random.default_rng(seed)
        pairs = []
        for _ in range(50):
            t = rng.uniform(0.0, 1.0 - 0.02)
            pairs.append((t, rng.uniform(t + 0.01, 1.0)))
        t, s = _lag_pairs(np.random.default_rng(seed), 1.0)
        assert list(zip(t.tolist(), s.tolist())) == pairs


def test_coefficient_checks_on_arrays_match_pointwise(base_params):
    # one call over the 50 pairs of the ode suite against 50 one-pair calls.
    # coeff_A sums each lag's series on its own, so the lags agree bit for bit
    t, s = _lag_pairs(np.random.default_rng(0), base_params.horizon.T)
    co = exact_coeffs(base_params)
    A = coeff_A(t, s, co)
    A_one = np.array([coeff_A(ti, si, co) for ti, si in zip(t, s)])
    assert A.shape == (50,)
    assert np.array_equal(A, A_one)
    for check in (abc_ode_residual, abc_bounds_margin):
        r = check(base_params, t, s)
        r_one = [check(base_params, ti, si) for ti, si in zip(t, s)]
        assert r.shape == (50,)
        assert np.all(np.abs(r - r_one) <= 1e-12)
    for value in (coeff_A(0.2, 0.9, co), r_one[0], abc_ode_residual(base_params, 0.2, 0.9)):
        assert type(value) is float
    assert abc_bounds_margin(base_params, 0.0, 1.0) >= -1e-12
    # at t < 1e-4 the central stencil's lag s - t + h would pass T, where
    # coeff_A refuses: the one-sided difference stays inside (6.4e-11 here)
    assert abc_ode_residual(base_params, np.array([0.0, 5e-5, 0.2]), 1.0).max() <= 1e-9


def test_suites_pass_next_to_unit_phi(base_params):
    # Phi = 0.8, rho1 = -0.5 put derived phi = 1 at gamma = 0.2; ten times
    # the unit-EIS band above it, k = (1-gamma)/(phi-1) is about -8e4 and
    # every row of the saddle, pde and fd suites still passes
    p = repl(base_params, Phi=0.8, rho1=-0.5, gamma=0.2 + 1e-5)
    rows = saddle_suite(p, samples=20, seed=0) + pde_suite(p) + fd_suite(p)
    assert len(rows) == 100 + 4 + 20
    failed = [r for r in rows if not r.passed]
    assert not failed, failed


def test_pde_suite_builds_one_unit_table(base_params, monkeypatch):
    # the unit-EIS row and the negative control share one solver: one H
    # table for unit EIS, ten for the cs root's evaluations
    import ricsolver.exact as exact_mod

    calls = []
    build = exact_mod._build_h_table
    monkeypatch.setattr(exact_mod, "_build_h_table", lambda co: calls.append(co) or build(co))
    rows = pde_suite(base_params)
    assert all(r.passed for r in rows)
    assert len(calls) == 11
    assert sum(co.disc == base_params.preference.delta for co in calls) == 1


# ---------------------------------------------------------------- #
# saddle point

def test_bracket_zero_at_optimum(base_params):
    solver = ExactSolver(base_params)
    t, x, m = 0.5, 1.0, 0.0
    sp = solver.strategy(t, x, m)
    d = solver.value_derivs(t, x, m)
    val = hjbi_bracket(
        (sp.pi, sp.q, sp.c), (sp.xi1, sp.xi2, sp.xi3),
        (t, x, m), d, base_params, solver.aggregator,
    )
    assert abs(val) < 1e-10 * (1.0 + abs(d.v))


def test_saddle_no_violations(base_params):
    solver = ExactSolver(base_params)
    for point in [(0.5, 1.0, 0.0), (0.1, 2.0, 0.5), (0.9, 0.5, -0.3)]:
        rep = hjbi_saddle_check(solver, point, samples=20, seed=1)
        assert rep.passed, rep.violations
        assert rep.n_distortion_perturbations > 0


def test_saddle_check_reads_one_g(base_params, monkeypatch):
    # strategy and value derivatives at the point come from one g integral
    import ricsolver.exact as exact_mod

    calls = []
    g_bundle = exact_mod.g_bundle

    def counting(t, m, co):
        calls.append((t, m))
        return g_bundle(t, m, co)

    monkeypatch.setattr(exact_mod, "g_bundle", counting)
    solver = ExactSolver(base_params)
    rep = hjbi_saddle_check(solver, (0.5, 1.0, 0.0), samples=20, seed=1)
    assert rep.passed, rep.violations
    assert calls == [(0.5, 0.0)]
    sp, d = solver.strategy_and_derivs(0.7, 1.3, -0.4)
    assert (sp, d) == (solver.strategy(0.7, 1.3, -0.4), solver.value_derivs(0.7, 1.3, -0.4))


@pytest.mark.parametrize("mode", [ExactSolver, UnitEisSolver], ids=["power", "unit"])
def test_bracket_on_arrays_matches_scalar_calls(base_params, loglin_params, mode):
    rng = np.random.default_rng(4)
    for params in (base_params, loglin_params):
        solver = mode(params)
        point = (0.6, 1.2, 0.3)
        sp, d = solver.strategy_and_derivs(*point)
        u = rng.uniform(-0.2, 0.2, size=(6, 40))
        u[:, :3] = 0.0  # the optimum itself
        u[2, 3] = -2.0  # c <= 0: f = -inf
        ctrl = (sp.pi + u[0], sp.q + u[1], sp.c * (1.0 + u[2]))
        dist = (sp.xi1 + u[3], sp.xi2 + u[4], sp.xi3 + u[5])
        xs = rng.uniform(0.5, 2.0, 40)
        b = {}
        for kind, c, xi, x in (("ctrl", ctrl, (sp.xi1, sp.xi2, sp.xi3), point[1]),
                               ("dist", (sp.pi, sp.q, sp.c), dist, xs)):
            b[kind] = hjbi_bracket(c, xi, (point[0], x, point[2]), d, params, solver.aggregator)
            one = [hjbi_bracket(tuple(np.broadcast_to(z, 40)[i] for z in c),
                                tuple(np.broadcast_to(z, 40)[i] for z in xi),
                                (point[0], np.broadcast_to(x, 40)[i], point[2]),
                                d, params, solver.aggregator) for i in range(40)]
            assert b[kind].shape == (40,)
            assert b[kind].tolist() == one
            assert type(one[0]) is float
        assert abs(b["ctrl"][0]) <= 1e-10 * (1.0 + abs(d.v))
        assert b["ctrl"][3] == -math.inf
        assert np.isinf(b["dist"][3:]).all() == (params.preference.Phi == 0.0)


class _Overconsuming(ExactSolver):
    """The exact mode with consumption 5 % above its optimum."""

    def c_over_x(self, g):
        return 1.05 * super().c_over_x(g)


def test_saddle_check_fails_off_the_optimum(base_params):
    # negative control: a wrong consumption rule must not pass
    solver = _Overconsuming(base_params)
    rep = hjbi_saddle_check(solver, (0.6, 1.0, 0.3), samples=20, seed=0)
    assert not rep.passed
    assert abs(rep.bracket_at_optimum) > 100.0 * rep.tolerance
    assert rep.n_violations == len(rep.violations) >= 1
    # on the saddle suite's 10 x 10 grid every point is flagged
    t0, T = base_params.horizon.t0, base_params.horizon.T
    ts = t0 + (T - t0) * (np.arange(10) + 0.5) / 10.0
    ms = np.linspace(-2.0, 2.0, 10)
    rep = hjbi_saddle_check(solver, (ts, 1.0, ms), samples=20, seed=0)
    assert rep.n_violations.shape == (10, 10)
    assert (rep.n_violations >= 1).all()
    assert rep.n_violations.sum() == len(rep.violations)
    assert "at (t, m) = (" in rep.violations[0]


def test_saddle_grid_check_matches_points(base_params):
    # the grid check: one g on the grid and one draw block; at a point the
    # block is the stream the per-sample draws made, so a 1 x 1 grid and the
    # point agree on every perturbation
    solver = ExactSolver(base_params)
    rep = hjbi_saddle_check(solver, (np.array([0.6]), 1.0, np.array([0.3])), samples=20,
                            seed=4)
    one = hjbi_saddle_check(solver, (0.6, 1.0, 0.3), samples=20, seed=4)
    assert rep.passed and one.passed
    assert rep.bracket_at_optimum.shape == (1, 1)
    assert rep.bracket_at_optimum[0, 0] == one.bracket_at_optimum
    assert type(one.bracket_at_optimum) is float and type(one.n_violations) is int
    ts, ms = np.linspace(0.05, 0.95, 4), np.linspace(-2.0, 2.0, 5)
    rep = hjbi_saddle_check(solver, (ts, 1.0, ms), samples=20, seed=4)
    assert rep.passed and rep.n_violations.shape == (4, 5) and not rep.n_violations.any()
    assert rep.n_control_perturbations == rep.n_distortion_perturbations == 20


def test_saddle_unit_mode(base_params):
    solver = UnitEisSolver(base_params)
    rep = hjbi_saddle_check(solver, (0.5, 1.0, 0.0), samples=20, seed=2)
    assert rep.passed, rep.violations


def test_no_ambiguity_skips_distortion_probes(loglin_params):
    # Phi = 0: any nonzero distortion costs +inf, so there is nothing to
    # probe on that axis
    solver = ExactSolver(loglin_params)
    rep = hjbi_saddle_check(solver, (0.5, 1.0, 0.0), samples=10, seed=3)
    assert rep.passed
    assert rep.n_distortion_perturbations == 0


def test_nonzero_distortion_infinite_penalty_without_ambiguity(loglin_params):
    solver = ExactSolver(loglin_params)
    t, x, m = 0.5, 1.0, 0.0
    sp = solver.strategy(t, x, m)
    d = solver.value_derivs(t, x, m)
    val = hjbi_bracket(
        (sp.pi, sp.q, sp.c), (0.05, 0.0, 0.0),
        (t, x, m), d, loglin_params, solver.aggregator,
    )
    assert val == math.inf


def test_consumption_perturbation_lowers_bracket(base_params):
    solver = ExactSolver(base_params)
    t, x, m = 0.5, 1.0, 0.0
    sp = solver.strategy(t, x, m)
    d = solver.value_derivs(t, x, m)

    def bracket(c):
        return hjbi_bracket(
            (sp.pi, sp.q, c), (sp.xi1, sp.xi2, sp.xi3),
            (t, x, m), d, base_params, solver.aggregator,
        )

    at_opt = bracket(sp.c)
    assert bracket(1.01 * sp.c) < at_opt
    assert bracket(0.99 * sp.c) < at_opt


# ---------------------------------------------------------------- #
# Monte Carlo cross-checks

def test_mc_h_matches_closed(base_params):
    co = exact_coeffs(base_params)
    est, se = mc_feynman_kac(
        base_params, 0.5, 0.0, base_params.horizon.T,
        n_paths=20_000, dt=1e-3, seed=42,
    )
    T = base_params.horizon.T
    ref = math.exp(coeff_A(0.5, T, co))  # h(0.5, 0; T) = exp(A - B m - C m^2) at m = 0
    assert se > 0.0
    assert abs(est - ref) < 3.0 * se + 5e-5  # 5e-5 = measured Euler bias cap


def test_mc_g_matches_closed(base_params):
    est, se = mc_g(base_params, 0.5, 0.0, n_paths=20_000, dt=1e-3, seed=43)
    ref = ExactSolver(base_params).g(0.5, 0.0).g
    assert abs(est - ref) < 3.0 * se + 5e-5


@pytest.mark.parametrize("m, seed", [(1.8, 3), (1.8, 5), (-1.8, 3), (-1.8, 5)])
def test_mc_g_edge_at_cli_step(base_params, m, seed):
    # |m| = 1.8 sits at the edge of the acceptance range, where the step bias
    # of the path discount is largest; at the CLI step it must stay in the noise
    est, se = mc_g(base_params, 0.5, m, n_paths=100_000, dt=MC_DT, seed=seed)
    ref = ExactSolver(base_params).g(0.5, m).g
    assert abs(est - ref) <= 3.0 * se


def test_ou_step_kappa_zero_is_the_limit():
    def step(kappa):
        return _ou_step(0.3, kappa, 0.4, 0.01)

    limit = step(0.0)
    assert limit == (1.0, 0.3 * 0.01, 0.4 * math.sqrt(0.01))
    assert step(1e-9) == pytest.approx(limit, rel=1e-10)
    # and the step is the OU transition: for kappa = 2 the variance over h
    # is beta^2 (1 - exp(-2 kappa h)) / (2 kappa)
    decay, shift, sd = step(2.0)
    assert decay == pytest.approx(math.exp(-0.02), rel=1e-15)
    assert shift == pytest.approx(0.3 * (1.0 - math.exp(-0.02)) / 2.0, rel=1e-14)
    assert sd**2 == pytest.approx(0.16 * (1.0 - math.exp(-0.04)) / 4.0, rel=1e-14)


def _h1_mean_by_trapezoid(eco, beta, m, span, n=100_000):
    """E int_0^span H1(m_u) du by an n-step trapezoid of the OU moment curves
    mu = mu_inf + (m - mu_inf) e^{-kappa u} (mu_inf = h2_0/kappa) and
    v = beta^2 (1 - e^{-2 kappa u})/(2 kappa), or m + h2_0 u and beta^2 u at
    kappa = 0, with the Richardson correction from the n/2-step trapezoid."""
    kappa, h2_0 = eco.base.kappa, eco.lag.h2_0
    u = np.linspace(0.0, span, n + 1)
    if kappa == 0.0:
        mu, v = m + h2_0 * u, beta**2 * u
    else:
        mu_inf = h2_0 / kappa
        mu = mu_inf + (m - mu_inf) * np.exp(-kappa * u)
        v = beta**2 * -np.expm1(-2.0 * kappa * u) / (2.0 * kappa)
    f = eco.lag.H1(mu) - eco.base.b0 * v  # E H1(m_u) = H1(mu) - b0 v

    def trapezoid(f, h):
        return h * (math.fsum(f) - 0.5 * (f[0] + f[-1]))

    fine, coarse = trapezoid(f, span / n), trapezoid(f[::2], 2.0 * span / n)
    return fine + (fine - coarse) / 3.0


@pytest.mark.parametrize("alpha, rho1, kappa", [
    (5.0, -0.5, 4.9375), (0.4, 0.0, 0.4), (0.0, 0.0, 0.0), (-0.5, 0.0, -0.5),
], ids=["default", "small-kappa", "kappa0", "negative-kappa"])
@pytest.mark.parametrize("span", [0.5, 1.0])
def test_ou_h1_mean_matches_moment_curves(base_params, alpha, rho1, kappa, span):
    # kappa span = 0.2 and 0.25 take the series branch, 0.4 and above the
    # closed form, kappa = 0 the limit
    eco = exact_coeffs(repl(base_params, alpha=alpha, rho1=rho1))
    assert eco.base.kappa == kappa
    beta = base_params.market.beta
    for m in (-2.0, 0.3, 2.0):
        want = _h1_mean_by_trapezoid(eco, beta, m, span)
        assert _ou_h1_mean(eco, beta, m, span) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("t, m, dt", [(0.5, 0.0, 1e-3), (0.0, -2.0, MC_DT), (0.8, 1.8, 5e-3)])
def test_control_has_its_closed_form_mean(base_params, t, m, dt):
    # the control I(T) - E int H1 averages to zero over the engine's paths
    I, _ = _fk_paths(base_params, t, m, base_params.horizon.T, 20_000, dt, 17, False)
    mean = _ou_h1_mean(exact_coeffs(base_params), base_params.market.beta, m,
                       base_params.horizon.T - t)
    est, se = _mean_se(I - mean)
    assert abs(est) <= 3.0 * se


def test_mc_g_control_cuts_the_standard_error(base_params):
    # at (0.5, 0) the control takes the standard error down about 20x
    args = (base_params, 0.5, 0.0, base_params.horizon.T, 2_000, MC_DT, 11, True)
    I, S = _fk_paths(*args)
    _, plain = _mean_se(exact_coeffs(base_params).delta_phi * S + np.exp(I))
    mc = mc_g(base_params, 0.5, 0.0, n_paths=2_000, dt=MC_DT, seed=11)
    _, se = mc
    assert mc.plain_se == plain
    assert 10.0 * se <= plain


@pytest.mark.parametrize("beta, t", [(0.0, 0.5), (0.25, 1.0)], ids=["beta0", "zero-span"])
def test_mc_g_without_spread_in_the_control(base_params, beta, t):
    # Var X = 0: b = 0, and no division by zero or warning on the way
    params = repl(base_params, beta=beta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mc = mc_g(params, t, 0.4, n_paths=2_000, dt=1e-3, seed=3)
    est, se = mc
    assert se == 0.0 and mc.b == 0.0
    assert math.isfinite(est)
    # equal values average to exactly themselves (fsum(3 * [0.1]) / 3 does not)
    assert _mean_se(np.full(3, 0.1)) == (0.1, 0.0)
    if t == params.horizon.T:
        assert est == 1.0


def test_mc_suite_reaches_mc_g_by_name(base_params, monkeypatch):
    # the bench tracer times the suite's Monte Carlo by wrapping verify.mc_g,
    # and the suite's note reads b and plain_se from what mc_g returns
    import ricsolver.verify as verify
    calls = []

    def traced(*args, **kwargs):
        calls.append(kwargs["n_paths"])
        return real(*args, **kwargs)

    real = verify.mc_g
    monkeypatch.setattr(verify, "mc_g", traced)
    (row,) = verify.mc_suite(base_params, 256, 5)
    assert calls == [256]
    assert "control = ou_moments, b = " in row.note and ", plain_se = " in row.note


@pytest.mark.parametrize("t0, m0", [(0.5, 0.0), (0.5, 2.0), (0.0, -3.0), (0.9985, 2.0)])
def test_mc_suite_zero_spread_checks_the_trapezoid_gap(base_params, t0, m0):
    # beta = 0: no z-score; the gap to the closed form is the trapezoid's
    # O(h^2) bias, which the Richardson estimate in the note sizes
    (row,) = mc_suite(repl(base_params, beta=0.0, t0=t0, m0=m0), 64, 0)
    assert row.name == "mc_g_rel_gap" and row.passed
    assert "se=0.00e+00" in row.point
    assert f", spread = 0, rel_gap = {row.value:.3e}, trapezoid_bias = " in row.note
    bias = float(row.note.rsplit(" = ", 1)[1])
    assert row.tolerance == pytest.approx(2.0 * bias + 1e-9, rel=1e-3)
    if m0 != 0.0:  # measured: the gap is the estimated bias to 4 digits
        assert abs(row.value - bias) <= 1e-3 * bias


def test_mc_suite_zero_spread_fails_a_wrong_closed_form(base_params, monkeypatch):
    import ricsolver.verify as verify

    class Off:
        """ExactSolver with g one part in 1e6 too large."""

        def __init__(self, params):
            self.solver = ExactSolver(params)

        def g(self, t, m):
            gb = self.solver.g(t, m)
            return dataclasses.replace(gb, g=gb.g * (1 + 1e-6))

    monkeypatch.setattr(verify, "ExactSolver", Off)
    (row,) = mc_suite(repl(base_params, beta=0.0), 64, 0)
    assert row.name == "mc_g_rel_gap" and not row.passed
    assert row.value > 9e-7 and row.tolerance < 2e-9


def test_import_leaves_scipy_unloaded():
    # scipy.linalg is imported inside fd_solve_g, and the strategy table is
    # plain numpy, so importing the package pulls in no scipy module
    code = ("import sys, ricsolver; "
            "bad = sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'); "
            "assert not bad, bad")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


def test_mc_replay_identical(base_params):
    a = mc_g(base_params, 0.5, 0.0, n_paths=2_000, dt=1e-3, seed=9)
    b = mc_g(base_params, 0.5, 0.0, n_paths=2_000, dt=1e-3, seed=9)
    assert a == b


def test_mc_zero_span_is_terminal_value(base_params):
    est, se = mc_feynman_kac(
        base_params, 0.7, 0.3, 0.7, n_paths=100, dt=1e-3, seed=0
    )
    assert est == 1.0
    assert se == 0.0


def test_mc_degenerate_factor_has_zero_se(base_params):
    # beta = 0: every path is the deterministic decay, so se must vanish
    params = repl(base_params, beta=0.0)
    est, se = mc_feynman_kac(
        params, 0.5, 0.4, 1.0, n_paths=64, dt=1e-3, seed=1
    )
    assert se == 0.0
    assert math.isfinite(est)


def _fk_paths_reference(params, t, m, s, n_paths, dt, seed, collect_running):
    """The Feynman-Kac engine written plainly, one new array per step."""
    eco = exact_coeffs(params)
    n_steps, h = _fk_steps(s - t, dt)
    if n_steps == 0:
        return np.zeros(n_paths), (np.zeros(n_paths) if collect_running else None)
    decay, shift, sd = _ou_step(eco.lag.h2_0, eco.base.kappa, params.market.beta, h)
    rng = np.random.Generator(np.random.Philox(seed))
    mv = np.full(n_paths, float(m))
    I = np.zeros(n_paths)
    S = np.zeros(n_paths) if collect_running else None
    h1_prev = eco.lag.H1(mv)
    exp_prev = np.ones(n_paths)
    for _ in range(n_steps):
        z = rng.standard_normal(n_paths)
        mv = decay * mv + shift + sd * z
        h1_new = eco.lag.H1(mv)
        I = I + 0.5 * h * (h1_prev + h1_new)
        h1_prev = h1_new
        if collect_running:
            e = np.exp(I)
            S = S + 0.5 * h * (exp_prev + e)
            exp_prev = e
    return I, S


@pytest.mark.parametrize("collect_running", [False, True])
@pytest.mark.parametrize("beta, t, s", [(0.25, 0.5, 1.0), (0.0, 0.5, 1.0), (0.25, 0.7, 0.7)],
                         ids=["default", "beta0", "zero-span"])
def test_fk_paths_in_place_matches_plain_loop(base_params, collect_running, beta, t, s):
    params = repl(base_params, beta=beta)
    for seed in (3, 5, 9):
        args = (params, t, 0.4, s, 2_000, 1e-3, seed, collect_running)
        I, S = _fk_paths(*args)
        I_ref, S_ref = _fk_paths_reference(*args)
        assert np.all(I == I_ref)
        assert (S is None and S_ref is None) or np.all(S == S_ref)


def test_fk_paths_refuses_a_nan_step(base_params):
    # a NaN step is refused by the guard, not by rounding a NaN step count
    with pytest.raises(ValueError, match="dt = nan must be positive"):
        _fk_paths(base_params, 0.5, 0.0, 1.0, 4, math.nan, 0, True)


class _Draws:
    """Stands in for np.random.Generator: fill(out) writes each normal block
    and records the thread that drew it."""

    def __init__(self, fill):
        self.fill, self.threads = fill, []

    def __call__(self, bit_generator):
        return self

    def standard_normal(self, out):
        self.threads.append(threading.current_thread())
        self.fill(out)


@pytest.mark.parametrize("collect_running", [False, True])
def test_fk_paths_draws_on_a_worker_joined_on_return(base_params, monkeypatch, collect_running):
    args = (base_params, 0.5, 0.4, 1.0, 2_000, 1e-3, 5, collect_running)
    want = _fk_paths(*args)
    real = np.random.Generator(np.random.Philox(5))
    draws = _Draws(lambda out: real.standard_normal(out=out))
    monkeypatch.setattr(np.random, "Generator", draws)
    before = threading.active_count()
    got = _fk_paths(*args)
    assert threading.active_count() == before
    assert len(draws.threads) == -(-500 // _chunk_steps((2_000,), 500))  # 500 steps
    assert all(th is not threading.current_thread() for th in draws.threads)
    for a, b in zip(got, want):
        assert (a is None and b is None) or np.array_equal(a, b)


@pytest.mark.parametrize("collect_running", [False, True])
def test_fk_paths_joins_worker_when_a_step_raises(base_params, monkeypatch, collect_running):
    # normals of 1e300 overflow mv * b0 * mv in the caller's step arithmetic
    monkeypatch.setattr(np.random, "Generator", _Draws(lambda out: out.fill(1e300)))
    before = threading.active_count()
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        _fk_paths(base_params, 0.5, 0.4, 1.0, 2_000, 1e-3, 5, collect_running)
    assert threading.active_count() == before


@pytest.mark.parametrize("collect_running", [False, True])
def test_fk_paths_raises_the_draws_exception(base_params, monkeypatch, collect_running):
    n = [0]

    def fill(out):
        n[0] += 1
        if n[0] == 3:
            raise RuntimeError("draw 3 failed")
        out.fill(0.0)

    monkeypatch.setattr(np.random, "Generator", _Draws(fill))
    before = threading.active_count()
    caught = []

    def call():
        try:
            _fk_paths(base_params, 0.5, 0.4, 1.0, 2_000, 1e-3, 5, collect_running)
        except RuntimeError as exc:
            caught.append(exc)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=60.0)  # a hang fails here instead of stalling the suite
    assert not caller.is_alive(), "the draw's exception left the caller waiting"
    assert [str(e) for e in caught] == ["draw 3 failed"]
    assert threading.active_count() == before


# ---------------------------------------------------------------- #
# drift/discount assembly

def test_drift_discount_from_params(base_params):
    fk = exact_coeffs(base_params).lag
    co = derive_coeffs(base_params)
    # H2 is affine with slope -kappa; H1 is quadratic with leading -b0
    assert fk.H2(1.0) - fk.H2(0.0) == pytest.approx(-co.kappa, rel=1e-12)
    lead = 0.5 * (fk.H1(1.0) + fk.H1(-1.0)) - fk.H1(0.0)
    assert lead == pytest.approx(-co.b0, rel=1e-12)
