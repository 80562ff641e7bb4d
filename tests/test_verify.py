import dataclasses
import math
import os
import subprocess
import sys

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
    h_eval,
    hjbi_bracket,
    hjbi_saddle_check,
    mc_feynman_kac,
    mc_g,
    pde_residual,
)

from ricsolver.verify import MC_DT, _ou_step

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
    h10 = co.h1_0
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
        r = pde_residual(lambda t, m: solver.g(t, m).g, "g1", grid, params)
        assert r < 1e-4


def test_pde_residual_unit(base_params):
    grid = Grid2D(n_t=10, n_m=10, m_max=2.0)
    solver = UnitEisSolver(base_params)
    r = pde_residual(lambda t, m: solver.g(t, m).g, "unit", grid, base_params)
    assert r < 1e-4


def test_pde_residual_cs(loglin_params):
    grid = Grid2D(n_t=10, n_m=10, m_max=2.0)
    solver = CsSolver(loglin_params)
    r = pde_residual(
        lambda t, m: solver.g(t, m).g, "cs", grid, loglin_params, w=solver.w
    )
    assert r < 1e-4


def test_pde_residual_negative_control(base_params):
    # the unit-mode g pushed through the non-unit equation must fail loudly
    grid = Grid2D(n_t=10, n_m=10, m_max=2.0)
    solver = UnitEisSolver(base_params)
    r = pde_residual(lambda t, m: solver.g(t, m).g, "g1", grid, base_params)
    assert r > 1e-2


def test_abc_ode_residual_small(base_params):
    for t, s in [(0.1, 0.9), (0.5, 1.0), (0.8, 0.85)]:
        assert abc_ode_residual(base_params, t, s) < 1e-4


def test_abc_bounds_margin_nonnegative(base_params):
    for t, s in [(0.0, 1.0), (0.3, 0.7), (0.9, 1.0)]:
        assert abc_bounds_margin(base_params, t, s) >= -1e-12


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
    ref = h_eval(0.5, 0.0, base_params.horizon.T, co)
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


# ---------------------------------------------------------------- #
# drift/discount assembly

def test_drift_discount_from_params(base_params):
    fk = exact_coeffs(base_params)
    co = derive_coeffs(base_params)
    # H2 is affine with slope -kappa; H1 is quadratic with leading -b0
    assert fk.H2(1.0) - fk.H2(0.0) == pytest.approx(-co.kappa, rel=1e-12)
    lead = 0.5 * (fk.H1(1.0) + fk.H1(-1.0)) - fk.H1(0.0)
    assert lead == pytest.approx(-co.b0, rel=1e-12)
