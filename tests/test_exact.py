import dataclasses
import math

import numpy as np
import pytest

import ricsolver.exact as exact_mod
from ricsolver import (
    CsSolver,
    ExactSolver,
    NonpositiveWealth,
    QuadratureBudgetExceeded,
    QuadratureConfig,
    UnitEisSolver,
    abc_rhs,
    coeff_A,
    coeff_B,
    coeff_C,
    exact_coeffs,
    h_eval,
    simulate_factor,
)
from ricsolver.exact import g_bundle

# values recomputed by hand / by the oracles below and frozen
G_T0_M0 = 1.3357372266  # g(0.5, 0) at the default calibration
Q_OVER_X = 0.08         # theta1*mu1 / ((Phi+gamma)*mu2) = 0.2/2.5
XI3 = 0.07155417527999328


def rk4_abc(co, t, s, n=4000):
    """Integrate the (A, B, C) terminal-value system from s back to t."""
    h = (s - t) / n
    A = B = C = 0.0
    for i in range(n):
        # backward integration: step -h in time from s toward t
        def f(y):
            return np.array(abc_rhs(y[0], y[1], y[2], co))

        y = np.array([A, B, C])
        k1 = f(y)
        k2 = f(y - 0.5 * h * k1)
        k3 = f(y - 0.5 * h * k2)
        k4 = f(y - h * k3)
        y = y - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        A, B, C = y
    return A, B, C


def test_abc_closed_forms_match_rk4(base_params):
    co = exact_coeffs(base_params)
    for t, s in [(0.5, 1.0), (0.0, 1.0), (0.5, 0.7), (0.92, 0.95)]:
        A_ode, B_ode, C_ode = rk4_abc(co, t, s)
        assert coeff_A(t, s, co) == pytest.approx(A_ode, abs=5e-11)
        assert coeff_B(t, s, co) == pytest.approx(B_ode, abs=5e-11)
        assert coeff_C(t, s, co) == pytest.approx(C_ode, abs=5e-11)


def test_abc_terminal_values(base_params):
    co = exact_coeffs(base_params)
    assert coeff_A(0.7, 0.7, co) == 0.0
    assert coeff_B(0.7, 0.7, co) == 0.0
    assert coeff_C(0.7, 0.7, co) == 0.0


def test_h_is_exponential_quadratic(base_params):
    co = exact_coeffs(base_params)
    t, s = 0.5, 0.9
    A, B, C = coeff_A(t, s, co), coeff_B(t, s, co), coeff_C(t, s, co)
    for m in (-1.5, 0.0, 0.8):
        assert h_eval(t, m, s, co) == pytest.approx(
            math.exp(A - B * m - C * m * m), rel=1e-14
        )


def test_g_matches_trapezoid_oracle(base_params):
    # g(t, m) = delta^phi * int_t^T h(t, m, s) ds + h(t, m, T), rebuilt here
    # from independent h evaluations on a fine s-mesh
    co = exact_coeffs(base_params)
    dp = base_params.preference.delta ** co.base.phi
    T = base_params.horizon.T
    for t, m in [(0.5, 0.0), (0.5, -1.0), (0.8, 0.5), (0.99, 2.0)]:
        ss = np.linspace(t, T, 4001)
        hs = np.array([h_eval(t, m, s, co) for s in ss])
        ref = dp * np.trapezoid(hs, ss) + hs[-1]
        gv = g_bundle(t, m, co)
        assert gv.g == pytest.approx(ref, rel=1e-8)


def test_g_m_matches_central_difference(base_params):
    co = exact_coeffs(base_params)
    eps = 1e-6
    for t, m in [(0.5, 0.0), (0.7, -0.8)]:
        gv = g_bundle(t, m, co)
        fd = (g_bundle(t, m + eps, co).g - g_bundle(t, m - eps, co).g) / (2.0 * eps)
        assert gv.g_m == pytest.approx(fd, rel=1e-7, abs=1e-10)


def test_g_frozen_value(base_params):
    gv = g_bundle(0.5, 0.0, exact_coeffs(base_params))
    assert gv.g == pytest.approx(G_T0_M0, rel=1e-9)


def test_g_terminal_condition(base_params):
    co = exact_coeffs(base_params)
    T = base_params.horizon.T
    for m in (-2.0, 0.0, 1.3):
        assert g_bundle(T, m, co).g == pytest.approx(1.0, rel=1e-14)


def test_g_bundle_consistency(base_params):
    # g_t from the bundle must match a central difference of g in t
    solver = ExactSolver(base_params)
    t, m = 0.6, -0.4
    gb = solver.g(t, m)
    eps = 1e-5
    fd_t = (solver.g(t + eps, m).g - solver.g(t - eps, m).g) / (2.0 * eps)
    fd_mm = (
        solver.g(t, m + 1e-4).g - 2.0 * gb.g + solver.g(t, m - 1e-4).g
    ) / 1e-8
    assert gb.g_t == pytest.approx(fd_t, rel=1e-6)
    assert gb.g_mm == pytest.approx(fd_mm, rel=1e-4)


def test_value_sign_and_scaling(base_params):
    # gamma > 1: v < 0, and v scales like x^(1-gamma)
    solver = ExactSolver(base_params)
    v1 = solver.value(0.5, 1.0, 0.0)
    v2 = solver.value(0.5, 2.0, 0.0)
    assert v1 < 0.0
    assert v2 == pytest.approx(v1 * 2.0 ** (1.0 - 1.2), rel=1e-12)


@pytest.mark.parametrize("method", ["value", "value_derivs", "strategy"])
@pytest.mark.parametrize("mode", [ExactSolver, UnitEisSolver, CsSolver],
                         ids=["exact", "unit_eis", "cs"])
def test_nonpositive_wealth_rejected(base_params, mode, method):
    solver = mode(base_params)
    for x in (0.0, -1.0):
        with pytest.raises(NonpositiveWealth):
            getattr(solver, method)(0.5, x, 0.0)


def test_retention_ratio_closed_form(base_params):
    # q*/x is m- and t-free: theta1 mu1 / ((Phi + gamma) mu2)
    solver = ExactSolver(base_params)
    for t, m in [(0.5, 0.0), (0.75, -1.2), (0.99, 2.0)]:
        sp = solver.strategy(t, 1.0, m)
        assert sp.q_over_x == Q_OVER_X
    ins, pf = base_params.insurance, base_params.preference
    assert sp.q_over_x == ins.theta1 * ins.mu1 / ((pf.Phi + pf.gamma) * ins.mu2)


def test_distortions_frozen(base_params):
    sp = ExactSolver(base_params).strategy(0.5, 1.0, 0.0)
    assert sp.xi3 == pytest.approx(XI3, rel=1e-14)
    assert sp.xi1 > 0.0  # positive price of risk at m = 0 (a > r)


def test_no_ambiguity_zeroes_distortions(loglin_params):
    # Phi = 0 turns the worst-case distortion off identically
    solver = ExactSolver(loglin_params)
    for t, m in [(0.5, 0.0), (0.7, 1.1), (0.95, -0.6)]:
        sp = solver.strategy(t, 1.0, m)
        assert sp.xi1 == 0.0
        assert sp.xi2 == 0.0
        assert sp.xi3 == 0.0


def test_loglin_point_values(loglin_params):
    # frozen from the same code path, guarded here against drift
    solver = ExactSolver(loglin_params)
    gv = solver.g(0.5, 0.0)
    assert gv.g == pytest.approx(1.0472064224068143, rel=1e-12)
    assert gv.g_m / gv.g == pytest.approx(-0.0018559795230483603, rel=1e-10)
    sp = solver.strategy(0.5, 1.0, 0.0)
    assert sp.pi_over_x == pytest.approx(0.06033288592817532, rel=1e-12)


def test_strategy_amounts_scale_with_wealth(base_params):
    solver = ExactSolver(base_params)
    s1 = solver.strategy(0.5, 1.0, 0.3)
    s3 = solver.strategy(0.5, 3.0, 0.3)
    assert s3.pi == pytest.approx(3.0 * s1.pi, rel=1e-12)
    assert s3.c == pytest.approx(3.0 * s1.c, rel=1e-12)
    assert s3.pi_over_x == pytest.approx(s1.pi_over_x, rel=1e-12)
    # distortions are per-unit-noise quantities, not wealth amounts
    assert s3.xi1 == pytest.approx(s1.xi1, rel=1e-12)


# ---------------------------------------------------------------- #
# lag-table kernel

_TIGHT = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-14, max_subdivisions=2000)


def _with_horizon(params, t0, T):
    return dataclasses.replace(params, horizon=dataclasses.replace(params.horizon, t0=t0, T=T))


def _oracle_bundle(co, t, ms, n=24):
    """(g, g_m, g_mm, g_t) for each m from the pointwise coefficients.

    h = exp(A - B m - C m^2) with A, B, C from coeff_A / coeff_B / coeff_C
    at tight tolerances (what h_eval evaluates), integrated over s in [t, T]
    by n-node Gauss-Legendre on panels growing geometrically from s = t,
    where the transients of A and B sit.  g_m and g_mm differentiate h in m;
    g_t comes from the reduced equation
    g_t + beta^2 g_mm / 2 + H2 g_m + H1 g + delta^phi = 0.
    """
    T = co.T
    edges = np.unique(np.clip(t + np.array([0.0, 0.25, 1.0, 4.0, 16.0, 64.0]), t, T))
    x, w = np.polynomial.legendre.leggauss(n)
    panels = list(zip(edges, edges[1:]))
    s = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * x for a, b in panels] + [[T]])
    ws = np.concatenate([0.5 * (b - a) * w for a, b in panels] + [np.empty(0)])
    A = np.array([coeff_A(t, si, co, _TIGHT) for si in s])
    B = np.array([coeff_B(t, si, co) for si in s])
    C = np.array([coeff_C(t, si, co) for si in s])
    rows = []
    for m in ms:
        h = np.exp(A - B * m - C * m * m)
        lin = B + 2.0 * C * m
        g, g_m, g_mm = (
            co.delta_phi * (ws @ col[:-1]) + col[-1]
            for col in (h, -h * lin, h * (lin * lin - 2.0 * C))
        )
        H1 = co.h1_0 + co.h1_1 * m - co.base.b0 * m * m
        H2 = co.h2_0 - co.base.kappa * m
        g_t = -(0.5 * co.beta**2 * g_mm + H2 * g_m + H1 * g + co.delta_phi)
        rows.append((g, g_m, g_mm, g_t))
    return np.array(rows)


@pytest.mark.parametrize("t0, T", [(0.5, 1.0), (0.0, 10.0), (0.0, 50.0)])
def test_kernel_bundle_matches_pointwise_oracle(base_params, t0, T):
    # every field within 1e-12 of g; measured at most 5.2e-14 (g_t at T = 50)
    co = exact_coeffs(_with_horizon(base_params, t0, T))
    ms = (-4.0, -1.3, 0.0, 2.2, 4.0)
    for t in (t0, t0 + 0.37 * (T - t0), T):
        ref = _oracle_bundle(co, t, ms)
        for m, row in zip(ms, ref):
            gb = exact_mod.g_bundle(t, m, co)
            got = np.array([gb.g, gb.g_m, gb.g_mm, gb.g_t])
            assert np.all(np.abs(got - row) <= 1e-12 * abs(row[0])), (t, m, got, row)


def test_lag_table_built_once_per_coeffs(base_params, monkeypatch):
    builds = []
    build = exact_mod._build_lag_table

    def counting(co):
        builds.append(co)
        return build(co)

    monkeypatch.setattr(exact_mod, "_build_lag_table", counting)
    solver = ExactSolver(base_params)
    simulate_factor(base_params, measure="FK_tilde", dt=0.01, n_paths=2)
    assert builds == []  # nothing that stops short of g pays for the table
    rng = np.random.default_rng(3)
    for t, m in zip(rng.uniform(0.5, 1.0, 8), rng.uniform(-2.0, 2.0, 8)):
        solver.strategy(t, 1.0, m)
        solver.value_derivs(t, 1.3, m)
        g_bundle(t, m, solver.coeffs)
    assert builds == [solver.coeffs]


@pytest.mark.parametrize("T", [1.0, 10.0, 50.0])
def test_lag_table_tail_estimate(base_params, T):
    table = exact_coeffs(_with_horizon(base_params, 0.0, T)).lag_table
    assert 0.0 <= table.tail <= exact_mod._TABLE_TAIL_TOL
    assert table.span == T


def test_lag_table_budget_and_domain(base_params, monkeypatch):
    co = exact_coeffs(_with_horizon(base_params, 0.0, 10.0))
    with pytest.raises(ValueError, match="before 0"):
        g_bundle(-1e-3, 0.0, co)
    monkeypatch.setattr(exact_mod, "_TABLE_MAX_NODES", 32)  # T = 10 needs 64
    with pytest.raises(QuadratureBudgetExceeded):
        g_bundle(0.0, 0.0, co)
