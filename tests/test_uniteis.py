import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import ricsolver.exact as exact_mod
from ricsolver import (
    CsSolver,
    ExactSolver,
    InadmissibleParameter,
    QuadratureBudgetExceeded,
    UnitEisSolver,
    cs_reduction,
    exact_coeffs,
    glh_rhs,
    glh_state,
    steady_state_w,
    unit_coeffs,
)
from ricsolver.uniteis import coeff_H

# structural constants at the default calibration, frozen by hand
G0 = 0.10546875
G1 = -0.546875
G2 = 9.955
G3 = 0.05
H2_0 = 0.015625
H1_SRC = -0.025
P0 = 0.04768665830893208

# closed-form state at t = 0.5, frozen against drift
GLH_AT_HALF = (-0.004986699541, -0.004601631623, 0.023225633819)


def rk4_glh(co, t, n=4000, rhs=glh_rhs):
    """Backward RK4 from the terminal condition (0, 0, 0) at T down to t."""
    h = (co.params.horizon.T - t) / n
    y = np.zeros(3)
    for _ in range(n):
        def f(z):
            return np.array(rhs(z[0], z[1], z[2], co))

        k1 = f(y)
        k2 = f(y - 0.5 * h * k1)
        k3 = f(y - 0.5 * h * k2)
        k4 = f(y - h * k3)
        y = y - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return tuple(y)


def test_structural_constants(base_params):
    red = unit_coeffs(base_params)
    assert red.G0 == pytest.approx(G0, rel=1e-14)
    assert red.G1 == pytest.approx(G1, rel=1e-14)
    assert red.G2 == pytest.approx(G2, rel=1e-14)
    assert red.G3 == pytest.approx(G3, rel=1e-14)
    assert red.h2_0 == pytest.approx(H2_0, rel=1e-14)
    assert red.h1_src == pytest.approx(H1_SRC, rel=1e-14)
    assert red.p0 == pytest.approx(P0, rel=1e-13)


def test_glh_matches_backward_rk4(base_params):
    red = unit_coeffs(base_params)
    for t in (0.0, 0.5, 0.9):
        ode = rk4_glh(red, t)
        closed = glh_state(t, red)
        for got, ref in zip(closed, ode):
            assert got == pytest.approx(ref, abs=5e-11)


def test_glh_frozen_at_half(base_params):
    red = unit_coeffs(base_params)
    G, L, H = glh_state(0.5, red)
    assert G == pytest.approx(GLH_AT_HALF[0], abs=1e-10)
    assert L == pytest.approx(GLH_AT_HALF[1], abs=1e-10)
    assert H == pytest.approx(GLH_AT_HALF[2], abs=1e-10)


def test_glh_satisfies_own_ode(base_params):
    # central difference in t against the stated right-hand sides
    red = unit_coeffs(base_params)
    eps = 1e-5
    for t in (0.3, 0.6, 0.85):
        up = np.array(glh_state(t + eps, red))
        dn = np.array(glh_state(t - eps, red))
        fd = (up - dn) / (2.0 * eps)
        rhs = np.array(glh_rhs(*glh_state(t, red), red))
        assert np.max(np.abs(fd - rhs)) < 1e-6


def test_quadratic_noise_term_is_load_bearing(base_params):
    # dropping the G0 L^2 correction from the H source must move H far
    # beyond quadrature error; this pins the reading of the H equation
    red = unit_coeffs(base_params)
    # G1 derives from G0, so the G0 = 0 variant is read for the H source
    # only: G and L stay the true reduction's
    variant = dataclasses.replace(red, G0=0.0)

    def rhs_without_term(G, L, H, co):
        dG, dL, _ = glh_rhs(G, L, H, co)
        return dG, dL, glh_rhs(G, L, H, variant)[2]

    H_true = glh_state(0.5, red)[2]
    H_var = rk4_glh(red, 0.5, rhs=rhs_without_term)[2]
    true_err = abs(rk4_glh(red, 0.5)[2] - H_true)
    assert true_err < 1e-10
    # the shift is ~6e-7 here (L stays small at this calibration) but is
    # still three orders above the integration error of the true system
    assert abs(H_var - H_true) > 500.0 * max(true_err, 1e-12)
    assert abs(H_var - H_true) > 1e-7


def test_terminal_g_is_one(base_params):
    solver = UnitEisSolver(base_params)
    T = base_params.horizon.T
    for m in (-1.5, 0.0, 2.0):
        assert solver.g(T, m).g == pytest.approx(1.0, rel=1e-12)


def test_strategy_frozen(base_params):
    sp = UnitEisSolver(base_params).strategy(0.5, 1.0, 0.0)
    assert sp.pi_over_x == pytest.approx(0.6321900494106666, rel=1e-12)
    assert sp.q_over_x == pytest.approx(0.08, rel=1e-14)
    assert sp.c_over_x == pytest.approx(0.08, rel=1e-14)
    assert sp.xi1 == pytest.approx(0.09884959209429335, rel=1e-12)
    assert sp.xi2 == pytest.approx(0.003985129884225733, rel=1e-10)
    assert sp.xi3 == pytest.approx(0.07155417527999328, rel=1e-14)


def test_unit_consumption_is_impatience_rate(base_params):
    # with unit EIS the consumption-wealth ratio is delta at every state
    solver = UnitEisSolver(base_params)
    delta = base_params.preference.delta
    for t, m in [(0.5, -1.0), (0.7, 0.0), (0.95, 1.4)]:
        assert solver.strategy(t, 1.0, m).c_over_x == pytest.approx(
            delta, rel=1e-14
        )


def test_value_log_form(base_params):
    # v = x^(1-gamma) g / (1-gamma): negative for gamma > 1, scaling in x
    solver = UnitEisSolver(base_params)
    v1 = solver.value(0.5, 1.0, 0.2)
    v2 = solver.value(0.5, 2.0, 0.2)
    assert v1 < 0.0
    assert v2 == pytest.approx(v1 * 2.0 ** (1.0 - 1.2), rel=1e-12)


def test_gamma_one_rejected(base_params):
    bad = dataclasses.replace(
        base_params,
        preference=dataclasses.replace(base_params.preference, gamma=1.0),
    )
    with pytest.raises(InadmissibleParameter, match="gamma = 1"):
        UnitEisSolver(bad)


def test_zero_sigma_rejected(base_params):
    # the loadings divide by sigma
    bad = dataclasses.replace(
        base_params, market=dataclasses.replace(base_params.market, sigma=0.0)
    )
    with pytest.raises(InadmissibleParameter, match="sigma = 0"):
        UnitEisSolver(bad)


def test_g_m_consistency(base_params):
    solver = UnitEisSolver(base_params)
    t, m = 0.5, 0.7
    gv = solver.g(t, m)
    eps = 1e-6
    fd = (solver.g(t, m + eps).g - solver.g(t, m - eps).g) / (2.0 * eps)
    assert gv.g_m == pytest.approx(fd, rel=1e-7)
    # exp-quadratic structure: g_m / g = 2 G m + L
    G, L, _ = glh_state(t, unit_coeffs(base_params))
    assert gv.g_m / gv.g == pytest.approx(2.0 * G * m + L, rel=1e-12)


def test_exact_mode_converges_to_unit_eis(base_params):
    # Phi = 0.8, rho1 = -0.5 put derived phi = 1 at gamma* = 0.2.  At
    # gamma* + eps the exact and cs modes' gaps to the unit-EIS solution at
    # gamma* fall linearly in 1 - phi (about 2.7, 0.195 and 1.41 times 1 - phi
    # for pi/x, c/x and v), so each tenfold cut of eps cuts them about
    # tenfold, down to eps = 1e-5, ten times the unit-EIS band of derived phi.
    def at(gamma):
        return dataclasses.replace(
            base_params,
            market=dataclasses.replace(base_params.market, rho1=-0.5),
            preference=dataclasses.replace(base_params.preference, Phi=0.8, gamma=gamma),
        )

    point = (0.5, 1.0, 0.3)
    unit = UnitEisSolver(at(0.2))
    su, vu = unit.strategy(*point), unit.value(*point)
    for solver in (ExactSolver, CsSolver):
        gaps = []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
            ex = solver(at(0.2 + eps))
            s, v = ex.strategy(*point), ex.value(*point)
            gaps.append(np.array([abs(s.pi_over_x - su.pi_over_x),
                                  abs(s.c_over_x - su.c_over_x), abs(v - vu)]))
        for coarse, fine in zip(gaps, gaps[1:]):
            assert np.all(fine * 6.0 <= coarse), (solver.__name__, coarse, fine)


# ---------------------------------------------------------------- #
# the H table

def _with(params, T=None, beta=None, delta=None):
    hz, mk, pf = params.horizon, params.market, params.preference
    return dataclasses.replace(
        params,
        horizon=hz if T is None else dataclasses.replace(hz, t0=0.0, T=T),
        market=mk if beta is None else dataclasses.replace(mk, beta=beta),
        preference=pf if delta is None else dataclasses.replace(pf, delta=delta),
    )


def _reduction(params, mode):
    if mode == "unit":
        return unit_coeffs(params)
    return cs_reduction(steady_state_w(params), exact_coeffs(params))


_TABLE_CASES = [(T, beta, None) for T in (1.0, 10.0, 50.0, 200.0)
                for beta in (0.0, 1e-6, 0.25)] + [(12.0, None, 60.0)]


@pytest.mark.parametrize("mode", ["unit", "cs"])
@pytest.mark.parametrize("T, beta, delta", _TABLE_CASES)
def test_h_table_matches_dop853(base_params, mode, T, beta, delta):
    # delta = 60 with T = 12 puts disc T past 700, where the weight
    # e^{disc tau} of the integrating-factor form would overflow.  The step
    # cap keeps DOP853's dense output, which t_eval reads, near its step
    # accuracy: without it the oracle itself is up to 1.2e-12 off at T = 10.
    co = _reduction(_with(base_params, T=T, beta=beta, delta=delta), mode)
    ts = T * np.array([0.0, 0.01, 0.1, 0.37, 0.5, 0.9, 0.999])
    sol = solve_ivp(
        lambda t, y: np.asarray(glh_rhs(*y, co)), (T, 0.0), [0.0, 0.0, 0.0],
        method="DOP853", rtol=1e-13, atol=1e-16, t_eval=ts[::-1], max_step=T / 1000.0,
    )
    assert sol.success
    for t, H_ref in zip(ts[::-1], sol.y[2]):
        H = glh_state(float(t), co)[2]
        assert abs(H - H_ref) <= 1e-12 * max(1.0, abs(H_ref)), (t, H, H_ref)


@pytest.mark.parametrize("T", [1.0, 10.0, 200.0])
def test_h_table_reads_zero_at_terminal_time(base_params, T):
    params = _with(base_params, T=T)
    for co in (_reduction(params, "unit"), _reduction(params, "cs")):
        assert abs(glh_state(T, co)[2]) <= 1e-15
        assert 0.0 <= co.h_table.tail <= exact_mod._TABLE_TAIL_TOL
        assert co.h_table.span == T


def test_h_table_built_once_per_coeffs(base_params, monkeypatch):
    builds = []
    build = exact_mod._build_h_table

    def counting(co):
        builds.append(co)
        return build(co)

    monkeypatch.setattr(exact_mod, "_build_h_table", counting)
    unit = UnitEisSolver(base_params)
    cs = CsSolver(base_params, w=0.1)
    rng = np.random.default_rng(5)
    points = list(zip(rng.uniform(0.5, 1.0, 6), rng.uniform(0.5, 2.0, 6), rng.uniform(-2, 2, 6)))
    for point in points:
        unit.strategy(*point)
    assert builds == []  # the unit-EIS strategy reads G and L only
    for point in points:
        for solver in (unit, cs):
            solver.strategy(*point)
            solver.value(*point)
            solver.value_derivs(*point)
    assert builds == [unit.coeffs, cs.coeffs]


def test_glh_state_runs_no_quadrature(base_params, quadrature_calls):
    steady_state_w(base_params)
    for co in (unit_coeffs(base_params), cs_reduction(0.3, exact_coeffs(base_params))):
        for t in (0.5, 0.77, 1.0):
            glh_state(t, co)
    assert quadrature_calls == []
    coeff_H(0.5, unit_coeffs(base_params))  # the pointwise reference still integrates
    assert len(quadrature_calls) == 1


def test_h_table_budget_and_domain(base_params, monkeypatch):
    co = unit_coeffs(_with(base_params, T=10.0))
    with pytest.raises(InadmissibleParameter, match="before 0"):
        glh_state(-1e-3, co)
    monkeypatch.setattr(exact_mod, "_TABLE_MAX_NODES", 32)  # T = 10 needs 64
    with pytest.raises(QuadratureBudgetExceeded):
        glh_state(0.0, co)
