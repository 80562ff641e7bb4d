import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import ricsolver.cs
from ricsolver import (
    CsSolver,
    ExactSolver,
    FixedPointDivergence,
    ModelParams,
    StrategyPoint,
    UnitEisSolver,
    ValueDerivs,
    cs_reduction,
    exact_coeffs,
    glh_rhs,
    steady_state_w,
    unit_coeffs,
)
from ricsolver.uniteis import unit_strategy

# root of the level equation at the comparison calibration (gamma=1.3,
# alpha=7, Phi=0, sigma=0.8), frozen from _level_residual's own root
W_STAR = 0.1560169727613442


def _replace(params, group, **kw):
    return dataclasses.replace(params, **{group: dataclasses.replace(getattr(params, group), **kw)})


def _level_residual(params, w):
    """ln w - (phi ln delta - G s^2 - H) at t0, s^2 = beta^2/(2 alpha).

    (G, L, H) come from DOP853 on glh_rhs, integrated from T back to t0, so
    neither the closed forms nor the quadrature in H enter.
    """
    red = cs_reduction(w, params)
    hz, mk, pf = params.horizon, params.market, params.preference
    sol = solve_ivp(
        lambda t, y: np.asarray(glh_rhs(*y, red)), (hz.T, hz.t0), [0.0, 0.0, 0.0],
        method="DOP853", rtol=1e-13, atol=1e-16,
    )
    assert sol.success
    G, _, H = sol.y[:, -1]
    phi = exact_coeffs(params).base.phi
    return math.log(w) - (phi * math.log(pf.delta) - G * mk.beta**2 / (2.0 * mk.alpha) - H)


def test_fixed_point_frozen(loglin_params):
    assert steady_state_w(loglin_params) == pytest.approx(W_STAR, rel=1e-10)


def test_steady_state_solves_level_equation(loglin_params):
    # sigma x gamma around the comparison calibration, and delta = 60, where
    # the root sits far from ln delta (w = 7.25)
    cases = [loglin_params, _replace(ModelParams(), "preference", delta=60.0)]
    for sigma in (0.25, 0.8):
        for gamma in (0.5, 3.0):
            cases.append(_replace(_replace(loglin_params, "market", sigma=sigma),
                                  "preference", gamma=gamma))
    for params in cases:
        w = steady_state_w(params)
        assert abs(_level_residual(params, w)) <= 1e-12, (params, w)


def test_fixed_point_is_self_consistent(loglin_params):
    # w must reproduce itself through one more outer iteration
    w = steady_state_w(loglin_params)
    solver = CsSolver(loglin_params, w=w)
    t0 = loglin_params.horizon.t0
    c_ratio = solver.strategy(t0, 1.0, 0.0).c_over_x
    assert abs(c_ratio - w) < 1e-3  # the linearization gap, not roundoff


def test_solver_accepts_numeric_w(loglin_params):
    solver = CsSolver(loglin_params, w=0.2)
    assert solver.w == 0.2


def test_consumption_ratio_frozen(loglin_params):
    solver = CsSolver(loglin_params)
    assert solver.strategy(0.5, 1.0, 0.0).c_over_x == pytest.approx(
        0.156011606362584, rel=1e-10
    )


def test_retention_identical_to_exact(loglin_params):
    # the retained-fraction rule does not pass through the linearization,
    # so both modes must agree to the last bit
    cs = CsSolver(loglin_params).strategy(0.5, 1.0, 0.3)
    ex = ExactSolver(loglin_params).strategy(0.5, 1.0, 0.3)
    assert cs.q_over_x == ex.q_over_x


def test_investment_close_to_exact(loglin_params):
    # the two rules differ only through the linearization of the
    # consumption feedback; at this calibration the gap is ~5e-8
    cs = CsSolver(loglin_params).strategy(0.5, 1.0, 0.0)
    ex = ExactSolver(loglin_params).strategy(0.5, 1.0, 0.0)
    gap = abs(cs.pi_over_x - ex.pi_over_x)
    assert gap < 1e-6
    assert gap > 0.0


def test_reduction_discount_is_w(loglin_params):
    red = cs_reduction(W_STAR, loglin_params)
    assert red.disc == pytest.approx(W_STAR, rel=1e-14)


def test_terminal_g_is_one(loglin_params):
    solver = CsSolver(loglin_params)
    T = loglin_params.horizon.T
    for m in (-1.0, 0.0, 1.5):
        assert solver.g(T, m).g == pytest.approx(1.0, rel=1e-12)


def test_g_frozen(loglin_params):
    # k and phi at this calibration, then the g value they imply
    from ricsolver import derive_k_phi

    k, phi = derive_k_phi(1.3, 0.0, -0.5)
    assert k == pytest.approx(1.0612244897959184, rel=1e-14)
    assert phi == pytest.approx(0.7173076923076923, rel=1e-14)


def test_beyond_horizon_rejected(loglin_params):
    solver = CsSolver(loglin_params)
    with pytest.raises(ValueError):
        solver.g(1.5, 0.0)


def test_fixed_point_diverges_gracefully():
    # absurd impatience makes the consumption map run away; the failure,
    # if any, must be the typed one, not a hang or a NaN
    base = ModelParams()
    bad = dataclasses.replace(
        base,
        preference=dataclasses.replace(base.preference, delta=60.0),
    )
    try:
        w = steady_state_w(bad)
        assert math.isfinite(w)  # converging anyway is also acceptable
    except FixedPointDivergence:
        pass


def test_nonfinite_residual_is_typed(loglin_params, monkeypatch):
    # a NaN in H must stop the root with the typed error, not hang or
    # come back as w = nan
    def nan_h(t, red):
        return 0.0, 0.0, math.nan

    monkeypatch.setattr(ricsolver.cs, "glh_state", nan_h)
    with pytest.raises(FixedPointDivergence, match="residual is nan"):
        steady_state_w(loglin_params)


def test_root_diagnostics(loglin_params):
    w = CsSolver(loglin_params).w
    assert 2 <= w.evaluations <= 30
    assert 0.0 <= w.bracket <= 1e-13
    pinned = CsSolver(loglin_params, w=0.2).w
    assert (pinned.evaluations, pinned.bracket) == (0, 0.0)


# StrategyPoints of the cs and unit-EIS rules at the default calibration
# (cs pinned at w = 0.1), frozen at full precision from the implementation
# that recomputed H (cs) or computed an unused H (unit EIS); reusing H and
# dropping the unused one must leave every bit in place.  The cs xi2 at
# (0.5, 1, 0) is frozen from the closed-form L(0.5) = -0.020069752763339686,
# which a 40-digit ODE solution (-0.0200697527633396851) confirms.
_CS_FROZEN = {
    (0.5, 1.0, 0.0): StrategyPoint(
        pi=0.6321677688440498, q=0.08, c=0.6458075409837901, xi1=0.09885315698495203,
        xi2=0.003972780740737167, xi3=0.07155417527999328, pi_over_x=0.6321677688440498,
        q_over_x=0.08, c_over_x=0.6458075409837901),
    (0.73, 2.5, -1.4): StrategyPoint(
        pi=-7.22413124659235, q=0.2, c=1.7358396052984766, xi1=-0.4576556002180893,
        xi2=-0.008121239071045012, xi3=0.07155417527999328, pi_over_x=-2.88965249863694,
        q_over_x=0.08, c_over_x=0.6943358421193906),
}
_UNIT_FROZEN = {
    (0.5, 1.0, 0.0): StrategyPoint(
        pi=0.6321900494106666, q=0.08, c=0.08, xi1=0.09884959209429335,
        xi2=0.003985129884225733, xi3=0.07155417527999328, pi_over_x=0.6321900494106666,
        q_over_x=0.08, c_over_x=0.08),
    (0.73, 2.5, -1.4): StrategyPoint(
        pi=-7.224183194621333, q=0.2, c=0.2, xi1=-0.4576522755442344,
        xi2=-0.008132756079115726, xi3=0.07155417527999328, pi_over_x=-2.8896732778485332,
        q_over_x=0.08, c_over_x=0.08),
}


def test_strategies_bit_identical(base_params):
    cs = CsSolver(base_params, w=0.1)
    unit = unit_coeffs(base_params)
    for (t, x, m), sp in _CS_FROZEN.items():
        assert cs.strategy(t, x, m) == sp
    for (t, x, m), sp in _UNIT_FROZEN.items():
        assert unit_strategy(t, x, m, unit) == sp


# value and ValueDerivs of the three solvers at the _CS_FROZEN points (cs
# pinned at w = 0.1), frozen at full precision from the implementation in
# which every mode wrote its own value layer; sharing one layer must leave
# every bit in place.  value equals the v field at each point.
_VALUE_FROZEN = {
    ("exact", (0.5, 1.0, 0.0)): ValueDerivs(
        v=-5.342028980244358, v_t=0.6058926858273144, v_x=1.0684057960488713,
        v_xx=-1.2820869552586456, v_m=0.022775709958445033, v_mm=0.05072798874417347,
        v_xm=-0.004555141991689006),
    ("exact", (0.73, 2.5, -1.4)): ValueDerivs(
        v=-4.308569953765397, v_t=0.5672246015045921, v_x=0.34468559630123163,
        v_xx=-0.16544908622459115, v_m=-0.03889738257850704, v_mm=0.03816523907125326,
        v_xm=0.0031117906062805623),
    ("unit_eis", (0.5, 1.0, 0.0)): ValueDerivs(
        v=-5.117487245672011, v_t=0.23257921956440777, v_x=1.023497449134402,
        v_xx=-1.2281969389612823, v_m=0.02354879113909662, v_mm=0.05093037973818948,
        v_xm=-0.004709758227819323),
    ("unit_eis", (0.73, 2.5, -1.4)): ValueDerivs(
        v=-4.199135326068103, v_t=0.2047986188987848, v_x=0.33593082608544816,
        v_xx=-0.1612467965210151, v_m=-0.03943365079231593, v_mm=0.03893406472294531,
        v_xm=0.0031546920633852733),
    ("cs", (0.5, 1.0, 0.0)): ValueDerivs(
        v=-5.140847503076252, v_t=0.2781337689506351, v_x=1.02816950061525,
        v_xx=-1.2338034007383, v_m=0.02358298020131943, v_mm=0.05106431855912825,
        v_xm=-0.004716596040263884),
    ("cs", (0.73, 2.5, -1.4)): ValueDerivs(
        v=-4.209731362912989, v_t=0.24343967324274185, v_x=0.3367785090330391,
        v_xx=-0.16165368433585872, v_m=-0.03947717315646122, v_mm=0.03896983214994285,
        v_xm=0.0031581738525168976),
}


def test_values_bit_identical(base_params):
    solvers = {"exact": ExactSolver(base_params), "unit_eis": UnitEisSolver(base_params),
               "cs": CsSolver(base_params, w=0.1)}
    for (mode, (t, x, m)), d in _VALUE_FROZEN.items():
        assert solvers[mode].value(t, x, m) == d.v, mode
        assert solvers[mode].value_derivs(t, x, m) == d, mode
