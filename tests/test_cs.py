import dataclasses
import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import ricsolver.cs
from ricsolver import (
    CsSolver,
    ExactSolver,
    FixedPointDivergence,
    InadmissibleParameter,
    KernelOutOfRange,
    ModelParams,
    NonpositiveWealth,
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
from ricsolver.verify import _BOUNDS_BOX

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
    red = cs_reduction(w, exact_coeffs(params))
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
    red = cs_reduction(W_STAR, exact_coeffs(loglin_params))
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
    with pytest.raises(InadmissibleParameter):
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
    # a NaN in G at t0 must stop the root with the typed error, not hang or
    # come back as w = nan
    def nan_g(tau, red):
        return math.nan

    monkeypatch.setattr(ricsolver.cs, "_lag_G", nan_g)
    with pytest.raises(FixedPointDivergence, match="residual is nan"):
        steady_state_w(loglin_params)


def test_root_diagnostics(loglin_params):
    w = CsSolver(loglin_params).w
    assert 2 <= w.evaluations <= 30
    assert 0.0 <= w.bracket <= 1e-13
    pinned = CsSolver(loglin_params, w=0.2).w
    assert (pinned.evaluations, pinned.bracket) == (0, 0.0)


def test_solver_keeps_the_roots_reduction(monkeypatch):
    # the root's last evaluation is at the returned w, so CsSolver builds
    # one ExactCoeffs and one H table per root evaluation, none of its own
    import ricsolver.exact

    ecos, builds = [], []
    exact, build = ricsolver.cs.exact_coeffs, ricsolver.exact._build_h_table
    monkeypatch.setattr(ricsolver.cs, "exact_coeffs", lambda p: ecos.append(p) or exact(p))
    monkeypatch.setattr(ricsolver.exact, "_build_h_table",
                        lambda co: builds.append(co) or build(co))
    solver = CsSolver(ModelParams())
    assert len(ecos) == 1
    assert solver.w.evaluations == len(builds) == 10
    assert builds[-1] is solver.coeffs and solver.coeffs.disc == solver.w
    solver.strategy(0.5, 1.0, 0.0)
    assert len(builds) == 10


def _root_sets():
    """The default set, then three draws from the bounds suite's box, the
    last at T = 10 (its H tables take 64 nodes)."""
    rng = np.random.default_rng(28)
    blocks, names, low, high = zip(*_BOUNDS_BOX)
    sets = [ModelParams()]
    for i in range(3):
        fields = {"horizon": {"T": 10.0}} if i == 2 else {}
        for block, name, value in zip(blocks, names, rng.uniform(low, high).tolist()):
            fields.setdefault(block, {})[name] = value
        sets.append(dataclasses.replace(ModelParams(), **{
            b: dataclasses.replace(getattr(ModelParams(), b), **f) for b, f in fields.items()}))
    return sets


# (repr(w), evaluations, repr(bracket), H table nodes, sha256 prefix of the
# little-endian H table rows) of the root at each of _root_sets(), frozen
# from the root that read (G, L, H) at t0 through glh_state and built each
# table with per-call constants; reading only G and H must keep every bit.
_ROOT_FROZEN = [
    ("0.547664827939458", 10, "0.0", 32, "b0828a38962c56c0"),
    ("0.3172329147473702", 8, "0.0", 32, "eb7adc7fe5316a30"),
    ("0.9212327660276642", 11, "1.2961853812498703e-14", 32, "a4d46528cd971b79"),
    ("0.12099243724656365", 9, "0.0", 64, "31b20800efa247d3"),
]


def test_root_bit_identical():
    for params, frozen in zip(_root_sets(), _ROOT_FROZEN):
        w = steady_state_w(params)
        table = w.reduction.h_table
        digest = hashlib.sha256(table.rows.astype("<f8").tobytes()).hexdigest()[:16]
        assert (repr(float(w)), w.evaluations, repr(w.bracket), table.nodes, digest) == frozen


def test_root_reads_no_L_at_t0(monkeypatch):
    # L enters the root only through the H tables' samples at their nodes
    import ricsolver.exact

    shapes, linear = [], ricsolver.exact.riccati_linear_zero_ic
    monkeypatch.setattr(ricsolver.exact, "riccati_linear_zero_ic",
                        lambda tau, *args: shapes.append(np.shape(tau)) or linear(tau, *args))
    for params in _root_sets():
        w = steady_state_w(params)
        assert w.evaluations >= 8
    assert shapes and set(shapes) <= {(32,), (64,)}


def test_pinned_level_must_be_finite_and_positive():
    for w in (math.inf, -math.inf, math.nan, 0.0, -0.2):
        with pytest.raises(InadmissibleParameter, match="positive and finite"):
            CsSolver(ModelParams(), w=w)


def test_overflowing_level_stops_the_table_by_name(monkeypatch):
    # w = 1e308 is finite, but its reduction's closed forms are not: the H
    # table stops at its first 32 nodes, with no warning and no doubling
    import ricsolver.exact

    samples, build = [], ricsolver.exact._lag_nodes
    monkeypatch.setattr(ricsolver.exact, "_lag_nodes",
                        lambda span, n: samples.append(n) or build(span, n))
    solver = CsSolver(ModelParams(), w=1e308)
    with pytest.raises(KernelOutOfRange, match=r"H table on \[0, 1.0\]: not finite at 32 nodes"):
        solver.g(0.5, 0.0)
    assert samples == [32]


# StrategyPoints of the cs and unit-EIS rules at the default calibration
# (cs pinned at w = 0.1), frozen at full precision from the implementation
# that recomputed H (cs) or computed an unused H (unit EIS); reusing H and
# dropping the unused one must leave every bit in place.  The cs xi2 at
# (0.5, 1, 0) is frozen from the closed-form L(0.5) = -0.020069752763339686,
# which a 40-digit ODE solution (-0.0200697527633396851) confirms.  The cs
# entries were re-frozen when k and phi came from one factor D (k moved by
# one ulp to the correctly rounded 8/35); each is within 2.2e-16 of a
# 40-digit mpmath solution of the (G, L, H) ODEs with 40-digit constants.
_CS_FROZEN = {
    (0.5, 1.0, 0.0): StrategyPoint(
        pi=0.6321677688440498, q=0.08, c=0.6458075409837902, xi1=0.09885315698495203,
        xi2=0.003972780740737167, xi3=0.07155417527999328, pi_over_x=0.6321677688440498,
        q_over_x=0.08, c_over_x=0.6458075409837902),
    (0.73, 2.5, -1.4): StrategyPoint(
        pi=-7.22413124659235, q=0.2, c=1.7358396052984766, xi1=-0.4576556002180893,
        xi2=-0.008121239071045014, xi3=0.07155417527999328, pi_over_x=-2.88965249863694,
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
# every bit in place.  value equals the v field at each point.  The exact
# entries are frozen from the g kernel that samples its lag functions in
# closed form: v_t, v_m, v_mm and v_xm moved by at most 3.0e-15 relative from
# the kernel that read them off a lag table, and every field is within
# 2.1e-15 of a DOP853 solution (rtol 2.5e-14) of the (A, B, C) ODEs with the
# four g integrals (3.7e-15 before).  The exact and cs entries were
# re-frozen when k and phi came from one factor D: each field moved by at
# most 4.0e-16 and is within 9.2e-16 of a 40-digit mpmath solution (the
# (A, B, C) or (G, L, H) ODEs and the g integrals, 40-digit constants).
_VALUE_FROZEN = {
    ("exact", (0.5, 1.0, 0.0)): ValueDerivs(
        v=-5.342028980244358, v_t=0.6058926858273143, v_x=1.0684057960488713,
        v_xx=-1.2820869552586456, v_m=0.022775709958445082, v_mm=0.050727988744173454,
        v_xm=-0.004555141991689016),
    ("exact", (0.73, 2.5, -1.4)): ValueDerivs(
        v=-4.308569953765397, v_t=0.5672246015045918, v_x=0.34468559630123163,
        v_xx=-0.16544908622459115, v_m=-0.03889738257850699, v_mm=0.03816523907125325,
        v_xm=0.003111790606280558),
    ("unit_eis", (0.5, 1.0, 0.0)): ValueDerivs(
        v=-5.117487245672011, v_t=0.23257921956440777, v_x=1.023497449134402,
        v_xx=-1.2281969389612823, v_m=0.02354879113909662, v_mm=0.05093037973818948,
        v_xm=-0.004709758227819323),
    ("unit_eis", (0.73, 2.5, -1.4)): ValueDerivs(
        v=-4.199135326068103, v_t=0.2047986188987848, v_x=0.33593082608544816,
        v_xx=-0.1612467965210151, v_m=-0.03943365079231593, v_mm=0.03893406472294531,
        v_xm=0.0031546920633852733),
    ("cs", (0.5, 1.0, 0.0)): ValueDerivs(
        v=-5.140847503076252, v_t=0.27813376895063496, v_x=1.02816950061525,
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


@pytest.mark.parametrize("mode, out_of_reach", [("exact", 100.0), ("unit_eis", 1e3), ("cs", 1e3)])
def test_grid_calls_match_pointwise_calls(base_params, mode, out_of_reach):
    # every surface method evaluates on the grid t x m, t0 and T included,
    # and each grid entry is the pointwise call's within 1e-14 (of g for the
    # g fields, of max(1, |field|) for the rest); measured at most 4.3e-16
    solver = {"exact": ExactSolver, "unit_eis": UnitEisSolver, "cs": CsSolver}[mode](base_params)
    ts = np.linspace(base_params.horizon.t0, base_params.horizon.T, 5)
    ms = np.linspace(-2.0, 2.0, 9)
    x = 1.3
    grid = {"g": solver.g(ts, ms), "strategy": solver.strategy(ts, x, ms),
            "value_derivs": solver.value_derivs(ts, x, ms)}
    values = solver.value(ts, x, ms)
    assert values.shape == grid["g"].g.shape == grid["strategy"].pi.shape == (5, 9)
    for i, t in enumerate(ts):
        for j, m in enumerate(ms):
            gb = solver.g(float(t), float(m))
            point = {"g": gb, "strategy": solver.strategy(float(t), x, float(m)),
                     "value_derivs": solver.value_derivs(float(t), x, float(m))}
            value = solver.value(float(t), x, float(m))
            assert type(value) is float
            assert abs(values[i, j] - value) <= 1e-14 * abs(value), (t, m)
            for name, obj in point.items():
                for field in dataclasses.fields(obj):
                    got = np.broadcast_to(getattr(grid[name], field.name), (5, 9))[i, j]
                    want = getattr(obj, field.name)
                    assert type(want) is float, (name, field.name)
                    scale = gb.g if name == "g" else max(1.0, abs(want))
                    assert abs(got - want) <= 1e-14 * scale, (name, field.name, t, m)
    for bad in (0.0, math.nan):
        wealth = np.full(9, x)
        wealth[4] = bad
        for method in (solver.strategy, solver.value, solver.value_derivs):
            with pytest.raises(NonpositiveWealth):
                method(ts, wealth, ms)
    with pytest.raises(KernelOutOfRange):
        solver.g(ts, np.append(ms, out_of_reach))
