import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

import ricsolver.exact as exact_mod
from ricsolver import (
    CsSolver,
    ExactSolver,
    InadmissibleParameter,
    ModelParams,
    NonpositiveWealth,
    QuadratureBudgetExceeded,
    TabulatedStrategy,
    UnitEisSolver,
    abc_bounds_margin,
    abc_ode_residual,
    abc_rhs,
    coeff_A,
    coeff_B,
    coeff_C,
    exact_coeffs,
    simulate_factor,
    unit_coeffs,
)
from ricsolver.exact import g_bundle
from ricsolver.uniteis import coeff_G, coeff_H, coeff_L, glh_state
from ricsolver.verify import _BOUNDS_BOX, SUITES

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


# panel edges in the lag, growing geometrically from 0 where the transients
# of A and B sit, up to the longest horizon tested
_EDGES = (0.0, 0.25, 1.0, 4.0, 16.0, 64.0)


def _A_oracle(co, tau, n=24):
    """A at the lags tau, independent of the g kernel: h1_0 tau plus the
    n-node Gauss-Legendre integral of dA/dtau over closed-form B and C on
    the panels _EDGES clipped to [0, tau]."""
    tau = np.asarray(tau, dtype=float)[..., None]
    x, w = np.polynomial.legendre.leggauss(n)
    A = co.lag.p0 * tau[..., 0]
    for lo, hi in zip(_EDGES, _EDGES[1:]):
        lo, hi = np.minimum(lo, tau), np.minimum(hi, tau)
        u = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
        rate = exact_mod._dA_dtau(coeff_B(0.0, u, co), coeff_C(0.0, u, co), co)
        A = A + 0.5 * (hi - lo)[..., 0] * (rate @ w)
    return A


def test_g_matches_trapezoid_oracle(base_params):
    # g(t, m) = delta^phi * int_t^T h(t, m, s) ds + h(t, m, T), rebuilt here
    # from h = exp(A - B m - C m^2) on a fine s-mesh, with A from _A_oracle
    co = exact_coeffs(base_params)
    dp = base_params.preference.delta ** co.base.phi
    T = base_params.horizon.T
    for t, m in [(0.5, 0.0), (0.5, -1.0), (0.8, 0.5), (0.99, 2.0)]:
        ss = np.linspace(t, T, 4001)
        hs = np.exp(_A_oracle(co, ss - t) - coeff_B(t, ss, co) * m - coeff_C(t, ss, co) * m * m)
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


@pytest.mark.parametrize("mode", [ExactSolver, UnitEisSolver, CsSolver],
                         ids=["exact", "unit_eis", "cs"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_factor_rejected(base_params, monkeypatch, mode, bad):
    # refused by name before any kernel work: the exact kernel used to double
    # to 1024 nodes on a NaN and the exponential-quadratic strategy returned NaN
    solver = mode(base_params)
    monkeypatch.setattr(exact_mod, "_g_rows", None)  # a kernel read would fail otherwise
    for m in (bad, np.array([0.3, bad, -0.2])):
        for call in (lambda: solver.g(0.6, m), lambda: solver.strategy(0.6, 1.0, m),
                     lambda: solver.value(0.6, 1.0, m)):
            with pytest.raises(InadmissibleParameter, match=r"^m = .* is not finite"):
                call()


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

def _with_horizon(params, t0, T):
    return dataclasses.replace(params, horizon=dataclasses.replace(params.horizon, t0=t0, T=T))


def _oracle_bundle(co, t, ms, n=24):
    """(g, g_m, g_mm, g_t) for each m from the pointwise coefficients.

    h = exp(A - B m - C m^2) with A from _A_oracle and B, C from coeff_B /
    coeff_C, integrated over s in [t, T] by n-node Gauss-Legendre on the
    panels t + _EDGES.  g_m and g_mm differentiate h in m;
    g_t comes from the reduced equation
    g_t + beta^2 g_mm / 2 + H2 g_m + H1 g + delta^phi = 0.
    """
    T = co.params.horizon.T
    edges = np.unique(np.clip(t + np.array(_EDGES), t, T))
    x, w = np.polynomial.legendre.leggauss(n)
    panels = list(zip(edges, edges[1:]))
    s = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * x for a, b in panels] + [[T]])
    ws = np.concatenate([0.5 * (b - a) * w for a, b in panels] + [np.empty(0)])
    A = _A_oracle(co, s - t)
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
        H1 = co.lag.p0 + co.lag.h1_src * m - co.base.b0 * m * m
        H2 = co.lag.h2_0 - co.base.kappa * m
        g_t = -(0.5 * co.params.market.beta**2 * g_mm + H2 * g_m + H1 * g + co.delta_phi)
        rows.append((g, g_m, g_mm, g_t))
    return np.array(rows)


def _fields(gb):
    """The rows g, g_m, g_mm, g_t of a bundle, stacked on a leading axis."""
    return np.array([gb.g, gb.g_m, gb.g_mm, gb.g_t])


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


@pytest.mark.parametrize("T", [1.0, 10.0, 50.0])
def test_coeff_A_reads_the_kernel_series(base_params, T):
    # coeff_A is the A that g uses: at the kernel's own nodes it is within
    # 1e-15 max(1, |A|) of the kernel's values (measured 1.9e-16 at T = 50)
    co = exact_coeffs(_with_horizon(base_params, 0.0, T))
    coeff_A(0.0, 0.5 * T, co)
    kernel = co._lag_kernels[64]  # built by that call: coeff_A reads the kernel
    A_kernel = kernel.poly[0][0]
    A = coeff_A(0.0, exact_mod._lag_nodes(T, kernel.nodes), co)
    assert np.all(np.abs(A - A_kernel) <= 1e-15 * np.maximum(1.0, np.abs(A_kernel)))
    # exactly 0 at lag 0, for a scalar and for arrays of any size
    assert coeff_A(0.3, 0.3, co) == 0.0
    for size in (1, 2, 7, 50, 333):
        t = np.linspace(0.0, T, size)
        assert np.all(coeff_A(t, t, co) == 0.0)
    for t, s in ((0.0, 1.001 * T), (0.5, 0.4), (math.nan, 0.5)):
        with pytest.raises(InadmissibleParameter):
            coeff_A(t, s, co)


def test_kernel_coefficients_are_the_zero_discount_reduction():
    # Sets drawn from the bounds suite's box, a third of them with gamma < 1,
    # some with beta = 0 or 1e-6, at T = 1, 5, 10 and 50.  B and C are -L and
    # -G of the exponential-quadratic reduction co.lag bit for bit, and A,
    # read from the g kernel's series, is within 2e-14 max(1, |A|) of H from
    # its collocated table: measured at most 1.07e-14, at T = 50 and
    # gamma = 0.23, where both series have 256 nodes and each is within
    # 2.5e-14 of a 1024-node kernel.  Every lag in [0, T] is s - t at s = T.
    rng = np.random.default_rng(24)
    blocks, names, low, high = zip(*_BOUNDS_BOX)
    for i in range(80):
        fields = {"horizon": {"t0": 0.0, "T": (1.0, 5.0, 10.0, 50.0)[i % 4]}}
        for block, name, value in zip(blocks, names, rng.uniform(low, high).tolist()):
            fields.setdefault(block, {})[name] = value
        if i % 3 == 1:
            fields["preference"]["gamma"] = rng.uniform(0.1, 0.95)
        if i % 5 == 2:
            fields["market"]["beta"] = (0.0, 1e-6)[i % 2]
        params = dataclasses.replace(ModelParams(), **{
            b: dataclasses.replace(getattr(ModelParams(), b), **f) for b, f in fields.items()})
        co, T = exact_coeffs(params), params.horizon.T
        t = np.append(rng.uniform(0.0, T, 40), [0.0, T])
        assert np.all(coeff_B(t, T, co) == -coeff_L(t, co.lag))
        assert np.all(coeff_C(t, T, co) == -coeff_G(t, co.lag))
        A, H = coeff_A(t, T, co), glh_state(t, co.lag)[2]
        assert np.all(np.abs(A - H) <= 2e-14 * np.maximum(1.0, np.abs(A))), (i, np.abs(A - H).max())


def test_lag_kernel_built_once_per_node_count(base_params, monkeypatch):
    builds, reads = [], []
    build, coefficients = exact_mod._build_lag_kernel, exact_mod.LagKernel.coefficients

    def counting_build(co, n):
        builds.append((co, n))
        return build(co, n)

    def counting_read(kernel, m):
        reads.append(kernel.nodes)
        return coefficients(kernel, m)

    monkeypatch.setattr(exact_mod, "_build_lag_kernel", counting_build)
    monkeypatch.setattr(exact_mod.LagKernel, "coefficients", counting_read)
    solver = ExactSolver(base_params)
    simulate_factor(base_params, measure="FK_tilde", dt=0.01, n_paths=2)
    assert builds == []  # nothing that stops short of g pays for a kernel
    rng = np.random.default_rng(3)
    for t, m in zip(rng.uniform(0.5, 1.0, 8), rng.uniform(-2.0, 2.0, 8)):
        solver.strategy(t, 1.0, m)
        solver.value_derivs(t, 1.3, m)
        g_bundle(t, m, solver.coeffs)
    assert builds == [(solver.coeffs, 64)]
    assert reads == [64] * 24
    # T = 10: the lag functions have not converged at 64 nodes, so the one
    # build asked for 64 nodes doubles to the 128-node kernel, kept under both
    builds.clear()
    reads.clear()
    co = exact_coeffs(_with_horizon(base_params, 0.0, 10.0))
    for t, m in zip(rng.uniform(0.0, 10.0, 8), rng.uniform(-4.0, 4.0, 8)):
        g_bundle(t, m, co)
        g_bundle(t, np.array([m, -m]), co)
    assert builds == [(co, 64)]
    assert reads == [128] * 16
    assert co.lag_kernel(64) is co.lag_kernel(128)


@pytest.mark.parametrize("T", [1.0, 10.0, 50.0])
def test_lag_kernel_tail_estimate(base_params, T):
    co = exact_coeffs(_with_horizon(base_params, 0.0, T))
    g_bundle(0.0, 0.0, co)
    kernel = co.lag_kernel(64)  # where every g starts
    assert 0.0 <= kernel.series.tail <= exact_mod._TABLE_TAIL_TOL
    assert kernel.nodes == {1.0: 64, 10.0: 128, 50.0: 256}[T]


def test_lag_kernel_budget_and_domain(base_params, monkeypatch):
    co = exact_coeffs(_with_horizon(base_params, 0.0, 10.0))
    with pytest.raises(InadmissibleParameter, match="before 0"):
        g_bundle(-1e-3, 0.0, co)
    monkeypatch.setattr(exact_mod, "_TABLE_MAX_NODES", 64)  # T = 10 needs 128
    with pytest.raises(QuadratureBudgetExceeded, match="lag functions .* at 64 nodes"):
        g_bundle(0.0, 0.0, co)


@pytest.mark.parametrize("T", [1.0, 10.0])
def test_kernel_matches_oracle_at_random_points(base_params, T):
    # 200 random (t, m) with |m| <= 8: 20 random t, 10 random m at each;
    # every field within 1e-12 of g (measured at most 1.5e-14, g_t at T = 10)
    co = exact_coeffs(_with_horizon(base_params, 0.0, T))
    rng = np.random.default_rng(int(T))
    for t in rng.uniform(0.0, T, 20):
        ms = rng.uniform(-8.0, 8.0, 10)
        ref = _oracle_bundle(co, t, ms).T
        got = _fields(g_bundle(t, ms, co))
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref[0])), (t, ms, got, ref)


@pytest.mark.parametrize("T", [1.0, 10.0])
def test_kernel_rows_equal_pointwise_bundles(base_params, T):
    # each m is computed on its own, so a row of the batch is g_bundle there
    # bit for bit, whichever other m share the call and however many nodes
    # they need (64 or 128 at T = 1, 128 or 256 at T = 10)
    co = exact_coeffs(_with_horizon(base_params, 0.0, T))
    rng = np.random.default_rng(4)
    ms = np.concatenate([np.linspace(-8.0, 8.0, 33), rng.uniform(-8.0, 8.0, 20), [-20.0, 16.0]])
    for t in np.concatenate([[0.0, T], rng.uniform(0.0, T, 4)]):
        rows = _fields(g_bundle(t, ms, co))
        for m, row in zip(ms, rows.T):
            gb = g_bundle(t, m, co)
            assert (gb.g, gb.g_m, gb.g_mm, gb.g_t) == tuple(row), (t, m)
        sub = rng.permutation(ms.size)[:7]
        assert np.array_equal(_fields(g_bundle(t, ms[sub], co)), rows[:, sub])


def test_exact_g_runs_no_quadrature(base_params, quadrature_calls):
    solver = ExactSolver(_with_horizon(base_params, 0.0, 10.0))
    rng = np.random.default_rng(6)
    for t, m in zip(rng.uniform(0.0, 10.0, 8), rng.uniform(-4.0, 4.0, 8)):
        solver.g(t, m)
        solver.value(t, 1.2, m)
        solver.strategy(t, 0.8, m)
    TabulatedStrategy.from_exact(base_params, n_t=9, n_m=11)
    # nor do the coefficient checks, which read A from the kernel's series,
    # or any verify suite
    t, s = np.array([0.0, 0.2, 0.5]), np.array([1.0, 0.9, 0.6])
    coeff_A(t, s, solver.coeffs)
    abc_ode_residual(base_params, t, s)
    abc_bounds_margin(base_params, t, s)
    for suite in SUITES.values():
        suite(base_params, SimpleNamespace(seed=0, samples=2, n_paths=100))
    assert quadrature_calls == []
    coeff_H(0.5, unit_coeffs(base_params))  # the pointwise reference for H still integrates
    assert len(quadrature_calls) == 1


def test_kernel_budget(base_params, monkeypatch):
    co = exact_coeffs(_with_horizon(base_params, 0.0, 1.0))
    # |m| = 1000 puts h's peak at tau = 0 between the first nodes: every
    # sample is ~0 and the series converges to the wrong function, which
    # the h-hat(0) = 1 check refuses at every node count up to the cap
    with pytest.raises(QuadratureBudgetExceeded, match="at 1024 nodes"):
        g_bundle(0.5, 1e3, co)
    monkeypatch.setattr(exact_mod, "_TABLE_MAX_NODES", 128)  # |m| = 40 needs 256
    assert np.isfinite(g_bundle(0.5, 8.0, co).g)
    with pytest.raises(QuadratureBudgetExceeded, match="at 128 nodes"):
        g_bundle(0.5, np.array([0.0, 40.0]), co)
