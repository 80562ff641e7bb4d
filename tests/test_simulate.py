import dataclasses
import math
import threading

import numpy as np
import pytest
from scipy import stats

from ricsolver import (
    ExactSolver,
    NonpositiveWealth,
    TabulatedStrategy,
    empirical_condition_M,
    simulate_factor,
    simulate_surplus,
    simulate_wealth,
)
from ricsolver.exact import exact_coeffs
from ricsolver.simulate import _chunk_steps
from test_verify import _Draws


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
# factor

def test_factor_deterministic_decay(base_params):
    # beta = 0 reduces the factor to dm = -alpha m dt
    params = repl(base_params, beta=0.0)
    fp = simulate_factor(params, m0=0.7, dt=1e-4, seed=0, n_paths=3)
    tau = params.horizon.T - params.horizon.t0
    ref = 0.7 * math.exp(-params.market.alpha * tau)
    assert np.max(np.abs(fp.m[:, -1] - ref)) < 1e-4


def test_factor_terminal_moments(base_params):
    # Euler at dt = 5e-4 keeps the discretization bias inside the band
    mk = base_params.market
    fp = simulate_factor(base_params, m0=0.4, dt=5e-4, seed=7, n_paths=100_000)
    tau = base_params.horizon.T - base_params.horizon.t0
    mean_ref = 0.4 * math.exp(-mk.alpha * tau)
    var_ref = mk.beta**2 * (1.0 - math.exp(-2.0 * mk.alpha * tau)) / (2.0 * mk.alpha)
    term = fp.m[:, -1]
    se_mean = term.std(ddof=1) / math.sqrt(term.shape[0])
    assert abs(term.mean() - mean_ref) < 3.0 * se_mean
    var_est = term.var(ddof=1)
    se_var = var_est * math.sqrt(2.0 / (term.shape[0] - 1))
    assert abs(var_est - var_ref) < 3.0 * se_var


def test_factor_replay_and_metadata(base_params):
    a = simulate_factor(base_params, dt=1e-3, seed=11, n_paths=16)
    b = simulate_factor(base_params, dt=1e-3, seed=11, n_paths=16)
    assert np.array_equal(a.m, b.m)
    assert (a.seed, a.dt, a.n_paths) == (11, 1e-3, 16)
    assert a.measure == "P"


def test_factor_zero_distortion_matches_reference_measure(base_params):
    zero = lambda t, m: (np.zeros_like(m), np.zeros_like(m), np.zeros_like(m))
    p = simulate_factor(base_params, dt=1e-3, seed=4, n_paths=8)
    q = simulate_factor(
        base_params, dt=1e-3, seed=4, n_paths=8,
        measure="Q_xi", distortion_fn=zero,
    )
    assert np.array_equal(p.m, q.m)


def test_factor_fk_measure_runs(base_params):
    fp = simulate_factor(base_params, dt=1e-3, seed=2, n_paths=4,
                         measure="FK_tilde")
    assert fp.measure == "FK_tilde"
    assert fp.m.shape[0] == 4
    assert np.all(np.isfinite(fp.m))


def test_factor_rejects_unknown_measure(base_params):
    with pytest.raises(ValueError):
        simulate_factor(base_params, measure="R", n_paths=2)


def test_factor_requires_distortion_under_q(base_params):
    with pytest.raises(ValueError):
        simulate_factor(base_params, measure="Q_xi", n_paths=2)


def test_simulations_refuse_a_nan_step(base_params):
    # a NaN step is refused by the guard, not by rounding a NaN step count
    for run in (lambda: simulate_factor(base_params, dt=math.nan, n_paths=2),
                lambda: simulate_wealth(base_params, 1.0, zero_strategy, dt=math.nan, n_paths=2),
                lambda: simulate_surplus(base_params, dt=math.nan, n_paths=2)):
        with pytest.raises(ValueError, match="dt = nan must be positive"):
            run()


# ---------------------------------------------------------------- #
# wealth

def zero_strategy(t, x, m):
    z = np.zeros_like(x)
    return z, z, z


def test_wealth_riskless_growth(base_params):
    wb = simulate_wealth(base_params, 2.0, zero_strategy, dt=1e-4, seed=0,
                         n_paths=2)
    tau = base_params.horizon.T - base_params.horizon.t0
    ref = 2.0 * math.exp(base_params.market.r * tau)
    assert np.max(np.abs(wb.x[:, -1] - ref)) < 1e-6
    assert wb.truncated_fraction == 0.0


def test_wealth_proportional_consumption(base_params):
    delta = base_params.preference.delta

    def prop_c(t, x, m):
        z = np.zeros_like(x)
        return z, z, delta * x

    wb = simulate_wealth(base_params, 2.0, prop_c, dt=1e-4, seed=0, n_paths=1)
    tau = base_params.horizon.T - base_params.horizon.t0
    ref = 2.0 * math.exp((base_params.market.r - delta) * tau)
    assert abs(wb.x[0, -1] - ref) < 1e-6


def test_wealth_rejects_nonpositive_start(base_params):
    with pytest.raises(NonpositiveWealth):
        simulate_wealth(base_params, 0.0, zero_strategy, n_paths=1)


def test_wealth_truncation_flags(base_params):
    # a constant cash drain forces ruin mid-horizon on every path
    def drain(t, x, m):
        z = np.zeros_like(x)
        return z, z, z + 10.0

    wb = simulate_wealth(base_params, 1.0, drain, dt=1e-3, seed=5, n_paths=32)
    assert wb.truncated_fraction == 1.0
    assert np.all(wb.truncated)
    t0 = base_params.horizon.t0
    assert np.all(wb.truncation_time > t0)
    assert np.all(wb.truncation_time < 0.7)  # ruin near t0 + 0.1
    assert np.all(wb.x[:, -1] == 0.0)  # frozen at the floor, flagged above
    assert np.all(wb.c_ratio[:, -1] == 0.0)  # no control on dead paths


def test_wealth_replay_and_metadata(base_params):
    tab = TabulatedStrategy.from_exact(base_params)
    a = simulate_wealth(base_params, 1.0, tab.strategy_fn, dt=2e-3, seed=13,
                        n_paths=24)
    b = simulate_wealth(base_params, 1.0, tab.strategy_fn, dt=2e-3, seed=13,
                        n_paths=24)
    assert np.array_equal(a.x, b.x)
    assert (a.seed, a.dt, a.n_paths) == (13, 2e-3, 24)


def test_wealth_no_ambiguity_measures_coincide(loglin_params):
    # Phi = 0: the worst-case distortion vanishes, so P and the distorted
    # measure generate identical paths from the same seed
    tab = TabulatedStrategy.from_exact(loglin_params)
    p = simulate_wealth(loglin_params, 1.0, tab.strategy_fn, dt=1e-3,
                        seed=13, n_paths=8)
    q = simulate_wealth(loglin_params, 1.0, tab.strategy_fn, dt=1e-3,
                        seed=13, n_paths=8, measure="Q_xi",
                        distortion_fn=tab.distortion_fn)
    assert np.array_equal(p.x, q.x)


def test_wealth_euler_bias_within_noise(base_params):
    # halving dt moves the terminal mean by less than the sampling noise,
    # so dt = 1e-3 is fine for the acceptance-level comparisons
    def ratios(t, x, m):
        return 0.5 * x, 0.08 * x, 0.08 * x

    a = simulate_wealth(base_params, 1.0, ratios, dt=2e-3, seed=17,
                        n_paths=30_000)
    b = simulate_wealth(base_params, 1.0, ratios, dt=1e-3, seed=18,
                        n_paths=30_000)
    ma, mb = a.x[:, -1].mean(), b.x[:, -1].mean()
    se = math.hypot(
        a.x[:, -1].std(ddof=1) / math.sqrt(30_000),
        b.x[:, -1].std(ddof=1) / math.sqrt(30_000),
    )
    assert abs(ma - mb) < 3.0 * se


# ---------------------------------------------------------------- #
# tabulated strategy

def test_tabulated_matches_pointwise_rule(base_params):
    tab = TabulatedStrategy.from_exact(base_params)
    solver = ExactSolver(base_params)
    rng = np.random.default_rng(21)
    t0, T = base_params.horizon.t0, base_params.horizon.T
    worst = 0.0
    for _ in range(30):
        t = rng.uniform(t0, T)
        m = rng.uniform(-2.0, 2.0)
        x = rng.uniform(0.5, 3.0)
        sp = solver.strategy(t, x, m)
        pi, q, c = tab.strategy_fn(t, np.array([x]), np.array([m]))
        for got, ref in ((pi[0], sp.pi), (q[0], sp.q), (c[0], sp.c)):
            worst = max(worst, abs(got - ref) / (1.0 + abs(ref)))
        xi1, xi2, xi3 = tab.distortion_fn(t, np.array([m]))
        worst = max(worst, abs(xi1[0] - sp.xi1) / (1.0 + abs(sp.xi1)))
        worst = max(worst, abs(xi2[0] - sp.xi2) / (1.0 + abs(sp.xi2)))
        worst = max(worst, abs(xi3[0] - sp.xi3) / (1.0 + abs(sp.xi3)))
    assert worst < 5e-4  # measured 1.5e-5 on the default node counts


def test_tabulated_exact_at_grid_nodes(base_params):
    # at the grid nodes the table holds the pointwise rule itself; only the
    # bilinear interpolation between nodes is approximate
    tab = TabulatedStrategy.from_exact(base_params, n_t=9, n_m=11)
    solver = ExactSolver(base_params)
    t_nodes = np.linspace(base_params.horizon.t0, base_params.horizon.T, 9)
    m_nodes = np.linspace(-4.0, 4.0, 11)
    for t in t_nodes[::2]:
        pi, _, c = tab.strategy_fn(t, np.ones(11), m_nodes)
        xi1, xi2, _ = tab.distortion_fn(t, m_nodes)
        for j, m in enumerate(m_nodes):
            sp = solver.strategy(t, 1.0, m)
            for got, ref in ((pi[j], sp.pi), (c[j], sp.c), (xi1[j], sp.xi1), (xi2[j], sp.xi2)):
                assert got == pytest.approx(ref, rel=1e-13, abs=1e-15)


def test_tabulated_lookup_matches_scipy_bilinear():
    from scipy.interpolate import RegularGridInterpolator

    rng = np.random.default_rng(23)
    t_nodes = np.linspace(0.5, 1.0, 7)
    m_nodes = np.linspace(-3.0, 3.0, 13)
    grids = [rng.normal(size=(7, 13)) for _ in range(4)]
    tab = TabulatedStrategy(t_nodes, m_nodes, grids[0], grids[1], 0.08,
                            grids[2], grids[3], -0.2)
    interp = [RegularGridInterpolator((t_nodes, m_nodes), g, method="linear",
                                      bounds_error=True) for g in grids]
    for t in np.concatenate([rng.uniform(0.3, 1.2, 40), t_nodes]):
        m = np.concatenate([rng.uniform(-4.5, 4.5, 50), m_nodes])
        x = rng.uniform(0.5, 3.0, m.size)
        pts = np.stack([np.full(m.shape, np.clip(t, 0.5, 1.0)),
                        np.clip(m, -3.0, 3.0)], axis=-1)
        pi, q, c = tab.strategy_fn(t, x, m)
        xi1, xi2, xi3 = tab.distortion_fn(t, m)
        for got, want in ((pi, interp[0](pts) * x), (c, interp[1](pts) * x),
                          (xi1, interp[2](pts)), (xi2, interp[3](pts))):
            assert np.max(np.abs(got - want)) <= 1e-14
        assert np.array_equal(q, 0.08 * x) and np.all(xi3 == -0.2)


def _counting_interp(tab):
    """Wrap tab's uncached cell lookup and return its call counter."""
    calls, interp = [0], tab._interp

    def spy(t, m):
        calls[0] += 1
        return interp(t, m)

    tab._interp = spy
    return calls


def test_tabulated_locates_cells_once_per_t_and_m(base_params):
    tab = TabulatedStrategy.from_exact(base_params)
    fresh = TabulatedStrategy.from_exact(base_params)
    calls = _counting_interp(tab)
    m = np.linspace(-2.0, 2.0, 9)
    x = np.full(9, 1.5)
    pi, q, c = tab.strategy_fn(0.7, x, m)
    xi = tab.distortion_fn(0.7, m.copy())  # equal contents, another array
    assert calls[0] == 1
    for got, want in zip((pi, q, c) + xi, fresh.strategy_fn(0.7, x, m) + fresh.distortion_fn(0.7, m)):
        assert np.array_equal(got, want)
    # the kept values refuse in-place writes, so a caller cannot corrupt them
    with pytest.raises(ValueError, match="read-only"):
        xi[0][0] = 99.0
    # a new t, or m written in place, is located afresh
    tab.distortion_fn(0.8, m)
    m[3] += 0.25
    xi_new = tab.distortion_fn(0.8, m)
    assert calls[0] == 3
    for got, want in zip(xi_new, fresh.distortion_fn(0.8, m)):
        assert np.array_equal(got, want)


def test_tabulated_memo_keeps_wealth_bits(base_params):
    # Q_xi wealth paths with the kept lookup equal those with none
    tab = TabulatedStrategy.from_exact(base_params)
    plain = TabulatedStrategy.from_exact(base_params)
    plain._lookup = lambda t, m: plain._interp(float(t), np.array(m, dtype=float))
    calls = _counting_interp(tab)
    runs = [simulate_wealth(base_params, 1.0, s.strategy_fn, measure="Q_xi",
                            distortion_fn=s.distortion_fn, dt=1e-2, seed=17, n_paths=200)
            for s in (tab, plain)]
    n_steps = runs[0].mesh.size - 1
    assert calls[0] == n_steps + 1  # one per step, not one per call
    for field in ("x", "m", "pi_ratio", "q_ratio", "c_ratio"):
        assert np.array_equal(getattr(runs[0], field), getattr(runs[1], field))


def test_tabulated_rejects_bad_nodes():
    grid = np.zeros((3, 3))
    args = (grid, grid, 0.1, grid, grid, 0.0)
    good = np.array([0.0, 0.5, 1.0])
    for t_nodes, m_nodes in ((np.full(3, 1.0), good), (good, good[::-1]),
                             (good, np.array([0.0, 0.0, 1.0]))):
        with pytest.raises(ValueError, match="strictly ascending"):
            TabulatedStrategy(t_nodes, m_nodes, *args)
    one = np.zeros((1, 3))
    with pytest.raises(ValueError, match="at least 2"):
        TabulatedStrategy([0.5], good, one, one, 0.1, one, one, 0.0)


def test_tabulated_clips_outside_box(base_params):
    tab = TabulatedStrategy.from_exact(base_params, m_max=2.0)
    inside = tab.strategy_fn(0.7, np.array([1.0]), np.array([2.0]))
    outside = tab.strategy_fn(0.7, np.array([1.0]), np.array([5.0]))
    assert outside[0][0] == pytest.approx(inside[0][0], rel=1e-12)


@pytest.mark.parametrize("simulate", [
    lambda p, n: simulate_factor(p, n_paths=n),
    lambda p, n: simulate_wealth(p, 1.0, zero_strategy, n_paths=n),
    lambda p, n: simulate_surplus(p, n_paths=n),
], ids=["factor", "wealth", "surplus"])
def test_simulators_reject_empty_batch(base_params, simulate):
    for n in (0, -3):
        with pytest.raises(ValueError, match="n_paths"):
            simulate(base_params, n)


# ---------------------------------------------------------------- #
# draw-ahead engines against serial loops of one draw per step

def _factor_reference(params, measure, distortion_fn, dt, seed, n_paths):
    """simulate_factor's paths at every step, one standard_normal call per step."""
    mk = params.market
    lo, T = params.horizon.t0, params.horizon.T
    n_steps = max(1, round((T - lo) / dt))
    h = (T - lo) / n_steps
    rho_c = math.sqrt(1.0 - mk.rho1**2)
    lag = exact_coeffs(params).lag
    rng = np.random.Generator(np.random.Philox(seed))
    m = np.full(n_paths, float(mk.m0))
    out = [m]
    sq = mk.beta * math.sqrt(h)
    for step in range(1, n_steps + 1):
        t = lo + (step - 1) * h
        if measure == "P":
            drift = -mk.alpha * m
        elif measure == "FK_tilde":
            drift = lag.H2(m)
        else:
            xi1, xi2, _ = distortion_fn(t, m)
            drift = -(mk.alpha * m + mk.beta * mk.rho1 * xi1 + mk.beta * rho_c * xi2)
        m = m + drift * h + sq * rng.standard_normal(n_paths)
        out.append(m)
    return np.stack(out, axis=1)


def _wealth_reference(params, strategy_fn, measure, distortion_fn, dt, seed, n_paths):
    """(m, x, pi/x, q/x, c/x, truncation_time) of simulate_wealth at every
    step, every path masked at every step, one standard_normal call per step."""
    mk, ins = params.market, params.insurance
    lo, T = params.horizon.t0, params.horizon.T
    n_steps = max(1, round((T - lo) / dt))
    h = (T - lo) / n_steps
    rho_c = math.sqrt(1.0 - mk.rho1**2)
    s_lm2 = math.sqrt(ins.lam * ins.mu2)
    rng = np.random.Generator(np.random.Philox(seed))
    m = np.full(n_paths, float(mk.m0))
    x = np.full(n_paths, 1.0)
    alive = np.ones(n_paths, dtype=bool)
    trunc = np.full(n_paths, math.nan)
    rows = []
    sqh = math.sqrt(h)
    for step in range(n_steps + 1):
        t = lo + step * h
        x_safe = np.where(alive, x, 1.0)
        pi, q, c = (np.where(alive, v, 0.0) for v in strategy_fn(t, x_safe, m))
        with np.errstate(divide="ignore", invalid="ignore"):
            rows.append([m, x] + [np.where(alive, v / x_safe, 0.0) for v in (pi, q, c)])
        if step == n_steps:
            break
        z = rng.standard_normal((3, n_paths))
        drift_x = mk.r * x + pi * (mk.sigma * m + mk.a - mk.r) + ins.lam * ins.theta1 * ins.mu1 * q - c
        drift_m = -mk.alpha * m
        if measure == "Q_xi":
            xi1, xi2, xi3 = distortion_fn(t, m)
            drift_x = drift_x - pi * mk.sigma * xi1 - q * s_lm2 * xi3
            drift_m = drift_m - mk.beta * mk.rho1 * xi1 - mk.beta * rho_c * xi2
        x_new = (x + drift_x * h + mk.sigma * pi * (sqh * z[0])
                 + s_lm2 * q * (sqh * z[2]))
        m = m + drift_m * h + mk.beta * (sqh * (mk.rho1 * z[0] + rho_c * z[1]))
        died = alive & (x_new <= 0.0)
        trunc[died] = t + h
        alive = alive & ~died
        x = np.where(alive, x_new, 0.0)
    return [np.stack(col, axis=1) for col in zip(*rows)] + [trunc]


@pytest.fixture(scope="module")
def table(base_params):
    return TabulatedStrategy.from_exact(base_params)


# 37 steps: with 1,000 or 7,000 paths the last chunk of normals is partly filled
_DT37 = 0.5 / 37


@pytest.mark.parametrize("n_paths", [1, 1000, 7000])
@pytest.mark.parametrize("measure", ["P", "FK_tilde", "Q_xi"])
def test_factor_matches_a_serial_loop(base_params, table, measure, n_paths):
    assert 37 % _chunk_steps((n_paths,), 37) != 0 or n_paths == 1
    got = simulate_factor(base_params, measure=measure, distortion_fn=table.distortion_fn,
                          dt=_DT37, seed=11, n_paths=n_paths)
    want = _factor_reference(base_params, measure, table.distortion_fn, _DT37, 11, n_paths)
    assert np.array_equal(got.m, want)


@pytest.mark.parametrize("leverage", [1.0, 15.0, 30.0])
@pytest.mark.parametrize("n_paths", [1, 1000, 7000])
@pytest.mark.parametrize("measure", ["P", "Q_xi"])
def test_wealth_matches_a_serial_loop(base_params, table, measure, n_paths, leverage):
    # leverage scales the tabulated amounts pi and q, so that paths die mid-run
    # and the step switches from the all-alive branch to the masked one
    def levered(t, x, m):
        pi, q, c = table.strategy_fn(t, x, m)
        return leverage * pi, leverage * q, c

    got = simulate_wealth(base_params, 1.0, levered, measure=measure,
                          distortion_fn=table.distortion_fn, dt=_DT37, seed=4, n_paths=n_paths)
    want = _wealth_reference(base_params, levered, measure, table.distortion_fn, _DT37, 4,
                             n_paths)
    for field, ref in zip(("m", "x", "pi_ratio", "q_ratio", "c_ratio"), want):
        assert np.array_equal(getattr(got, field), ref), field
    assert np.array_equal(got.truncation_time, want[-1], equal_nan=True)
    assert np.array_equal(got.truncated, ~np.isnan(want[-1]))
    dead = got.truncated
    if leverage > 1.0 and n_paths > 1:
        # some paths die, after the first step, and some survive
        assert 0 < dead.sum() < n_paths
        assert np.nanmax(got.truncation_time) > base_params.horizon.t0 + 2 * _DT37
    if leverage == 30.0:
        assert dead.any()
    assert np.all(got.x[dead, -1] == 0.0) and np.all(got.pi_ratio[dead, -1] == 0.0)


def _sim_calls(params, table):
    return {
        "factor-P": lambda: simulate_factor(params, seed=5, n_paths=300),
        "factor-FK": lambda: simulate_factor(params, measure="FK_tilde", seed=5, n_paths=300),
        "factor-Q": lambda: simulate_factor(params, measure="Q_xi",
                                            distortion_fn=table.distortion_fn, seed=5,
                                            n_paths=300),
        "wealth-P": lambda: simulate_wealth(params, 1.0, table.strategy_fn, seed=5,
                                            n_paths=300),
        "wealth-Q": lambda: simulate_wealth(params, 1.0, table.strategy_fn, measure="Q_xi",
                                            distortion_fn=table.distortion_fn, seed=5,
                                            n_paths=300),
    }


_SIMS = ["factor-P", "factor-FK", "factor-Q", "wealth-P", "wealth-Q"]


@pytest.mark.parametrize("which", _SIMS)
def test_simulators_draw_on_a_worker_joined_on_return(base_params, table, monkeypatch, which):
    call = _sim_calls(base_params, table)[which]
    want = call()
    real = np.random.Generator(np.random.Philox(5))
    draws = _Draws(lambda out: real.standard_normal(out=out))
    monkeypatch.setattr(np.random, "Generator", draws)
    before = threading.active_count()
    got = call()
    assert threading.active_count() == before
    shape = (3, 300) if which.startswith("wealth") else (300,)
    assert len(draws.threads) == -(-500 // _chunk_steps(shape, 500))  # 500 steps
    assert all(th is not threading.current_thread() for th in draws.threads)
    for field in ("m", "x", "pi_ratio", "truncation_time"):
        if hasattr(want, field):
            assert np.array_equal(getattr(got, field), getattr(want, field), equal_nan=True)


@pytest.mark.parametrize("which", ["factor-Q", "wealth-P", "wealth-Q"])
def test_simulators_join_worker_when_a_step_raises(base_params, table, monkeypatch, which):
    # the 40th call of the rule the step reads raises, mid-path
    name = "distortion_fn" if which == "factor-Q" else "strategy_fn"
    real, n = getattr(table, name), [0]

    def raising(*args):
        n[0] += 1
        if n[0] == 40:
            raise RuntimeError("strategy failed")
        return real(*args)

    monkeypatch.setattr(table, name, raising)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="strategy failed"):
        _sim_calls(base_params, table)[which]()
    assert threading.active_count() == before


@pytest.mark.parametrize("which", _SIMS)
def test_simulators_raise_the_draws_exception(base_params, table, monkeypatch, which):
    n = [0]

    def fill(out):
        n[0] += 1
        if n[0] == 3:
            raise RuntimeError("draw 3 failed")
        out.fill(0.0)

    monkeypatch.setattr(np.random, "Generator", _Draws(fill))
    call = _sim_calls(base_params, table)[which]
    before = threading.active_count()
    caught = []

    def run():
        try:
            call()
        except RuntimeError as exc:
            caught.append(exc)

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=60.0)  # a hang fails here instead of stalling the suite
    assert not caller.is_alive(), "the draw's exception left the caller waiting"
    assert [str(e) for e in caught] == ["draw 3 failed"]
    assert threading.active_count() == before


# ---------------------------------------------------------------- #
# surplus

def test_surplus_compound_poisson_mean(base_params):
    spb = simulate_surplus(base_params, dt=1e-2, horizon=(0.0, 1.0),
                           seed=23, n_paths=20_000)
    ins = base_params.insurance
    # claims paid over [0, 1]: premium drift minus terminal compound state
    claims = 0.0 + ins.b * 1.0 - spb.compound[:, -1]
    se = claims.std(ddof=1) / math.sqrt(claims.shape[0])
    assert abs(claims.mean() - ins.lam * ins.mu1 * 1.0) < 3.0 * se


def test_surplus_no_jump_probability(base_params):
    spb = simulate_surplus(base_params, dt=1e-2, horizon=(0.0, 1.0),
                           seed=23, n_paths=20_000)
    frac = np.mean([len(jt) == 0 for jt in spb.jump_times])
    ref = math.exp(-base_params.insurance.lam)
    se = math.sqrt(ref * (1.0 - ref) / 20_000)
    assert abs(frac - ref) < 3.0 * se


def test_surplus_diffusion_drift(base_params):
    spb = simulate_surplus(base_params, dt=1e-2, horizon=(0.0, 1.0),
                           seed=31, n_paths=20_000)
    ins = base_params.insurance
    ref = (ins.b - ins.lam * ins.mu1) * 1.0
    term = spb.diffusion[:, -1]
    se = term.std(ddof=1) / math.sqrt(term.shape[0])
    assert abs(term.mean() - ref) < 3.0 * se


def test_surplus_normal_approximation_improves_with_rate(base_params):
    # with the claim-size law held fixed, raising the arrival rate drives
    # the standardized compound total toward the Gaussian limit
    stats_by_lam = []
    for lam in (1.0, 4.0, 16.0):
        params = repl(base_params, lam=lam, b=1.1 * lam)
        spb = simulate_surplus(params, dt=1e-2, horizon=(0.0, 1.0),
                               seed=29, n_paths=20_000)
        ins = params.insurance
        claims = ins.b * 1.0 - spb.compound[:, -1]
        z = (claims - ins.lam * ins.mu1) / math.sqrt(ins.lam * ins.mu2)
        stats_by_lam.append(stats.kstest(z, "norm").statistic)
    assert stats_by_lam[0] > stats_by_lam[1] > stats_by_lam[2]


def test_surplus_replay_and_path_count_stability(base_params):
    a = simulate_surplus(base_params, dt=1e-2, seed=3, n_paths=7)
    b = simulate_surplus(base_params, dt=1e-2, seed=3, n_paths=7)
    assert np.array_equal(a.compound, b.compound)
    # per-path child seeds: the first paths must not depend on n_paths
    c = simulate_surplus(base_params, dt=1e-2, seed=3, n_paths=5)
    assert np.array_equal(a.compound[:5], c.compound)
    assert np.array_equal(a.diffusion[:5], c.diffusion)


# ---------------------------------------------------------------- #
# admissibility statistic

def test_condition_m_deterministic(base_params):
    wb = simulate_wealth(base_params, 2.0, zero_strategy, dt=1e-3, seed=0,
                         n_paths=4)
    ell = 2.1
    rep = empirical_condition_M(wb, ell, base_params.k_bar,
                                base_params.preference.gamma)
    t0, T = base_params.horizon.t0, base_params.horizon.T
    r = base_params.market.r
    # closed form on deterministic paths: X_t = 2 e^(r (t - t0))
    refs = [
        (2.0 * math.exp(r * (t - t0))) ** (-ell) * (T - t) ** ell
        for t in wb.mesh[:-1]
    ]
    rel = np.max(np.abs(rep.statistic - np.array(refs)) / np.array(refs))
    assert rel < 1e-5
    assert rep.max_statistic == pytest.approx(max(refs), rel=1e-5)


def test_condition_m_finite_under_optimal_rule(base_params):
    tab = TabulatedStrategy.from_exact(base_params)
    wb = simulate_wealth(base_params, 1.0, tab.strategy_fn, dt=1e-3, seed=19,
                         n_paths=256)
    rep = empirical_condition_M(wb, 2.1, base_params.k_bar,
                                base_params.preference.gamma)
    assert math.isfinite(rep.max_statistic)
    assert rep.max_statistic > 0.0


def test_condition_m_exponent_floor(base_params):
    wb = simulate_wealth(base_params, 1.0, zero_strategy, dt=1e-2, seed=0,
                         n_paths=2)
    with pytest.raises(ValueError, match="must exceed"):
        empirical_condition_M(wb, 0.3, base_params.k_bar,
                              base_params.preference.gamma)
