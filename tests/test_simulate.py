import dataclasses
import math

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
