"""Acceptance gate: one test per shipped claim, one pass/fail line each.

Run with -v to get the per-criterion lines; -s additionally shows the
measured numbers. Criterion 1 carries a reference-table band that the
recomputation genuinely does not attain (the gap between the two rules is
orders of magnitude smaller than the band); it is asserted anyway and its
failure message states exactly which sub-clause is unmet.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from ricsolver import (
    CsSolver,
    ExactSolver,
    Grid2D,
    UnitEisSolver,
    abc_ode_residual,
    derive_k_phi,
    fd_solve_g,
    mc_g,
    pde_residual,
    simulate_factor,
    simulate_surplus,
)
from ricsolver.cli import main, run_table2
from ricsolver.verify import bounds_suite, saddle_suite


def repl(params, **kw):
    blocks = {}
    for block in ("market", "insurance", "preference", "horizon"):
        obj = getattr(params, block)
        fields = {f.name for f in dataclasses.fields(obj)}
        hits = {k: v for k, v in kw.items() if k in fields}
        if hits:
            blocks[block] = dataclasses.replace(obj, **hits)
    return dataclasses.replace(params, **blocks)


# externally tabulated six-decimal reference rows for the sigma table
# (columns: sigma, pi_cs/x, pi_star/x, error)
REFERENCE_ROWS = [
    (0.80, 0.062880, 0.062702, 0.000178),
    (0.81, 0.061368, 0.061193, 0.000175),
    (0.82, 0.059911, 0.059737, 0.000173),
    (0.83, 0.058505, 0.058334, 0.000171),
    (0.84, 0.057150, 0.056980, 0.000169),
    (0.85, 0.055841, 0.055674, 0.000167),
]


def test_criterion_1_sigma_table_reproduction():
    start = time.monotonic()
    _, _, rows = run_table2()
    elapsed = time.monotonic() - start
    failures = []
    if elapsed > 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    pi_cs = [r[1] for r in rows]
    pi_ex = [r[2] for r in rows]
    errs = [r[3] for r in rows]
    if not all(a > b for a, b in zip(pi_cs, pi_cs[1:])):
        failures.append("pi_cs/x column not strictly decreasing")
    if not all(a > b for a, b in zip(pi_ex, pi_ex[1:])):
        failures.append("pi*/x column not strictly decreasing")
    if not all(e > 0.0 for e in errs):
        failures.append("per-row error not positive")
    bad_band = [e for e in errs if not (1e-4 <= e <= 3e-4)]
    if bad_band:
        failures.append(
            "per-row error outside [1e-4, 3e-4]: computed errors are "
            f"{min(errs):.3e}..{max(errs):.3e}, three orders below the band "
            "(see the decisions ledger: the recomputed gap between the two "
            "rules at these inputs is ~5e-8; the reference column is not "
            "reproducible from the stated calibration)"
        )
    worst_abs = 0.0
    for got, ref in zip(rows, REFERENCE_ROWS):
        for g, r in zip(got[:3], ref[:3]):
            worst_abs = max(worst_abs, abs(g - r))
    if worst_abs > 5e-3:
        failures.append(f"columns deviate from reference by {worst_abs:.2e} > 5e-3")
    print(f"criterion 1: runtime {elapsed:.1f}s, column deviation {worst_abs:.2e}, "
          f"errors {min(errs):.3e}..{max(errs):.3e}")
    assert not failures, "; ".join(failures)


def test_criterion_2_retention_closed_form(base_params):
    ex = ExactSolver(base_params).strategy(0.5, 1.0, 0.0)
    cs = CsSolver(base_params).strategy(0.5, 1.0, 0.0)
    ins, pf = base_params.insurance, base_params.preference
    ref = ins.theta1 * ins.mu1 / ((pf.Phi + pf.gamma) * ins.mu2)
    print(f"criterion 2: q*/x exact {ex.q_over_x!r}, cs {cs.q_over_x!r}, ref {ref!r}")
    assert ex.q_over_x == cs.q_over_x
    assert abs(ex.q_over_x - 0.08) < 1e-15
    assert ex.q_over_x == ref


def test_criterion_3_three_way_g_agreement(base_params):
    start = time.monotonic()
    grid = Grid2D(n_t=400, n_m=401, m_max=4.0)
    gv = fd_solve_g(base_params, grid)
    tn = grid.t_nodes(base_params.horizon.t0, base_params.horizon.T)
    mn = grid.m_nodes()
    solver = ExactSolver(base_params)
    rng = np.random.default_rng(14)
    worst_fd = 0.0
    worst_mc_z = 0.0
    for idx in range(20):
        i = int(rng.integers(0, len(tn) - 1))
        j = int(rng.integers(0, len(mn)))
        while abs(mn[j]) > 2.0:
            j = int(rng.integers(0, len(mn)))
        closed = solver.g(tn[i], mn[j]).g
        worst_fd = max(worst_fd, abs(gv[i, j] - closed) / abs(closed))
        # The factor steps are exact OU transitions, so the step bias is the
        # trapezoid's, second order in dt.  At 1e5 paths the standard error
        # is ~1e-5; at dt = 1e-3 the worst |z| over these 20 points is 1.94
        # (1.95 at 2e-3), so the bias stays well inside the noise.
        est, se = mc_g(base_params, float(tn[i]), float(mn[j]),
                       n_paths=100_000, dt=1e-3, seed=1000 + idx)
        worst_mc_z = max(worst_mc_z, abs(est - closed) / se)
    elapsed = time.monotonic() - start
    print(f"criterion 3: worst FD rel err {worst_fd:.2e}, worst MC |z| "
          f"{worst_mc_z:.2f}, runtime {elapsed:.0f}s")
    assert worst_fd <= 1e-4
    assert worst_mc_z <= 3.0
    assert elapsed <= 300.0


def test_criterion_4_residual_suite(base_params):
    rng = np.random.default_rng(5)
    T = base_params.horizon.T
    worst_ode = 0.0
    for _ in range(50):
        t = rng.uniform(0.0, T - 0.02)
        s = rng.uniform(t + 0.01, T)
        worst_ode = max(worst_ode, abc_ode_residual(base_params, t, s))
    grid = Grid2D(n_t=10, n_m=10, m_max=2.0)  # 100 evaluation points
    ex = ExactSolver(base_params)
    un = UnitEisSolver(base_params)
    cs = CsSolver(base_params)
    r_g1 = pde_residual(lambda t, m: ex.g(t, m).g, ex.coeffs, grid)
    r_unit = pde_residual(lambda t, m: un.g(t, m).g, un.coeffs, grid)
    r_cs = pde_residual(lambda t, m: cs.g(t, m).g, cs.coeffs, grid)
    r_neg = pde_residual(lambda t, m: un.g(t, m).g, ex.coeffs, grid)
    print(f"criterion 4: ode {worst_ode:.2e}, g1 {r_g1:.2e}, unit {r_unit:.2e}, "
          f"cs {r_cs:.2e}, negative control {r_neg:.2e}")
    assert worst_ode <= 1e-4
    assert r_g1 <= 1e-4
    assert r_unit <= 1e-4
    assert r_cs <= 1e-4
    assert r_neg > 1e-2


def test_criterion_5_coefficient_bounds():
    rows = bounds_suite(seed=0)  # 20 draws x 50 pairs
    n_pairs = 50 * len(rows)
    worst = min(r.value for r in rows)
    print(f"criterion 5: {n_pairs} (t,s) pairs, worst margin {worst:.2e}")
    assert n_pairs >= 1000
    assert all(r.passed for r in rows), [r.point for r in rows if not r.passed]


def test_criterion_6_saddle_suite(base_params):
    rows = saddle_suite(base_params, samples=20, seed=0)
    violations = sum(int(r.value) for r in rows)
    print(f"criterion 6: {len(rows)} interior points x 20 perturbations, "
          f"{violations} violations")
    assert len(rows) == 100
    assert violations == 0


def test_criterion_7_degenerate_ambiguity(base_params, loglin_params):
    sp = ExactSolver(loglin_params).strategy(0.5, 1.0, 0.7)
    print(f"criterion 7: xi* = ({sp.xi1!r}, {sp.xi2!r}, {sp.xi3!r}); "
          f"k, phi at Phi=0, rho1=0: {derive_k_phi(1.2, 0.0, 0.0)}")
    assert (sp.xi1, sp.xi2, sp.xi3) == (0.0, 0.0, 0.0)
    for gamma in (0.5, 1.2, 2.0):
        k, phi = derive_k_phi(gamma, 0.0, 0.0)
        assert k == 1.0
        assert phi == 2.0 - gamma


def test_criterion_8_trend_directions(base_params, loglin_params):
    point = (0.5, 1.0, 0.0)

    def pi_of(params):
        return ExactSolver(params).strategy(*point).pi_over_x

    def c_of(params):
        return ExactSolver(params).strategy(*point).c_over_x

    pis_theta = [pi_of(repl(base_params, theta1=v)) for v in (0.1, 0.3, 0.5)]
    cs_theta = [c_of(repl(base_params, theta1=v)) for v in (0.1, 0.3, 0.5)]
    pis_alpha = [pi_of(repl(base_params, alpha=v)) for v in (3.0, 5.0, 7.0)]
    pis_gamma = [pi_of(repl(base_params, gamma=v)) for v in (1.1, 1.5, 2.0)]
    pis_phi = [pi_of(repl(base_params, Phi=v)) for v in (0.0, 0.4, 0.8)]

    def gap(params):
        c1 = CsSolver(params).strategy(*point).c_over_x
        c2 = ExactSolver(params).strategy(*point).c_over_x
        return abs(c1 - c2)

    gaps_theta = [gap(repl(loglin_params, theta1=v)) for v in (0.2, 0.5)]
    gaps_sigma = [gap(repl(loglin_params, sigma=v)) for v in (0.9, 0.7)]
    print(f"criterion 8: pi(theta1) {pis_theta}, c(theta1) {cs_theta}, "
          f"pi(alpha) {pis_alpha}, pi(gamma) {pis_gamma}, pi(Phi) {pis_phi}, "
          f"gap(theta1) {gaps_theta}, gap(sigma down) {gaps_sigma}")
    dec = lambda xs: all(a > b for a, b in zip(xs, xs[1:]))
    inc = lambda xs: all(a < b for a, b in zip(xs, xs[1:]))
    assert dec(pis_theta) and inc(cs_theta)
    assert dec(pis_alpha)
    assert dec(pis_gamma)
    assert dec(pis_phi)
    assert dec(gaps_theta)
    assert dec(gaps_sigma)


def test_criterion_9_simulation_statistics(base_params, tmp_path):
    blobs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        rc = main(["simulate", "--process", "factor", "--n-paths", "128",
                   "--dt", "0.002", "--seed", "7", "--out", str(path)])
        assert rc == 0
        blobs.append(path.read_bytes())
    byte_identical = blobs[0] == blobs[1]

    mk = base_params.market
    fp = simulate_factor(base_params, m0=0.4, dt=5e-4, seed=7,
                         n_paths=100_000)
    tau = base_params.horizon.T - base_params.horizon.t0
    term = fp.m[:, -1]
    mean_ref = 0.4 * math.exp(-mk.alpha * tau)
    var_ref = mk.beta**2 * (1.0 - math.exp(-2.0 * mk.alpha * tau)) / (2.0 * mk.alpha)
    z_mean = (term.mean() - mean_ref) / (term.std(ddof=1) / math.sqrt(len(term)))
    var_est = term.var(ddof=1)
    z_var = (var_est - var_ref) / (var_est * math.sqrt(2.0 / (len(term) - 1)))

    spb = simulate_surplus(base_params, dt=1e-2, horizon=(0.0, 1.0),
                           seed=23, n_paths=20_000)
    ins = base_params.insurance
    claims = ins.b * 1.0 - spb.compound[:, -1]
    z_cp = (claims.mean() - ins.lam * ins.mu1) / (
        claims.std(ddof=1) / math.sqrt(claims.shape[0])
    )
    print(f"criterion 9: byte-identical {byte_identical}, OU z_mean "
          f"{z_mean:.2f}, z_var {z_var:.2f}, CP z {z_cp:.2f}")
    assert byte_identical
    assert abs(z_mean) <= 3.0
    assert abs(z_var) <= 3.0
    assert abs(z_cp) <= 3.0
