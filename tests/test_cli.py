import math

import pytest

from ricsolver.cli import build_parser, main, run_sweep, run_table2, SweepSpec


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    comments = [l for l in out.splitlines() if l.startswith("#")]
    rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")]
    return rc, comments, rows


def test_validate_defaults_ok(capsys):
    rc = main(["validate"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[pass]" in out


def test_validate_loading_violation_fails(capsys):
    rc = main(["validate", "--set", "b=0.9"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "premium_loading" in out


def test_validate_cs_runs_the_steady_level_root(capsys):
    # the cs mode's root is a hard row: it passes with w and its evaluation
    # count, and fails with CsSolver's own refusal
    assert main(["validate", "--mode", "cs"]) == 0
    assert "[pass] cs_steady_level: w = 0.5476648279 in 10 evaluations" in capsys.readouterr().out
    assert main(["validate", "--mode", "cs", "--set", "alpha=1e-5"]) == 1
    assert ("[FAIL] cs_steady_level: H table on [0, 1.0] (trailing coefficient 5.115e-03 > "
            "1e-14): not converged at 1024 nodes") in capsys.readouterr().out
    assert main(["validate", "--set", "alpha=1e-5"]) == 0
    assert "cs_steady_level" not in capsys.readouterr().out


def test_validate_gamma_one_redirects(capsys):
    rc = main(["validate", "--set", "gamma=1.0"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "unit" in out


@pytest.mark.parametrize("setting, row", [
    ("T=inf", "horizon_order"), ("t0=inf", "horizon_order"), ("sigma=inf", "sigma_positive"),
    ("beta=inf", "beta_positive"), ("beta=nan", "beta_positive"),
    ("alpha=inf", "alpha_positive"), ("delta=inf", "delta_positive"),
    ("Phi=inf", "Phi_nonnegative"), ("gamma=inf", "gamma_admissible"),
    ("lambda=inf", "lambda_positive"), ("mu1=inf", "mu1_positive"), ("mu2=inf", "mu2_vs_mu1"),
    ("theta1=inf", "theta1_positive"),
])
def test_validate_rows_fail_on_nonfinite_values(capsys, setting, row):
    # each bound row fails where every solver refuses, next to solver_inputs
    rc = main(["validate", "--set", setting])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[FAIL] solver_inputs: " in out
    assert f"[FAIL] {row}: " in out and f"[pass] {row}: " not in out


def test_solve_row_structure(capsys):
    rc, comments, rows = run(capsys, "solve")
    assert rc == 0
    header, data = rows[0], rows[1]
    assert header[:4] == ["t", "x", "m", "pi_over_x"]
    assert float(data[header.index("q_over_x")]) == 0.08
    assert any(l.startswith("# sigma = ") for l in comments)


def test_solve_unit_mode_consumption(capsys):
    rc, _, rows = run(capsys, "solve", "--mode", "unit_eis")
    assert rc == 0
    header, data = rows[0], rows[1]
    assert float(data[header.index("c_over_x")]) == pytest.approx(0.08)


def test_solve_rejects_unknown_mode(capsys):
    rc = main(["solve", "--mode", "nope"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "mode" in err


@pytest.mark.parametrize("mode", ["exact", "cs"])
@pytest.mark.parametrize("sets", [
    ("gamma=0.5", f"Phi={0.5 - 2.0**-40!r}", "rho1=-0.5"),  # derived phi = 1 + 2^-40
    ("gamma=0.5", "Phi=0", "alpha=-5"),  # 2 kappa + Delta < 0
    ("gamma=0.5", "Phi=0", "alpha=0", "beta=0"),  # 2 kappa + Delta = 0
    ("sigma=0",),  # the loadings divide by sigma
])
def test_solve_reports_typed_coefficient_errors(capsys, mode, sets):
    argv = ["solve", "--mode", mode]
    for s in sets:
        argv += ["--set", s]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ")


def test_validate_rejects_unknown_mode(capsys):
    assert main(["validate", "--mode", "nope"]) == 1
    assert capsys.readouterr().err.startswith("error: mode must be one of ")


@pytest.mark.parametrize("argv", [
    ["table2", "--mode", "cs"],
    ["verify", "--suite", "ode", "--mode", "cs"],
    ["simulate", "--mode", "cs"],
    ["validate", "--seed", "1"],
    ["solve", "--seed", "1"],
    ["sweep", "--param", "sigma", "--values", "0.2", "--seed", "1"],
    ["table2", "--seed", "1"],
])
def test_flags_only_where_they_act(capsys, argv):
    # --mode only on validate, solve and sweep; --seed only on verify and
    # simulate: elsewhere they would change nothing, so they are usage errors
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_set_rejects_unknown_key(capsys):
    rc = main(["solve", "--set", "x=1"])
    assert rc == 1
    assert "unknown key" in capsys.readouterr().err


def test_sweep_values_and_modes(capsys):
    rc, comments, rows = run(
        capsys, "sweep", "--param", "theta1", "--values", "0.2,0.4",
        "--mode", "exact,cs",
        "--set", "gamma=1.3", "--set", "alpha=7.0", "--set", "Phi=0.0",
        "--set", "sigma=0.8",
    )
    assert rc == 0
    header = rows[0]
    assert header[0] == "theta1"
    assert len(rows) == 1 + 4  # 2 values x 2 modes
    assert [r[1] for r in rows[1:]] == ["exact", "cs", "exact", "cs"]


def test_sweep_range_inclusive():
    spec = SweepSpec(param="sigma", values=(0.1, 0.2), modes=("exact",),
                     point=(None, 1.0, None))
    assert spec.values == (0.1, 0.2)
    parser = build_parser()
    args = parser.parse_args(
        ["sweep", "--param", "sigma", "--range", "0.80:0.85:0.01"]
    )
    from ricsolver.cli import _parse_values

    vals = _parse_values(args)
    assert len(vals) == 6
    assert vals[0] == pytest.approx(0.80)
    assert vals[-1] == pytest.approx(0.85)


def test_sweep_spec_validation():
    with pytest.raises(ValueError, match="unknown sweep parameter"):
        SweepSpec(param="zap", values=(1.0,), modes=("exact",),
                  point=(None, 1.0, None))
    with pytest.raises(ValueError, match="at least one"):
        SweepSpec(param="sigma", values=(), modes=("exact",),
                  point=(None, 1.0, None))
    with pytest.raises(ValueError, match="mode"):
        SweepSpec(param="sigma", values=(1.0,), modes=("czech",),
                  point=(None, 1.0, None))


def test_run_sweep_reresolves_each_value():
    _, rows = run_sweep(
        SweepSpec(param="gamma", values=(1.2, 1.4), modes=("exact",),
                  point=(None, 1.0, None))
    )
    assert rows[0][0] == 1.2 and rows[1][0] == 1.4
    assert rows[0][2] != rows[1][2]  # investment ratio responds to gamma


def test_table2_columns_and_monotonicity():
    _, w_used, rows = run_table2()
    sigmas = [r[0] for r in rows]
    assert sigmas == [0.80, 0.81, 0.82, 0.83, 0.84, 0.85]
    pi_cs = [r[1] for r in rows]
    pi_ex = [r[2] for r in rows]
    err = [r[3] for r in rows]
    assert all(a > b for a, b in zip(pi_cs, pi_cs[1:]))
    assert all(a > b for a, b in zip(pi_ex, pi_ex[1:]))
    assert all(e > 0.0 for e in err)
    assert all(0.1 < w < 0.2 for w in w_used)


def test_table2_hedge_scales_as_one_over_sigma_squared():
    # at m = 0, pi*/x = ((a - r) + c_pi u) / ((Phi + gamma) sigma^2): the
    # hedge term times sigma^2 is the same at every sigma of the table, so
    # a change of sigma convention shows here
    params, _, rows = run_table2()
    mk, pf = params.market, params.preference
    scaled = [s * s * (pi_star - (mk.a - mk.r) / ((pf.Phi + pf.gamma) * s * s))
              for s, _, pi_star, _ in rows]
    assert scaled[0] != 0.0
    assert max(scaled) - min(scaled) <= 1e-3 * abs(scaled[0])


def test_byte_identical_reruns(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        rc = main(["simulate", "--process", "factor", "--n-paths", "64",
                   "--dt", "0.002", "--seed", "5", "--out", str(path)])
        assert rc == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_simulate_embeds_run_metadata(tmp_path):
    path = tmp_path / "runs.csv"
    main(["simulate", "--process", "surplus", "--n-paths", "32",
          "--dt", "0.01", "--seed", "12", "--out", str(path)])
    text = path.read_text()
    assert "# seed = 12" in text
    assert "# dt = 0.01" in text
    assert "# n_paths = 32" in text


def test_simulate_wealth_riskless(tmp_path):
    path = tmp_path / "w.csv"
    rc = main(["simulate", "--process", "wealth", "--strategy", "riskless",
               "--n-paths", "8", "--dt", "0.002", "--x0", "2.0",
               "--out", str(path)])
    assert rc == 0
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    last = lines[-1].split(",")
    x_mean = float(last[header.index("x_mean")])
    assert x_mean == pytest.approx(2.0 * math.exp(0.02 * 0.5), rel=1e-4)


def test_verify_ode_suite_all_pass(capsys):
    rc, comments, rows = run(capsys, "verify", "--suite", "ode")
    assert rc == 0
    assert "# failed = 0" in comments
    assert not any(c.startswith("# diag mc") for c in comments)
    header = rows[0]
    assert header == ["check", "point", "value", "tolerance", "pass"]
    assert all(r[-1] == "True" for r in rows[1:])
    assert all(len(r) == 5 for r in rows[1:])  # no comma leakage


def test_verify_mc_reports_its_scheme(capsys):
    rc, comments, rows = run(capsys, "verify", "--suite", "mc", "--n-paths", "500",
                             "--seed", "4")
    assert rc == 0
    # default horizon [0.5, 1]: 200 steps of 2.5e-3, and the control with
    # its fitted b and the standard error of the same paths without it
    diag = [c for c in comments if c.startswith("# diag mc:")]
    assert len(diag) == 1
    assert diag[0].startswith("# diag mc: scheme = exact_ou, dt = 0.0025, n_steps = 200, "
                              "n_paths = 500, seed = 4, control = ou_moments, b = ")
    assert len(rows) == 2 and rows[1][0] == "mc_g_z_score"
    assert "paths=500 est=" in rows[1][1]
    # one se= field in the row, the controlled one, below the plain one
    point = dict(f.split("=") for f in rows[1][1].split())
    assert set(point) == {"t", "m", "paths", "est", "closed", "se"}
    assert float(point["se"]) < float(diag[0].split(", plain_se = ")[1])


def test_verify_mc_default_paths(capsys):
    rc, comments, _ = run(capsys, "verify", "--suite", "mc")
    assert rc == 0
    assert any(c.startswith("# diag mc:") and "n_paths = 4096," in c for c in comments)


def test_verify_mc_zero_spread_passes_on_the_trapezoid_gap(capsys):
    # beta = 0: every path is the same trapezoid, se = 0, and the row checks
    # the relative gap against the trapezoid's bias instead of z = inf
    rc, comments, rows = run(capsys, "verify", "--suite", "mc", "--set", "beta=0",
                             "--n-paths", "64")
    assert rc == 0 and "# failed = 0" in comments
    assert len(rows) == 2 and rows[1][0] == "mc_g_rel_gap" and rows[1][-1] == "True"
    assert "se=0.00e+00" in rows[1][1]
    assert any(", spread = 0, rel_gap = " in c for c in comments)


def test_simulate_wealth_rejects_empty_horizon(capsys):
    # t0 = T is refused as a horizon before the strategy table is built
    for extra in (["--process", "wealth"], ["--measure", "Q_xi"]):
        rc = main(["simulate", *extra, "--n-paths", "4", "--set", "t0=1"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: horizon [t0, T] = [1.0, 1.0]")


@pytest.mark.parametrize("argv, message", [
    (["solve", "--set", "t0=-0.5"], "error: horizon [t0, T] = [-0.5, 1.0]"),
    (["solve", "--mode", "unit_eis", "--set", "T=0"], "error: horizon [t0, T] = [0.5, 0.0]"),
    (["simulate", "--process", "wealth", "--strategy", "riskless", "--set", "mu2=-1"],
     "error: mu2 = -1.0"),
    (["simulate", "--process", "wealth", "--strategy", "riskless", "--set", "lambda=-1"],
     "error: lambda = -1.0"),
    # the default horizon [t0, T] = [1, 1] is empty: no rows made with a zero step
    (["simulate", "--process", "surplus", "--n-paths", "4", "--set", "t0=1"],
     "error: horizon [t0, T] = [1.0, 1.0]"),
    (["simulate", "--process", "factor", "--n-paths", "4", "--set", "t0=1"],
     "error: horizon [t0, T] = [1.0, 1.0]"),
    (["simulate", "--process", "wealth", "--strategy", "riskless", "--n-paths", "4",
      "--set", "t0=1"],
     "error: horizon [t0, T] = [1.0, 1.0]"),
    # g out of floating-point reach at a huge |m|: no raw ZeroDivisionError
    (["solve", "--m", "1e6"], "error: g kernel series of h(tau, m) at |m| = 1000000.0"),
    (["solve", "--mode", "cs", "--m", "1e3"], "error: g(t = 0.5, m = 1000.0) underflows"),
    (["verify", "--suite", "mc", "--set", "m0=1e6"],
     "error: g kernel series of h(tau, m) at |m| = 1000000.0"),
    # |rho1| > 1, refused before sqrt(1 - rho1^2) raises a math domain error
    (["solve", "--set", "rho1=1.5"], "error: rho1 = 1.5: a correlation"),
    (["solve", "--mode", "unit_eis", "--set", "rho1=1.5"], "error: rho1 = 1.5: a correlation"),
    (["solve", "--mode", "cs", "--set", "rho1=1.5"], "error: rho1 = 1.5: a correlation"),
    (["simulate", "--process", "factor", "--n-paths", "4", "--set", "rho1=1.5"],
     "error: rho1 = 1.5: a correlation"),
    (["simulate", "--process", "wealth", "--strategy", "riskless", "--n-paths", "4",
      "--set", "rho1=1.5"], "error: rho1 = 1.5: a correlation"),
    # a NaN factor value, refused before any kernel work
    (["solve", "--m", "nan"], "error: m = nan is not finite"),
    (["solve", "--mode", "unit_eis", "--m", "nan"], "error: m = nan is not finite"),
    (["solve", "--mode", "cs", "--m", "nan"], "error: m = nan is not finite"),
    # and a NaN time, refused by the horizon guard, not as a huge |m|
    (["solve", "--t", "nan"], "error: t = nan is before 0 or not a number"),
    (["solve", "--mode", "unit_eis", "--t", "nan"], "error: t = nan is before 0 or not a number"),
    (["solve", "--mode", "cs", "--t", "nan"], "error: t = nan is before 0 or not a number"),
    # the saddle check draws its perturbations as one block
    (["verify", "--suite", "saddle", "--samples", "-1"], "error: samples = -1 must be >= 0"),
    # a constant that is not finite, refused by name before any kernel work
    (["solve", "--set", "sigma=nan"], "error: sigma = nan"),
    (["solve", "--set", "delta=nan"], "error: delta = nan"),
    (["solve", "--set", "r=inf"], "error: r = inf"),
    (["sweep", "--param", "sigma", "--values", "nan"], "error: sigma = nan"),
    (["solve", "--mode", "unit_eis", "--set", "beta=nan"], "error: beta = nan"),
    (["table2", "--set", "r=nan"], "error: r = nan"),
    (["verify", "--suite", "fd", "--set", "beta=nan"], "error: beta = nan"),
    # an infinite horizon, refused before a step count is rounded from it,
    # and a NaN step
    (["solve", "--set", "T=inf"], "error: horizon [t0, T] = [0.5, inf]"),
    (["simulate", "--set", "T=inf"], "error: horizon [t0, T] = [0.5, inf]"),
    (["verify", "--suite", "mc", "--set", "T=inf"], "error: horizon [t0, T] = [0.5, inf]"),
    (["simulate", "--dt", "nan"], "error: dt = nan must be positive"),
    # the simulators' own inputs, refused by name before any path is drawn
    (["simulate", "--process", "factor", "--n-paths", "2", "--set", "m0=nan"],
     "error: m0 = nan"),
    (["simulate", "--process", "wealth", "--strategy", "riskless", "--n-paths", "2",
      "--set", "m0=nan"], "error: m0 = nan"),
    (["simulate", "--process", "surplus", "--n-paths", "2", "--set", "b=inf"],
     "error: b = inf"),
    # an infinite wealth: no value = -0 and no NaN path rows
    (["solve", "--x", "inf"], "error: wealth must be positive and finite, got x = inf"),
    (["solve", "--mode", "unit_eis", "--x", "inf"], "error: wealth must be positive and finite"),
    (["solve", "--mode", "cs", "--x", "inf"], "error: wealth must be positive and finite"),
    (["simulate", "--process", "wealth", "--strategy", "riskless", "--n-paths", "2",
      "--x0", "inf"], "error: x0 must be positive and finite, got inf"),
    # one path has no standard error, so the mc check has no z-score
    (["verify", "--suite", "mc", "--n-paths", "1"],
     "error: n_paths = 1: the mc check's standard error needs at least two paths"),
    (["verify", "--suite", "mc", "--n-paths", "0"], "error: n_paths = 0: the mc check's"),
], ids=["t0-negative", "T-zero-unit", "mu2-wealth", "lambda-wealth", "empty-surplus",
        "empty-factor", "empty-riskless", "m-exact", "m-cs", "m-verify-mc", "rho1-exact",
        "rho1-unit", "rho1-cs", "rho1-factor", "rho1-wealth", "nan-m-exact", "nan-m-unit",
        "nan-m-cs", "nan-t-exact", "nan-t-unit", "nan-t-cs", "samples-negative",
        "nan-sigma", "nan-delta", "inf-r", "nan-sigma-sweep", "nan-beta-unit", "nan-r-table2",
        "nan-beta-fd", "inf-T-solve", "inf-T-simulate", "inf-T-verify-mc", "nan-dt-simulate",
        "nan-m0-factor", "nan-m0-riskless", "inf-b-surplus", "inf-x-exact", "inf-x-unit",
        "inf-x-cs", "inf-x0-riskless", "mc-one-path", "mc-no-path"])
def test_typed_refusals_reach_the_cli(capsys, argv, message):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(message)


def test_verify_exit_zero_even_on_failure(capsys, monkeypatch):
    # force a failing row through an impossible tolerance: the report is
    # the product, so the process still exits 0
    from ricsolver.verify import SUITES, CheckRow

    def fake_rows(params, opts):
        return [CheckRow("stub", "p", 1.0, 0.5, False)]

    monkeypatch.setitem(SUITES, "ode", fake_rows)
    rc, comments, rows = run(capsys, "verify", "--suite", "ode")
    assert rc == 0
    assert "# failed = 1" in comments


# Header and data rows of the default outputs, frozen as printed: a change
# that moves any printed digit fails here, not only in a hand diff.
_GOLDEN = {
    ("solve", "--mode", "exact"): """\
t,x,m,pi_over_x,q_over_x,c_over_x,xi1,xi2,xi3,value
0.5,1,0,0.63166171,0.08,0.545965523,0.0989341264,0.00369229435,0.0715541753,-5.34202898
""",
    ("solve", "--mode", "unit_eis"): """\
t,x,m,pi_over_x,q_over_x,c_over_x,xi1,xi2,xi3,value
0.5,1,0,0.632190049,0.08,0.08,0.0988495921,0.00398512988,0.0715541753,-5.11748725
""",
    ("solve", "--mode", "cs"): """\
t,x,m,pi_over_x,q_over_x,c_over_x,xi1,xi2,xi3,value
0.5,1,0,0.631697493,0.08,0.547593402,0.0989284012,0.0037121272,0.0715541753,-5.33839493
""",
    ("sweep", "--param", "sigma", "--values", "0.2,0.3", "--mode", "exact,unit_eis,cs"): """\
sigma,mode,pi_over_x,q_over_x,c_over_x,xi1,xi2,xi3,value
0.2,exact,0.63166171,0.08,0.545965523,0.0989341264,0.00369229435,0.0715541753,-5.34202898
0.2,unit_eis,0.632190049,0.08,0.08,0.0988495921,0.00398512988,0.0715541753,-5.11748725
0.2,cs,0.631697493,0.08,0.547593402,0.0989284012,0.0037121272,0.0715541753,-5.33839493
0.3,exact,0.280739183,0.08,0.544148717,0.0659559293,0.00246206637,0.0715541753,-5.34610054
0.3,unit_eis,0.280973355,0.08,0.08,0.0658997281,0.00265675326,0.0715541753,-5.12191087
0.3,cs,0.28075523,0.08,0.545805468,0.0659520781,0.00247540747,0.0715541753,-5.342387
""",
    ("table2",): """\
sigma,pi_cs_over_x,pi_star_over_x,error
0.8,0.0603329329,0.0603328859,4.69727705e-08
0.81,0.0588524266,0.0588523807,4.58249032e-08
0.82,0.0574257541,0.0574257094,4.47185462e-08
0.83,0.0560503369,0.0560502933,4.36517245e-08
0.84,0.0547237487,0.0547237061,4.26225791e-08
0.85,0.0534437054,0.0534436637,4.16293587e-08
""",
}


@pytest.mark.parametrize("argv", list(_GOLDEN), ids=lambda a: "-".join(a).replace("--", ""))
def test_default_outputs_golden(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    data = "".join(l + "\n" for l in out.splitlines() if not l.startswith("#"))
    assert data == _GOLDEN[argv]


# The comment block of the default solve, frozen as printed: every config
# key in KNOWN_KEYS order with its resolved value, then the mode.
_GOLDEN_COMMENTS = """\
# r = 0.02
# a = 0.07
# sigma = 0.2
# beta = 0.25
# alpha = 5
# rho1 = -0.5
# m0 = 0
# b = 1.1
# theta1 = 0.2
# lambda = 1
# mu1 = 1
# mu2 = 1.25
# claim_family = gamma
# claim_params = 4,0.25
# gamma = 1.2
# delta = 0.08
# Phi = 0.8
# t0 = 0.5
# T = 1
# k_bar = 2.1
# mode = exact
"""


def test_default_comment_block_golden(capsys):
    assert main(["solve"]) == 0
    out = capsys.readouterr().out
    assert "".join(l + "\n" for l in out.splitlines() if l.startswith("#")) == _GOLDEN_COMMENTS


def test_out_writes_file(tmp_path):
    path = tmp_path / "point.csv"
    rc = main(["solve", "--out", str(path)])
    assert rc == 0
    assert path.read_text().startswith("# ")
