import dataclasses
import math
import re

import numpy as np
import pytest

from ricsolver import (
    CsSolver,
    DegenerateK,
    ExactSolver,
    FiniteTimeBlowup,
    InadmissibleParameter,
    KernelOutOfRange,
    ModelParams,
    NonadmissibleValueSign,
    NonpositiveWealth,
    QuadratureBudgetExceeded,
    SolverError,
    derive_coeffs,
    derive_k_phi,
    exact_coeffs,
    UnitEisSolver,
    psi_eval,
    simulate_factor,
    simulate_surplus,
    simulate_wealth,
    TabulatedStrategy,
    coeff_B,
    unit_coeffs,
    validate,
    wealth_offset,
)
from ricsolver.riccati import riccati_pair, riccati_zero_ic, riccati_zero_ic_integral
from ricsolver.uniteis import coeff_G, coeff_H, coeff_L
from ricsolver.verify import _bound_constants


def repl(params, **kw):
    """Shallow per-block replace helper for tests."""
    blocks = {}
    for block in ("market", "insurance", "preference", "horizon"):
        obj = getattr(params, block)
        fields = {f.name for f in dataclasses.fields(obj)}
        hits = {k: v for k, v in kw.items() if k in fields}
        if hits:
            blocks[block] = dataclasses.replace(obj, **hits)
    return dataclasses.replace(params, **blocks)


# hand-evaluated at the default calibration (gamma=1.2, Phi=0.8, rho1=-0.5):
# k = 1 / (1 - Phi/(1-gamma) + (1-gamma-Phi)^2 rho1^2 / ((1-gamma)(Phi+gamma)))
#   = 1 / (1 + 4 - 0.625) = 0.2285714...
# phi = 2 - gamma - Phi + (1-gamma-Phi)^2 rho1^2 / (Phi+gamma) = 0.125
K_DEFAULT = 0.22857142857142854
PHI_DEFAULT = 0.125


def test_k_phi_default_calibration(base_params):
    k, phi = derive_k_phi(1.2, 0.8, -0.5)
    assert k == pytest.approx(K_DEFAULT, rel=1e-15)
    assert phi == pytest.approx(PHI_DEFAULT, rel=1e-15)


def test_k_phi_no_ambiguity_no_correlation():
    # Phi = 0 and rho1 = 0 collapse the derivation to k = 1, phi = 2 - gamma
    for gamma in (0.5, 1.2, 1.7, 2.5):
        k, phi = derive_k_phi(gamma, 0.0, 0.0)
        assert k == 1.0
        assert phi == 2.0 - gamma


def test_k_phi_gamma_one_excluded():
    with pytest.raises(InadmissibleParameter, match="unit-EIS"):
        derive_k_phi(1.0, 0.8, -0.5)


def test_k_phi_degenerate():
    # rho1 = 0 and Phi = 1 - gamma zero the k denominator exactly
    with pytest.raises(DegenerateK):
        derive_k_phi(0.4, 0.6, 0.0)


def test_k_phi_near_unit_phi_is_typed(base_params):
    # Phi = 0.8, rho1 = -0.5 put derived phi = 1 at gamma = 0.2.  k and phi
    # come from one factor D, so gamma = 0.2001 (phi - 1 = -1e-4) answers;
    # only derived phi inside the unit-EIS band is refused, and typed
    p = repl(base_params, Phi=0.8, rho1=-0.5, gamma=0.2001)
    assert math.isfinite(ExactSolver(p).value(0.5, 1.0, 0.3))
    assert validate(p).ok
    gamma = 0.2 + 1e-7
    p = repl(base_params, Phi=0.8, rho1=-0.5, gamma=gamma)
    assert 0.0 < 1.0 - derive_k_phi(gamma, 0.8, -0.5)[1] < 1e-6
    for solver in (ExactSolver, CsSolver):
        with pytest.raises(DegenerateK, match="derived phi"):
            solver(p)
    report = validate(p)
    assert "phi_not_unit" in [c.name for c in report.hard_failures]
    assert "k_phi_derivable" in [c.name for c in report.checks if c.passed]


def test_k_phi_refuses_correlation_outside_unit_interval(base_params):
    # rho1^2 > 1 still gives a k and phi (-1.6 and 1.125 at rho1 = 1.5),
    # which every solver refuses; validate must not report rows built on them
    with pytest.raises(InadmissibleParameter, match="rho1 = 1.5"):
        derive_k_phi(1.2, 0.8, 1.5)
    report = validate(repl(base_params, rho1=1.5))
    failed = {c.name: c.message for c in report.hard_failures}
    assert {"rho1_range", "k_phi_derivable"} <= set(failed)
    assert "|rho1| <= 1" in failed["k_phi_derivable"]
    names = {c.name for c in report.checks}
    assert not names & {"phi_mode", "phi_not_unit", "aggregator_case",
                        "suff_risk_aversion_window", "suff_reversion_floor"}


def test_exact_coeffs_unit_phi_is_typed(base_params):
    # 1 - gamma - Phi = 2^-40 exactly, so derive_k_phi answers, but derived
    # phi = 1 + 2^-40 (1 + 2^-42) lies inside exact_coeffs' band around 1
    Phi = 0.5 - 2.0**-40
    p = repl(base_params, gamma=0.5, Phi=Phi, rho1=-0.5)
    _, phi = derive_k_phi(0.5, Phi, -0.5)
    assert 0.0 < phi - 1.0 <= 1e-9
    with pytest.raises(DegenerateK):
        exact_coeffs(p)
    assert "phi_not_unit" in [c.name for c in validate(p).hard_failures]


@pytest.mark.parametrize("kw", [dict(alpha=-5.0), dict(alpha=0.0, beta=0.0)])
def test_finite_time_blowup_is_typed(base_params, kw):
    # gamma < 1 gives b0 < 0, and alpha <= 0 then makes kappa <= -Delta/2;
    # alpha = beta = 0 puts 2 kappa + Delta at exactly 0, which the bound
    # constants divide by
    p = repl(base_params, gamma=0.5, Phi=0.0, **kw)
    with pytest.raises(FiniteTimeBlowup):
        exact_coeffs(p)
    assert "c_no_blowup" in [c.name for c in validate(p).hard_failures]


def test_derived_coeffs_default(base_params):
    co = derive_coeffs(base_params)
    assert co.k == pytest.approx(K_DEFAULT, rel=1e-15)
    assert co.phi == pytest.approx(PHI_DEFAULT, rel=1e-15)
    assert co.kappa == pytest.approx(4.9375, rel=1e-15)
    assert co.b0 == pytest.approx(0.21875, rel=1e-15)
    assert co.Delta == pytest.approx(9.880536422684752, rel=1e-14)
    # the bound constants live with their only reader, abc_bounds_margin
    b1, A1, A2 = _bound_constants(exact_coeffs(base_params))
    assert b1 == pytest.approx(0.11006705283559404, rel=1e-14)
    assert A1 == pytest.approx(-0.0017197977005561568, rel=1e-13)
    assert A2 == pytest.approx(-0.04955598067118805, rel=1e-13)


def test_wealth_offset_riskless_discounting(base_params):
    # offset at (x1=1, t) is the annuity-discounted premium margin; at the
    # default rates it equals the hand value below
    assert wealth_offset(1.0, 0.5, base_params) == pytest.approx(
        0.9502491687458406, rel=1e-14
    )
    # at t = T no future premia remain
    T = base_params.horizon.T
    assert wealth_offset(1.0, T, base_params) == pytest.approx(1.0, rel=1e-14)


def test_psi_eval_signs(base_params):
    pf = base_params.preference  # gamma > 1: v must be negative
    assert psi_eval(-2.0, pf) > 0.0
    with pytest.raises(NonadmissibleValueSign):
        psi_eval(2.0, pf)


def test_validate_default_ok(base_params):
    report = validate(base_params)
    assert report.ok
    assert not report.hard_failures


_CASE_TERM = re.compile(r"(gamma\*phi|gamma|phi)=(\S+?),? (<=|>=|<|>) 1\b")


@pytest.mark.parametrize("gamma, Phi, rho1", [
    (1.2, 0.8, -0.5),         # the default calibration, case (ii)
    (0.2000001, 0.8, -0.5),   # case (iii), phi = 1 - 1e-7 up to rounding
    (1.0000001, 0.0, -0.9),   # case (ii), gamma*phi = 1 - 2e-15
    (0.2000001, 0.0, -0.9),   # gamma*phi < 1 breaks case (iv)
])
def test_validate_aggregator_case_prints_round_trip_numbers(base_params, gamma, Phi, rho1):
    # each printed number parses back to the float it names, and the
    # printed inequality holds for it
    _, phi = derive_k_phi(gamma, Phi, rho1)
    exact = {"gamma": gamma, "phi": float(phi), "gamma*phi": gamma * float(phi)}
    report = validate(repl(base_params, gamma=gamma, Phi=Phi, rho1=rho1))
    (msg,) = [c.message for c in report.checks if c.name == "aggregator_case"]
    terms = _CASE_TERM.findall(msg)
    assert terms, msg
    holds = {"<": float.__lt__, ">": float.__gt__, "<=": float.__le__, ">=": float.__ge__}
    for name, text, op in terms:
        assert float(text) == exact[name] and repr(float(text)) == text, msg
        assert holds[op](float(text), 1.0), msg
    if (gamma, Phi, rho1) == (1.2, 0.8, -0.5):
        assert msg == "case (ii) holds: gamma=1.2 > 1, phi=0.125 < 1, gamma*phi=0.15 <= 1"


def test_validate_premium_loading_hard_failure(base_params):
    report = validate(repl(base_params, b=0.9))
    assert not report.ok
    assert any("premium_loading" in c.name for c in report.hard_failures)


def test_validate_gamma_one_points_at_unit_mode(base_params):
    report = validate(repl(base_params, gamma=1.0))
    assert not report.ok
    msgs = " ".join(c.message for c in report.hard_failures)
    assert "unit_eis" in msgs or "unit-EIS" in msgs


def test_validate_unit_mode_skips_phi_pin(base_params):
    report = validate(base_params, mode="unit_eis")
    assert report.ok


def test_validate_never_raises_on_junk():
    # sigma = 0 with an admissible gamma reaches the coefficient checks,
    # which divide by sigma
    for junk in (dict(sigma=-1.0, delta=-0.1, gamma=-2.0),
                 dict(sigma=0.0, delta=-0.1, theta1=-1.0)):
        for mode in ("exact", "cs"):  # cs runs the steady-level root as well
            report = validate(repl(ModelParams(), **junk), mode=mode)
            assert not report.ok
            assert len(report.hard_failures) >= 3
    # the coefficients divide by mu2 and raise delta to phi; validate must
    # report these inputs, not evaluate them
    for junk in (dict(mu2=0.0), dict(mu2=-1.0), dict(delta=0.0, gamma=3.0),
                 dict(lam=-1.0)):
        assert not validate(repl(ModelParams(), **junk)).ok, junk
    # k_bar <= 0 only warns, and the window that divides by it is skipped
    assert validate(dataclasses.replace(ModelParams(), k_bar=0.0)).ok


_SOLVERS = {"exact": ExactSolver, "unit_eis": UnitEisSolver, "cs": CsSolver}


@pytest.mark.parametrize("mode", _SOLVERS)
@pytest.mark.parametrize("kw", [
    dict(alpha=1e-5), dict(alpha=0.0), dict(gamma=0.2000001, Phi=0.8, rho1=-0.5),
    dict(rho1=1.5), dict(T=math.inf), dict(sigma=math.nan), dict(gamma=1.0),
], ids=["alpha-1e-5", "alpha-0", "unit-band", "rho1-1.5", "inf-T", "nan-sigma", "gamma-1"])
def test_construction_refusal_fails_validate(kw, mode):
    # where a solver's construction raises, validate in its mode is not ok;
    # at alpha = 1e-5 only the cs root refuses (its trial level's H table
    # does not converge at 1024 nodes), and only the cs_steady_level row sees it
    params = repl(ModelParams(), **kw)
    try:
        _SOLVERS[mode](params)
    except SolverError:
        assert not validate(params, mode=mode).ok


def test_validate_bad_horizon_keeps_discriminant_row():
    # kappa^2 + 2 beta^2 b0 = -2.74 here, whatever the horizon; a bad
    # horizon must not hide it
    for t0, T in ((2.0, 1.0), (-0.5, 1.0), (0.5, 0.5)):
        params = repl(ModelParams(), gamma=0.3, Phi=0.0, rho1=0.9, beta=1.0, alpha=0.1,
                      t0=t0, T=T)
        failed = {c.name for c in validate(params).hard_failures}
        assert {"horizon_order", "discriminant_real"} <= failed, (t0, T, failed)


def _solve_at_t0(solver_cls):
    def run(params):
        solver = solver_cls(params)
        solver.strategy(params.horizon.t0, 1.0, params.market.m0)
        return solver.value(params.horizon.t0, 1.0, params.market.m0)
    return run


def _riskless_wealth(params, x0=1.0):
    zero = lambda t, x, m: (0.0 * x, 0.0 * x, 0.0 * x)
    return simulate_wealth(params, x0, zero, n_paths=2)


@pytest.mark.parametrize("kw, run, error", [
    (dict(mu2=0.0), _solve_at_t0(ExactSolver), InadmissibleParameter),
    (dict(mu2=0.0), _solve_at_t0(UnitEisSolver), InadmissibleParameter),
    (dict(mu2=0.0), _solve_at_t0(CsSolver), InadmissibleParameter),
    (dict(delta=-0.1), _solve_at_t0(ExactSolver), InadmissibleParameter),
    (dict(delta=0.0, gamma=3.0), _solve_at_t0(ExactSolver), InadmissibleParameter),
    (dict(delta=-0.1), _solve_at_t0(UnitEisSolver), InadmissibleParameter),
    (dict(delta=-0.1), _solve_at_t0(CsSolver), InadmissibleParameter),
    (dict(alpha=0.0), _solve_at_t0(CsSolver), InadmissibleParameter),
    (dict(alpha=-1.0), _solve_at_t0(CsSolver), InadmissibleParameter),
    (dict(lam=-1.0), _solve_at_t0(ExactSolver), InadmissibleParameter),
    # the G-Riccati of the unit-EIS mode reaches a pole (theta - b < 0)
    (dict(alpha=-1.0, Phi=0.0, gamma=0.5, r=0.0), _solve_at_t0(UnitEisSolver),
     FiniteTimeBlowup),
    (dict(lam=0.0), lambda p: simulate_surplus(p, n_paths=2), InadmissibleParameter),
    # the horizon itself is refused, before any evaluation point
    (dict(t0=-0.5), _solve_at_t0(ExactSolver), InadmissibleParameter),
    (dict(t0=-0.5), _solve_at_t0(UnitEisSolver), InadmissibleParameter),
    (dict(t0=-0.5), _solve_at_t0(CsSolver), InadmissibleParameter),
    (dict(T=0.0), _solve_at_t0(UnitEisSolver), InadmissibleParameter),
    (dict(T=0.5), _solve_at_t0(ExactSolver), InadmissibleParameter),
    (dict(T=0.4), _solve_at_t0(CsSolver), InadmissibleParameter),
    (dict(t0=1.0), TabulatedStrategy.from_exact, InadmissibleParameter),
    # the claim noise takes the root of lambda mu2 before any strategy runs
    (dict(mu2=-1.0), _riskless_wealth, InadmissibleParameter),
    (dict(lam=-1.0), _riskless_wealth, InadmissibleParameter),
    # factor values far outside the factor's range: the exact kernel's series
    # cannot resolve h's peak at lag 0, the exponential-quadratic g underflows
    # or, with gamma < 1 and Phi = 0, h and g overflow
    (dict(m0=1e6), _solve_at_t0(ExactSolver), QuadratureBudgetExceeded),
    (dict(m0=1e3), _solve_at_t0(UnitEisSolver), KernelOutOfRange),
    (dict(m0=1e3), _solve_at_t0(CsSolver), KernelOutOfRange),
    (dict(m0=1e3, gamma=0.5, Phi=0.0), _solve_at_t0(ExactSolver), KernelOutOfRange),
    (dict(m0=1e3, gamma=0.5, Phi=0.0), _solve_at_t0(CsSolver), KernelOutOfRange),
    # a correlation past 1: sqrt(1 - rho1^2) is refused, not a math domain error
    (dict(rho1=1.5), _solve_at_t0(ExactSolver), InadmissibleParameter),
    (dict(rho1=-1.5), _solve_at_t0(UnitEisSolver), InadmissibleParameter),
    (dict(rho1=1.5), _solve_at_t0(CsSolver), InadmissibleParameter),
    (dict(rho1=1.5), lambda p: simulate_factor(p, n_paths=2), InadmissibleParameter),
    (dict(rho1=1.5), _riskless_wealth, InadmissibleParameter),
    # an evaluation time that is not a number, and a reversed or too-late one
    (dict(), lambda p: ExactSolver(p).g(math.nan, 0.3), InadmissibleParameter),
    (dict(), lambda p: CsSolver(p).g(math.nan, 0.3), InadmissibleParameter),
    (dict(), lambda p: UnitEisSolver(p).strategy(math.nan, 1.0, 0.3), InadmissibleParameter),
    (dict(), lambda p: coeff_G(1.5, unit_coeffs(p)), InadmissibleParameter),
    (dict(), lambda p: coeff_L(math.nan, unit_coeffs(p)), InadmissibleParameter),
    (dict(), lambda p: coeff_H(math.nan, unit_coeffs(p)), InadmissibleParameter),
    (dict(), lambda p: coeff_B(0.6, 0.5, exact_coeffs(p)), InadmissibleParameter),
    # a NaN or infinite wealth and a pinned cs level that is not positive
    (dict(), lambda p: _riskless_wealth(p, math.nan), NonpositiveWealth),
    (dict(), lambda p: _riskless_wealth(p, math.inf), NonpositiveWealth),
    (dict(), lambda p: CsSolver(p, w=-1.0), InadmissibleParameter),
    (dict(), lambda p: CsSolver(p, w=math.nan), InadmissibleParameter),
    # the exported Riccati closed forms at a negative or NaN lag
    (dict(), lambda p: riccati_zero_ic(-0.1, -0.1, -10.0, 0.1), InadmissibleParameter),
    (dict(), lambda p: riccati_zero_ic_integral(math.nan, -0.1, -10.0, 0.1),
     InadmissibleParameter),
    (dict(), lambda p: riccati_pair(np.array([0.2, math.nan]), -0.1, -10.0, 0.1, 5.0, 0.2,
                                    -0.1), InadmissibleParameter),
    # the wealth offset at a time past T, NaN or before 0
    (dict(), lambda p: wealth_offset(1.0, 1.5, p), InadmissibleParameter),
    (dict(), lambda p: wealth_offset(1.0, math.nan, p), InadmissibleParameter),
    (dict(), lambda p: wealth_offset(1.0, -3.0, p), InadmissibleParameter),
    # a constant the closed forms read that is not finite, and an infinite
    # horizon: refused before any kernel work or step count
    (dict(sigma=math.nan), _solve_at_t0(ExactSolver), InadmissibleParameter),
    (dict(delta=math.nan), _solve_at_t0(ExactSolver), InadmissibleParameter),
    (dict(r=math.inf), _solve_at_t0(ExactSolver), InadmissibleParameter),
    (dict(beta=math.nan), _solve_at_t0(UnitEisSolver), InadmissibleParameter),
    (dict(r=math.nan), _solve_at_t0(CsSolver), InadmissibleParameter),
    (dict(T=math.inf), _solve_at_t0(ExactSolver), InadmissibleParameter),
    (dict(T=math.inf), lambda p: simulate_factor(p, n_paths=2), InadmissibleParameter),
    # the simulators' own inputs: the factor's start and the premium rate
    (dict(m0=math.nan), lambda p: simulate_factor(p, n_paths=2), InadmissibleParameter),
    (dict(), lambda p: simulate_factor(p, m0=math.inf, n_paths=2), InadmissibleParameter),
    (dict(m0=math.nan), _riskless_wealth, InadmissibleParameter),
    (dict(b=math.inf), lambda p: simulate_surplus(p, n_paths=2), InadmissibleParameter),
    (dict(b=math.inf), lambda p: wealth_offset(1.0, 0.5, p), InadmissibleParameter),
], ids=["mu2-exact", "mu2-unit", "mu2-cs", "delta-exact", "delta0-exact",
        "delta-unit", "delta-cs", "alpha0-cs", "alpha-cs", "lambda-exact",
        "pole-unit", "lambda0-surplus", "t0-exact", "t0-unit", "t0-cs",
        "T0-unit", "empty-exact", "reversed-cs", "empty-table", "mu2-wealth",
        "lambda-wealth", "m-exact", "m-unit", "m-cs", "overflow-exact", "overflow-cs",
        "rho1-exact", "rho1-unit", "rho1-cs", "rho1-factor", "rho1-wealth",
        "nan-t-exact", "nan-t-cs", "nan-t-unit", "past-T-G", "nan-t-L", "nan-t-H",
        "reversed-lag-B", "nan-x0-wealth", "inf-x0-wealth", "negative-w-cs", "nan-w-cs",
        "negative-tau-riccati", "nan-tau-integral", "nan-tau-linear", "past-T-offset",
        "nan-t-offset", "negative-t-offset", "nan-sigma-exact", "nan-delta-exact",
        "inf-r-exact", "nan-beta-unit", "nan-r-cs", "inf-T-exact", "inf-T-factor",
        "nan-m0-factor", "inf-m0-arg-factor", "nan-m0-wealth", "inf-b-surplus",
        "inf-b-offset"])
def test_refusals_are_typed(kw, run, error):
    with pytest.raises(error):
        run(repl(ModelParams(), **kw))


@pytest.mark.parametrize("key, attr", [
    ("r", "r"), ("a", "a"), ("sigma", "sigma"), ("beta", "beta"), ("alpha", "alpha"),
    ("theta1", "theta1"), ("lambda", "lam"), ("mu1", "mu1"), ("mu2", "mu2"),
    ("gamma", "gamma"), ("delta", "delta"), ("Phi", "Phi"),
])
def test_nonfinite_inputs_refused_by_name(key, attr):
    for value in (math.nan, math.inf, -math.inf):
        params = repl(ModelParams(), **{attr: value})
        with pytest.raises(InadmissibleParameter, match=f"^{key} = {value!r}: "):
            exact_coeffs(params)
        assert not validate(params).ok
    # an infinite horizon passes horizon_order's 0 <= t0 < T but no solver
    assert not validate(repl(ModelParams(), T=math.inf)).ok


def test_claim_dist_moments(base_params):
    cd = base_params.insurance.claim_dist
    assert cd.mean() == pytest.approx(1.0, rel=1e-15)
    # Gamma(4, 0.25): E[Y^2] = mu1^2 * (1 + 1/shape) = 1.25
    assert cd.second_moment() == pytest.approx(1.25, rel=1e-15)


def test_report_lines_render(base_params):
    text = str(validate(base_params))
    assert "[pass]" in text
    assert "\n" in text
    assert math.isfinite(len(text))
