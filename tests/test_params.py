import dataclasses
import math

import pytest

from ricsolver import (
    CsSolver,
    DegenerateK,
    ExactSolver,
    FiniteTimeBlowup,
    InadmissibleParameter,
    ModelParams,
    NonadmissibleValueSign,
    derive_coeffs,
    derive_k_phi,
    exact_coeffs,
    SolverError,
    UnitEisSolver,
    psi_eval,
    simulate_surplus,
    validate,
    wealth_offset,
)


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
    # Phi = 0.8, rho1 = -0.5 put derived phi = 1 at gamma = 0.2; just above
    # it the k(1-phi)/(1-gamma) = -1 identity loses digits to cancellation
    p = repl(base_params, Phi=0.8, rho1=-0.5, gamma=0.2001)
    with pytest.raises(DegenerateK):
        derive_k_phi(0.2001, 0.8, -0.5)
    with pytest.raises(SolverError):
        ExactSolver(p)
    assert not validate(p).ok


def test_exact_coeffs_unit_phi_is_typed(base_params):
    # 1 - gamma - Phi = 2^-40 exactly, so derive_k_phi's identity holds, but
    # derived phi = 1 + 2^-40 lies inside exact_coeffs' 1e-9 band around 1
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
    assert co.b1 == pytest.approx(0.11006705283559404, rel=1e-14)
    assert co.A1 == pytest.approx(-0.0017197977005561568, rel=1e-13)
    assert co.A2 == pytest.approx(-0.04955598067118805, rel=1e-13)


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
        report = validate(repl(ModelParams(), **junk))
        assert not report.ok
        assert len(report.hard_failures) >= 3
    # the coefficients divide by mu2 and raise delta to phi; validate must
    # report these inputs, not evaluate them
    for junk in (dict(mu2=0.0), dict(mu2=-1.0), dict(delta=0.0, gamma=3.0),
                 dict(lam=-1.0)):
        assert not validate(repl(ModelParams(), **junk)).ok, junk
    # k_bar <= 0 only warns, and the window that divides by it is skipped
    assert validate(dataclasses.replace(ModelParams(), k_bar=0.0)).ok


def _solve_at_t0(solver_cls):
    def run(params):
        solver = solver_cls(params)
        solver.strategy(params.horizon.t0, 1.0, params.market.m0)
        return solver.value(params.horizon.t0, 1.0, params.market.m0)
    return run


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
], ids=["mu2-exact", "mu2-unit", "mu2-cs", "delta-exact", "delta0-exact",
        "delta-unit", "delta-cs", "alpha0-cs", "alpha-cs", "lambda-exact",
        "pole-unit", "lambda0-surplus"])
def test_refusals_are_typed(kw, run, error):
    with pytest.raises(error):
        run(repl(ModelParams(), **kw))


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
