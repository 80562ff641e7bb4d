"""Model parameters, derived structural coefficients, and validation.

Conventions used throughout the package:
  - all rates (r, a, alpha, delta, lambda) are per year; no unit layer
  - the risky asset earns sigma*m + a on top of nothing, i.e. its drift is
    sigma*m(t) + a with m an Ornstein-Uhlenbeck factor
      dm = -alpha*m dt + beta dW2,   corr(dW1, dW2) = rho1
  - the insurer keeps a fraction q of each claim (proportional reinsurance
    priced by expected value with loading theta1) and consumes at rate c
  - preferences are recursive with relative risk aversion gamma (> 0, != 1)
    and elasticity of intertemporal substitution phi; ambiguity aversion is
    Phi >= 0, entering through the scaled penalty Psi = Phi/((1-gamma)v)

In the exact (non-unit-EIS) mode, phi is not free: the closed form requires

    k   = 1 / (1 - Phi/(1-gamma) + (1-gamma-Phi)^2 rho1^2 / ((1-gamma)(Phi+gamma)))
    phi = 2 - gamma - Phi + (1-gamma-Phi)^2 rho1^2 / (Phi+gamma)

which satisfy k*(1-phi)/(1-gamma) = -1; that identity is what makes the
reduced equation for g linear. derive_k_phi enforces it to 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import (
    ComplexDiscriminant,
    DegenerateK,
    FiniteTimeBlowup,
    InadmissibleParameter,
    NonadmissibleValueSign,
    SolverError,
)

# Division guard shared by every (Phi+gamma) denominator.
_PHI_GAMMA_FLOOR = 1e-12


# ---------------------------------------------------------------- #
# 1. Parameter records

@dataclass(frozen=True)
class ClaimDist:
    """Claim-size distribution descriptor: family name plus parameters.

    Supported families:
      gamma:       params = (shape, scale);  mean shape*scale
      exponential: params = (scale,)
      constant:    params = (value,)
    """

    family: str = "gamma"
    params: Tuple[float, ...] = (4.0, 0.25)

    def mean(self) -> float:
        if self.family == "gamma":
            shape, scale = self.params
            return shape * scale
        if self.family == "exponential":
            return self.params[0]
        if self.family == "constant":
            return self.params[0]
        raise ValueError(f"unknown claim family {self.family!r}")

    def second_moment(self) -> float:
        if self.family == "gamma":
            shape, scale = self.params
            return shape * (shape + 1.0) * scale**2
        if self.family == "exponential":
            return 2.0 * self.params[0] ** 2
        if self.family == "constant":
            return self.params[0] ** 2
        raise ValueError(f"unknown claim family {self.family!r}")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.family == "gamma":
            shape, scale = self.params
            return rng.gamma(shape, scale, size)
        if self.family == "exponential":
            return rng.exponential(self.params[0], size)
        if self.family == "constant":
            return np.full(size, self.params[0])
        raise ValueError(f"unknown claim family {self.family!r}")


@dataclass(frozen=True)
class MarketParams:
    """Market block: riskless rate, risky drift/vol, factor dynamics."""

    r: float = 0.02        # riskless rate (1/yr)
    a: float = 0.07        # risky drift constant (1/yr); drift is sigma*m + a
    sigma: float = 0.2     # risky volatility (1/sqrt yr), > 0
    beta: float = 0.25     # factor volatility (1/sqrt yr), > 0
    alpha: float = 5.0     # factor mean-reversion rate (1/yr), > 0
    rho1: float = -0.5     # corr between asset and factor noise, |rho1| <= 1
    m0: float = 0.0        # initial factor level


@dataclass(frozen=True)
class InsuranceParams:
    """Insurance block: premium income, reinsurance loading, claim moments.

    The loading condition lambda*mu1 < b < (1+theta1)*lambda*mu1 keeps both
    full reinsurance and no insurance business from being trivially optimal.
    The default b = 1.1 is a calibration choice (mid-range of the admissible
    interval for the default claim intensity/mean), not an external datum.
    """

    b: float = 1.1          # premium income rate (wealth/yr)
    theta1: float = 0.2     # reinsurer safety loading, > 0
    lam: float = 1.0        # claim arrival intensity (1/yr)
    mu1: float = 1.0        # mean claim size (wealth)
    mu2: float = 1.25       # second moment of claim size (wealth^2)
    claim_dist: ClaimDist = field(default_factory=ClaimDist)


@dataclass(frozen=True)
class PreferenceParams:
    """Preference block: risk aversion, impatience, EIS, ambiguity aversion.

    phi_eis = None means "derive phi from (gamma, Phi, rho1)"; a user-set
    value that disagrees with the derived one is reported by validate() and
    then overridden wherever the exact closed form is evaluated.
    """

    gamma: float = 1.2              # relative risk aversion, > 0 and != 1
    delta: float = 0.08             # time-preference rate (1/yr), > 0
    phi_eis: Optional[float] = None  # EIS; None -> derived
    Phi: float = 0.8                # ambiguity aversion, >= 0


@dataclass(frozen=True)
class Horizon:
    """Planning window [t0, T], 0 <= t0 < T."""

    t0: float = 0.5
    T: float = 1.0


@dataclass(frozen=True)
class ModelParams:
    """Full parameter bundle. Immutable; safe to share across threads."""

    market: MarketParams = field(default_factory=MarketParams)
    insurance: InsuranceParams = field(default_factory=InsuranceParams)
    preference: PreferenceParams = field(default_factory=PreferenceParams)
    horizon: Horizon = field(default_factory=Horizon)
    k_bar: float = 2.1  # auxiliary constant for the (H1)-(H3) checks


def default_params() -> ModelParams:
    """Baseline calibration used by examples and tests."""
    return ModelParams()


# ---------------------------------------------------------------- #
# 2. Derived structural coefficients

@dataclass(frozen=True)
class DerivedCoeffs:
    """Structural constants of the closed-form solution.

    k:     exponent on g in v = x^(1-gamma) g^k / (1-gamma)
    phi:   derived EIS
    kappa: effective reversion, alpha - (1-gamma-Phi)*beta*rho1/(Phi+gamma)
    Delta: 2*sqrt(kappa^2 + 2*beta^2*b0), discriminant of the C-Riccati
    b0:    -(1-gamma)/(2k(Phi+gamma)); > 0 when gamma > 1
    b1:    scale of the |B(t,s)| <= |b1|*(s-t) bound
    A1, A2: constants of the lower bound A >= A1*(T-t)*(s-t) + A2*(s-t)
    """

    k: float
    phi: float
    kappa: float
    Delta: float
    b0: float
    b1: float
    A1: float
    A2: float


def derive_k_phi(gamma: float, Phi: float, rho1: float) -> Tuple[float, float]:
    """Derive (k, phi) from (gamma, Phi, rho1).

    Raises InadmissibleParameter at gamma = 1 or Phi + gamma at or below
    its floor, and DegenerateK when the k denominator is within 1e-14 of
    zero, or when the identity k(1-phi)/(1-gamma) = -1 fails beyond 1e-12.  The
    identity holds algebraically, but next to derived phi = 1 the k
    denominator and 1 - phi both pass through zero, each computed with
    cancellation, so the product loses digits (Phi = 0.8, rho1 = -0.5 puts
    phi = 1 at gamma = 0.2; gamma = 0.2001 already fails the check).
    """
    if gamma == 1.0:
        raise InadmissibleParameter("gamma = 1 is excluded; use the unit-EIS solver for phi = 1")
    if Phi + gamma <= _PHI_GAMMA_FLOOR:
        raise InadmissibleParameter(f"Phi + gamma = {Phi + gamma} must exceed {_PHI_GAMMA_FLOOR}")
    one_g = 1.0 - gamma
    den = 1.0 - Phi / one_g + (one_g - Phi) ** 2 * rho1**2 / (one_g * (Phi + gamma))
    if abs(den) < 1e-14:
        raise DegenerateK(f"k denominator {den:.3e} is numerically zero")
    k = 1.0 / den
    phi = 2.0 - gamma - Phi + (one_g - Phi) ** 2 * rho1**2 / (Phi + gamma)
    identity = k * (1.0 - phi) / one_g + 1.0
    if abs(identity) > 1e-12:
        raise DegenerateK(
            f"k(1-phi)/(1-gamma) + 1 = {identity:.3e} exceeds 1e-12; "
            f"derived phi = {phi!r} is too close to 1"
        )
    return k, phi


def require_inputs(params: ModelParams) -> None:
    """Raise InadmissibleParameter where every closed form breaks down:
    sigma = 0 (the loadings divide by sigma), mu2 <= 0 (the retention
    divides by it), lambda < 0 (xi3 takes its root) or delta <= 0
    (delta^phi and ln delta)."""
    mk, ins, pf = params.market, params.insurance, params.preference
    if mk.sigma == 0.0:
        raise InadmissibleParameter("sigma = 0 leaves the risky asset without volatility")
    if ins.mu2 <= 0.0:
        raise InadmissibleParameter(f"mu2 = {ins.mu2!r}: the claim second moment must be positive")
    if ins.lam < 0.0:
        raise InadmissibleParameter(f"lambda = {ins.lam!r}: the claim arrival rate cannot be negative")
    if pf.delta <= 0.0:
        raise InadmissibleParameter(f"delta = {pf.delta!r}: time preference must be positive")


def derive_coeffs(params: ModelParams) -> DerivedCoeffs:
    """Compute every structural constant of the exact solution.

    Raises InadmissibleParameter wherever require_inputs or derive_k_phi
    does, ComplexDiscriminant when kappa^2 + 2*beta^2*b0 < 0 (then the
    C-Riccati has no real solution on the horizon and the closed form does
    not exist for these parameters), and FiniteTimeBlowup when 2*kappa + Delta <= 0 (C(t, s) blows up in
    finite time).
    """
    mk, pf, ins = params.market, params.preference, params.insurance
    require_inputs(params)
    gamma, Phi, rho1 = pf.gamma, pf.Phi, mk.rho1
    k, phi = derive_k_phi(gamma, Phi, rho1)
    one_g = 1.0 - gamma
    pg = Phi + gamma

    kappa = mk.alpha - (one_g - Phi) * mk.beta * rho1 / pg
    b0 = -one_g / (2.0 * k * pg)
    disc = kappa**2 + 2.0 * mk.beta**2 * b0
    if disc < 0.0:
        raise ComplexDiscriminant(
            f"kappa^2 + 2 beta^2 b0 = {disc:.6e} < 0; no real closed form"
        )
    Delta = 2.0 * math.sqrt(disc)
    if 2.0 * kappa + Delta <= 0.0:
        raise FiniteTimeBlowup(
            f"2*kappa + Delta = {2.0 * kappa + Delta:.6e} <= 0; "
            "C(t, s) blows up in finite time for these parameters"
        )

    # Bound constants. b1 scales the B bound; A1 = -h2_0*b1 and A2 is the
    # constant drift of A minus the C-bound tail. The drift must include the
    # time-preference term -delta*phi (it sits in the A equation through
    # ((1-gamma)/k) * delta/(1-1/phi) = delta*phi); without it the stated
    # lower bound on A is violated whenever delta*phi > 0.
    h1_1 = one_g * (mk.a - mk.r) / (k * pg * mk.sigma)
    h2_0 = (one_g - Phi) * (mk.a - mk.r) * mk.beta * rho1 / (pg * mk.sigma)
    bracket = 4.0 * (one_g - Phi) * b0 * k * mk.beta * rho1 / (one_g * (2.0 * kappa + Delta)) - 1.0
    b1 = h1_1 * bracket
    A1 = -h2_0 * b1
    A2 = (
        (one_g / k)
        * (
            mk.r
            + (mk.a - mk.r) ** 2 / (2.0 * pg * mk.sigma**2)
            + ins.lam * ins.theta1**2 * ins.mu1**2 / (2.0 * pg * ins.mu2)
        )
        - pf.delta * phi
        - 2.0 * b0 * mk.beta**2 / (2.0 * kappa + Delta)
    )

    return DerivedCoeffs(k=k, phi=phi, kappa=kappa, Delta=Delta, b0=b0, b1=b1, A1=A1, A2=A2)


# ---------------------------------------------------------------- #
# 3. Wealth transform and penalty scaling

def wealth_offset(x1: float, t: float, params: ModelParams) -> float:
    """Total wealth x from insurance surplus x1 at time t.

    Adds the discounted value of the net premium margin b - (1+theta1)
    *lambda*mu1 over [t, T]:  x = x1 + margin * (1 - e^{-r(T-t)})/r, with
    the r -> 0 limit margin*(T-t).
    """
    hz, ins, r = params.horizon, params.insurance, params.market.r
    if t > hz.T:
        raise ValueError(f"t = {t} is past the terminal time T = {hz.T}")
    margin = ins.b - (1.0 + ins.theta1) * ins.lam * ins.mu1
    tau = hz.T - t
    if abs(r) < 1e-12:
        return x1 + margin * tau
    return x1 + margin * (1.0 - math.exp(-r * tau)) / r


def psi_eval(v: float, pref: PreferenceParams) -> float:
    """Ambiguity penalty scaling Psi = Phi / ((1-gamma) v).

    Requires (1-gamma)*v > 0 (power utility keeps (1-gamma)v = x^(1-gamma)g^k
    positive); raises NonadmissibleValueSign otherwise.
    """
    signed = (1.0 - pref.gamma) * v
    if signed <= 0.0:
        raise NonadmissibleValueSign(
            f"(1-gamma)*v = {signed:.6e} must be positive for Psi to exist"
        )
    return pref.Phi / signed


# ---------------------------------------------------------------- #
# 4. Validation

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    severity: str  # "error" hard-fails, "warning" degrades, "info" annotates
    message: str

    def line(self) -> str:
        status = "pass" if self.passed else ("FAIL" if self.severity == "error" else "warn")
        return f"[{status}] {self.name}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    checks: Tuple[CheckResult, ...]

    @property
    def hard_failures(self) -> Tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed and c.severity == "error")

    @property
    def ok(self) -> bool:
        return not self.hard_failures

    def __str__(self) -> str:
        return "\n".join(c.line() for c in self.checks)


def _a31_case(gamma: float, phi: float) -> Tuple[Optional[str], str]:
    """Classify (gamma, phi) into the aggregator monotonicity cases.

    (i)   gamma > 1, phi > 1
    (ii)  gamma > 1, phi < 1 and gamma*phi <= 1
    (iii) gamma < 1, phi < 1
    (iv)  gamma < 1, phi > 1 and gamma*phi >= 1
    Returns (case or None, diagnostic message).
    """
    gp = gamma * phi
    if gamma > 1.0 and phi > 1.0:
        return "i", f"gamma={gamma:g} > 1 and phi={phi:g} > 1"
    if gamma > 1.0 and phi < 1.0:
        if gp <= 1.0:
            return "ii", f"gamma={gamma:g} > 1, phi={phi:g} < 1, gamma*phi={gp:g} <= 1"
        return None, f"gamma>1 and phi<1 but gamma*phi={gp:g} > 1 breaks case (ii)"
    if gamma < 1.0 and phi < 1.0:
        return "iii", f"gamma={gamma:g} < 1 and phi={phi:g} < 1"
    if gamma < 1.0 and phi > 1.0:
        if gp >= 1.0:
            return "iv", f"gamma={gamma:g} < 1, phi={phi:g} > 1, gamma*phi={gp:g} >= 1"
        return None, f"gamma<1 and phi>1 but gamma*phi={gp:g} < 1 breaks case (iv)"
    return None, f"no case covers gamma={gamma:g}, phi={phi:g}"


def validate(params: ModelParams, mode: str = "exact", fallbacks: Tuple[str, ...] = ()) -> ValidationReport:
    """Run every admissibility and assumption check; never raises.

    mode is one of exact | unit_eis | cs and only affects how phi_eis is
    interpreted. Hard failures (severity "error") are the ones cmd_validate
    exits nonzero on; sufficient-condition checks degrade to warnings.
    """
    mk, ins, pf, hz = params.market, params.insurance, params.preference, params.horizon
    out: list[CheckResult] = []

    def add(name: str, passed: bool, severity: str, message: str) -> None:
        out.append(CheckResult(name, passed, severity, message))

    # -- positivity / range ------------------------------------- #
    add("sigma_positive", mk.sigma > 0.0, "error", f"sigma = {mk.sigma:g}")
    if mk.beta > 0.0:
        add("beta_positive", True, "error", f"beta = {mk.beta:g}")
    elif mk.beta == 0.0:
        add("beta_positive", False, "warning", "beta = 0 disables factor noise (degenerate)")
    else:
        add("beta_positive", False, "error", f"beta = {mk.beta:g} < 0")
    add("alpha_positive", mk.alpha > 0.0, "error", f"alpha = {mk.alpha:g}")
    add(
        "risk_premium",
        mk.a > mk.r,
        "warning",
        f"a = {mk.a:g} vs r = {mk.r:g} (a <= r makes the risky premium degenerate)",
    )
    add("rho1_range", abs(mk.rho1) <= 1.0, "error", f"|rho1| = {abs(mk.rho1):g}")
    add("horizon_order", 0.0 <= hz.t0 < hz.T, "error", f"t0 = {hz.t0:g}, T = {hz.T:g}")
    add("delta_positive", pf.delta > 0.0, "error", f"delta = {pf.delta:g}")
    add("Phi_nonnegative", pf.Phi >= 0.0, "error", f"Phi = {pf.Phi:g}")
    if pf.gamma == 1.0:
        add(
            "gamma_admissible",
            False,
            "error",
            "gamma = 1 is excluded from this mode; use --mode unit_eis (unit EIS)",
        )
    else:
        add("gamma_admissible", pf.gamma > 0.0, "error", f"gamma = {pf.gamma:g}")
    add(
        "phi_gamma_floor",
        pf.Phi + pf.gamma > _PHI_GAMMA_FLOOR,
        "error",
        f"Phi + gamma = {pf.Phi + pf.gamma:g}",
    )

    # -- insurance block ---------------------------------------- #
    add("lambda_positive", ins.lam > 0.0, "error", f"lambda = {ins.lam:g}")
    add("mu1_positive", ins.mu1 > 0.0, "error", f"mu1 = {ins.mu1:g}")
    add(
        "mu2_vs_mu1",
        ins.mu2 >= ins.mu1**2 > 0.0,
        "error",
        f"mu2 = {ins.mu2:g} vs mu1^2 = {ins.mu1**2:g}",
    )
    add("theta1_positive", ins.theta1 > 0.0, "error", f"theta1 = {ins.theta1:g}")
    lo, hi = ins.lam * ins.mu1, (1.0 + ins.theta1) * ins.lam * ins.mu1
    add(
        "premium_loading",
        lo < ins.b < hi,
        "error",
        f"need lambda*mu1 = {lo:g} < b = {ins.b:g} < (1+theta1)*lambda*mu1 = {hi:g}",
    )
    try:
        cm1, cm2 = ins.claim_dist.mean(), ins.claim_dist.second_moment()
        moments_ok = (
            abs(cm1 - ins.mu1) <= 1e-9 * max(1.0, abs(ins.mu1))
            and abs(cm2 - ins.mu2) <= 1e-9 * max(1.0, abs(ins.mu2))
        )
        add(
            "claim_moments",
            moments_ok,
            "warning",
            f"{ins.claim_dist.family}{ins.claim_dist.params} has mean {cm1:g}, "
            f"second moment {cm2:g} vs (mu1, mu2) = ({ins.mu1:g}, {ins.mu2:g})",
        )
    except ValueError as exc:
        add("claim_moments", False, "warning", str(exc))

    # -- derived coefficients ----------------------------------- #
    k = phi = None
    try:
        k, phi = derive_k_phi(pf.gamma, pf.Phi, mk.rho1)
        add("k_phi_derivable", True, "error", f"k = {k:.10g}, phi = {phi:.10g}")
    except SolverError as exc:
        add("k_phi_derivable", False, "error", str(exc))

    if phi is not None:
        if mode == "unit_eis":
            add("phi_mode", True, "info", "unit-EIS mode pins phi = 1; derived phi unused")
        else:
            if pf.phi_eis is None:
                add("phi_mode", True, "info", f"phi_eis not set; derived phi = {phi:.10g} used")
            elif abs(pf.phi_eis - phi) > 1e-9:
                add(
                    "phi_mode",
                    False,
                    "warning",
                    f"user phi_eis = {pf.phi_eis:g} disagrees with derived {phi:.10g}; "
                    "the derived value is used by the exact closed form",
                )
            else:
                add("phi_mode", True, "info", f"user phi_eis matches derived {phi:.10g}")
            add(
                "phi_not_unit",
                abs(phi - 1.0) > 1e-9,
                "error",
                f"derived phi = {phi:.10g}; values within 1e-9 of 1 require --mode unit_eis",
            )
        case, diag = _a31_case(pf.gamma, phi)
        add(
            "aggregator_case",
            case is not None,
            "warning",
            f"case ({case}) holds: {diag}" if case else diag,
        )

    coeffs = None
    if k is not None and mk.sigma > 0.0:
        try:
            coeffs = derive_coeffs(params)
            add(
                "discriminant_real",
                True,
                "error",
                f"kappa = {coeffs.kappa:.10g}, Delta = {coeffs.Delta:.10g}",
            )
        except InadmissibleParameter:
            pass  # mu2, lambda or delta: failed among the input checks above
        except ComplexDiscriminant as exc:
            add("discriminant_real", False, "error", str(exc))
        except FiniteTimeBlowup as exc:
            add("c_no_blowup", False, "error", str(exc))
    if coeffs is not None and pf.gamma > 1.0:
        add("b0_positive", coeffs.b0 > 0.0, "warning", f"b0 = {coeffs.b0:.10g} (gamma > 1)")

    # -- sufficient conditions for the verification argument ----- #
    # These gate the optimality proof, not formula evaluation; failures warn.
    kb = params.k_bar
    add("k_bar_above_2", kb > 2.0, "warning", f"k_bar = {kb:g} (needs > 2, ideally close to 2)")
    if k is not None and kb > 0.0:
        h1_hi = min(k + 1.5, 1.0 / kb + 1.0)
        h1_ok = (1.0 < pf.gamma < h1_hi) and mk.rho1 <= 0.0
        add(
            "suff_risk_aversion_window",
            h1_ok,
            "warning",
            f"1 < gamma = {pf.gamma:g} < min(k+3/2, 1/k_bar+1) = {h1_hi:.6g} "
            f"and rho1 = {mk.rho1:g} <= 0",
        )
    T = hz.T
    h2_lhs = mk.alpha * (pf.Phi + pf.gamma) ** 2
    h2_rhs = 8.0 * mk.beta**2 * T * max(pf.Phi**2, kb**2 * (pf.gamma - 1.0) ** 2)
    add(
        "suff_reversion_vs_noise",
        h2_lhs > h2_rhs,
        "warning",
        f"alpha(Phi+gamma)^2 = {h2_lhs:.6g} > 8 beta^2 T max(Phi^2, k_bar^2(gamma-1)^2) = {h2_rhs:.6g}",
    )
    if k is not None and mk.sigma > 0.0 and pf.Phi + pf.gamma > _PHI_GAMMA_FLOOR:
        pg = pf.Phi + pf.gamma
        h3_rhs = 16.0 * kb * (pf.gamma - 1.0) * mk.beta**2 * T * (
            (2.0 * k + (pf.gamma - 1.0) * mk.sigma) / (k * pg * mk.sigma)
            + (2.0 * pf.Phi + kb * (pf.gamma - 1.0) + 1.0) / pg**2
        ) + (kb * (1.0 - pf.gamma) - pf.Phi) * mk.beta * mk.rho1 / pg
        add(
            "suff_reversion_floor",
            mk.alpha > h3_rhs,
            "warning",
            f"alpha = {mk.alpha:.6g} > bound = {h3_rhs:.6g}",
        )

    for note in fallbacks:
        add("config_fallback", True, "info", note)

    return ValidationReport(tuple(out))
