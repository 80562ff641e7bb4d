"""Robust reinsurance-investment-consumption solver.

Closed-form and numerical tooling for an insurer with recursive preferences
and model ambiguity, investing in a risky asset whose drift is driven by a
mean-reverting factor. Three solution modes share one parameter bundle:

  exact:    non-unit EIS closed form (derived phi)
  unit_eis: unit-EIS closed form (phi = 1)
  cs:       log-linearized consumption-wealth approximation

plus finite-difference / Monte Carlo verification and path simulation.
"""

from .cs import CsSolver, cs_reduction, steady_state_w
from .errors import (
    ComplexDiscriminant,
    ConfigError,
    DegenerateK,
    FiniteTimeBlowup,
    FixedPointDivergence,
    InadmissibleParameter,
    NonadmissibleValueSign,
    NonpositiveWealth,
    QuadratureBudgetExceeded,
    SingularLinearSystem,
    SolverError,
    StabilityViolation,
)
from .exact import (
    ExactCoeffs,
    ExactSolver,
    GBundle,
    StrategyPoint,
    ValueDerivs,
    abc_rhs,
    coeff_A,
    coeff_B,
    coeff_C,
    exact_coeffs,
    h_eval,
)
from .params import (
    ClaimDist,
    DerivedCoeffs,
    Horizon,
    InsuranceParams,
    MarketParams,
    ModelParams,
    PreferenceParams,
    ValidationReport,
    default_params,
    derive_coeffs,
    derive_k_phi,
    psi_eval,
    validate,
    wealth_offset,
)
from .quadrature import QuadratureConfig, adaptive_gauss
from .riccati import riccati_zero_ic, riccati_zero_ic_integral
from .simulate import (
    ConditionMReport,
    FactorPaths,
    PathBundle,
    SurplusPath,
    TabulatedStrategy,
    empirical_condition_M,
    simulate_factor,
    simulate_surplus,
    simulate_wealth,
)
from .uniteis import (
    ExpQuadCoeffs,
    UnitEisCoeffs,
    UnitEisSolver,
    glh_rhs,
    glh_state,
    unit_coeffs,
)
from .verify import (
    CheckRow,
    Grid2D,
    SaddleReport,
    abc_bounds_margin,
    abc_ode_residual,
    fd_solve_g,
    hjbi_bracket,
    hjbi_saddle_check,
    mc_feynman_kac,
    mc_g,
    pde_residual,
)

__version__ = "0.1.0"

__all__ = [
    "CheckRow",
    "ClaimDist",
    "ComplexDiscriminant",
    "ConditionMReport",
    "ConfigError",
    "CsSolver",
    "DegenerateK",
    "DerivedCoeffs",
    "ExactCoeffs",
    "ExactSolver",
    "ExpQuadCoeffs",
    "FactorPaths",
    "FiniteTimeBlowup",
    "FixedPointDivergence",
    "GBundle",
    "Grid2D",
    "Horizon",
    "InadmissibleParameter",
    "InsuranceParams",
    "MarketParams",
    "ModelParams",
    "NonadmissibleValueSign",
    "NonpositiveWealth",
    "PathBundle",
    "PreferenceParams",
    "QuadratureBudgetExceeded",
    "QuadratureConfig",
    "SaddleReport",
    "SingularLinearSystem",
    "SolverError",
    "StabilityViolation",
    "StrategyPoint",
    "SurplusPath",
    "TabulatedStrategy",
    "UnitEisCoeffs",
    "UnitEisSolver",
    "ValidationReport",
    "ValueDerivs",
    "abc_bounds_margin",
    "abc_ode_residual",
    "abc_rhs",
    "adaptive_gauss",
    "coeff_A",
    "coeff_B",
    "coeff_C",
    "cs_reduction",
    "default_params",
    "derive_coeffs",
    "derive_k_phi",
    "empirical_condition_M",
    "exact_coeffs",
    "fd_solve_g",
    "glh_rhs",
    "glh_state",
    "h_eval",
    "hjbi_bracket",
    "hjbi_saddle_check",
    "mc_feynman_kac",
    "mc_g",
    "pde_residual",
    "psi_eval",
    "riccati_zero_ic",
    "riccati_zero_ic_integral",
    "simulate_factor",
    "simulate_surplus",
    "simulate_wealth",
    "steady_state_w",
    "unit_coeffs",
    "validate",
    "wealth_offset",
]
