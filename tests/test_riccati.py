import dataclasses

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ricsolver import (
    ComplexDiscriminant,
    Horizon,
    ModelParams,
    abc_rhs,
    coeff_B,
    cs_reduction,
    exact_coeffs,
    glh_rhs,
    riccati_zero_ic,
    riccati_zero_ic_integral,
    unit_coeffs,
)
from ricsolver.uniteis import coeff_L


def rk4(f, y0, taus):
    """Dense fixed-step RK4; the independent oracle for the closed forms."""
    y = y0
    out = [y0]
    for lo, hi in zip(taus[:-1], taus[1:]):
        h = hi - lo
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    return np.array(out)


CASES = [
    # (a, b, c): y' = a y^2 + b y + c, y(0) = 0, discriminant b^2 - 4ac > 0
    (0.125, -9.875, 0.21875),
    (0.5, -3.0, 1.0),
    (1.5, -2.0, -0.4),
    (-0.2, -0.5, 0.05),
]


@pytest.mark.parametrize("a,b,c", CASES)
def test_closed_form_matches_rk4(a, b, c):
    taus = np.linspace(0.0, 1.0, 2001)
    ode = rk4(lambda y: a * y * y + b * y + c, 0.0, taus)
    closed = riccati_zero_ic(taus, a, b, c)
    assert np.max(np.abs(closed - ode)) < 1e-10


@pytest.mark.parametrize("a,b,c", CASES)
def test_integral_matches_trapezoid(a, b, c):
    taus = np.linspace(0.0, 1.0, 20001)
    y = riccati_zero_ic(taus, a, b, c)
    ref = np.trapezoid(y, taus)
    val = riccati_zero_ic_integral(1.0, a, b, c)
    assert val == pytest.approx(ref, abs=1e-9)


def test_zero_at_origin():
    assert riccati_zero_ic(0.0, 0.3, -2.0, 0.4) == 0.0
    assert riccati_zero_ic_integral(0.0, 0.3, -2.0, 0.4) == 0.0


def test_vectorized_tau():
    taus = np.array([0.0, 0.25, 0.5])
    vals = riccati_zero_ic(taus, 0.125, -9.875, 0.21875)
    assert vals.shape == (3,)
    assert vals[0] == 0.0
    assert np.all(np.diff(vals) > 0.0)  # constant source c > 0 pushes y up


def test_complex_discriminant_raises():
    with pytest.raises(ComplexDiscriminant):
        riccati_zero_ic(0.5, 1.0, 0.0, 1.0)  # b^2 - 4ac = -4


# ---------------------------------------------------------------- #
# linear companion: B (exact mode) and L (unit-EIS and cs reductions)

_LAGS = np.array([0.3, 1.0, 3.0, 10.0, 50.0, 200.0])


def _model(beta, gamma):
    base = ModelParams()
    return dataclasses.replace(
        base,
        market=dataclasses.replace(base.market, beta=beta),
        preference=dataclasses.replace(base.preference, gamma=gamma),
        horizon=Horizon(t0=0.0, T=float(_LAGS[-1])),
    )


def _lag_ode(rhs):
    """(quadratic, linear) coefficient pair at _LAGS by DOP853 on the lag ODE."""
    sol = solve_ivp(
        lambda tau, y: -np.asarray(rhs(*y)), (0.0, _LAGS[-1]), [0.0, 0.0],
        method="DOP853", rtol=1e-13, atol=1e-16, t_eval=_LAGS,
    )
    assert sol.success
    return sol.y[1]


@pytest.mark.parametrize("reduction", ["exact", "unit", "cs"])
@pytest.mark.parametrize("gamma", [0.5, 1.2, 3.0])
@pytest.mark.parametrize("beta", [0.0, 1e-6, 0.25])
def test_linear_coefficient_matches_solve_ivp(beta, gamma, reduction):
    # lags up to 200, far past the transient of the integrating factor;
    # beta -> 0 drives Delta -> 2 kappa, and beta = 0 zeroes the Riccati a
    params = _model(beta, gamma)
    if reduction == "exact":
        co = exact_coeffs(params)
        got = coeff_B(0.0, _LAGS, co)

        def rhs(C, B):
            _, dB, dC = abc_rhs(0.0, B, C, co)
            return dC, dB

        ref = _lag_ode(rhs)
    else:
        red = unit_coeffs(params) if reduction == "unit" else cs_reduction(
            params.preference.delta, exact_coeffs(params)
        )
        got = coeff_L(red.params.horizon.T - _LAGS, red)
        ref = _lag_ode(lambda G, L: glh_rhs(G, L, 0.0, red)[:2])
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))), (got, ref)
