import math

import numpy as np
import pytest

from ricsolver import (
    QuadratureBudgetExceeded,
    QuadratureConfig,
    adaptive_gauss,
    gauss_hermite_mean,
)


def test_adaptive_gauss_oscillatory():
    # int_0^10 sin(x) dx = 1 - cos(10); needs subdivision at default panels
    val = adaptive_gauss(np.sin, 0.0, 10.0)
    assert val == pytest.approx(1.0 - math.cos(10.0), abs=1e-9)


def test_adaptive_gauss_budget():
    quad = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=1)
    with pytest.raises(QuadratureBudgetExceeded):
        adaptive_gauss(lambda x: np.sin(50.0 * x) / (1e-4 + x * x), 0.0, 20.0, quad)


def test_adaptive_gauss_bounds_order():
    with pytest.raises(ValueError):
        adaptive_gauss(np.exp, 1.0, 0.0)


def test_gauss_hermite_lognormal_mean():
    # E[exp(s Z)] = exp(s^2/2) for Z ~ N(0, s^2) with unit-slope integrand
    for s in (0.0, 0.3, 1.0):
        val = gauss_hermite_mean(np.exp, s)
        assert val == pytest.approx(math.exp(0.5 * s * s), rel=1e-12)


def test_gauss_hermite_polynomial_exact():
    # degree-3 polynomial: E[Z^2] = s^2, E[Z^3] = 0, with few nodes
    val = gauss_hermite_mean(lambda z: z**2 + z**3, 0.7, n=4)
    assert val == pytest.approx(0.49, rel=1e-13)


def test_gauss_hermite_negative_std():
    with pytest.raises(ValueError):
        gauss_hermite_mean(np.exp, -0.1)
