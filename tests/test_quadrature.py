import math

import numpy as np
import pytest

from ricsolver import (
    QuadratureBudgetExceeded,
    QuadratureConfig,
    adaptive_gauss,
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
