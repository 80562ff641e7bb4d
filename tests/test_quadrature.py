import math

import numpy as np
import pytest

import ricsolver.quadrature as quadrature_mod
from ricsolver import QuadratureBudgetExceeded, adaptive_gauss


def test_adaptive_gauss_oscillatory():
    # int_0^10 sin(x) dx = 1 - cos(10); needs subdivision at default panels
    val = adaptive_gauss(np.sin, 0.0, 10.0)
    assert val == pytest.approx(1.0 - math.cos(10.0), abs=1e-9)


def test_adaptive_gauss_budget(monkeypatch):
    monkeypatch.setattr(quadrature_mod, "_MAX_SUBDIVISIONS", 1)
    with pytest.raises(QuadratureBudgetExceeded):
        adaptive_gauss(lambda x: np.sin(50.0 * x) / (1e-4 + x * x), 0.0, 20.0)


def test_adaptive_gauss_bounds_order():
    with pytest.raises(ValueError):
        adaptive_gauss(np.exp, 1.0, 0.0)
