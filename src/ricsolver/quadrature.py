"""Adaptive Gauss-Legendre quadrature for smooth, vector-valued integrands.

Integrands are called with a numpy array of abscissae and must return either
shape (n,) or (n, k); all k components are integrated in one pass and the
error control is applied to the max-norm across components. The adaptive
driver compares a low/high Gauss pair per panel and bisects the worst panel
until the combined error estimate meets tolerance.  Only uniteis.coeff_H,
the pointwise reference for H, integrates with it: every g, strategy and
coefficient of the solvers is closed form or a Chebyshev series.
"""

from __future__ import annotations

import heapq
from functools import cache
from typing import Callable

import numpy as np

from .errors import QuadratureBudgetExceeded

# Error targets and bisection budget of adaptive_gauss.
_ABS_TOL = 1e-10
_REL_TOL = 1e-9
_MAX_SUBDIVISIONS = 400

# ---------------------------------------------------------------- #
# the Gauss-Legendre pair

_N_LO, _N_HI = 16, 32  # the low/high Gauss pair compared on each panel


@cache
def _pair() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both rules' nodes, low then high, and the two weight vectors; built,
    read-only, at the first panel."""
    x_lo, w_lo = np.polynomial.legendre.leggauss(_N_LO)
    x_hi, w_hi = np.polynomial.legendre.leggauss(_N_HI)
    pair = np.concatenate([x_lo, x_hi]), w_lo, w_hi
    for arr in pair:
        arr.flags.writeable = False
    return pair


def _panel(f, lo: float, hi: float):
    """Evaluate the low/high pair on one panel, with one call of f on both
    rules' nodes; returns (I_hi, err)."""
    nodes, w_lo, w_hi = _pair()
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    y = np.asarray(f(mid + half * nodes))
    i1 = half * np.tensordot(w_lo, y[:_N_LO], axes=(0, 0))
    i2 = half * np.tensordot(w_hi, y[_N_LO:], axes=(0, 0))
    return i2, float(np.max(np.abs(i2 - i1)))


def adaptive_gauss(f: Callable[[np.ndarray], np.ndarray], a: float, b: float):
    """Integrate f over [a, b] to the module's tolerances.

    Returns a float for scalar integrands, an ndarray of component integrals
    otherwise. Raises QuadratureBudgetExceeded if the error estimate cannot
    be brought under max(_ABS_TOL, _REL_TOL*|I|) within _MAX_SUBDIVISIONS
    bisections.
    """
    if b < a:
        raise ValueError(f"integration bounds out of order: a={a} > b={b}")
    if b == a:
        probe = np.asarray(f(np.array([a])))
        return 0.0 if probe.ndim == 1 else np.zeros(probe.shape[1])

    value, err = _panel(f, a, b)
    # heap entries: (-err, tiebreak, lo, hi, value, err)
    heap = [(-err, 0, a, b, value, err)]
    tiebreak = 1
    splits = 0
    while True:
        total = sum(entry[4] for entry in heap)
        total_err = sum(entry[5] for entry in heap)
        tol = max(_ABS_TOL, _REL_TOL * float(np.max(np.abs(total))))
        if total_err <= tol:
            return float(total) if np.ndim(total) == 0 else total
        if splits >= _MAX_SUBDIVISIONS:
            raise QuadratureBudgetExceeded(
                f"error estimate {total_err:.3e} > tolerance {tol:.3e} "
                f"after {splits} subdivisions on [{a}, {b}]"
            )
        _, _, lo, hi, _, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        for sub_lo, sub_hi in ((lo, mid), (mid, hi)):
            v, e = _panel(f, sub_lo, sub_hi)
            heapq.heappush(heap, (-e, tiebreak, sub_lo, sub_hi, v, e))
            tiebreak += 1
        splits += 1
