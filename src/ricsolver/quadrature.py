"""Adaptive Gauss-Legendre quadrature for smooth, vector-valued integrands.

Integrands are called with a numpy array of abscissae and must return either
shape (n,) or (n, k); all k components are integrated in one pass and the
error control is applied to the max-norm across components. The adaptive
driver compares a low/high Gauss pair per panel and bisects the worst panel
until the combined error estimate meets tolerance, which is the right shape
for the smooth exponential integrands this package produces (no endpoint
singularities, no oscillation).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureBudgetExceeded


@dataclass(frozen=True)
class QuadratureConfig:
    """Error targets and refinement budget for adaptive integration."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_subdivisions: int = 400

    def __post_init__(self) -> None:
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ValueError(
                f"tolerances must be positive, got abs_tol={self.abs_tol}, "
                f"rel_tol={self.rel_tol}"
            )
        if self.max_subdivisions < 1:
            raise ValueError(f"max_subdivisions must be >= 1, got {self.max_subdivisions}")


DEFAULT_QUAD = QuadratureConfig()

# ---------------------------------------------------------------- #
# Gauss-Legendre rules, cached by node count

_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    try:
        return _RULES[n]
    except KeyError:
        pair = np.polynomial.legendre.leggauss(n)
        _RULES[n] = pair
        return pair


def _panel(f, lo: float, hi: float, n_lo: int, n_hi: int):
    """Evaluate the low/high pair on one panel; returns (I_hi, err)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    x1, w1 = _rule(n_lo)
    x2, w2 = _rule(n_hi)
    y1 = np.asarray(f(mid + half * x1))
    y2 = np.asarray(f(mid + half * x2))
    i1 = half * np.tensordot(w1, y1, axes=(0, 0))
    i2 = half * np.tensordot(w2, y2, axes=(0, 0))
    return i2, float(np.max(np.abs(i2 - i1)))


def adaptive_gauss(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    quad: QuadratureConfig = DEFAULT_QUAD,
    n_lo: int = 16,
    n_hi: int = 32,
):
    """Integrate f over [a, b] to quad's tolerances.

    Returns a float for scalar integrands, an ndarray of component integrals
    otherwise. Raises QuadratureBudgetExceeded if the error estimate cannot
    be brought under max(abs_tol, rel_tol*|I|) within max_subdivisions
    bisections.
    """
    if b < a:
        raise ValueError(f"integration bounds out of order: a={a} > b={b}")
    if b == a:
        probe = np.asarray(f(np.array([a])))
        return 0.0 if probe.ndim == 1 else np.zeros(probe.shape[1])

    value, err = _panel(f, a, b, n_lo, n_hi)
    # heap entries: (-err, tiebreak, lo, hi, value, err)
    heap = [(-err, 0, a, b, value, err)]
    tiebreak = 1
    splits = 0
    while True:
        total = sum(entry[4] for entry in heap)
        total_err = sum(entry[5] for entry in heap)
        tol = max(quad.abs_tol, quad.rel_tol * float(np.max(np.abs(total))))
        if total_err <= tol:
            return float(total) if np.ndim(total) == 0 else total
        if splits >= quad.max_subdivisions:
            raise QuadratureBudgetExceeded(
                f"error estimate {total_err:.3e} > tolerance {tol:.3e} "
                f"after {splits} subdivisions on [{a}, {b}]"
            )
        _, _, lo, hi, _, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        for sub_lo, sub_hi in ((lo, mid), (mid, hi)):
            v, e = _panel(f, sub_lo, sub_hi, n_lo, n_hi)
            heapq.heappush(heap, (-e, tiebreak, sub_lo, sub_hi, v, e))
            tiebreak += 1
        splits += 1
