"""Scalar Riccati kernel with zero initial condition.

Every quadratic-in-m ansatz in this package reduces its m^2 coefficient to
the same scalar problem in the lag variable tau = T - t:

    y'(tau) = a y(tau)^2 + b y(tau) + c,    y(0) = 0,

and its m coefficient to a linear equation driven by that y:

    z'(tau) = -(lam - a y(tau)) z(tau) + p y(tau) + q,    z(0) = 0.

When the discriminant b^2 - 4ac is positive y, its running integral and z
are elementary.  All three are arranged around E = exp(-theta tau), which
lives in (0, 1] for tau >= 0, so no growing exponential appears no matter
how large the horizon is.
"""

from __future__ import annotations

import numpy as np

from .errors import ComplexDiscriminant, FiniteTimeBlowup, InadmissibleParameter

__all__ = ["riccati_linear_zero_ic", "riccati_zero_ic", "riccati_zero_ic_integral"]


def _theta_pq(a: float, b: float, c: float) -> tuple[float, float, float]:
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        raise ComplexDiscriminant(
            f"b^2 - 4ac = {disc:.6e} <= 0; the closed form needs a positive "
            "discriminant (two real equilibria)"
        )
    theta = float(np.sqrt(disc))
    P = theta - b
    Q = theta + b
    if P <= 0.0:
        raise FiniteTimeBlowup(
            f"theta - b = {P:.6e} <= 0; y(tau) reaches a pole in finite time "
            "for these coefficients"
        )
    return theta, P, Q


def riccati_zero_ic(tau, a: float, b: float, c: float):
    """y(tau) solving y' = a y^2 + b y + c with y(0) = 0, vectorized in tau.

    y = 2 c (1 - E) / (P + Q E) with theta = sqrt(b^2 - 4ac), P = theta - b,
    Q = theta + b, E = exp(-theta tau).  P > 0 keeps the denominator positive
    for every tau >= 0, so the formula is globally valid there.
    """
    th = np.asarray(tau, dtype=float)
    if not (th >= 0.0).all():  # NaN fails too
        raise InadmissibleParameter(f"riccati_zero_ic needs tau >= 0, got tau = {th}")
    theta, P, Q = _theta_pq(a, b, c)
    E = np.exp(-theta * th)
    out = 2.0 * c * (1.0 - E) / (P + Q * E)
    return out if out.ndim else float(out)


def riccati_zero_ic_integral(tau, a: float, b: float, c: float):
    """int_0^tau y(u) du for the same y, vectorized in tau.

    Equals (2c/P) [tau + (2/Q) ln((P + Q E)/(P + Q))].  The log is evaluated
    as log1p(Q z) with z = expm1(-theta tau)/(P + Q) and switched to its
    series when |Q z| is tiny, so the Q ~ 0 cancellation costs no precision.
    """
    th = np.asarray(tau, dtype=float)
    if not (th >= 0.0).all():  # NaN fails too
        raise InadmissibleParameter(f"riccati_zero_ic_integral needs tau >= 0, got tau = {th}")
    theta, P, Q = _theta_pq(a, b, c)
    z = np.expm1(-theta * th) / (P + Q)
    qz = Q * z
    small = np.abs(qz) < 1e-8
    safe_q = np.where(small, 1.0, Q)
    term = np.where(
        small,
        2.0 * z * (1.0 - 0.5 * qz + qz * qz / 3.0),
        2.0 * np.log1p(np.where(small, 0.0, qz)) / safe_q,
    )
    out = (2.0 * c / P) * (th + term)
    return out if out.ndim else float(out)


def _scaled_growth(k: float, K: float, tau: np.ndarray, decay: np.ndarray) -> np.ndarray:
    """e^{-K tau} (e^{k tau} - 1) / k, with its k = 0 limit tau e^{-K tau},
    given decay = e^{-K tau}.

    expm1 carries the small-|k tau| end; past |k tau| = 1 the difference of
    the two scaled exponentials loses nothing and cannot overflow for k <= K.
    At k = K the first is e^0 = 1 at every finite lag, so no exp is taken.
    """
    if k == 0.0:
        return tau * decay
    kt = k * tau
    near = decay * np.expm1(np.minimum(np.maximum(kt, -1.0), 1.0))
    far = (1.0 if k == K else np.exp((k - K) * tau)) - decay
    return np.where(np.abs(kt) <= 1.0, near, far) / k


def riccati_linear_zero_ic(tau, a: float, b: float, c: float, lam: float, p: float, q: float):
    """z(tau) solving z' = -(lam - a y) z + p y + q with z(0) = 0, where y =
    riccati_zero_ic(tau, a, b, c); vectorized in tau.

    y = -psi'/(a psi) linearizes the Riccati equation with psi = (r+ e^{r- tau}
    - r- e^{r+ tau}) / theta, r+ = Q/2, r- = -P/2, and a psi y = c (e^{r+ tau}
    - e^{r- tau}) / theta carries no 1/a.  The integrating factor
    e^{lam tau} psi is then a sum of two exponentials with rates
    k+- = lam + r+-, so with F(k) = e^{-k+ tau} (e^{k tau} - 1)/k

        z = [(p c + q P/2) F(k+) + (q Q/2 - p c) F(k-)] / [(P + Q E)/2],

    numerator and denominator both scaled by e^{-k+ tau}.  Nothing divides
    by a, so a = 0 is exact.
    """
    th = np.asarray(tau, dtype=float)
    if not (th >= 0.0).all():  # NaN fails too
        raise InadmissibleParameter(f"riccati_linear_zero_ic needs tau >= 0, got tau = {th}")
    theta, P, Q = _theta_pq(a, b, c)
    k_hi = lam + 0.5 * Q
    decay = np.exp(-k_hi * th)
    num = (p * c + 0.5 * q * P) * _scaled_growth(k_hi, k_hi, th, decay) + (
        0.5 * q * Q - p * c
    ) * _scaled_growth(lam - 0.5 * P, k_hi, th, decay)
    out = 2.0 * num / (P + Q * np.exp(-theta * th))
    return out if out.ndim else float(out)
