"""riccati_pair against the two closed forms it replaces, bit for bit.

The reference below is the pair of formulas as they stood before G and L
were taken in one pass: riccati_zero_ic for y and the since-retired
riccati_linear_zero_ic for z, each with its own tau check, theta, E and
denominator P + Q E.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ricsolver import ComplexDiscriminant, FiniteTimeBlowup, InadmissibleParameter  # noqa: E402
from ricsolver.exact import _lag_nodes  # noqa: E402
from ricsolver.riccati import riccati_pair  # noqa: E402


def _ref_theta_pq(a, b, c):
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        raise ComplexDiscriminant(f"b^2 - 4ac = {disc:.6e} <= 0")
    theta = float(np.sqrt(disc))
    P = theta - b
    Q = theta + b
    if P <= 0.0:
        raise FiniteTimeBlowup(f"theta - b = {P:.6e} <= 0")
    return theta, P, Q


def _ref_y(tau, a, b, c):
    th = np.asarray(tau, dtype=float)
    if not (th >= 0.0).all():
        raise InadmissibleParameter(f"tau = {th}")
    theta, P, Q = _ref_theta_pq(a, b, c)
    E = np.exp(-theta * th)
    out = 2.0 * c * (1.0 - E) / (P + Q * E)
    return out if out.ndim else float(out)


def _ref_scaled_growth(k, K, tau, decay):
    if k == 0.0:
        return tau * decay
    kt = k * tau
    near = decay * np.expm1(np.minimum(np.maximum(kt, -1.0), 1.0))
    far = (1.0 if k == K else np.exp((k - K) * tau)) - decay
    return np.where(np.abs(kt) <= 1.0, near, far) / k


def _ref_z(tau, a, b, c, lam, p, q):
    th = np.asarray(tau, dtype=float)
    if not (th >= 0.0).all():
        raise InadmissibleParameter(f"tau = {th}")
    theta, P, Q = _ref_theta_pq(a, b, c)
    k_hi = lam + 0.5 * Q
    decay = np.exp(-k_hi * th)
    num = (p * c + 0.5 * q * P) * _ref_scaled_growth(k_hi, k_hi, th, decay) + (
        0.5 * q * Q - p * c
    ) * _ref_scaled_growth(lam - 0.5 * P, k_hi, th, decay)
    out = 2.0 * num / (P + Q * np.exp(-theta * th))
    return out if out.ndim else float(out)


def _bits(x):
    return type(x), np.asarray(x, dtype=float).tobytes()


def _number(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_subnormal=False)


@st.composite
def admissible(draw):
    """(a, b, c, lam, p, q) with b^2 - 4ac > 0 and P = theta - b > 0; lam
    sometimes puts a growth rate of z's integrating factor at exactly 0."""
    a, b, c = draw(_number(-2.0, 2.0)), draw(_number(-10.0, 2.0)), draw(_number(-2.0, 2.0))
    disc = b * b - 4.0 * a * c
    assume(disc > 0.0 and math.sqrt(disc) - b > 0.0)
    theta = float(np.sqrt(disc))
    P, Q = theta - b, theta + b
    lam = draw(st.one_of(_number(-5.0, 5.0), st.sampled_from([-0.5 * Q, 0.5 * P])))
    return a, b, c, lam, draw(_number(-5.0, 5.0)), draw(_number(-5.0, 5.0))


def _tau_shapes():
    nodes = st.tuples(_number(1e-3, 40.0), st.sampled_from([4, 32, 64])).map(
        lambda sn: np.concatenate([[0.0], _lag_nodes(*sn)]))
    return st.one_of(_number(0.0, 40.0), _number(0.0, 40.0).map(np.array), nodes)


@given(coeffs=admissible(), tau=_tau_shapes())
def test_pair_is_the_two_closed_forms_bit_for_bit(coeffs, tau):
    with np.errstate(all="ignore"):  # an overflow, if any, must match too
        y, z = riccati_pair(tau, *coeffs)
        assert _bits(y) == _bits(_ref_y(tau, *coeffs[:3]))
        assert _bits(z) == _bits(_ref_z(tau, *coeffs))


def _refusal(f, *args):
    try:
        f(*args)
    except (InadmissibleParameter, ComplexDiscriminant, FiniteTimeBlowup) as err:
        return type(err)
    return None


@given(coeffs=admissible(), bad=st.sampled_from(["negative", "nan", "nan_node"]),
       size=_number(1e-300, 10.0))
def test_pair_refuses_tau_as_the_closed_forms_do(coeffs, bad, size):
    tau = {"negative": -size, "nan": math.nan,
           "nan_node": np.array([0.0, size, math.nan])}[bad]
    refusal = _refusal(riccati_pair, tau, *coeffs)
    assert refusal is InadmissibleParameter
    assert _refusal(_ref_y, tau, *coeffs[:3]) is refusal is _refusal(_ref_z, tau, *coeffs)


@given(a=_number(-2.0, 2.0), b=_number(-10.0, 10.0), c=_number(-2.0, 2.0),
       tau=_tau_shapes())
def test_pair_refuses_constants_as_the_closed_forms_do(a, b, c, tau):
    disc = b * b - 4.0 * a * c
    assume(disc <= 0.0 or math.sqrt(disc) - b <= 0.0)
    refusal = _refusal(riccati_pair, tau, a, b, c, 0.3, 1.0, -0.5)
    assert refusal in (ComplexDiscriminant, FiniteTimeBlowup)
    assert refusal is _refusal(_ref_y, tau, a, b, c) is _refusal(_ref_z, tau, a, b, c, 0.3, 1.0, -0.5)
