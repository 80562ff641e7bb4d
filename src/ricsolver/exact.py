"""Closed-form solution in the exact (non-unit-EIS) mode.

The value function is v(t, x, m) = x^(1-gamma) g(t, m)^k / (1-gamma) with

    g(t, m) = delta^phi * int_t^T h(t, m; s) ds + h(t, m; T),
    h(t, m; s) = exp(A(t, s) - B(t, s) m - C(t, s) m^2),

where (A, B, C) solve, backward in t with A = B = C = 0 at t = s,

    dC/dt = 2 beta^2 C^2 + 2 kappa C - b0
    dB/dt = (kappa + 2 beta^2 C) B - 2 h2_0 C + h1_1
    dA/dt = -(1/2) beta^2 B^2 + beta^2 C + h2_0 B - h1_0.

The coefficients are constant, so A, B and C depend on the lag tau = s - t
only, and there (-C, -B, A) are the (G, L, H) of an exponential-quadratic
reduction at zero discount (ExactCoeffs.lag, an ExpQuadCoeffs of the family
uniteis solves): B and C are -L and -G of it, closed form (riccati.py).

For a fixed m, g at every t is one Chebyshev antiderivative of
h-hat(tau, m) = exp(A-hat - B-hat m - C-hat m^2), A-hat(tau) = A(0, tau)
and so on, read at tau = T - t.  The g kernel (LagKernel) samples B-hat,
C-hat and the right-hand side of A-hat at the first-kind Chebyshev points
of [0, T], takes A-hat as the antiderivative of their series, and keeps the
samples with the backward-ODE right-hand sides.  g_bundle reads g on the
grid t x m: one exponential and one coefficient transform per m, one read
row per t, no quadrature.  One series type (LagSeries) and one doubling
loop (_tabulate) serve the kernel's lag functions and the H table of every
exponential-quadratic reduction.  coeff_A reads the kernel's own series of
A-hat, so the verification layer checks the coefficients g uses.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from numpy.polynomial import chebyshev

from .errors import (DegenerateK, InadmissibleParameter, KernelOutOfRange, NonpositiveWealth,
                     QuadratureBudgetExceeded)
from .params import (_UNIT_PHI_TOL, DerivedCoeffs, ModelParams, _horizon_times, derive_coeffs,
                     reduction_terms)
from .riccati import riccati_linear_zero_ic, riccati_zero_ic

# Chebyshev node counts, the H table's start, the g kernel's and the cap,
# and the trailing-coefficient level of a converged series.
_TABLE_MIN_NODES = 32
_TABLE_MAX_NODES = 1024
_KERNEL_MIN_NODES = min(2 * _TABLE_MIN_NODES, _TABLE_MAX_NODES)
_TABLE_TAIL_TOL = 1e-14
# The accuracy the g kernel answers for, relative to g (that of the adaptive
# quadrature, quadrature._REL_TOL): its series of h-hat must give
# h-hat(0) = 1 to this, and their rounding, eps sum_j |c_j|, must stay under
# it times g.
_KERNEL_REL_TOL = 1e-9
# Largest exponent math.exp and np.exp map to a finite float.
_LOG_MAX = math.log(sys.float_info.max)
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class ExpQuadCoeffs:
    """Constants of one exponential-quadratic reduction, with the
    parameter set it was built from.  g = exp(G m^2 + L m + H) solves

        g_t + (1/2) beta^2 g_mm + G0 g_m^2 / g + H2(m) g_m + (H1(m) - disc ln g) g = 0

    when (G, L, H) solve the equations of uniteis.  disc is the discount
    rate on L and H (delta at unit EIS, the steady level w in cs, 0 in
    ExactCoeffs.lag); d1 is the slope of the m-drift; h1_src the constant
    source in the L equation; p0 the constant source in the H equation.
    """

    params: ModelParams
    G0: float
    G3: float
    disc: float
    d1: float
    h1_src: float
    h2_0: float
    p0: float

    @property
    def G1(self) -> float:
        return -2.0 * (self.params.market.beta**2 + 2.0 * self.G0)

    @property
    def G2(self) -> float:
        return self.disc - 2.0 * self.d1

    @cached_property
    def lag_args(self) -> tuple[float, ...]:
        """(a, b, c, lam, p, q) of G and L in the lag tau = T - t, the
        Riccati coefficients (-G1, -G2, -G3) of G, then disc - d1, 2 h2_0
        and h1_src of L (riccati.py); taken once per reduction."""
        return -self.G1, -self.G2, -self.G3, self.disc - self.d1, 2.0 * self.h2_0, self.h1_src

    def H1(self, m):
        """Discount of the reduced equation, p0 + h1_src m - G3 m^2."""
        return self.p0 + self.h1_src * m - self.G3 * m * m

    def H2(self, m):
        """Factor drift of the reduced equation, h2_0 + d1 m."""
        return self.h2_0 + self.d1 * m

    def source(self, G, L):
        """The source of the H equation less p0,
        (beta^2/2 + G0) L^2 + h2_0 L + beta^2 G."""
        beta2 = self.params.market.beta**2
        return (0.5 * beta2 + self.G0) * L * L + self.h2_0 * L + beta2 * G

    @cached_property
    def h_table(self) -> "LagSeries":
        """H at t = T - tau for tau in [0, T]; built at first use, then shared."""
        return _build_h_table(self)


@dataclass(frozen=True)
class ExactCoeffs:
    """DerivedCoeffs, the reduction lag and delta^phi.

    The reduced equation for g is
        g_t + (1/2) beta^2 g_mm + H2(m) g_m + H1(m) g + delta^phi = 0,
    with the discount H1 and the drift H2 of lag, the zero-discount
    reduction (disc = G0 = 0) that h = exp(A - B m - C m^2) solves: B and C
    are its -L and -G at the lag, A its H.  lag holds the equation's
    constants, h1_0 = lag.p0, h1_1 = lag.h1_src and h2_0 = lag.h2_0.
    """

    params: ModelParams
    base: DerivedCoeffs
    lag: ExpQuadCoeffs
    delta_phi: float

    @cached_property
    def _lag_kernels(self) -> dict:
        return {}

    def lag_kernel(self, n: int) -> "LagKernel":
        """The g kernel's samples at n Chebyshev points, or at the first
        doubling of n where the lag functions' series converge; built at
        the first g that asks for n, then kept under n and under its own
        node count."""
        kernel = self._lag_kernels.get(n)
        if kernel is None:
            kernel = self._lag_kernels[n] = _build_lag_kernel(self, n)
            self._lag_kernels[kernel.nodes] = kernel
        return kernel


@dataclass(frozen=True)
class LagSeries:
    """Chebyshev series of k functions of the lag tau in [0, span] from
    samples at `nodes` first-kind Chebyshev points: H of an exponential-
    quadratic reduction (ExpQuadCoeffs.h_table), the g kernel's lag
    functions (LagKernel.series).  Row i of rows holds the i-th function's
    coefficients in y = 2 tau / span - 1; H's row is one longer, since the
    antiderivative adds a degree.  tail, the error estimate, is the largest
    _tail of the rows: an absolute measure for these O(1) exponents.
    """

    span: float
    nodes: int
    rows: np.ndarray
    tail: float

    def __call__(self, tau) -> np.ndarray:
        """The functions read at the lags tau; shape tau.shape + (k,)."""
        return self.basis(tau) @ self.rows.T

    def basis(self, tau) -> np.ndarray:
        """cos(j arccos y) at y = 2 tau / span - 1 for j below the rows'
        length, shape tau.shape + (that length,): the same for every series
        of this span and length.  numpy's chebval is a Python loop over the
        degree and would cost more than the rest of g.
        """
        y = 2.0 * np.asarray(tau, dtype=float) / self.span - 1.0
        y = np.minimum(np.maximum(y, -1.0), 1.0)
        return _cheb_basis(np.arccos(y), self.rows.shape[-1])


@dataclass(frozen=True)
class GBundle:
    """g with every derivative the verification layer consumes, and the
    strategy's u = d(ln g)/dm as the kernel computes it, on a grid t x m."""

    g: float
    g_m: float
    g_mm: float
    g_t: float
    u: float


@dataclass(frozen=True)
class StrategyPoint:
    """Optimal controls and worst-case drift distortions at (t, x, m).

    pi: amount in the risky asset; q: retained claim fraction; c: consumption
    rate; xi1..xi3 distort the asset, the orthogonal factor noise, and the
    claim noise. *_over_x are the wealth-scaled ratios.
    """

    pi: float
    q: float
    c: float
    xi1: float
    xi2: float
    xi3: float
    pi_over_x: float
    q_over_x: float
    c_over_x: float


@dataclass(frozen=True)
class ValueDerivs:
    """v and the partial derivatives the HJBI bracket consumes."""

    v: float
    v_t: float
    v_x: float
    v_xx: float
    v_m: float
    v_mm: float
    v_xm: float


def exact_coeffs(params: ModelParams) -> ExactCoeffs:
    """Assemble every constant of the closed form; validates applicability."""
    base = derive_coeffs(params)
    if abs(base.phi - 1.0) <= _UNIT_PHI_TOL:
        raise DegenerateK(
            f"derived phi = {base.phi!r} is within {_UNIT_PHI_TOL} of 1; "
            "use the unit-EIS solver there"
        )
    mk, pf = params.market, params.preference
    kappa, b0, h1_1, h2_0, premium, claims = reduction_terms(params, base.k)
    h1_0 = ((1.0 - pf.gamma) / base.k) * (mk.r + premium + claims) - pf.delta * base.phi
    lag = ExpQuadCoeffs(params=params, G0=0.0, G3=b0, disc=0.0, d1=-kappa, h1_src=h1_1,
                        h2_0=h2_0, p0=h1_0)
    return ExactCoeffs(params=params, base=base, lag=lag, delta_phi=pf.delta**base.phi)


# ---------------------------------------------------------------- #
# A, B, C

def _lag_G(tau, co: ExpQuadCoeffs):
    """G at lag tau = T - t: y' = -G1 y^2 - G2 y - G3, y(0) = 0."""
    return riccati_zero_ic(tau, *co.lag_args[:3])


def _lag_L(tau, co: ExpQuadCoeffs):
    """L at lag tau = T - t: z' = -(disc - d1 - G1 G) z + 2 h2_0 G + h1_src."""
    return riccati_linear_zero_ic(tau, *co.lag_args)


def _lag(t, s) -> np.ndarray:
    tau = np.asarray(s, dtype=float) - np.asarray(t, dtype=float)
    if not (tau >= 0.0).all():  # NaN fails too
        raise InadmissibleParameter(f"the coefficients need t <= s, got lag s - t = {tau}")
    return tau


def coeff_C(t, s, co: ExactCoeffs):
    """C(t, s) = -G of co.lag at the lag s - t, vectorized over
    broadcastable t and s (requires t <= s)."""
    return -_lag_G(_lag(t, s), co.lag)


def coeff_B(t, s, co: ExactCoeffs):
    """B(t, s) = -L of co.lag at the lag s - t, vectorized over
    broadcastable t and s (requires t <= s)."""
    return -_lag_L(_lag(t, s), co.lag)


def _dA_dtau(B, C, co: ExactCoeffs):
    """Lag derivative of A less its constant h1_0, beta^2 B^2/2 - beta^2 C
    - h2_0 B, from B and C at the same lags."""
    beta2 = co.params.market.beta**2
    return 0.5 * beta2 * B * B - beta2 * C - co.lag.h2_0 * B


def coeff_A(t, s, co: ExactCoeffs):
    """A(t, s) = int_0^{s-t} [beta^2 B^2/2 - beta^2 C - h2_0 B](tau) dtau + h1_0 (s-t)
    over broadcastable t <= s with s - t <= T (a float at a scalar pair): the
    g kernel's series h1_0 tau + T sum_j a_j (T_j(y) - (-1)^j), y = 2 tau/T - 1,
    a its a_coef.  The basis row at tau = 0 is (-1)^j exactly, so A(t, t) = 0
    exactly; each lag sums on its own, so arrays give the one-pair bits."""
    T = co.params.horizon.T
    tau = _lag(t, s)
    if (tau > T).any():
        raise InadmissibleParameter(f"lag s - t = {tau} exceeds T = {T}, the g kernel's span")
    a = co.lag_kernel(_KERNEL_MIN_NODES).a_coef
    basis = _cheb_basis(np.arccos(2.0 * tau / T - 1.0), a.size) - (-1.0) ** np.arange(a.size)
    A = co.lag.p0 * tau + T * (basis * a).sum(axis=-1)
    return A if A.ndim else float(A)


def abc_rhs(A, B, C, co: ExactCoeffs):
    """Backward-ODE right-hand sides (dA/dt, dB/dt, dC/dt) at given values."""
    base, lag, beta2 = co.base, co.lag, co.params.market.beta**2
    dC = 2.0 * beta2 * C * C + 2.0 * base.kappa * C - base.b0
    dB = (base.kappa + 2.0 * beta2 * C) * B - 2.0 * lag.h2_0 * C + lag.h1_src
    dA = -0.5 * beta2 * B * B + beta2 * C + lag.h2_0 * B - lag.p0
    return dA, dB, dC


# ---------------------------------------------------------------- #
# Chebyshev series in the lag

def _cheb_basis(theta: np.ndarray, n: int) -> np.ndarray:
    """T_j(cos theta) = cos(j theta) for j < n; shape theta.shape + (n,)."""
    return np.cos(theta[..., None] * np.arange(n))


@cache
def _angles(n: int) -> np.ndarray:
    """The angles theta of the n first-kind Chebyshev points cos(theta);
    read-only, one per node count in use."""
    theta = np.pi * (np.arange(n) + 0.5) / n
    theta.flags.writeable = False
    return theta


@cache
def _to_coef_exact(n: int) -> np.ndarray:
    """The matrix M with values @ M the Chebyshev coefficients of the
    interpolant through values at the n first-kind points: (2/n) T_j at
    point i, column 0 halved, each angle j (2 i + 1) pi / (2 n) reduced
    mod 2 pi in integers before its cosine (a floating product j theta_i
    carries j ulps); read-only, one per node count in use."""
    i, j = np.arange(n), np.arange(n)
    angle = (np.outer(2 * i + 1, j) % (4 * n)) * (np.pi / (2 * n))
    M = (2.0 / n) * np.cos(angle)
    M[:, 0] *= 0.5
    M.flags.writeable = False
    return M


@cache
def _eye(n: int) -> np.ndarray:
    """The n x n identity; read-only, one per node count in use."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


@cache
def _antiderivative(n: int) -> np.ndarray:
    """Chebyshev coefficients (n + 1 rows) of the antiderivative from lag 0
    of each degree-(n-1) basis series on a lag span of 1, half that from
    y = -1 (dtau = span/2 dy); span times it serves [0, span].  One
    read-only matrix per node count in use."""
    M = 0.5 * chebyshev.chebint(_eye(n), lbnd=-1.0)
    M.flags.writeable = False
    return M


@cache
def _unit_nodes(n: int) -> np.ndarray:
    """1 + cos(theta) at the n first-kind angles; read-only, one per node
    count in use."""
    y = 1.0 + np.cos(_angles(n))
    y.flags.writeable = False
    return y


def _lag_nodes(span: float, n: int) -> np.ndarray:
    """The n first-kind Chebyshev points of the lag on [0, span]."""
    return 0.5 * span * _unit_nodes(n)


def _tail(coef: np.ndarray) -> np.ndarray:
    """The convergence level of Chebyshev series (degree along the last
    axis): the largest of the highest-degree eighth relative to max(1, the
    series' largest coefficient)."""
    a = np.abs(coef)
    return a[..., -(a.shape[-1] // 8):].max(axis=-1) / np.maximum(1.0, a.max(axis=-1))


def _doubled(n: int, what: str) -> int:
    """The node count after n, the doubling rule of every lag series; past
    _TABLE_MAX_NODES it refuses what it was sampling."""
    if 2 * n > _TABLE_MAX_NODES:
        raise QuadratureBudgetExceeded(f"{what}: not converged at {n} nodes")
    return 2 * n


def _tabulate(span: float, coef_at, start: int, what: str) -> LagSeries:
    """The LagSeries of coef_at(tau), the Chebyshev coefficient rows of k
    lag functions built from samples at the n first-kind Chebyshev points
    tau of [0, span].  n doubles from start until every row has converged;
    a row that is not finite stops it with KernelOutOfRange."""
    n = start
    while True:
        with np.errstate(all="ignore"):  # a NaN or inf is refused by name below
            rows = coef_at(_lag_nodes(span, n))
        if not np.isfinite(rows).all():
            raise KernelOutOfRange(f"{what} on [0, {span}]: not finite at {n} nodes; its "
                                   "constants are out of floating-point range")
        tail = float(_tail(rows).max())
        if tail <= _TABLE_TAIL_TOL:
            return LagSeries(span=span, nodes=n, rows=rows, tail=tail)
        n = _doubled(n, f"{what} on [0, {span}] (trailing coefficient {tail:.3e} > "
                        f"{_TABLE_TAIL_TOL:g})")


def _build_h_table(co: ExpQuadCoeffs) -> LagSeries:
    """H-hat(tau) = H(T - tau) on [0, T] by Chebyshev collocation, from
    _TABLE_MIN_NODES nodes.

    In the lag, dH/dtau = -disc H + s with H(0) = 0 and the source
    s = co.source(G, L) + p0, closed form at the nodes.  The equation is
    collocated in integral form: with Q the antiderivative from tau = 0,
    H = Q H' and (I + disc Q) H' = s at the nodes.  It is solved on the
    Chebyshev coefficients of H', where it is the same system (the
    degree-n term Q adds vanishes at first-kind nodes), and H = Q H' is the
    series' one row.  No weight e^{disc tau} appears, so disc T is not
    bounded by overflow.  The sampling reads the reduction's lag_args, the
    identity and Q's unit-span matrix as built once; a table is one
    sampling of G and L at the nodes and one solve per node count.
    """
    span = co.params.horizon.T

    def coef_at(tau: np.ndarray) -> np.ndarray:
        n = tau.size
        src = co.source(_lag_G(tau, co), _lag_L(tau, co)) + co.p0
        Q = span * _antiderivative(n)
        return (Q @ np.linalg.solve(_eye(n) + co.disc * Q[:-1], src @ _to_coef_exact(n)))[None]

    return _tabulate(span, coef_at, _TABLE_MIN_NODES, "H table")


# ---------------------------------------------------------------- #
# the g kernel

@dataclass(frozen=True)
class LagKernel:
    """The g integrands at the n first-kind Chebyshev points tau of [0, T],
    as polynomials in m with lag-function coefficients.

    series holds the lag functions' series (A-hat's right-hand side, B-hat,
    C-hat), from n nodes.  poly[i] holds the coefficients of m^i (i = 0, 1,
    2), shape (5, n) each, of: the exponent A - B m - C m^2 of h-hat, then
    the factors 1, -lin, lin^2 - 2 C and dA - m dB - m^2 dC (lin = B + 2 C m)
    that multiply h-hat in the integrands of g, g_m, g_mm and g_t; (dA, dB,
    dC) are the backward-ODE right-hand sides.  reads maps the Chebyshev
    coefficients of an integrand to delta^phi int_0^s + its value at s,
    given the basis row cos(j theta), j = 0..n, at s: delta^phi T times
    _antiderivative(n), plus the identity.  at_zero is the basis row at
    tau = 0, (-1)^j for j < n.  a_coef holds the n + 1 coefficients of
    int_0^tau of A-hat's right-hand side, over T (coeff_A).
    """

    series: LagSeries
    poly: tuple[np.ndarray, np.ndarray, np.ndarray]
    reads: np.ndarray
    at_zero: np.ndarray
    a_coef: np.ndarray

    @property
    def nodes(self) -> int:
        """Chebyshev points sampled."""
        return self.series.nodes

    def coefficients(self, m: np.ndarray) -> np.ndarray:
        """Chebyshev coefficients of the four integrands for each entry of
        the 1-d array m; shape (m.size, 4, n)."""
        p0, p1, p2 = self.poly
        mm = m[:, None, None]
        rows = p0 + mm * (p1 + mm * p2)
        if rows.size and rows[:, 0].max() > _LOG_MAX:
            raise KernelOutOfRange(
                f"h = exp(A - B m - C m^2) overflows on the lag grid of [0, T] "
                f"at |m| up to {np.abs(m).max()}"
            )
        values = np.exp(rows[:, :1]) * rows[:, 1:]
        return values @ _to_coef_exact(values.shape[-1])


def _build_lag_kernel(co: ExactCoeffs, n: int) -> LagKernel:
    """The LagKernel at the first of n, 2n, ... nodes where the series of
    the lag functions converge."""
    T, lag, samples = co.params.horizon.T, co.lag, {}  # samples: n -> (tau, B, C)

    def coef_at(tau: np.ndarray) -> np.ndarray:
        B, C = -_lag_L(tau, lag), -_lag_G(tau, lag)
        samples[tau.size] = tau, B, C
        return np.array([_dA_dtau(B, C, co), B, C]) @ _to_coef_exact(tau.size)

    series = _tabulate(T, coef_at, n, "lag functions")
    n = series.nodes
    (tau, B, C), theta = samples[n], _angles(n)
    # A-hat = h1_0 tau + int_0^tau _dA_dtau
    a_coef = _antiderivative(n) @ series.rows[0]
    A = lag.p0 * tau + T * (_cheb_basis(theta, n + 1) @ a_coef)
    dA, dB, dC = abc_rhs(A, B, C, co)
    zero, one = np.zeros(n), np.ones(n)
    poly = (
        np.array([A, one, -B, B * B - 2.0 * C, dA]),
        np.array([-B, zero, -2.0 * C, 4.0 * B * C, -dB]),
        np.array([-C, zero, zero, 4.0 * C * C, -dC]),
    )
    reads = co.delta_phi * T * _antiderivative(n)
    reads[:n] += _eye(n)
    return LagKernel(series=series, poly=poly, reads=reads, at_zero=(-1.0) ** np.arange(n),
                     a_coef=a_coef)


# ---------------------------------------------------------------- #
# g and everything built on it

def _g_out_of_range(t, m) -> KernelOutOfRange:
    """The refusal of a g that floating point cannot carry at (t, m)."""
    return KernelOutOfRange(
        f"g(t = {t}, m = {m}) underflows, overflows or is lost to rounding; "
        "|m| is too large for this horizon"
    )


def g_bundle(t, m, co: ExactCoeffs) -> GBundle:
    """g, g_m, g_mm, g_t and u = g_m / g on the grid t x m of a scalar or
    1-d t and m, of shape t.shape + m.shape (floats at a scalar t and m).

    With s = T - t, g = delta^phi int_0^s h-hat dtau + h-hat(s), and g_m,
    g_mm and g_t the same with the integrand differentiated under the
    integral; g_t uses the backward-ODE right-hand sides for (A_t, B_t,
    C_t) plus the boundary term -delta^phi from the moving lower limit
    (h(t, m; t) = 1).  For each m the four integrands are sampled at the
    lag kernel's n points, turned into Chebyshev coefficients once for
    every t, and read at each s: the antiderivative from tau = 0 through
    the kernel's integration matrix, the end value through the series.

    n starts at _KERNEL_MIN_NODES, at most _TABLE_MAX_NODES (h-hat, an
    exponential over the lag functions, is sharper than they are: one pass
    serves |m| <= 8 at T = 1 and |m| <= 4 at T = 10 at the default
    calibration, the latter at 128 nodes, where the lag functions converge).
    It doubles per m until the series of h-hat passes _tail's rule and
    gives h-hat(0) = 1 to _KERNEL_REL_TOL, which catches a peak at tau = 0
    too narrow for any node to see; past _TABLE_MAX_NODES it raises
    QuadratureBudgetExceeded.  A series carries about eps sum_j |c_j| of
    rounding, large against g close to T where h-hat grows along the lag
    (b0 < 0, large |m|); where that exceeds _KERNEL_REL_TOL g, or g is 0,
    it raises KernelOutOfRange.  Each m is computed on its own (stacked
    matrix products), so a column at one t is the one-point call's bit for
    bit; several t share one matrix product, which may move the last bits.
    """
    _check_factor(m)
    T = co.params.horizon.T
    t = _horizon_times(t, T, "the g kernel")
    m = np.asarray(m, dtype=float)
    ms = m.reshape(-1)
    theta = np.arccos(1.0 - 2.0 * t.reshape(-1) / T)  # the basis at s is cos(j theta)
    rows, rounding = _g_rows(theta, ms, co, _KERNEL_MIN_NODES)
    out = np.moveaxis(rows, 0, -1).reshape((4,) + t.shape + m.shape)
    out[3] -= co.delta_phi
    carried = _EPS * rounding < _KERNEL_REL_TOL * out[0]  # False where g <= 0 or NaN
    if not carried.all():
        raise _g_out_of_range(t, ms[~carried.reshape(-1, ms.size).all(axis=0)])
    g, g_m, g_mm, g_t = out if out.ndim > 1 else out.tolist()
    return GBundle(g=g, g_m=g_m, g_mm=g_mm, g_t=g_t, u=g_m / g)


def _g_rows(theta: np.ndarray, m: np.ndarray, co: ExactCoeffs, n: int):
    """(m.size, 4, theta.size) reads delta^phi int_0^s + value at s of the
    four g integrands, s at each angle theta, and each m's rounding level
    sum_j |c_j|, from the lag kernel co.lag_kernel(n), which may sample
    more than n nodes; the m whose series have not converged are read again
    at twice its nodes."""
    kernel = co.lag_kernel(n)
    n = kernel.nodes
    coef = kernel.coefficients(m)
    h0 = coef[:, 0] @ kernel.at_zero
    done = (_tail(coef[:, 0]) <= _TABLE_TAIL_TOL) & (np.abs(h0 - 1.0) <= _KERNEL_REL_TOL)
    rows = coef @ (_cheb_basis(theta, n + 1) @ kernel.reads).T
    rounding = np.abs(coef).sum(axis=-1).max(axis=-1)
    if not done.all():
        left = m[~done]
        n = _doubled(n, f"g kernel series of h(tau, m) at |m| = {np.abs(left).max()}")
        rows[~done], rounding[~done] = _g_rows(theta, left, co, n)
    return rows, rounding


def derivs_from_g(x: float, gamma: float, k: float, gb: GBundle) -> ValueDerivs:
    """Partial derivatives of v = x^(1-gamma) g^k / (1-gamma) from a g-bundle.

    Shared by every mode whose value function has this separable shape; the
    unit-EIS mode passes k = 1.
    """
    one_g = 1.0 - gamma
    gk = gb.g**k
    v = x**one_g * gk / one_g
    ratio_m = k * gb.g_m / gb.g
    return ValueDerivs(
        v=v,
        v_t=v * k * gb.g_t / gb.g,
        v_x=x ** (-gamma) * gk,
        v_xx=-gamma * x ** (-gamma - 1.0) * gk,
        v_m=v * ratio_m,
        v_mm=v * (k * (k - 1.0) * (gb.g_m / gb.g) ** 2 + k * gb.g_mm / gb.g),
        v_xm=x ** (-gamma) * gk * ratio_m,
    )


def strategy_from_ratio(
    x: float, m: float, u: float, c_over_x: float, k: float, params: ModelParams
) -> StrategyPoint:
    """Strategy formulas given u = g_m/g and the consumption ratio c/x.

    Every mode shares them: the exact and log-linearized modes pass
    c/x = delta^phi / g, the unit-EIS mode delta with k = 1.  The factor
    loading inside pi*/x = (R + c_pi u) / ((Phi+gamma) sigma^2), with
    R = sigma m + a - r, is c_pi = (1-gamma-Phi) k beta rho1 sigma / (1-gamma).
    Elementwise, so broadcastable arrays of (x, m, u, c_over_x) give arrays
    of ratios (TabulatedStrategy's grid)."""
    mk, ins, pf = params.market, params.insurance, params.preference
    pg = pf.Phi + pf.gamma
    one_g = 1.0 - pf.gamma
    R = mk.sigma * m + mk.a - mk.r
    c_pi = (one_g - pf.Phi) * k * mk.beta * mk.rho1 * mk.sigma / one_g
    pi_over_x = (R + c_pi * u) / (pg * mk.sigma**2)
    q_over_x = ins.theta1 * ins.mu1 / (pg * ins.mu2)
    xi1 = pf.Phi * R / (pg * mk.sigma) + pf.Phi * k * mk.beta * mk.rho1 * u / (one_g * pg)
    xi2 = pf.Phi * k * mk.beta * math.sqrt(1.0 - mk.rho1**2) * u / one_g
    xi3 = pf.Phi * ins.theta1 * ins.mu1 * math.sqrt(ins.lam) / (pg * math.sqrt(ins.mu2))
    return StrategyPoint(
        pi=pi_over_x * x,
        q=q_over_x * x,
        c=c_over_x * x,
        xi1=xi1,
        xi2=xi2,
        xi3=xi3,
        pi_over_x=pi_over_x,
        q_over_x=q_over_x,
        c_over_x=c_over_x,
    )


class _Surface:
    """Value, value derivatives and the strategy of one mode, written once.

    Every mode's value is v = x^(1-gamma) g^k / (1-gamma) and its strategy
    strategy_from_ratio on u and c_over_x(g).  A subclass sets params, the
    exponent k and delta_phi (or overrides c_over_x) and implements
    g(t, m) -> GBundle: the Chebyshev g kernel in the exact mode, the
    exponential-quadratic one (uniteis.ExpQuadSurface) for unit EIS and cs.
    Every method evaluates on the grid t x m of a scalar or 1-d t and m, not
    pairwise (each array caller wants a grid; pairwise evaluation would make
    each one-point call search for its distinct t and m): fields have shape
    t.shape + m.shape, x broadcasts against it, and scalars give floats.  A
    NaN or infinite m raises InadmissibleParameter before any kernel work.
    """

    params: ModelParams
    k: float
    delta_phi: float

    def g(self, t, m) -> GBundle:
        raise NotImplementedError

    def c_over_x(self, g):
        """Consumption-wealth ratio delta^phi / g of the power aggregator."""
        return self.delta_phi / g

    def strategy_at(self, x, m, gb: GBundle) -> StrategyPoint:
        """The strategy at wealth x and factor m given g there, elementwise."""
        return strategy_from_ratio(x, m, gb.u, self.c_over_x(gb.g), self.k, self.params)

    def strategy(self, t, x, m) -> StrategyPoint:
        """Optimal (pi, q, c) and worst-case (xi1, xi2, xi3) at (t, x, m)."""
        _check_wealth(x)
        return self.strategy_at(x, m, self.g(t, m))

    def value(self, t, x, m):
        """v(t, x, m); requires x > 0."""
        _check_wealth(x)
        gamma = self.params.preference.gamma
        return x ** (1.0 - gamma) * self.g(t, m).g ** self.k / (1.0 - gamma)

    def value_derivs(self, t, x, m) -> ValueDerivs:
        """ValueDerivs at (t, x, m); requires x > 0."""
        _check_wealth(x)
        return derivs_from_g(x, self.params.preference.gamma, self.k, self.g(t, m))

    def strategy_and_derivs(self, t, x, m) -> tuple[StrategyPoint, ValueDerivs]:
        """strategy and value_derivs at (t, x, m) from one g; requires x > 0."""
        _check_wealth(x)
        gb = self.g(t, m)
        return (
            self.strategy_at(x, m, gb),
            derivs_from_g(x, self.params.preference.gamma, self.k, gb),
        )


def _check_wealth(x) -> None:
    if not (np.asarray(x) > 0.0).all():  # NaN wealth fails too
        raise NonpositiveWealth(f"wealth must be positive, got x = {x}")


def _check_factor(m) -> None:  # a float costs one math.isfinite
    if not (math.isfinite(m) if isinstance(m, float) else np.isfinite(m).all()):
        raise InadmissibleParameter(f"m = {m} is not finite; the factor takes real values")


class ExactSolver(_Surface):
    """The exact mode bound to one parameter set; g is the Chebyshev g kernel."""

    aggregator = "power"

    def __init__(self, params: ModelParams):
        self.params = params
        self.coeffs = exact_coeffs(params)
        self.k = self.coeffs.base.k
        self.delta_phi = self.coeffs.delta_phi

    def g(self, t, m) -> GBundle:
        return g_bundle(t, m, self.coeffs)

    strategy = _Surface.strategy  # bound per solver class, to be timed per mode
