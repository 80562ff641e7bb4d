"""Path simulation of the factor, wealth, and surplus processes.

Euler-Maruyama throughout: with the strategy expressed as wealth ratios all
diffusion coefficients are linear in the state, so Euler's weak order is
enough for the moment and admissibility checks this module feeds.  The
factor stays Euler under every measure, although its drift is affine under
P and FK_tilde: under Q_xi the drift is the tabulated distortion, which is
nonlinear in m, and one scheme for all three keeps P paths and
zero-distortion Q_xi paths bit-equal.  (The Feynman-Kac check in verify.py
draws exact OU steps instead.)  Paths that hit nonpositive wealth are
truncated and flagged, not rejected; the admissibility analysis wants those
events as data.  The tabulated strategy is plain numpy, so importing this
module loads no scipy.

Each engine here, and the Feynman-Kac Monte Carlo in verify.py, draws its
one Philox stream ahead on a worker thread (_draw_ahead), several steps'
normal blocks per call into two recycled buffers; the stream is drawn in
order, so the bits are those of one draw per step at the top of the step.

Every result object embeds (seed, dt, n_paths); a rerun with equal fields
reproduces the arrays bit for bit.
"""

from __future__ import annotations

import math
import queue
import threading
from contextlib import closing
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InadmissibleParameter, NonpositiveWealth
from .exact import ExactSolver, exact_coeffs
from .params import ModelParams, require_finite, require_horizon, require_inputs

__all__ = [
    "ConditionMReport",
    "FactorPaths",
    "PathBundle",
    "SurplusPath",
    "TabulatedStrategy",
    "empirical_condition_M",
    "simulate_factor",
    "simulate_surplus",
    "simulate_wealth",
]

_MEASURES = ("P", "Q_xi", "FK_tilde")
_MAX_STORED = 257  # cap on stored mesh points per path
_CHUNK_NORMALS = 32_768  # cap on the normals _draw_ahead draws per call


# ---------------------------------------------------------------- #
# result types

@dataclass(frozen=True)
class FactorPaths:
    """Factor paths on a stored sub-mesh of the integration mesh."""

    mesh: np.ndarray          # (n_stored,), strictly increasing
    m: np.ndarray             # (n_paths, n_stored)
    measure: str
    seed: int
    dt: float                 # requested step (actual step = span / n_steps)
    n_paths: int


@dataclass(frozen=True)
class PathBundle:
    """Joint factor/wealth paths with the strategy ratios actually applied.

    Ratios are recorded at the stored mesh points (the ratio in force just
    after that time).  A path whose wealth hits zero is frozen there with
    zero ratios; truncated marks it and truncation_time holds the first
    nonpositive time (nan when the path survived).
    """

    mesh: np.ndarray          # (n_stored,)
    m: np.ndarray             # (n_paths, n_stored)
    x: np.ndarray             # (n_paths, n_stored)
    pi_ratio: np.ndarray      # (n_paths, n_stored)
    q_ratio: np.ndarray
    c_ratio: np.ndarray
    measure: str
    seed: int
    dt: float
    n_paths: int
    truncated: np.ndarray     # (n_paths,) bool
    truncation_time: np.ndarray  # (n_paths,), nan where not truncated

    @property
    def truncated_fraction(self) -> float:
        return float(np.mean(self.truncated))


@dataclass(frozen=True)
class SurplusPath:
    """Exact compound-Poisson surplus and its diffusion approximation.

    The two paths share a seed family but not pathwise noise; they agree in
    law only in the high-intensity limit.  jump_times / claim_sizes are
    per-path arrays (ragged).
    """

    mesh: np.ndarray          # (n_stored,)
    compound: np.ndarray      # (n_paths, n_stored)
    diffusion: np.ndarray     # (n_paths, n_stored)
    jump_times: tuple
    claim_sizes: tuple
    seed: int
    dt: float
    n_paths: int


@dataclass(frozen=True)
class ConditionMReport:
    """Empirical moment statistic E[X_t^(-ell)] (T - t)^ell over the mesh.

    The bound the statistic probes is existential (some finite constant);
    no pass line is drawn, the mesh profile and its max are reported.
    """

    ell: float
    k_bar: float
    mesh: np.ndarray
    statistic: np.ndarray
    max_statistic: float
    n_paths: int
    seed: int
    dt: float


# ---------------------------------------------------------------- #
# shared mesh helpers

def _steps(span: float, dt: float) -> tuple[int, float]:
    if not dt > 0.0:  # NaN fails too
        raise ValueError(f"dt = {dt} must be positive")
    n = max(1, round(span / dt))
    return n, span / n


def _mesh(params: ModelParams, horizon, dt: float, n_paths: int):
    """(start, span, n_steps, step, stored step indices) of a simulation.

    The parameters must pass params.require_inputs, and the horizon, given
    or their [t0, T], must satisfy 0 <= start < end.  The stored indices take
    every stride-th step, the stride chosen so at most _MAX_STORED points
    are kept, plus the last step.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths = {n_paths} must be >= 1")
    require_inputs(params)
    if horizon is None:
        lo, hi = params.horizon.t0, params.horizon.T
    else:
        lo, hi = float(horizon[0]), float(horizon[1])
        require_horizon(lo, hi)
    n_steps, h = _steps(hi - lo, dt)
    stride = max(1, -(-(n_steps + 1) // _MAX_STORED))
    idx = list(range(0, n_steps + 1, stride))
    if idx[-1] != n_steps:
        idx.append(n_steps)
    return lo, hi - lo, n_steps, h, np.array(idx, dtype=np.intp)


def _check_measure(measure: str, allowed=_MEASURES) -> None:
    if measure not in allowed:
        raise ValueError(f"measure must be one of {allowed}, got {measure!r}")


def _chunk_steps(shape: tuple, n_steps: int) -> int:
    """Steps per call of _draw_ahead: as many blocks of shape as fit in
    _CHUNK_NORMALS normals, at least one and at most n_steps."""
    return max(1, min(n_steps, _CHUNK_NORMALS // math.prod(shape)))


def _draw_ahead(rng: np.random.Generator, shape: tuple, n_steps: int):
    """The n_steps standard-normal blocks of shape that rng draws in turn,
    drawn ahead on a worker thread.

    The worker owns rng and fills two buffers in turn, each with the blocks
    of _chunk_steps(shape, n_steps) steps in one rng.standard_normal call;
    it fills one while the caller reads the per-step views of the other,
    which goes back to the worker when the caller asks for the block after
    its last.  One stream drawn in order gives the bits of a serial loop of
    one draw per step.  An exception in the draw is raised to the caller.
    Close the generator (contextlib.closing) so the worker is joined on
    every exit, return or raise.
    """
    k = _chunk_steps(shape, n_steps)
    free, filled = queue.SimpleQueue(), queue.SimpleQueue()
    for _ in range(2):
        free.put(np.empty((k,) + shape))

    def draw():
        try:
            for lo in range(0, n_steps, k):
                buf = free.get()
                if buf is None:  # the caller stopped early
                    return
                rng.standard_normal(out=buf[:min(k, n_steps - lo)])
                filled.put(buf)
        except BaseException as exc:
            filled.put(exc)

    worker = threading.Thread(target=draw, name="ricsolver-normals", daemon=True)
    worker.start()
    try:
        for lo in range(0, n_steps, k):
            buf = filled.get()
            if isinstance(buf, BaseException):
                raise buf
            yield from buf[:min(k, n_steps - lo)]
            free.put(buf)
    finally:
        free.put(None)
        worker.join()


# ---------------------------------------------------------------- #
# factor

def simulate_factor(
    params: ModelParams,
    m0: float | None = None,
    measure: str = "P",
    distortion_fn: Callable | None = None,
    dt: float = 1e-3,
    horizon: tuple[float, float] | None = None,
    seed: int = 0,
    n_paths: int = 1,
) -> FactorPaths:
    """Euler paths of the factor under P, the distorted measure, or the
    drift-adjusted measure of the expectation representation.

    Under "Q_xi" the drift is -(alpha m + beta rho1 xi1
    + beta sqrt(1-rho1^2) xi2) with (xi1, xi2, xi3) = distortion_fn(t, m);
    distortion_fn must accept a vector m.  Under "FK_tilde" the drift is
    the H2 of the linear-equation representation.  One counter-based
    stream drives the whole batch, one draw block per step, drawn ahead on
    a worker thread (_draw_ahead) that is joined before the call returns
    or raises.  A start m0, given or the parameters', that is not finite
    raises InadmissibleParameter, as does whatever params.require_inputs
    refuses.
    """
    _check_measure(measure)
    if measure == "Q_xi" and distortion_fn is None:
        raise ValueError('measure "Q_xi" needs a distortion_fn')
    mk = params.market
    if m0 is None:
        m0 = mk.m0
    require_finite("m0", m0)
    t_lo, _, n_steps, h, stored = _mesh(params, horizon, dt, n_paths)
    rho_c = math.sqrt(1.0 - mk.rho1**2)
    if measure == "FK_tilde":
        lag = exact_coeffs(params).lag

    rng = np.random.Generator(np.random.Philox(seed))
    m = np.full(n_paths, float(m0))
    out = np.empty((n_paths, stored.size))
    pos = 0
    if stored[pos] == 0:
        out[:, pos] = m
        pos += 1
    sq = mk.beta * math.sqrt(h)
    with closing(_draw_ahead(rng, (n_paths,), n_steps)) as blocks:
        for step, z in enumerate(blocks, start=1):
            t = t_lo + (step - 1) * h
            if measure == "P":
                drift = -mk.alpha * m
            elif measure == "FK_tilde":
                drift = lag.H2(m)
            else:
                xi1, xi2, _ = distortion_fn(t, m)
                drift = -(mk.alpha * m + mk.beta * mk.rho1 * xi1 + mk.beta * rho_c * xi2)
            m = m + drift * h + sq * z
            if pos < stored.size and stored[pos] == step:
                out[:, pos] = m
                pos += 1
    return FactorPaths(
        mesh=t_lo + h * stored.astype(float),
        m=out,
        measure=measure,
        seed=seed,
        dt=dt,
        n_paths=n_paths,
    )


# ---------------------------------------------------------------- #
# wealth

def simulate_wealth(
    params: ModelParams,
    x0: float,
    strategy_fn: Callable,
    measure: str = "P",
    distortion_fn: Callable | None = None,
    dt: float = 1e-3,
    horizon: tuple[float, float] | None = None,
    seed: int = 0,
    n_paths: int = 1,
) -> PathBundle:
    """Joint Euler paths of (m, X) under P or the distorted measure.

    strategy_fn(t, x, m) must return the amount triple (pi, q, c) for
    vector (x, m); distortion_fn(t, m) the distortion triple, required
    under "Q_xi".  Wealth drift pi (sigma m + a - r) + r X
    + lambda theta1 mu1 q - c minus, under "Q_xi" only, the tilt
    pi sigma xi1 + q sqrt(lambda mu2) xi3; diffusions sigma pi dW1 and
    sqrt(lambda mu2) q dW3, with the factor driven by
    rho1 dW1 + sqrt(1-rho1^2) dW2.

    A path whose wealth reaches X <= 0 is set to exactly zero and frozen;
    see PathBundle.  Until the first such event no step masks the dead
    paths, since there are none.  One stream drives the batch, one
    (3, n_paths) block per step, drawn ahead as in simulate_factor.
    Parameters that params.require_inputs refuses (among them claims with
    mu2 <= 0 or lambda < 0, and |rho1| > 1) raise InadmissibleParameter.
    """
    _check_measure(measure, allowed=("P", "Q_xi"))
    if measure == "Q_xi" and distortion_fn is None:
        raise ValueError('measure "Q_xi" needs a distortion_fn')
    if not x0 > 0.0:  # NaN fails too
        raise NonpositiveWealth(f"x0 must be positive, got {x0}")
    mk, ins = params.market, params.insurance
    t_lo, _, n_steps, h, stored = _mesh(params, horizon, dt, n_paths)
    rho_c = math.sqrt(1.0 - mk.rho1**2)
    s_lm2 = math.sqrt(ins.lam * ins.mu2)
    drift_q = ins.lam * ins.theta1 * ins.mu1

    rng = np.random.Generator(np.random.Philox(seed))
    m = np.full(n_paths, float(mk.m0))
    x = np.full(n_paths, float(x0))
    alive = np.ones(n_paths, dtype=bool)
    trunc_time = np.full(n_paths, math.nan)

    n_stored = stored.size
    m_out = np.empty((n_paths, n_stored))
    x_out = np.empty((n_paths, n_stored))
    ratios_out = [np.zeros((n_paths, n_stored)) for _ in range(3)]
    sqh = math.sqrt(h)

    pos = 0
    masked = False  # set at the first death: from then on dead paths are masked
    with closing(_draw_ahead(rng, (3, n_paths), n_steps)) as blocks:
        for step in range(0, n_steps + 1):
            t = t_lo + step * h
            if masked:
                x_safe = np.where(alive, x, 1.0)
                pi, q, c = (np.where(alive, v, 0.0) for v in strategy_fn(t, x_safe, m))
            else:
                x_safe = x
                pi, q, c = strategy_fn(t, x, m)
            if pos < n_stored and stored[pos] == step:
                m_out[:, pos] = m
                x_out[:, pos] = x
                with np.errstate(divide="ignore", invalid="ignore"):
                    for arr, amt in zip(ratios_out, (pi, q, c)):
                        ratio = amt / x_safe
                        arr[:, pos] = np.where(alive, ratio, 0.0) if masked else ratio
                pos += 1
            if step == n_steps:
                break
            z = next(blocks)
            dw1 = sqh * z[0]
            dwm = sqh * (mk.rho1 * z[0] + rho_c * z[1])
            dw3 = sqh * z[2]
            risk_prem = mk.sigma * m + mk.a - mk.r
            drift_x = mk.r * x + pi * risk_prem + drift_q * q - c
            drift_m = -mk.alpha * m
            if measure == "Q_xi":
                xi1, xi2, xi3 = distortion_fn(t, m)
                drift_x = drift_x - pi * mk.sigma * xi1 - q * s_lm2 * xi3
                drift_m = drift_m - mk.beta * mk.rho1 * xi1 - mk.beta * rho_c * xi2
            x_new = x + drift_x * h + mk.sigma * pi * dw1 + s_lm2 * q * dw3
            m = m + drift_m * h + mk.beta * dwm
            died = x_new <= 0.0
            if masked:
                died &= alive
            if died.any():
                trunc_time[died] = t + h
                alive &= ~died
                masked = True
            x = np.where(alive, x_new, 0.0) if masked else x_new
    return PathBundle(
        mesh=t_lo + h * stored.astype(float),
        m=m_out,
        x=x_out,
        pi_ratio=ratios_out[0],
        q_ratio=ratios_out[1],
        c_ratio=ratios_out[2],
        measure=measure,
        seed=seed,
        dt=dt,
        n_paths=n_paths,
        truncated=~alive,
        truncation_time=trunc_time,
    )


# ---------------------------------------------------------------- #
# surplus

def simulate_surplus(
    params: ModelParams,
    dt: float = 1e-3,
    horizon: tuple[float, float] | None = None,
    seed: int = 0,
    n_paths: int = 1,
) -> SurplusPath:
    """Exact compound-Poisson surplus next to its diffusion approximation.

    Compound path: premium at rate b minus i.i.d. claims at Poisson(lambda)
    arrival times drawn from exponential inter-arrivals (no thinning).
    Diffusion path: drift b - lambda mu1, volatility sqrt(lambda mu2), on
    the same mesh.  Each path owns a spawned child stream, so path count
    changes do not reshuffle earlier paths.
    """
    ins = params.insurance
    if ins.lam <= 0.0:
        raise InadmissibleParameter(f"lambda = {ins.lam!r}: claims need a positive arrival rate")
    t_lo, span, n_steps, h, stored = _mesh(params, horizon, dt, n_paths)
    mesh_rel = h * stored.astype(float)

    children = np.random.SeedSequence(seed).spawn(n_paths)
    comp = np.empty((n_paths, stored.size))
    diff = np.empty((n_paths, stored.size))
    jumps: list[np.ndarray] = []
    claims: list[np.ndarray] = []
    drift = ins.b - ins.lam * ins.mu1
    vol = math.sqrt(ins.lam * ins.mu2)
    for i, child in enumerate(children):
        rng = np.random.Generator(np.random.Philox(child))
        # jump times: draw exponential blocks until the horizon is covered
        times = np.empty(0)
        total = 0.0
        while total <= span:
            block = np.cumsum(rng.exponential(1.0 / ins.lam, size=32)) + total
            times = np.concatenate([times, block])
            total = times[-1]
        jt = times[times <= span]
        sizes = ins.claim_dist.sample(rng, jt.size)
        jumps.append(jt)
        claims.append(sizes)
        loss_cum = np.concatenate([[0.0], np.cumsum(sizes)])
        counts = np.searchsorted(jt, mesh_rel, side="right")
        comp[i] = ins.b * mesh_rel - loss_cum[counts]
        z = rng.standard_normal(n_steps)
        w = np.concatenate([[0.0], np.cumsum(z)]) * math.sqrt(h)
        diff[i] = drift * mesh_rel + vol * w[stored]
    return SurplusPath(
        mesh=t_lo + mesh_rel,
        compound=comp,
        diffusion=diff,
        jump_times=tuple(jumps),
        claim_sizes=tuple(claims),
        seed=seed,
        dt=dt,
        n_paths=n_paths,
    )


# ---------------------------------------------------------------- #
# admissibility statistic

def empirical_condition_M(
    paths: PathBundle, ell: float, k_bar: float, gamma: float
) -> ConditionMReport:
    """Estimate E[X_t^(-ell)] (T - t)^ell over the stored mesh.

    Requires ell > 2 (gamma - 1), the exponent range the admissibility
    condition quantifies over.  Truncated paths contribute +inf, which is
    the honest value of the statistic there.  The terminal node is
    excluded (its weight (T - t)^ell vanishes identically).
    """
    if not ell > 2.0 * (gamma - 1.0):
        raise ValueError(
            f"ell = {ell} must exceed 2 (gamma - 1) = {2.0 * (gamma - 1.0)}"
        )
    T = paths.mesh[-1]
    mesh = paths.mesh[:-1]
    with np.errstate(divide="ignore"):
        inv = paths.x[:, :-1] ** (-ell)
    stat = inv.mean(axis=0) * (T - mesh) ** ell
    return ConditionMReport(
        ell=ell,
        k_bar=k_bar,
        mesh=mesh,
        statistic=stat,
        max_statistic=float(np.max(stat)),
        n_paths=paths.n_paths,
        seed=paths.seed,
        dt=paths.dt,
    )


# ---------------------------------------------------------------- #
# tabulated strategy for fast path generation

class TabulatedStrategy:
    """Closed-form strategy ratios tabulated on a (t, m) grid.

    Pointwise evaluation of the exact ratios costs a g kernel call per
    point, too slow inside a path loop.  The table is one call of the
    exact solver's strategy on the grid of t and m nodes.  The four
    ratio surfaces (pi/x, c/x, xi1, xi2) are stacked surface-major in one
    (4, n_t, n_m) array and read as bilinear interpolants, queries clipped
    to the grid box: each query blends the two t rows that bracket its t,
    then locates its m cells once and blends their neighbours for all four
    surfaces together, so each surface's values come out contiguous.  Interpolation error is O(grid step squared), well under the
    Euler discretization error for the default grid.

    The last lookup is kept, keyed on t and a copy of the contents of m, so
    a wealth step's strategy_fn and distortion_fn calls at the same (t, m)
    locate the cells once.  The kept values are read-only: the arrays
    distortion_fn returns are views of them and refuse in-place writes.
    """

    def __init__(self, t_nodes, m_nodes, pi_grid, c_grid, q_ratio, xi1_grid,
                 xi2_grid, xi3):
        self._t = np.asarray(t_nodes, dtype=float)
        self._m = np.asarray(m_nodes, dtype=float)
        self._v = np.stack([np.asarray(g, dtype=float)
                            for g in (pi_grid, c_grid, xi1_grid, xi2_grid)])
        for name, nodes in (("t", self._t), ("m", self._m)):
            if nodes.ndim != 1 or nodes.size < 2 or not np.all(np.diff(nodes) > 0.0):
                raise ValueError(f"{name} nodes must be a 1-D strictly ascending "
                                 f"array of at least 2 points")
        if self._v.shape != (4, self._t.size, self._m.size):
            raise ValueError(f"ratio grids must have shape {(self._t.size, self._m.size)}")
        self.q_ratio = float(q_ratio)
        self.xi3 = float(xi3)
        self._last = None  # (t, copy of m, values) of the last lookup

    @classmethod
    def from_exact(
        cls,
        params: ModelParams,
        n_t: int = 65,
        n_m: int = 121,
        m_max: float = 4.0,
    ) -> "TabulatedStrategy":
        t_nodes = np.linspace(params.horizon.t0, params.horizon.T, n_t)
        m_nodes = np.linspace(-m_max, m_max, n_m)
        sp = ExactSolver(params).strategy(t_nodes, 1.0, m_nodes)
        return cls(t_nodes, m_nodes, sp.pi_over_x, sp.c_over_x, sp.q_over_x,
                   sp.xi1, sp.xi2, sp.xi3)

    def _lookup(self, t, m) -> np.ndarray:
        """(4, ...) read-only _interp values, kept for the next call at the
        same t and the same contents of m."""
        t, last = float(t), self._last
        if last is not None and last[0] == t and np.array_equal(last[1], m):
            return last[2]
        m = np.array(m, dtype=float)  # a copy: the caller may write to its m
        r = self._interp(t, m)
        r.flags.writeable = False
        self._last = (t, m, r)  # one tuple: a reader never sees half an update
        return r

    def _interp(self, t: float, m) -> np.ndarray:
        """(4, ...) bilinear values at scalar t and array m, clipped to the box."""
        tn, mn, v = self._t, self._m, self._v
        t = min(max(t, tn[0]), tn[-1])
        i = min(int(np.searchsorted(tn, t, side="right")) - 1, tn.size - 2)
        wt = (t - tn[i]) / (tn[i + 1] - tn[i])
        m = np.minimum(np.maximum(m, mn[0]), mn[-1])
        j = np.minimum(np.searchsorted(mn, m, side="right") - 1, mn.size - 2)
        wm = (m - mn[j]) / (mn[j + 1] - mn[j])
        row = v[:, i] * (1.0 - wt) + v[:, i + 1] * wt
        return row.take(j, axis=1) * (1.0 - wm) + row.take(j + 1, axis=1) * wm

    def strategy_fn(self, t, x, m):
        r = self._lookup(t, m)
        x = np.asarray(x, dtype=float)
        return r[0] * x, self.q_ratio * x, r[1] * x

    def distortion_fn(self, t, m):
        r = self._lookup(t, m)
        return r[2], r[3], np.full(np.asarray(m).shape, self.xi3)
