"""The benchmark's three workloads.

Each workload builds, in ``setup``, what its operations share;
``round(ctx, r)`` draws the ``block`` operations of round ``r`` from a
generator seeded with ``(seed, workload, r)``, so a round depends only on
the seed and its index and no operation repeats however many rounds a run
reaches; ``op`` runs one operation through the public API; ``check`` tests
one output against the references in reference.py and returns failure
messages; ``finish`` runs the run-level checks.  A run always attempts
whole rounds, starting from round 0.  ``trace_rounds`` is the fixed number
of rounds in each half of a traced run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import numpy as np

import reference as ref

REL = 1e-9    # QuadratureConfig().rel_tol, the accuracy the package promises
Z_MAX = 5.0   # statistical checks; the seed is an argument, so no 3-sigma gates
FD_TOL = 1e-4
TAB_TOL = 1e-4
MODES = ("exact", "unit_eis", "cs")
BLOCK_SIM = 3  # simulation round: one fixed m0 = +-1.8 operation and two seeded ones


def _replace(p, **blocks):
    """ModelParams with some fields of its blocks replaced."""
    return dataclasses.replace(
        p, **{b: dataclasses.replace(getattr(p, b), **f) for b, f in blocks.items()})


def _strata(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """n draws, one in each of n equal strata of [lo, hi), in random order."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL * scale


def _digest(obj) -> str:
    h = hashlib.sha256()

    def feed(o):
        if isinstance(o, np.ndarray):
            h.update(o.tobytes())
        elif isinstance(o, (tuple, list)):
            for item in o:
                feed(item)
        else:
            h.update(repr(o).encode())

    feed(obj)
    return h.hexdigest()


def _solve_all(solvers, t: float, x: float, m: float) -> dict:
    rows = {}
    for mode, solver in solvers.items():
        sp = solver.strategy(t, x, m)
        rows[mode] = (sp.pi_over_x, sp.q_over_x, sp.c_over_x, sp.xi1, sp.xi2, sp.xi3,
                      solver.value(t, x, m))
    return rows


def _check_rows(p, rows, t, x, m, w, with_reference: bool) -> list:
    """Properties of one point solved in all three modes."""
    bad = []
    if not all(math.isfinite(v) for row in rows.values() for v in row):
        return [f"non-finite output at t={t:.6g} m={m:.6g}"]
    q = ref.q_over_x(p)
    qs = {row[1] for row in rows.values()}
    if len(qs) != 1 or not abs(qs.pop() - q) <= 1e-15 * q:
        bad.append(f"q/x differs across modes or from theta1 mu1/((Phi+gamma) mu2) = {q!r}")
    if rows["unit_eis"][2] != p.preference.delta:
        bad.append(f"unit-EIS c/x = {rows['unit_eis'][2]!r} != delta")
    if with_reference:
        for mode in MODES:
            pi_x, _, c_x, *_, v = rows[mode]
            r_pi, r_c, r_v = ref.solution(p, mode, t, x, m, w)
            if not (_close(pi_x, r_pi, max(abs(r_pi), 1.0)) and _close(c_x, r_c, abs(r_c))
                    and _close(v, r_v, abs(r_v))):
                bad.append(f"{mode} at t={t:.6g} x={x:.6g} m={m:.6g}: (pi/x, c/x, v) = "
                           f"{(pi_x, c_x, v)} vs ODE reference {(r_pi, r_c, r_v)}")
    return bad


def _check_bracket(rs, solvers, t, x, m) -> list:
    bad = []
    for mode in ("exact", "unit_eis"):
        rep = rs.hjbi_saddle_check(solvers[mode], (t, x, m), samples=0)
        if not abs(rep.bracket_at_optimum) <= rep.tolerance:
            bad.append(f"{mode} HJBI bracket at the optimum = {rep.bracket_at_optimum:.3e} "
                       f"at t={t:.6g} m={m:.6g} (tolerance {rep.tolerance:.3e})")
    return bad


def _check_w(p, w: float) -> list:
    res = ref.cs_level_residual(p, w)
    tol = 1e-9 + 5e-10 / w  # fixed-point step tolerance 1e-10, damping 1/2
    if not abs(res) <= tol:
        return [f"cs level w = {w!r}: ln w - (phi ln delta - (G s^2 + H)) = {res:.3e} > {tol:.1e}"]
    return []


# ---------------------------------------------------------------- #

class Surface:
    """Points on the strategy/value surfaces of two fixed calibrations."""

    name = "surface"
    setup_reps = 9
    block = 12       # 8 points on the default horizon, 4 on the long one
    trace_rounds = 12
    n_reference = 12  # leading points checked against the ODE references
    n_bracket = 3
    keep = 0

    def setup(self, rs, seed: int):
        base = rs.ModelParams()
        cals = {"default": base, "long": _replace(base, horizon=dict(t0=0.0, T=10.0))}
        solvers = {}
        for key, p in cals.items():
            if not rs.validate(p).ok:
                raise RuntimeError(f"{key} calibration fails validate()")
            solvers[key] = {"exact": rs.ExactSolver(p), "unit_eis": rs.UnitEisSolver(p),
                            "cs": rs.CsSolver(p)}
        return SimpleNamespace(rs=rs, seed=seed, cals=cals, solvers=solvers)

    def round(self, ctx, r: int) -> list:
        rng = np.random.default_rng([ctx.seed, 1, r])
        block = []
        for key, n in (("default", 8), ("long", 4)):
            hz = ctx.cals[key].horizon
            ts = _strata(rng, n, hz.t0, hz.T)
            ms = _strata(rng, n, -2.0, 2.0)
            xs = rng.uniform(0.5, 2.0, n)
            block += [(key, float(t), float(x), float(m)) for t, x, m in zip(ts, xs, ms)]
        return [block[i] for i in rng.permutation(len(block))]

    def op(self, ctx, spec):
        key, t, x, m = spec
        return _solve_all(ctx.solvers[key], t, x, m)

    def check(self, ctx, i: int, spec, out) -> list:
        key, t, x, m = spec
        sol = ctx.solvers[key]
        bad = _check_rows(ctx.cals[key], out, t, x, m, sol["cs"].w, i < self.n_reference)
        if i < self.n_bracket:
            bad += _check_bracket(ctx.rs, sol, t, x, m)
        return bad

    def digest(self, out) -> str:
        return _digest([out[mode] for mode in MODES])

    def finish(self, ctx, kept) -> list:
        bad = []
        for key, p in ctx.cals.items():
            bad += _check_w(p, ctx.solvers[key]["cs"].w)
        return bad


class Calibration:
    """One point for each of many parameter sets, solvers built per set."""

    name = "calibration"
    setup_reps = 9
    block = 6
    trace_rounds = 8
    n_reference = 18  # the six table2 rows and the first twelve draws
    n_bracket = 8
    keep = 6
    # The admissible box that `ricsolver verify --suite bounds` samples.
    BOX = {
        ("market", "sigma"): (0.15, 1.0),
        ("market", "beta"): (0.1, 0.6),
        ("market", "alpha"): (1.0, 8.0),
        ("market", "rho1"): (-0.95, 0.0),
        ("preference", "gamma"): (1.05, 2.5),
        ("preference", "Phi"): (0.0, 1.2),
        ("preference", "delta"): (0.02, 0.2),
        ("insurance", "theta1"): (0.1, 1.0),
    }
    TABLE2 = (0.80, 0.81, 0.82, 0.83, 0.84, 0.85)

    def setup(self, rs, seed: int):
        base = rs.ModelParams()
        table2 = [_replace(base, market=dict(sigma=s, alpha=7.0),
                           preference=dict(gamma=1.3, Phi=0.0)) for s in self.TABLE2]
        return SimpleNamespace(rs=rs, seed=seed, base=base, table2=table2)

    def round(self, ctx, r: int) -> list:
        """Round 0 is the table2 rows; later rounds are Latin-hypercube draws
        from the box, kept when validate() accepts them."""
        if r == 0:
            return list(ctx.table2)
        rng = np.random.default_rng([ctx.seed, 2, r])
        sets = []
        while len(sets) < self.block:
            cols = {key: _strata(rng, self.block, lo, hi) for key, (lo, hi) in self.BOX.items()}
            for j in range(self.block):
                fields = {}
                for (blk, attr), vals in cols.items():
                    fields.setdefault(blk, {})[attr] = float(vals[j])
                p = _replace(ctx.base, **fields)
                if len(sets) < self.block and ctx.rs.validate(p).ok:
                    sets.append(p)
        return sets

    def op(self, ctx, p):
        rs = ctx.rs
        report = rs.validate(p)
        solvers = {"exact": rs.ExactSolver(p), "unit_eis": rs.UnitEisSolver(p),
                   "cs": rs.CsSolver(p)}
        rows = _solve_all(solvers, p.horizon.t0, 1.0, p.market.m0)
        return SimpleNamespace(ok=report.ok, rows=rows, w=solvers["cs"].w, solvers=solvers)

    def check(self, ctx, i: int, p, out) -> list:
        if not out.ok:
            return ["validate() rejects a set it accepted during set-up"]
        t, m = p.horizon.t0, p.market.m0
        bad = _check_rows(p, out.rows, t, 1.0, m, out.w, i < self.n_reference)
        if i < self.n_reference:
            bad += _check_w(p, out.w)
        if i < self.n_bracket:
            bad += _check_bracket(ctx.rs, out.solvers, t, 1.0, m)
        return bad

    def digest(self, out) -> str:
        return _digest([out.w] + [out.rows[mode] for mode in MODES])

    def finish(self, ctx, kept) -> list:
        pi_cs = [out.rows["cs"][0] for out in kept]
        pi_star = [out.rows["exact"][0] for out in kept]
        bad = []
        if not all(a > b for a, b in zip(pi_cs, pi_cs[1:])):
            bad.append(f"table2 pi_cs/x not strictly decreasing in sigma: {pi_cs}")
        if not all(a > b for a, b in zip(pi_star, pi_star[1:])):
            bad.append(f"table2 pi*/x not strictly decreasing in sigma: {pi_star}")
        if not all(a - b > 0.0 for a, b in zip(pi_cs, pi_star)):
            bad.append("table2 error pi_cs - pi* not positive on every row")
        return bad


class McCheck:
    """Part of a simulation operation: one Feynman-Kac Monte Carlo check
    through the CLI, plus one FD solve over the same horizon."""

    # Fixed inputs at the edge of the acceptance range; Euler bias at the
    # CLI's dt = 1e-3 makes these fail (z ~ 8) although the closed form is right.
    EDGE = (("0.50", "1.80", 3), ("0.50", "-1.80", 5))
    _FIELD = re.compile(r"(est|closed|se)=([-+0-9.eE]+)")

    def setup(self, rs, seed: int):
        return SimpleNamespace(rs=rs, seed=seed, base=rs.ModelParams(), params={}, g_ref={},
                               grid=rs.Grid2D(n_t=400, n_m=401, m_max=4.0))

    def round(self, ctx, r: int) -> list:
        rng = np.random.default_rng([ctx.seed, 3, r])
        n = BLOCK_SIM - 1
        ts = _strata(rng, n, 0.47, 0.53)
        ms = rng.integers(-5, 6, n) * 0.02   # FD grid nodes in [-0.1, 0.1]
        seeds = rng.integers(0, 2**31, n)
        ops = [self.EDGE[r % 2]] + [(f"{t:.4f}", f"{m:.2f}", int(s))
                                    for t, m, s in zip(ts, ms, seeds)]
        for t0, m0, _ in ops:
            if (t0, m0) not in ctx.params:
                p = _replace(ctx.base, market=dict(m0=float(m0)), horizon=dict(t0=float(t0)))
                if not ctx.rs.validate(p).ok:
                    raise RuntimeError(f"t0={t0} m0={m0} fails validate()")
                ctx.params[t0, m0] = p
        return ops

    def op(self, ctx, spec):
        t0, m0, seed = spec
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(io.StringIO()):
            code = ctx.rs.cli.main(["verify", "--suite", "mc", "--set", f"t0={t0}",
                                    "--set", f"m0={m0}", "--seed", str(seed)])
        fd = ctx.rs.fd_solve_g(ctx.params[t0, m0], ctx.grid)
        j = int(round((float(m0) + ctx.grid.m_max) / (2 * ctx.grid.m_max) * (ctx.grid.n_m - 1)))
        return SimpleNamespace(code=code, csv=buf.getvalue(), fd=float(fd[0, j]))

    def check(self, ctx, i: int, spec, out) -> list:
        t0, m0, _ = spec
        if out.code != 0:
            return [f"verify exited with {out.code}"]
        p = ctx.params[t0, m0]
        if (t0, m0) not in ctx.g_ref:
            ctx.g_ref[t0, m0] = ref.exact_g(p, p.horizon.t0, p.market.m0)[0]
        g = ctx.g_ref[t0, m0]
        rows = [ln for ln in out.csv.splitlines() if ln and not ln.startswith("#")]
        fields = dict(self._FIELD.findall(rows[1])) if len(rows) == 2 else {}
        if set(fields) != {"est", "closed", "se"}:
            return [f"unexpected verify output: {rows}"]
        z = (float(fields["est"]) - g) / float(fields["se"])
        bad = []
        if not abs(float(fields["closed"]) - g) <= 5e-9 + REL * g:  # printed with 8 decimals
            bad.append(f"CLI closed-form g at t0={t0} m0={m0}: {fields['closed']} vs {g!r}")
        if not abs(z) <= Z_MAX:
            bad.append(f"MC g at t0={t0} m0={m0}: z = {z:.2f} against the ODE reference")
        if not abs(out.fd - g) <= FD_TOL * abs(g):
            bad.append(f"FD g at t0={t0} m0={m0}: {out.fd!r} vs ODE reference {g!r}")
        return bad

    def digest(self, out) -> str:
        return _digest([out.code, out.csv, out.fd])


class PathBatch:
    """Part of a simulation operation: one seeded batch of paths with the
    tabulated exact strategy."""

    n_paths = 500
    # (t, m) points where the tabulated strategy is compared with the pointwise one
    PROBES = ((0.5, 0.0), (0.62, -1.3), (0.7, 0.3), (0.81, 2.4), (0.9, -3.1), (0.97, 1.0))

    def setup(self, rs, seed: int):
        base = rs.ModelParams()
        if not rs.validate(base).ok:
            raise RuntimeError("default calibration fails validate()")
        tab = rs.TabulatedStrategy.from_exact(base)
        return SimpleNamespace(rs=rs, seed=seed, base=base, tab=tab)

    def round(self, ctx, r: int) -> list:
        rng = np.random.default_rng([ctx.seed, 4, r])
        ms = _strata(rng, BLOCK_SIM, -1.0, 1.0)
        return [(int(s), float(m)) for s, m in zip(rng.integers(0, 2**31, BLOCK_SIM), ms)]

    def op(self, ctx, spec):
        seed, m0 = spec
        rs, tab, n = ctx.rs, ctx.tab, self.n_paths
        p = _replace(ctx.base, market=dict(m0=m0))
        return SimpleNamespace(
            P=rs.simulate_factor(p, m0=m0, measure="P", seed=seed, n_paths=n),
            FK=rs.simulate_factor(p, m0=m0, measure="FK_tilde", seed=seed, n_paths=n),
            Q=rs.simulate_factor(p, m0=m0, measure="Q_xi", distortion_fn=tab.distortion_fn,
                                 seed=seed, n_paths=n),
            WP=rs.simulate_wealth(p, 1.0, tab.strategy_fn, seed=seed, n_paths=n),
            WQ=rs.simulate_wealth(p, 1.0, tab.strategy_fn, measure="Q_xi",
                                  distortion_fn=tab.distortion_fn, seed=seed, n_paths=n),
            S=rs.simulate_surplus(p, seed=seed, n_paths=n),
        )

    def check(self, ctx, i: int, spec, out) -> list:
        _, m0 = spec
        p = ctx.base
        mk, ins = p.market, p.insurance
        span = p.horizon.T - p.horizon.t0
        c = ref.exact_constants(p)
        bad = []
        arrays = [out.P.m, out.FK.m, out.Q.m, out.WP.x, out.WP.m, out.WQ.x, out.WQ.m,
                  out.S.compound, out.S.diffusion]
        if not all(np.all(np.isfinite(a)) for a in arrays):
            return ["non-finite path values"]
        if np.any(out.WP.x < 0.0) or np.any(out.WQ.x < 0.0):
            bad.append("negative wealth on a stored node")
        zs = {}
        for label, paths, drift0, kappa in (("P factor", out.P.m, 0.0, mk.alpha),
                                            ("FK_tilde factor", out.FK.m, c.h2_0, c.kappa),
                                            ("P wealth-run factor", out.WP.m, 0.0, mk.alpha)):
            mean, var = ref.ou_moments(m0, drift0, kappa, mk.beta, span)
            zs[label + " mean"] = ref.z_mean(paths[:, -1], mean, var)
            zs[label + " variance"] = ref.z_var(paths[:, -1], var)
        claims = np.array([s.sum() for s in out.S.claim_sizes])
        zs["aggregate claims mean"] = ref.z_mean(claims, ins.lam * span * ins.mu1,
                                                 ins.lam * span * ins.mu2)
        drift = ins.b - ins.lam * ins.mu1
        zs["diffusion surplus mean"] = ref.z_mean(out.S.diffusion[:, -1], drift * span,
                                                  ins.lam * ins.mu2 * span)
        bad += [f"{k}: z = {z:.2f} (m0={m0:.4g})" for k, z in zs.items() if not abs(z) <= Z_MAX]
        if not np.allclose(out.S.compound[:, -1], ins.b * span - claims, rtol=0.0, atol=1e-9):
            bad.append("compound surplus at T != premium income minus claims")
        alive = out.WP.x[:, :-1] > 0.0
        q = ref.q_over_x(p)
        if not np.all(np.abs(out.WP.q_ratio[:, :-1][alive] - q) <= 1e-12 * q):
            bad.append("applied q/x differs from theta1 mu1/((Phi+gamma) mu2)")
        return bad

    def digest(self, out) -> str:
        return _digest([out.P.m, out.FK.m, out.Q.m, out.WP.x, out.WP.m, out.WP.pi_ratio,
                        out.WP.c_ratio, out.WQ.x, out.WQ.m, out.S.compound, out.S.diffusion])

    def finish(self, ctx, kept) -> list:
        rs, bad = ctx.rs, []
        seed, m0 = self.round(ctx, 0)[0]
        p = _replace(ctx.base, market=dict(m0=m0))
        more = rs.simulate_surplus(p, seed=seed, n_paths=self.n_paths + 7)
        first = kept[0].S
        if not (np.array_equal(more.compound[: self.n_paths], first.compound)
                and np.array_equal(more.diffusion[: self.n_paths], first.diffusion)):
            bad.append("surplus paths changed when the path count grew")
        ex = rs.ExactSolver(ctx.base)
        for t, m in self.PROBES:
            sp = ex.strategy(t, 1.0, m)
            pi, q, cc = (float(a[0]) for a in ctx.tab.strategy_fn(t, np.ones(1), np.full(1, m)))
            xi1, xi2, xi3 = (float(a[0]) for a in ctx.tab.distortion_fn(t, np.full(1, m)))
            ok = (abs(pi - sp.pi_over_x) <= TAB_TOL * abs(sp.pi_over_x)
                  and abs(cc - sp.c_over_x) <= TAB_TOL * sp.c_over_x
                  and abs(q - sp.q_over_x) <= 1e-15
                  and max(abs(xi1 - sp.xi1), abs(xi2 - sp.xi2), abs(xi3 - sp.xi3)) <= TAB_TOL)
            if not ok:
                bad.append(f"tabulated strategy at t={t} m={m}: (pi, q, c, xi) = "
                           f"{(pi, q, cc, xi1, xi2, xi3)} vs pointwise {sp}")
        return bad


class Simulation:
    """The Monte Carlo check and a path batch in each operation."""

    name = "simulation"
    setup_reps = 7
    block = BLOCK_SIM
    trace_rounds = 2
    keep = 1
    parts = (McCheck(), PathBatch())

    def setup(self, rs, seed: int):
        return tuple(part.setup(rs, seed) for part in self.parts)

    def round(self, ctx, r: int) -> list:
        return list(zip(*(part.round(c, r) for part, c in zip(self.parts, ctx))))

    def op(self, ctx, spec):
        return tuple(part.op(c, s) for part, c, s in zip(self.parts, ctx, spec))

    def check(self, ctx, i: int, spec, out) -> list:
        return [msg for part, c, s, o in zip(self.parts, ctx, spec, out)
                for msg in part.check(c, i, s, o)]

    def digest(self, out) -> str:
        return _digest([part.digest(o) for part, o in zip(self.parts, out)])

    def finish(self, ctx, kept) -> list:
        return self.parts[1].finish(ctx[1], [out[1] for out in kept])


WORKLOADS = {w.name: w for w in (Surface(), Calibration(), Simulation())}
