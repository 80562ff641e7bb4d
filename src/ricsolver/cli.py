"""Command line front end: validation, solving, sweeps, verification, paths.

Output contract: CSV with a header row, every float rendered with 9
significant digits, and the fully resolved parameter set echoed as `# key
= value` comment lines above the header.  Given the same config, overrides
and seed, the bytes are identical run to run (nothing time- or
machine-dependent is emitted).

Exit codes: `validate` returns 1 when a hard check fails, 0 otherwise
(warnings included); `verify` always returns 0, failed checks are rows in
the report, which is the product; argparse returns 2 for usage errors.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from dataclasses import dataclass

import numpy as np

from .config import KNOWN_KEYS, resolve, resolved_items
from .cs import CsSolver
from .errors import SolverError
from .exact import ExactSolver
from .params import ModelParams, validate
from .simulate import (
    TabulatedStrategy,
    simulate_factor,
    simulate_surplus,
    simulate_wealth,
)
from .uniteis import UnitEisSolver
from .verify import SUITES

SOLVERS = {"exact": ExactSolver, "unit_eis": UnitEisSolver, "cs": CsSolver}
MODES = tuple(SOLVERS)

# table2 regime: the comparison of the log-linearized and exact rules is
# stated for gamma = 1.3, alpha = 7, Phi = 0 with sigma swept row by row.
TABLE2_PRESET = (("gamma", "1.3"), ("alpha", "7.0"), ("Phi", "0.0"))
TABLE2_SIGMAS = (0.80, 0.81, 0.82, 0.83, 0.84, 0.85)


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.9g}"
    return str(v)


def _emit(out_path, params: ModelParams, extras, header, rows) -> None:
    """Write one CSV blob: resolved params + extras as comments, then data."""
    buf = io.StringIO()
    for key, val in resolved_items(params):
        buf.write(f"# {key} = {val}\n")
    for line in extras:
        buf.write(f"# {line}\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(c) for c in row) + "\n")
    text = buf.getvalue()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _solver(params: ModelParams, mode: str):
    _require_mode(mode)
    return SOLVERS[mode](params)


def _point(args, params: ModelParams) -> tuple[float, float, float]:
    t = params.horizon.t0 if args.t is None else args.t
    m = params.market.m0 if args.m is None else args.m
    return t, args.x, m


# ---------------------------------------------------------------- #
# subcommands

def cmd_validate(args) -> int:
    params, fallbacks = resolve(args.config, args.set)
    _require_mode(args.mode)
    report = validate(params, mode=args.mode, fallbacks=fallbacks)
    text = str(report) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.ok else 1


def cmd_solve(args) -> int:
    params, _ = resolve(args.config, args.set)
    t, x, m = _point(args, params)
    solver = _solver(params, args.mode)
    sp = solver.strategy(t, x, m)
    v = solver.value(t, x, m)
    extras = [f"mode = {args.mode}"]
    if args.mode == "cs":
        extras += [f"w = {solver.w:.9g}", _root_diag(solver.w)]
    if args.mode != "exact":
        table = solver.coeffs.h_table
        extras.append(f"diag h_table: nodes = {table.nodes}, tail = {table.tail:.3g}")
    _emit(
        args.out,
        params,
        extras,
        ["t", "x", "m", "pi_over_x", "q_over_x", "c_over_x",
         "xi1", "xi2", "xi3", "value"],
        [(t, x, m, sp.pi_over_x, sp.q_over_x, sp.c_over_x,
          sp.xi1, sp.xi2, sp.xi3, v)],
    )
    return 0


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep: which key, which values, how to evaluate."""

    param: str
    values: tuple
    modes: tuple
    point: tuple  # (t or None, x, m or None)
    overrides: tuple = ()

    def __post_init__(self):
        if self.param not in KNOWN_KEYS:
            raise ValueError(
                f"unknown sweep parameter {self.param!r}; "
                f"known keys: {', '.join(KNOWN_KEYS)}"
            )
        if not self.values:
            raise ValueError("sweep needs at least one value")
        for mode in self.modes:
            _require_mode(mode)


def run_sweep(spec: SweepSpec, config_path=None):
    """Rows for a sweep, ordered by value then mode.

    Each swept value is resolved into a fresh parameter set (base config,
    then fixed overrides, then the swept key) and solved independently.
    """
    rows = []
    base_params = None
    for val in spec.values:
        sets = list(spec.overrides) + [f"{spec.param}={val:.12g}"]
        params, _ = resolve(config_path, sets)
        if base_params is None:
            base_params = params
        t = params.horizon.t0 if spec.point[0] is None else spec.point[0]
        x = spec.point[1]
        m = params.market.m0 if spec.point[2] is None else spec.point[2]
        for mode in spec.modes:
            solver = _solver(params, mode)
            sp = solver.strategy(t, x, m)
            v = solver.value(t, x, m)
            rows.append((val, mode, sp.pi_over_x, sp.q_over_x, sp.c_over_x,
                         sp.xi1, sp.xi2, sp.xi3, v))
    return base_params, rows


def _parse_values(args) -> tuple:
    if args.values:
        return tuple(float(s) for s in args.values.split(",") if s.strip())
    if args.range:
        try:
            lo, hi, step = (float(p) for p in args.range.split(":"))
        except ValueError:
            raise ValueError(f"--range wants lo:hi:step, got {args.range!r}") from None
        if step <= 0 or hi < lo:
            raise ValueError(f"--range needs step > 0 and hi >= lo, got {args.range!r}")
        n = int(math.floor((hi - lo) / step + 1e-9)) + 1
        return tuple(lo + i * step for i in range(n))
    raise ValueError("sweep needs --values or --range")


def cmd_sweep(args) -> int:
    spec = SweepSpec(
        param=args.param,
        values=_parse_values(args),
        modes=tuple(args.mode.split(",")),
        point=(args.t, args.x, args.m),
        overrides=tuple(args.set),
    )
    params, rows = run_sweep(spec, args.config)
    _emit(
        args.out,
        params,
        [f"sweep = {spec.param}", f"modes = {','.join(spec.modes)}"],
        [spec.param, "mode", "pi_over_x", "q_over_x", "c_over_x",
         "xi1", "xi2", "xi3", "value"],
        rows,
    )
    return 0


def _root_diag(w, where: str = "") -> str:
    """Deterministic comment line: how the cs steady level's root was found."""
    return f"diag cs_root{where}: evaluations = {w.evaluations}, ln_w_bracket = {w.bracket:.3g}"


def run_table2(config_path=None, sets=()):
    """(params, w per sigma, rows) for the sigma table.

    Rows: (sigma, pi_cs_over_x, pi_star_over_x, error) at t = t0, m = 0,
    the steady consumption level w resolved by its root per sigma.
    """
    preset = [f"{k}={v}" for k, v in TABLE2_PRESET]
    rows = []
    w_used = []
    base_params = None
    for sig in TABLE2_SIGMAS:
        params, _ = resolve(config_path, preset + list(sets) + [f"sigma={sig}"])
        if base_params is None:
            base_params = params
        t0 = params.horizon.t0
        cs = CsSolver(params)
        ex = ExactSolver(params)
        pi_cs = cs.strategy(t0, 1.0, 0.0).pi_over_x
        pi_star = ex.strategy(t0, 1.0, 0.0).pi_over_x
        rows.append((sig, pi_cs, pi_star, pi_cs - pi_star))
        w_used.append(cs.w)
    return base_params, w_used, rows


def cmd_table2(args) -> int:
    params, w_used, rows = run_table2(args.config, args.set)
    extras = ["preset: " + ", ".join(f"{k} = {v}" for k, v in TABLE2_PRESET),
              "evaluation: t = t0, m = 0, w from the level-equation root per sigma"]
    for (s, *_), w in zip(rows, w_used):
        extras += [f"w(sigma = {s:.9g}) = {w:.9g}", _root_diag(w, f"(sigma = {s:.9g})")]
    _emit(
        args.out,
        params,
        extras,
        ["sigma", "pi_cs_over_x", "pi_star_over_x", "error"],
        rows,
    )
    return 0


# ---------------------------------------------------------------- #
# verify

def cmd_verify(args) -> int:
    params, _ = resolve(args.config, args.set)
    names = tuple(SUITES) if args.suite == "all" else (args.suite,)
    rows = [row for name in names for row in SUITES[name](params, args)]
    n_fail = sum(not r.passed for r in rows)
    _emit(
        args.out,
        params,
        [f"suite = {args.suite}", f"seed = {args.seed}",
         f"checks = {len(rows)}", f"failed = {n_fail}"]
        + [r.note for r in rows if r.note],
        ["check", "point", "value", "tolerance", "pass"],
        [(r.name, r.point.replace(",", ";"), r.value, r.tolerance, r.passed)
         for r in rows],
    )
    return 0  # the report is the product; failures live in the rows


# ---------------------------------------------------------------- #
# simulate

def _summary_rows(mesh, arrays_by_name):
    names = list(arrays_by_name)
    rows = []
    for idx, t in enumerate(mesh):
        row = [t]
        for name in names:
            col = arrays_by_name[name][:, idx]
            row += [col.mean(), col.std(ddof=1) if col.shape[0] > 1 else 0.0,
                    col.min(), col.max()]
        rows.append(tuple(row))
    header = ["t"]
    for name in names:
        header += [f"{name}_mean", f"{name}_std", f"{name}_min", f"{name}_max"]
    return header, rows


def cmd_simulate(args) -> int:
    params, _ = resolve(args.config, args.set)
    extras = [f"process = {args.process}", f"measure = {args.measure}",
              f"seed = {args.seed}", f"dt = {args.dt:.9g}",
              f"n_paths = {args.n_paths}"]
    if args.process == "factor":
        fp = simulate_factor(params, measure=args.measure, dt=args.dt,
                             seed=args.seed, n_paths=args.n_paths,
                             distortion_fn=_distortion(params, args))
        header, rows = _summary_rows(fp.mesh, {"m": fp.m})
    elif args.process == "wealth":
        strategy_fn, distortion_fn = _wealth_fns(params, args)
        wb = simulate_wealth(params, args.x0, strategy_fn,
                             measure=args.measure, distortion_fn=distortion_fn,
                             dt=args.dt, seed=args.seed, n_paths=args.n_paths)
        header, rows = _summary_rows(wb.mesh, {"x": wb.x, "m": wb.m})
        extras.append(f"strategy = {args.strategy}")
        extras.append(f"truncated_fraction = {wb.truncated_fraction:.9g}")
    elif args.process == "surplus":
        spb = simulate_surplus(params, dt=args.dt, seed=args.seed,
                               n_paths=args.n_paths)
        header, rows = _summary_rows(
            spb.mesh, {"compound": spb.compound, "diffusion": spb.diffusion})
    else:
        raise ValueError(f"unknown process {args.process!r}")
    _emit(args.out, params, extras, header, rows)
    return 0


def _distortion(params, args):
    if args.measure != "Q_xi":
        return None
    tab = TabulatedStrategy.from_exact(params)
    return tab.distortion_fn


def _wealth_fns(params, args):
    if args.strategy == "exact":
        tab = TabulatedStrategy.from_exact(params)
        return tab.strategy_fn, tab.distortion_fn
    if args.strategy == "riskless":
        zero = lambda t, x, m: (np.zeros_like(x), np.zeros_like(x), np.zeros_like(x))
        return zero, None
    raise ValueError(f"unknown strategy {args.strategy!r}")


# ---------------------------------------------------------------- #
# parser

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ricsolver",
        description="Robust reinsurance-investment-consumption solver and "
                    "verification tools",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, mode=False, seed=False):
        p.add_argument("--config", default=None, help="key = value config file")
        if mode:
            p.add_argument("--mode", default="exact")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("validate", help="check parameters and report")
    common(p, mode=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("solve", help="strategy and value at one point")
    common(p, mode=True)
    p.add_argument("--t", type=float, default=None, help="time (default t0)")
    p.add_argument("--x", type=float, default=1.0, help="wealth (default 1)")
    p.add_argument("--m", type=float, default=None, help="factor (default m0)")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("sweep", help="one-parameter sweep")
    common(p, mode=True)
    p.add_argument("--param", required=True)
    p.add_argument("--values", default=None, help="comma-separated values")
    p.add_argument("--range", default=None, help="lo:hi:step inclusive")
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--x", type=float, default=1.0)
    p.add_argument("--m", type=float, default=None)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("table2", help="sigma table: log-linearized vs exact")
    common(p)
    p.set_defaults(fn=cmd_table2)

    p = sub.add_parser("verify", help="numerical verification suites")
    common(p, seed=True)
    p.add_argument("--suite", default="all",
                   choices=["all", *SUITES])
    p.add_argument("--samples", type=int, default=20,
                   help="perturbations per saddle point")
    p.add_argument("--n-paths", type=int, default=4096, dest="n_paths")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("simulate", help="path simulation summaries")
    common(p, seed=True)
    p.add_argument("--process", default="factor",
                   choices=["factor", "wealth", "surplus"])
    p.add_argument("--measure", default="P", choices=["P", "Q_xi", "FK_tilde"])
    p.add_argument("--strategy", default="exact", choices=["exact", "riskless"])
    p.add_argument("--x0", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--n-paths", type=int, default=1000, dest="n_paths")
    p.set_defaults(fn=cmd_simulate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SolverError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
