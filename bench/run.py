"""Benchmark of the ricsolver package: one workload, one run.

    python3 bench/run.py --workload surface --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (setup_s, ops_per_s, op_p50_ms,
peak_rss_mb), and the run, set-ups and checks included, ends about
``--seconds`` after it starts; with
``--trace 1`` they are the per-layer ones, taken over a fixed number of
rounds per workload, and the spans are written to .bench_out/.  See
bench/README.md.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import io
import itertools
import json
import resource
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
PACKAGE = "ricsolver"

# CLI subcommands timed in the traced run.  The last entry is run (traced)
# only so that every layer is exercised on every workload.
CLI_BLOCK = (
    ("cli.solve_s", (["solve"],)),
    ("cli.sweep_s", (["sweep", "--param", "sigma", "--values", "0.2,0.3",
                      "--mode", "exact,unit_eis,cs"],)),
    ("cli.table2_s", (["table2"],)),
    ("cli.verify_mc_s", (["verify", "--suite", "mc"],)),
    ("cli.simulate_s", (["simulate", "--process", "factor", "--measure", "Q_xi"],
                        ["simulate", "--process", "wealth"],
                        ["simulate", "--process", "surplus"])),
    (None, (["validate"], ["verify", "--suite", "fd"])),
)


def fresh_import():
    """Import the package from scratch (numpy and scipy stay loaded)."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    rs = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    return rs


def timed_setup(wl, seed: int):
    gc.collect()  # each sample starts from the same collector state
    start = perf_counter()
    ctx = wl.setup(fresh_import(), seed)
    return perf_counter() - start, ctx


class Pass:
    """Operations run back to back in whole rounds, each checked after it."""

    def __init__(self, wl, ctx, tracer=None):
        self.wl, self.ctx, self.tracer = wl, ctx, tracer
        self.latencies, self.failures, self.kept = [], [], []
        self.first = None

    def run(self, n_rounds: int | None = None, deadline=None, between=None) -> None:
        """n_rounds whole rounds, or whole rounds for as long as the next one,
        at the mean wall time of those so far, ends before deadline() (a
        perf_counter() reading); between() runs after each checked op."""
        wl, ctx = self.wl, self.ctx
        i = 0
        start = perf_counter()
        for r in itertools.count():
            if n_rounds is not None and r >= n_rounds:
                return
            if deadline is not None and r > 0:
                now = perf_counter()
                if now + (now - start) / r > deadline():
                    return
            self._phase("round")
            specs = wl.round(ctx, r)
            self._phase("ops")
            for spec in specs:
                start_op = perf_counter()
                try:
                    out = wl.op(ctx, spec)
                except Exception as exc:  # an operation that raises counts as failed
                    out, bad = None, [f"{type(exc).__name__}: {exc}"]
                self.latencies.append(perf_counter() - start_op)
                if out is not None:
                    self._phase("check")
                    bad = wl.check(ctx, i, spec, out)
                    self._phase("ops")
                    if i == 0:
                        self.first = out
                    if i < wl.keep:
                        self.kept.append(out)
                self.failures.append(bad)
                i += 1
                if between:
                    between()

    def _phase(self, name: str) -> None:
        if self.tracer:
            self.tracer.phase = name

    def finish(self, warm) -> list:
        """Run-level checks: warm-up rerun, kept outputs, workload extras."""
        self._phase("check")
        bad = []
        if self.first is None or self.wl.digest(warm) != self.wl.digest(self.first):
            bad.append("rerun of the first operation is not bit-identical")
        if len(self.kept) == self.wl.keep:
            bad += self.wl.finish(self.ctx, self.kept)
        else:
            bad.append("operations needed by the run-level checks failed")
        return bad

    @property
    def n_failed(self) -> int:
        return sum(1 for f in self.failures if f)


def report_failures(messages) -> None:
    for msg in list(dict.fromkeys(messages))[:10]:
        print(f"check failed: {msg}", file=sys.stderr)


def run_cli(rs, argv) -> float:
    start = perf_counter()
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = rs.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"ricsolver {' '.join(argv)} exited with {code}")
    return perf_counter() - start


def end_to_end(wl, seed: int, seconds: float, start: float):
    """The run ends about `seconds` after `start`: set-ups, operations and
    their checks all fit in that time."""
    # The first set-up serves the operations; the repeats are spread over
    # the run so that setup_s, their median, does not hinge on one moment.
    first, ctx = timed_setup(wl, seed)
    setups = [first]

    def resample() -> None:
        if (len(setups) < wl.setup_reps
                and perf_counter() - start >= seconds * len(setups) / wl.setup_reps):
            setups.append(timed_setup(wl, seed)[0])

    def deadline() -> float:
        # leave room for the set-up samples still to come
        return start + seconds - (wl.setup_reps - len(setups)) * statistics.median(setups)

    warm = wl.op(ctx, wl.round(ctx, 0)[0])
    gc.collect()
    run = Pass(wl, ctx)
    run.run(deadline=deadline, between=resample)
    while len(setups) < wl.setup_reps:
        setups.append(timed_setup(wl, seed)[0])
    run_bad = run.finish(warm)
    busy = sum(run.latencies)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(run.latencies) / busy, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(run.latencies), "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return run_bad, [run], metrics


def per_layer(wl, seed: int):
    from spans import Tracer, layer_metrics

    imports = []
    for _ in range(5):
        start = perf_counter()
        rs = fresh_import()
        imports.append(perf_counter() - start)
    metrics = {"cli.import_s": (statistics.median(imports), "s")}
    for name, commands in CLI_BLOCK:
        if name:
            metrics[name] = (sum(run_cli(rs, argv) for argv in commands), "s")

    # Untraced half: the baseline for the tracing overhead.  Both halves do
    # the same fixed rounds, so counts and times are per fixed work.
    _, ctx = timed_setup(wl, seed)
    warm = wl.op(ctx, wl.round(ctx, 0)[0])
    plain = Pass(wl, ctx)
    plain.run(n_rounds=wl.trace_rounds)
    bad = plain.finish(warm)

    # Traced half: fresh modules, wrapped before set-up, same operations.
    rs = fresh_import()
    tracer = Tracer()
    tracer.install(rs)
    tracer.phase = "setup"
    ctx = wl.setup(rs, seed)
    tracer.phase = "warmup"
    warm = wl.op(ctx, wl.round(ctx, 0)[0])
    traced = Pass(wl, ctx, tracer)
    traced.run(n_rounds=wl.trace_rounds)
    bad += traced.finish(warm)
    tracer.phase = "cli"
    for _, commands in CLI_BLOCK:
        for argv in commands:
            run_cli(rs, argv)

    spans = [s for s in tracer.spans if s[4] in ("setup", "ops", "cli")]
    for name, value in layer_metrics(spans).items():
        unit = "1/s" if name.endswith("_per_s") else "s" if name.endswith("_s") else "count"
        metrics[name] = (value, unit)
    overhead = (sum(traced.latencies) - sum(plain.latencies)) / len(plain.latencies)
    metrics["trace.overhead_ms_per_op"] = (1e3 * overhead, "ms")
    metrics["src.lines"] = (sum(len(f.read_text().splitlines())
                                for f in sorted((SRC / PACKAGE).rglob("*.py"))), "count")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"trace-{wl.name}-seed{seed}.json")
    return bad, [plain, traced], metrics


def main(argv=None) -> int:
    from workloads import WORKLOADS

    start = perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    importlib.import_module(PACKAGE)  # first import: numpy, scipy and the package

    wl = WORKLOADS[args.workload]
    if args.trace:
        run_bad, passes, metrics = per_layer(wl, args.seed)
    else:
        run_bad, passes, metrics = end_to_end(wl, args.seed, args.seconds, start)
    report_failures(run_bad + [m for p in passes for f in p.failures for m in f])
    result = {
        "correct": not run_bad,
        "attempted": sum(len(p.latencies) for p in passes),
        "failed": sum(p.n_failed for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
