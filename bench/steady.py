"""Steadiness check: repeat runs of each workload and compare them to the bounds.

    python3 bench/steady.py --runs 10 --sets 2 [--workloads surface,paths] [--first-seed 1]

Each run is a separate ``bench/run.py --trace 0`` process, one after
another, at BENCHMARK.json's ``run_seconds``.  Set k (k = 0, 1, ...) uses
seeds first-seed + k * runs onwards.  For every end-to-end metric of every
set the table shows the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (Q3 - Q1) / median, the
bound from BENCHMARK.json and whether the spread fits it.  With two sets or
more it also shows how far each later set's median lies from the first's,
|median_k - median_0| / median_0, against the same bound.  The verdict is
steady when every run is correct, every run has the same share of failed
operations, and every spread and every median shift fits its bound.  Raw
results go to .bench_out/steady-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def yes(flag: bool) -> str:
    return "yes" if flag else "NO"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    steady = True
    for workload in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            results = []
            for j in range(args.runs):
                seed = args.first_seed + k * args.runs + j
                res = one_run(workload, seed, spec["run_seconds"])
                results.append(res)
                print(f"{workload} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']}", file=sys.stderr)
            sets.append(results)
        (ROOT / ".bench_out" / f"steady-{workload}.json").write_text(json.dumps(sets))
        runs = [r for results in sets for r in results]
        shares = {r["failed"] / r["attempted"] for r in runs}
        ok_runs = all(r["correct"] for r in runs) and len(shares) == 1
        steady &= ok_runs
        print(f"\n{workload}: {args.sets} x {args.runs} runs, all correct and one failed "
              f"share {sorted(shares)}: {yes(ok_runs)}")
        print(f"  {'metric':12s} set {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>8s} "
              f"{'bound':>6s}  fits  <bound/3  {'shift':>8s}  fits")
        for name, bound in bounds.items():
            first = None
            for k, results in enumerate(sets):
                q1, med, q3 = statistics.quantiles(
                    [r["metrics"][name]["value"] for r in results], n=4)
                spread = (q3 - q1) / med
                steady &= spread <= bound
                line = (f"  {name:12s} {k:3d} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                        f"{bound:6.2f}  {yes(spread <= bound):4s}  "
                        f"{yes(spread <= bound / 3):8s}")
                if first is None:
                    first = med
                else:
                    shift = abs(med - first) / first
                    steady &= shift <= bound
                    line += f"  {shift:8.4f}  {yes(shift <= bound)}"
                print(line)
    print(f"\nsteady: {steady}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
