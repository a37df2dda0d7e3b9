"""Run every crlab benchmark workload, one process each.

    python3 perfbench/suite.py [--seconds S] [--seed N]
        Each workload untraced, then traced: every end-to-end metric (from
        the untraced run, with failed_frac), every per-layer metric and
        trace.overhead_frac (from the traced run), by name and unit.

    python3 perfbench/suite.py --runs 10 [--seconds S] [--seed N]
        Stability: two sets of untraced runs of each workload, `runs` each,
        on seeds N, N+1, ...  For every end-to-end metric and set it prints
        the median, the quartiles (statistics.quantiles(values, n=4)) and
        their spread as a share of the median, next to the metric's bound
        from BENCHMARK.json; then the drift |set 2 - set 1| / set 1 of the
        medians against the bound.  The last line is the largest spread or
        drift, setup_s included, as a share of its bound.

Results are written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_once(workload, seed, seconds, trace):
    cmd = SPEC["command"][1:]
    proc = subprocess.run(
        [sys.executable, *cmd, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(seed, seconds):
    ok = True
    for workload in WORKLOADS:
        plain = run_once(workload, seed, seconds, 0)
        traced = run_once(workload, seed, seconds, 1)
        ok = ok and plain["correct"] and traced["correct"]
        print(f"{workload}: attempted {plain['attempted']} + {traced['attempted']} traced, "
              f"failed {plain['failed']} + {traced['failed']}")
        print(f"  {'failed_frac':48s} {plain['failed'] / plain['attempted']:14.6g} fraction")
        for name, m in list(plain["metrics"].items()) + list(traced["metrics"].items()):
            print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    return ok


def spread_of(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def stability(seed, seconds, runs):
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary = {}
    worst = 0.0
    for workload in WORKLOADS:
        medians = []
        for s in range(2):
            seeds = range(seed + s * runs, seed + (s + 1) * runs)
            rows = [run_once(workload, n, seconds, 0) for n in seeds]
            if not all(r["correct"] for r in rows):
                print(f"{workload}: some run answered wrong")
            print(f"{workload} set {s + 1}, seeds {seeds.start}..{seeds.stop - 1}:")
            print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
            stats = {}
            for name in bounds:
                values = [r["metrics"][name]["value"] for r in rows]
                q1, med, q3, spread = spread_of(values)
                stats[name] = {"values": values, "median": med, "q1": q1, "q3": q3, "spread": spread}
                worst = max(worst, spread / bounds[name])
                print(f"  {name:16s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bounds[name]:6.3f}")
            medians.append(stats)
        print(f"{workload} drift of set 2's median from set 1's, as a share of set 1's:")
        for name, bound in bounds.items():
            a, b = medians[0][name]["median"], medians[1][name]["median"]
            drift = abs(b - a) / a
            worst = max(worst, drift / bound)
            print(f"  {name:16s} {drift:8.4f} {bound:6.3f}")
        summary[workload] = medians
    print(f"largest spread or drift as a share of its bound: {worst:.3f}")
    out = HERE / "results" / f"stability-seed{seed}-runs{runs}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    print(f"record: {out.relative_to(ROOT)}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--runs", type=int, default=1)
    args = p.parse_args(argv)
    if args.runs > 1:
        stability(args.seed, args.seconds, args.runs)
        return 0
    return 0 if report(args.seed, args.seconds) else 1


if __name__ == "__main__":
    sys.exit(main())
