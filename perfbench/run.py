"""Run one crlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {verify-all,d4-engine,a2-oracle} \
        --seed N --seconds S --trace {0,1}

One process per workload, one thread, a closed loop with one op in flight.
Inputs come from --seed alone.  Each op's answer is checked against the
known one; an op that raises, answers wrong or cannot decide is failed.

--trace 0 prints the end-to-end metrics.  Set-up time is the median over
fresh processes, each importing crlab, building the workload's root systems
and fields and running one cold op.  After one untimed warm-up round the
timed loop runs whole rounds of ops until --seconds of op time and at least
100 ops have passed.  Times are scaled to a nominal host speed by a fixed
reference job timed between ops (hostspeed.py); the raw times go to the
record next to them.

--trace 1 prints the per-layer metrics: each round runs twice, untraced and
with the tracer's spans and counters installed, until --seconds of op time;
per-layer figures are per traced op, and trace.overhead_frac compares the
two passes over the same ops.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  `attempted` counts every checked op, the warm-up round and the
set-up probes' cold ops included.  A fuller record (git SHA, Python version, nproc, seed, op count,
per-kind latencies, failures, and for traced runs every span) goes to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
MIN_OPS = 100       # so that at least 10 samples lie beyond p90
SETUP_PROBES = 9    # fresh processes per set-up measurement
PROBE_REFS = 8      # reference jobs before and after each set-up probe
REF_EVERY_NS = 40e6  # op time between two reference jobs
SHOWN_FAILURES = 5


def load_workloads():
    """Import the benchmark's workloads against the checkout's own crlab sources."""
    src = ROOT / "src"
    if not (src / "crlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no crlab sources at {src}")
    sys.path.insert(0, str(src))
    import workloads  # noqa: E402  (needs the path above)
    import crlab
    if Path(crlab.__file__).resolve().parent != src / "crlab":
        raise SystemExit(f"error: imported crlab from {crlab.__file__}, not from {src}")
    return workloads


def execute(op):
    """(wall ns, cpu ns, problem) of one op; only op.call() is timed."""
    c0 = time.process_time_ns()
    t0 = time.perf_counter_ns()
    try:
        out = op.call()
        err = None
    except Exception as exc:  # an engine error is a failed op, not a failed run
        err = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter_ns()
    c1 = time.process_time_ns()
    if err is None:
        try:
            err = op.check(out)
        except Exception as exc:
            err = f"checking the answer raised {type(exc).__name__}: {exc}"
    return t1 - t0, c1 - c0, err


def run_rounds(workload, rng, seconds, min_ops):
    """Whole rounds until `seconds` of op and reference time and `min_ops`
    ops.  Returns the ops [(kind, wall ns, cpu ns, problem)], the reference
    jobs [(wall ns, cpu ns)] run between them, one each REF_EVERY_NS of op
    time and one at the end, and per op the index of the last reference job
    before it.  Ops are dropped once run, so that the benchmark's own live
    objects do not grow the program's garbage-collection work."""
    gc.collect()
    done, refs, at = [], [], []
    busy = since_ref = 0
    while busy < seconds * 1e9 or len(done) < min_ops:
        for op in workload.round(rng):
            if not refs or since_ref >= REF_EVERY_NS:
                refs.append(hostspeed.sample())
                busy += refs[-1][0]
                since_ref = 0
            res = execute(op)
            done.append((op.kind, *res))
            at.append(len(refs) - 1)
            busy += res[0]
            since_ref += res[0]
    refs.append(hostspeed.sample())  # closes the last stretch
    return done, refs, at


def run_traced_rounds(workload, rng, seconds, tracer, extra_modules):
    """Each round twice, untraced and with the tracer installed, in
    alternating order, until both passes together took `seconds` of op
    time.  Host speed changes then hit both passes alike, and so does
    whatever the first run of an op leaves cached for the second."""
    gc.collect()
    plain, traced = [], []
    busy = 0
    first_traced = False
    while busy < seconds * 1e9:
        ops = workload.round(rng)
        for with_tracer in (first_traced, not first_traced):
            if with_tracer:
                tracer.install(extra_modules)
                workload.tally = tracer.extra
            try:
                for op in ops:
                    tracer.op_id = len(traced)
                    res = execute(op)
                    (traced if with_tracer else plain).append((op.kind, *res))
                    busy += res[0]
            finally:
                if with_tracer:
                    tracer.uninstall()
                    workload.tally = Counter()
        first_traced = not first_traced
    return plain, traced


def setup_probe(name, seed):
    """Runs in a fresh process: seconds to import crlab and build the
    workload, plus the first (cold) op; input generation is not counted.
    Reference jobs run just before and just after give the host's speed
    in this process."""
    refs = [hostspeed.sample()[0] for _ in range(PROBE_REFS)]
    t0 = time.perf_counter()
    workloads = load_workloads()
    workload = workloads.WORKLOADS[name]()
    t1 = time.perf_counter()
    op = workload.cold_op(random.Random(seed))
    wall, _, problem = execute(op)
    raw = t1 - t0 + wall / 1e9
    refs += [hostspeed.sample()[0] for _ in range(PROBE_REFS)]
    factor = statistics.median(refs) / (hostspeed.NOMINAL_MS * 1e6)
    return {"setup_s": raw / factor, "raw_setup_s": raw, "problem": problem}


def measure_setup(name, seed):
    """Scaled and raw set-up times of SETUP_PROBES fresh processes."""
    samples, raw, problems = [], [], []
    for i in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed + i)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(res["setup_s"])
        raw.append(res["raw_setup_s"])
        if res["problem"]:
            problems.append(f"cold op: {res['problem']}")
    return samples, raw, problems


def summarize(done, scale):
    """Timing metrics of `done`, each op's wall and cpu time divided by its
    (wall, cpu) factor in `scale`."""
    wall_ms = [w / 1e6 / fw for (_, w, _, _), (fw, _) in zip(done, scale)]
    cpu_ms = [c / 1e6 / fc for (_, _, c, _), (_, fc) in zip(done, scale)]
    deciles = statistics.quantiles(wall_ms, n=10)
    return {
        "ops_per_s": len(done) / (sum(wall_ms) / 1e3),
        "latency_ms.p50": statistics.median(wall_ms),
        "latency_ms.p90": deciles[8],
        "cpu_ms_per_op": sum(cpu_ms) / len(done),
    }


def by_kind(done):
    kinds = {}
    for kind, wall, _, problem in done:
        kinds.setdefault(kind, []).append((wall / 1e6, problem is not None))
    return {k: {"ops": len(v), "median_ms": statistics.median(w for w, _ in v),
                "failed": sum(f for _, f in v)} for k, v in sorted(kinds.items())}


def git_sha():
    """HEAD of the repository the benchmark sits in; None in a checkout that
    is not a repository, or where git is not installed."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(spec):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run(name, seed, seconds, trace, workloads):
    workload = workloads.WORKLOADS[name]()
    rng = random.Random(seed)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "git_sha": git_sha(), "python": platform.python_version(), "nproc": os.cpu_count()}
    problems = []
    if not trace:
        setup, raw_setup, problems = measure_setup(name, seed)
        record.update(setup_samples_s=setup, raw_setup_samples_s=raw_setup)
    warm = run_rounds(workload, rng, 0, 1)[0]  # one round: caches fill, lazy set-up finishes

    if not trace:
        done, refs, at = run_rounds(workload, rng, seconds, MIN_OPS)
        metrics = summarize(done, hostspeed.factors(refs, at))
        record["raw_metrics"] = {**summarize(done, [(1.0, 1.0)] * len(done)),
                                 "setup_s": statistics.median(raw_setup)}
        record["host_slowdown"] = statistics.median(r[0] for r in refs) / (hostspeed.NOMINAL_MS * 1e6)
        checked = warm + done
        failed = sum(p is not None for *_, p in checked) + len(problems)
        attempted = len(checked) + SETUP_PROBES
        metrics["ok_frac"] = 1 - failed / attempted
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        from tracer import Tracer
        tracer = Tracer()
        done, traced = run_traced_rounds(workload, rng, seconds, tracer, [workloads])
        metrics = tracer.layer_metrics(len(traced))
        metrics["trace.overhead_frac"] = 1 - sum(w for _, w, _, _ in done) / sum(w for _, w, _, _ in traced)
        record["traced_ops"] = len(traced)
        record["counts_by_parent"] = tracer.counts_by_parent()
        record["spans"] = tracer.dump_spans()
        checked = warm + done + traced
        failed = sum(p is not None for *_, p in checked)
        attempted = len(checked)

    problems += [f"{kind}: {p}" for kind, *_, p in checked if p is not None]
    record.update(attempted=attempted, failed=failed, failed_frac=failed / attempted,
                  ops=len(done), kinds=by_kind(done), failures=problems[:50], metrics=metrics)
    return record, problems


def main(argv=None):
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0

    workloads = load_workloads()
    unit = units(spec)
    record, problems = run(args.workload, args.seed, args.seconds, args.trace, workloads)
    for text in problems[:SHOWN_FAILURES]:
        print(f"FAILED {text}", file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))

    metrics = record["metrics"]
    print(f"{args.workload} seed={args.seed} trace={args.trace} timed ops={record['ops']} "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"failed_frac={record['failed_frac']:.4f} (fraction)")
    for key, value in metrics.items():
        print(f"  {key:48s} {value:14.6g} {unit[key]}")
    if "raw_metrics" in record:
        print(f"  host slowdown against the nominal speed: {record['host_slowdown']:.4g}; unscaled:")
        for key, value in record["raw_metrics"].items():
            print(f"  {'  ' + key:48s} {value:14.6g} {unit[key]}")
    print(f"  record: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
