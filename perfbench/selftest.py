"""Self-test of the benchmark's answer checking and metric names.

    python3 perfbench/selftest.py

Shows that a wrong expectation and a wrong engine result are both counted
in failed_frac, that a step status flipping in either direction fails a
verify-all op, and that a short run of each mode prints exactly the metric
names BENCHMARK.json declares.  Exits 1 if any of that does not hold.
"""

from __future__ import annotations

import copy
import random
import sys

import run

workloads = run.load_workloads()
from crlab import chevalley  # noqa: E402  (run.load_workloads puts crlab on the path)
from crlab.chevalley import RootElement  # noqa: E402

RECORDED_FAIL = ("d4-gir-not-gcr", "n12-action-on-11")
SOME_PASS = ("a2-conjugacy", "m-conjugacy-f4")


def failed_frac(workload, ops=2, seed=7):
    done = run.run_rounds(workload, random.Random(seed), 0, ops)[0]
    return sum(p is not None for *_, p in done) / len(done)


def with_status(step, status):
    table = copy.deepcopy(workloads.VerifyAll().expected)
    table[step[0]][step[1]] = status
    return workloads.VerifyAll(table)


real_normalized_word = chevalley.normalized_word


def wrong_normal_form(w):
    """The engine's normal form times e1(1): a different group element."""
    canon = real_normalized_word(w)
    return canon * chevalley.word(w.system, w.registry, RootElement(w.system.root_by_label(1), w.registry.one()))


def main():
    checks = []

    def expect(label, got, want):
        ok = got == want
        checks.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {got} (expected {want})")

    expect("verify-all, recorded table: failed_frac", failed_frac(workloads.VerifyAll()), 0.0)
    expect("verify-all, expectation says the recorded FAIL passes: failed_frac",
           failed_frac(with_status(RECORDED_FAIL, "PASS")), 1.0)
    expect("verify-all, expectation says a passing step fails: failed_frac",
           failed_frac(with_status(SOME_PASS, "FAIL")), 1.0)
    flipped = with_status(SOME_PASS, "FAIL")
    failed_frac(flipped, ops=1)
    expect("verify-all, one flipped step: steps_mismatched per op",
           flipped.tally["scenarios.steps_mismatched"], 1)

    expect("a2-oracle, engine as it is: failed_frac", failed_frac(workloads.A2Oracle(), ops=12), 0.0)
    chevalley.normalized_word = wrong_normal_form
    try:
        expect("a2-oracle, engine normal form made wrong: failed_frac", failed_frac(workloads.A2Oracle(), ops=12), 1.0)
    finally:
        chevalley.normalized_word = real_normalized_word

    spec = run.load_spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        record, problems = run.run("a2-oracle", 3, 0.3, trace, workloads)
        names, declared = list(record["metrics"]), [m["name"] for m in spec[key]]
        ok = names == declared and not problems
        checks.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} --trace {trace} reports the {len(declared)} {key} metrics"
              + ("" if ok else f": got {names}, problems {problems[:3]}"))
    return 0 if all(checks) else 1


if __name__ == "__main__":
    sys.exit(main())
