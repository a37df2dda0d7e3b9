"""How fast the host runs Python code right now, from a fixed reference job.

The benchmark's host is a VM on shared hardware.  Its speed drifts by up
to 2x over seconds to minutes, and the drift shows in process CPU time
as much as in wall time, so a run's raw times mostly say how busy the
neighbours were.  `sample()` times a fixed job written in the program's
style (small slotted objects, tuple-keyed dicts, frozensets of tuples,
a sort) that calls no crlab code, so no change to the program can change
its cost.  Dividing an op's time by the reference job's time measured
just around it, and multiplying by `NOMINAL_MS`, gives the op's time at a
nominal host speed: a program that does 10% more work reads 10% slower,
a host that runs everything 10% slower does not.
"""

from __future__ import annotations

import gc
import time

# Wall time of one reference job on an unloaded 2-vCPU Intel Xeon VM
# (Python 3.11).  Scaled times are times on a host that runs the job this fast.
NOMINAL_MS = 1.2


class _Node:
    __slots__ = ("key", "val", "kids")

    def __init__(self, key, val):
        self.key = key
        self.val = val
        self.kids = []


def _job():
    nodes = {}
    for i in range(750):
        k = (i % 37, i % 11, i >> 3)
        n = nodes.get(k)
        if n is None:
            n = nodes[k] = _Node(k, frozenset({(i & 7, i & 3), (i % 5, 1)}))
        n.kids.append(i)
    acc = set()
    for n in nodes.values():
        for t in n.val:
            m = (t[0] + n.key[0], t[1] ^ n.key[1])
            if m in acc:
                acc.remove(m)
            else:
                acc.add(m)
    order = sorted(nodes, key=lambda k: (k[2], k[0]))
    return len(acc), order[0]


EXPECTED = _job()


def sample():
    """(wall ns, cpu ns) of one reference job.  The collector is off while
    it runs, so the job never pays for a collection of the program's heap;
    every object it makes is freed before it returns."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        c0 = time.process_time_ns()
        t0 = time.perf_counter_ns()
        out = _job()
        t1 = time.perf_counter_ns()
        c1 = time.process_time_ns()
    finally:
        if enabled:
            gc.enable()
    if out != EXPECTED:
        raise RuntimeError("the reference job gave another answer")
    return t1 - t0, c1 - c0


def factors(refs, at):
    """Per op, the host's (wall, cpu) slowdown against the nominal speed
    while it ran: the mean of the reference jobs just before and just after
    the stretch of ops it belongs to (`at[i]` indexes the one before).  The
    host's speed changes within a second, so the nearest samples track it
    best."""
    out = []
    for j in at:
        pair = refs[j: j + 2]
        out.append(tuple(sum(r[k] for r in pair) / len(pair) / (NOMINAL_MS * 1e6) for k in (0, 1)))
    return out
