"""Spans and counters installed around the calls into each crlab layer.

Everything here lives outside the program: `Tracer.install` swaps module
functions and class methods of the already-imported `crlab` modules for
wrappers, and `Tracer.uninstall` puts the originals back.  A module-level
function is replaced under every name any `crlab` module (or the benchmark's
own workloads module) binds it to, because `from .chevalley import collect`
copies the reference.

Calls made at most about 10^5 times per run are timed as spans: name,
start, end, parent span and op id, kept in memory and written out when the
run ends.  Hotter calls (polynomial, root, finite-field and matrix
arithmetic) are only counted, against the innermost open span, so that for example `GF.mul`
under `enumerate_m_conjugacy` stays apart from `GF.mul` under
`evaluate_word`.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute path) of every timed span
SPANS = (
    ("crlab.cli", "main"),
    ("crlab.scenarios", "run_scenario"),
    ("crlab.matrixoracle", "enumerate_m_conjugacy"),
    ("crlab.matrixoracle", "evaluate_word"),
    ("crlab.chevalley", "collect"),
    ("crlab.chevalley", "normalize"),
    ("crlab.chevalley", "word_equal"),
    ("crlab.chevalley", "conjugate"),
    ("crlab.chevalley", "centralizer_system"),
    ("crlab.chevalley", "ConstraintSystem.solve"),
    ("crlab.chevalley", "adjoint"),
    ("crlab.rootsys", "extends_to_ambient"),
    ("crlab.parabolic", "word_in_rparabolic"),
    ("crlab.parabolic", "limit_along"),
    ("crlab.wordexpr", "parse_word"),
    ("crlab.wordexpr", "render_word"),
)

# (module, attribute path) of every counted call
COUNTED = (
    ("crlab.coeffring", "Polynomial.__mul__"),
    ("crlab.coeffring", "Polynomial.__add__"),
    ("crlab.coeffring", "Polynomial.substitute"),
    ("crlab.coeffring", "Polynomial.evaluate"),
    ("crlab.rootsys", "Root.__add__"),
    ("crlab.rootsys", "RootMap.compose"),
    ("crlab.rootsys", "RootMap.__call__"),
    ("crlab.matrixoracle", "GF.mul"),
    ("crlab.matrixoracle", "mat_mul"),
    ("crlab.matrixoracle", "mat_inv"),
    ("crlab.matrixoracle", "A2Matrix.inverse"),
)

ROOT_SPAN = "(op)"  # parent of calls made directly by the benchmark


def span_name(module: str, path: str) -> str:
    return f"{module.split('.', 1)[1]}.{path}"


class Tracer:
    def __init__(self):
        self.names = [ROOT_SPAN] + [span_name(m, p) for m, p in SPANS]
        self.counter_names = [span_name(m, p) for m, p in COUNTED]
        self.spans = []      # [name id, start ns, end ns, parent index, op id]
        self._stack = []     # indices of open spans
        self._top = [0]      # name id of the innermost open span
        self.counts = [[0] * len(COUNTED) for _ in self.names]
        self.extra = defaultdict(int)  # sums kept by span hooks and the benchmark
        self.max_terms = 0
        self.op_id = -1
        self._saved = []     # (owner, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self, extra_modules=()):
        if self._saved:
            raise RuntimeError("tracer already installed")
        owners = [m for n, m in sorted(sys.modules.items()) if n == "crlab" or n.startswith("crlab.")]
        owners += list(extra_modules)
        for nid, (mod, path) in enumerate(SPANS, start=1):
            self._replace(owners, mod, path, self._span_wrapper(nid))
        for cid, (mod, path) in enumerate(COUNTED):
            self._replace(owners, mod, path, self._count_wrapper(path, cid))

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []

    def _replace(self, owners, mod, path, make):
        module = sys.modules[mod]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[attr]
            self._saved.append((cls, attr, orig))
            setattr(cls, attr, make(orig))
            return
        orig = getattr(module, path)
        wrapper = make(orig)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is orig:
                    self._saved.append((owner, attr, orig))
                    setattr(owner, attr, wrapper)

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, nid):
        spans, stack, top, extra = self.spans, self._stack, self._top, self.extra
        clock = time.perf_counter_ns
        name = self.names[nid]
        pre = post = None
        if name == "wordexpr.parse_word":
            def pre(args):
                extra["wordexpr.parse_word.chars"] += len(args[0])
                return args
        elif name == "chevalley.collect":
            def pre(args):
                x = args[0]
                if hasattr(x, "atoms"):
                    extra["chevalley.collect.atoms_in"] += len(x.atoms)
                    return args
                x = list(x)  # collect copies its input anyway
                extra["chevalley.collect.atoms_in"] += len(x)
                return (x,) + tuple(args[1:])
        elif name == "scenarios.run_scenario":
            def post(args, result):
                extra["scenarios.steps"] += len(result.steps)
        elif name == "matrixoracle.enumerate_m_conjugacy":
            def pre(args):
                values = list(args[1])
                extra["matrixoracle.enumerate_m_conjugacy.values"] += len(values)
                return (args[0], values) + tuple(args[2:])

        def wrap(orig):
            def traced(*args, **kwargs):
                if pre is not None:
                    args = pre(args)
                rec = [nid, 0, 0, stack[-1] if stack else -1, self.op_id]
                stack.append(len(spans))
                spans.append(rec)
                outer = top[0]
                top[0] = nid
                rec[1] = clock()
                try:
                    result = orig(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    top[0] = outer
                    stack.pop()
                if post is not None:
                    post(args, result)
                return result
            traced.__wrapped__ = orig
            return traced
        return wrap

    def _count_wrapper(self, path, cid):
        counts, top = self.counts, self._top
        tracer = self
        if path in ("Polynomial.__mul__", "Polynomial.__add__"):
            def wrap(orig):
                def counted(a, b):
                    counts[top[0]][cid] += 1
                    result = orig(a, b)
                    if len(result.terms) > tracer.max_terms:
                        tracer.max_terms = len(result.terms)
                    return result
                counted.__wrapped__ = orig
                return counted
            return wrap

        def wrap(orig):
            def counted(*args, **kwargs):
                counts[top[0]][cid] += 1
                return orig(*args, **kwargs)
            counted.__wrapped__ = orig
            return counted
        return wrap

    # -- summaries ------------------------------------------------------------

    def span_totals(self):
        """name -> [calls, total ns, self ns]; self time is a span's duration
        minus the time its direct child spans cover."""
        child = [0] * len(self.spans)
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (nid, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(self.names[nid], [0, 0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out

    def count(self, counter: str, under: str = None) -> int:
        cid = self.counter_names.index(counter)
        if under is not None:
            return self.counts[self.names.index(under)][cid]
        return sum(row[cid] for row in self.counts)

    def counts_by_parent(self) -> dict:
        return {
            self.names[nid]: {c: n for c, n in zip(self.counter_names, row) if n}
            for nid, row in enumerate(self.counts)
            if any(row)
        }

    def layer_metrics(self, ops: int) -> dict:
        """Every per-layer metric of BENCHMARK.json except the harness one,
        per op of the traced pass."""
        tot = self.span_totals()
        extra = self.extra

        def calls(span):
            return tot.get(span, (0, 0, 0))[0] / ops

        def total_ms(span):
            return tot.get(span, (0, 0, 0))[1] / 1e6 / ops

        def self_ms(span):
            return tot.get(span, (0, 0, 0))[2] / 1e6 / ops

        def per_op(counter):
            return self.count(counter) / ops

        atoms = extra["chevalley.collect.atoms_in"]
        rewrites = (self.count("coeffring.Polynomial.__mul__", "chevalley.collect")
                    + self.count("coeffring.Polynomial.__add__", "chevalley.collect"))
        tried = self.count("matrixoracle.A2Matrix.inverse", "matrixoracle.enumerate_m_conjugacy")
        values = extra["matrixoracle.enumerate_m_conjugacy.values"]
        return {
            "cli.main.self_ms": self_ms("cli.main"),
            "scenarios.run_scenario.calls": calls("scenarios.run_scenario"),
            "scenarios.run_scenario.self_ms": self_ms("scenarios.run_scenario"),
            "scenarios.steps": extra["scenarios.steps"] / ops,
            "scenarios.steps_mismatched": extra["scenarios.steps_mismatched"] / ops,
            "matrixoracle.enumerate_m_conjugacy.calls": calls("matrixoracle.enumerate_m_conjugacy"),
            "matrixoracle.enumerate_m_conjugacy.total_ms": total_ms("matrixoracle.enumerate_m_conjugacy"),
            "matrixoracle.conjugators_tried": tried / ops,
            "matrixoracle.conjugators_per_value": tried / values if values else 0.0,
            "matrixoracle.evaluate_word.calls": calls("matrixoracle.evaluate_word"),
            "matrixoracle.evaluate_word.self_ms": self_ms("matrixoracle.evaluate_word"),
            "matrixoracle.mat_mul.calls": per_op("matrixoracle.mat_mul"),
            "matrixoracle.mat_inv.calls": per_op("matrixoracle.mat_inv"),
            "matrixoracle.GF.mul.calls": per_op("matrixoracle.GF.mul"),
            "chevalley.collect.calls": calls("chevalley.collect"),
            "chevalley.collect.self_ms": self_ms("chevalley.collect"),
            "chevalley.collect.atoms_in": atoms / ops,
            "chevalley.collect.rewrites_per_atom": rewrites / atoms if atoms else 0.0,
            "chevalley.normalize.calls": calls("chevalley.normalize"),
            "chevalley.normalize.self_ms": self_ms("chevalley.normalize"),
            "chevalley.word_equal.calls": calls("chevalley.word_equal"),
            "chevalley.conjugate.calls": calls("chevalley.conjugate"),
            "chevalley.centralizer_system.total_ms": total_ms("chevalley.centralizer_system"),
            "chevalley.ConstraintSystem.solve.self_ms": self_ms("chevalley.ConstraintSystem.solve"),
            "chevalley.adjoint.self_ms": self_ms("chevalley.adjoint"),
            "coeffring.Polynomial.__mul__.calls": per_op("coeffring.Polynomial.__mul__"),
            "coeffring.Polynomial.__add__.calls": per_op("coeffring.Polynomial.__add__"),
            "coeffring.Polynomial.max_terms": float(self.max_terms),
            "coeffring.Polynomial.substitute.calls": per_op("coeffring.Polynomial.substitute"),
            "coeffring.Polynomial.evaluate.calls": per_op("coeffring.Polynomial.evaluate"),
            "rootsys.Root.__add__.calls": per_op("rootsys.Root.__add__"),
            "rootsys.RootMap.compose.calls": per_op("rootsys.RootMap.compose"),
            "rootsys.RootMap.__call__.calls": per_op("rootsys.RootMap.__call__"),
            "rootsys.extends_to_ambient.total_ms": total_ms("rootsys.extends_to_ambient"),
            "parabolic.word_in_rparabolic.calls": calls("parabolic.word_in_rparabolic"),
            "parabolic.word_in_rparabolic.total_ms": total_ms("parabolic.word_in_rparabolic"),
            "parabolic.limit_along.calls": calls("parabolic.limit_along"),
            "wordexpr.parse_word.self_ms": self_ms("wordexpr.parse_word"),
            "wordexpr.parse_word.chars": extra["wordexpr.parse_word.chars"] / ops,
            "wordexpr.render_word.self_ms": self_ms("wordexpr.render_word"),
        }

    def dump_spans(self) -> dict:
        return {"names": self.names, "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                "spans": self.spans}
