"""The three benchmark workloads and their known answers.

A workload hands out rounds of ops.  Every round holds a fixed number of
ops of each kind, shuffled by the seed, so the share of each kind in a run
does not depend on the seed and the latency percentiles fall inside one
kind rather than on the cliff between two.  An op is one verification
query: `call()` makes the program calls and is all that is timed, and
`check(output)` compares the output with the answer known for the input,
returning None when it matches and a reason when it does not.

Inputs are built here from the seed; the program only ever sees them
through its public functions in `crlab.cli`, `scenarios`, `chevalley`,
`coeffring`, `rootsys`, `parabolic`, `matrixoracle` and `wordexpr`.
Every program call goes through the module attribute (`chevalley.collect`,
not a copied name), so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import Counter
from pathlib import Path

from crlab import chevalley, cli, coeffring, matrixoracle, parabolic, rootsys, wordexpr
from crlab.chevalley import GraphAut, RadicalElement, RootElement, TorusValue, WeylRep

EXPECTED_VERIFY = Path(__file__).resolve().parent / "expected_verify.json"


class Op:
    __slots__ = ("kind", "call", "check")

    def __init__(self, kind, call, check):
        self.kind = kind
        self.call = call
        self.check = check


def _shuffled(rng, ops):
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# verify-all: what a user runs


class VerifyAll:
    """`crlab verify --all --format json` in process, stdout captured.

    The recorded table (expected_verify.json) holds the status of every step
    of every scenario.  All are PASS except d4-gir-not-gcr/n12-action-on-11,
    the failure the README records, so the expected exit code is 1.  A step
    whose status flips either way, a missing or extra step, or another exit
    code fails the op.
    """

    name = "verify-all"

    def __init__(self, expected=None):
        if expected is None:
            expected = json.loads(EXPECTED_VERIFY.read_text())
        self.expected = expected
        self.expected_exit = 0 if all(
            status == "PASS" for steps in expected.values() for status in steps.values()) else 1
        self.tally = Counter()

    def round(self, rng):
        return [self._op(rng.randrange(2 ** 31))]

    def cold_op(self, rng):
        return self.round(rng)[0]

    def _op(self, k):
        argv = ["verify", "--all", "--seed", str(k), "--format", "json"]

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        def check(out):
            code, text = out
            got = {r["scenario"]: {s["name"]: s["status"] for s in r["steps"]}
                   for r in json.loads(text)}
            wrong = [f"{sc}/{step}: expected {want}, got {got.get(sc, {}).get(step, 'missing')}"
                     for sc, steps in self.expected.items()
                     for step, want in steps.items()
                     if got.get(sc, {}).get(step) != want]
            wrong += [f"{sc}/{step}: unexpected step"
                      for sc, steps in got.items() for step in steps
                      if step not in self.expected.get(sc, {})]
            self.tally["scenarios.steps_mismatched"] += len(wrong)
            if code != self.expected_exit:
                wrong.append(f"exit code {code}, expected {self.expected_exit}")
            return "; ".join(wrong) or None

        return Op("verify", call, check)


# ---------------------------------------------------------------------------
# d4-engine: the symbolic engine, no matrix oracle

_COORDS = tuple(f"x{i}" for i in range(4, 13))


def _radical_registry():
    reg = coeffring.VariableRegistry()
    for name in _COORDS:
        reg.add(name)
    reg.add("z")
    reg.add("t", coeffring.UNIT)
    return reg


def _reshuffle(atoms, cuts):
    """Adjacent transpositions e_a(x)e_b(y) -> e_b(y)e_a(x)e_{a+b}(xy), which
    keep the group element; `cuts` in [0, 1) pick the positions."""
    w = list(atoms)
    for cut in cuts:
        i = int(cut * (len(w) - 1))
        a, b = w[i], w[i + 1]
        c = a.root + b.root
        w[i], w[i + 1] = b, a
        if c is not None:
            w.insert(i + 2, RootElement(c, a.coeff * b.coeff))
    return w


class D4Engine:
    """Collection, conjugation, centralizer systems, parabolic limits and
    ambient extensions on D4 (and A3 for the last two)."""

    name = "d4-engine"
    # Ops per round, cheapest first.  Sorted by latency, a round's 47 ops
    # put the A3 extensions (about half of the 8) at 0-8.5%, action-law and
    # parabolic queries at 8.5-64%, D4 extensions and centralizers next,
    # and collect-50/200/400 at 81-85%, 85-98% and 98-100%: p50 and p90
    # fall inside a kind, not on the step between two, and collection does
    # most of the work.
    MIX = (("extends", 6), ("extends-paper", 2), ("action", 14), ("parabolic", 12),
           ("centralizer", 4), ("collect-50", 2), ("collect-200", 6), ("collect-400", 1))

    def __init__(self):
        self.d4 = rootsys.root_system("d4")
        self.a3 = rootsys.root_system("a3")
        self.radical = tuple(self.d4.root_by_label(i) for i in range(4, 13))
        self.opposite = tuple(-r for r in self.radical)
        self.reg = _radical_registry()
        self._stabilizers = {}
        self.tally = Counter()

    def round(self, rng):
        return _shuffled(rng, [self._make(rng, kind) for kind, n in self.MIX for _ in range(n)])

    def _make(self, rng, kind):
        family = kind.split("-")[0]
        make = {"collect": self._collect, "centralizer": self._centralizer, "extends": self._extends,
                "parabolic": self._parabolic, "action": self._action}[family]
        return make(rng, kind)

    def cold_op(self, rng):
        return self._centralizer(rng, "centralizer")

    def _collect(self, rng, kind):
        length = int(kind.split("-")[1])

        def coeff():
            if rng.random() < 0.5:
                return rng.choice(_COORDS)
            return f"{rng.choice(_COORDS)}*{rng.choice(_COORDS)}+{rng.choice(_COORDS)}"

        text = "*".join(f"e{rng.randrange(4, 13)}({coeff()})" for _ in range(length))
        cuts = [rng.random() for _ in range(length // 10)]
        d4, order = self.d4, self.radical

        def call():
            reg = coeffring.VariableRegistry()
            w = wordexpr.parse_word(text, d4, reg)
            res = chevalley.collect(w, order)
            ident = chevalley.collect(w * w.inverse(), order)
            shuffled = chevalley.collect(_reshuffle(w.atoms, cuts), order, reg)
            back = wordexpr.parse_word(wordexpr.render_word(res), d4, reg)
            return res, ident, shuffled, back

        def check(out):
            res, ident, shuffled, back = out
            if not ident.is_trivial:
                return f"w*w^-1 collected to {ident!r}, not 1"
            if shuffled != res:
                return "an admissible reshuffle collected to another element"
            if back.atoms != res.atoms():
                return "render then parse did not give the collected word back"
            return None

        return Op(kind, call, check)

    def _action(self, rng, kind):
        d4, reg = self.d4, self.reg

        def frame_word():
            atoms = []
            for _ in range(rng.randrange(1, 4)):
                k = rng.randrange(3)
                if k == 0:
                    atoms.append(WeylRep(d4.simple(rng.choice("abcd"))))
                elif k == 1:
                    atoms.append(GraphAut(d4, rng.choice(("sigma", "sigma2"))))
                else:
                    atoms.append(TorusValue(d4.cocharacter([rng.randrange(-2, 3) for _ in range(4)]), "t"))
            return chevalley.word(d4, reg, *atoms)

        g, h = frame_word(), frame_word()
        x = chevalley.word(d4, reg, *[
            RootElement(d4.root_by_label(rng.choice((1, -1)) * rng.randrange(1, 13)),
                        reg.var(rng.choice(_COORDS)))
            for _ in range(rng.randrange(1, 4))])

        def call():
            lhs = chevalley.conjugate(g * h, x)
            rhs = chevalley.conjugate(g, chevalley.conjugate(h, x))
            return chevalley.word_equal(lhs, rhs)

        def check(equal):
            return None if equal is True else "(gh).x and g.(h.x) normalize differently"

        return Op(kind, call, check)

    def _centralizer(self, rng, kind):
        """The paper's M = <n[a]*sigma, (a+c)^v(t)> on U and on U^-: the
        d4-gir-not-gcr scenario answers U_12 (through the forced x6^2 = 0)
        and U_-12."""
        d4 = self.d4
        reg = _radical_registry()
        gens = [chevalley.word(d4, reg, WeylRep(d4.simple("a")), GraphAut(d4, "sigma")),
                chevalley.word(d4, reg, TorusValue(d4.cocharacter((1, 0, 1, 0)), "t"))]
        rng.shuffle(gens)
        radical, opposite = self.radical, self.opposite

        def call():
            return (chevalley.centralizer_system(gens, radical, reg),
                    chevalley.centralizer_system(gens, opposite, reg))

        def check(out):
            on_u, on_opp = out
            got = (on_u.subgroup_description(), any(str(p) == "x6^2" for p in on_u.solved.forced),
                   on_opp.subgroup_description())
            return None if got == ("U_12", True, "U_-12") else f"centralizers {got}"

        return Op(kind, call, check)

    def _parabolic(self, rng, kind):
        """Membership in P_lambda and limits along lambda for a random
        cocharacter.  A word of frame atoms fixing lambda and root elements
        pairing >= 0 lies in P_lambda; appending e_r(z), <r, lambda> < 0,
        with z used nowhere else takes it out.  A tail over the roots
        pairing >= 0 has the limit that keeps its pairing-0 coefficients; a
        tail with a coordinate at a root pairing < 0 has none."""
        system = rng.choice((self.d4, self.a3))
        reg = self.reg
        while True:
            lam = system.cocharacter([rng.randrange(-2, 3) for _ in range(system.rank)])
            if not lam.is_zero:
                break
        pair = {r: rootsys.pairing(r, lam) for r in system.roots}
        upper = [r for r in system.roots if pair[r] > 0 or (pair[r] == 0 and r.is_positive)]
        lower = [r for r in system.roots if pair[r] < 0]
        frames = [WeylRep(r) for r in system.roots if pair[r] == 0]
        frames += [GraphAut(system, n) for n, m in system.diagram_symmetries().items()
                   if m.act_cochar(lam) == lam]

        def element(roots):
            return RootElement(rng.choice(roots), reg.var(rng.choice(_COORDS)))

        def frame_atom():
            if frames and rng.randrange(2):
                return rng.choice(frames)
            return TorusValue(system.cocharacter([rng.randrange(-2, 3) for _ in range(system.rank)]), "t")

        atoms = [frame_atom() if rng.randrange(3) == 0 else element(upper)
                 for _ in range(rng.randrange(3, 9))]
        w_in = chevalley.word(system, reg, *atoms)
        w_out = chevalley.word(system, reg, *atoms, RootElement(rng.choice(lower), reg.var("z")))
        frame = chevalley.word(system, reg, *[frame_atom() for _ in range(rng.randrange(1, 4))])

        def tail(roots):
            picked = rng.sample(roots, rng.randrange(1, len(roots) + 1))
            return RadicalElement(system, reg, chevalley.default_order(system, roots),
                                  {r: reg.var(rng.choice(_COORDS)) for r in picked})

        tail_in, tail_out = tail(upper), tail(lower)
        kept = {r: c for r, c in tail_in.coeffs.items() if pair[r] == 0}

        def call():
            return (parabolic.word_in_rparabolic(w_in, lam),
                    parabolic.word_in_rparabolic(w_out, lam),
                    parabolic.limit_along(lam, frame, tail_in),
                    parabolic.limit_along(lam, None, tail_out))

        def check(out):
            inside, outside, limit, no_limit = out
            if inside is not True:
                return f"a word of P_{lam} was placed outside it"
            if outside is not False:
                return f"a word with a root pairing < 0 was placed in P_{lam}"
            if limit is None or limit[0] is not frame or limit[1].coeffs != kept:
                return f"wrong limit along {lam}"
            if no_limit is not None:
                return f"a limit along {lam} was found for a tail pairing < 0"
            return None

        return Op(kind, call, check)

    def _stabilizer(self, system, levi):
        """Elements of W x| Diag mapping the Levi subsystem and its radical
        onto themselves; each one restricted to the Levi is a partial map
        with an ambient extension."""
        key = (system.type_label, tuple(sorted(s.index for s in levi)))
        if key not in self._stabilizers:
            sub = set(rootsys.subsystem_roots(system, levi))
            rad = {r for r in system.positive_roots if r not in sub}
            self._stabilizers[key] = [
                m for m in system.weyl_and_diagram_elements()
                if {m(r) for r in sub} == sub and {m(r) for r in rad} == rad]
        return self._stabilizers[key]

    def _extends(self, rng, kind):
        if kind == "extends-paper":
            # -1 on the A1^3 Levi of D4 extends (w0-combinatorics); -1 on the
            # A2 Levi of A3 does not (the README's a3-extension-absent)
            system, names, exists = rng.choice(((self.d4, "acd", True), (self.a3, "ab", False)))
            levi = [system.simple(n) for n in names]
            partial = {r: -r for r in rootsys.subsystem_roots(system, levi)}
        else:
            system = rng.choice((self.d4, self.a3))
            levi = rng.sample(system.simple_roots, rng.randrange(system.rank))
            m0 = rng.choice(self._stabilizer(system, levi))
            partial = {r: m0(r) for r in rootsys.subsystem_roots(system, levi)}
            exists = True
        rad = {r for r in system.positive_roots if r not in partial}

        def call():
            return rootsys.extends_to_ambient(system, levi, partial)

        def check(m):
            if not exists:
                return None if m is None else f"found a witness {m!r} that cannot exist"
            if m is None:
                return "no witness for a partial map known to extend"
            if any(m(r) != img for r, img in partial.items()) or {m(r) for r in rad} != rad:
                return f"invalid witness {m!r}"
            return None

        return Op(kind, call, check)


# ---------------------------------------------------------------------------
# a2-oracle: many short words through the matrix model


class A2Oracle:
    """A random A2 word of 4..15 atoms, normalized by the engine, evaluated
    next to the raw word as 3x3 matrices at 8 random F16 points; the answer
    is that they agree at every point."""

    name = "a2-oracle"
    LENGTHS = tuple(range(4, 16))  # one op of each length per round
    POINTS = 8

    def __init__(self):
        self.a2 = rootsys.root_system("a2")
        self.gf = matrixoracle.GF(16)
        self.reg = coeffring.VariableRegistry()
        for n in "xyz":
            self.reg.add(n)
        self.reg.add("t", coeffring.UNIT)
        self.tally = Counter()

    def round(self, rng):
        return _shuffled(rng, [self._op(rng, n) for n in self.LENGTHS])

    def cold_op(self, rng):
        return self._op(rng, 10)

    def _op(self, rng, length):
        a2, reg, gf = self.a2, self.reg, self.gf
        sign = rng.choice((1, -1))
        atoms = []
        for _ in range(length):
            k = rng.randrange(4)
            if k == 0:
                coeff = reg.var(rng.choice("xyz"))
                if rng.randrange(2):
                    coeff = coeff * reg.var(rng.choice("xyz")) + reg.one()
                atoms.append(RootElement(a2.root_by_label(sign * rng.randrange(1, 4)), coeff))
            elif k == 1:
                atoms.append(WeylRep(a2.root_by_label(rng.randrange(1, 4))))
            elif k == 2:
                atoms.append(GraphAut(a2, "sigma"))
            else:
                atoms.append(TorusValue(a2.cocharacter((rng.randrange(-2, 3), rng.randrange(-2, 3))), "t"))
        w = chevalley.word(a2, reg, *atoms)
        points = [{"x": rng.randrange(16), "y": rng.randrange(16), "z": rng.randrange(16),
                   "t": rng.randrange(1, 16)} for _ in range(self.POINTS)]

        def call():
            canon = chevalley.normalized_word(w)
            return [(matrixoracle.evaluate_word(w, p, gf), matrixoracle.evaluate_word(canon, p, gf))
                    for p in points]

        def check(pairs):
            bad = sum(raw != canon for raw, canon in pairs)
            return f"normal form differs from the word at {bad} of {len(pairs)} points" if bad else None

        return Op(f"word-{length}", call, check)


WORKLOADS = {w.name: w for w in (VerifyAll, D4Engine, A2Oracle)}
