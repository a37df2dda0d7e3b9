"""Named verification scenarios chaining the engine operations.

Each scenario is an ordered list of steps; a step records the algebraic
identity it checks (its anchor), an expected rendering and the actual
engine output.  Every step is deterministic: the A2 matrix-oracle steps
compare words exactly over the polynomial ring, and no step draws from the
seed, which `run_scenario` still accepts.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List

from .coeffring import (
    SQRT,
    UNIT,
    UNSOLVABLE_OVER_K,
    VariableRegistry,
    classify_square_obstruction,
)
from .chevalley import (
    GraphAut,
    LieVector,
    RootElement,
    TorusValue,
    WeylRep,
    adjoint,
    centralizer_system,
    collect,
    conjugate,
    conjugate_generic,
    generic_radical_element,
    word,
    word_equal,
)
from .matrixoracle import (
    PolyRing,
    enumerate_m_conjugacy,
    lie_adjoint,
    lie_vector_matrix,
    matrix_oracle_check,
    sigma_element,
)
from .parabolic import limit_along, word_in_rparabolic
from .rootsys import (
    compose_word,
    extends_to_ambient,
    fixed_cocharacter_lattice,
    label_cycles,
    minus_one_realization,
    pairing,
    root_system,
    subsystem_roots,
    verify_w0_identities,
)
from .wordexpr import render_word


class Step:
    def __init__(self, name: str, anchor: str, run: Callable):
        self.name = name
        self.anchor = anchor
        self.run = run  # () -> (ok, expected, actual)


class StepResult:
    def __init__(self, name, anchor, status, expected, actual):
        self.name = name
        self.anchor = anchor
        self.status = status
        self.expected = expected
        self.actual = actual


class Report:
    def __init__(self, scenario: str, steps: List[StepResult], elapsed_ms: int):
        self.scenario = scenario
        self.steps = steps
        self.elapsed_ms = elapsed_ms

    @property
    def passed(self) -> bool:
        return all(s.status == "PASS" for s in self.steps)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "steps": [
                {
                    "name": s.name,
                    "anchor": s.anchor,
                    "status": s.status,
                    "expected": s.expected,
                    "actual": s.actual,
                }
                for s in self.steps
            ],
            "pass": self.passed,
            "elapsed_ms": self.elapsed_ms,
        }

    def canonical_json(self) -> str:
        d = self.to_dict()
        d["elapsed_ms"] = 0  # timing excluded from determinism comparisons
        return json.dumps(d, sort_keys=True)

    def text(self) -> str:
        lines = [f"scenario {self.scenario}"]
        for s in self.steps:
            lines.append(f"  [{s.status}] {s.name}: {s.anchor}")
            if s.status != "PASS":
                lines.append(f"         expected: {s.expected}")
                lines.append(f"         actual:   {s.actual}")
        lines.append(f"  => {'PASS' if self.passed else 'FAIL'} ({self.elapsed_ms} ms)")
        return "\n".join(lines)


def _eq_step(name, anchor, expected_obj, actual_obj, render=str, equal=None):
    def run():
        ok = equal(expected_obj, actual_obj) if equal else expected_obj == actual_obj
        return ok, render(expected_obj), render(actual_obj)

    return Step(name, anchor, run)


def _check(name, anchor, holds, want, otherwise):
    """Step that passes when holds() is true; it shows `want` as the
    expected text, and as the actual text `want` or `otherwise`."""
    def run():
        ok = holds()
        return ok, want, want if ok else otherwise

    return Step(name, anchor, run)


# ---------------------------------------------------------------------------
# shared D4 builders


def _d4_registry() -> VariableRegistry:
    reg = VariableRegistry()
    reg.add("y")
    for i in range(4, 13):
        reg.add(f"x{i}")
    reg.add("t", UNIT)
    reg.add("s", SQRT)
    return reg


def _nsigma(sys, reg):
    return word(sys, reg, WeylRep(sys.simple("a")), GraphAut(sys, "sigma"))


def _lam(sys):
    return sys.cocharacter((1, 2, 1, 1))


PERM_CYCLES = "(4 5 8 11 10 7)(6 9)(12)"
DISPLAY_ORDER = (7, 10, 9, 11, 6, 8, 4, 5, 12)
W0_WORD = ("a", "b", "a", "c", "b", "a", "d", "b", "a", "c", "b", "d")


# ---------------------------------------------------------------------------
# scenario: d4-gcr-not-gcrk


def _steps_d4_gcr() -> List[Step]:
    sys = root_system("d4")
    reg = _d4_registry()
    s = reg.var("s")
    steps = []

    nsig = _nsigma(sys, reg)
    images = {i: compose_word(sys, ["a", "sigma"])(sys.root_by_label(i)).label for i in range(4, 13)}
    steps.append(_eq_step(
        "eq-perm", "n[a]*sigma acts on labels 4..12 as (4 5 8 11 10 7)(6 9)(12)",
        PERM_CYCLES, label_cycles(images)))

    v = word(sys, reg, RootElement(sys.root_by_label(6), s), RootElement(sys.root_by_label(9), s))
    got = conjugate(v, nsig)
    expected = nsig * word(sys, reg, RootElement(sys.root_by_label(12), s * s))
    steps.append(_eq_step(
        "conjugation-identity", "e6(s)*e9(s) conjugates n[a]*sigma to n[a]*sigma*e12(s^2)",
        expected, got, render=render_word, equal=word_equal))

    nmap = compose_word(sys, ["a", "sigma"])
    steps.append(_eq_step(
        "lir-cocharacter-swap", "n[a]*sigma maps (a+c)^v to (c+d)^v",
        sys.cocharacter((0, 0, 1, 1)), nmap.act_cochar(sys.cocharacter((1, 0, 1, 0)))))

    cube = nsig * nsig * nsig
    triple = word(sys, reg, WeylRep(sys.simple("a")), WeylRep(sys.simple("c")), WeylRep(sys.simple("d")))
    steps.append(_eq_step(
        "lir-cube", "(n[a]*sigma)^3 = n[a]*n[c]*n[d]",
        triple, cube, render=render_word, equal=word_equal))

    radical = [sys.root_by_label(i) for i in range(4, 13)]
    u = generic_radical_element(sys, reg, radical)
    g = nsig * word(sys, reg, RootElement(sys.root_by_label(12), s * s))
    frame, tail = conjugate_generic(u, g, order=[sys.root_by_label(i) for i in DISPLAY_ORDER])
    x = {i: reg.var(f"x{i}") for i in range(4, 13)}
    expected_tail = collect(
        [
            RootElement(sys.root_by_label(7), x[4] + x[7]),
            RootElement(sys.root_by_label(10), x[7] + x[10]),
            RootElement(sys.root_by_label(9), x[6] + x[9]),
            RootElement(sys.root_by_label(11), x[10] + x[11]),
            RootElement(sys.root_by_label(6), x[6] + x[9]),
            RootElement(sys.root_by_label(8), x[8] + x[11]),
            RootElement(sys.root_by_label(4), x[4] + x[5]),
            RootElement(sys.root_by_label(5), x[5] + x[8]),
            RootElement(
                sys.root_by_label(12),
                x[5] * x[10] + x[5] * x[11] + x[7] * x[8] + x[7] * x[11] + x[8] * x[10]
                + x[9] ** 2 + s * s,
            ),
        ],
        [sys.root_by_label(i) for i in DISPLAY_ORDER],
        reg,
    )
    steps.append(_eq_step(
        "generic-collection",
        "all nine coefficients of u^-1 * (n[a]*sigma*e12(s^2)) * u",
        expected_tail, tail, render=render_word))

    report = centralizer_system([nsig], radical, reg)
    classes = report.linear_classes()
    extra = report.nonlinear_equations()
    actual = "; ".join("=".join(c) for c in classes)
    if extra:
        actual += "; " + "; ".join(f"{p}=0" for p in extra)
    steps.append(_eq_step(
        "constraint-extraction",
        "membership of the conjugate in the Levi forces x4=x5=x7=x8=x10=x11 and x6=x9",
        "x4=x5=x7=x8=x10=x11; x6=x9; x5x10+x6x9=0", actual))

    e12_coeff = tail.coefficient(12)
    bindings = {n: reg.var("y") for n in ("x4", "x5", "x7", "x8", "x10", "x11")}
    bindings["x6"] = reg.var("x9")
    substituted = e12_coeff.substitute(bindings)
    target = reg.var("y") ** 2 + reg.var("x9") ** 2 + s ** 2
    steps.append(_eq_step(
        "rationality-substitution",
        "the equalities reduce the e12 coefficient to y^2+x9^2+s^2",
        target, substituted))
    steps.append(_eq_step(
        "rationality-obstruction",
        "y^2+x9^2+s^2 = 0 has no solution with s-free coordinates",
        UNSOLVABLE_OVER_K, classify_square_obstruction(substituted)))
    return steps


# ---------------------------------------------------------------------------
# scenario: d4-gir-not-gcr


def _steps_d4_gir() -> List[Step]:
    sys = root_system("d4")
    reg = _d4_registry()
    s = reg.var("s")
    lam = _lam(sys)
    steps = []
    nsig = _nsigma(sys, reg)

    v = word(sys, reg, RootElement(sys.root_by_label(-6), s), RootElement(sys.root_by_label(-9), s))
    got = conjugate(v, nsig)
    expected = nsig * word(sys, reg, RootElement(sys.root_by_label(-12), s * s))
    steps.append(_eq_step(
        "conjugation-identity-opposite",
        "e-6(s)*e-9(s) conjugates n[a]*sigma to n[a]*sigma*e-12(s^2)",
        expected, got, render=render_word, equal=word_equal))

    h0 = word(sys, reg, RootElement(sys.root_by_label(11), reg.one()))
    h = conjugate(v.inverse(), h0)
    h_expected = word(sys, reg, RootElement(sys.root_by_label(11), reg.one()),
                      RootElement(sys.root_by_label(2), s))
    steps.append(_eq_step(
        "conjugated-generator",
        "v^-1 e11(1) v = e11(1)*e2(s)",
        h_expected, h, render=render_word, equal=word_equal))

    torus_ac = word(sys, reg, TorusValue(sys.cocharacter((1, 0, 1, 0)), "t"))
    gens = [nsig, torus_ac, h_expected]

    def containment():
        ok = all(word_in_rparabolic(g, lam) for g in gens)
        return ok, "PASS", "all three generators lie in the lambda parabolic" if ok else "a generator escapes"
    steps.append(Step(
        "containment", "n[a]*sigma, (a+c)^v torus and e11(1)*e2(s) lie in P(a+2b+c+d)^v",
        containment))

    radical = [sys.root_by_label(i) for i in range(4, 13)]
    rep1 = centralizer_system([nsig], radical, reg)
    steps.append(_eq_step(
        "centralizer-nsigma",
        "commuting with n[a]*sigma forces x4=x5=x7=x8=x10=x11 and x6=x9",
        "x4=x5=x7=x8=x10=x11; x6=x9",
        "; ".join("=".join(c) for c in rep1.linear_classes())))

    rep2 = centralizer_system([nsig, torus_ac], radical, reg)
    forced = any(str(p) == "x6^2" for p in rep2.solved.forced)
    steps.append(_eq_step(
        "centralizer-M-radical",
        "the radical centralizer of M collapses to U_12 via the forced x6^2 = 0",
        "U_12 (forced x6^2)",
        rep2.subgroup_description() + (" (forced x6^2)" if forced else " (no square forced)")))

    opposite = [sys.root_by_label(-i) for i in range(4, 13)]
    rep3 = centralizer_system([nsig, torus_ac], opposite, reg)
    steps.append(_eq_step(
        "centralizer-M-opposite",
        "the opposite-radical centralizer of M is U_-12",
        "U_-12", rep3.subgroup_description()))

    def levi_torus():
        chi1 = sys.cocharacter((1, 0, 1, 0))
        chi2 = sys.cocharacter((0, 0, 1, 1))
        bad = [
            lbl
            for lbl in (1, 2, 3, -1, -2, -3)
            if pairing(sys.root_by_label(lbl), chi1) == 0
            and pairing(sys.root_by_label(lbl), chi2) == 0
        ]
        ok = not bad
        return ok, "T", "T" if ok else f"root elements survive at {bad}"
    steps.append(Step(
        "centralizer-L-torus",
        "no Levi root element commutes with both (a+c)^v and (c+d)^v images",
        levi_torus))

    nmap = compose_word(sys, ["a", "sigma"])
    lattice = fixed_cocharacter_lattice(sys, nmap)
    steps.append(_eq_step(
        "torus-fixed-line",
        "the cocharacters fixed by n[a]*sigma form the line through (a+2b+c+d)^v",
        [(1, 2, 1, 1)], lattice))

    n12 = compose_word(sys, W0_WORD)
    got11 = n12.inverse()(sys.root_by_label(11)).label
    steps.append(_eq_step(
        "n12-action-on-11",
        "the 12-letter longest word sends root 11 to -(root 12) under inverse action",
        -12, got11))
    got2 = n12.inverse()(sys.root_by_label(2)).label
    steps.append(_eq_step(
        "n12-action-on-2",
        "the 12-letter longest word sends root 2 to -(root 2) under inverse action",
        -2, got2))

    tail = collect(
        [RootElement(sys.root_by_label(-12), reg.one()), RootElement(sys.root_by_label(-2), s)],
        [sys.root_by_label(-12), sys.root_by_label(-2)], reg)

    steps.append(_check(
        "bruhat-exclusion", "e-12(1)*e-2(s) has no limit along (a+2b+c+d)^v",
        lambda: limit_along(lam, None, tail) is None, "no limit", "limit exists"))

    steps.append(_check(
        "nonk-flag", "the conjugating element carries the square-root constant",
        lambda: any(isinstance(a, RootElement) and a.coeff.involves_sqrt for a in v.atoms),
        "not k-rational as presented", "k-rational"))

    reg.add("u12arg")
    y = reg.var("u12arg")
    u12 = word(sys, reg, RootElement(sys.root_by_label(12), y))

    steps.append(_check(
        "u12-centralizes", "e12(y) commutes with every generator of the conjugated group",
        lambda: all(word_equal(conjugate(g, u12), u12) for g in gens),
        "U_12 centralizes all generators", "U_12 moved"))

    uneg = word(sys, reg, RootElement(sys.root_by_label(-12), y))
    moved = conjugate(h_expected, uneg)
    residual = collect(
        [a for a in moved.atoms if isinstance(a, RootElement)],
        [sys.root_by_label(-12), sys.root_by_label(2), sys.root_by_label(11), sys.root_by_label(-4)],
        reg,
    ).coefficient(-4)
    steps.append(_eq_step(
        "u-opposite-fails",
        "conjugating e-12(y) by e11(1)*e2(s) leaves the residual e-4(y)",
        y, residual))

    lam_torus = word(sys, reg, TorusValue(lam, "t"))
    conj_h = conjugate(lam_torus, h_expected)
    coeff11 = collect(
        [a for a in conj_h.atoms if isinstance(a, RootElement)],
        [sys.root_by_label(2), sys.root_by_label(11)], reg).coefficient(11)
    steps.append(_eq_step(
        "torus-lambda-fails",
        "the lambda torus scales the e11 coefficient of e11(1)*e2(s) by t",
        reg.var("t"), coeff11))
    return steps


# ---------------------------------------------------------------------------
# scenario: a2-conjugacy


EXACT_MATRICES = "matrices over F2[x,y,z,s][t,t^-1] are equal"


def _a2_registry():
    reg = VariableRegistry()
    for n in ("x", "y", "z"):
        reg.add(n)
    reg.add("t", UNIT)
    reg.add("s", SQRT)
    return reg


def _steps_a2() -> List[Step]:
    sys = root_system("a2")
    reg = _a2_registry()
    x, y, z = reg.var("x"), reg.var("y"), reg.var("z")
    steps = []
    sigma = word(sys, reg, GraphAut(sys, "sigma"))
    alpha, beta, ab = (sys.root_by_label(i) for i in (1, 2, 3))

    u = word(sys, reg, RootElement(alpha, x), RootElement(beta, y), RootElement(ab, z))
    got = conjugate(sigma, u)
    expected = word(sys, reg, RootElement(alpha, y), RootElement(beta, x),
                    RootElement(ab, x * y + z))
    steps.append(_eq_step(
        "sigma-conjugation",
        "sigma e1(x)*e2(y)*e3(z) sigma^-1 = e1(y)*e2(x)*e3(xy+z)",
        expected, got, render=render_word, equal=word_equal))

    steps.append(_check(
        "sigma-conjugation-oracle", "the same identity holds as 3x3 matrices",
        lambda: matrix_oracle_check(sigma * u * sigma.inverse(), expected),
        EXACT_MATRICES, "matrix mismatch"))

    vec = LieVector.basis_e(sys, reg, 1) + LieVector.basis_e(sys, reg, 2)
    steps.append(_eq_step(
        "adjoint-fixed", "Ad(sigma)(e1+e2) = e1+e2",
        vec, adjoint(sigma, vec)))

    def oracle_adjoint():
        ring = PolyRing(reg)
        X = lie_vector_matrix(vec, ring.generic_point(), ring)
        return lie_adjoint(ring, sigma_element(ring), X) == X
    steps.append(_check(
        "adjoint-fixed-oracle", "the fixed vector is fixed in the sl3 matrix model too",
        oracle_adjoint, "sl3 adjoint of sigma fixes the matrix of e1+e2", "matrix moved"))

    v = word(sys, reg, RootElement(alpha, x), RootElement(beta, x))
    curve_conj = conjugate(v, sigma)
    curve_expected = sigma * word(sys, reg, RootElement(ab, x * x))
    steps.append(_eq_step(
        "curve-not-centralizing",
        "e1(x)*e2(x) conjugates sigma to sigma*e3(x^2), a nonzero residual",
        curve_expected, curve_conj, render=render_word, equal=word_equal))

    m2 = word(sys, reg, RootElement(ab, reg.one()))
    m2_conj = conjugate(v, m2)
    steps.append(_eq_step(
        "pair-formula",
        "v(x) conjugates (sigma, e3(1)) to (sigma*e3(x^2), e3(1))",
        render_word(curve_expected) + " ; " + render_word(m2),
        render_word(curve_conj) + " ; " + render_word(m2_conj)))

    steps.append(_check(
        "pair-formula-oracle", "both pair components check out as matrices",
        lambda: (matrix_oracle_check(v * sigma * v.inverse(), curve_expected)
                 and matrix_oracle_check(v * m2 * v.inverse(), m2)),
        EXACT_MATRICES, "matrix mismatch"))

    classes4 = enumerate_m_conjugacy(4, list(range(4)))
    steps.append(_eq_step(
        "m-conjugacy-f4",
        "over F4 the four pairs fall into four singleton conjugacy classes",
        [[0], [1], [2], [3]], sorted(classes4)))

    classes2 = enumerate_m_conjugacy(2, [0, 1])
    steps.append(_eq_step(
        "m-conjugacy-f2",
        "over F2 the pairs for 0 and 1 are not conjugate",
        [[0], [1]], sorted(classes2)))
    return steps


# ---------------------------------------------------------------------------
# scenario: d4-nonseparability


def _steps_d4_nonsep() -> List[Step]:
    sys = root_system("d4")
    reg = _d4_registry()
    steps = []
    nsig = _nsigma(sys, reg)
    vec = LieVector.basis_e(sys, reg, 6) + LieVector.basis_e(sys, reg, 9)
    steps.append(_eq_step(
        "adjoint-fixed-weyl", "Ad(n[a]*sigma)(e6+e9) = e6+e9",
        vec, adjoint(nsig, vec)))

    torus_ac = word(sys, reg, TorusValue(sys.cocharacter((1, 0, 1, 0)), "t"))
    steps.append(_eq_step(
        "adjoint-fixed-torus", "Ad((a+c)^v(t))(e6+e9) = e6+e9",
        vec, adjoint(torus_ac, vec)))

    reg.add("x")
    xx = reg.var("x")
    curve = word(sys, reg, RootElement(sys.root_by_label(6), xx),
                 RootElement(sys.root_by_label(9), xx))
    got = conjugate(curve, nsig)
    expected = nsig * word(sys, reg, RootElement(sys.root_by_label(12), xx * xx))
    steps.append(_eq_step(
        "curve-not-centralizing",
        "e6(x)*e9(x) conjugates n[a]*sigma to n[a]*sigma*e12(x^2), nonzero for generic x",
        expected, got, render=render_word, equal=word_equal))

    def curve_vs_adjoint():
        fixed = adjoint(curve, vec) == vec
        residual = collect([a for a in got.atoms if isinstance(a, RootElement)],
                           [sys.root_by_label(12)], reg).coefficient(12)
        return fixed and residual == xx * xx
    steps.append(_check(
        "nonseparability-witness",
        "e6+e9 is adjoint-fixed while the matching curve moves the group element",
        curve_vs_adjoint, "adjoint-fixed but group-moved", "witness failed"))
    return steps


# ---------------------------------------------------------------------------
# scenario: w0-combinatorics


def _steps_w0() -> List[Step]:
    steps = []
    d4 = root_system("d4")
    lam = _lam(d4)
    L = [d4.simple("a"), d4.simple("c"), d4.simple("d")]

    def d4_identities():
        report = verify_w0_identities(d4, L, lam)
        ok = report.hypothesis_ok and report.all_ok
        detail = ", ".join(f"{n}:{'ok' if good else 'FAIL'}" for n, good, _ in report.checks)
        return ok, "fixes-levi-roots:ok, maps-radical-to-opposite:ok", detail or "hypothesis failed"
    steps.append(Step(
        "d4-composite-identities",
        "w = w0L-bar o w0G-bar fixes the A1^3 Levi roots and flips the radical",
        d4_identities))

    a3 = root_system("a3")
    La3 = [a3.simple("a"), a3.simple("b")]

    steps.append(_check(
        "a3-extension-absent",
        "the -1 realization of the A2 Levi does not extend over the A3 radical",
        lambda: extends_to_ambient(a3, La3, {r: -r for r in subsystem_roots(a3, La3)}) is None,
        "no ambient extension", "witness found"))

    steps.append(_check(
        "a3-hypothesis-failure",
        "the composite-map argument is reported unavailable for (A3, L_ab)",
        lambda: not verify_w0_identities(a3, La3, a3.cocharacter((1, 2, 3))).hypothesis_ok,
        "hypothesis failure", "unexpectedly extended"))

    def a3_realization():
        w0, sigma_l = minus_one_realization(a3, La3)
        if sigma_l is None:
            return False, "sigma_L present", "sigma_L absent"
        sub = subsystem_roots(a3, La3)
        composite = w0.compose(sigma_l)
        ok = all(composite(r) == -r for r in sub)
        word_map = compose_word(a3, ["b", "a", "b"]).compose(sigma_l)
        ok = ok and all(word_map(r) == -r for r in sub)
        return ok, "w0L o sigma_L = -1 on the Levi", (
            "w0L o sigma_L = -1 on the Levi" if ok else "composite not -1")
    steps.append(Step(
        "a2-realization",
        "w0 of the A2 Levi needs the diagram flip to realize -1",
        a3_realization))

    steps.append(_check(
        "regular-lambda-vacuous",
        "with no Levi simples the composite is -1 and flips every root",
        lambda: verify_w0_identities(d4, [], d4.cocharacter((1, 1, 1, 1))).all_ok,
        "regular case: -1 flips everything", "failed"))
    return steps


# ---------------------------------------------------------------------------
# registry and runner


SCENARIOS: Dict[str, Callable[[], List[Step]]] = {
    "d4-gcr-not-gcrk": _steps_d4_gcr,
    "d4-gir-not-gcr": _steps_d4_gir,
    "a2-conjugacy": _steps_a2,
    "d4-nonseparability": _steps_d4_nonsep,
    "w0-combinatorics": _steps_w0,
}


def scenario_names() -> List[str]:
    return list(SCENARIOS)


def _failure(exc: Exception) -> tuple:
    return "FAIL", "no error", f"{type(exc).__name__}: {exc}"


def run_scenario(name: str, seed: int = 0) -> Report:
    """Run every step of a scenario.  `seed` is accepted for callers that
    pass one; no step is randomized, so it does not change the report."""
    if name not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {', '.join(scenario_names())}")
    start = time.perf_counter()
    results = []
    try:
        steps = SCENARIOS[name]()
    except Exception as exc:  # a builder that raises becomes one failed step
        steps = []
        results.append(StepResult("build", "the scenario builds its steps", *_failure(exc)))
    for step in steps:
        try:
            ok, expected, actual = step.run()
            status = "PASS" if ok else "FAIL"
        except Exception as exc:  # surface engine errors as step failures
            status, expected, actual = _failure(exc)
        results.append(StepResult(step.name, step.anchor, status, expected, actual))
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return Report(name, results, elapsed_ms)
