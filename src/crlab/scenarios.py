"""Named verification scenarios chaining the engine operations.

A scenario is a function of one argument, `step`.  It calls
`step(name, anchor, expected, actual)` once per check, in order: `anchor`
is the algebraic identity the step checks and `actual` a zero-argument
thunk that does the engine work and returns the engine's own value: a
word, a polynomial, a Lie vector, a verdict, the generators or roots that
break a claim, or the first place where two matrices differ.  No thunk
judges or renders its own step: `run_scenario` owns the only `step`, which
calls the thunk at once, compares the result with `expected` by `==`
(group equality for words), records both sides as text, and turns an
exception into that step's FAIL.  `step` returns the computed value, so
later steps can build on it; after an error it returns a stand-in whose use
fails the later step naming the failed one.  Code between steps that raises
ends the scenario with a FAIL step named `build`.  Every step is
deterministic: the A2 matrix-oracle steps compare words exactly over the
polynomial ring.
"""

from __future__ import annotations

import time
from collections import namedtuple
from typing import Callable, Dict, List, Sequence

from .coeffring import SQRT, UNIT, VariableRegistry, square_obstruction_witness
from .chevalley import (
    EPS,
    GraphAut,
    RadicalElement,
    RootElement,
    TorusValue,
    WeylRep,
    adjoint,
    centralizer_system,
    collect,
    conjugate,
    generic_radical_element,
    normalize,
    word,
)
from .matrixoracle import A2Matrix, enumerate_m_conjugacy, exact_word, first_difference
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


StepResult = namedtuple("StepResult", "name anchor status expected actual")


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
            "steps": [s._asdict() for s in self.steps],
            "pass": self.passed,
            "elapsed_ms": self.elapsed_ms,
        }

    def text(self) -> str:
        lines = [f"scenario {self.scenario}"]
        for s in self.steps:
            lines.append(f"  [{s.status}] {s.name}: {s.anchor}")
            if s.status != "PASS":
                lines.append(f"         expected: {s.expected}")
                lines.append(f"         actual:   {s.actual}")
        lines.append(f"  => {'PASS' if self.passed else 'FAIL'} ({self.elapsed_ms} ms)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# shared builders


def _registry(*names: str) -> VariableRegistry:
    """The coordinates in rendering order, then the unit t and the square root s."""
    reg = VariableRegistry()
    for n in names:
        reg.add(n)
    reg.add("t", UNIT)
    reg.add("s", SQRT)
    return reg


def _roots(sys, labels: Sequence[int]) -> list:
    return [sys.root_by_label(i) for i in labels]


def _e(sys, label: int, coeff) -> RootElement:
    return RootElement(sys.root_by_label(label), coeff)


def _root_coefficient(w, order: Sequence[int], label: int):
    """The e_label coefficient once the root elements of w are collected in
    the order of the labels `order`."""
    atoms = [a for a in w.atoms if isinstance(a, RootElement)]
    return collect(atoms, _roots(w.system, order), w.registry).coefficient(label)


# the D4 example: the radical of P(lambda), lambda = (a+2b+c+d)^v, is U_4..U_12,
# and commuting with n[a]*sigma splits its coordinates into these classes
D4_RADICAL = range(4, 13)
D4_LAMBDA = (1, 2, 1, 1)
A_PLUS_C, C_PLUS_D = (1, 0, 1, 0), (0, 0, 1, 1)
NSIGMA_CLASSES = [["x4", "x5", "x7", "x8", "x10", "x11"], ["x6", "x9"]]
PERM_CYCLES = "(4 5 8 11 10 7)(6 9)(12)"
DISPLAY_ORDER = (7, 10, 9, 11, 6, 8, 4, 5, 12)
W0_WORD = ("a", "b", "a", "c", "b", "a", "d", "b", "a", "c", "b", "d")


def _d4():
    """D4, a new registry y, x4..x12, t, s, the word n[a]*sigma and the
    torus word (a+c)^v(t); each scenario builds its own."""
    sys = root_system("d4")
    reg = _registry("y", *(f"x{i}" for i in D4_RADICAL))
    nsig = word(sys, reg, WeylRep(sys.simple("a")), GraphAut(sys, "sigma"))
    return sys, reg, nsig, word(sys, reg, TorusValue(sys.cocharacter(A_PLUS_C), "t"))


# ---------------------------------------------------------------------------
# scenario: d4-gcr-not-gcrk


def _d4_gcr(step) -> None:
    sys, reg, nsig, _ = _d4()
    s = reg.var("s")
    nmap = compose_word(sys, ["a", "sigma"])
    step("eq-perm", "n[a]*sigma acts on labels 4..12 as (4 5 8 11 10 7)(6 9)(12)",
         PERM_CYCLES, lambda: label_cycles({i: nmap(sys.root_by_label(i)).label for i in D4_RADICAL}))

    v = word(sys, reg, _e(sys, 6, s), _e(sys, 9, s))
    step("conjugation-identity", "e6(s)*e9(s) conjugates n[a]*sigma to n[a]*sigma*e12(s^2)",
         nsig * word(sys, reg, _e(sys, 12, s * s)), lambda: conjugate(v, nsig))
    step("lir-cocharacter-swap", "n[a]*sigma maps (a+c)^v to (c+d)^v",
         sys.cocharacter(C_PLUS_D), lambda: nmap.act_cochar(sys.cocharacter(A_PLUS_C)))
    step("lir-cube", "(n[a]*sigma)^3 = n[a]*n[c]*n[d]",
         word(sys, reg, *(WeylRep(sys.simple(c)) for c in "acd")), lambda: nsig * nsig * nsig)

    radical = _roots(sys, D4_RADICAL)
    u = generic_radical_element(sys, reg, radical).as_word()
    g = nsig * word(sys, reg, _e(sys, 12, s * s))
    x = {i: reg.var(f"x{i}") for i in D4_RADICAL}
    display = _roots(sys, DISPLAY_ORDER)
    coeffs = {7: x[4] + x[7], 10: x[7] + x[10], 9: x[6] + x[9], 11: x[10] + x[11], 6: x[6] + x[9],
              8: x[8] + x[11], 4: x[4] + x[5], 5: x[5] + x[8],
              12: x[5] * x[10] + x[5] * x[11] + x[7] * x[8] + x[7] * x[11] + x[8] * x[10] + x[9] ** 2 + s * s}
    expected_tail = RadicalElement(sys, reg, display, {sys.root_by_label(i): c for i, c in coeffs.items()})
    tail = step("generic-collection", "all nine coefficients of u^-1 * (n[a]*sigma*e12(s^2)) * u",
                expected_tail, lambda: normalize(u.inverse() * g * u).tail.reordered(display))

    def constraints():
        report = centralizer_system([nsig], radical, reg)
        return report.linear_classes(), report.nonlinear_equations()
    extracted = step("constraint-extraction",
                     "membership of the conjugate in the Levi forces x4=x5=x7=x8=x10=x11 and x6=x9",
                     (NSIGMA_CLASSES, [x[5] * x[10] + x[6] * x[9]]), constraints)

    y, x9 = reg.var("y"), x[9]  # the substitution sends the first extracted class to y, the second to x9
    substituted = step("rationality-substitution",
                       "the equalities reduce the e12 coefficient to y^2+x9^2+s^2", y ** 2 + x9 ** 2 + s ** 2,
                       lambda: tail.coefficient(12).substitute(
                           {n: v for cls, v in zip(extracted[0], (y, x9)) for n in cls}))
    step("rationality-obstruction",
         "y^2+x9^2+s^2 = (y+x9+s)^2 forces y+x9 = s: no s-free solution",
         y + x9, lambda: square_obstruction_witness(substituted))


# ---------------------------------------------------------------------------
# scenario: d4-gir-not-gcr


def _d4_gir(step) -> None:
    sys, reg, nsig, torus_ac = _d4()
    s, one = reg.var("s"), reg.one()
    lam = sys.cocharacter(D4_LAMBDA)

    v = word(sys, reg, _e(sys, -6, s), _e(sys, -9, s))
    step("conjugation-identity-opposite", "e-6(s)*e-9(s) conjugates n[a]*sigma to n[a]*sigma*e-12(s^2)",
         nsig * word(sys, reg, _e(sys, -12, s * s)), lambda: conjugate(v, nsig))
    h = word(sys, reg, _e(sys, 11, one), _e(sys, 2, s))
    step("conjugated-generator", "v^-1 e11(1) v = e11(1)*e2(s)",
         h, lambda: conjugate(v.inverse(), word(sys, reg, _e(sys, 11, one))))

    gens = [nsig, torus_ac, h]
    step("containment", "n[a]*sigma, (a+c)^v torus and e11(1)*e2(s) lie in P(a+2b+c+d)^v",
         [], lambda: [g for g in gens if not word_in_rparabolic(g, lam)])

    radical = _roots(sys, D4_RADICAL)
    step("centralizer-nsigma",
         "commuting with n[a]*sigma forces x4=x5=x7=x8=x10=x11 and x6=x9",
         NSIGMA_CLASSES, lambda: centralizer_system([nsig], radical, reg).linear_classes())

    def m_radical():
        rep = centralizer_system([nsig, torus_ac], radical, reg)
        return rep.subgroup_description(), rep.solved.forced
    step("centralizer-M-radical",
         "the radical centralizer of M collapses to U_12 via the forced x6^2 = 0",
         ("U_12", [reg.var("x6") ** 2]), m_radical)

    opposite = _roots(sys, [-i for i in D4_RADICAL])
    step("centralizer-M-opposite",
         "the opposite-radical centralizer of M is U_-12",
         "U_-12", lambda: centralizer_system([nsig, torus_ac], opposite, reg).subgroup_description())

    def levi_torus():
        chis = [sys.cocharacter(A_PLUS_C), sys.cocharacter(C_PLUS_D)]
        return [r.label for r in _roots(sys, (1, 2, 3, -1, -2, -3))
                if all(pairing(r, chi) == 0 for chi in chis)]
    step("centralizer-L-torus",
         "no Levi root element commutes with both (a+c)^v and (c+d)^v images",
         [], levi_torus)

    step("torus-fixed-line",
         "the cocharacters fixed by n[a]*sigma form the line through (a+2b+c+d)^v",
         [D4_LAMBDA], lambda: fixed_cocharacter_lattice(compose_word(sys, ["a", "sigma"])))

    n12 = compose_word(sys, W0_WORD)
    step("n12-action-on-11",
         "the 12-letter longest word sends root 11 to -(root 12) under inverse action",
         -12, lambda: n12.inverse()(sys.root_by_label(11)).label)
    step("n12-action-on-2",
         "the 12-letter longest word sends root 2 to -(root 2) under inverse action",
         -2, lambda: n12.inverse()(sys.root_by_label(2)).label)

    step("bruhat-exclusion", "e-12(1)*e-2(s) has no limit along (a+2b+c+d)^v", None,
         lambda: limit_along(lam, None, collect([_e(sys, -12, one), _e(sys, -2, s)],
                                                _roots(sys, (-12, -2)), reg)))
    step("nonk-flag", "the conjugating element carries the square-root constant", list(v.atoms),
         lambda: [a for a in v.atoms if a.coeff.involves(reg.sqrt_name)])

    y = reg.add("u12arg")
    u12 = word(sys, reg, _e(sys, 12, y))
    step("u12-centralizes", "e12(y) commutes with every generator of the conjugated group",
         [], lambda: [g for g in gens if conjugate(g, u12) != u12])

    uneg = word(sys, reg, _e(sys, -12, y))
    step("u-opposite-fails",
         "conjugating e-12(y) by e11(1)*e2(s) leaves the residual e-4(y)",
         y, lambda: _root_coefficient(conjugate(h, uneg), (-12, 2, 11, -4), -4))
    lam_torus = word(sys, reg, TorusValue(lam, "t"))
    step("torus-lambda-fails",
         "the lambda torus scales the e11 coefficient of e11(1)*e2(s) by t",
         reg.var("t"), lambda: _root_coefficient(conjugate(lam_torus, h), (2, 11), 11))


# ---------------------------------------------------------------------------
# scenario: a2-conjugacy


def _a2(step) -> None:
    sys = root_system("a2")
    reg = _registry("x", "y", "z")
    x, y, z = reg.var("x"), reg.var("y"), reg.var("z")
    sigma = word(sys, reg, GraphAut(sys, "sigma"))
    alpha, beta, ab = _roots(sys, (1, 2, 3))

    u = word(sys, reg, RootElement(alpha, x), RootElement(beta, y), RootElement(ab, z))
    expected = word(sys, reg, RootElement(alpha, y), RootElement(beta, x), RootElement(ab, x * y + z))
    step("sigma-conjugation",
         "sigma e1(x)*e2(y)*e3(z) sigma^-1 = e1(y)*e2(x)*e3(xy+z)",
         expected, lambda: conjugate(sigma, u))
    step("sigma-conjugation-oracle", "the same identity holds as 3x3 matrices",
         None, lambda: first_difference((exact_word(sigma * u * sigma.inverse()), exact_word(expected))))

    vec = {r: reg.one() for r in (alpha, beta)}
    step("adjoint-fixed", "Ad(sigma)(e1+e2) = e1+e2", vec, lambda: adjoint(sigma, vec))

    def oracle_adjoint():
        # u = I + EPS X + O(EPS^2), so Ad(sigma) X is the EPS-linear part of sigma u sigma^-1
        u = word(sys, reg, *(RootElement(r, reg.add(EPS) * c) for r, c in vec.items()))

        def linear(w):
            m = exact_word(w)
            return A2Matrix(m.ring, tuple(tuple(a.linear_part(EPS) for a in row) for row in m.mat), m.flag)
        return first_difference((linear(sigma * u * sigma.inverse()), linear(u)))
    step("adjoint-fixed-oracle", "the fixed vector is fixed in the sl3 matrix model too",
         None, oracle_adjoint)

    v = word(sys, reg, RootElement(alpha, x), RootElement(beta, x))
    curve_expected = sigma * word(sys, reg, RootElement(ab, x * x))
    curve_conj = step("curve-not-centralizing",
                      "e1(x)*e2(x) conjugates sigma to sigma*e3(x^2), a nonzero residual",
                      curve_expected, lambda: conjugate(v, sigma))

    m2 = word(sys, reg, RootElement(ab, reg.one()))
    step("pair-formula",
         "v(x) conjugates (sigma, e3(1)) to (sigma*e3(x^2), e3(1))",
         (curve_expected, m2), lambda: (curve_conj, conjugate(v, m2)))
    step("pair-formula-oracle", "both pair components check out as matrices",
         None, lambda: first_difference((exact_word(v * sigma * v.inverse()), exact_word(curve_expected)),
                                        (exact_word(v * m2 * v.inverse()), exact_word(m2))))

    step("m-conjugacy-f4",
         "over F4 the four pairs fall into four singleton conjugacy classes",
         [[0], [1], [2], [3]], lambda: sorted(enumerate_m_conjugacy(4, list(range(4)))))
    step("m-conjugacy-f2",
         "over F2 the pairs for 0 and 1 are not conjugate",
         [[0], [1]], lambda: sorted(enumerate_m_conjugacy(2, [0, 1])))


# ---------------------------------------------------------------------------
# scenario: d4-nonseparability


def _d4_nonsep(step) -> None:
    sys, reg, nsig, torus_ac = _d4()
    vec = {r: reg.one() for r in _roots(sys, (6, 9))}
    step("adjoint-fixed-weyl", "Ad(n[a]*sigma)(e6+e9) = e6+e9", vec, lambda: adjoint(nsig, vec))

    step("adjoint-fixed-torus", "Ad((a+c)^v(t))(e6+e9) = e6+e9", vec, lambda: adjoint(torus_ac, vec))

    xx = reg.add("x")
    curve = word(sys, reg, _e(sys, 6, xx), _e(sys, 9, xx))
    got = step("curve-not-centralizing",
               "e6(x)*e9(x) conjugates n[a]*sigma to n[a]*sigma*e12(x^2), nonzero for generic x",
               nsig * word(sys, reg, _e(sys, 12, xx * xx)), lambda: conjugate(curve, nsig))

    step("nonseparability-witness",
         "e6+e9 is adjoint-fixed while the matching curve moves the group element",
         (vec, xx * xx), lambda: (adjoint(curve, vec), _root_coefficient(got, (12,), 12)))


# ---------------------------------------------------------------------------
# scenario: w0-combinatorics


def _w0(step) -> None:
    d4 = root_system("d4")
    step("d4-composite-identities",
         "w = w0L-bar o w0G-bar, which fixes the A1^3 Levi roots by construction, flips the radical",
         True, lambda: verify_w0_identities(d4.cocharacter(D4_LAMBDA)))

    a3 = root_system("a3")
    La3 = [a3.simple("a"), a3.simple("b")]
    step("a3-extension-absent",
         "the -1 realization of the A2 Levi does not extend over the A3 radical",
         None, lambda: extends_to_ambient(a3, La3, {r: -r for r in subsystem_roots(a3, La3)}))
    step("a3-hypothesis-failure",
         "the composite-map argument is reported unavailable for (A3, L_ab)",
         None, lambda: verify_w0_identities(a3.cocharacter((1, 2, 3))))

    def a3_realization():
        word_map = compose_word(a3, ["b", "a", "b"]).compose(minus_one_realization(a3, La3)[1])
        return [r.label for r in subsystem_roots(a3, La3) if word_map(r) != -r]
    step("a2-realization",
         "w0 of the A2 Levi needs the diagram flip to realize -1",
         [], a3_realization)

    step("regular-lambda-vacuous",
         "with no Levi simples the composite is -1 and flips every root",
         True, lambda: verify_w0_identities(d4.cocharacter((1, 1, 1, 1))))


# ---------------------------------------------------------------------------
# registry and runner


SCENARIOS: Dict[str, Callable[[Callable], None]] = {
    "d4-gcr-not-gcrk": _d4_gcr,
    "d4-gir-not-gcr": _d4_gir,
    "a2-conjugacy": _a2,
    "d4-nonseparability": _d4_nonsep,
    "w0-combinatorics": _w0,
}


def scenario_names() -> List[str]:
    return list(SCENARIOS)


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _text(value) -> str:
    """str of a value, and of each item of a list or tuple value; a Lie
    vector {root: coefficient} as its basis terms in root order, e6+e9."""
    if isinstance(value, (list, tuple)):
        items = ", ".join(map(_text, value))
        return f"[{items}]" if isinstance(value, list) else f"({items})"
    if isinstance(value, dict):
        return "+".join(f"e{r.label}" if c.is_one else f"({c})e{r.label}"
                        for r, c in sorted(value.items(), key=lambda rc: rc[0].index)) or "0"
    return str(value)


class _FailedStep:
    """The value of a step that raised; a later step that reads it, by an
    attribute, an index, iteration or rendering, fails naming that step."""

    def __init__(self, name: str):
        self._failed_name = name

    def _fail(self, *_):
        raise RuntimeError(f"input step {self._failed_name!r} failed")

    __getattr__ = __getitem__ = __iter__ = __repr__ = _fail


def run_scenario(name: str) -> Report:
    """Run a scenario, recording one StepResult per call of its `step`."""
    if name not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {', '.join(scenario_names())}")
    start = time.perf_counter()
    results: List[StepResult] = []

    def step(step_name, anchor, expected, actual):
        try:
            value = actual()
            ok = expected == value
            results.append(StepResult(step_name, anchor, "PASS" if ok else "FAIL",
                                      _text(expected), _text(value)))
            return value
        except Exception as exc:  # an engine error fails this step only
            results.append(StepResult(step_name, anchor, "FAIL", _text(expected), _error(exc)))
            return _FailedStep(step_name)

    try:
        SCENARIOS[name](step)
    except Exception as exc:  # code between steps that raises ends the scenario
        results.append(StepResult("build", "the scenario builds its steps", "FAIL", "no error",
                                  _error(exc)))
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return Report(name, results, elapsed_ms)
