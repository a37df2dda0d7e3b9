"""Acceptance gate: the ten exit criteria, every check exact (F2 or integer
equality, no tolerances).  Each criterion prints one PASS/FAIL line.

Criterion 6 checks the inverse action of the 12-letter longest word of D4
and asserts that it sends root 11 to -(root 11).  An earlier recorded
expectation said -(root 12); that claim is refuted, and the test says why:
  - the word is reduced and has 12 = |Phi+| inversions, so it is w0, and w0
    acts as -1 on D4 (Bourbaki, Lie Groups and Lie Algebras, VI, Plate IV);
  - plain reflections s_i(x) = x - <x, alpha_i^v> alpha_i built from the
    Cartan matrix, with no RootMap, negate every simple root and root 11;
  - no map of the Weyl group extended by the diagram symmetries sends
    (11, 2) to (-12, -2): with root 2 = gamma, root 11 = a+b+c+d and root
    12 = a+2b+c+d, (gamma, 11) = 1 but (gamma, 12) = 0.
The limit-failure witness holds with the true images as well as with the
recorded ones.
"""

import random
import time

from crlab.coeffring import UNIT, SQRT, VariableRegistry, square_obstruction_witness
from crlab.chevalley import (
    GraphAut,
    RootElement,
    TorusValue,
    WeylRep,
    adjoint,
    centralizer_system,
    collect,
    conjugate,
    generic_radical_element,
    normalize,
    normalized_word,
    word,
    word_equal,
)
from crlab.matrixoracle import GF, enumerate_m_conjugacy, evaluate_word, exact_word, first_difference
from crlab.parabolic import limit_along
from crlab.rootsys import (
    compose_word,
    fixed_cocharacter_lattice,
    extends_to_ambient,
    label_cycles,
    root_system,
    subsystem_roots,
    verify_w0_identities,
)
from crlab.scenarios import run_scenario, scenario_names

from references import lie_word, linear_matrix, random_assignment, random_d4_borel_word


def report(number: int, ok: bool, description: str) -> bool:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {description}")
    return ok


def d4_registry():
    reg = VariableRegistry()
    reg.add("y")
    for i in range(4, 13):
        reg.add(f"x{i}")
    reg.add("t", UNIT)
    reg.add("s", SQRT)
    return reg


def nsigma(sys, reg):
    return word(sys, reg, WeylRep(sys.simple("a")), GraphAut(sys, "sigma"))


def test_criterion_1_label_permutation():
    sys = root_system("d4")
    m = compose_word(sys, ["a", "sigma"])
    images = {i: m(sys.root_by_label(i)).label for i in range(4, 13)}
    ok = label_cycles(images) == "(4 5 8 11 10 7)(6 9)(12)"
    assert report(1, ok, "n_alpha sigma acts on labels 4..12 as (4 5 8 11 10 7)(6 9)(12)")


def test_criterion_2_conjugation_identity():
    sys, reg = root_system("d4"), d4_registry()
    s = reg.var("s")
    v = word(sys, reg, RootElement(sys.root_by_label(6), s), RootElement(sys.root_by_label(9), s))
    got = conjugate(v, nsigma(sys, reg))
    expected = nsigma(sys, reg) * word(sys, reg, RootElement(sys.root_by_label(12), s * s))
    ok = word_equal(got, expected)
    assert report(2, ok, "v(s) conjugates n_alpha sigma to n_alpha sigma e12(s^2)")


def test_criterion_3_generic_collection():
    sys, reg = root_system("d4"), d4_registry()
    s = reg.var("s")
    radical = [sys.root_by_label(i) for i in range(4, 13)]
    u = generic_radical_element(sys, reg, radical).as_word()
    g = nsigma(sys, reg) * word(sys, reg, RootElement(sys.root_by_label(12), s * s))
    display = [sys.root_by_label(i) for i in (7, 10, 9, 11, 6, 8, 4, 5, 12)]
    tail = collect(normalize(u.inverse() * g * u).tail_atoms, display, reg)
    x = {i: reg.var(f"x{i}") for i in range(4, 13)}
    expected = {
        7: x[4] + x[7],
        10: x[7] + x[10],
        9: x[6] + x[9],
        11: x[10] + x[11],
        6: x[6] + x[9],
        8: x[8] + x[11],
        4: x[4] + x[5],
        5: x[5] + x[8],
        12: x[5] * x[10] + x[5] * x[11] + x[7] * x[8] + x[7] * x[11] + x[8] * x[10]
        + x[9] ** 2 + s ** 2,
    }
    ok = all(tail.coefficient(lbl) == val for lbl, val in expected.items())
    ok = ok and str(tail.coefficient(12)) == "x5x10+x5x11+x7x8+x7x11+x8x10+x9^2+s^2"
    assert report(3, ok, "all nine coefficients of the generic conjugate match term-for-term")


def test_criterion_4_rationality_obstruction():
    sys, reg = root_system("d4"), d4_registry()
    s = reg.var("s")
    radical = [sys.root_by_label(i) for i in range(4, 13)]
    u = generic_radical_element(sys, reg, radical).as_word()
    g = nsigma(sys, reg) * word(sys, reg, RootElement(sys.root_by_label(12), s * s))
    tail = collect(normalize(u.inverse() * g * u).tail_atoms, radical, reg)
    bindings = {n: reg.var("y") for n in ("x4", "x5", "x7", "x8", "x10", "x11")}
    bindings["x6"] = reg.var("x9")
    substituted = tail.coefficient(12).substitute(bindings)
    ok = substituted == reg.var("y") ** 2 + reg.var("x9") ** 2 + s ** 2
    ok = ok and square_obstruction_witness(substituted) == reg.var("y") + reg.var("x9")
    assert report(4, ok, "the equalities force y^2+x9^2+s^2 = 0, unsolvable with s-free values")


def test_criterion_5_centralizer_of_M():
    sys, reg = root_system("d4"), d4_registry()
    gens = [
        nsigma(sys, reg),
        word(sys, reg, TorusValue(sys.cocharacter((1, 0, 1, 0)), "t")),
    ]
    radical = [sys.root_by_label(i) for i in range(4, 13)]
    rep_n = centralizer_system([gens[0]], radical, reg)
    classes = rep_n.linear_classes()
    ok = classes == [["x4", "x5", "x7", "x8", "x10", "x11"], ["x6", "x9"]]

    rep_m = centralizer_system(gens, radical, reg)
    ok = ok and rep_m.subgroup_description() == "U_12"
    ok = ok and any(str(p) == "x6^2" for p in rep_m.solved.forced)

    opposite = [sys.root_by_label(-i) for i in range(4, 13)]
    rep_o = centralizer_system(gens, opposite, reg)
    ok = ok and rep_o.subgroup_description() == "U_-12"

    lattice = fixed_cocharacter_lattice(compose_word(sys, ["a", "sigma"]))
    ok = ok and lattice == [(1, 2, 1, 1)]
    assert report(5, ok, "centralizer systems give the equalities, x6^2 = 0, U_12, U_-12 "
                         "and the rank-1 fixed cocharacter line")


def test_criterion_6_longest_word_actions():
    sys, reg = root_system("d4"), d4_registry()
    letters = ["a", "b", "a", "c", "b", "a", "d", "b", "a", "c", "b", "d"]
    n12 = compose_word(sys, letters)
    got11 = n12.inverse()(sys.root_by_label(11)).label
    got2 = n12.inverse()(sys.root_by_label(2)).label

    # the same inverse action from plain reflections on coefficient vectors:
    # s_i(x) = x - <x, alpha_i^v> alpha_i, leftmost letter applied first
    rank, cartan = sys.rank, sys.cartan

    def inverse_action(x):
        for name in letters:
            i = sys.short_names.index(name)
            p = sum(x[k] * cartan[k][i] for k in range(rank))
            x = tuple(x[k] - (p if k == i else 0) for k in range(rank))
        return x

    simples = [tuple(int(k == i) for k in range(rank)) for i in range(rank)]
    negates_simples = all(inverse_action(e) == tuple(-c for c in e) for e in simples)
    inversions = sum(1 for r in sys.positive_roots if sum(inverse_action(r.coeffs)) < 0)
    agrees11 = inverse_action(sys.root_by_label(11).coeffs) == sys.root_by_label(got11).coeffs

    r11, r2 = sys.root_by_label(11), sys.root_by_label(2)
    recorded_realizable = any(
        m(r11).label == -12 and m(r2).label == -2 for m in sys.weyl_and_diagram_elements()
    )

    def no_limit(label1, label2):
        roots = [sys.root_by_label(label1), sys.root_by_label(label2)]
        tail = collect(
            [RootElement(roots[0], reg.one()), RootElement(roots[1], reg.var("s"))], roots, reg)
        return limit_along(sys.cocharacter((1, 2, 1, 1)), None, tail) is None

    no_limit_recorded = no_limit(-12, -2)
    no_limit_computed = no_limit(got11, got2)

    report(6, got11 == -11, f"longest-word inverse action sends 11 to -11 (engine: {got11})")
    report(6, got2 == -2, "longest-word inverse action sends 2 to -2")
    report(6, negates_simples and inversions == 12 and agrees11,
           f"plain Cartan reflections: the word negates every simple root and root 11 "
           f"and has {inversions} inversions (|Phi+| = {sys.n_pos})")
    report(6, not recorded_realizable,
           "refuted claim: no Weyl-diagram map sends (11, 2) to (-12, -2)")
    report(6, no_limit_recorded, "e-12(1)e-2(s) has no limit along (a+2b+c+d)^v")
    report(6, no_limit_computed, f"e{got11}(1)e{got2}(s) has no limit along (a+2b+c+d)^v")
    assert negates_simples
    assert inversions == sys.n_pos == 12
    assert agrees11
    assert not recorded_realizable
    assert got11 == -11
    assert got2 == -2
    assert no_limit_recorded
    assert no_limit_computed


def test_criterion_7_composite_map_identities():
    d4 = root_system("d4")
    rep = verify_w0_identities(d4.cocharacter((1, 2, 1, 1)))
    ok = rep is True
    # the Levi claim holds by construction: the extension of -1 on the A1^3
    # Levi, composed with -1, fixes each Levi root
    Ld4 = [d4.simple(c) for c in "acd"]
    levi = subsystem_roots(d4, Ld4)
    ext = extends_to_ambient(d4, Ld4, {r: -r for r in levi})
    w = ext.compose(d4.minus_one_map())
    ok = ok and len(levi) == 6 and all(w(r) == r for r in levi)

    a3 = root_system("a3")
    La3 = [a3.simple("a"), a3.simple("b")]
    partial = {r: -r for r in subsystem_roots(a3, La3)}
    ok = ok and extends_to_ambient(a3, La3, partial) is None
    ok = ok and verify_w0_identities(a3.cocharacter((1, 2, 3))) is None
    assert report(7, ok, "w fixes the A1^3 Levi and flips the radical; the A3 case does not extend")


def test_criterion_8_a2_conjugacy():
    sys = root_system("a2")
    reg = VariableRegistry()
    for n in ("x", "y", "z"):
        reg.add(n)
    reg.add("t", UNIT)
    x, y, z = reg.var("x"), reg.var("y"), reg.var("z")
    alpha, beta, ab = (sys.root_by_label(i) for i in (1, 2, 3))
    sigma = word(sys, reg, GraphAut(sys, "sigma"))

    u = word(sys, reg, RootElement(alpha, x), RootElement(beta, y), RootElement(ab, z))
    expected = word(sys, reg, RootElement(alpha, y), RootElement(beta, x), RootElement(ab, x * y + z))
    ok = word_equal(conjugate(sigma, u), expected)
    ok = ok and first_difference((exact_word(sigma * u * sigma.inverse()), exact_word(expected))) is None

    v = word(sys, reg, RootElement(alpha, x), RootElement(beta, x))
    m1 = sigma
    m2 = word(sys, reg, RootElement(ab, reg.one()))
    m1_expected = sigma * word(sys, reg, RootElement(ab, x * x))
    ok = ok and word_equal(conjugate(v, m1), m1_expected)
    ok = ok and word_equal(conjugate(v, m2), m2)
    ok = ok and first_difference((exact_word(v * m1 * v.inverse()), exact_word(m1_expected)),
                                 (exact_word(v * m2 * v.inverse()), exact_word(m2))) is None

    vec = {alpha: reg.one(), beta: reg.one()}
    ok = ok and adjoint(sigma, vec) == vec
    u_eps = lie_word(sys, reg, vec)
    ok = ok and linear_matrix(sigma * u_eps * sigma.inverse()) == linear_matrix(u_eps)

    ok = ok and sorted(enumerate_m_conjugacy(4, list(range(4)))) == [[0], [1], [2], [3]]
    assert report(8, ok, "sigma conjugation, the pair formula and the adjoint check pass in "
                         "engine and matrix oracle; F4 gives 4 singleton classes")


def test_criterion_9_nonseparability_witnesses():
    d4, reg = root_system("d4"), d4_registry()
    reg.add("x")
    xx = reg.var("x")
    vec = {d4.root_by_label(6): reg.one(), d4.root_by_label(9): reg.one()}
    gens = [nsigma(d4, reg), word(d4, reg, TorusValue(d4.cocharacter((1, 0, 1, 0)), "t"))]
    ok = all(adjoint(g, vec) == vec for g in gens)
    curve = word(d4, reg, RootElement(d4.root_by_label(6), xx), RootElement(d4.root_by_label(9), xx))
    got = conjugate(curve, nsigma(d4, reg))
    residual = collect([a for a in got.atoms if isinstance(a, RootElement)],
                       [d4.root_by_label(12)], reg).coefficient(12)
    ok = ok and residual == xx * xx and not residual.is_zero

    a2 = root_system("a2")
    reg2 = VariableRegistry()
    reg2.add("x")
    x2 = reg2.var("x")
    vec2 = {a2.root_by_label(1): reg2.one(), a2.root_by_label(2): reg2.one()}
    sig2 = word(a2, reg2, GraphAut(a2, "sigma"))
    ok = ok and adjoint(sig2, vec2) == vec2
    curve2 = word(a2, reg2, RootElement(a2.root_by_label(1), x2), RootElement(a2.root_by_label(2), x2))
    got2 = conjugate(curve2, sig2)
    residual2 = collect([a for a in got2.atoms if isinstance(a, RootElement)],
                        [a2.root_by_label(3)], reg2).coefficient(3)
    ok = ok and residual2 == x2 * x2 and not residual2.is_zero
    assert report(9, ok, "e6+e9 and e_alpha+e_beta are adjoint-fixed while the curves leave "
                         "nonzero residual coefficients")


def test_criterion_10_property_suites():
    failures = 0

    # collection confluence: 500 random radical words under admissible reshuffles
    sys, reg = root_system("d4"), d4_registry()
    order = [sys.root_by_label(i) for i in range(4, 13)]
    rng = random.Random(0)
    names = [f"x{i}" for i in range(4, 13)] + ["y", "s"]
    for _ in range(500):
        atoms = [RootElement(sys.root_by_label(rng.randrange(4, 13)), reg.var(rng.choice(names)))
                 for _ in range(rng.randrange(0, 10))]
        base = collect(list(atoms), order, reg)
        w = list(atoms)
        for _ in range(rng.randrange(0, 6)):
            if len(w) < 2:
                break
            i = rng.randrange(len(w) - 1)
            a, b = w[i], w[i + 1]
            c = a.root + b.root
            w[i], w[i + 1] = b, a
            if c is not None:
                w.insert(i + 2, RootElement(c, a.coeff * b.coeff))
        if collect(w, order, reg) != base:
            failures += 1
    report(10, failures == 0, "collection confluence, 500 random radical words")

    # conjugation action law
    for _ in range(60):
        def frame_word():
            atoms = []
            for _ in range(rng.randrange(1, 4)):
                k = rng.randrange(3)
                if k == 0:
                    atoms.append(WeylRep(sys.simple(rng.choice("abcd"))))
                elif k == 1:
                    atoms.append(GraphAut(sys, rng.choice(["sigma", "sigma2"])))
                else:
                    atoms.append(TorusValue(sys.cocharacter([rng.randrange(-2, 3) for _ in range(4)]), "t"))
            return word(sys, reg, *atoms)
        g, h = frame_word(), frame_word()
        xw = word(sys, reg, *[RootElement(sys.root_by_label(rng.randrange(1, 13)),
                                          reg.var(rng.choice(names)))
                              for _ in range(rng.randrange(0, 4))])
        if not word_equal(conjugate(g * h, xw), conjugate(g, conjugate(h, xw))):
            failures += 1
    report(10, failures == 0, "conjugation is an action on random unipotent elements")

    # adjoint homomorphism law on Lie(U), U = <e1..e12>, for words in the
    # radical and frame atoms that normalize U
    radical = [sys.root_by_label(i) for i in range(4, 13)]
    for _ in range(60):
        w1, w2 = (random_d4_borel_word(sys, reg, rng, radical, names) for _ in range(2))
        prod = normalized_word(w1 * w2)
        v = {sys.root_by_label(rng.randrange(1, 13)): reg.one()}
        if adjoint(w1, adjoint(w2, v)) != adjoint(prod, v):
            failures += 1
    report(10, failures == 0, "adjoint is a homomorphism against collected products")

    # A2 engine vs matrix oracle: 200 random words at 8 points each
    a2 = root_system("a2")
    reg2 = VariableRegistry()
    for n in ("x", "y", "z"):
        reg2.add(n)
    reg2.add("t", UNIT)
    gf = GF(16)
    for _ in range(200):
        atoms = []
        sign = rng.choice((1, -1))
        for _ in range(rng.randrange(0, 9)):
            k = rng.randrange(4)
            if k == 0:
                coeff = reg2.var(rng.choice("xyz"))
                if rng.randrange(2):
                    coeff = coeff * reg2.var(rng.choice("xyz")) + reg2.one()
                atoms.append(RootElement(a2.root_by_label(sign * rng.randrange(1, 4)), coeff))
            elif k == 1:
                atoms.append(WeylRep(a2.root_by_label(rng.randrange(1, 4))))
            elif k == 2:
                atoms.append(GraphAut(a2, "sigma"))
            else:
                atoms.append(TorusValue(a2.cocharacter((rng.randrange(-2, 3), rng.randrange(-2, 3))), "t"))
        w = word(a2, reg2, *atoms)
        canon = normalized_word(w)
        for _ in range(8):
            assign = random_assignment([w, canon], gf, rng)
            if evaluate_word(w, assign, gf) != evaluate_word(canon, assign, gf):
                failures += 1
    ok = failures == 0
    assert report(10, ok, "A2 oracle equivalence, 200 random words x 8 points, zero failures")


def test_timing_budgets():
    for name in scenario_names():
        rep = run_scenario(name)
        assert rep.elapsed_ms < 5000, f"{name} exceeded the 5 s budget"
    start = time.perf_counter()
    enumerate_m_conjugacy(4, list(range(4)))
    assert time.perf_counter() - start < 30.0
