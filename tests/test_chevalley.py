"""Collection, conjugation, adjoint and centralizer tests.

Expected values are frozen from hand evaluation of the characteristic-2
commutator rule [e_a(x), e_b(y)] = e_{a+b}(xy); the A2 cases are additionally
checked against the independent 3x3 matrix model in test_matrixoracle.py.
"""

import itertools
import random

import pytest

from crlab import chevalley
from crlab.coeffring import UNIT, SQRT, VariableRegistry
from crlab.chevalley import (
    EPS,
    ConstraintSystem,
    GraphAut,
    RadicalElement,
    RootElement,
    SolvedSystem,
    TorusValue,
    WeylRep,
    adjoint,
    centralizer_system,
    collect,
    conjugate,
    default_order,
    generic_radical_element,
    normalize,
    normalized_word,
    word,
    word_equal,
)
from crlab.rootsys import pairing, root_system
from crlab.wordexpr import parse_word

from references import random_d4_borel_word


def d4_setup():
    sys = root_system("d4")
    reg = VariableRegistry()
    for i in range(4, 13):
        reg.add(f"x{i}")
    reg.add("y")
    reg.add("t", UNIT)
    reg.add("s", SQRT)
    return sys, reg


def a2_setup():
    sys = root_system("a2")
    reg = VariableRegistry()
    for n in ("x", "y", "z"):
        reg.add(n)
    reg.add("t", UNIT)
    reg.add("s", SQRT)
    return sys, reg


def e(sys, reg, label, coeff):
    if isinstance(coeff, str):
        coeff = reg.var(coeff)
    elif isinstance(coeff, int):
        coeff = reg.const(coeff)
    return RootElement(sys.root_by_label(label), coeff)


def radical_roots(sys, labels):
    return [sys.root_by_label(i) for i in labels]


# ---------------------------------------------------------------------------
# collect


def test_collect_a2_swap_example():
    sys, reg = a2_setup()
    x, y, z = reg.var("x"), reg.var("y"), reg.var("z")
    order = radical_roots(sys, [1, 2, 3])  # alpha, beta, alpha+beta
    got = collect([e(sys, reg, 2, "x"), e(sys, reg, 1, "y"), e(sys, reg, 3, "z")], order, reg)
    assert got.coefficient(1) == y
    assert got.coefficient(2) == x
    assert got.coefficient(3) == x * y + z


def test_collect_empty_word():
    sys, reg = d4_setup()
    order = radical_roots(sys, range(4, 13))
    got = collect([], order, reg)
    assert got.is_trivial
    assert repr(got) == "1"


def test_collect_d4_single_commutator():
    sys, reg = d4_setup()
    x, y = reg.var("x4"), reg.var("x5")
    order = radical_roots(sys, range(4, 13))
    got = collect([e(sys, reg, 9, "x4"), e(sys, reg, 6, "x5")], order, reg)
    assert got.coefficient(6) == y
    assert got.coefficient(9) == x
    assert got.coefficient(12) == x * y


def test_collect_rejects_bad_sets():
    sys, reg = d4_setup()
    with pytest.raises(ValueError):
        collect([e(sys, reg, 4, "x4")], radical_roots(sys, [4, -4]), reg)
    with pytest.raises(ValueError):
        # {6, 9} is not closed: 6 + 9 = 12 is missing
        collect([e(sys, reg, 6, "x4")], radical_roots(sys, [6, 9]), reg)
    with pytest.raises(ValueError):
        collect([e(sys, reg, 1, "x4")], radical_roots(sys, range(4, 13)), reg)


def test_collect_confluence_under_preshuffle():
    sys, reg = d4_setup()
    order = radical_roots(sys, range(4, 13))
    rng = random.Random(23)
    names = [f"x{i}" for i in range(4, 13)] + ["y", "s"]
    for _ in range(120):
        atoms = [
            e(sys, reg, rng.randrange(4, 13), rng.choice(names))
            for _ in range(rng.randrange(0, 10))
        ]
        base = collect(list(atoms), order, reg)
        w = [RootElement(a.root, a.coeff) for a in atoms]
        # random adjacent transposition with the commutator correction keeps
        # the group element fixed, so collection must agree
        for _ in range(rng.randrange(0, 6)):
            if len(w) < 2:
                break
            i = rng.randrange(len(w) - 1)
            a, b = w[i], w[i + 1]
            c = a.root + b.root
            w[i], w[i + 1] = b, a
            if c is not None:
                w.insert(i + 2, RootElement(c, a.coeff * b.coeff))
        assert collect(w, order, reg) == base



def reference_collect(atoms, order):
    """The collection loop run on Root keys, with the sum computed by root
    arithmetic at each out-of-order pair; returns the coefficients."""
    pos = {r: i for i, r in enumerate(order)}
    seq = [[a.root, a.coeff] for a in atoms if not a.coeff.is_zero]
    i = 0
    while i < len(seq) - 1:
        (ra, ca), (rb, cb) = seq[i], seq[i + 1]
        if ra == rb:
            merged = ca + cb
            if merged.is_zero:
                del seq[i:i + 2]
            else:
                seq[i:i + 2] = [[ra, merged]]
            i = max(i - 1, 0)
        elif pos[ra] > pos[rb]:
            c = ra + rb
            repl = [[rb, cb], [ra, ca]]
            if c is not None:
                prod = ca * cb
                if not prod.is_zero:
                    repl.append([c, prod])
            seq[i:i + 2] = repl
            i = max(i - 1, 0)
        else:
            i += 1
    return {r: c for r, c in seq}


def is_graded(order):
    pos = {r: i for i, r in enumerate(order)}
    return all(a + b is None or pos[a + b] > max(pos[a], pos[b])
               for a, b in itertools.combinations(order, 2))


REFERENCE_CASES = [
    ("d4", range(4, 13), 41, False, 60, range(40)),  # the radical U of the paper's D4 parabolic
    ("d4", range(1, 13), 42, False, 60, range(40)),  # all positive roots of D4
    ("a3", range(1, 7), 43, False, 60, range(40)),   # all positive roots of A3
    ("a2", range(1, 4), 44, False, 60, range(40)),   # all positive roots of A2
    ("d4", range(4, 13), 45, False, 6, [200]),       # long words on U
    ("a3", range(1, 7), 46, True, 30, range(40)),    # orders that are not graded
    ("a4", range(1, 11), 47, True, 30, range(40)),
    ("d4", range(1, 13), 48, True, 30, range(40)),
    ("d4", range(4, 13), 49, True, 30, range(40)),
]


@pytest.mark.parametrize("typ,labels,seed,shuffled,words,lengths", REFERENCE_CASES,
                         ids=[f"{c[0]}-labels{i}-{c[2]}" for i, c in enumerate(REFERENCE_CASES)])
def test_collect_matches_reference(typ, labels, seed, shuffled, words, lengths):
    sys = root_system(typ)
    reg = VariableRegistry()
    t = reg.add("t", UNIT)
    xs = [reg.add(f"x{i}") for i in range(4, 8)] + [reg.add("s", SQRT)]
    rng = random.Random(seed)
    order = list(default_order(sys, radical_roots(sys, labels)))
    assert is_graded(order)
    if shuffled:
        while is_graded(order):
            rng.shuffle(order)
    for _ in range(words):
        atoms = []
        for _ in range(rng.choice(lengths)):
            coeff = rng.choice(xs) * t ** rng.randint(-2, 2)
            if rng.random() < 0.3:
                coeff = coeff + rng.choice(xs)
            atoms.append(RootElement(sys.root_by_label(rng.choice(list(labels))), coeff))
        assert collect(atoms, order, reg).coeffs == reference_collect(atoms, order)


def test_collect_over_an_order_that_is_not_graded():
    sys, reg = d4_setup()
    rng = random.Random(50)
    order = list(default_order(sys, radical_roots(sys, range(1, 13))))
    while is_graded(order):
        rng.shuffle(order)
    names = [f"x{i}" for i in range(4, 13)] + ["y", "s"]
    atoms = [e(sys, reg, rng.randrange(1, 13), rng.choice(names)) for _ in range(20)]
    got = collect(atoms, order, reg)
    assert got.order == tuple(order)
    assert got.support == tuple(r for r in order if r in got.coeffs)
    w = word(sys, reg, *atoms)
    assert collect(w * w.inverse(), order).is_trivial
    assert collect(got.as_word() * w.inverse(), order).is_trivial


def test_collect_rejects_a_registry_other_than_the_words():
    sys, reg = d4_setup()
    order = radical_roots(sys, (4,))
    w = word(sys, reg, e(sys, reg, 4, reg.var("x4")))
    with pytest.raises(ValueError, match="coefficients from different registries"):
        collect(w, order, VariableRegistry())
    assert collect(w, order, reg) == collect(w, order)


def test_collect_rejects_an_order_listing_a_root_twice():
    sys, reg = d4_setup()
    with pytest.raises(ValueError, match="twice"):
        collect([e(sys, reg, 4, "x4")], radical_roots(sys, [4, 4, 5]), reg)


# ---------------------------------------------------------------------------
# conjugation


def nsigma_word(sys, reg):
    return word(sys, reg, WeylRep(sys.simple("a")), GraphAut(sys, "sigma"))


def test_conjugate_v_by_nsigma_key_identity():
    sys, reg = d4_setup()
    s = reg.var("s")
    v = word(sys, reg, e(sys, reg, 6, "s"), e(sys, reg, 9, "s"))
    got = conjugate(v, nsigma_word(sys, reg))
    expected = nsigma_word(sys, reg) * word(sys, reg, RootElement(sys.root_by_label(12), s * s))
    assert word_equal(got, expected)


def test_conjugate_v_negative_variant():
    sys, reg = d4_setup()
    s = reg.var("s")
    v = word(sys, reg, e(sys, reg, -6, "s"), e(sys, reg, -9, "s"))
    got = conjugate(v, nsigma_word(sys, reg))
    expected = nsigma_word(sys, reg) * word(sys, reg, RootElement(sys.root_by_label(-12), s * s))
    assert word_equal(got, expected)


def test_conjugate_a2_sigma_squares_the_curve():
    sys, reg = a2_setup()
    x = reg.var("x")
    v = word(sys, reg, e(sys, reg, 1, "x"), e(sys, reg, 2, "x"))
    sigma = word(sys, reg, GraphAut(sys, "sigma"))
    got = conjugate(v, sigma)
    expected = sigma * word(sys, reg, RootElement(sys.root_by_label(3), x * x))
    assert word_equal(got, expected)


def test_conjugate_by_identity():
    sys, reg = d4_setup()
    one = word(sys, reg)
    h = word(sys, reg, e(sys, reg, 11, 1), e(sys, reg, 2, "s"))
    assert word_equal(conjugate(one, h), h)


def test_conjugate_action_law():
    sys, reg = d4_setup()
    rng = random.Random(5)
    names = [f"x{i}" for i in range(4, 13)] + ["s"]
    frames = ["a", "b", "c", "d"]
    for _ in range(40):
        def rand_frame_word():
            atoms = []
            for _ in range(rng.randrange(1, 4)):
                kind = rng.randrange(3)
                if kind == 0:
                    atoms.append(WeylRep(sys.simple(rng.choice(frames))))
                elif kind == 1:
                    atoms.append(GraphAut(sys, rng.choice(["sigma", "sigma2"])))
                else:
                    atoms.append(TorusValue(sys.cocharacter([rng.randrange(-2, 3) for _ in range(4)]), "t"))
            return word(sys, reg, *atoms)

        g, h = rand_frame_word(), rand_frame_word()
        x = word(sys, reg, *[e(sys, reg, rng.randrange(1, 13), rng.choice(names))
                             for _ in range(rng.randrange(0, 4))])
        lhs = conjugate(g * h, x)
        rhs = conjugate(g, conjugate(h, x))
        assert word_equal(lhs, rhs)


def test_uncollectible_conjugation_is_flagged():
    sys, reg = d4_setup()
    h = word(sys, reg, e(sys, reg, 11, 1), e(sys, reg, -12, 1), e(sys, reg, 12, "y"))
    assert normalize(h).tail is None
    assert conjugate(word(sys, reg), h).atoms == h.atoms  # pushed, left uncollected


# ---------------------------------------------------------------------------
# generic conjugation u^-1 g u: the two key D4 computations


DISPLAY_ORDER = [7, 10, 9, 11, 6, 8, 4, 5, 12]


def test_generic_conjugation_nine_coefficients_in_display_order():
    sys, reg = d4_setup()
    s = reg.var("s")
    radical = radical_roots(sys, range(4, 13))
    u = generic_radical_element(sys, reg, radical).as_word()
    g = nsigma_word(sys, reg) * word(sys, reg, RootElement(sys.root_by_label(12), s * s))
    n = normalize(u.inverse() * g * u)
    tail = collect(n.tail_atoms, radical_roots(sys, DISPLAY_ORDER), reg)
    expected_map = WeylRep(sys.simple("a")).map.compose(GraphAut(sys, "sigma").map)
    assert n.frame_map == expected_map
    x = {i: reg.var(f"x{i}") for i in range(4, 13)}
    assert tail.coefficient(7) == x[4] + x[7]
    assert tail.coefficient(10) == x[7] + x[10]
    assert tail.coefficient(9) == x[6] + x[9]
    assert tail.coefficient(11) == x[10] + x[11]
    assert tail.coefficient(6) == x[6] + x[9]
    assert tail.coefficient(8) == x[8] + x[11]
    assert tail.coefficient(4) == x[4] + x[5]
    assert tail.coefficient(5) == x[5] + x[8]
    assert tail.coefficient(12) == (
        x[5] * x[10] + x[5] * x[11] + x[7] * x[8] + x[7] * x[11] + x[8] * x[10]
        + x[9] ** 2 + s ** 2
    )
    assert str(tail.coefficient(12)) == "x5x10+x5x11+x7x8+x7x11+x8x10+x9^2+s^2"


def test_generic_conjugation_of_u_by_nsigma_ascending_order():
    sys, reg = d4_setup()
    radical = radical_roots(sys, range(4, 13))
    u = generic_radical_element(sys, reg, radical)
    got = conjugate(nsigma_word(sys, reg), u.as_word())
    tail = collect([a for a in got.atoms if isinstance(a, RootElement)], radical, reg)
    x = {i: reg.var(f"x{i}") for i in range(4, 13)}
    expected_linear = {4: x[7], 5: x[4], 6: x[9], 7: x[10], 8: x[5], 9: x[6], 10: x[11], 11: x[8]}
    for label, val in expected_linear.items():
        assert tail.coefficient(label) == val
    assert tail.coefficient(12) == x[5] * x[10] + x[6] * x[9] + x[12]


def test_generic_conjugation_trivial_u():
    sys, reg = d4_setup()
    radical = radical_roots(sys, range(4, 13))
    u = collect([], radical, reg).as_word()
    g = nsigma_word(sys, reg)
    w = u.inverse() * g * u
    n = normalize(w)
    assert collect(n.tail_atoms, radical, reg).is_trivial
    assert word_equal(word(sys, reg, *(a for a in w.atoms if not isinstance(a, RootElement))), g)


# ---------------------------------------------------------------------------
# atom-level actions


def test_act_weyl_rep():
    # n_xi e n_xi^-1 is e at the reflected root, sign-free in characteristic 2
    sys, reg = d4_setup()
    n_a = word(sys, reg, WeylRep(sys.simple("a")))
    got = conjugate(n_a, word(sys, reg, e(sys, reg, 4, "x4")))
    assert got.atoms == (e(sys, reg, 5, "x4"),)
    n_12 = word(sys, reg, WeylRep(sys.root_by_label(12)))
    got = conjugate(n_12, word(sys, reg, e(sys, reg, 11, 1)))
    assert got.atoms == (e(sys, reg, -4, 1),)
    assert conjugate(n_a, word(sys, reg, e(sys, reg, 2, 0))).atoms == ()


def test_act_torus_pairings():
    # chi(u) e_zeta(x) chi(u)^-1 = e_zeta(u^<zeta,chi> x)
    sys, reg = d4_setup()
    chi = word(sys, reg, TorusValue(sys.cocharacter((1, 0, 1, 0)), "t"))  # (alpha+gamma)^v
    t = reg.var("t")
    x = reg.var("x4")
    got = conjugate(chi, word(sys, reg, RootElement(sys.root_by_label(12), x)))
    assert got.atoms == (RootElement(sys.root_by_label(12), x),)
    got = conjugate(chi, word(sys, reg, RootElement(sys.root_by_label(4), x)))
    assert got.atoms == (RootElement(sys.root_by_label(4), t ** -2 * x),)
    got = conjugate(chi, word(sys, reg, e(sys, reg, 4, 1)))
    assert [a.root for a in got.atoms] == [sys.root_by_label(4)]


# ---------------------------------------------------------------------------
# adjoint


def basis(sys, reg, labels):
    """e_l1 + e_l2 + ... as a vector {root: coefficient}."""
    return {sys.root_by_label(i): reg.one() for i in labels}


def test_adjoint_sigma_fixes_sum_a2():
    sys, reg = a2_setup()
    v = basis(sys, reg, (1, 2))
    got = adjoint(word(sys, reg, GraphAut(sys, "sigma")), v)
    assert got == v


def test_adjoint_identity():
    sys, reg = d4_setup()
    v = {sys.root_by_label(6): reg.one(), sys.root_by_label(9): reg.var("y")}
    assert adjoint(word(sys, reg), v) == v


def test_adjoint_curve_fixes_e6_plus_e9():
    sys, reg = d4_setup()
    x = reg.add("x")
    v = basis(sys, reg, (6, 9))
    curve = word(sys, reg, RootElement(sys.root_by_label(6), x), RootElement(sys.root_by_label(9), x))
    assert adjoint(curve, v) == v


def test_adjoint_homomorphism_random():
    # words in the radical, the torus and the diagram symmetries normalize
    # U = <e1..e12>, so Ad is defined on all of Lie(U)
    sys, reg = d4_setup()
    rng = random.Random(31)
    radical = [sys.root_by_label(i) for i in range(4, 13)]
    names = [f"x{i}" for i in range(4, 13)]
    for _ in range(40):
        w1, w2 = (random_d4_borel_word(sys, reg, rng, radical, names) for _ in range(2))
        prod = normalized_word(w1 * w2)
        v = basis(sys, reg, [rng.randrange(1, 13)])
        assert adjoint(w1, adjoint(w2, v)) == adjoint(prod, v)


def test_adjoint_weyl_rep_permutes_basis():
    sys, reg = d4_setup()
    n_a = word(sys, reg, WeylRep(sys.simple("a")))
    assert adjoint(n_a, basis(sys, reg, (4,))) == basis(sys, reg, (5,))


def test_adjoint_rejects_the_derivative_variable():
    sys, reg = a2_setup()
    eps = reg.add(EPS)
    alpha = sys.root_by_label(1)
    with pytest.raises(ValueError, match="already in use"):
        adjoint(word(sys, reg, GraphAut(sys, "sigma")), {alpha: eps})
    with pytest.raises(ValueError, match="already in use"):
        adjoint(word(sys, reg, RootElement(alpha, eps)), basis(sys, reg, (2,)))


def test_adjoint_rejects_a_vector_outside_the_normalized_group():
    # e1(x) normalizes no unipotent group holding e-1
    sys, reg = a2_setup()
    g = word(sys, reg, RootElement(sys.root_by_label(1), reg.var("x")))
    with pytest.raises(ValueError, match="does not normalize"):
        adjoint(g, basis(sys, reg, (-1,)))


def test_tangent_space_of_the_centralizer_exceeds_its_reduced_group():
    """M = <n_a sigma, (a+c)^v(t)> on the radical 4..12: over F2^9 the
    Ad(M)-fixed vectors of Lie(U) are the kernel of the linear parts of the
    centralizer equations, span{e6+e9, e12}, of dimension 2, while the
    reduced centralizer is U_12, of dimension 1 (non-separability)."""
    sys, reg = d4_setup()
    radical = radical_roots(sys, range(4, 13))
    gens = [nsigma_word(sys, reg), word(sys, reg, TorusValue(sys.cocharacter((1, 0, 1, 0)), "t"))]
    report = centralizer_system(gens, radical, reg)
    assert report.subgroup_description() == "U_12"
    images = [{r: adjoint(g, {r: reg.one()}) for r in radical} for g in gens]
    # d p / d x_r at 0 is the constant term of the coefficient of x_r^1
    gradients = [[() in p.linear_part(chevalley._coordinate_name(r)).terms for r in radical]
                 for p in report.equations]

    def ad(image, support):
        out = {}
        for r in support:
            for t, c in image[r].items():
                out[t] = out.get(t, reg.zero()) + c
        return {t: c for t, c in out.items() if c}

    fixed, kernel = set(), set()
    for bits in itertools.product((0, 1), repeat=len(radical)):
        support = [r for r, b in zip(radical, bits) if b]
        labels = frozenset(r.label for r in support)
        v = {r: reg.one() for r in support}
        if all(ad(image, support) == v for image in images):
            fixed.add(labels)
        if all(sum(b for b, d in zip(bits, row) if d) % 2 == 0 for row in gradients):
            kernel.add(labels)
    assert fixed == kernel == {frozenset(), frozenset({6, 9}), frozenset({12}), frozenset({6, 9, 12})}


# ---------------------------------------------------------------------------
# commutator support shape


def test_commutator_support_shape():
    sys, reg = d4_setup()
    radical = radical_roots(sys, range(4, 13))
    rng = random.Random(41)
    for _ in range(60):
        a, b = rng.choice(radical), rng.choice(radical)
        if a == b:
            continue
        x, y = reg.var("x4"), reg.var("x5")
        w = [RootElement(a, x), RootElement(b, y), RootElement(a, x), RootElement(b, y)]
        got = collect(w, radical, reg)
        c = a + b
        if c is None:
            assert got.is_trivial
        else:
            assert set(got.support) <= {c}


# ---------------------------------------------------------------------------
# centralizer systems


def test_centralizer_of_nsigma_alone():
    sys, reg = d4_setup()
    radical = radical_roots(sys, range(4, 13))
    rep = centralizer_system([nsigma_word(sys, reg)], radical, reg)
    x = {i: reg.var(f"x{i}") for i in range(4, 13)}
    eqs = set(rep.equations)
    for i, j in [(4, 7), (4, 5), (7, 10), (5, 8), (10, 11), (8, 11)]:
        assert x[i] + x[j] in eqs
    assert x[6] + x[9] in eqs
    assert x[5] * x[10] + x[6] * x[9] in eqs
    classes = rep.solved.classes()
    assert {"x6", "x9"} <= set().union(*classes)


def test_subgroup_description_verdicts():
    sys, reg = d4_setup()
    radical = radical_roots(sys, range(4, 13))
    rep = centralizer_system([nsigma_word(sys, reg)], radical, reg)
    assert rep.subgroup_description() == "coordinates x4, x12"
    assert [str(p) for p in rep.solved.forced] == ["x4^2+x6^2"]

    lam_torus = word(sys, reg, TorusValue(sys.cocharacter((1, 2, 1, 1)), "t"))
    assert centralizer_system([lam_torus], radical, reg).subgroup_description() == "1"

    lam = sys.cocharacter((2, 3, 2, 2))
    u_lam = [r for r in sys.roots if pairing(r, lam) > 0]
    g = word(sys, reg, WeylRep(sys.simple("b")), GraphAut(sys, "sigma"))
    rep = centralizer_system([g], u_lam, reg)
    assert rep.subgroup_description() == "unsolved"
    # two of the equations reduce to the same residual; it is recorded once
    assert [str(p) for p in rep.solved.residuals] == ["x1^3+x11+x12"]


def test_a_product_of_unknowns_stays_a_residual():
    sys, reg = d4_setup()
    x4, x5 = reg.var("x4"), reg.var("x5")
    solved = ConstraintSystem(reg, [x4 * x5], radical_roots(sys, [4, 5])).solved
    assert solved.residuals == [x4 * x5]
    assert not solved.triangular


def test_a_binomial_with_a_parameter_binds_nothing():
    # y is registered after x4, so the binomial reads (x4, y, 1): only its first name is an unknown
    sys, reg = d4_setup()
    x4, y = reg.var("x4"), reg.var("y")
    rep = ConstraintSystem(reg, [x4 + y], radical_roots(sys, [4, 5]))
    assert rep.solved.residuals == [x4 + y]
    assert rep.linear_classes() == []


def test_a_unit_or_square_root_factor_forces_its_unknown_to_zero():
    # x4 times nonzero constants vanishes only at x4 = 0; an ordinary
    # parameter y may itself vanish, so y*x4 = 0 decides nothing
    sys, reg = d4_setup()
    x4, y = reg.var("x4"), reg.var("y")
    radical = radical_roots(sys, [4, 5])
    ordinary = ConstraintSystem(reg, [y * x4], radical)
    assert ordinary.solved.residuals == [y * x4]
    assert ordinary.subgroup_description() == "unsolved"
    for constant in ("t", "s"):
        rep = ConstraintSystem(reg, [reg.var(constant) * x4], radical)
        assert rep.solved.is_zero("x4") and rep.solved.triangular, constant
        assert rep.subgroup_description() == "U_5", constant


def test_solved_system_classes_follow_the_unknowns_order():
    solved = SolvedSystem(["x4", "x9", "x10", "x11", "x12"])
    solved.merge("x12", "x9")
    solved.merge("x11", "x10")
    assert solved.classes() == [["x9", "x12"], ["x10", "x11"]]
    solved.merge("x10", "x12")
    assert solved.classes() == [["x9", "x10", "x11", "x12"]]
    assert solved.rep("x11") == "x9"
    # position decides, not the name: the first unknown represents its class
    backwards = SolvedSystem(["x12", "x9"])
    backwards.merge("x9", "x12")
    assert backwards.classes() == [["x12", "x9"]]
    assert backwards.rep("x9") == "x12"


def test_centralizer_of_M_is_U12():
    sys, reg = d4_setup()
    radical = radical_roots(sys, range(4, 13))
    gens = [
        nsigma_word(sys, reg),
        word(sys, reg, TorusValue(sys.cocharacter((1, 0, 1, 0)), "t")),
    ]
    rep = centralizer_system(gens, radical, reg)
    assert rep.solved.triangular
    assert rep.subgroup_description() == "U_12"
    assert any(str(p) == "x6^2" for p in rep.solved.forced)


def test_centralizer_of_M_opposite_radical():
    sys, reg = d4_setup()
    radical = radical_roots(sys, [-i for i in range(4, 13)])
    gens = [
        nsigma_word(sys, reg),
        word(sys, reg, TorusValue(sys.cocharacter((1, 0, 1, 0)), "t")),
    ]
    rep = centralizer_system(gens, radical, reg)
    assert rep.solved.triangular
    assert rep.subgroup_description() == "U_-12"


def test_centralizer_empty_generators():
    sys, reg = d4_setup()
    radical = radical_roots(sys, range(4, 13))
    rep = centralizer_system([], radical, reg)
    assert not rep.equations
    assert len(rep.free_roots()) == 9


@pytest.mark.parametrize("typ", ["a2", "a3", "d4"])
def test_conjugation_keeps_no_frame_or_torus_part(typ):
    """Why centralizer_system checks no frame map or torus part: for g of
    Weyl, graph, torus and root atoms, g u g^-1 normalizes to a tail alone."""
    sys = root_system(typ)
    reg = VariableRegistry()
    xs = [reg.add(n) for n in ("x", "y")]
    units = ("t", "v")
    for n in units:
        reg.add(n, UNIT)
    u = generic_radical_element(sys, reg, sys.positive_roots).as_word()
    rng = random.Random(55)

    def atom():
        k = rng.randrange(4)
        if k == 0:
            return WeylRep(rng.choice(sys.roots))
        if k == 1:
            return GraphAut(sys, rng.choice(list(sys.diagram_symmetries())))
        if k == 2:
            return TorusValue(sys.cocharacter([rng.randrange(-2, 3) for _ in range(sys.rank)]), rng.choice(units))
        return RootElement(rng.choice(sys.roots), rng.choice(xs))

    framed = 0
    for _ in range(100):
        g = word(sys, reg, *[atom() for _ in range(rng.randrange(1, 6))])
        ng = normalize(g)
        framed += not ng.frame_map.is_identity() or bool(ng.torus)
        n = normalize(g * u * g.inverse())
        assert n.frame_map.is_identity() and not n.torus
    assert framed > 50


def test_solved_system_merging_with_the_zero_class_zeroes_both_classes():
    solved = SolvedSystem(["x4", "x5", "x6", "x7"])
    solved.merge("x5", "x4")
    solved.merge(SolvedSystem.ZERO, "x7")
    solved.merge("x4", "x7")
    assert [solved.is_zero(v) for v in solved.unknowns] == [True, True, False, True]
    reg = VariableRegistry()
    for v in solved.unknowns:
        reg.add(v)
    assert solved.binding(reg) == dict.fromkeys(["x4", "x5", "x7"], reg.zero())
    assert solved.classes() == [["x4", "x5", "x7"]]


def test_centralizer_radical_instability_raises():
    sys, reg = a2_setup()
    radical = [sys.root_by_label(1)]  # {alpha} alone is not sigma-stable
    with pytest.raises(ValueError):
        centralizer_system([word(sys, reg, GraphAut(sys, "sigma"))], radical, reg)
    # e_-alpha(1) has no frame part, yet it moves u out of U_{alpha+beta}
    with pytest.raises(ValueError, match="did not return to the radical"):
        centralizer_system([word(sys, reg, e(sys, reg, -1, 1))], radical_roots(sys, [3]), reg)


def reference_centralizer_system(generators, radical, registry):
    """Two collections per conjugate: normalize g u g^-1 over the closure of
    its tail, then collect that again over the radical order."""
    u = generic_radical_element(radical[0].system, registry, radical)
    equations = []
    for g in generators:
        n = normalize(g * u.as_word() * g.inverse())
        assert n.tail is not None and set(n.tail.support) <= set(radical)
        conj = n.tail.reordered(radical)
        for r in radical:
            equations.extend((conj.coefficient(r) + u.coefficient(r)).split_by_units().values())
    return ConstraintSystem(registry, equations, radical)


def _centralizer_generators(sys, reg):
    """name -> (generators, whether the pushed tail of some g u g^-1 holds
    a Levi root and so leaves the radical)."""
    nsigma = nsigma_word(sys, reg)
    torus = word(sys, reg, TorusValue(sys.cocharacter((1, 0, 1, 0)), "t"))
    return {
        "none": ([], False),
        "nsigma": ([nsigma], False),
        "M": ([nsigma, torus], False),
        "e1": ([word(sys, reg, e(sys, reg, 1, "t"))], True),
        "e-2": ([word(sys, reg, e(sys, reg, -2, "y"))], True),
        "nsigma-e3": ([nsigma * word(sys, reg, e(sys, reg, 3, 1))], True),
        "M-and-e-1": ([nsigma, torus, word(sys, reg, e(sys, reg, -1, "s"), e(sys, reg, 2, "y"))], True),
    }


@pytest.mark.parametrize("name", ["none", "nsigma", "M", "e1", "e-2", "nsigma-e3", "M-and-e-1"])
@pytest.mark.parametrize("sign", [1, -1])
def test_centralizer_collected_once_matches_two_collections(name, sign):
    # a tail inside the radical is collected once, straight over its order;
    # one holding a Levi root leaves the radical and collects back into it
    sys, reg = d4_setup()
    radical = radical_roots(sys, [sign * i for i in range(4, 13)])
    gens, leaves = _centralizer_generators(sys, reg)[name]
    u = generic_radical_element(sys, reg, radical).as_word()
    tails = [chevalley._push(g * u * g.inverse())[2] for g in gens]
    assert any(not {a.root for a in tail} <= set(radical) for tail in tails) == leaves
    got = centralizer_system(gens, radical, reg)
    want = reference_centralizer_system(gens, radical, reg)
    assert got.equations == want.equations
    assert got.solved.classes() == want.solved.classes()
    assert got.linear_classes() == want.linear_classes()
    assert got.solved.forced == want.solved.forced and got.solved.residuals == want.solved.residuals
    assert got.subgroup_description() == want.subgroup_description()


# ---------------------------------------------------------------------------
# word equality edge cases


def test_nsigma_cubed_equals_product_of_three_reflections():
    sys, reg = d4_setup()
    ns = nsigma_word(sys, reg)
    lhs = ns * ns * ns
    rhs = word(sys, reg, WeylRep(sys.simple("a")), WeylRep(sys.simple("c")), WeylRep(sys.simple("d")))
    assert word_equal(lhs, rhs)
    assert not word_equal(lhs, word(sys, reg, WeylRep(sys.simple("a")), WeylRep(sys.simple("c"))))


def test_word_inverse_roundtrip():
    sys, reg = d4_setup()
    w = nsigma_word(sys, reg) * word(sys, reg, e(sys, reg, 12, "s"),
                                     TorusValue(sys.cocharacter((1, 2, 1, 1)), "t"))
    assert word_equal(w * w.inverse(), word(sys, reg))
    assert word_equal(w.inverse() * w, word(sys, reg))


def test_radical_equality_across_orders():
    sys, reg = d4_setup()
    x = reg.var("x4")
    a = collect([e(sys, reg, 12, "x4")], radical_roots(sys, range(4, 13)), reg)
    b = collect([e(sys, reg, 12, "x4")], [sys.root_by_label(12)], reg)
    assert a == b
    # incompatible ambient sets with incompatible supports compare unequal
    c = collect([e(sys, reg, -12, "x4")], [sys.root_by_label(-12)], reg)
    assert a != c
    assert not (a == c)


@pytest.mark.parametrize("typ,labels,seed", [("d4", range(1, 13), 53), ("a3", range(1, 7), 54)])
def test_radical_equality_across_a_graded_and_a_non_graded_order(typ, labels, seed):
    """Elements over different orders compare by the identity test: the same
    element collected over two orders is equal, one changed coefficient or
    another registry makes it unequal."""
    sys = root_system(typ)
    regs = [VariableRegistry(), VariableRegistry()]
    xs = [[reg.add(n) for n in ("x", "y", "z")] for reg in regs]
    rng = random.Random(seed)
    graded = default_order(sys, radical_roots(sys, labels))
    shuffled = list(graded)
    while is_graded(shuffled):
        rng.shuffle(shuffled)
    for _ in range(20):
        picks = [(sys.root_by_label(rng.choice(labels)), rng.randrange(3)) for _ in range(rng.randrange(1, 20))]

        def element(order, k=0):
            return collect([RootElement(r, xs[k][i]) for r, i in picks], order, regs[k])

        a, b = element(graded), element(shuffled)
        assert a.order != b.order and a == b
        r = rng.choice(shuffled)
        changed = RadicalElement(sys, regs[0], b.order, {**b.coeffs, r: b.coefficient(r) + regs[0].one()})
        assert a != changed
        assert a != element(shuffled, 1)


def test_radical_equality_needs_one_system_and_one_registry_on_both_paths():
    """Empty elements of different registries, or of different systems, are
    unequal over one order as over two."""
    d4, a2 = root_system("d4"), root_system("a2")
    r1, r2 = VariableRegistry(), VariableRegistry()
    pos = d4.positive_roots
    for order in (pos, pos[::-1]):
        assert RadicalElement(d4, r1, pos, {}) != RadicalElement(d4, r2, order, {})
        assert RadicalElement(d4, r1, pos, {}) == RadicalElement(d4, r1, order, {})
    assert RadicalElement(d4, r1, (), {}) != RadicalElement(a2, r1, (), {})


def test_torus_frames_accumulate():
    sys, reg = a2_setup()
    chi = sys.cocharacter((1, 1))
    w = word(sys, reg, TorusValue(chi, "t"), TorusValue(chi, "t"))
    n = normalize(w)
    assert n.torus == {"t": (2, 2)}
    w2 = word(sys, reg, TorusValue(sys.cocharacter((2, 2)), "t"))
    assert word_equal(w, w2)
    assert not word_equal(w, word(sys, reg, TorusValue(chi, "t")))


# ---------------------------------------------------------------------------
# word_equal on tails collected over different orders


def commutator(r1, r2, c):
    """e_r1(1) e_r2(c) e_r1(1) e_r2(c), which is e_{r1+r2}(c) in characteristic 2."""
    a, b = RootElement(r1, c.registry.one()), RootElement(r2, c)
    return [a, b, a, b]


@pytest.mark.parametrize("label, lhs, rhs", [
    ("d4", "e1(1)e4(x)e1(1)e4(x)e10(y)", "e5(x)e2(1)e7(y)e2(1)e7(y)"),
    ("a4", "e1(1)e2(x)e1(1)e2(x)e7(y)", "e5(x)e3(1)e4(y)e3(1)e4(y)"),
    ("a4", "e3(1)e4(x)e3(1)e4(x)e5(y)", "e7(x)e1(1)e2(y)e1(1)e2(y)"),
])
def test_word_equal_on_tails_collected_over_different_orders(label, lhs, rhs):
    # both sides are e_p(x) e_q(y) with p+q a root; each tail collects over
    # its own order, and the raw coefficients at p+q differ between them
    sys, reg = root_system(label), VariableRegistry()
    assert word_equal(parse_word(lhs, sys, reg), parse_word(rhs, sys, reg))
    assert not word_equal(parse_word(lhs, sys, reg), parse_word(rhs.replace("(x)", "(x+1)"), sys, reg))


def test_word_equal_on_every_d4_pair_of_commutator_spellings():
    # e_p(x) e_q(y) for positive p, q, p+q with p and q sums of two positive
    # roots: p spelled as a commutator on the left, q on the right
    sys, reg = root_system("d4"), VariableRegistry()
    x, y = reg.add("x"), reg.add("y")
    pos = sys.positive_roots
    splits = {r: [(a, b) for a, b in itertools.combinations(pos, 2) if a + b is r] for r in pos}
    cases = 0
    for p, q in itertools.permutations(pos, 2):
        if p + q is None:
            continue
        for (p1, p2), (q1, q2) in itertools.product(splits[p], splits[q]):
            lhs = word(sys, reg, *commutator(p1, p2, x), RootElement(q, y))
            rhs = word(sys, reg, RootElement(p, x), *commutator(q1, q2, y))
            perturbed = word(sys, reg, RootElement(p, x + reg.one()), *commutator(q1, q2, y))
            assert word_equal(lhs, rhs)
            assert not word_equal(lhs, perturbed)
            cases += 1
    assert cases == 12


# ---------------------------------------------------------------------------
# word_equal as the identity test w1 w2^-1 = 1


@pytest.mark.parametrize("text", [
    "e1(x)e-1(y)e-1(y)e1(x)",
    "e-1(y)e1(x)e1(x)e-1(y)",
    "e1(x)e-1(y)e-1(y)e-1(z)e-1(z)e1(x)",
])
def test_word_equal_decides_a_word_that_freely_reduces_to_1(text):
    # the tail holds alpha and -alpha, so it never collects; free reduction
    # in normalize empties it
    sys, reg = a2_setup()
    w = parse_word(text, sys, reg)
    assert word_equal(w, word(sys, reg))
    assert normalize(w).tail_atoms == ()
    assert not word_equal(w, parse_word("e1(x)", sys, reg))


@pytest.mark.parametrize("text", [
    "e1(x)e-1(y)",
    "n[a]e3(x)t[a+b](t)sigma e-2(y*s)",
    "sigma e1(x)e-3(y)n[b]e-1(z)e3(1)",
])
def test_identical_spellings_are_equal_as_the_identity_test_finds(text):
    # an e_r(0) factor changes the spelling and not the element, so the
    # padded word takes the full identity test, also when its tail does not
    # collect; the identical spelling must get the same answer
    sys, reg = a2_setup()
    w = parse_word(text, sys, reg)
    padded = parse_word(text + " e2(0)", sys, reg)
    assert padded.atoms != w.atoms
    assert word_equal(w, padded) and word_equal(padded, w)
    assert word_equal(w, parse_word(text, sys, reg))


def test_word_equal_meets_two_collected_tails_over_their_supports():
    # each side collects alone to e3(x), but together their atoms hold alpha
    # and -alpha; the quotient of the normal forms holds e3 only
    sys, reg = a2_setup()
    lhs = parse_word("e1(1)e2(x)e1(1)e2(x)", sys, reg)
    rhs = parse_word("e-1(1)e3(x)e-1(1)e2(x)", sys, reg)
    assert word_equal(lhs, rhs)
    assert not word_equal(lhs, parse_word("e-1(1)e3(x+1)e-1(1)e2(x)", sys, reg))


def test_word_equal_rejects_words_from_different_registries():
    sys, reg = a2_setup()
    with pytest.raises(ValueError):
        word_equal(word(sys, reg), word(sys, VariableRegistry()))
    # identically spelled words too: the spelling shortcut needs one system
    # and one registry, and frame atoms compare equal across registries
    with pytest.raises(ValueError):
        word_equal(parse_word("n[a]", sys, reg), parse_word("n[a]", sys, VariableRegistry()))
    with pytest.raises(ValueError):
        word_equal(word(sys, reg), word(root_system("a3"), reg))


def test_words_compare_as_group_elements():
    # == is word_equal on one system and registry, and False across either
    sys, reg = a2_setup()
    w = parse_word("e2(x)e1(y)", sys, reg)
    assert w == parse_word("e1(y)e2(x)e3(x*y)", sys, reg)
    assert w != parse_word("e1(y)e2(x)", sys, reg)
    assert word(sys, reg) != word(sys, VariableRegistry())
    assert word(sys, reg) != word(root_system("a3"), reg)
    assert w != repr(w)
    # identical spellings over two systems or two registries are still unequal
    a3 = root_system("a3")
    assert parse_word("n[a]e1(1)", sys, reg) != parse_word("n[a]e1(1)", a3, reg)
    assert parse_word("n[a]e1(1)", sys, reg) != parse_word("n[a]e1(1)", sys, VariableRegistry())


def test_the_tail_of_a_frame_only_word_knows_its_system():
    sys, reg = d4_setup()
    tail = normalize(word(sys, reg, WeylRep(sys.simple("a")))).tail
    assert tail.system is sys
    assert tail.coefficient(12).is_zero
    assert word_equal(tail.as_word() * word(sys, reg), word(sys, reg))


# ---------------------------------------------------------------------------
# normalize against the frame-by-frame push it replaced


def _reference_conjugate_inverse(atom, x):
    """f^-1 x f for a frame atom f and a root element x."""
    if isinstance(atom, TorusValue):
        p = pairing(x.root, atom.cochar)
        return RootElement(x.root, (x.coeff.registry.var(atom.unit) ** (-p)) * x.coeff)
    return RootElement(atom.map.inverse()(x.root), x.coeff)


def _reference_order(roots):
    """Ascending least grading with f(a+b) > max(f(a), f(b)), then height,
    then label order."""
    f = {r: 1 for r in roots}
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(roots, 2):
            c = a + b
            if c in f:
                v = max(f[a], f[b]) + 1
                if f[c] < v:
                    f[c] = v
                    changed = True
    return tuple(sorted(roots, key=lambda r: (f[r], r.height, r.index)))


def _reference_closure(roots):
    """Closure under root addition; None when a +-pair appears (not nilpotent)."""
    S = set(roots)
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(list(S), 2):
            c = a + b
            if c is not None and c not in S:
                S.add(c)
                changed = True
    if any(-r in S for r in S):
        return None
    return S


def reference_default_order(roots):
    """Close the set, then grade it: the two passes default_order folds into one."""
    S = _reference_closure(roots)
    return None if S is None else _reference_order(list(S))


@pytest.mark.parametrize("label", ["a1", "a2", "a3", "a4", "d4"])
def test_default_order_matches_closure_then_grading(label):
    # every set of at most 3 roots, then seeded random sets of up to 8; a set
    # whose closure holds a root and its negative has no order.  A shuffled
    # copy listing each root twice has the same order, cached or computed afresh
    sys = root_system(label)
    rng = random.Random(11)
    sets = [c for k in range(4) for c in itertools.combinations(sys.roots, k)]
    sets += [rng.sample(sys.roots, rng.randrange(1, min(8, len(sys.roots)) + 1)) for _ in range(300)]
    outcomes = set()
    for roots in sets:
        want = reference_default_order(roots)
        assert default_order(sys, roots) == want, [r.label for r in roots]
        twice = list(roots) * 2
        rng.shuffle(twice)
        assert default_order(sys, twice) == want, [r.label for r in twice]
        chevalley._default_order.cache_clear()
        assert default_order(sys, twice) == want, [r.label for r in twice]
        outcomes.add(want is None)
    assert outcomes == {True, False}


def _reference_free_reduction(tail):
    """Replace the first adjacent pair at one root by its merged atom, or by
    nothing when the coefficients cancel, until no such pair is left."""
    i = 0
    while i + 1 < len(tail):
        a, b = tail[i], tail[i + 1]
        if a.root is not b.root:
            i += 1
            continue
        c = a.coeff + b.coeff
        tail[i:i + 2] = [] if c.is_zero else [RootElement(a.root, c)]
        i = 0
    return tail


def reference_normalize(w):
    """Left to right: push the tail so far across each frame atom, then
    compose the frames in a second loop and freely reduce the tail.  Returns
    (frame_atoms, frame_map, torus, tail_atoms, collected tail or None)."""
    frames, tail = [], []
    for atom in w.atoms:
        if isinstance(atom, RootElement):
            if not atom.coeff.is_zero:
                tail.append(atom)
        else:
            frames.append(atom)
            tail = [_reference_conjugate_inverse(atom, x) for x in tail]
    tail = _reference_free_reduction(tail)
    frame_map = w.system.identity_map()
    torus = {}
    for atom in frames:
        if isinstance(atom, TorusValue):
            acc = torus.setdefault(atom.unit, [0] * w.system.rank)
            for i, c in enumerate(frame_map.act_cochar(atom.cochar).coeffs):
                acc[i] += c
        else:
            frame_map = frame_map.compose(atom.map)
    torus = {u: tuple(v) for u, v in torus.items() if any(v)}
    order = reference_default_order([x.root for x in tail])
    collected = None if order is None else collect(tail, order, w.registry)
    return tuple(frames), frame_map, torus, tuple(tail), collected


def _random_word(sys, reg, rng):
    graphs = [n for n in sys.diagram_symmetries() if n in ("sigma", "sigma2")]
    x, y, t, u = (reg.var(n) for n in "xytu")
    coeffs = [reg.zero(), reg.one(), x, y, x * y + reg.one(), t * x, u ** -1 * y]
    atoms = []
    for _ in range(rng.randrange(0, 11)):
        kind = rng.randrange(5)
        if kind <= 1:
            atoms.append(RootElement(rng.choice(sys.roots), rng.choice(coeffs)))
        elif kind == 2:
            atoms.append(WeylRep(rng.choice(sys.roots)))
        elif kind == 3:
            atoms.append(GraphAut(sys, rng.choice(graphs)))
        else:
            cochar = sys.cocharacter([rng.randrange(-2, 3) for _ in range(sys.rank)])
            atoms.append(TorusValue(cochar, rng.choice("tu")))
    return word(sys, reg, *atoms)


@pytest.mark.parametrize("label", ["d4", "a3", "a2"])
def test_normalize_matches_the_frame_by_frame_reference(label):
    sys = root_system(label)
    reg = VariableRegistry()
    reg.add("x")
    reg.add("y")
    reg.add("t", UNIT)
    reg.add("u", UNIT)
    rng = random.Random(1008)
    outcomes = set()
    merged = 0
    for _ in range(120):
        w = _random_word(sys, reg, rng)
        n = normalize(w)
        frames, frame_map, torus, tail_atoms, collected = reference_normalize(w)
        merged += len(tail_atoms) < sum(isinstance(a, RootElement) and not a.coeff.is_zero for a in w.atoms)
        frame_part = tuple(a for a in normalized_word(w).atoms if not isinstance(a, RootElement))
        assert frame_part == (() if frame_map.is_identity() and not torus else frames)
        assert n.frame_map == frame_map
        assert n.torus == torus
        assert n.tail_atoms == tail_atoms
        if collected is None:
            assert n.tail is None
        else:
            assert n.tail.order == collected.order
            assert list(n.tail.coeffs.items()) == list(collected.coeffs.items())
        outcomes.add((n.tail is not None, bool(n.torus), n.frame_map.is_identity()))
    assert {c for c, _, _ in outcomes} == {True, False}
    assert {t for _, t, _ in outcomes} == {True, False}
    assert merged  # free reduction shortened some tails


def test_root_elements_differing_in_one_field_are_unequal():
    sys, reg = d4_setup()
    r4, x4 = sys.root_by_label(4), reg.var("x4")
    assert RootElement(r4, x4) == RootElement(r4, x4)
    assert RootElement(r4, x4) != RootElement(sys.root_by_label(5), x4)
    assert RootElement(r4, x4) != RootElement(r4, reg.var("x5"))


def test_weyl_reps_of_different_roots_are_unequal():
    sys = root_system("d4")
    assert WeylRep(sys.simple("a")) == WeylRep(sys.simple("a"))
    assert WeylRep(sys.simple("a")) != WeylRep(sys.simple("b"))


def test_graph_automorphisms_with_different_diagram_maps_are_unequal():
    sys = root_system("d4")
    assert GraphAut(sys, "sigma") == GraphAut(sys, "sigma")
    assert GraphAut(sys, "sigma") != GraphAut(sys, "sigma2")


def test_torus_values_differing_in_one_field_are_unequal():
    sys = root_system("d4")
    chi = sys.cocharacter((1, 0, 1, 0))
    assert TorusValue(chi, "t") == TorusValue(chi, "t")
    assert TorusValue(chi, "t") != TorusValue(sys.cocharacter((0, 0, 1, 1)), "t")
    assert TorusValue(chi, "t") != TorusValue(chi, "u")
