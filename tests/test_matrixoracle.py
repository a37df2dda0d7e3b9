"""Matrix model invariants and engine-vs-oracle agreement on A2."""

import random

import pytest

from crlab import matrixoracle
from crlab.coeffring import UNIT, SQRT, VariableRegistry
from crlab.chevalley import (
    GraphAut,
    RootElement,
    TorusValue,
    WeylRep,
    adjoint,
    normalized_word,
    word,
    word_equal,
)
from crlab.matrixoracle import (
    GF,
    PolyRing,
    A2Matrix,
    enumerate_m_conjugacy,
    evaluate_word,
    exact_word,
    first_difference,
    identity,
    mat_inv,
    mat_mul,
)
from crlab.rootsys import root_system

from references import (
    lie_word,
    linear_matrix,
    m_group_elements,
    m_stabilizer,
    mat_det,
    pair_for_value,
    sigma_element,
    sigma_twist,
    times,
    torus_matrix,
    transvection,
    twisted_evaluate,
)


def setup():
    sys = root_system("a2")
    reg = VariableRegistry()
    for n in ("x", "y", "z"):
        reg.add(n)
    reg.add("t", UNIT)
    reg.add("s", SQRT)
    return sys, reg


def difference(lhs, rhs):
    """Where the two words differ as matrices over the polynomial ring."""
    return first_difference((exact_word(lhs), exact_word(rhs)))


def test_gf_arithmetic():
    for q in (2, 4, 16):
        gf = GF(q)
        for a in range(1, q):
            assert gf.mul(a, gf.inv(a)) == 1
        for a in range(q):
            for b in range(q):
                assert gf.mul(a, b) == gf.mul(b, a)
    gf = GF(4)
    assert gf.mul(2, 2) == 3  # u^2 = u + 1


def test_gf_pow_stops_squaring_at_the_top_bit(monkeypatch):
    gf = GF(16)
    products = []
    mul = GF.mul

    def counted(self, a, b):
        products.append(1)
        return mul(self, a, b)

    monkeypatch.setattr(GF, "mul", counted)
    counts = []
    for n in (1, 14):
        products.clear()
        gf.pow(3, n)
        counts.append(len(products))
    monkeypatch.undo()
    assert counts == [1, 6]  # 14 = q - 2 is the exponent of every GF(16).inv

    for a in range(16):
        power = 1
        for n in range(20):
            assert gf.pow(a, n) == power, (a, n)
            power = gf.mul(power, a)
    for a in range(1, 16):
        assert gf.pow(a, -3) == gf.inv(gf.mul(a, gf.mul(a, a)))
        assert gf.mul(gf.pow(a, -1), a) == 1


def test_mat_inverse():
    gf = GF(16)
    rng = random.Random(2)
    found = 0
    while found < 25:
        A = tuple(tuple(rng.randrange(16) for _ in range(3)) for _ in range(3))
        if mat_det(gf, A) == 0:
            continue
        found += 1
        assert mat_mul(gf, A, mat_inv(gf, A)) == identity(gf)
    # exact SL3 matrices of A2 words: root, Weyl, torus (negative powers) and sigma atoms
    sys, reg = setup()
    ring = PolyRing(reg)
    rng = random.Random(20)
    for _ in range(20):
        A = exact_word(random_a2_word(sys, reg, rng)).mat
        assert mat_det(ring, A) == ring.one()
        assert mat_mul(ring, A, mat_inv(ring, A)) == identity(ring)


def test_sigma_invariants():
    gf = GF(16)
    sig = sigma_element(gf)
    assert times(sig, sig) == A2Matrix(gf, identity(gf))
    for x in range(16):
        assert times(sig, transvection(gf, 1, x), sig) == transvection(gf, 2, x)
        assert times(sig, transvection(gf, -1, x), sig) == transvection(gf, -2, x)
        assert times(sig, transvection(gf, 3, x), sig) == transvection(gf, 3, x)
    # sigma fixes the image of (alpha+beta)^v pointwise
    for t in range(1, 16):
        tv = torus_matrix(gf, (1, 1), t)
        assert times(sig, tv, sig) == tv


def test_sl3_determinant_one():
    gf = GF(4)
    for g in m_group_elements(gf):
        assert mat_det(gf, g.mat) == 1
    assert len(m_group_elements(gf)) == 120


def test_oracle_sigma_conjugation_identity():
    sys, reg = setup()
    x, y, z = reg.var("x"), reg.var("y"), reg.var("z")
    sigma = word(sys, reg, GraphAut(sys, "sigma"))
    u = word(sys, reg, RootElement(sys.root_by_label(1), x),
             RootElement(sys.root_by_label(2), y),
             RootElement(sys.root_by_label(3), z))
    lhs = sigma * u * sigma.inverse()
    rhs = word(sys, reg, RootElement(sys.root_by_label(1), y),
               RootElement(sys.root_by_label(2), x),
               RootElement(sys.root_by_label(3), x * y + z))
    assert difference(lhs, rhs) is None


def test_oracle_curve_identity():
    sys, reg = setup()
    x = reg.var("x")
    v = word(sys, reg, RootElement(sys.root_by_label(1), x),
             RootElement(sys.root_by_label(2), x))
    sigma = word(sys, reg, GraphAut(sys, "sigma"))
    lhs = v * sigma * v.inverse()
    rhs = sigma * word(sys, reg, RootElement(sys.root_by_label(3), x * x))
    assert difference(lhs, rhs) is None


def test_oracle_trivial_identity():
    sys, reg = setup()
    assert difference(word(sys, reg), word(sys, reg)) is None


def test_oracle_detects_wrong_identity():
    sys, reg = setup()
    x = reg.var("x")
    lhs = word(sys, reg, RootElement(sys.root_by_label(1), x))
    rhs = word(sys, reg, RootElement(sys.root_by_label(2), x))
    # e1(x) = I + xE12 and e2(x) = I + xE23 differ first at row 0, column 1
    assert difference(lhs, rhs) == (0, (0, 1))


def test_oracle_rejects_non_a2():
    d4 = root_system("d4")
    reg = VariableRegistry()
    w = word(d4, reg)
    with pytest.raises(ValueError):
        exact_word(w)


def random_a2_word(sys, reg, rng, max_len=8):
    atoms = []
    # pick an orientation so the unipotent support can stay nilpotent
    sign = rng.choice((1, -1))
    names = ["x", "y", "z"]
    for _ in range(rng.randrange(0, max_len + 1)):
        kind = rng.randrange(4)
        if kind == 0:
            coeff = reg.var(rng.choice(names))
            if rng.randrange(2):
                coeff = coeff * reg.var(rng.choice(names)) + reg.one()
            atoms.append(RootElement(sys.root_by_label(sign * rng.randrange(1, 4)), coeff))
        elif kind == 1:
            atoms.append(WeylRep(sys.root_by_label(rng.randrange(1, 4))))
        elif kind == 2:
            atoms.append(GraphAut(sys, "sigma"))
        else:
            atoms.append(TorusValue(sys.cocharacter((rng.randrange(-2, 3), rng.randrange(-2, 3))), "t"))
    return word(sys, reg, *atoms)


def test_engine_normal_form_agrees_with_matrices():
    sys, reg = setup()
    rng = random.Random(2024)
    for _ in range(200):
        w = random_a2_word(sys, reg, rng)
        assert exact_word(w) == exact_word(normalized_word(w))


def random_point(rng):
    return {"x": rng.randrange(16), "y": rng.randrange(16), "z": rng.randrange(16),
            "s": rng.randrange(16), "t": rng.randrange(1, 16)}


def specialize(exact, point, gf):
    return tuple(tuple(e.evaluate(point, gf) for e in row) for row in exact.mat)


def test_exact_word_specializes_to_the_f16_evaluation():
    sys, reg = setup()
    rng = random.Random(1612)
    gf = GF(16)
    for _ in range(200):
        w = random_a2_word(sys, reg, rng)
        exact = exact_word(w)
        for _ in range(8):
            point = random_point(rng)
            numeric = evaluate_word(w, point, gf)
            assert specialize(exact, point, gf) == numeric.mat
            assert exact.flag == numeric.flag


def test_relabeling_evaluator_agrees_with_the_twisted_group_law():
    # 2,000 seeded words of up to 15 atoms and their normal forms at an F16
    # point, then 300 words over the polynomial ring
    sys, reg = setup()
    rng = random.Random(27)
    gf = GF(16)
    for _ in range(2000):
        w = random_a2_word(sys, reg, rng, max_len=15)
        point = random_point(rng)
        for v in (w, normalized_word(w)):
            assert evaluate_word(v, point, gf) == twisted_evaluate(v, point, gf), v
    ring = PolyRing(reg)
    for _ in range(300):
        w = random_a2_word(sys, reg, rng, max_len=15)
        assert exact_word(w) == twisted_evaluate(w, ring.generic_point(), ring), w


def test_exact_word_skips_the_identity_diagram_atom():
    sys, reg = setup()
    u = word(sys, reg, RootElement(sys.root_by_label(1), reg.var("x")))
    ident = word(sys, reg, GraphAut(sys, "id"))
    assert exact_word(ident * u * ident) == exact_word(u)


def test_a_sigma_atom_costs_no_matrix_product(monkeypatch):
    # sigma flips the flag and relabels the atoms after it, so no matrix is twisted:
    # one factor per root element and torus value, three per n_r = e_r(1) e_-r(1) e_r(1),
    # and the product starts from the first factor, so six factors cost five products
    sys, reg = setup()
    x, y = reg.var("x"), reg.var("y")
    atoms = [RootElement(sys.root_by_label(1), x), GraphAut(sys, "sigma"), WeylRep(sys.root_by_label(1)),
             TorusValue(sys.cocharacter((2, -1)), "t"), GraphAut(sys, "sigma"), GraphAut(sys, "sigma"),
             RootElement(sys.root_by_label(-2), y), GraphAut(sys, "id")]
    w = word(sys, reg, *atoms)
    calls = {"mat_mul": 0, "mat_inv": 0}

    def counted(name):
        inner = getattr(matrixoracle, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(matrixoracle, name, counted(name))
    got = exact_word(w)
    monkeypatch.undo()
    assert calls == {"mat_mul": 1 + 3 + 1 + 1 - 1, "mat_inv": 0}
    ring = PolyRing(reg)
    assert got == twisted_evaluate(w, ring.generic_point(), ring)


def test_exact_oracle_rejects_near_miss_identities():
    sys, reg = setup()
    x, y, z = reg.var("x"), reg.var("y"), reg.var("z")
    e1, e2, e3 = (sys.root_by_label(i) for i in (1, 2, 3))
    sigma = word(sys, reg, GraphAut(sys, "sigma"))
    lhs = sigma * word(sys, reg, RootElement(e1, x), RootElement(e2, y), RootElement(e3, z)) * sigma.inverse()
    assert difference(lhs, word(sys, reg, RootElement(e1, y), RootElement(e2, x),
                                RootElement(e3, x * y + z))) is None
    # x*y dropped from the e3 coefficient: only the corner entry differs
    assert difference(lhs, word(sys, reg, RootElement(e1, y), RootElement(e2, x),
                                RootElement(e3, z))) == (0, (0, 2))
    # e1 and e2 swapped: e2(y)e1(x) puts x, not y, in row 0, column 1
    assert difference(lhs, word(sys, reg, RootElement(e2, y), RootElement(e1, x),
                                RootElement(e3, x * y + z))) == (0, (0, 1))
    assert difference(lhs, word(sys, reg, RootElement(e1, x), RootElement(e2, y),
                                RootElement(e3, x * y + z))) == (0, (0, 1))
    # e3(x) in place of e3(x^2) in the curve identity
    v = word(sys, reg, RootElement(e1, x), RootElement(e2, x))
    curve = v * sigma * v.inverse()
    assert difference(curve, sigma * word(sys, reg, RootElement(e3, x * x))) is None
    assert difference(curve, sigma * word(sys, reg, RootElement(e3, x))) == (0, (0, 2))
    # a constant coefficient is not the identity
    assert difference(word(sys, reg, RootElement(e3, reg.one())), word(sys, reg)) == (0, (0, 2))
    # the sigma flag is compared before any entry
    assert difference(sigma * word(sys, reg, RootElement(e1, x)), word(sys, reg)) == (0, "sigma")


def test_exact_oracle_decides_the_uncollected_tail():
    # e-1(y)^2 = 1 and then e1(x)^2 = 1 in characteristic 2
    sys, reg = setup()
    x, y = reg.var("x"), reg.var("y")
    e1, em1 = sys.root_by_label(1), sys.root_by_label(-1)
    w = word(sys, reg, RootElement(e1, x), RootElement(em1, y), RootElement(em1, y), RootElement(e1, x))
    assert difference(w, word(sys, reg)) is None


def _random_a2_atoms(sys, reg, rng, n, frames=True):
    x, y, z, t = (reg.var(v) for v in "xyzt")
    coeffs = [reg.one(), x, y, z, x * y + reg.one(), t * x]
    atoms = []
    for _ in range(n):
        kind = rng.randrange(8) if frames else 0
        if kind <= 4:
            atoms.append(RootElement(rng.choice(sys.roots), rng.choice(coeffs)))
        elif kind == 5:
            atoms.append(WeylRep(rng.choice(sys.positive_roots)))
        elif kind == 6:
            atoms.append(TorusValue(sys.cocharacter([rng.randrange(-2, 3) for _ in range(2)]), "t"))
        else:
            atoms.append(GraphAut(sys, "sigma"))
    return atoms


def _with_g_g_inverse_inserted(sys, reg, rng):
    w = _random_a2_atoms(sys, reg, rng, rng.randrange(1, 7))
    g = word(sys, reg, *_random_a2_atoms(sys, reg, rng, rng.randrange(1, 4)))
    i = rng.randrange(len(w) + 1)
    return word(sys, reg, *w), word(sys, reg, *w[:i], *(g * g.inverse()).atoms, *w[i:])


def _with_one_adjacent_pair_reshuffled(sys, reg, rng):
    """e_a(x) e_b(y) -> e_b(y) e_a(x) e_{a+b}(xy), the last factor only when
    a+b is a root; None when no adjacent pair has a != +-b."""
    w = _random_a2_atoms(sys, reg, rng, rng.randrange(2, 7), frames=False)
    spots = [i for i in range(len(w) - 1) if w[i].root not in (w[i + 1].root, -w[i + 1].root)]
    if not spots:
        return None
    i = rng.choice(spots)
    a, b = w[i], w[i + 1]
    c = a.root + b.root
    shuffled = w[:i] + [b, a] + ([RootElement(c, a.coeff * b.coeff)] if c is not None else []) + w[i + 2:]
    return word(sys, reg, *w), word(sys, reg, *shuffled)


@pytest.mark.parametrize("family", [_with_g_g_inverse_inserted, _with_one_adjacent_pair_reshuffled])
def test_word_equal_is_sound_against_the_exact_oracle(family):
    # each equal pair also yields an unequal one: one coefficient c of the
    # second word becomes c+1, which multiplies in a factor e_r(1) != 1
    sys, reg = setup()
    rng = random.Random(18)
    decided = equal = 0
    for _ in range(200):
        pair = family(sys, reg, rng)
        if pair is None:
            continue
        w1, w2 = pair
        atoms = list(w2.atoms)
        i = next((i for i, a in enumerate(atoms) if isinstance(a, RootElement)), None)
        cases = [(w1, w2, True)]
        if i is not None:
            atoms[i] = RootElement(atoms[i].root, atoms[i].coeff + reg.one())
            cases.append((w1, word(sys, reg, *atoms), False))
        for lhs, rhs, same in cases:
            assert (difference(lhs, rhs) is None) == same
            got = word_equal(lhs, rhs)
            assert not got or same, (lhs, rhs)
            equal += same
            decided += got
    assert equal > 100
    if family is _with_g_g_inverse_inserted:
        assert decided == equal


def test_exact_oracle_with_sqrt_constant_and_negative_torus_power():
    sys, reg = setup()
    s, t = reg.var("s"), reg.var("t")
    e1 = sys.root_by_label(1)
    h = word(sys, reg, TorusValue(sys.cocharacter((-2, 0)), "t"))  # diag(t^-2, t^2, 1)
    diag = tuple(exact_word(h).mat[i][i] for i in range(3))
    assert diag == (t ** -2, t ** 2, reg.one())
    assert PolyRing(reg).inv(t ** 2) == t ** -2
    lhs = h * word(sys, reg, RootElement(e1, s)) * h.inverse()
    assert difference(lhs, word(sys, reg, RootElement(e1, t ** -4 * s))) is None
    assert difference(lhs, word(sys, reg, RootElement(e1, t ** 4 * s))) == (0, (0, 1))
    rng = random.Random(5)
    gf = GF(16)
    exact = exact_word(lhs)
    for _ in range(8):
        point = random_point(rng)
        assert specialize(exact, point, gf) == evaluate_word(lhs, point, gf).mat


def test_inverse_of_every_m_element():
    gf = GF(4)
    one = A2Matrix(gf, identity(gf))
    for g in m_group_elements(gf):
        assert times(g, g.inverse()) == one
        assert times(g.inverse(), g) == one


def random_borel_word(sys, reg, rng, max_len):
    """A word of B x <sigma>: positive root elements, torus values and sigma,
    each of which normalizes U = <e1, e2, e3>."""
    atoms = []
    names = ["x", "y", "z"]
    for _ in range(rng.randrange(0, max_len + 1)):
        kind = rng.randrange(3)
        if kind == 0:
            coeff = reg.var(rng.choice(names))
            if rng.randrange(2):
                coeff = coeff * reg.var(rng.choice(names)) + reg.one()
            atoms.append(RootElement(sys.root_by_label(rng.randrange(1, 4)), coeff))
        elif kind == 1:
            atoms.append(GraphAut(sys, "sigma"))
        else:
            atoms.append(TorusValue(sys.cocharacter((rng.randrange(-2, 3), rng.randrange(-2, 3))), "t"))
    return word(sys, reg, *atoms)


def test_engine_adjoint_agrees_with_matrix_adjoint():
    sys, reg = setup()
    rng = random.Random(99)
    positive = [sys.root_by_label(i) for i in (1, 2, 3)]
    coeffs = [reg.zero(), reg.one(), reg.var("x"), reg.var("y"), reg.var("z") * reg.var("t")]
    for _ in range(150):
        w = random_borel_word(sys, reg, rng, max_len=5)
        v = {r: c for r in positive if (c := rng.choice(coeffs))}
        u = lie_word(sys, reg, v)
        assert linear_matrix(lie_word(sys, reg, adjoint(w, v))) == linear_matrix(w * u * w.inverse())


def test_enumerate_m_conjugacy_f4_is_singletons():
    classes = enumerate_m_conjugacy(4, list(range(4)))
    assert sorted(classes) == [[0], [1], [2], [3]]


def test_enumerate_m_conjugacy_f2():
    classes = enumerate_m_conjugacy(2, [0, 1])
    assert sorted(classes) == [[0], [1]]


def test_enumerate_single_value():
    assert enumerate_m_conjugacy(4, [0]) == [[0]]


def brute_force_m_conjugacy(q, values):
    """Reference partition: first-fit search over every element of M."""
    gf = GF(q)
    group = m_group_elements(gf)
    pairs = {x: pair_for_value(gf, x) for x in values}
    classes = []
    for x in values:
        for cls in classes:
            target = pairs[cls[0]]
            if any((times(m, pairs[x][0], m.inverse()), times(m, pairs[x][1], m.inverse())) == target
                   for m in group):
                cls.append(x)
                break
        else:
            classes.append([x])
    return classes


@pytest.mark.parametrize("q", [2, 4])
def test_m_stabilizer_is_centralizer_of_m2(q):
    gf = GF(q)
    m2 = transvection(gf, 3, 1)
    brute = {g for g in m_group_elements(gf) if times(g, m2, g.inverse()) == m2}
    stab = m_stabilizer(gf)
    assert len(stab) == len(set(stab)) == 2 * q
    assert set(stab) == brute


def test_m_stabilizer_f16_is_a_centralizing_subgroup():
    gf = GF(16)
    m2 = transvection(gf, 3, 1)
    stab = set(m_stabilizer(gf))
    assert len(stab) == 32
    assert all(times(g, m2, g.inverse()) == m2 for g in stab)
    assert all(times(g, h) in stab for g in stab for h in stab)


@pytest.mark.parametrize("q, values", [
    (2, [0, 1]), (2, [1, 0]), (2, [1, 0, 1]),
    (4, [0, 1, 2, 3]), (4, [3, 2, 1, 0]), (4, [3, 0, 3, 1]),
])
def test_enumerate_m_conjugacy_matches_brute_force(q, values):
    assert enumerate_m_conjugacy(q, values) == brute_force_m_conjugacy(q, values)


def test_enumerate_m_conjugacy_keeps_first_member_order():
    assert enumerate_m_conjugacy(4, [3, 0, 3, 1]) == [[3, 3], [0], [1]]


def test_enumerate_m_conjugacy_f16_is_singletons():
    assert enumerate_m_conjugacy(16, range(16)) == [[x] for x in range(16)]


def test_the_literal_twist_is_an_involutive_automorphism():
    gf = GF(16)
    rng = random.Random(16)
    mats = []
    for _ in range(40):
        A = identity(gf)
        for _ in range(rng.randrange(1, 8)):
            A = mat_mul(gf, A, transvection(gf, rng.choice((1, 2, 3, -1, -2, -3)), rng.randrange(16)).mat)
        mats.append(A)
        assert sigma_twist(gf, sigma_twist(gf, A)) == A
    for A, B in zip(mats, mats[1:]):
        assert sigma_twist(gf, mat_mul(gf, A, B)) == mat_mul(gf, sigma_twist(gf, A), sigma_twist(gf, B))
    with pytest.raises(ZeroDivisionError):
        sigma_twist(gf, ((1, 2, 3), (2, 4, 6), (0, 0, 1)))


@pytest.mark.parametrize("over", ["F16", "PolyRing"])
def test_sigma_relabeling_is_the_literal_j_twist(over):
    # the evaluator's relabeling table against J (A^T)^-1 J, generator by generator
    sys, reg = setup()
    if over == "F16":
        ring = GF(16)
        points = [{"x": x, "t": t} for x in range(16) for t in (1, 2, 7, 15)]
    else:
        ring = PolyRing(reg)
        points = [ring.generic_point()]
    x = reg.var("x")
    atoms = [RootElement(sys.root_by_label(label), x) for label in (1, 2, 3, -1, -2, -3)]
    atoms += [TorusValue(sys.cocharacter(c), "t") for c in ((1, 0), (0, 1), (2, -1))]
    atoms += [WeylRep(sys.root_by_label(label)) for label in (1, 2, 3)]
    sigma = word(sys, reg, GraphAut(sys, "sigma"))
    for atom in atoms:
        w = word(sys, reg, atom)
        for p in points:
            plain = evaluate_word(w, p, ring)
            assert plain.flag == 0
            assert evaluate_word(sigma * w * sigma, p, ring) == A2Matrix(ring, sigma_twist(ring, plain.mat)), atom


def test_first_difference_names_the_first_unequal_pair():
    sys, reg = setup()
    x = reg.var("x")
    e1 = exact_word(word(sys, reg, RootElement(sys.root_by_label(1), x)))
    em1 = exact_word(word(sys, reg, RootElement(sys.root_by_label(-1), x)))
    one = exact_word(word(sys, reg))
    assert first_difference() is None
    assert first_difference((e1, e1), (one, one)) is None
    # e-1(x) = I + xE21: row 0 agrees with the identity, row 1 does not
    assert first_difference((e1, e1), (em1, one), (e1, one)) == (1, (1, 0))
