"""Root arithmetic tests, cross-checked against an independent Euclidean model.

The oracle realizes A_n roots as e_i - e_j in R^(n+1) and D4 roots as
+-e_i +- e_j in R^4, with reflections done by the Euclidean formula.  The
package under test never sees these coordinates.
"""

import itertools
import random

import pytest

from crlab.rootsys import (
    SYSTEMS,
    Cocharacter,
    compose_word,
    extends_to_ambient,
    fixed_cocharacter_lattice,
    label_cycles,
    longest_element,
    minus_one_realization,
    pairing,
    root_system,
    row_reduce,
    subsystem_roots,
    verify_w0_identities,
)

from references import cartan_pairing, generated_longest_element, scanned_extension


# ---------------------------------------------------------------------------
# Euclidean oracle


def euclid_simples(label):
    if label.startswith("A"):
        n = int(label[1])
        dim = n + 1
        return [tuple(1 if k == i else (-1 if k == i + 1 else 0) for k in range(dim)) for i in range(n)]
    # D4: alpha=e1-e2, beta=e2-e3, gamma=e3-e4, delta=e3+e4
    return [
        (1, -1, 0, 0),
        (0, 1, -1, 0),
        (0, 0, 1, -1),
        (0, 0, 1, 1),
    ]


def to_euclid(label, coeffs):
    simples = euclid_simples(label)
    dim = len(simples[0])
    return tuple(sum(c * s[k] for c, s in zip(coeffs, simples)) for k in range(dim))


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def euclid_reflect(xi, zeta):
    factor = 2 * dot(zeta, xi) // dot(xi, xi)
    return tuple(z - factor * x for z, x in zip(zeta, xi))


def reference_positive_roots(cartan):
    """Positive roots by closing the simple roots under the simple
    reflections, ordered by height, first nonzero index, then descending
    coefficients."""
    rank = len(cartan)
    simples = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    all_roots = set(simples) | {tuple(-x for x in s) for s in simples}
    frontier = list(all_roots)
    while frontier:
        nxt = []
        for c in frontier:
            for j in range(rank):
                p = sum(c[i] * cartan[i][j] for i in range(rank))
                img = tuple(c[i] - (p if i == j else 0) for i in range(rank))
                if img not in all_roots:
                    all_roots.add(img)
                    nxt.append(img)
        frontier = nxt
    positives = [c for c in all_roots if sum(c) > 0]
    positives.sort(key=lambda c: (sum(c), next(i for i, x in enumerate(c) if x), tuple(-x for x in c)))
    return positives


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4"])
def test_positive_roots_match_the_reflection_closure(label):
    sys = root_system(label)
    assert [r.coeffs for r in sys.positive_roots] == reference_positive_roots(sys.cartan)


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "D4"])
def test_counts_and_negation_closure(label):
    sys = root_system(label)
    n = {"A2": 6, "A3": 12, "A4": 20, "D4": 24}[label]
    assert len(sys.roots) == n
    for r in sys.roots:
        assert -(-r) == r
        signs = {1 if c > 0 else (-1 if c < 0 else 0) for c in r.coeffs}
        assert signs <= {0, 1} or signs <= {0, -1}


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "D4"])
def test_reflect_matches_euclidean_oracle(label):
    sys = root_system(label)
    for xi in sys.roots:
        for zeta in sys.roots:
            got = sys.reflection(xi)(zeta)
            want = euclid_reflect(to_euclid(label, xi.coeffs), to_euclid(label, zeta.coeffs))
            assert to_euclid(label, got.coeffs) == want


@pytest.mark.parametrize("label", ["A2", "A3", "D4"])
def test_pairing_matches_euclidean_oracle(label):
    sys = root_system(label)
    for zeta in sys.roots:
        for xi in sys.roots:
            got = pairing(zeta, sys.coroot(xi))
            ez, ex = to_euclid(label, zeta.coeffs), to_euclid(label, xi.coeffs)
            assert got == 2 * dot(ez, ex) // dot(ex, ex)


def d4():
    return root_system("d4")


def lam_d4():
    return d4().cocharacter((1, 2, 1, 1))  # (alpha+2beta+gamma+delta)^v


def test_d4_label_table():
    sys = d4()
    a, b, c, dd = sys.simple_roots
    assert sys.root_by_label(1) == a
    assert sys.root_by_label(2) == c
    assert sys.root_by_label(3) == dd
    assert sys.root_by_label(4) == b
    assert sys.root_by_label(12).coeffs == (1, 2, 1, 1)
    assert sys.root_by_label(-12) == -sys.root_by_label(12)


def test_d4_labels_5_to_11_brute_force_assignment():
    # Brute force: labels 5..11 over the seven non-simple, non-highest
    # positive roots, constrained by the label cycle of n_alpha*sigma.
    # The cycle pins everything except the 2-cycle (6 9), which is symmetric
    # under swapping the two labels; the x9^2 term of the big
    # nine-coefficient collection breaks the tie (tests/test_chevalley.py),
    # matching the root table used here.
    sys = d4()
    nsigma = compose_word(sys, ["a", "sigma"])
    fixed = {i: sys.root_by_label(i) for i in (1, 2, 3, 4, 12)}
    middle = [
        r
        for r in sys.positive_roots
        if r not in set(fixed.values())
    ]
    assert len(middle) == 7
    target = {4: 5, 5: 8, 8: 11, 11: 10, 10: 7, 7: 4, 6: 9, 9: 6, 12: 12}
    solutions = []
    for perm in itertools.permutations(middle):
        table = dict(fixed)
        table.update({i + 5: r for i, r in enumerate(perm)})
        inv = {r: i for i, r in table.items()}
        if all(inv[nsigma(table[i])] == target[i] for i in range(4, 13)):
            solutions.append({i: table[i].coeffs for i in range(5, 12)})
    chosen = {
        5: (1, 1, 0, 0),
        6: (0, 1, 1, 0),
        7: (0, 1, 0, 1),
        8: (1, 1, 1, 0),
        9: (1, 1, 0, 1),
        10: (0, 1, 1, 1),
        11: (1, 1, 1, 1),
    }
    swapped = dict(chosen)
    swapped[6], swapped[9] = chosen[9], chosen[6]
    assert sorted(solutions, key=str) == sorted([chosen, swapped], key=str)
    assert all(sys.root_by_label(i).coeffs == chosen[i] for i in range(5, 12))


def test_pairing_key_values():
    sys = d4()
    assert pairing(sys.root_by_label(12), sys.cocharacter((1, 0, 1, 0))) == 0
    alpha = sys.simple("a")
    assert pairing(alpha, sys.coroot(alpha)) == 2
    assert pairing(sys.simple("b"), lam_d4()) == 1


@pytest.mark.parametrize("label", SYSTEMS)
def test_pairing_matches_the_cartan_double_sum(label):
    # every root against every cocharacter with coefficients in -2..2
    sys = root_system(label)
    for coeffs in itertools.product(range(-2, 3), repeat=sys.rank):
        chi = sys.cocharacter(coeffs)
        for zeta in sys.roots:
            assert pairing(zeta, chi) == cartan_pairing(zeta, chi), (zeta, chi)


def test_pairing_rejects_foreign_root():
    with pytest.raises(ValueError):
        pairing(root_system("a2").simple_roots[0], d4().cocharacter((1, 0, 1, 0)))


def test_reflect_examples():
    sys = d4()
    alpha, beta = sys.simple("a"), sys.simple("b")
    assert sys.reflection(alpha)(alpha) == -alpha
    bd = sys.root((0, 1, 0, 1))
    assert sys.reflection(alpha)(bd) == sys.root((1, 1, 0, 1))
    assert sys.reflection(beta)(alpha) == sys.root((1, 1, 0, 0))


def test_reflect_is_involution_everywhere():
    sys = d4()
    for xi in sys.roots:
        for zeta in sys.roots:
            s = xi.system.reflection(xi)
            assert s(s(zeta)) == zeta


@pytest.mark.parametrize("label", SYSTEMS)
def test_every_reflection_and_weyl_diagram_map_is_a_signed_permutation_preserving_the_pairing(label):
    sys = root_system(label)
    n, n2 = sys.n_pos, 2 * sys.n_pos
    coroots = [sys.cocharacter(tuple(int(k == j) for k in range(sys.rank))) for j in range(sys.rank)]
    for m in [sys.reflection(r) for r in sys.roots] + list(sys.weyl_and_diagram_elements()):
        assert sorted(m.images) == list(range(n2))
        assert all(m.images[i + n] == (m.images[i] + n) % n2 for i in range(n))
        moved = [m.act_cochar(chi) for chi in coroots]
        for root in sys.positive_roots:
            assert all(pairing(m(root), mchi) == pairing(root, chi) for chi, mchi in zip(coroots, moved))


def test_sigma_action():
    sys = d4()
    sigma = sys.diagram_symmetries()["sigma"]
    assert sigma(sys.simple("a")) is sys.simple("c")
    assert sigma(sys.simple("c")) is sys.simple("d")
    assert sigma(sys.simple("d")) is sys.simple("a")
    assert sigma(sys.simple("b")) is sys.simple("b")
    assert sigma(sys.root_by_label(12)) is sys.root_by_label(12)


def test_nsigma_label_permutation_is_the_fixed_cycle():
    sys = d4()
    m = compose_word(sys, ["a", "sigma"])
    images = {i: m(sys.root_by_label(i)).label for i in range(4, 13)}
    assert label_cycles(images) == "(4 5 8 11 10 7)(6 9)(12)"


def test_weyl_act_orbit_stays_inside_roots():
    sys = d4()
    rng = random.Random(7)
    tokens = ["a", "b", "c", "d", "sigma"]
    for _ in range(200):
        word = [rng.choice(tokens) for _ in range(rng.randrange(0, 9))]
        zeta = rng.choice(sys.roots)
        img = compose_word(sys, word)(zeta)
        assert img in sys.roots


def test_weyl_act_empty_word_is_identity():
    sys = d4()
    for r in sys.roots:
        assert compose_word(sys, [])(r) is r


def test_pairing_is_weyl_invariant():
    sys = d4()
    rng = random.Random(11)
    for _ in range(100):
        word = [rng.choice(["a", "b", "c", "d", "sigma"]) for _ in range(rng.randrange(1, 7))]
        m = compose_word(sys, word)
        zeta = rng.choice(sys.roots)
        chi = sys.cocharacter([rng.randrange(-3, 4) for _ in range(4)])
        assert pairing(m(zeta), m.act_cochar(chi)) == pairing(zeta, chi)


LONGEST_WORD_D4 = ["a", "b", "a", "c", "b", "a", "d", "b", "a", "c", "b", "d"]


def test_longest_element_d4_is_minus_one_and_matches_word():
    sys = d4()
    w0 = longest_element(sys, sys.simple_roots)
    assert all(w0(r) == -r for r in sys.roots)
    assert compose_word(sys, LONGEST_WORD_D4) == w0
    pos = set(sys.positive_roots)
    assert {w0(r) for r in pos} == {-r for r in pos}


def test_longest_element_rank_one_and_empty():
    sys = d4()
    alpha = sys.simple("a")
    assert longest_element(sys, [alpha]) == sys.reflection(alpha)
    assert longest_element(sys, []).is_identity()


@pytest.mark.parametrize("label", SYSTEMS)
def test_longest_element_matches_the_generated_subgroup(label):
    # every subset of the simple roots: 46 over A1..A4 and D4
    sys = root_system(label)
    for k in range(sys.rank + 1):
        for simples in itertools.combinations(sys.simple_roots, k):
            assert longest_element(sys, simples) == generated_longest_element(sys, simples)


def test_no_map_sends_11_to_minus_12_and_2_to_minus_2():
    # exhaustive over all 1152 candidates: the image pair (-12, -2) for the
    # roots (11, 2) is unrealizable, so any table recording it is in error;
    # the longest element realizes (-11, -2)
    sys = d4()
    r11, r2 = sys.root_by_label(11), sys.root_by_label(2)
    t11, t2 = sys.root_by_label(-12), sys.root_by_label(-2)
    assert not any(
        m(r11) == t11 and m(r2) == t2 for m in sys.weyl_and_diagram_elements()
    )
    w0 = longest_element(sys, sys.simple_roots)
    assert w0.inverse()(r11).label == -11
    assert w0.inverse()(r2).label == -2


def test_weyl_group_orders():
    assert len(root_system("a2").weyl_elements()) == 6
    assert len(root_system("a3").weyl_elements()) == 24
    assert len(d4().weyl_elements()) == 192
    assert len(d4().weyl_and_diagram_elements()) == 1152


def test_minus_one_realization_a1_cubed_in_d4():
    sys = d4()
    L = [sys.simple("a"), sys.simple("c"), sys.simple("d")]
    w0, sigma_l = minus_one_realization(sys, L)
    assert sigma_l is None
    assert all(w0(r) == -r for r in subsystem_roots(sys, L))


def test_minus_one_realization_a2_in_a3():
    sys = root_system("a3")
    L = [sys.simple("a"), sys.simple("b")]
    w0, sigma_l = minus_one_realization(sys, L)
    assert sigma_l is not None
    sub = subsystem_roots(sys, L)
    composite = w0.compose(sigma_l)
    assert all(composite(r) == -r for r in sub)
    # the realization agrees with the word n_b n_a n_b followed by the swap
    word_map = compose_word(sys, ["b", "a", "b"]).compose(sigma_l)
    assert all(word_map(r) == -r for r in sub)
    # sigma_l restricted to the subsystem swaps alpha and beta
    assert sigma_l(sys.simple("a")) == sys.simple("b")
    assert sigma_l(sys.simple("b")) == sys.simple("a")


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "D4"])
def test_minus_one_realization_on_every_simple_subset(label):
    """sigma_L = w0^-1 o (-1) permutes the Levi simples, and w0 o sigma_L
    (w0 alone when sigma_L is None) is -1 on the subsystem."""
    sys = root_system(label)
    for k in range(sys.rank + 1):
        for simples in itertools.combinations(sys.simple_roots, k):
            w0, sigma_l = minus_one_realization(sys, simples)
            realized = w0 if sigma_l is None else w0.compose(sigma_l)
            assert all(realized(r) == -r for r in subsystem_roots(sys, simples))
            if sigma_l is not None:
                assert {sigma_l(s) for s in simples} == set(simples)


def test_minus_one_realization_single_a1():
    sys = root_system("a2")
    w0, sigma_l = minus_one_realization(sys, [sys.simple("a")])
    assert sigma_l is None


def test_extends_to_ambient_a3_case_has_no_witness():
    sys = root_system("a3")
    L = [sys.simple("a"), sys.simple("b")]
    partial = {r: -r for r in subsystem_roots(sys, L)}
    assert extends_to_ambient(sys, L, partial) is None


def test_extends_to_ambient_full_system_returns_minus_one():
    sys = d4()
    partial = {r: -r for r in sys.roots}
    m = extends_to_ambient(sys, sys.simple_roots, partial)
    assert m == sys.minus_one_map()


def test_extends_to_ambient_d4_levi_has_witness():
    sys = d4()
    L = [sys.simple("a"), sys.simple("c"), sys.simple("d")]
    partial = {r: -r for r in subsystem_roots(sys, L)}
    m = extends_to_ambient(sys, L, partial)
    assert m is not None
    radical = [r for r in sys.positive_roots if r not in set(subsystem_roots(sys, L))]
    assert {m(r) for r in radical} == set(radical)


def brute_force_extension(system, L_simples, partial):
    """Reference: the full scan over every composed map of W x| Diag."""
    sub = set(subsystem_roots(system, L_simples))
    radical = [r for r in system.positive_roots if r not in sub]
    radical_set = set(radical)
    for m in system.weyl_and_diagram_elements():
        if any(m(r) != partial[r] for r in sub):
            continue
        if any(m(r) not in radical_set for r in radical):
            continue
        return m
    return None


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "D4"])
def test_extends_to_ambient_matches_brute_force(label):
    # every Levi, -1 and seeded partial maps induced by W x| Diag, also
    # followed by -1: the same first witness as the composed-map scan and
    # the index scan over (w, d) pairs, or None for all three
    sys = root_system(label)
    maps = sys.weyl_and_diagram_elements()
    minus = sys.minus_one_map()
    rng = random.Random(6)
    outcomes = set()
    for k in range(sys.rank + 1):
        for L in itertools.combinations(sys.simple_roots, k):
            sub = subsystem_roots(sys, L)
            induced = rng.choices(maps, k=3)
            partials = [{r: -r for r in sub}]
            partials += [{r: m(r) for r in sub} for m in induced]
            partials += [{r: minus(m(r)) for r in sub} for m in induced]
            for partial in partials:
                got = extends_to_ambient(sys, L, partial)
                for want in (brute_force_extension(sys, L, partial), scanned_extension(sys, L, partial)):
                    assert (got is None) == (want is None)
                    assert got is None or got.images == want.images
                outcomes.add(got is None)
    assert outcomes == ({False} if label == "A1" else {True, False})


def test_verify_w0_identities_d4():
    report = verify_w0_identities(lam_d4())
    assert report is True


def test_verify_w0_identities_regular_lambda_is_vacuous():
    sys = d4()
    # a regular cocharacter: no simple root pairs to zero
    lam = sys.cocharacter((1, 1, 1, 1))
    assert all(pairing(s, lam) != 0 for s in sys.simple_roots)
    report = verify_w0_identities(lam)
    assert report is True


@pytest.mark.parametrize("name, coeffs, verdict", [
    ("d4", (1, 2, 1, 1), True),
    ("a4", (2, 1, 0, -1), False),
    ("a4", (1, 0, -1, -2), False),
    ("a3", (1, 2, 3), None),
    # pairs (1, 0, 0, 6) with the simple roots; -1 on the A2 Levi needs the diagram
    # flip, which swaps those of a and d, so the radical flips as a set, not level by level
    ("a4", (2, 3, 4, 5), True),
])
def test_verify_w0_identities_takes_all_three_values(name, coeffs, verdict):
    # True: w flips the radical; False: -1 on the Levi extends, but w does
    # not flip the radical; None: -1 on the Levi does not extend
    assert verify_w0_identities(root_system(name).cocharacter(coeffs)) is verdict


def test_verify_w0_identities_a3_reports_hypothesis_failure():
    sys = root_system("a3")
    lam = sys.cocharacter((1, 2, 3))
    assert verify_w0_identities(lam) is None


def test_root_str_and_labels():
    sys = d4()
    assert str(sys.root_by_label(12)) == "a+2b+c+d"
    assert str(-sys.root_by_label(5)) == "-a-b"
    assert sys.root_by_label(-7) == -sys.root_by_label(7)
    assert str(Cocharacter(sys, (1, 0, 1, 0))) == "a+c"


# ---------------------------------------------------------------------------
# root identity and the shared row reduction


def test_roots_are_singletons_per_system():
    sys = d4()
    assert root_system("D4") is root_system("d4")
    assert sys.root((1, 2, 1, 1)) is sys.root_by_label(12)
    for r in sys.roots:
        assert -(-r) is r
    assert sys.simple("a") + sys.simple("b") is sys.root_by_label(5)
    assert sys.root_by_label(11) + sys.simple("b") is sys.root_by_label(12)
    # equal coefficients in another system are another root or cocharacter
    assert root_system("a4").root((1, 1, 1, 1)) != sys.root_by_label(11)
    assert root_system("a4").cocharacter((1, 0, 1, 0)) != sys.cocharacter((1, 0, 1, 0))


def test_every_accepted_label_names_its_simple_roots():
    names = {
        "a1": (("alpha",), ("a",)),
        "a2": (("alpha", "beta"), ("a", "b")),
        "a3": (("alpha", "beta", "gamma"), ("a", "b", "c")),
        "a4": (("alpha", "beta", "gamma", "delta"), ("a", "b", "c", "d")),
        "d4": (("alpha", "beta", "gamma", "delta"), ("a", "b", "c", "d")),
    }
    assert SYSTEMS == tuple(names)
    for label in SYSTEMS:
        sys = root_system(label)
        assert (sys.simple_names, sys.short_names) == names[label]


@pytest.mark.parametrize("label,det", [("A1", 2), ("A2", 3), ("A3", 4), ("A4", 5), ("D4", 4)])
def test_row_reduce_inverts_the_cartan_matrix(label, det):
    C = root_system(label).cartan
    n = len(C)
    reduced, pivots = row_reduce([list(row) + [int(i == j) for j in range(n)]
                                  for i, row in enumerate(C)])
    assert pivots == list(range(n))
    assert all(reduced[i][:n] == [int(i == j) for j in range(n)] for i in range(n))
    inverse = [row[n:] for row in reduced]
    for i in range(n):
        for j in range(n):
            assert sum(C[i][k] * inverse[k][j] for k in range(n)) == int(i == j)
    # det(C) * C^-1 is the integral adjugate
    assert all((det * x).denominator == 1 for row in inverse for x in row)


def test_row_reduce_signs_swaps_and_reports_rank():
    reduced, pivots = row_reduce([[0, 1], [1, 0]])
    assert (reduced, pivots) == ([[1, 0], [0, 1]], [0, 1])
    reduced, pivots = row_reduce([[2, 4, 6], [1, 2, 3]])
    assert pivots == [0]
    assert reduced == [[1, 2, 3], [0, 0, 0]]


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "D4"])
def test_fixed_cocharacter_lattice_of_identity_and_minus_one(label):
    sys = root_system(label)
    units = [tuple(int(i == j) for j in range(sys.rank)) for i in range(sys.rank)]
    assert fixed_cocharacter_lattice(sys.identity_map()) == units
    assert fixed_cocharacter_lattice(sys.minus_one_map()) == []


def test_fixed_cocharacter_lattice_normalizes_the_sign():
    # the reflection in a+b fixes the line through a^v - b^v; row reduction gives (-1, 1)
    a2 = root_system("a2")
    assert fixed_cocharacter_lattice(a2.reflection(a2.root_by_label(3))) == [(1, -1)]
    # the third generator comes out as (0, -1, 0, 1): the sign follows the first nonzero entry
    a4 = root_system("a4")
    assert fixed_cocharacter_lattice(a4.reflection(a4.simple("c"))) == [(1, 0, 0, 0), (0, 2, 1, 0), (0, 1, 0, -1)]


def test_d4_diagram_table():
    """id, the triality sigma and its square, then the three transpositions
    of the legs, which fix b; the six maps form a group."""
    d4 = root_system("d4")
    table = d4.diagram_symmetries()
    assert list(table) == ["id", "sigma", "sigma2", "tau0", "tau1", "tau2"]
    maps = list(table.values())
    assert len({m.images for m in maps}) == 6
    assert all(d.compose(e) in maps for d in maps for e in maps)
    b = d4.simple("b")
    for name in ("tau0", "tau1", "tau2"):
        tau = table[name]
        assert tau(b) == b and not tau.is_identity() and tau.compose(tau).is_identity()
    assert table["sigma"].compose(table["sigma"]) == table["sigma2"]


@pytest.mark.parametrize("label,names", [("A1", ["id"]), ("A2", ["id", "sigma"]),
                                         ("A3", ["id", "sigma"]), ("A4", ["id", "sigma"])])
def test_type_a_diagram_table(label, names):
    sys = root_system(label)
    table = sys.diagram_symmetries()
    assert list(table) == names
    assert table["id"].is_identity()
    if "sigma" in table:
        sigma = table["sigma"]
        assert not sigma.is_identity() and sigma.compose(sigma).is_identity()


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "D4"])
def test_root_sum_table(label):
    sys = root_system(label)
    for r in sys.roots:
        assert r + (-r) is None
        for s in sys.roots:
            want = sys.root_or_none(tuple(a + b for a, b in zip(r.coeffs, s.coeffs)))
            assert r + s is want  # the cached root, or None


def test_inverse_is_built_once_and_inverts():
    d4 = root_system("d4")
    for m in d4.weyl_and_diagram_elements():
        inv = m.inverse()
        assert inv is m.inverse()
        assert m.compose(inv).is_identity()
        assert inv.compose(m).is_identity()
