"""Helpers and brute-force references that only the tests need: the whole
of M(F_q), the Leibniz determinant, random points for finite-field evaluation, the literal matrix
transpose, monomials built from exponent maps, the matrix derivative of a
word, polynomials parsed from text, and w0 found by generating the whole
parabolic subgroup, the root-cocharacter pairing as the Cartan double
sum, and the witness search of `rootsys.extends_to_ambient` as a linear
scan over the (w, d) pairs of W x| Diag.

The A2 matrix model's twisted group law lives here too, as the reference
the relabeling evaluator `matrixoracle.evaluate_word` is checked against:
the literal twist sigma(A) = J (A^T)^-1 J, the product (A, s)(B, t) =
(A sigma^s(B), s+t), the generators' matrices (`transvection`,
`torus_matrix`, `sigma_element`), an evaluator built on them, and the
centralizer C_M(m2) and the pairs (m1, m2)_x that `enumerate_m_conjugacy`
classifies.
"""

import itertools
import random
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from crlab.chevalley import EPS, GraphAut, GroupWord, RootElement, TorusValue, WeylRep, word
from crlab.coeffring import Polynomial, VariableRegistry
from crlab.matrixoracle import GF, A2Matrix, Mat, exact_word, identity, mat_inv, mat_mul
from crlab.rootsys import RootMap, RootSystem, subsystem_roots
from crlab.wordexpr import _Parser


def cartan_pairing(zeta, chi) -> int:
    """<zeta, chi> as the double sum sum_ij zeta_i cartan[i][j] chi_j over
    the system's Cartan matrix."""
    cartan, r = zeta.system.cartan, zeta.system.rank
    return sum(zeta.coeffs[i] * cartan[i][j] * chi.coeffs[j] for i in range(r) for j in range(r))


def mat_transpose(A: Mat) -> Mat:
    return tuple(tuple(A[j][i] for j in range(3)) for i in range(3))


def mat_det(ring, A: Mat):
    """det(A) as the six-term Leibniz sum (signs vanish in characteristic 2)."""
    add, mul = ring.add, ring.mul
    d = ring.zero()
    for j0, j1, j2 in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        d = add(d, mul(A[0][j0], mul(A[1][j1], A[2][j2])))
        d = add(d, mul(A[0][j2], mul(A[1][j1], A[2][j0])))
    return d


J = ((0, 0, 1), (0, 1, 0), (1, 0, 0))  # the antidiagonal unit


def sigma_twist(ring, A: Mat) -> Mat:
    """The graph automorphism as a matrix map, J (A^T)^-1 J, computed literally."""
    j = tuple(tuple(ring.one() if e else ring.zero() for e in row) for row in J)
    return mat_mul(ring, mat_mul(ring, j, mat_inv(ring, mat_transpose(A))), j)


def times(*factors: A2Matrix) -> A2Matrix:
    """The product in SL3 x <sigma> by the twisted rule (A, s)(B, t) = (A sigma^s(B), s+t)."""
    out = factors[0]
    for g in factors[1:]:
        right = sigma_twist(g.ring, g.mat) if out.flag else g.mat
        out = A2Matrix(g.ring, mat_mul(g.ring, out.mat, right), out.flag ^ g.flag)
    return out


_POSITIONS = {1: (0, 1), 2: (1, 2), 3: (0, 2), -1: (1, 0), -2: (2, 1), -3: (2, 0)}


def transvection(ring, label: int, x) -> A2Matrix:
    i, j = _POSITIONS[label]
    m = [list(row) for row in identity(ring)]
    m[i][j] = x
    return A2Matrix(ring, tuple(tuple(row) for row in m))


def torus_matrix(ring, cochar_coeffs: Sequence[int], t) -> A2Matrix:
    c1, c2 = cochar_coeffs
    zero = ring.zero()
    # alpha^v(t) = diag(t, t^-1, 1), beta^v(t) = diag(1, t, t^-1)
    d1, d2, d3 = ring.pow(t, c1), ring.pow(t, c2 - c1), ring.pow(t, -c2)
    return A2Matrix(ring, ((d1, zero, zero), (zero, d2, zero), (zero, zero, d3)))


def sigma_element(ring) -> A2Matrix:
    return A2Matrix(ring, identity(ring), 1)


def twisted_evaluate(w: GroupWord, assign: Mapping[str, object], ring) -> A2Matrix:
    """`evaluate_word`'s reference: each atom's own matrix, and sigma as the
    element (I, 1), multiplied in by the twisted group law."""
    out = A2Matrix(ring, identity(ring))
    for atom in w.atoms:
        if isinstance(atom, RootElement):
            g = transvection(ring, atom.root.label, atom.coeff.evaluate(assign, ring))
        elif isinstance(atom, WeylRep):  # n_r = e_r(1) e_-r(1) e_r(1)
            r, one = atom.root.label, ring.one()
            g = times(transvection(ring, r, one), transvection(ring, -r, one), transvection(ring, r, one))
        elif isinstance(atom, TorusValue):
            g = torus_matrix(ring, atom.cochar.coeffs, assign[atom.unit])
        else:
            g = A2Matrix(ring, identity(ring), int(not atom.map.is_identity()))
        out = times(out, g)
    return out


def m_stabilizer(gf: GF) -> List[A2Matrix]:
    """C_M(m2) for m2 = e_{alpha+beta}(1): the 2q elements [[1, b], [0, 1]]
    on the outer coordinates, each with either sigma flag (sigma fixes
    U_{alpha+beta})."""
    return [A2Matrix(gf, ((1, 0, b), (0, 1, 0), (0, 0, 1)), flag)
            for b in gf.elements() for flag in (0, 1)]


def pair_for_value(gf: GF, x: int) -> Tuple[A2Matrix, A2Matrix]:
    """(m1, m2)_x = (sigma e_{alpha+beta}(x^2), e_{alpha+beta}(1))."""
    return times(sigma_element(gf), transvection(gf, 3, gf.mul(x, x))), transvection(gf, 3, 1)


def m_group_elements(gf: GF) -> List[A2Matrix]:
    """All points of M = G_{alpha+beta} x <sigma>: the SL2 acting on the
    outer coordinates (with the middle one fixed) times the sigma flag."""
    out = []
    for a, b, c, d in itertools.product(gf.elements(), repeat=4):
        det = gf.add(gf.mul(a, d), gf.mul(b, c))
        if det != 1:
            continue
        m = ((a, 0, b), (0, 1, 0), (c, 0, d))
        out.append(A2Matrix(gf, m, 0))
        out.append(A2Matrix(gf, m, 1))
    return out


def random_assignment(words: Iterable[GroupWord], gf: GF, rng: random.Random) -> Dict[str, int]:
    """A random F_q point for every coordinate of the words: units nonzero."""
    names: Dict[str, str] = {}
    for w in words:
        reg = w.registry
        for atom in w.atoms:
            if isinstance(atom, RootElement):
                for i in {i for m in atom.coeff.terms for i, _ in m}:
                    names[reg.names[i]] = reg.kinds[i]
            elif isinstance(atom, TorusValue):
                names[atom.unit] = "unit"
    assign = {}
    for name, kind in names.items():
        if kind == "unit":
            assign[name] = rng.randrange(1, gf.q)
        else:
            assign[name] = rng.randrange(gf.q)
    return assign


def monomial(reg: VariableRegistry, powers: Mapping[str, int]) -> Polynomial:
    """The one-term polynomial prod name^e; negative exponents belong on
    unit variables only."""
    m = tuple(sorted((reg.index(n), e) for n, e in powers.items() if e))
    return Polynomial(reg, frozenset({m}))


def random_d4_borel_word(sys, reg: VariableRegistry, rng: random.Random, roots, names) -> GroupWord:
    """Up to 3 atoms, each a diagram symmetry, a torus value in the unit t or
    e_r(name) for r in `roots`: with positive `roots` the word normalizes
    U = <e1..e12>."""
    atoms = []
    for _ in range(rng.randrange(0, 4)):
        k = rng.randrange(4)
        if k == 0:
            atoms.append(GraphAut(sys, rng.choice(["sigma", "sigma2"])))
        elif k == 1:
            atoms.append(TorusValue(sys.cocharacter([rng.randrange(-2, 3) for _ in range(4)]), "t"))
        else:
            atoms.append(RootElement(rng.choice(roots), reg.var(rng.choice(names))))
    return word(sys, reg, *atoms)


def lie_word(system, registry: VariableRegistry, v: Mapping) -> GroupWord:
    """prod e_r(EPS v_r): the first-order curve through 1 with tangent v."""
    eps = registry.add(EPS)
    return word(system, registry, *(RootElement(r, eps * c) for r, c in v.items()))


def linear_matrix(w: GroupWord) -> Mat:
    """The EPS-linear part of the word's matrix over its polynomial ring:
    for lie_word(v) the sl3 matrix of v, for g lie_word(v) g^-1 Ad(g) of it."""
    return tuple(tuple(c.linear_part(EPS) for c in row) for row in exact_word(w).mat)


def parse_poly(text: str, registry: VariableRegistry) -> Polynomial:
    """A polynomial in the coefficient grammar of word atoms."""
    parser = _Parser(text, registry, None)
    return parser.complete(*parser.parse_poly(0))


def generated_longest_element(system: RootSystem, simples) -> RootMap:
    """w0 of the subgroup generated by the given simple reflections: the
    element of the whole generated group, built breadth first, that sends
    every positive subsystem root negative."""
    gens = [system.reflection(s) for s in simples]
    start = system.identity_map()
    seen = {start.images: start}
    queue = [start]
    while queue:
        nxt = []
        for m in queue:
            for g in gens:
                c = g.compose(m)
                if c.images not in seen:
                    seen[c.images] = c
                    nxt.append(c)
        queue = nxt
    sub_pos = [r for r in subsystem_roots(system, simples) if r.is_positive]
    return next(m for m in seen.values() if all(not m(r).is_positive for r in sub_pos))


def scanned_extension(system: RootSystem, L_simples, partial) -> Optional[RootMap]:
    """The first w∘d, over system._weyl_diagram_pairs() in order, that agrees
    with `partial` on the Levi subsystem and maps the radical into itself,
    each pair tested on root indices; None when there is none."""
    sub = set(subsystem_roots(system, L_simples))
    targets = [(r.index, t.index) for r, t in partial.items()]
    radical = [r.index for r in system.positive_roots if r not in sub]
    radical_set = set(radical)
    for w, d in system._weyl_diagram_pairs():
        wi, di = w.images, d.images
        if all(wi[di[i]] == t for i, t in targets) and all(wi[di[i]] in radical_set for i in radical):
            return w.compose(d)
    return None
