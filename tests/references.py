"""Helpers and brute-force references that only the tests need: the whole
of M(F_q), random points for finite-field evaluation, the literal matrix
transpose, monomials built from exponent maps, and the matrix derivative
of a word.
"""

import itertools
import random
from typing import Dict, Iterable, List, Mapping

from crlab.chevalley import EPS, GraphAut, GroupWord, RootElement, TorusValue, word
from crlab.coeffring import Polynomial, VariableRegistry
from crlab.matrixoracle import GF, A2Matrix, Mat, exact_word


def mat_transpose(A: Mat) -> Mat:
    return tuple(tuple(A[j][i] for j in range(3)) for i in range(3))


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
