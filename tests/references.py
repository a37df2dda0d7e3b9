"""Helpers and brute-force references that only the tests need: the whole
of M(F_q), random points for finite-field evaluation, the literal matrix
transpose, and monomials built from exponent maps.
"""

import itertools
import random
from typing import Dict, Iterable, List, Mapping

from crlab.chevalley import GroupWord, RootElement, TorusValue
from crlab.coeffring import Polynomial, VariableRegistry
from crlab.matrixoracle import GF, A2Matrix, Mat


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
