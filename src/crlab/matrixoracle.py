"""Independent 3x3 matrix model for every A2 claim.

SL3 root elements are elementary transvections (e_alpha(x) = I + x E12,
e_beta(x) = I + x E23, e_{alpha+beta}(x) = I + x E13, negative roots
transposed), the torus is diagonal, and the graph automorphism is
g -> J (g^T)^-1 J with J the antidiagonal unit, which fixes the standard
pinning: sigma e_alpha(x) sigma^-1 = e_beta(x) and sigma fixes U_{alpha+beta}.
Group elements of SL3 x <sigma> are (matrix, flag) pairs multiplied through
the twisted rule (A, s)(B, t) = (A sigma^s(B), s+t).

Everything is evaluated over F2, F4 or F16, elements encoded as ints in a
polynomial basis (F4: u^2+u+1, F16: u^4+u+1).  This module deliberately does
not use the symbolic engine except to read polynomial coefficients off
words, so it is an independent check of the collection machinery.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterable, List, Sequence, Tuple

from .chevalley import GraphAut, GroupWord, RootElement, TorusValue, WeylRep

_IRRED = {2: 0b10, 4: 0b111, 16: 0b10011}


class GF:
    """Binary field of order 2, 4 or 16."""

    def __init__(self, q: int):
        if q not in _IRRED:
            raise ValueError("supported field sizes: 2, 4, 16")
        self.q = q
        self.poly = _IRRED[q]
        self.bits = q.bit_length() - 1

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        r = 0
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            if a >> self.bits:
                a ^= self.poly
            b >>= 1
        return r

    def pow(self, a: int, n: int) -> int:
        r = 1
        while n:
            if n & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            n >>= 1
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverting 0 in a finite field")
        return self.pow(a, self.q - 2)

    def elements(self) -> range:
        return range(self.q)


Mat = Tuple[Tuple[int, ...], ...]

IDENT: Mat = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
J: Mat = ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def mat_mul(gf: GF, A: Mat, B: Mat) -> Mat:
    return tuple(
        tuple(
            gf.add(gf.add(gf.mul(A[i][0], B[0][j]), gf.mul(A[i][1], B[1][j])), gf.mul(A[i][2], B[2][j]))
            for j in range(3)
        )
        for i in range(3)
    )


def mat_transpose(A: Mat) -> Mat:
    return tuple(tuple(A[j][i] for j in range(3)) for i in range(3))


def mat_det(gf: GF, A: Mat) -> int:
    d = 0
    for j0, j1, j2 in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        d ^= gf.mul(A[0][j0], gf.mul(A[1][j1], A[2][j2]))
        d ^= gf.mul(A[0][j2], gf.mul(A[1][j1], A[2][j0]))
    return d


def mat_inv(gf: GF, A: Mat) -> Mat:
    det = mat_det(gf, A)
    dinv = gf.inv(det)
    cof = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            r = [k for k in range(3) if k != i]
            c = [k for k in range(3) if k != j]
            minor = gf.add(
                gf.mul(A[r[0]][c[0]], A[r[1]][c[1]]),
                gf.mul(A[r[0]][c[1]], A[r[1]][c[0]]),
            )
            cof[j][i] = gf.mul(minor, dinv)  # transpose of cofactors; signs vanish
    return tuple(tuple(row) for row in cof)


def sigma_twist(gf: GF, A: Mat) -> Mat:
    B = mat_inv(gf, A)
    # (A^T)^-1 = (A^-1)^T, and conjugating by J reverses rows and columns
    return tuple(tuple(B[2 - j][2 - i] for j in range(3)) for i in range(3))


class A2Matrix:
    """Element of SL3 x <sigma> as (matrix, sigma flag)."""

    __slots__ = ("gf", "mat", "flag")

    def __init__(self, gf: GF, mat: Mat, flag: int = 0):
        self.gf = gf
        self.mat = mat
        self.flag = flag & 1

    def __mul__(self, other: "A2Matrix") -> "A2Matrix":
        right = sigma_twist(self.gf, other.mat) if self.flag else other.mat
        return A2Matrix(self.gf, mat_mul(self.gf, self.mat, right), self.flag ^ other.flag)

    def inverse(self) -> "A2Matrix":
        minv = mat_inv(self.gf, self.mat)
        if self.flag:
            minv = sigma_twist(self.gf, minv)
        return A2Matrix(self.gf, minv, self.flag)

    def __eq__(self, other):
        return isinstance(other, A2Matrix) and self.mat == other.mat and self.flag == other.flag

    def __hash__(self):
        return hash((self.mat, self.flag))

    def __repr__(self):
        return f"A2Matrix({self.mat}, sigma={self.flag})"


_ROOT_POSITIONS = {1: (0, 1), 2: (1, 2), 3: (0, 2), -1: (1, 0), -2: (2, 1), -3: (2, 0)}


def transvection(gf: GF, label: int, x: int) -> A2Matrix:
    i, j = _ROOT_POSITIONS[label]
    m = [[1 if a == b else 0 for b in range(3)] for a in range(3)]
    m[i][j] = x
    return A2Matrix(gf, tuple(tuple(row) for row in m))


def torus_matrix(gf: GF, cochar_coeffs: Sequence[int], t: int) -> A2Matrix:
    c1, c2 = cochar_coeffs
    # alpha^v(t) = diag(t, t^-1, 1), beta^v(t) = diag(1, t, t^-1)
    d1 = gf.pow(t, c1) if c1 >= 0 else gf.pow(gf.inv(t), -c1)
    d2e = c2 - c1
    d2 = gf.pow(t, d2e) if d2e >= 0 else gf.pow(gf.inv(t), -d2e)
    d3e = -c2
    d3 = gf.pow(t, d3e) if d3e >= 0 else gf.pow(gf.inv(t), -d3e)
    return A2Matrix(gf, ((d1, 0, 0), (0, d2, 0), (0, 0, d3)))


def sigma_element(gf: GF) -> A2Matrix:
    return A2Matrix(gf, IDENT, 1)


def evaluate_word(w: GroupWord, assign: Dict[str, int], gf: GF) -> A2Matrix:
    """Evaluate an A2 group word at a point; raises on non-A2 atoms."""
    if w.system.type_label != "A2":
        raise ValueError("the matrix model is for A2 only")
    out = A2Matrix(gf, IDENT)
    for atom in w.atoms:
        if isinstance(atom, RootElement):
            out = out * transvection(gf, atom.root.label, atom.coeff.evaluate(assign, gf))
        elif isinstance(atom, WeylRep):
            lbl = atom.root.label
            n = (
                transvection(gf, lbl, 1)
                * transvection(gf, -lbl, 1)
                * transvection(gf, lbl, 1)
            )
            out = out * n
        elif isinstance(atom, TorusValue):
            out = out * torus_matrix(gf, atom.cochar.coeffs, assign[atom.unit])
        elif isinstance(atom, GraphAut):
            if atom.map.is_identity():
                continue
            out = out * sigma_element(gf)
        else:
            raise ValueError(f"cannot evaluate atom {atom!r}")
    return out


def lie_adjoint(gf: GF, m: A2Matrix, X: Mat) -> Mat:
    """Ad(m) X on 3x3 matrices; the sigma flag contributes X -> J X^T J
    (the differential of g -> J (g^T)^-1 J in characteristic 2)."""
    if m.flag:
        X = mat_mul(gf, mat_mul(gf, J, mat_transpose(X)), J)
    A = m.mat
    return mat_mul(gf, mat_mul(gf, A, X), mat_inv(gf, A))


_H_DIAGONALS = {0: (1, 1, 0), 1: (0, 1, 1)}  # h_{alpha^v}, h_{beta^v} mod 2


def lie_vector_matrix(v, assign: Dict[str, int], gf: GF) -> Mat:
    """Evaluate an A2 LieVector into sl3 (Chevalley basis to elementary
    matrices, coroots to diagonals, everything mod 2)."""
    out = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    for root, coeff in v.e.items():
        i, j = _ROOT_POSITIONS[root.label]
        out[i][j] ^= coeff.evaluate(assign, gf)
    for idx, coeff in v.h.items():
        c = coeff.evaluate(assign, gf)
        for k, bit in enumerate(_H_DIAGONALS[idx]):
            if bit:
                out[k][k] ^= c
    return tuple(tuple(row) for row in out)


def random_assignment(words: Iterable[GroupWord], gf: GF, rng: random.Random) -> Dict[str, int]:
    names: Dict[str, str] = {}
    for w in words:
        reg = w.registry
        for atom in w.atoms:
            if isinstance(atom, RootElement):
                for name in atom.coeff.variables():
                    names[name] = reg.kind(name)
            elif isinstance(atom, TorusValue):
                names[atom.unit] = "unit"
    assign = {}
    for name, kind in names.items():
        if kind == "unit":
            assign[name] = rng.randrange(1, gf.q)
        else:
            assign[name] = rng.randrange(gf.q)
    return assign


def matrix_oracle_check(lhs: GroupWord, rhs: GroupWord, rng: random.Random,
                        points: int = 8, q: int = 16) -> bool:
    """Compare two A2 words as matrices at `points` random assignments."""
    gf = GF(q)
    for _ in range(points):
        assign = random_assignment([lhs, rhs], gf, rng)
        if evaluate_word(lhs, assign, gf) != evaluate_word(rhs, assign, gf):
            return False
    return True


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


def m_stabilizer(gf: GF) -> List[A2Matrix]:
    """C_M(m2) for m2 = e_{alpha+beta}(1): the 2q elements [[1, b], [0, 1]]
    on the outer coordinates, each with either sigma flag (sigma fixes
    U_{alpha+beta})."""
    return [A2Matrix(gf, ((1, 0, b), (0, 1, 0), (0, 0, 1)), flag)
            for b in gf.elements() for flag in (0, 1)]


def pair_for_value(gf: GF, x: int) -> Tuple[A2Matrix, A2Matrix]:
    """(m1, m2)_x = (sigma e_{alpha+beta}(x^2), e_{alpha+beta}(1))."""
    x2 = gf.mul(x, x)
    return (sigma_element(gf) * transvection(gf, 3, x2), transvection(gf, 3, 1))


def enumerate_m_conjugacy(q: int, values: Sequence[int]) -> List[List[int]]:
    """Partition of the pairs (m1, m2)_x under simultaneous M(F_q)-conjugacy:
    classes in order of first member, members in input order.

    Every pair has the same m2, so a conjugator lies in C_M(m2), and two
    pairs are conjugate exactly when their m1 have the same C_M(m2)-orbit."""
    gf = GF(q)
    conjugators = [(m, m.inverse()) for m in m_stabilizer(gf)]
    classes: Dict[frozenset, List[int]] = {}
    for x in values:
        m1 = pair_for_value(gf, x)[0]
        classes.setdefault(frozenset(m * m1 * minv for m, minv in conjugators), []).append(x)
    return list(classes.values())
