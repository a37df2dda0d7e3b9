"""Independent 3x3 matrix model for every A2 claim.

SL3 root elements are elementary transvections (e_alpha(x) = I + x E12,
e_beta(x) = I + x E23, e_{alpha+beta}(x) = I + x E13, negative roots
transposed), the torus is diagonal, and the graph automorphism is
g -> J (g^T)^-1 J with J the antidiagonal unit, which fixes the standard
pinning: sigma e_alpha(x) sigma^-1 = e_beta(x) and sigma fixes U_{alpha+beta}.
Group elements of SL3 x <sigma> are (matrix, flag) pairs multiplied through
the twisted rule (A, s)(B, t) = (A sigma^s(B), s+t).

The kernels are generic over a coefficient ring of characteristic 2 that
offers zero, one, add, mul, pow and inv, the protocol Polynomial.evaluate
reads a root element's coefficient through.  Two rings exist:
  - GF(q), q = 2, 4 or 16, elements encoded as ints in a polynomial basis
    (F4: u^2+u+1, F16: u^4+u+1), for enumerating M(F_q) and evaluating a
    word at a point;
  - coeffring.PolyRing(registry), the engine's own F2[vars, s][units^+-1], for
    evaluating a word once at the generic point.  SL3 x <sigma> over this
    domain is faithful, so two words are equal exactly when their matrices
    over PolyRing are.
The engine is used only to read polynomial coefficients off words, so this
module is an independent check of the collection machinery.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Tuple

from .chevalley import GraphAut, GroupWord, RootElement, TorusValue, WeylRep
from .coeffring import PolyRing, power

_IRRED = {2: 0b10, 4: 0b111, 16: 0b10011}


class GF:
    """Binary field of order 2, 4 or 16."""

    def __init__(self, q: int):
        if q not in _IRRED:
            raise ValueError("supported field sizes: 2, 4, 16")
        self.q = q
        self.poly = _IRRED[q]
        self.bits = q.bit_length() - 1

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

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
        if n < 0:
            a, n = self.inv(a), -n
        return power(self.mul, 1, a, n)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverting 0 in a finite field")
        return self.pow(a, self.q - 2)

    def elements(self) -> range:
        return range(self.q)


Mat = Tuple[Tuple[int, ...], ...]


def identity(ring) -> Mat:
    one, zero = ring.one(), ring.zero()
    return ((one, zero, zero), (zero, one, zero), (zero, zero, one))


def mat_mul(ring, A: Mat, B: Mat) -> Mat:
    add, mul = ring.add, ring.mul
    return tuple(
        tuple(
            add(add(mul(A[i][0], B[0][j]), mul(A[i][1], B[1][j])), mul(A[i][2], B[2][j]))
            for j in range(3)
        )
        for i in range(3)
    )


def _j_transpose_j(A: Mat) -> Mat:
    """J A^T J: conjugating by J reverses rows and columns."""
    return tuple(tuple(A[2 - j][2 - i] for j in range(3)) for i in range(3))


def mat_inv(ring, A: Mat) -> Mat:
    """Inverse by one cofactor pass: column j of adj(A) is the cross product
    of rows j+1 and j+2 (indices mod 3, signs vanish in characteristic 2),
    and det(A) is row 0 dotted with column 0 of adj(A)."""
    add, mul = ring.add, ring.mul
    adj_cols = []
    for j in (0, 1, 2):
        r, s = A[(j + 1) % 3], A[(j + 2) % 3]
        adj_cols.append([add(mul(r[(i + 1) % 3], s[(i + 2) % 3]), mul(r[(i + 2) % 3], s[(i + 1) % 3]))
                         for i in (0, 1, 2)])
    c0 = adj_cols[0]
    dinv = ring.inv(add(add(mul(A[0][0], c0[0]), mul(A[0][1], c0[1])), mul(A[0][2], c0[2])))
    return tuple(tuple(mul(col[i], dinv) for col in adj_cols) for i in (0, 1, 2))


def sigma_twist(ring, A: Mat) -> Mat:
    # (A^T)^-1 = (A^-1)^T
    return _j_transpose_j(mat_inv(ring, A))


class A2Matrix:
    """Element of SL3 x <sigma> as (matrix, sigma flag); the sigma twist of
    the matrix is computed at most once."""

    __slots__ = ("ring", "mat", "flag", "_twisted")

    def __init__(self, ring, mat: Mat, flag: int = 0):
        self.ring = ring
        self.mat = mat
        self.flag = flag & 1
        self._twisted = None

    def twisted(self) -> Mat:
        if self._twisted is None:
            self._twisted = sigma_twist(self.ring, self.mat)
        return self._twisted

    def __mul__(self, other: "A2Matrix") -> "A2Matrix":
        right = other.twisted() if self.flag else other.mat
        return A2Matrix(self.ring, mat_mul(self.ring, self.mat, right), self.flag ^ other.flag)

    def inverse(self) -> "A2Matrix":
        if self.flag:
            # (A, 1)^-1 = (sigma(A^-1), 1), and sigma(A^-1) = J A^T J
            return A2Matrix(self.ring, _j_transpose_j(self.mat), 1)
        return A2Matrix(self.ring, mat_inv(self.ring, self.mat))

    def __eq__(self, other):
        return isinstance(other, A2Matrix) and self.mat == other.mat and self.flag == other.flag

    def __hash__(self):
        return hash((self.mat, self.flag))

    def __repr__(self):
        return f"A2Matrix({self.mat}, sigma={self.flag})"


_ROOT_POSITIONS = {1: (0, 1), 2: (1, 2), 3: (0, 2), -1: (1, 0), -2: (2, 1), -3: (2, 0)}


def transvection(ring, label: int, x) -> A2Matrix:
    i, j = _ROOT_POSITIONS[label]
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


def evaluate_word(w: GroupWord, assign: Dict[str, object], ring) -> A2Matrix:
    """Evaluate an A2 group word at a point of `ring`; raises on non-A2 atoms.
    A sigma atom flips the product's flag and costs no matrix product."""
    if w.system.type_label != "A2":
        raise ValueError("the matrix model is for A2 only")
    out = A2Matrix(ring, identity(ring))
    for atom in w.atoms:
        if isinstance(atom, RootElement):
            out = out * transvection(ring, atom.root.label, atom.coeff.evaluate(assign, ring))
        elif isinstance(atom, WeylRep):
            lbl = atom.root.label
            one = ring.one()
            n = (
                transvection(ring, lbl, one)
                * transvection(ring, -lbl, one)
                * transvection(ring, lbl, one)
            )
            out = out * n
        elif isinstance(atom, TorusValue):
            out = out * torus_matrix(ring, atom.cochar.coeffs, assign[atom.unit])
        elif isinstance(atom, GraphAut):
            if not atom.map.is_identity():
                out = A2Matrix(ring, out.mat, out.flag ^ 1)  # (A, f)(I, 1) = (A, f+1)
        else:
            raise ValueError(f"cannot evaluate atom {atom!r}")
    return out


def exact_word(w: GroupWord) -> A2Matrix:
    """The word as a matrix over its registry's polynomial ring."""
    ring = PolyRing(w.registry)
    return evaluate_word(w, ring.generic_point(), ring)


def first_difference(*pairs: Tuple[A2Matrix, A2Matrix]):
    """Where the two sides of the first unequal (lhs, rhs) pair differ: (pair
    index, "sigma") when the flags do, else (pair index, (row, column)) of the
    first unequal entry in reading order.  None when every pair is equal."""
    for k, (a, b) in enumerate(pairs):
        if a.flag != b.flag:
            return k, "sigma"
        for i, j in itertools.product(range(3), repeat=2):
            if a.mat[i][j] != b.mat[i][j]:
                return k, (i, j)
    return None


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
