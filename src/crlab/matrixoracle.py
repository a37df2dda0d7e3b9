"""Independent 3x3 matrix model for every A2 claim.

SL3 root elements are elementary transvections (e_alpha(x) = I + x E12,
e_beta(x) = I + x E23, e_{alpha+beta}(x) = I + x E13, negative roots
transposed), n_r is the product e_r(1) e_-r(1) e_r(1), and the torus is
diagonal.  A pair (A, f) stands for A sigma^f in SL3 x <sigma>.  With the
standard pinning the graph automorphism acts on generators by relabeling,
sigma e_r(x) sigma^-1 = e_sigma(r)(x), where sigma swaps the labels 1 <-> 2
and -1 <-> -2 and fixes 3 and -3, and it sends the torus value
(c1 alpha^v + c2 beta^v)(t) to (c2 alpha^v + c1 beta^v)(t).  So a word is
evaluated left to right with a running flag: a sigma atom flips it, and
while it is set every other atom is relabeled before it is multiplied in.
No matrix is twisted.

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

from .chevalley import GraphAut, GroupWord, RootElement, TorusValue, WeylRep, word
from .coeffring import PolyRing, VariableRegistry, power
from .rootsys import root_system

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


class A2Matrix:
    """Element A sigma^flag of SL3 x <sigma> as the pair (A, flag)."""

    __slots__ = ("ring", "mat", "flag")

    def __init__(self, ring, mat: Mat, flag: int = 0):
        self.ring = ring
        self.mat = mat
        self.flag = flag & 1

    def inverse(self) -> "A2Matrix":
        if self.flag:
            # (A sigma)^-1 = sigma A^-1 = (J A^T J) sigma, and J A^T J reverses A^T's rows and columns
            mat = tuple(tuple(self.mat[2 - j][2 - i] for j in range(3)) for i in range(3))
            return A2Matrix(self.ring, mat, 1)
        return A2Matrix(self.ring, mat_inv(self.ring, self.mat))

    def __eq__(self, other):
        return isinstance(other, A2Matrix) and self.mat == other.mat and self.flag == other.flag

    def __hash__(self):
        return hash((self.mat, self.flag))

    def __repr__(self):
        return f"A2Matrix({self.mat}, sigma={self.flag})"


_ROOT_POSITIONS = {1: (0, 1), 2: (1, 2), 3: (0, 2), -1: (1, 0), -2: (2, 1), -3: (2, 0)}
_SIGMA = {1: 2, 2: 1, 3: 3, -1: -2, -2: -1, -3: -3}  # the root labels as sigma permutes them


def evaluate_word(w: GroupWord, assign: Dict[str, object], ring) -> A2Matrix:
    """Evaluate an A2 group word at a point of `ring`; raises on non-A2 atoms.
    A sigma atom flips the running flag.  Each root element and torus value,
    relabeled while the flag is set, is one factor and n_r three; the product
    starts from the first factor, so k factors cost k - 1 matrix products."""
    if w.system.type_label != "A2":
        raise ValueError("the matrix model is for A2 only")
    one, zero = ring.one(), ring.zero()
    mat, flag = None, 0  # None: no factor yet, the identity
    for atom in w.atoms:
        if isinstance(atom, GraphAut):
            flag ^= not atom.map.is_identity()
            continue
        if isinstance(atom, TorusValue):
            c1, c2 = atom.cochar.coeffs[::-1] if flag else atom.cochar.coeffs
            t = assign[atom.unit]
            # alpha^v(t) = diag(t, t^-1, 1), beta^v(t) = diag(1, t, t^-1)
            d1, d2, d3 = ring.pow(t, c1), ring.pow(t, c2 - c1), ring.pow(t, -c2)
            m = ((d1, zero, zero), (zero, d2, zero), (zero, zero, d3))
            mat = m if mat is None else mat_mul(ring, mat, m)
            continue
        if isinstance(atom, RootElement):
            factors = [(atom.root.label, atom.coeff.evaluate(assign, ring))]
        elif isinstance(atom, WeylRep):  # n_r = e_r(1) e_-r(1) e_r(1)
            r = atom.root.label
            factors = [(r, one), (-r, one), (r, one)]
        else:
            raise ValueError(f"cannot evaluate atom {atom!r}")
        for label, x in factors:
            i, j = _ROOT_POSITIONS[_SIGMA[label] if flag else label]
            m = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
            m[i][j] = x
            mat = tuple(map(tuple, m)) if mat is None else mat_mul(ring, mat, m)
    return A2Matrix(ring, identity(ring) if mat is None else mat, flag)


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


def enumerate_m_conjugacy(q: int, values: Sequence[int]) -> List[List[int]]:
    """Partition of the pairs (m1, m2)_x = (sigma e3(x^2), e3(1)) under
    simultaneous M(F_q)-conjugacy: classes in order of first member, members
    in input order.

    A conjugator fixes m2, so it is one of the 2q elements e3(b) sigma^f of
    C_M(m2), and two pairs are conjugate exactly when their m1 have the same
    orbit.  The conjugate e3(b) sigma^f m1_x (e3(b) sigma^f)^-1 is evaluated
    once per f over the polynomial ring in b and x, then specialized."""
    gf = GF(q)
    sys = root_system("a2")
    reg = VariableRegistry()
    b, x = reg.add("b"), reg.add("x")
    e3b, sigma = RootElement(sys.root_by_label(3), b), GraphAut(sys, "sigma")
    m1 = (sigma, RootElement(sys.root_by_label(3), x * x))
    conjugates = [exact_word(word(sys, reg, e3b, *(sigma,) * f, *m1, *(sigma,) * f, e3b)) for f in (0, 1)]
    classes: Dict[frozenset, List[int]] = {}
    for xv in values:
        points = [{"b": bv, "x": xv} for bv in gf.elements()]
        orbit = frozenset((tuple(tuple(e.evaluate(p, gf) for e in row) for row in c.mat), c.flag)
                          for c in conjugates for p in points)
        classes.setdefault(orbit, []).append(xv)
    return list(classes.values())
