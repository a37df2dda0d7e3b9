"""Root-system arithmetic for the simply-laced types A1-A4 and D4.

Roots are integer vectors in the simple-root basis, cocharacters integer
vectors in the simple-coroot basis.  Positive roots occupy indices 0..N-1
(labels 1..N), negatives N..2N-1 (labels -1..-N), so negation is index
arithmetic.  Weyl elements and diagram symmetries are realized as RootMap
permutations of the index range; the attached integer matrix gives the dual
action on cocharacters (in the coroot basis the matrix is the same one,
because the systems are simply laced and the Cartan matrix is symmetric).

For D4 the positive roots carry the fixed label table 1..12 with
1,2,3,4 = alpha, gamma, delta, beta and 12 the highest root; the non-simple
labels 5..11 are pinned by the action of n_alpha*sigma on labels, which must
come out as the cycle (4 5 8 11 10 7)(6 9)(12).  The table below is the
unique assignment with that property (tests/test_rootsys.py redoes the
brute-force search).

Roots are singletons per system: RootSystem builds each Root once, every
operation returns one of those objects, and root_system() caches the systems,
so root equality is identity, and cocharacters and root maps compare their
systems with `is`.  RootSystem also tabulates addition once, one entry per
ordered pair of root indices holding the sum root or None when the sum is
not a root, so Root.__add__ is two index operations; and it tabulates each
root's pairings with the simple coroots, so a pairing is one rank-length
dot product.  The identity map, reflections, diagram symmetries, Weyl
elements and the table of which Weyl elements send root i to root j are
computed once per system by functools.cache, which holds the system as long
as root_system() does; root maps are immutable, so sharing one is safe.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence


SYSTEMS = ("a1", "a2", "a3", "a4", "d4")  # the labels root_system accepts
_SIMPLE_NAMES = ("alpha", "beta", "gamma", "delta")  # a rank-r system names its simples
_SHORT_NAMES = ("a", "b", "c", "d")  # by the first r entries of each table

# D4 positive roots in label order, coefficients over (alpha, beta, gamma, delta).
# beta is the branch node; labels 1..4 are alpha, gamma, delta, beta.
_D4_POSITIVES = (
    (1, 0, 0, 0),   # 1  alpha
    (0, 0, 1, 0),   # 2  gamma
    (0, 0, 0, 1),   # 3  delta
    (0, 1, 0, 0),   # 4  beta
    (1, 1, 0, 0),   # 5  alpha+beta
    (0, 1, 1, 0),   # 6  beta+gamma
    (0, 1, 0, 1),   # 7  beta+delta
    (1, 1, 1, 0),   # 8  alpha+beta+gamma
    (1, 1, 0, 1),   # 9  alpha+beta+delta
    (0, 1, 1, 1),   # 10 beta+gamma+delta
    (1, 1, 1, 1),   # 11 alpha+beta+gamma+delta
    (1, 2, 1, 1),   # 12 alpha+2beta+gamma+delta (highest root)
)


def _cartan_matrix(type_label: str) -> tuple:
    if type_label == "D4":
        return (
            (2, -1, 0, 0),
            (-1, 2, -1, -1),
            (0, -1, 2, 0),
            (0, -1, 0, 2),
        )
    rank = int(type_label[1])
    return tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(rank))
        for i in range(rank)
    )


def _combo(coeffs: Sequence[int], names: Sequence[str]) -> str:
    parts = []
    for c, n in zip(coeffs, names):
        if c == 0:
            continue
        term = n if abs(c) == 1 else f"{abs(c)}{n}"
        parts.append(("-" if c < 0 else "+", term))
    if not parts:
        return "0"
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, term in parts[1:]:
        out += sign + term
    return out


class Root:
    """A root of a fixed RootSystem, stored in the simple-root basis."""

    __slots__ = ("system", "coeffs", "index")

    def __init__(self, system: "RootSystem", coeffs: tuple, index: int):
        self.system = system
        self.coeffs = coeffs
        self.index = index

    @property
    def label(self) -> int:
        n = self.system.n_pos
        return self.index + 1 if self.index < n else -(self.index - n + 1)

    @property
    def is_positive(self) -> bool:
        return self.index < self.system.n_pos

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    def __neg__(self) -> "Root":
        n = self.system.n_pos
        return self.system.roots[(self.index + n) % (2 * n)]

    def __add__(self, other: "Root") -> Optional["Root"]:
        return self.system._sums[self.index][other.index]

    def __str__(self):
        return _combo(self.coeffs, self.system.short_names)

    def __repr__(self):
        return f"Root({self.system.type_label}:{self})"


class Cocharacter:
    """An integral cocharacter of the fixed split torus, in the coroot basis."""

    __slots__ = ("system", "coeffs")

    def __init__(self, system: "RootSystem", coeffs: Sequence[int]):
        self.system = system
        self.coeffs = tuple(int(c) for c in coeffs)
        if len(self.coeffs) != system.rank:
            raise ValueError("cocharacter has wrong rank")

    def __add__(self, other: "Cocharacter") -> "Cocharacter":
        return Cocharacter(self.system, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Cocharacter":
        return Cocharacter(self.system, tuple(-a for a in self.coeffs))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cocharacter)
            and self.system is other.system
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(("cochar", self.coeffs))

    def __str__(self):
        return _combo(self.coeffs, self.system.short_names)

    def __repr__(self):
        return f"Cocharacter({self.system.type_label}:{self})"


class RootMap:
    """A permutation-with-negation of the root set induced by a lattice map.

    Every RootMap here comes from the Weyl group, a diagram symmetry, -1, or
    composites of those, so it is linear: images of the simple roots determine
    the integer matrix used for the dual action on cocharacters.
    """

    __slots__ = ("system", "images", "_matrix", "_inverse")

    def __init__(self, system: "RootSystem", images: Sequence[int]):
        self.system = system
        self.images = tuple(images)
        self._matrix = None
        self._inverse = None

    @property
    def matrix(self) -> tuple:
        if self._matrix is None:
            sys = self.system
            cols = [sys.roots[self.images[sys.simple_roots[j].index]].coeffs for j in range(sys.rank)]
            self._matrix = tuple(tuple(cols[j][i] for j in range(sys.rank)) for i in range(sys.rank))
        return self._matrix

    def __call__(self, root: Root) -> Root:
        return self.system.roots[self.images[root.index]]

    def act_cochar(self, chi: Cocharacter) -> Cocharacter:
        m = self.matrix
        r = self.system.rank
        return Cocharacter(
            self.system, tuple(sum(m[i][j] * chi.coeffs[j] for j in range(r)) for i in range(r))
        )

    def compose(self, other: "RootMap") -> "RootMap":
        """self after other: (self.compose(other))(r) == self(other(r))."""
        return RootMap(self.system, tuple(map(self.images.__getitem__, other.images)))

    def inverse(self) -> "RootMap":
        """The inverse map, built once; maps are immutable."""
        if self._inverse is None:
            inv = [0] * len(self.images)
            for i, j in enumerate(self.images):
                inv[j] = i
            self._inverse = RootMap(self.system, inv)
        return self._inverse

    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RootMap)
            and self.system is other.system
            and self.images == other.images
        )

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"RootMap({self.system.type_label}:{self.images})"


class RootSystem:
    """A root system of type A1..A4 or D4 with a fixed positive-root labeling."""

    def __init__(self, type_label: str):
        self.type_label = type_label
        self.rank = int(type_label[1])
        self.cartan = _cartan_matrix(type_label)
        self.simple_names = _SIMPLE_NAMES[: self.rank]
        self.short_names = _SHORT_NAMES[: self.rank]
        positives = self._positive_roots()
        coeff_list = positives + [tuple(-c for c in p) for p in positives]
        self.n_pos = len(positives)
        self.roots = tuple(Root(self, c, i) for i, c in enumerate(coeff_list))
        self._index = {c: i for i, c in enumerate(coeff_list)}
        self._sums = tuple(
            tuple(self.root_or_none(tuple(x + y for x, y in zip(a, b))) for b in coeff_list)
            for a in coeff_list
        )
        # row i: sum_k coeffs[k] * cartan[k][j] of root i, so <root, chi> is one dot product
        self._pairing_rows = tuple(
            tuple(sum(c * row[j] for c, row in zip(a, self.cartan)) for j in range(self.rank))
            for a in coeff_list
        )
        self.simple_roots = tuple(
            self.root(tuple(1 if j == i else 0 for j in range(self.rank)))
            for i in range(self.rank)
        )

    # -- construction -----------------------------------------------------

    def _positive_roots(self) -> list:
        if self.type_label == "D4":
            return list(_D4_POSITIVES)
        # A_n: the runs alpha_i+...+alpha_j, by height, then by first index
        n = self.rank
        return [tuple(int(i <= k < i + h) for k in range(n))
                for h in range(1, n + 1) for i in range(n - h + 1)]

    # -- basic accessors ---------------------------------------------------

    def root_or_none(self, coeffs: Sequence[int]) -> Optional[Root]:
        i = self._index.get(tuple(coeffs))
        return None if i is None else self.roots[i]

    def root(self, coeffs: Sequence[int]) -> Root:
        r = self.root_or_none(coeffs)
        if r is None:
            raise ValueError(f"{tuple(coeffs)} is not a root of {self.type_label}")
        return r

    def root_by_label(self, label: int) -> Root:
        if label == 0 or abs(label) > self.n_pos:
            raise ValueError(f"no root with label {label} in {self.type_label}")
        return self.roots[label - 1] if label > 0 else self.roots[-label - 1 + self.n_pos]

    def simple(self, name: str) -> Root:
        for i, (long, short) in enumerate(zip(self.simple_names, self.short_names)):
            if name in (long, short):
                return self.simple_roots[i]
        raise ValueError(f"unknown simple root {name!r}")

    def cocharacter(self, coeffs: Sequence[int]) -> Cocharacter:
        return Cocharacter(self, coeffs)

    def coroot(self, root: Root) -> Cocharacter:
        # simply laced: the coroot has the same coefficients over the coroot basis
        return Cocharacter(self, root.coeffs)

    @property
    def positive_roots(self) -> tuple:
        return self.roots[: self.n_pos]

    # -- maps ---------------------------------------------------------------

    @functools.cache
    def identity_map(self) -> RootMap:
        return RootMap(self, range(2 * self.n_pos))

    def minus_one_map(self) -> RootMap:
        n = self.n_pos
        return RootMap(self, [(i + n) % (2 * n) for i in range(2 * n)])

    def _linear_map(self, columns: Sequence[Sequence[int]]) -> RootMap:
        """Linear extension of simple root j -> the root with coefficients columns[j]."""
        return RootMap(self, [
            self.root([sum(c * col[i] for c, col in zip(r.coeffs, columns)) for i in range(self.rank)]).index
            for r in self.roots])

    @functools.cache
    def reflection(self, xi: Root) -> RootMap:
        chi = self.coroot(xi)
        return self._linear_map(
            [[c - pairing(s, chi) * x for c, x in zip(s.coeffs, xi.coeffs)] for s in self.simple_roots])

    @functools.cache
    def diagram_symmetries(self) -> dict:
        """All Dynkin-diagram symmetries, as name -> RootMap, listed 'id',
        'sigma' ('sigma2' after it on D4), then the others as tau0, tau1, ...
        in the order of their simple-root permutations.

        'sigma' is the canonical generator: the triality 3-cycle
        alpha -> gamma -> delta -> alpha for D4, the flip for A_n (n >= 2).
        """
        rank, cartan = self.rank, self.cartan
        perms = [
            p
            for p in itertools.permutations(range(rank))
            if all(
                cartan[p[i]][p[j]] == cartan[i][j]
                for i in range(rank)
                for j in range(rank)
            )
        ]
        named = {}
        ident = tuple(range(rank))
        named["id"] = ident
        if self.type_label == "D4":
            sigma = (2, 1, 3, 0)  # alpha->gamma, beta->beta, gamma->delta, delta->alpha
            named["sigma"] = sigma
            named["sigma2"] = tuple(sigma[sigma[i]] for i in range(rank))
        elif rank >= 2:
            named["sigma"] = tuple(range(rank - 1, -1, -1))
        k = 0
        for p in sorted(perms):
            if p not in named.values():
                named[f"tau{k}"] = p
                k += 1
        # each map is the linear extension of its simple-root permutation i -> p[i]
        simple = [r.coeffs for r in self.simple_roots]
        return {name: self._linear_map([simple[j] for j in p]) for name, p in named.items()}

    @functools.cache
    def weyl_elements(self) -> tuple:
        """All Weyl-group elements as RootMaps, in a deterministic BFS order."""
        gens = [self.reflection(s) for s in self.simple_roots]
        start = self.identity_map()
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
        return tuple(seen.values())

    @functools.cache
    def _weyl_sends(self) -> tuple:
        """sends[i][j]: the bitset of Weyl elements sending root i to root j,
        bit k for the k-th element of weyl_elements()."""
        n = len(self.roots)
        sends = [[0] * n for _ in range(n)]
        for k, w in enumerate(self.weyl_elements()):
            bit = 1 << k
            for i, j in enumerate(w.images):
                sends[i][j] |= bit
        return tuple(map(tuple, sends))

    def _weyl_diagram_pairs(self):
        """Yield (w, d), w a Weyl element and d a diagram symmetry: d in the
        order of diagram_symmetries(), 'id' first, then w in weyl_elements()
        order.  Searches that prefer inner witnesses scan in this order, so it
        is deterministic."""
        for d in self.diagram_symmetries().values():
            for w in self.weyl_elements():
                yield w, d

    def weyl_and_diagram_elements(self) -> tuple:
        """All maps w∘d, in the order of _weyl_diagram_pairs()."""
        return tuple(w.compose(d) for w, d in self._weyl_diagram_pairs())


_SYSTEMS: dict = {}  # keyed by the normalized label, so "d4" and "D4" share one system


def root_system(label: str) -> RootSystem:
    """Cached constructor for the labels in SYSTEMS (case-insensitive)."""
    key = label.lower().replace("_", "")
    if key not in SYSTEMS:
        raise ValueError(f"unsupported root system {label!r}")
    if key not in _SYSTEMS:
        _SYSTEMS[key] = RootSystem(key.upper())
    return _SYSTEMS[key]


# -- operations --------------------------------------------------------------


def pairing(zeta: Root, chi: Cocharacter) -> int:
    """<zeta, chi> = sum_ij zeta_i cartan[i][j] chi_j, read as the dot
    product of chi with zeta's row of the system's pairing table."""
    if zeta.system is not chi.system:
        raise ValueError("root and cocharacter live in different systems")
    return sum(a * b for a, b in zip(zeta.system._pairing_rows[zeta.index], chi.coeffs))


def compose_word(system: RootSystem, word: Iterable[str]) -> RootMap:
    """Root map of the group element spelled left-to-right by the word.

    Tokens are simple-root names (n_xi reflections) or diagram symmetry names
    ('sigma', ...).  The element acts by conjugation, so the rightmost letter
    is applied to a root first.
    """
    diag = system.diagram_symmetries()
    m = system.identity_map()
    for token in word:
        m = m.compose(diag[token] if token in diag else system.reflection(system.simple(token)))
    return m


def subsystem_roots(system: RootSystem, simples: Sequence[Root]) -> tuple:
    """Roots of the standard Levi subsystem generated by a set of simples."""
    support = {s.index for s in simples}
    outside = [i for i, s in enumerate(system.simple_roots) if s.index not in support]
    # a root lies in it when its coefficients on the other simples are all 0
    return tuple(r for r in system.roots if not any(map(r.coeffs.__getitem__, outside)))


def longest_element(system: RootSystem, simples: Sequence[Root]) -> RootMap:
    """w0 of the reflection subgroup generated by the given simple roots.

    Right multiplication by s lengthens w exactly when w(s) is positive, so
    the walk that does so while some given simple root maps positive ends at
    the one element sending all of them, hence every subsystem root, negative.
    """
    w = system.identity_map()
    while True:
        s = next((s for s in simples if w(s).is_positive), None)
        if s is None:
            return w
        w = w.compose(system.reflection(s))


def minus_one_realization(system: RootSystem, simples: Sequence[Root]):
    """(w0 of the subsystem, optional extra symmetry sigma_L).

    When w0 already negates every subsystem root, sigma_L is None.  Otherwise
    sigma_L = w0^-1∘(-1), so w0∘sigma_L = -1 on the subsystem; it permutes
    the subsystem simples, a diagram symmetry of the subsystem.
    """
    w0 = longest_element(system, simples)
    if all(w0(r) == -r for r in subsystem_roots(system, simples)):
        return w0, None
    return w0, w0.inverse().compose(system.minus_one_map())


def extends_to_ambient(
    system: RootSystem,
    L_simples: Sequence[Root],
    partial: Mapping[Root, Root],
) -> Optional[RootMap]:
    """Search W ⋊ (diagram symmetries) for a map restricting to `partial` on
    the Levi subsystem of `L_simples`.

    A witness must also map the standard radical root set (positive roots
    outside the subsystem) onto itself, which is what lets it act on the
    corresponding unipotent radical.  Returns None, or the first witness w∘d
    in the order of system.weyl_and_diagram_elements(): diagram symmetries
    as diagram_symmetries() lists them, 'id' first, Weyl elements in BFS
    order.  For each d, the Weyl elements w with w(d(i)) = t on every
    target are one intersection of the bitsets of system._weyl_sends(), and
    they are tested on the radical from the lowest bit up, which is the
    order of weyl_elements().  Only the returned witness is composed.
    """
    sub = set(subsystem_roots(system, L_simples))
    if set(partial) != sub:
        raise ValueError("partial map must be defined exactly on the Levi subsystem")
    targets = [(r.index, t.index) for r, t in partial.items()]
    radical = [r.index for r in system.positive_roots if r not in sub]
    radical_set = set(radical)
    sends = system._weyl_sends()
    weyl = system.weyl_elements()
    for d in system.diagram_symmetries().values():
        di = d.images
        found = (1 << len(weyl)) - 1
        for i, t in targets:
            found &= sends[di[i]][t]
        while found:
            low = found & -found
            w = weyl[low.bit_length() - 1]
            wi = w.images
            if all(wi[di[i]] in radical_set for i in radical):
                return w.compose(d)
            found ^= low
    return None


def verify_w0_identities(lam: Cocharacter) -> Optional[bool]:
    """Whether w = w0L-bar ∘ w0G-bar flips the radical root set of lam (the
    roots pairing > 0 with it).  None when -1 on the Levi (spanned by the
    simple roots pairing 0 with lam) does not extend to the ambient group.
    w fixes each Levi root by construction: the extension is -1 there."""
    system = lam.system
    L_simples = [s for s in system.simple_roots if pairing(s, lam) == 0]
    sub = subsystem_roots(system, L_simples)
    ext = extends_to_ambient(system, L_simples, {r: -r for r in sub})
    if ext is None:
        return None
    w = ext.compose(system.minus_one_map())  # apply w0G-bar = -1 first
    u_roots = [r for r in system.roots if pairing(r, lam) > 0]
    return {w(r) for r in u_roots} == {-r for r in u_roots}


def row_reduce(rows: Sequence[Sequence]) -> tuple:
    """Gauss-Jordan elimination over the rationals.

    Returns (reduced rows, pivot columns): the reduced row echelon form as
    Fractions and the column of each pivot in order.
    """
    A = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(A[0])):
        r = len(pivots)
        p = next((i for i in range(r, len(A)) if A[i][c] != 0), None)
        if p is None:
            continue
        A[r], A[p] = A[p], A[r]
        pivot = A[r][c]
        A[r] = [x / pivot for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
    return A, pivots


def fixed_cocharacter_lattice(m: RootMap) -> list:
    """Primitive generators of the integral cocharacters fixed by a root map
    (the kernel of m - 1 on the coweight lattice), sign-normalized."""
    n = m.system.rank
    mat = m.matrix
    rows, pivots = row_reduce([[mat[i][j] - (i == j) for j in range(n)] for i in range(n)])
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        den = lcm(*(x.denominator for x in v))
        ints = [int(x * den) for x in v]
        g = gcd(*ints)  # at least 1: the free column holds den
        ints = [x // g for x in ints]
        if next((x for x in ints if x != 0), 0) < 0:
            ints = [-x for x in ints]
        basis.append(tuple(ints))
    return basis


def label_cycles(images: Mapping[int, int]) -> str:
    """Render a label permutation in cycle notation, fixed points included."""
    seen = set()
    out = []
    for start in sorted(images):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        j = images[start]
        while j != start:
            cycle.append(j)
            seen.add(j)
            j = images[j]
        out.append("(" + " ".join(str(x) for x in cycle) + ")")
    return "".join(out)
