"""Group words in Steinberg generators of simply-laced Chevalley groups in
characteristic 2, extended by graph automorphisms.

Atoms are root elements e_zeta(c) with polynomial coefficients, Weyl
representatives n_xi, torus values chi(u) with a formal unit parameter u, and
diagram automorphisms.  In characteristic 2 every structure constant is 1 and
n_xi is its own inverse, so a word normalizes to a frame (torus part plus a
root map realized in the extended Weyl group) followed by a unipotent tail;
the tail is normal-ordered by commutator collection over a closed nilpotent
root set, using [e_zeta(x), e_xi(y)] = e_{zeta+xi}(xy) when zeta+xi is a root.
Over a graded order (each sum after its summands) collection places atoms
straight into one coefficient term set per root of the order; any other
order is read off the collection over a graded order of the same set, one
root at a time.
The adjoint action on the Lie algebra of a unipotent group is not coded
separately: Ad(g) is the derivative of conjugation, read off the collected
conjugate of a root-element product over a first-order variable.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .coeffring import SQRT, UNIT, Polynomial, VariableRegistry, mul_terms
from .rootsys import Cocharacter, Root, RootSystem, pairing


# ---------------------------------------------------------------------------
# Atoms


class RootElement:
    __slots__ = ("root", "coeff")

    def __init__(self, root: Root, coeff: Polynomial):
        self.root = root
        self.coeff = coeff

    def inverse(self):
        return self  # characteristic 2

    def __eq__(self, other):
        return isinstance(other, RootElement) and self.root == other.root and self.coeff == other.coeff

    def __hash__(self):
        return hash(("e", self.root, self.coeff))

    def __repr__(self):
        return f"e{self.root.label}({self.coeff})"


class WeylRep:
    """n_xi = e_xi(1) e_{-xi}(1) e_xi(1); self-inverse in characteristic 2."""

    __slots__ = ("root", "map")

    def __init__(self, root: Root):
        self.root = root
        self.map = root.system.reflection(root)

    def inverse(self):
        return self

    def __eq__(self, other):
        return isinstance(other, WeylRep) and self.root == other.root

    def __hash__(self):
        return hash(("n", self.root))

    def __repr__(self):
        """The grammar form: n[a] for a simple root, n[12] for any other."""
        simples = self.root.system.simple_roots
        if self.root in simples:
            return f"n[{self.root.system.short_names[simples.index(self.root)]}]"
        return f"n[{self.root.label}]"


class GraphAut:
    __slots__ = ("system", "name", "map")

    def __init__(self, system: RootSystem, name: str):
        self.system = system
        self.name = name
        self.map = system.diagram_symmetries()[name]

    def inverse(self):
        inv = self.map.inverse()
        diag = self.system.diagram_symmetries()
        return GraphAut(self.system, next(name for name, m in diag.items() if m == inv))

    def __eq__(self, other):
        return isinstance(other, GraphAut) and self.map == other.map

    def __hash__(self):
        return hash(("g", self.map))

    def __repr__(self):
        return self.name


class TorusValue:
    """chi(u) for a cocharacter chi and a formal unit variable u."""

    __slots__ = ("cochar", "unit")

    def __init__(self, cochar: Cocharacter, unit: str):
        self.cochar = cochar
        self.unit = unit

    def inverse(self):
        return TorusValue(-self.cochar, self.unit)

    def __eq__(self, other):
        return isinstance(other, TorusValue) and self.cochar == other.cochar and self.unit == other.unit

    def __hash__(self):
        return hash(("t", self.cochar, self.unit))

    def __repr__(self):
        return f"t[{self.cochar}]({self.unit})"


class GroupWord:
    __slots__ = ("system", "registry", "atoms")

    def __init__(self, system: RootSystem, registry: VariableRegistry, atoms: Iterable):
        self.system = system
        self.registry = registry
        self.atoms = tuple(atoms)

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        if self.system is not other.system or self.registry is not other.registry:
            raise ValueError("words from different systems or registries")
        return GroupWord(self.system, self.registry, self.atoms + other.atoms)

    def inverse(self) -> "GroupWord":
        return GroupWord(self.system, self.registry, [a.inverse() for a in reversed(self.atoms)])

    def __eq__(self, other):
        """Group equality as word_equal decides it; False for a word of
        another system or registry."""
        if not isinstance(other, GroupWord):
            return NotImplemented
        if self.system is not other.system or self.registry is not other.registry:
            return False
        return word_equal(self, other)

    __hash__ = None

    def __repr__(self):
        """The atoms' reprs, '*' between two root elements and '·' elsewhere;
        the text parses back to the atoms."""
        atoms = self.atoms
        out = repr(atoms[0]) if atoms else "1"
        for a, b in zip(atoms, atoms[1:]):
            out += ("*" if isinstance(a, RootElement) and isinstance(b, RootElement) else "·") + repr(b)
        return out


def word(system: RootSystem, registry: VariableRegistry, *atoms) -> GroupWord:
    return GroupWord(system, registry, atoms)


# ---------------------------------------------------------------------------
# Closed nilpotent sets, collection order, collection


def default_order(system: RootSystem, roots: Iterable[Root]) -> Optional[tuple]:
    """Collection order on the closure of `roots` under root addition, or
    None when the closure holds a root and its negative (is not nilpotent).

    The set is closed and graded in one fixed-point loop over pairs: the
    grading f is the least with f(a+b) > max(f(a), f(b)) for sums inside the
    set, so a new sum enters with that bound and an existing one is raised
    to it.  The order is ascending f, then height, then label order.

    The order depends on the set alone, so it is memoized per set.  The
    cache is bounded because random words meet many sets: 46 rounds of the
    d4-engine benchmark make 4,692 calls on 1,755 distinct sets, while one
    `verify --all` makes 23 calls on 11.
    """
    return _default_order(frozenset(roots))


@functools.lru_cache(maxsize=256)
def _default_order(roots: frozenset) -> Optional[tuple]:
    f = dict.fromkeys(roots, 1)
    if any(-r in f for r in f):
        return None
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(list(f), 2):
            c = a + b
            if c is None:
                continue
            grade = max(f[a], f[b]) + 1
            if c not in f:
                if -c in f:
                    return None
            elif f[c] >= grade:
                continue
            f[c] = grade
            changed = True
    return tuple(sorted(f, key=lambda r: (f[r], r.height, r.index)))


@functools.lru_cache(maxsize=16)
def _order_tables(order: tuple) -> tuple:
    """(pos, graded, below) for a closed nilpotent list of roots: pos maps a
    root to its position, below[s] lists the pairs (t, position of order[s] +
    order[t]) for t < s where that sum is a root, ascending in t, and graded
    says every such sum comes after both summands."""
    pos = {r: i for i, r in enumerate(order)}
    if len(pos) < len(order):
        raise ValueError("collection order lists a root twice")
    if any(-r in pos for r in pos):
        raise ValueError("root set contains a root and its negative")
    below: List[List[Tuple[int, int]]] = [[] for _ in order]
    graded = True
    for (t, a), (s, b) in itertools.combinations(enumerate(order), 2):
        c = a + b
        if c is None:
            continue
        if c not in pos:
            raise ValueError(f"root set not closed: {a} + {b} = {c} missing")
        below[s].append((t, pos[c]))
        graded = graded and pos[c] > s
    return pos, graded, below


def collect(x, order: Sequence[Root], registry: Optional[VariableRegistry] = None) -> "RadicalElement":
    """Normal-order a product of root elements over a closed nilpotent set.

    `x` is a GroupWord of RootElements, which also gives the result its
    system and registry, or an iterable of RootElements whose coefficients
    lie in `registry`, which must then be given; `order` fixes the
    target sequence of roots and must list a closed nilpotent set, each root
    once.  The word is collected over a graded order (every sum of
    two of its roots comes after both) from its right end into one term set
    per position.  An atom e_s(y) standing just after slot q moves right past
    each nonzero slot t, q < t < s, with s + t a root, by
    e_s(y) e_t(x_t) = e_t(x_t) e_s(y) e_{s+t}(y x_t), and finally adds y to
    slot s.  The spawned atom commutes with e_s, so it stands just after
    slot t and is placed by the same rule; a stack holds the atoms still to
    place, the rightmost on top.  The stack empties: the order is graded, so
    an atom spawned at s + t lands past its parent's slot s, and no chain of
    spawns is longer than the order.  The loop reads positions and sums from
    the order's tables and does no root arithmetic.  Any other order is
    served by collecting over default_order of the same set and
    re-expressing the result root by root; it is unique in every order of a
    closed nilpotent set (Steinberg, Lemma 17).
    """
    order = tuple(order)
    if isinstance(x, GroupWord):
        if registry is not None and registry is not x.registry:
            raise ValueError("coefficients from different registries")
        system, registry, atoms = x.system, x.registry, list(x.atoms)
    elif registry is None:
        raise ValueError("collect needs the registry of a list of atoms")
    else:
        system, atoms = (order[0].system if order else None), list(x)
    pos, graded, below = _order_tables(order)
    if not graded:
        graded_x = collect(atoms, default_order(system, order), registry)
        return RadicalElement(system, registry, order, _reexpress(graded_x, order))

    stack: List[tuple] = []
    for a in atoms:
        if not isinstance(a, RootElement):
            raise ValueError(f"collect expects root elements, got {a!r}")
        if a.root not in pos:
            raise ValueError(f"root {a.root} outside the collection set")
        if a.coeff.registry is not registry:
            raise ValueError("coefficients from different registries")
        if not a.coeff.is_zero:
            stack.append((pos[a.root], -1, a.coeff.terms))  # in front of slot 0

    slots = [set() for _ in order]
    while stack:
        s, q, y = stack.pop()
        for t, u in below[s]:
            if t > q and slots[t]:
                stack.append((u, t, mul_terms(registry, y, slots[t])))
        slots[s] ^= y
    coeffs = {r: Polynomial(registry, frozenset(c)) for r, c in zip(order, slots) if c}
    return RadicalElement(system, registry, order, coeffs)


def _reexpress(x: "RadicalElement", order: tuple) -> Dict[Root, Polynomial]:
    """Coefficients over `order` of x, which is collected over a graded order
    of the same set.  Walking x's order one root at a time, the coefficient
    at r is x_r plus the r-coefficient of the roots found so far, listed in
    `order` and collected over x's order: the roots after r in x's order
    span a normal subgroup, modulo which e_r is central, so where `order`
    puts r does not matter."""
    found: Dict[Root, Polynomial] = {}
    for r in x.order:
        have = collect([RootElement(s, found[s]) for s in order if s in found], x.order, x.registry)
        c = x.coefficient(r) + have.coefficient(r)
        if not c.is_zero:
            found[r] = c
    return found


class RadicalElement:
    """Normal-ordered product of root elements over a closed nilpotent set."""

    __slots__ = ("system", "registry", "order", "coeffs")

    def __init__(self, system, registry, order: Sequence[Root], coeffs: Mapping[Root, Polynomial]):
        self.system = system
        self.registry = registry
        self.order = tuple(order)
        self.coeffs = {r: c for r, c in coeffs.items() if not c.is_zero}

    def coefficient(self, root) -> Polynomial:
        if isinstance(root, int):
            root = self.system.root_by_label(root)
        return self.coeffs.get(root, self.registry.zero())

    def atoms(self) -> tuple:
        return tuple(RootElement(r, self.coeffs[r]) for r in self.order if r in self.coeffs)

    def as_word(self) -> GroupWord:
        return GroupWord(self.system, self.registry, self.atoms())

    @property
    def support(self) -> tuple:
        return tuple(r for r in self.order if r in self.coeffs)

    @property
    def is_trivial(self) -> bool:
        return not self.coeffs

    def reordered(self, new_order: Sequence[Root]) -> "RadicalElement":
        return collect(self.atoms(), new_order, self.registry)

    def __eq__(self, other):
        if not isinstance(other, RadicalElement):
            return NotImplemented
        if self.system is not other.system or self.registry is not other.registry:
            return False
        if self.order == other.order:
            return self.coeffs == other.coeffs
        return word_equal(self.as_word(), other.as_word())

    def __repr__(self):
        return repr(self.as_word())


def _coordinate_name(r: Root) -> str:
    """The coordinate of e_r in a generic radical element: x12, xm12."""
    return f"x{r.label}" if r.label > 0 else f"xm{-r.label}"


def generic_radical_element(system, registry, order: Sequence[Root]) -> RadicalElement:
    """Product of e_zeta(x_zeta) with fresh symbolic coordinates, in order."""
    coeffs = {r: registry.add(_coordinate_name(r)) for r in order}
    return RadicalElement(system, registry, order, coeffs)


# ---------------------------------------------------------------------------
# Frame handling and word normal form


Normalized = namedtuple("Normalized", "frame_map torus tail_atoms tail")


def normalize(w: GroupWord) -> Normalized:
    """Push every root element right of every frame atom (`_push`) and
    collect the freely reduced tail when its support closure is nilpotent
    (`tail`; None when it is not)."""
    frame_map, torus, tail = _push(w)
    return Normalized(frame_map, torus, tail, _collect_closure(w.system, w.registry, tail))


def _push(w: GroupWord) -> tuple:
    """(frame map, torus part, tail) of w: every root element pushed right
    of every frame atom, in one right-to-left pass that merges a pushed
    e_r(a) and an e_r(b) just right of it into e_r(a+b), dropped when
    a+b = 0.

    The frame atoms right of the current position are held as an inverse root
    map inv and, per unit u, one cocharacter chi_u: their torus part moved to
    the left of their root map.  A root element e_r(c) passes all of them at
    once as e_{inv(r)}(c * prod_u u^-<r, chi_u>).  A Weyl or graph atom with
    map m sets chi_u to m(chi_u) and inv to inv∘m^-1; a torus atom chi(u) adds
    chi to chi_u.  At the left end the frame map is inv^-1 and the torus part
    is the nonzero chi_u.
    """
    system, registry = w.system, w.registry
    inv = system.identity_map()
    units: Dict[str, Cocharacter] = {}
    tail: List[RootElement] = []
    for atom in reversed(w.atoms):
        if isinstance(atom, RootElement):
            if atom.coeff.is_zero:
                continue
            coeff = atom.coeff
            for u, chi in units.items():
                p = pairing(atom.root, chi)
                if p:
                    coeff = registry.var(u) ** -p * coeff
            root = inv(atom.root)
            if tail and tail[-1].root is root:  # e_r(a) e_r(b) = e_r(a+b)
                coeff = coeff + tail.pop().coeff
                if coeff.is_zero:
                    continue
            tail.append(RootElement(root, coeff))
        elif isinstance(atom, TorusValue):
            chi = units.get(atom.unit)
            units[atom.unit] = atom.cochar if chi is None else chi + atom.cochar
        elif isinstance(atom, (WeylRep, GraphAut)):
            units = {u: atom.map.act_cochar(chi) for u, chi in units.items()}
            inv = inv.compose(atom.map.inverse())
        else:
            raise ValueError(f"unknown atom {atom!r}")
    tail.reverse()
    torus = {u: chi.coeffs for u, chi in units.items() if not chi.is_zero}
    return inv.inverse(), torus, tuple(tail)


def _collect_closure(system, registry, tail: tuple) -> Optional[RadicalElement]:
    """The tail collected over the default order of its support closure, or
    None when that closure is not nilpotent."""
    order = default_order(system, [e.root for e in tail])
    return None if order is None else collect(GroupWord(system, registry, tail), order)


def word_equal(w1: GroupWord, w2: GroupWord) -> bool:
    """True when v1 v2^-1, for the normalized words v1 and v2 of w1 and w2,
    normalizes to 1: an identity frame map, no torus part and a tail that
    collects to 1.  False also when that tail does not collect.

    Valid because in characteristic 2 the Weyl representatives form a copy of
    the Weyl group (n_xi^2 = xi^v(-1) = 1) and the diagram symmetries act on
    them by relabeling, so a frame is determined by its torus part and its
    root map, and a collected tail is 1 exactly when every coefficient is 0
    (Steinberg, Lemma 17).  Normalizing each word first lets two collected
    tails meet over the closure of their supports.

    Two identically spelled words (one system, one registry, equal atoms)
    are equal without normalizing: their quotient freely reduces to 1.
    """
    if w1.system is w2.system and w1.registry is w2.registry and w1.atoms == w2.atoms:
        return True
    n = normalize(normalized_word(w1) * normalized_word(w2).inverse())
    return n.frame_map.is_identity() and not n.torus and n.tail is not None and n.tail.is_trivial


def normalized_word(w: GroupWord) -> GroupWord:
    n = normalize(w)
    tail_atoms = n.tail_atoms if n.tail is None else n.tail.atoms()
    frame_atoms = ()
    if not n.frame_map.is_identity() or n.torus:
        frame_atoms = tuple(a for a in w.atoms if not isinstance(a, RootElement))
    return GroupWord(w.system, w.registry, frame_atoms + tail_atoms)


# ---------------------------------------------------------------------------
# Conjugation


def conjugate(g: GroupWord, h: GroupWord) -> GroupWord:
    """g h g^-1, normalized to frame-then-tail form.

    When the tail support is not nilpotent the word is returned pushed but
    uncollected.
    """
    return normalized_word(g * h * g.inverse())


# ---------------------------------------------------------------------------
# Adjoint action, read off conjugation


EPS = "ε"  # the derivative's variable; the ASCII-only word parser never makes it


def adjoint(g: GroupWord, v: Mapping[Root, Polynomial]) -> Dict[Root, Polynomial]:
    """Ad(g) v for v = sum v_r e_r in the Lie algebra of a unipotent group
    that g normalizes: the EPS-linear part of each collected tail coefficient
    of g u g^-1, u = prod e_r(EPS v_r).  Raises ValueError when g or v
    already involves EPS, or when the tail does not collect (v lies outside
    every unipotent group that g normalizes)."""
    registry = g.registry
    coeffs = list(v.values()) + [a.coeff for a in g.atoms if isinstance(a, RootElement)]
    if any(c.involves(EPS) for c in coeffs):
        raise ValueError(f"the derivative's variable {EPS} is already in use")
    eps = registry.add(EPS)
    u = GroupWord(g.system, registry, [RootElement(r, eps * c) for r, c in v.items()])
    n = normalize(g * u * g.inverse())
    if n.tail is None:
        raise ValueError("g does not normalize a unipotent group holding v")
    return {r: d for r, c in n.tail.coeffs.items() if (d := c.linear_part(EPS))}


# ---------------------------------------------------------------------------
# Centralizer constraint systems


class SolvedSystem:
    """Union-find result of a triangular constraint system over F2.  The
    unknowns forced to 0 form the class of ZERO, which no unknown name
    equals and which, ranked first, represents its class."""

    ZERO = None

    def __init__(self, unknowns: Sequence[str]):
        self.unknowns = tuple(unknowns)
        self._position = {v: i for i, v in enumerate((self.ZERO,) + self.unknowns, -1)}
        self._parent = {v: v for v in self._position}
        self.forced: List[Polynomial] = []
        self.residuals: List[Polynomial] = []

    def rep(self, v: str) -> str:
        while self._parent[v] != v:
            self._parent[v] = self._parent[self._parent[v]]
            v = self._parent[v]
        return v

    def merge(self, a: str, b: str):
        ra, rb = self.rep(a), self.rep(b)
        if ra != rb:
            lo, hi = sorted((ra, rb), key=self._position.get)
            self._parent[hi] = lo  # the earliest unknown represents the class

    def is_zero(self, v: str) -> bool:
        return self.rep(v) == self.ZERO

    def classes(self) -> List[List[str]]:
        """Classes of two or more unknowns, each in the order of `unknowns`,
        ordered by their first unknown."""
        groups: Dict[str, List[str]] = {}
        for v in self.unknowns:
            groups.setdefault(self.rep(v), []).append(v)
        return [g for g in groups.values() if len(g) > 1]

    @property
    def triangular(self) -> bool:
        return not self.residuals

    def binding(self, registry: VariableRegistry) -> Dict[str, Polynomial]:
        out = {}
        for v in self.unknowns:
            r = self.rep(v)
            if r != v:
                out[v] = registry.zero() if r == self.ZERO else registry.var(r)
        return out


class ConstraintSystem:
    """Polynomial equations p = 0 over the coordinates of a generic element
    of the radical (one unknown per root, in radical order), solved once
    into `solved`."""

    def __init__(self, registry: VariableRegistry, equations: Iterable[Polynomial], radical: Sequence[Root]):
        self.registry = registry
        self.equations = tuple(dict.fromkeys(p for p in equations if not p.is_zero))
        self.radical = tuple(radical)
        self.unknowns = tuple(_coordinate_name(r) for r in self.radical)
        self.solved = self.solve()

    def solve(self) -> SolvedSystem:
        solved = SolvedSystem(self.unknowns)
        unknown_set = set(self.unknowns)
        pending = list(self.equations)
        while True:  # ends: every productive pass drops a pending equation
            binding = solved.binding(self.registry)
            nxt, residuals = [], []
            for p in pending:
                q = p.substitute(binding) if binding else p
                if not q.is_zero and not _apply_rule(q, unknown_set, solved):
                    nxt.append(p)
                    residuals.append(q)
            if len(nxt) == len(pending):
                # a failed rule changes nothing, so this pass's binding is final
                solved.residuals = list(dict.fromkeys(residuals))
                return solved
            pending = nxt

    def free_roots(self) -> tuple:
        return tuple(r for r in self.radical if not self.solved.is_zero(_coordinate_name(r)))

    def linear_classes(self) -> List[List[str]]:
        """Equality classes read off the degree-one binomial equations only
        (the raw coordinate equalities, before quadratic propagation)."""
        linear = SolvedSystem(self.unknowns)
        unknowns = set(self.unknowns)
        for p in self.equations:
            pair = _binomial(p)
            if pair is not None and pair[2] == 1 and unknowns.issuperset(pair[:2]):
                linear.merge(*pair[:2])
        return linear.classes()

    def nonlinear_equations(self) -> List[Polynomial]:
        return [p for p in self.equations if (b := _binomial(p)) is None or b[2] != 1]

    def subgroup_description(self) -> str:
        if not self.solved.triangular:
            return "unsolved"
        free = self.free_roots()
        if not free:
            return "1"
        # a class's representative is its first unknown, so it comes first in radical order
        labels = list(dict.fromkeys(self.solved.rep(_coordinate_name(r)) for r in free))
        if len(free) == len(labels):
            return " x ".join(f"U_{r.label}" for r in free)
        return "coordinates " + ", ".join(labels)


def _binomial(p: Polynomial) -> Optional[Tuple[str, str, int]]:
    """(x, y, k) when p = x^k + y^k for two variables x and y, else None."""
    if len(p.terms) != 2 or any(len(m) != 1 for m in p.terms):
        return None
    ((i, k),), ((j, e),) = sorted(p.terms)
    return (p.registry.names[i], p.registry.names[j], k) if k == e else None


def _apply_rule(q: Polynomial, unknowns: set, solved: SolvedSystem) -> bool:
    reg = q.registry
    if len(q.terms) == 1:
        # x^k * (nonzero constants) = 0 forces x = 0 over a field
        (m,) = q.terms
        hits = [(reg.names[i], e) for i, e in m if reg.names[i] in unknowns]
        if len(hits) != 1 or any(reg.kinds[i] not in (UNIT, SQRT)
                                 for i, _ in m if reg.names[i] not in unknowns):
            return False
        [(name, e)] = hits
        if e >= 2:
            solved.forced.append(q)
        solved.merge(solved.ZERO, name)
        return True
    pair = _binomial(q)
    if pair is None or not unknowns.issuperset(pair[:2]) or pair[2] & (pair[2] - 1):
        return False
    x, y, k = pair
    # x^(2^k) + y^(2^k) = (x+y)^(2^k): Frobenius is injective
    if k >= 2:
        solved.forced.append(q)
    solved.merge(x, y)
    return True


def centralizer_system(generators: Sequence[GroupWord], radical: Sequence[Root],
                       registry: VariableRegistry) -> ConstraintSystem:
    """Equations saying a generic radical element commutes with each generator.

    Each conjugate g u g^-1 is pushed (its frame and torus parts cancel by
    construction) and its tail collected once, straight over the radical
    order.  A tail with a root outside the radical is first collected over
    its own support closure, which may cancel that root; when the collected
    tail still leaves the radical, or does not collect, ValueError.

    Torus values carry formal unit parameters, so commuting with the full
    torus image is encoded by splitting each equation into its unit-exponent
    layers, every one of which must vanish.
    """
    radical = tuple(radical)
    system = radical[0].system
    inside = set(radical)
    u = generic_radical_element(system, registry, radical)
    zero = registry.zero()
    equations: List[Polynomial] = []
    for g in generators:
        _, _, tail = _push(g * u.as_word() * g.inverse())
        if not inside.issuperset(e.root for e in tail):
            closed = _collect_closure(system, registry, tail)
            if closed is None or not inside.issuperset(closed.support):
                raise ValueError("conjugate of the radical element did not return to the radical")
            tail = closed.atoms()
        got = collect(tail, radical, registry).coeffs
        for r in radical:
            eq = got.get(r, zero) + u.coeffs[r]
            if eq.terms:
                equations.extend(eq.split_by_units().values())
    return ConstraintSystem(registry, equations, radical)
