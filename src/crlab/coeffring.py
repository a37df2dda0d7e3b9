"""Exact multivariate polynomial arithmetic over F2.

Variables come in three kinds: ordinary coordinates, unit (Laurent) torus
parameters which may carry negative exponents, and a single square-root
constant s with the convention a = s^2, so that "lies in the base field" is
the syntactic condition of s-freeness.

A polynomial is a set of monomials (F2 coefficients are presence bits); a
monomial is a sorted tuple of (variable index, exponent) pairs.  Registries
are append-only so that scenario code can introduce coordinates on the fly.

Two monomials multiply by one merge of their sorted pairs.  A product of
polynomials XORs, for each term m1 of the smaller factor, the set
{m1*m2 : m2 in the larger factor} into the result; that is exact mod 2
because m2 -> m1*m2 is injective, so no row holds a product twice.
A sum with 0 and a product with 0 or 1 return an operand, after the
registry check, instead of building a new polynomial, and a registry hands
out one shared polynomial for each variable and one each for 0 and 1;
polynomials are immutable, so sharing one is safe.
"""

from __future__ import annotations

import operator
from typing import Dict, Mapping, Optional, Tuple

ORDINARY = "ordinary"
UNIT = "unit"
SQRT = "sqrt"

Monomial = Tuple[Tuple[int, int], ...]

_ONE = frozenset({()})


class VariableRegistry:
    """Ordered, append-only table of variable names and kinds.

    It hands out one shared polynomial per variable and one each for 0 and
    1, built once: polynomials are immutable, so every caller may hold the
    same object.  Two registries never share one."""

    def __init__(self):
        self.names: list = []
        self.kinds: list = []
        self._index: Dict[str, int] = {}
        self._vars: list = []  # the polynomial of each variable, by index
        self._zero = Polynomial(self, frozenset())
        self._one = Polynomial(self, _ONE)

    def add(self, name: str, kind: str = ORDINARY) -> "Polynomial":
        if kind not in (ORDINARY, UNIT, SQRT):
            raise ValueError(f"unknown variable kind {kind!r}")
        if name in self._index:
            i = self._index[name]
            if self.kinds[i] != kind:
                raise ValueError(f"variable {name!r} already registered as {self.kinds[i]}")
            return self.var(name)
        if kind == SQRT and SQRT in self.kinds:
            raise ValueError("only one square-root constant per registry")
        i = self._index[name] = len(self.names)
        self.names.append(name)
        self.kinds.append(kind)
        self._vars.append(Polynomial(self, frozenset({((i, 1),)})))
        return self._vars[i]

    def index(self, name: str) -> int:
        if name not in self._index:
            raise KeyError(f"unknown variable {name!r}")
        return self._index[name]

    def kind(self, name: str) -> str:
        return self.kinds[self.index(name)]

    def has(self, name: str) -> bool:
        return name in self._index

    @property
    def sqrt_name(self) -> Optional[str]:
        for n, k in zip(self.names, self.kinds):
            if k == SQRT:
                return n
        return None

    def var(self, name: str) -> "Polynomial":
        return self._vars[self.index(name)]

    def zero(self) -> "Polynomial":
        return self._zero

    def one(self) -> "Polynomial":
        return self._one

    def const(self, c: int) -> "Polynomial":
        return self.one() if c % 2 else self.zero()


def _mul_mono(reg: VariableRegistry, m1: Monomial, m2: Monomial) -> Monomial:
    """Product of two monomials by one merge of their sorted pairs."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        a, b = m1[i], m2[j]
        if a[0] < b[0]:
            out.append(a)
            i += 1
        elif b[0] < a[0]:
            out.append(b)
            j += 1
        else:
            e = a[1] + b[1]
            if e:
                if e < 0 and reg.kinds[a[0]] != UNIT:
                    raise ValueError(f"negative exponent on non-unit variable {reg.names[a[0]]!r}")
                out.append((a[0], e))
            i += 1
            j += 1
    return tuple(out) + m1[i:] + m2[j:]


def mul_terms(reg: VariableRegistry, a, b) -> set:
    """Product of two sets of monomials, as a new set."""
    if len(a) > len(b):
        a, b = b, a
    acc: set = set()
    for m1 in a:
        acc ^= {_mul_mono(reg, m1, m2) for m2 in b}
    return acc


def power(mul, one, a, n: int):
    """a^n for n >= 0 by square and multiply, through the product `mul`."""
    out = one
    while True:
        if n & 1:
            out = mul(out, a)
        n >>= 1
        if not n:
            return out
        a = mul(a, a)


class Polynomial:
    """Element of F2[ordinary vars][units, units^-1]."""

    __slots__ = ("registry", "terms")

    def __init__(self, registry: VariableRegistry, terms: frozenset):
        self.registry = registry
        self.terms = terms

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.registry is not other.registry:
            raise ValueError("polynomials from different registries")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        return Polynomial(self.registry, self.terms ^ other.terms)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        if not self.terms or other.terms == _ONE:
            return self
        if not other.terms or self.terms == _ONE:
            return other
        return Polynomial(self.registry, frozenset(mul_terms(self.registry, self.terms, other.terms)))

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            return self.unit_inverse() ** (-n)
        return power(Polynomial.__mul__, self.registry.one(), self, n)

    def unit_inverse(self) -> "Polynomial":
        """Inverse of a unit monomial (single term over unit variables)."""
        if not self.is_unit_monomial():
            raise ValueError("only unit monomials are invertible")
        (m,) = self.terms
        return Polynomial(self.registry, frozenset({tuple((i, -e) for i, e in m)}))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_one(self) -> bool:
        return self.terms == _ONE

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.registry is other.registry
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(self.terms)

    # -- structure queries ---------------------------------------------------

    def involves(self, name: str) -> bool:
        if not self.registry.has(name):
            return False
        i = self.registry.index(name)
        return any(v == i for m in self.terms for v, _ in m)

    def linear_part(self, name: str) -> "Polynomial":
        """The coefficient of name^1, a polynomial free of `name`."""
        if not self.registry.has(name):
            return self.registry.zero()
        i = self.registry.index(name)
        return Polynomial(self.registry, frozenset(
            tuple(p for p in m if p[0] != i) for m in self.terms if (i, 1) in m))

    def is_unit_monomial(self) -> bool:
        if len(self.terms) != 1:
            return False
        (m,) = self.terms
        return all(self.registry.kinds[i] == UNIT for i, _ in m)

    def split_by_units(self) -> Dict[Monomial, "Polynomial"]:
        """Group terms by their unit-variable part.

        A polynomial identity that must hold for every value of the formal
        unit parameters forces each group to vanish separately (the base
        field is infinite).
        """
        reg = self.registry
        kinds = reg.kinds
        if not any(kinds[i] == UNIT for m in self.terms for i, _ in m):
            return {(): self} if self.terms else {}
        groups: Dict[Monomial, set] = {}
        for m in self.terms:
            unit_part = tuple((i, e) for i, e in m if kinds[i] == UNIT)
            rest = tuple((i, e) for i, e in m if kinds[i] != UNIT)
            groups.setdefault(unit_part, set()).add(rest)
        return {k: Polynomial(reg, frozenset(v)) for k, v in groups.items()}

    # -- substitution and evaluation ------------------------------------------

    def substitute(self, bindings: Mapping[str, "Polynomial"]) -> "Polynomial":
        reg = self.registry
        for name, val in bindings.items():
            if val.registry is not reg:
                raise ValueError("binding from a different registry")
            if reg.kind(name) == UNIT and not val.is_unit_monomial():
                raise ValueError(f"substituting a non-unit into Laurent variable {name!r}")
        ring = PolyRing(reg)
        return self.evaluate({**ring.generic_point(), **bindings}, ring)

    def evaluate(self, assign: Mapping[str, object], ring):
        """Value at the point `assign` of `ring`, any ring with the oracle's
        zero, one, add, mul and pow; ring.pow inverts for negative exponents.
        0 and 1 are the ring's own zero and one, with no ring operation."""
        terms = self.terms
        if not terms:
            return ring.zero()
        if terms == _ONE:
            return ring.one()
        names = self.registry.names
        total = ring.zero()
        for m in terms:
            v = ring.one()
            for i, e in m:
                x = assign[names[i]]
                v = ring.mul(v, x if e == 1 else ring.pow(x, e))
            total = ring.add(total, v)
        return total

    # -- rendering -------------------------------------------------------------

    def _key(self, m: Monomial):
        """Degree descending, then exponents descending in registry order."""
        neg_exps = [0] * len(self.registry.names)
        deg = 0
        for i, e in m:
            neg_exps[i] = -e
            deg += e
        return (-deg, tuple(neg_exps))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=self._key):
            if not m:
                parts.append("1")
                continue
            bits = []
            for i, e in m:
                name = self.registry.names[i]
                if bits and bits[-1][-1].isalpha():
                    bits.append("*")  # a bare letters-only name would absorb the next one
                bits.append(name if e == 1 else f"{name}^{e}")
            parts.append("".join(bits))
        return "+".join(parts)

    def __repr__(self):
        return f"Polynomial({self})"


class PolyRing:
    """The engine's polynomial ring of one registry, with the protocol of
    `Polynomial.evaluate`.  At the generic point, which maps each name to its
    own variable, a polynomial evaluates to itself.  Only unit monomials are
    inverted, which is all an SL3 determinant or a torus entry needs.

    add, mul and pow are Python's operators themselves, so a ring operation
    costs no frame of its own and still runs Polynomial's current `+`, `*`
    and `**`; a subclass may override them as methods."""

    def __init__(self, registry: VariableRegistry):
        self.registry = registry

    def zero(self) -> Polynomial:
        return self.registry.zero()

    def one(self) -> Polynomial:
        return self.registry.one()

    add = staticmethod(operator.add)
    mul = staticmethod(operator.mul)
    pow = staticmethod(operator.pow)

    def inv(self, a: Polynomial) -> Polynomial:
        return a.unit_inverse()

    def generic_point(self) -> Dict[str, Polynomial]:
        return {name: self.registry.var(name) for name in self.registry.names}


def square_obstruction_witness(p: Polynomial) -> Optional[Polynomial]:
    """The q free of the square-root constant s with p = q^2 + s^2, or None.
    Such a q makes p = (q+s)^2, so p = 0 forces q = s, a square root of
    a = s^2 that the base field lacks; q = 0 (p = s^2) is a witness too.
    Over F2, q^2 has the monomials of q with doubled exponents, so q halves
    those of p + s^2, which must all be even (t^-2 = (t^-1)^2 counts)."""
    reg = p.registry
    s = reg.sqrt_name
    if s is None:
        return None
    s_squared = reg.var(s) ** 2
    q_squared = p + s_squared
    if (not s_squared.terms <= p.terms or q_squared.involves(s)
            or any(e % 2 for m in q_squared.terms for _, e in m)):
        return None
    return Polynomial(reg, frozenset(tuple((i, e // 2) for i, e in m) for m in q_squared.terms))
