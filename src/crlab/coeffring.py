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
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

ORDINARY = "ordinary"
UNIT = "unit"
SQRT = "sqrt"

SOLVABLE_CANDIDATE = "SOLVABLE_CANDIDATE"
UNSOLVABLE_OVER_K = "UNSOLVABLE_OVER_K"

Monomial = Tuple[Tuple[int, int], ...]

_ONE = frozenset({()})


class VariableRegistry:
    """Ordered, append-only table of variable names and kinds."""

    def __init__(self):
        self.names: list = []
        self.kinds: list = []
        self._index: Dict[str, int] = {}

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
        self._index[name] = len(self.names)
        self.names.append(name)
        self.kinds.append(kind)
        return self.var(name)

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
        i = self.index(name)
        return Polynomial(self, frozenset({((i, 1),)}))

    def zero(self) -> "Polynomial":
        return Polynomial(self, frozenset())

    def one(self) -> "Polynomial":
        return Polynomial(self, frozenset({()}))

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
        return Polynomial(self.registry, self.terms ^ other.terms)

    __sub__ = __add__

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        if self.terms == _ONE:
            return other
        if other.terms == _ONE:
            return self
        return Polynomial(self.registry, frozenset(mul_terms(self.registry, self.terms, other.terms)))

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            return self.unit_inverse() ** (-n)
        out = self.registry.one()
        base = self
        while True:
            if n & 1:
                out = out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def unit_inverse(self) -> "Polynomial":
        """Inverse of a unit monomial (single term over unit variables)."""
        if len(self.terms) != 1:
            raise ValueError("only unit monomials are invertible")
        (m,) = self.terms
        for i, _ in m:
            if self.registry.kinds[i] != UNIT:
                raise ValueError("only unit monomials are invertible")
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

    @property
    def involves_sqrt(self) -> bool:
        s = self.registry.sqrt_name
        return s is not None and self.involves(s)

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
        groups: Dict[Monomial, set] = {}
        for m in self.terms:
            unit_part = tuple((i, e) for i, e in m if reg.kinds[i] == UNIT)
            rest = tuple((i, e) for i, e in m if reg.kinds[i] != UNIT)
            groups.setdefault(unit_part, set()).add(rest)
        return {k: Polynomial(reg, frozenset(v)) for k, v in groups.items()}

    # -- substitution and evaluation ------------------------------------------

    def substitute(self, bindings: Mapping[str, "Polynomial"]) -> "Polynomial":
        reg = self.registry
        idx_bindings = {}
        for name, val in bindings.items():
            if val.registry is not reg:
                raise ValueError("binding from a different registry")
            i = reg.index(name)
            if reg.kinds[i] == UNIT and not val.is_unit_monomial():
                raise ValueError(f"substituting a non-unit into Laurent variable {name!r}")
            idx_bindings[i] = val
        out = reg.zero()
        for m in self.terms:
            term = reg.one()
            for i, e in m:
                if i in idx_bindings:
                    term = term * (idx_bindings[i] ** e)
                else:
                    term = term * Polynomial(reg, frozenset({((i, e),)}))
            out = out + term
        return out

    def evaluate(self, assign: Mapping[str, int], gf) -> int:
        """Value in a finite field of characteristic 2 (for the matrix oracle)."""
        total = 0
        for m in self.terms:
            v = 1
            for i, e in m:
                x = assign[self.registry.names[i]]
                if e < 0:
                    x = gf.inv(x)
                    e = -e
                v = gf.mul(v, gf.pow(x, e))
            total ^= v
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


def classify_square_obstruction(p: Polynomial) -> str:
    """UNSOLVABLE_OVER_K exactly when p = q^2 + s^2 with q free of the
    square-root constant s, so p = 0 would force a rational square root of
    a = s^2; everything else is SOLVABLE_CANDIDATE."""
    reg = p.registry
    s = reg.sqrt_name
    if s is None:
        return SOLVABLE_CANDIDATE
    si = reg.index(s)
    s_squared = ((si, 2),)
    if s_squared not in p.terms:
        return SOLVABLE_CANDIDATE
    for m in p.terms:
        if m == s_squared:
            continue
        if any(i == si for i, _ in m):
            return SOLVABLE_CANDIDATE
        if any(e % 2 for _, e in m):
            return SOLVABLE_CANDIDATE
    return UNSOLVABLE_OVER_K
