"""Round-trip text grammar for group words and polynomials.

Word atoms:  e<label>(poly)   root element (label may be negative)
             n[<simple>]      Weyl representative; simple name or root label
             t[<cochar>](<unit>)  torus value with a formal unit variable
             sigma, sigma2, id, tau0, ...   diagram symmetries
Atoms juxtapose (whitespace, '*' or '.' separators all work); '^-1' inverts
the preceding atom and '^k' repeats it.  Polynomials use '+', implicit or
'*' multiplication, '^' powers (negative only on unit variables), and
variable names of the shape letters-then-digits.

Unknown variable names are registered on the fly: 's' as the square-root
constant, names starting with 't' as units, everything else ordinary.
"""

from __future__ import annotations

import re
from typing import List, Optional

from .coeffring import ORDINARY, SQRT, UNIT, Polynomial, VariableRegistry, _mul_mono
from .chevalley import (
    GraphAut,
    GroupWord,
    RadicalElement,
    RootElement,
    TorusValue,
    WeylRep,
)
from .rootsys import Cocharacter, Root, RootSystem

_NAME = re.compile(r"[A-Za-z]+[0-9]*")
_INT = re.compile(r"-?[0-9]+")
_DIGITS = re.compile(r"[0-9]+")
_ROOT_ATOM = re.compile(r"e-?[0-9]")


def default_kind(name: str) -> str:
    if name == "s":
        return SQRT
    if name.startswith("t"):
        return UNIT
    return ORDINARY


class ExprError(ValueError):
    pass


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self, seps: str = " \t\n"):
        while self.pos < len(self.text) and self.text[self.pos] in seps:
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ExprError(f"expected {ch!r} at position {self.pos} in {self.text!r}")
        self.pos += 1

    def match_re(self, pattern) -> Optional[str]:
        m = pattern.match(self.text, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        return m.group(0)

    def until(self, ch: str) -> str:
        end = self.text.find(ch, self.pos)
        if end < 0:
            raise ExprError(f"missing {ch!r} in {self.text!r}")
        out = self.text[self.pos:end]
        self.pos = end + 1
        return out

    def balanced_parens(self) -> str:
        self.expect("(")
        depth, start = 1, self.pos
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    out = self.text[start:self.pos]
                    self.pos += 1
                    return out
            self.pos += 1
        raise ExprError(f"unbalanced parentheses in {self.text!r}")

    @property
    def done(self) -> bool:
        return self.pos >= len(self.text)


# ---------------------------------------------------------------------------
# polynomials


def parse_poly(text: str, registry: VariableRegistry) -> Polynomial:
    sc = _Scanner(text.strip())
    p = _parse_sum(sc, registry)
    sc.skip_ws()
    if not sc.done:
        raise ExprError(f"trailing input in polynomial {text!r}")
    return p


def _parse_sum(sc, reg):
    p = _parse_product(sc, reg)
    sc.skip_ws()
    if sc.peek() != "+":
        return p
    terms = set(p.terms)
    while sc.peek() == "+":
        sc.pos += 1
        terms ^= _parse_product(sc, reg).terms
        sc.skip_ws()
    return Polynomial(reg, frozenset(terms))


def _parse_product(sc, reg):
    """One product of factors.  Variable powers merge into a single
    monomial; only parenthesized and constant factors multiply as
    polynomials."""
    m: tuple = ()
    p = None
    while True:
        f = _parse_factor(sc, reg)
        if isinstance(f, Polynomial):
            p = f if p is None else p * f
        else:
            m = _mul_mono(reg, m, f)
        sc.skip_ws()
        c = sc.peek()
        if c == "*":
            sc.pos += 1
            sc.skip_ws()
            c = sc.peek()
        if c != "(" and not c.isalnum():
            break
    mono = Polynomial(reg, frozenset({m}))
    return mono if p is None else p * mono


def _parse_factor(sc, reg):
    """A Polynomial for a parenthesized or constant factor, a monomial
    for a power of a variable."""
    sc.skip_ws()
    if sc.peek() == "(":
        inner = sc.balanced_parens()
        base = parse_poly(inner, reg)
    elif sc.peek().isdigit():
        base = reg.const(int(sc.match_re(_INT)))
    else:
        name = sc.match_re(_NAME)
        if name is None:
            raise ExprError(f"expected a variable at position {sc.pos} in {sc.text!r}")
        if not reg.has(name):
            reg.add(name, default_kind(name))
        base = reg.index(name)
    e = _parse_exponent(sc)
    if isinstance(base, Polynomial):
        return base if e == 1 else base ** e
    if e < 0 and reg.kinds[base] != UNIT:
        raise ValueError("only unit monomials are invertible")
    return ((base, e),) if e else ()


def _parse_exponent(sc):
    if sc.peek() != "^":
        return 1
    sc.pos += 1
    e = sc.match_re(_INT)
    if e is None:
        raise ExprError(f"expected an exponent at position {sc.pos}")
    return int(e)


# ---------------------------------------------------------------------------
# root and cocharacter combinations


def parse_root(text: str, system: RootSystem) -> Root:
    text = text.strip()
    if _INT.fullmatch(text):
        return system.root_by_label(int(text))
    coeffs = _parse_combo(text, system)
    return system.root(coeffs)


def parse_cochar(text: str, system: RootSystem) -> Cocharacter:
    return system.cocharacter(_parse_combo(text.strip(), system))


def _parse_combo(text: str, system: RootSystem) -> tuple:
    coeffs = [0] * system.rank
    sc = _Scanner(text)
    sign = 1
    sc.skip_ws()
    if sc.peek() == "-":
        sign = -1
        sc.pos += 1
    while not sc.done:
        sc.skip_ws()
        num = sc.match_re(_DIGITS)
        if num is not None and sc.peek() == "*":
            sc.pos += 1
        name = sc.match_re(_NAME)
        if name is None:
            raise ExprError(f"expected a simple-root name in {text!r}")
        idx = None
        for i, (long, short) in enumerate(zip(system.simple_names, system.short_names)):
            if name in (long, short):
                idx = i
                break
        if idx is None:
            raise ExprError(f"unknown simple root {name!r} in {text!r}")
        coeffs[idx] += sign * int(num or 1)
        sc.skip_ws()
        if sc.done:
            break
        if sc.peek() == "+":
            sign = 1
            sc.pos += 1
        elif sc.peek() == "-":
            sign = -1
            sc.pos += 1
        else:
            raise ExprError(f"expected '+' or '-' at position {sc.pos} in {text!r}")
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# words


def parse_word(text: str, system: RootSystem, registry: VariableRegistry) -> GroupWord:
    sc = _Scanner(text)
    atoms: List = []
    while True:
        sc.skip_ws(" \t\n*.·")
        if sc.done:
            break
        if sc.peek() == "1":
            sc.pos += 1  # identity
            continue
        atom = _parse_atom(sc, system, registry)
        sc.skip_ws()
        k = _parse_exponent(sc)
        atoms.extend([atom.inverse()] * -k if k < 0 else [atom] * k)
    return GroupWord(system, registry, atoms)


def _parse_atom(sc, system, registry):
    c = sc.peek()
    if c == "e" and _ROOT_ATOM.match(sc.text, sc.pos):
        sc.pos += 1
        label = int(sc.match_re(_INT))
        inner = sc.balanced_parens()
        coeff = parse_poly(inner, registry)
        return RootElement(system.root_by_label(label), coeff)
    if c == "n" and sc.text.startswith("n[", sc.pos):
        sc.pos += 2
        ref = sc.until("]").strip()
        if _INT.fullmatch(ref):
            root = system.root_by_label(int(ref))
        else:
            root = system.simple(ref)
        return WeylRep(root)
    if c == "t" and sc.text.startswith("t[", sc.pos):
        sc.pos += 2
        cochar = parse_cochar(sc.until("]"), system)
        sc.skip_ws()
        unit = sc.balanced_parens().strip()
        if not _NAME.fullmatch(unit):
            raise ExprError(f"torus unit must be a variable name, got {unit!r}")
        if not registry.has(unit):
            registry.add(unit, UNIT)
        elif registry.kind(unit) != UNIT:
            raise ExprError(f"torus parameter {unit!r} is not a unit variable")
        return TorusValue(cochar, unit)
    name = sc.match_re(_NAME)
    if name is not None and name in system.diagram_symmetries():
        return GraphAut(system, name)
    raise ExprError(f"cannot parse an atom at position {sc.pos} in {sc.text!r}")


# ---------------------------------------------------------------------------
# rendering


def render_atom(atom) -> str:
    if isinstance(atom, RootElement):
        return f"e{atom.root.label}({atom.coeff})"
    if isinstance(atom, WeylRep):
        root = atom.root
        system = root.system
        if root in system.simple_roots:
            return f"n[{system.short_names[system.simple_roots.index(root)]}]"
        return f"n[{root.label}]"
    if isinstance(atom, TorusValue):
        return f"t[{atom.cochar}]({atom.unit})"
    if isinstance(atom, GraphAut):
        return atom.name
    raise ValueError(f"cannot render {atom!r}")


def render_word(w) -> str:
    if isinstance(w, RadicalElement):
        atoms = w.atoms()
    else:
        atoms = w.atoms
    if not atoms:
        return "1"
    out = []
    for i, atom in enumerate(atoms):
        s = render_atom(atom)
        if i == 0:
            out.append(s)
        elif isinstance(atom, RootElement) and isinstance(atoms[i - 1], RootElement):
            out.append("*" + s)
        else:
            out.append("·" + s)
    return "".join(out)
