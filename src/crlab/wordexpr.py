"""Round-trip text grammar for group words and polynomials.

Word atoms:  e<label>(poly)   root element (label may be negative)
             n[<simple>]      Weyl representative; simple name or root label
             t[<cochar>](<unit>)  torus value with a formal unit variable
             sigma, sigma2, id, tau0, ...   diagram symmetries
             1                the identity
Atoms juxtapose (whitespace, '*', '.' or '·' separators all work); '^-1'
inverts the preceding atom and '^k' repeats it.  Polynomials use '+',
implicit or '*' multiplication (a '*' must be followed by a factor), '^'
powers (negative only on unit variables), and variable names of the shape
letters-then-digits.

Text splits into tokens: names, integers, exponents '^k' (the '^' touching
its integer) and single characters.  Whitespace may stand between any two
tokens, and splits a name or an integer it falls inside.

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

_TOKEN = re.compile(r"[A-Za-z]+[0-9]*|[0-9]+|\^-?[0-9]+|\S")
_END = " "  # closes every token list; never a token, as no token holds a blank
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_DIGITS = frozenset("0123456789")
_SEPARATORS = frozenset("*.·")


def default_kind(name: str) -> str:
    if name == "s":
        return SQRT
    if name.startswith("t"):
        return UNIT
    return ORDINARY


class ExprError(ValueError):
    pass


class _Parser:
    """Recursive descent over the tokens of one text.  parse_word reads the
    whole list; the other parse_* methods take the index of their first
    token and return their value with the index after it."""

    __slots__ = ("text", "toks", "reg", "system")

    def __init__(self, text: str, registry: Optional[VariableRegistry], system: Optional[RootSystem]):
        self.text = text
        self.toks = _TOKEN.findall(text)
        self.toks.append(_END)
        self.reg = registry
        self.system = system

    def fail(self, i, wanted):
        got = "the end" if self.toks[i] == _END else repr(self.toks[i])
        raise ExprError(f"expected {wanted}, got {got} in {self.text!r}")

    def expect(self, i, tok):
        if self.toks[i] != tok:
            self.fail(i, repr(tok))
        return i + 1

    def complete(self, value, i):
        if self.toks[i] != _END:
            self.fail(i, "the end")
        return value

    def exponent(self, i):
        if self.toks[i] == "^":
            self.fail(i + 1, "an exponent")
        return int(self.toks[i][1:])

    def label(self, i):
        toks = self.toks
        j = i + (toks[i] == "-")
        if toks[j][0] not in _DIGITS:
            self.fail(j, "a root label")
        return (-int(toks[j]) if j > i else int(toks[j])), j + 1

    # -- polynomials ---------------------------------------------------------

    def parse_poly(self, i):
        """A sum of products.  A product is factors, '*' or juxtaposed; a
        '*' must be followed by a factor.  A variable's power goes straight
        into the product's monomial; only parenthesized and constant
        factors multiply as polynomials."""
        toks, reg = self.toks, self.reg
        lookup, kinds = reg._index.get, reg.kinds
        terms: set = set()
        while True:
            m: tuple = ()
            p = None
            need_factor = True
            while True:
                tok = toks[i]
                if tok[0] in _LETTERS:
                    v = lookup(tok)
                    if v is None:
                        reg.add(tok, default_kind(tok))
                        v = lookup(tok)
                    i += 1
                    e = 1
                    if toks[i][0] == "^":
                        e = self.exponent(i)
                        i += 1
                        if e < 0 and kinds[v] != UNIT:
                            raise ValueError("only unit monomials are invertible")
                    if e:  # a variable past the monomial's last one appends in order
                        m = m + ((v, e),) if not m or v > m[-1][0] else _mul_mono(reg, m, ((v, e),))
                elif tok == "(" or tok[0] in _DIGITS:
                    if tok == "(":
                        f, i = self.parse_poly(i + 1)
                        i = self.expect(i, ")")
                    else:
                        f = reg.const(int(tok))
                        i += 1
                    if toks[i][0] == "^":
                        f = f ** self.exponent(i)
                        i += 1
                    p = f if p is None else p * f
                elif need_factor:
                    self.fail(i, "a variable, a constant or '('")
                else:
                    break
                need_factor = toks[i] == "*"
                if need_factor:
                    i += 1
            if p is None:
                terms ^= {m}
            else:
                terms ^= (p * Polynomial(reg, frozenset({m}))).terms
            if toks[i] != "+":
                return Polynomial(reg, frozenset(terms)), i
            i += 1

    # -- root and cocharacter combinations ------------------------------------

    def parse_combo(self, i, end):
        """Coefficients of a signed sum of simple roots, such as '2a-b' or
        'alpha+2*beta', that runs up to the token `end`."""
        toks, system = self.toks, self.system
        coeffs = [0] * system.rank
        sign = 1
        if toks[i] == "-":
            sign, i = -1, i + 1
        while toks[i] != end:
            num = 1
            if toks[i][0] in _DIGITS:
                num = int(toks[i])
                i += 1
                if toks[i] == "*":
                    i += 1
            for k, names in enumerate(zip(system.simple_names, system.short_names)):
                if toks[i] in names:
                    coeffs[k] += sign * num
                    break
            else:
                self.fail(i, "a simple-root name")
            i += 1
            if toks[i] == end:
                break
            if toks[i] not in ("+", "-"):
                self.fail(i, "'+' or '-'")
            sign = 1 if toks[i] == "+" else -1
            i += 1
        return tuple(coeffs), i

    # -- words ---------------------------------------------------------------

    def parse_word(self):
        toks = self.toks
        atoms: List = []
        i = 0
        while toks[i] != _END:
            if toks[i] in _SEPARATORS or not toks[i].strip("1"):  # '1' is the identity
                i += 1
                continue
            atom, i = self.parse_atom(i)
            k = 1
            if toks[i][0] == "^":
                k = self.exponent(i)
                i += 1
            atoms.extend([atom.inverse()] * -k if k < 0 else [atom] * k)
        return atoms

    def parse_atom(self, i):
        toks, system = self.toks, self.system
        tok = toks[i]
        if tok[0] == "e" and (tok[1:].isdigit() or tok == "e" and toks[i + 1] == "-"):  # e<label>(
            label, i = (int(tok[1:]), i + 1) if tok[1:] else self.label(i + 1)
            coeff, i = self.parse_poly(self.expect(i, "("))
            return RootElement(system.root_by_label(label), coeff), self.expect(i, ")")
        if tok == "n" and toks[i + 1] == "[":
            i += 2
            if toks[i] == "-" or toks[i][0] in _DIGITS:
                label, i = self.label(i)
                root = system.root_by_label(label)
            else:
                root = system.simple(toks[i])
                i += 1
            return WeylRep(root), self.expect(i, "]")
        if tok == "t" and toks[i + 1] == "[":
            coeffs, i = self.parse_combo(i + 2, "]")
            i = self.expect(self.expect(i, "]"), "(")
            unit, reg = toks[i], self.reg
            if unit[0] not in _LETTERS:
                self.fail(i, "a unit variable")
            if not reg.has(unit):
                reg.add(unit, UNIT)
            elif reg.kind(unit) != UNIT:
                raise ExprError(f"torus parameter {unit!r} is not a unit variable")
            return TorusValue(system.cocharacter(coeffs), unit), self.expect(i + 1, ")")
        if tok in system.diagram_symmetries():
            return GraphAut(system, tok), i + 1
        self.fail(i, "a word atom")


def parse_poly(text: str, registry: VariableRegistry) -> Polynomial:
    parser = _Parser(text, registry, None)
    return parser.complete(*parser.parse_poly(0))


def parse_root(text: str, system: RootSystem) -> Root:
    parser = _Parser(text, None, system)
    toks = parser.toks
    j = toks[0] == "-"
    if toks[j][0] in _DIGITS and toks[j + 1] == _END:  # a bare label such as '12' or '-7'
        return system.root_by_label(parser.label(0)[0])
    return system.root(parser.complete(*parser.parse_combo(0, _END)))


def parse_cochar(text: str, system: RootSystem) -> Cocharacter:
    parser = _Parser(text, None, system)
    return system.cocharacter(parser.complete(*parser.parse_combo(0, _END)))


def parse_word(text: str, system: RootSystem, registry: VariableRegistry) -> GroupWord:
    return GroupWord(system, registry, _Parser(text, registry, system).parse_word())


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
