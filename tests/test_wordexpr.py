"""Grammar round-trip tests for words, polynomials, roots and cocharacters."""

import random

import pytest

from crlab.coeffring import UNIT, Polynomial, VariableRegistry
from crlab.chevalley import GraphAut, RootElement, TorusValue, WeylRep, word, word_equal
from crlab.rootsys import root_system
from crlab.wordexpr import (
    ExprError,
    parse_cochar,
    parse_poly,
    parse_root,
    parse_word,
    render_word,
)

from references import monomial


def test_parse_poly_basic():
    reg = VariableRegistry()
    p = parse_poly("x5x10+x9^2+s^2", reg)
    q = parse_poly("x9^2 + s^2 + x5*x10", reg)
    assert p == q
    assert str(p) == "x5x10+x9^2+s^2"
    assert parse_poly("0", reg).is_zero
    assert parse_poly("1", reg).is_one
    assert parse_poly("(x+y)^2", reg) == parse_poly("x^2+y^2", reg)


def test_parse_poly_units():
    reg = VariableRegistry()
    p = parse_poly("t^-2x4", reg)
    assert str(p) == "t^-2x4"  # t registered first in this registry
    assert reg.kind("t") == UNIT
    with pytest.raises(ExprError):
        parse_poly("x4&", reg)


def test_parse_root_and_cochar():
    sys = root_system("d4")
    assert parse_root("12", sys) == sys.root_by_label(12)
    assert parse_root("-7", sys) == sys.root_by_label(-7)
    assert parse_root("a+2b+c+d", sys) == sys.root_by_label(12)
    assert parse_root("alpha+beta", sys) == sys.root_by_label(5)
    chi = parse_cochar("a+c", sys)
    assert chi == sys.cocharacter((1, 0, 1, 0))
    assert parse_cochar("2a-b", sys) == sys.cocharacter((2, -1, 0, 0))
    assert parse_cochar(" 2 a - b ", sys) == sys.cocharacter((2, -1, 0, 0))
    assert parse_root(" - 7 ", sys) == sys.root_by_label(-7)
    with pytest.raises(ValueError):
        parse_root("a+d", sys)  # not a root


def test_parse_word_atoms():
    sys = root_system("d4")
    reg = VariableRegistry()
    w = parse_word("e6(s)*e9(s)", sys, reg)
    assert len(w.atoms) == 2
    assert w.atoms[0].root == sys.root_by_label(6)
    w2 = parse_word("n[a]·sigma", sys, reg)
    assert isinstance(w2.atoms[0], WeylRep)
    assert isinstance(w2.atoms[1], GraphAut)
    w3 = parse_word("t[a+2b+c+d](t0) e-12(1)", sys, reg)
    assert isinstance(w3.atoms[0], TorusValue)
    assert w3.atoms[1].root.label == -12
    w4 = parse_word("n[12]", sys, reg)
    assert w4.atoms[0].root == sys.root_by_label(12)


def test_parse_word_powers():
    sys = root_system("d4")
    reg = VariableRegistry()
    w = parse_word("sigma^-1", sys, reg)
    assert word_equal(w, parse_word("sigma2", sys, reg))
    w2 = parse_word("sigma^3", sys, reg)
    assert word_equal(w2, word(sys, reg))
    assert word_equal(parse_word("e12(x)^-1", sys, reg), parse_word("e12(x)", sys, reg))


def test_render_round_trip_fixed():
    sys = root_system("d4")
    reg = VariableRegistry()
    for text in [
        "e6(s)*e9(s)",
        "n[a]·sigma·e12(s^2)",
        "t[a+c](t)·e4(x4+x5)*e12(x5x10+x9^2)",
        "1",
    ]:
        w = parse_word(text if text != "1" else "", sys, reg)
        assert render_word(w) == text
        again = parse_word(render_word(w), sys, reg)
        assert word_equal(w, again)


def test_render_round_trip_random():
    sys = root_system("d4")
    reg = VariableRegistry()
    rng = random.Random(77)
    names = ["x4", "x5", "y", "s"]
    for _ in range(60):
        atoms = []
        for _ in range(rng.randrange(0, 6)):
            k = rng.randrange(4)
            if k == 0:
                coeff = parse_poly(rng.choice(names), reg)
                atoms.append(RootElement(sys.root_by_label(rng.choice(list(range(1, 13)) + [-4, -12])), coeff))
            elif k == 1:
                atoms.append(WeylRep(sys.simple(rng.choice("abcd"))))
            elif k == 2:
                atoms.append(GraphAut(sys, rng.choice(["sigma", "sigma2"])))
            else:
                atoms.append(TorusValue(sys.cocharacter([rng.randrange(-2, 3) for _ in range(4)]), "t"))
        w = word(sys, reg, *atoms)
        text = render_word(w)
        back = parse_word(text, sys, reg)
        assert render_word(back) == text
        assert len(back.atoms) == len(w.atoms)


# ---------------------------------------------------------------------------
# sums and products of the polynomial grammar


def test_parse_poly_sums_and_products():
    reg = VariableRegistry()
    assert parse_poly("x4+x4", reg).is_zero
    assert parse_poly("x4x4", reg) == parse_poly("x4^2", reg)
    assert parse_poly("2x4", reg).is_zero
    assert parse_poly("x4^0", reg).is_one
    assert parse_poly("t^-1t", reg).is_one
    p = parse_poly("(x4+1)^2x5", reg)
    x4, x5 = reg.var("x4"), reg.var("x5")
    assert p == x4 * x4 * x5 + x5
    assert parse_poly("x5 (x4+1) x4", reg) == x5 * x4 * x4 + x5 * x4
    with pytest.raises(ValueError):
        parse_poly("x4^-1", reg)
    with pytest.raises(ValueError):
        parse_poly("x4^-1x4", reg)
    with pytest.raises(ExprError):
        parse_poly("x4^", reg)


# names with digits: a letters-only name runs into the next one when rendered
_POLY_NAMES = ("x4", "x5", "x12", "ab7", "t1", "t2")


def random_rendered(reg, rng, nterms):
    """A random polynomial of exactly `nterms` terms."""
    terms = set()
    while len(terms) < nterms:
        powers = {}
        for name in rng.sample(_POLY_NAMES, rng.randrange(4)):
            powers[name] = rng.choice([-2, -1, 1, 3]) if reg.kind(name) == UNIT else rng.randint(1, 4)
        terms |= monomial(reg, powers).terms
    return Polynomial(reg, frozenset(terms))


def make_poly_registry():
    reg = VariableRegistry()
    for name in _POLY_NAMES:
        parse_poly(name, reg)
    return reg


def test_rendered_polynomials_parse_back():
    reg = make_poly_registry()
    rng = random.Random(5)
    for _ in range(200):
        p = random_rendered(reg, rng, rng.randrange(8))
        assert parse_poly(str(p), reg) == p


def test_parse_long_sum_is_linear(monkeypatch):
    reg = make_poly_registry()
    p = random_rendered(reg, random.Random(11), 300)
    text = str(p)
    calls = []
    for name in ("__add__", "__mul__"):
        orig = getattr(Polynomial, name)

        def counted(a, b, orig=orig):
            calls.append(1)
            return orig(a, b)
        monkeypatch.setattr(Polynomial, name, counted)
    assert parse_poly(text, reg) == p
    assert len(calls) <= 10


@pytest.mark.parametrize("text", ["x*y", "x*t^-1", "s*t", "y*x5", "x5x10", "x^2y", "x9^2"])
def test_a_bare_letters_only_name_renders_with_a_star(text):
    # '*' follows a letters-only name with no exponent, and only such a name
    reg = VariableRegistry()
    p = parse_poly(text, reg)
    assert str(p) == text
    assert parse_poly(str(p), reg) == p


def test_letters_only_names_round_trip():
    sys = root_system("d4")
    reg = VariableRegistry()
    w = parse_word("e4(x*t^-1)", sys, reg)
    assert render_word(w) == "e4(x*t^-1)"
    assert word_equal(parse_word(render_word(w), sys, reg), w)


# ---------------------------------------------------------------------------
# the accepted language at its edges


@pytest.mark.parametrize("text", ["x*", "x4*+x5", "x4 * ", "(x4*)x5", "x4*(x5*)"])
def test_a_dangling_star_in_a_polynomial_is_rejected(text):
    with pytest.raises(ExprError):
        parse_poly(text, VariableRegistry())
    with pytest.raises(ExprError):
        parse_word(f"e4({text})", root_system("d4"), VariableRegistry())


def test_a_star_between_word_atoms_is_a_separator():
    sys = root_system("d4")
    reg = VariableRegistry()
    w = parse_word("e4(x)*e5(y)", sys, reg)
    assert word_equal(parse_word("*e4(x)**e5(y)*", sys, reg), w)
    assert word_equal(parse_word("e4(x) e5(y)", sys, reg), w)


@pytest.mark.parametrize("text", ["x²", "x4^²", "x٣", "٣x"])
def test_a_non_ascii_digit_is_an_expr_error(text):
    with pytest.raises(ExprError):
        parse_poly(text, VariableRegistry())
    with pytest.raises(ExprError):
        parse_word(f"e4({text})", root_system("d4"), VariableRegistry())


@pytest.mark.parametrize("spaced, plain", [
    ("e4 (x) · e -12( y )", "e4(x)·e-12(y)"),
    ("n [ -12 ] n[ alpha ]", "n[-12]n[a]"),
    ("t [ 2 a - b ] ( t ) ^-1", "t[2a-b](t)^-1"),
    ("e4(x ^2 (x) ^3 x4\r\u00a0)", "e4(x^2(x)^3x4)"),
])
def test_whitespace_may_stand_between_any_two_tokens(spaced, plain):
    sys = root_system("d4")
    reg = VariableRegistry()
    assert word_equal(parse_word(spaced, sys, reg), parse_word(plain, sys, reg))


def test_whitespace_inside_a_token_splits_it():
    reg = VariableRegistry()
    assert parse_poly("x 5", reg) == reg.var("x")  # x times the constant 5
    assert reg.names == ["x"]
    with pytest.raises(ExprError):
        parse_poly("x^ 2", reg)


# ---------------------------------------------------------------------------
# grammar agreement: random words written as text and built as atoms side
# by side, with no call into the parser

_WORD_SYSTEM = root_system("d4")
_ORDINARY_NAMES = ("x", "y", "x4", "x12", "ab7")
_UNIT_NAMES = ("t", "tb", "t1")


def _kind(name):
    return "sqrt" if name == "s" else "unit" if name.startswith("t") else "ordinary"


def _joined(rng, left, right, seps):
    """`left` and `right` joined by one of `seps`, or juxtaposed where the
    tokens cannot run together."""
    if left[-1] in ")]" or right[0] == "(" or (left[-1].isdigit() and right[0].isalpha()):
        seps = seps + ("",)
    return left + rng.choice(seps) + right


def _random_poly(rng, seen, depth):
    """(text, build): `build(reg)` computes the polynomial with ring
    arithmetic; `seen` collects the variable names in text order."""
    products = [_random_product(rng, seen, depth) for _ in range(rng.randint(1, 3))]
    text = rng.choice(("+", " + ")).join(t for t, _ in products)
    return text, lambda reg: sum((b(reg) for _, b in products), reg.zero())


def _random_product(rng, seen, depth):
    factors = [_random_factor(rng, seen, depth) for _ in range(rng.randint(1, 3))]
    text = factors[0][0]
    for t, _ in factors[1:]:
        text = _joined(rng, text, t, ("*", " * ", " "))

    def build(reg):
        out = reg.one()
        for _, b in factors:
            out = out * b(reg)
        return out
    return text, build


def _random_factor(rng, seen, depth):
    k = rng.randrange(4 if depth else 3)
    if k < 2:
        name = rng.choice(_ORDINARY_NAMES + _UNIT_NAMES + ("s",))
        if name not in seen:
            seen.append(name)
        e = rng.choice((1, 1, 0, 2, 3) + ((-1, -2) if _kind(name) == "unit" else ()))
        return (name if e == 1 else f"{name}^{e}"), lambda reg: reg.var(name) ** e
    if k == 2:
        c, e = rng.randrange(4), rng.choice((1, 1, 0, 2))
        return (str(c) if e == 1 else f"{c}^{e}"), lambda reg: reg.const(c) ** e
    inner, build = _random_poly(rng, seen, depth - 1)
    e = rng.choice((1, 1, 0, 2, 3))
    return (f"({inner})" if e == 1 else f"({inner})^{e}"), lambda reg: build(reg) ** e


def _random_combo(rng):
    sys = _WORD_SYSTEM
    coeffs = [0] * sys.rank
    text = ""
    for j in range(rng.randint(1, 3)):
        idx, c, sign = rng.randrange(sys.rank), rng.randint(1, 3), rng.choice((1, -1))
        coeffs[idx] += sign * c
        num = rng.choice(("", f"{c}", f"{c}*")) if c == 1 else rng.choice((f"{c}", f"{c}*"))
        name = rng.choice((sys.short_names[idx], sys.simple_names[idx]))
        op = ("-" if sign < 0 else "") if j == 0 else rng.choice(("+", " + ") if sign > 0 else ("-", " - "))
        text += op + num + name
    return text, sys.cocharacter(coeffs)


def _random_atom(rng, seen):
    """(text, build) for one atom with its power; `build(reg)` lists the atoms."""
    sys = _WORD_SYSTEM
    k = rng.randrange(5)
    if k == 4:
        return "1", lambda reg: []
    if k == 0:
        label = rng.choice((1, -1)) * rng.randint(1, sys.n_pos)
        inner, build = _random_poly(rng, seen, 2)
        text, atom = f"e{label}({inner})", lambda reg: RootElement(sys.root_by_label(label), build(reg))
    elif k == 1:
        i = rng.randrange(sys.rank)
        label = rng.choice((1, -1)) * rng.randint(1, sys.n_pos)
        ref, root = rng.choice([(sys.short_names[i], sys.simple_roots[i]), (sys.simple_names[i], sys.simple_roots[i]),
                                (str(label), sys.root_by_label(label))])
        text, atom = f"n[{ref}]", lambda reg: WeylRep(root)
    elif k == 2:
        combo, chi = _random_combo(rng)
        unit = rng.choice(_UNIT_NAMES)
        if unit not in seen:
            seen.append(unit)
        text, atom = f"t[{combo}]({unit})", lambda reg: TorusValue(chi, unit)
    else:
        name = rng.choice(sorted(sys.diagram_symmetries()))
        text, atom = name, lambda reg: GraphAut(sys, name)
    power = rng.choice((1, 1, 1, -1, 0, 2, 3))
    if power == 1:
        return text, lambda reg: [atom(reg)]
    if power < 0:
        return f"{text}^{power}", lambda reg: [atom(reg).inverse()] * -power
    return f"{text}^{power}", lambda reg: [atom(reg)] * power


def random_word_text(rng):
    """(text, names in order of first appearance, build)."""
    seen = []
    pieces = [_random_atom(rng, seen) for _ in range(rng.randrange(7))]
    text = ""
    for t, _ in pieces:
        text = _joined(rng, text, t, ("·", ".", "*", " ", " · ")) if text else t

    def build(reg):
        return [a for _, b in pieces for a in b(reg)]
    return text, seen, build


def test_parse_word_agrees_with_the_grammar_built_independently():
    rng = random.Random(1301)
    kinds = set()
    for _ in range(500):
        text, seen, build = random_word_text(rng)
        reg = VariableRegistry()
        w = parse_word(text, _WORD_SYSTEM, reg)
        assert reg.names == seen, text
        assert reg.kinds == [_kind(n) for n in seen], text
        assert w.atoms == tuple(build(reg)), text
        kinds.update(type(a).__name__ for a in w.atoms)
    assert kinds == {"RootElement", "WeylRep", "TorusValue", "GraphAut"}


def test_mutated_words_parse_or_raise_value_error():
    rng = random.Random(1302)
    words = [random_word_text(rng)[0] for _ in range(60)]
    alphabet = "()[]^*+-.·1209exntsa ²٣é\r"
    for _ in range(4000):
        text = rng.choice(words)
        pos = rng.randrange(len(text) + 1)
        cut = pos + rng.randrange(2)  # 0: insert, 1: replace or delete
        mutated = text[:pos] + rng.choice(("", rng.choice(alphabet))) + text[cut:]
        try:
            parse_word(mutated, _WORD_SYSTEM, VariableRegistry())
        except ValueError:  # ExprError included
            pass
