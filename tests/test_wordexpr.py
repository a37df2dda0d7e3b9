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
