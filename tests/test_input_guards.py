"""Input guards that only a wrong call reaches: each row names the call,
the exception it raises and a fragment of its message.  Equal atoms,
cocharacters and root maps hash equal, and radical elements and group words,
which compare as group elements, stay unhashable."""

import pytest

from crlab.coeffring import UNIT, Polynomial, VariableRegistry, square_obstruction_witness
from crlab.chevalley import (
    GraphAut,
    RadicalElement,
    RootElement,
    TorusValue,
    WeylRep,
    collect,
    normalize,
    word,
)
from crlab.matrixoracle import GF, evaluate_word
from crlab.parabolic import limit_along
from crlab.rootsys import extends_to_ambient, root_system

D4, A2 = root_system("d4"), root_system("a2")
REG = VariableRegistry()
X = REG.add("x")
REG.add("t", UNIT)
OTHER = VariableRegistry()
OTHER.add("x")
A, B = D4.simple("a"), D4.simple("b")


def _x_to_the(e):
    return Polynomial(REG, frozenset({((REG.index("x"), e),)}))


GUARDS = {
    "collect-non-root-atom": (
        lambda: collect([WeylRep(A)], [A], REG), ValueError, "collect expects root elements"),
    "collect-mixed-registries": (
        lambda: collect([RootElement(A, X), RootElement(B, OTHER.var("x"))], [A, B, A + B], REG),
        ValueError, "coefficients from different registries"),
    "collect-atoms-without-registry": (
        lambda: collect([RootElement(A, X)], [A]), ValueError, "collect needs the registry"),
    "normalize-unknown-atom": (lambda: normalize(word(D4, REG, "x")), ValueError, "unknown atom"),
    "evaluate-unknown-atom": (
        lambda: evaluate_word(word(A2, REG, "x"), {}, GF(4)), ValueError, "cannot evaluate atom"),
    "field-of-size-3": (lambda: GF(3), ValueError, "supported field sizes"),
    "unknown-root-system": (lambda: root_system("b2"), ValueError, "unsupported root system"),
    "root-system-of-rank-5": (lambda: root_system("a5"), ValueError, "unsupported root system"),
    "exceptional-root-system": (lambda: root_system("e6"), ValueError, "unsupported root system"),
    "cocharacter-rank": (lambda: D4.cocharacter((1, 2)), ValueError, "wrong rank"),
    "extension-domain": (
        lambda: extends_to_ambient(D4, [A], {B: -B}), ValueError, "exactly on the Levi subsystem"),
    "limit-frame-with-root-elements": (
        lambda: limit_along(D4.cocharacter((1, 2, 1, 1)), word(D4, REG, RootElement(A, X)),
                            collect([RootElement(A, X)], [A], REG)),
        ValueError, "must not contain root elements"),
    "registry-unknown-kind": (
        lambda: VariableRegistry().add("x", "weird"), ValueError, "unknown variable kind"),
    "registry-kind-clash": (lambda: REG.add("x", UNIT), ValueError, "already registered as ordinary"),
    "registry-unknown-variable": (lambda: REG.var("nope"), KeyError, "unknown variable 'nope'"),
    "negative-exponent-on-a-non-unit": (  # x^-3, since names[-2] is 'x' too
        lambda: _x_to_the(-3) * X, ValueError, "negative exponent on non-unit variable 'x'"),
    "substitute-foreign-binding": (
        lambda: X.substitute({"x": OTHER.var("x")}), ValueError, "binding from a different registry"),
    "radical-element-hash": (
        lambda: hash(RadicalElement(D4, REG, [A], {A: X})), TypeError, "unhashable"),
    "group-word-hash": (lambda: hash(word(D4, REG, RootElement(A, X))), TypeError, "unhashable"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_input_guard(name):
    call, exc, fragment = GUARDS[name]
    with pytest.raises(exc) as err:
        call()
    assert fragment in str(err.value)


def test_square_obstruction_needs_the_square_root_constant():
    assert REG.sqrt_name is None
    assert square_obstruction_witness(X * X) is None


def test_equal_values_hash_equal():
    chi = D4.cocharacter((1, 0, 1, 0))
    pairs = [
        (RootElement(A, X), RootElement(A, X * REG.one())),
        (WeylRep(A), WeylRep(D4.simple("alpha"))),
        (GraphAut(D4, "sigma"), GraphAut(D4, "sigma2").inverse()),
        (TorusValue(chi, "t"), TorusValue(D4.cocharacter([1, 0, 1, 0]), "t")),
        (chi, -(-chi)),
        (chi, root_system("D4").cocharacter((1, 0, 1, 0))),
        (D4.reflection(A), D4.reflection(A).compose(D4.identity_map())),
    ]
    for a, b in pairs:
        assert a == b
        assert hash(a) == hash(b)
