"""F2 polynomial ring tests: ring axioms, Frobenius, the rationality classifier."""

import operator
import random

import pytest

from crlab.coeffring import (
    ORDINARY,
    SQRT,
    UNIT,
    Polynomial,
    PolyRing,
    VariableRegistry,
    _mul_mono,
    square_obstruction_witness,
)
from crlab.matrixoracle import GF

from references import monomial


def make_registry():
    reg = VariableRegistry()
    for i in range(4, 13):
        reg.add(f"x{i}")
    reg.add("y")
    reg.add("t", UNIT)
    reg.add("s", SQRT)
    return reg


def random_poly(reg, rng, nvars=4, nterms=4, maxexp=2):
    p = reg.zero()
    names = [n for n, k in zip(reg.names, reg.kinds) if k == ORDINARY][:nvars]
    for _ in range(rng.randrange(nterms + 1)):
        m = reg.one()
        for _ in range(rng.randrange(3)):
            m = m * reg.var(rng.choice(names)) ** rng.randrange(1, maxexp + 1)
        p = p + m
    return p


def test_char_two_addition():
    reg = make_registry()
    x, y = reg.var("x4"), reg.var("y")
    assert (x + x).is_zero
    p = x * y + y ** 2
    assert (p + p).is_zero


def test_frobenius():
    reg = make_registry()
    x, y = reg.var("x4"), reg.var("y")
    assert (x + y) ** 2 == x ** 2 + y ** 2
    rng = random.Random(3)
    for _ in range(50):
        p, q = random_poly(reg, rng), random_poly(reg, rng)
        assert (p + q) ** 2 == p ** 2 + q ** 2


def test_distributivity_example():
    reg = make_registry()
    x5, x8, x10, x11 = (reg.var(f"x{i}") for i in (5, 8, 10, 11))
    lhs = (x5 + x8) * (x10 + x11)
    rhs = x5 * x10 + x5 * x11 + x8 * x10 + x8 * x11
    assert lhs == rhs
    assert str(lhs) == "x5x10+x5x11+x8x10+x8x11"


def test_ring_axioms_random():
    reg = make_registry()
    rng = random.Random(9)
    for _ in range(60):
        p, q, r = (random_poly(reg, rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r


def test_registry_mismatch_raises():
    reg1, reg2 = make_registry(), make_registry()
    with pytest.raises(ValueError):
        reg1.var("y") + reg2.var("y")


@pytest.mark.parametrize("op", [operator.add, operator.mul])
@pytest.mark.parametrize("const", [0, 1])
def test_a_zero_or_one_from_another_registry_still_raises(op, const):
    # the registry check runs before the 0/1 short-circuits, on either side
    reg1, reg2 = make_registry(), make_registry()
    for a, b in ((reg1.const(const), reg2.var("y")), (reg1.var("y"), reg2.const(const)),
                 (reg1.const(const), reg2.const(const))):
        with pytest.raises(ValueError, match="different registries"):
            op(a, b)


def test_the_registry_hands_out_one_shared_polynomial_per_variable_and_constant():
    reg = make_registry()
    x = reg.var("x4")
    assert reg.var("x4") is x and reg.add("x4") is x
    assert reg.var("t") is reg.add("t", UNIT)
    assert reg.zero() is reg.const(0) and reg.one() is reg.const(1)
    assert reg.add("z") is reg.var("z")
    # a shared operand is never changed by arithmetic on it
    terms = x.terms
    assert (x + x).is_zero and x * reg.one() is x
    assert x.terms is terms and x.terms == frozenset({((reg.index("x4"), 1),)})
    assert reg.one().terms == frozenset({()}) and not reg.zero().terms
    # two registries never share one
    other = make_registry()
    mine = [reg.var(n) for n in reg.names] + [reg.zero(), reg.one()]
    theirs = [other.var(n) for n in other.names] + [other.zero(), other.one()]
    assert not {id(p) for p in mine} & {id(p) for p in theirs}
    assert all(p.registry is reg for p in mine) and all(p.registry is other for p in theirs)


def test_laurent_units():
    reg = make_registry()
    t, x = reg.var("t"), reg.var("x4")
    tinv = t.unit_inverse()
    assert t * tinv == reg.one()
    assert str(t ** -2 * x) == "x4t^-2"
    with pytest.raises(ValueError):
        x.unit_inverse()


def test_substitute_identity_and_zero():
    reg = make_registry()
    y, x9, s = reg.var("y"), reg.var("x9"), reg.var("s")
    p = y ** 2 + x9 ** 2 + s ** 2
    assert p.substitute({"x4": y, "x9": x9}) == p
    assert (s ** 2 + reg.var("x4") ** 2).substitute({"s": reg.zero()}) == reg.var("x4") ** 2


def test_substitute_unit_guard():
    reg = make_registry()
    with pytest.raises(ValueError):
        reg.var("t").substitute({"t": reg.var("x4") + reg.var("y")})
    assert reg.var("t").substitute({"t": reg.var("t") ** 2}) == reg.var("t") ** 2


def test_substitute_then_evaluate_is_evaluate_at_the_substituted_point():
    """The one evaluator, over PolyRing (substitute) and over GF(16):
    substituting and then evaluating is evaluating where the bindings go."""
    reg = VariableRegistry()
    reg.add("x")
    reg.add("y")
    reg.add("t", UNIT)
    gf, rng = GF(16), random.Random(44)

    def rand_poly():
        return sum((monomial(reg, {"x": rng.randrange(3), "y": rng.randrange(3), "t": rng.randrange(-3, 4)})
                    for _ in range(rng.randrange(1, 5))), reg.zero())

    for _ in range(60):
        p = rand_poly()
        b = {"x": rand_poly(), "t": monomial(reg, {"t": rng.choice((-2, -1, 1, 3))})}
        for _ in range(4):
            pt = {"x": rng.randrange(16), "y": rng.randrange(16), "t": rng.randrange(1, 16)}
            moved = {**pt, **{n: b[n].evaluate(pt, gf) for n in b}}
            assert p.substitute(b).evaluate(pt, gf) == p.evaluate(moved, gf)


def test_evaluate_multiplies_by_a_first_power_without_pow():
    class CountingRing(PolyRing):
        pow_calls = 0

        def pow(self, a, n):
            self.pow_calls += 1
            return super().pow(a, n)

    reg = make_registry()
    x, y = reg.var("x4"), reg.var("y")
    ring = CountingRing(reg)
    assert (x * y ** 2).evaluate(ring.generic_point(), ring) == x * y ** 2
    assert ring.pow_calls == 1


def test_evaluate_reads_0_and_1_with_no_ring_operation():
    class CountingRing(PolyRing):
        calls = 0

        def add(self, a, b):
            self.calls += 1
            return a + b

        def mul(self, a, b):
            self.calls += 1
            return a * b

    reg = make_registry()
    ring = CountingRing(reg)
    point = ring.generic_point()
    assert reg.zero().evaluate(point, ring) is reg.zero()
    assert reg.one().evaluate(point, ring) is reg.one()
    assert ring.calls == 0
    x = reg.var("x4")
    assert (x + reg.one()).evaluate(point, ring) == x + reg.one()
    assert ring.calls > 0
    gf = GF(16)
    assert reg.zero().evaluate({}, gf) == 0 and reg.one().evaluate({}, gf) == 1


def test_classifier_key_cases():
    # the witness is the s-free q with p = q^2 + s^2
    reg = make_registry()
    y, x9, x6, s = reg.var("y"), reg.var("x9"), reg.var("x6"), reg.var("s")
    assert square_obstruction_witness(y ** 2 + x9 ** 2 + s ** 2) == y + x9
    assert square_obstruction_witness(reg.var("x4") ** 2) is None
    assert square_obstruction_witness(x6 ** 2) is None
    # q = 0: s^2 alone; 0 is a witness, not a missing one
    assert square_obstruction_witness(s ** 2) == reg.zero()
    # t^-2 = (t^-1)^2 is a square
    t = reg.var("t")
    assert square_obstruction_witness(t ** -2 + s ** 2) == t ** -1


def test_classifier_negative_cases():
    reg = make_registry()
    x, y, s = reg.var("x4"), reg.var("y"), reg.var("s")
    # odd exponent next to s^2: not of the shape q^2 + s^2
    assert square_obstruction_witness(x * y + s ** 2) is None
    # s^4 = a^2 is not the monomial s^2
    assert square_obstruction_witness(s ** 4 + x ** 2) is None
    # s-containing mixed monomial disqualifies
    assert square_obstruction_witness(s ** 2 + (s * x) ** 2) is None
    # so does a pure power of s other than s^2
    assert square_obstruction_witness(s ** 4 + s ** 2) is None
    # t^-1 is not a square
    assert square_obstruction_witness(reg.var("t") ** -1 + s ** 2) is None
    # without a square-root constant there is no obstruction to find
    assert square_obstruction_witness(VariableRegistry().add("z") ** 2) is None


def test_classifier_random_q():
    reg = make_registry()
    s = reg.var("s")
    rng = random.Random(17)
    for _ in range(100):
        q = random_poly(reg, rng)
        assert square_obstruction_witness(q ** 2 + s ** 2) == q


def test_split_by_units():
    reg = make_registry()
    t, x, y = reg.var("t"), reg.var("x4"), reg.var("y")
    eq = t ** 2 * x + x + y
    groups = eq.split_by_units()
    assert len(groups) == 2
    vals = sorted(str(p) for p in groups.values())
    assert vals == ["x4", "x4+y"]
    # without a unit variable the polynomial is its own one group; 0 has none
    assert x * y + x == (x * y + x).split_by_units()[()] and len((x * y + x).split_by_units()) == 1
    assert reg.zero().split_by_units() == {}
    # with units alone every unit monomial is its own group, of 1
    ti = reg.index("t")
    assert (t ** 2 + reg.one()).split_by_units() == {((ti, 2),): reg.one(), (): reg.one()}


def test_rendering_sorted():
    reg = make_registry()
    x5, x7, x8, x9, x10, x11 = (reg.var(f"x{i}") for i in (5, 7, 8, 9, 10, 11))
    s = reg.var("s")
    p = x5 * x10 + x5 * x11 + x7 * x8 + x7 * x11 + x8 * x10 + x9 ** 2 + s ** 2
    assert str(p) == "x5x10+x5x11+x7x8+x7x11+x8x10+x9^2+s^2"
    assert str(reg.zero()) == "0"
    assert str(reg.one()) == "1"
    # within a degree, a missing variable is exponent 0, which comes before t^-1
    units_first = VariableRegistry()
    t = units_first.add("t", UNIT)
    x, y = units_first.add("x"), units_first.add("y")
    assert str(t ** -1 * x * y + x) == "x+t^-1x*y"


def test_sqrt_uniqueness():
    reg = make_registry()
    with pytest.raises(ValueError):
        reg.add("s2", SQRT)


# ---------------------------------------------------------------------------
# the product against a reference


def reference_mul_mono(reg, m1, m2):
    """Monomial product through a dict of exponents and a sort."""
    acc = dict(m1)
    for i, e in m2:
        acc[i] = acc.get(i, 0) + e
    out = tuple(sorted((i, e) for i, e in acc.items() if e != 0))
    for i, e in out:
        if e < 0 and reg.kinds[i] != UNIT:
            raise ValueError(f"negative exponent on non-unit variable {reg.names[i]!r}")
    return out


def reference_mul(p, q):
    acc = set()
    for m1 in p.terms:
        for m2 in q.terms:
            m = reference_mul_mono(p.registry, m1, m2)
            if m in acc:
                acc.remove(m)
            else:
                acc.add(m)
    return Polynomial(p.registry, frozenset(acc))


def random_laurent(reg, rng):
    """Sum of monomials over ordinary, unit and square-root variables; the
    unit variables may carry negative exponents."""
    terms = set()
    for _ in range(rng.randrange(6)):
        powers = {}
        for _ in range(rng.randrange(4)):
            name = rng.choice(["x4", "x5", "x12", "y", "s", "t", "u"])
            lo = -3 if reg.kind(name) == UNIT else 0
            powers[name] = powers.get(name, 0) + rng.randint(lo, 3)
        terms ^= monomial(reg, powers).terms
    return Polynomial(reg, frozenset(terms))


def test_product_matches_reference():
    reg = make_registry()
    reg.add("u", UNIT)
    t, u = reg.var("t"), reg.var("u")
    rng = random.Random(2024)
    fixed = [reg.zero(), reg.one(), t * t ** -1, t ** -2 * u, reg.var("x4") + reg.one(), t + t ** -1]
    polys = fixed + [random_laurent(reg, rng) for _ in range(60)]
    assert (t * t ** -1).is_one
    for p in polys:
        assert p * p == reference_mul(p, p)
        assert p * reg.one() == p and reg.one() * p == p
        assert (p * reg.zero()).is_zero
    for _ in range(400):
        p, q = rng.choice(polys), rng.choice(polys)
        assert p * q == reference_mul(p, q)
        assert p * q == q * p


def test_monomial_products_match_reference():
    reg = make_registry()
    rng = random.Random(7)
    units = [reg.index("t")]
    others = [reg.index(n) for n in ("x4", "x9", "y", "s")]

    def mono():
        idx = sorted(rng.sample(units + others, rng.randrange(4)))
        return tuple((i, rng.choice([-2, -1, 1, 2]) if i in units else rng.randint(1, 3)) for i in idx)

    for _ in range(500):
        m1, m2 = mono(), mono()
        assert _mul_mono(reg, m1, m2) == reference_mul_mono(reg, m1, m2)


def test_negative_exponent_on_ordinary_variable_raises():
    reg = make_registry()
    with pytest.raises(ValueError):
        reg.var("x4") ** -1


def test_pow_stops_squaring_at_the_top_bit(monkeypatch):
    reg = make_registry()
    p = reg.var("x4") + reg.var("y")
    products = []
    mul = Polynomial.__mul__

    def counted(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    counts = []
    for k in range(1, 6):
        products.clear()
        p ** k
        counts.append(len(products))
    monkeypatch.undo()
    assert counts == [1, 2, 3, 3, 4]

    power = reg.one()
    for k in range(10):
        assert p ** k == power
        power = power * p

    u = monomial(reg, {"t": 3})
    for k in range(1, 6):
        assert u ** -k == monomial(reg, {"t": -3 * k})
        assert u ** -k * u ** k == reg.one()


def test_every_power_up_to_20_is_the_repeated_product():
    # one square-and-multiply serves Polynomial ** n and GF.pow
    reg = make_registry()
    rng = random.Random(23)
    polys = [reg.zero(), reg.one(), reg.var("s"), reg.var("x4") + reg.var("y")] + [
        random_poly(reg, rng) for _ in range(4)]
    for p in polys:
        product = reg.one()
        for n in range(21):
            assert p ** n == product, (p, n)
            product = product * p
    for q in (2, 4, 16):
        gf = GF(q)
        for a in gf.elements():
            product = 1
            for n in range(21):
                assert gf.pow(a, n) == product, (q, a, n)
                if a:
                    assert gf.mul(gf.pow(a, -n), product) == 1, (q, a, n)
                product = gf.mul(product, a)
