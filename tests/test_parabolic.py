"""Parabolic decomposition, membership in P_lambda and limits along lambda."""

import json
import random

import pytest

from crlab.coeffring import UNIT, SQRT, VariableRegistry
from crlab.chevalley import (
    GraphAut,
    RootElement,
    TorusValue,
    WeylRep,
    collect,
    generic_radical_element,
    word,
)
from crlab.cli import main
from crlab.parabolic import limit_along, word_in_rparabolic
from crlab.rootsys import pairing, root_system


def d4_setup():
    sys = root_system("d4")
    reg = VariableRegistry()
    for i in range(4, 13):
        reg.add(f"x{i}")
    reg.add("t", UNIT)
    reg.add("s", SQRT)
    return sys, reg


def lam_d4(sys):
    return sys.cocharacter((1, 2, 1, 1))


def rparabolic(capsys, sys, lam) -> dict:
    """`crlab rparabolic`'s answer for lam: each root list as a set of labels,
    and sigma_components.  The cocharacter goes after '--', as its text may
    start with '-'."""
    assert main(["rparabolic", "--system", sys.type_label.lower(), "--", str(lam)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out.pop("lambda") == str(lam)
    return {key: set(value) for key, value in out.items()}


def test_rparabolic_d4_standard_decomposition(capsys):
    sys, _ = d4_setup()
    data = rparabolic(capsys, sys, lam_d4(sys))
    assert data["l_roots"] == {1, 2, 3, -1, -2, -3}
    assert data["u_roots"] == set(range(4, 13))
    assert "sigma" in data["sigma_components"]
    assert data["p_roots"] == set(range(1, 13)) | {-1, -2, -3}


def test_rparabolic_zero_cochar(capsys):
    sys, _ = d4_setup()
    data = rparabolic(capsys, sys, sys.cocharacter((0, 0, 0, 0)))
    assert data["u_roots"] == set()
    assert data["p_roots"] == {r.label for r in sys.roots}


def test_rparabolic_a2(capsys):
    sys = root_system("a2")
    data = rparabolic(capsys, sys, sys.cocharacter((1, 1)))
    assert data["u_roots"] == {1, 2, 3}
    assert data["l_roots"] == set()
    assert "sigma" in data["sigma_components"]


def test_rparabolic_partition_invariant(capsys):
    sys, _ = d4_setup()
    rng = random.Random(3)
    for _ in range(50):
        lam = sys.cocharacter([rng.randrange(-3, 4) for _ in range(4)])
        data = rparabolic(capsys, sys, lam)
        neg_u = {-label for label in data["u_roots"]}
        assert data["u_roots"] | neg_u | data["l_roots"] == {r.label for r in sys.roots}
        assert not (data["u_roots"] & neg_u)
        assert not (data["u_roots"] & data["l_roots"])
        opp = rparabolic(capsys, sys, -lam)
        assert opp["u_roots"] == neg_u
        assert opp["l_roots"] == data["l_roots"]


def test_limit_along_radical_element_dies():
    sys, reg = d4_setup()
    lam = lam_d4(sys)
    radical = [sys.root_by_label(i) for i in range(4, 13)]
    u = generic_radical_element(sys, reg, radical)
    frame, lim = limit_along(lam, None, u)
    assert lim.is_trivial


def test_limit_along_levi_tail_unchanged():
    sys, reg = d4_setup()
    lam = lam_d4(sys)
    tail = collect([RootElement(sys.root_by_label(1), reg.var("x4"))],
                   [sys.root_by_label(1)], reg)
    frame, lim = limit_along(lam, None, tail)
    assert lim == tail


def test_limit_along_fails_on_negative_pairing():
    sys, reg = d4_setup()
    lam = lam_d4(sys)
    order = [sys.root_by_label(-12), sys.root_by_label(-2)]
    tail = collect(
        [RootElement(sys.root_by_label(-12), reg.one()),
         RootElement(sys.root_by_label(-2), reg.var("s"))],
        order, reg)
    assert limit_along(lam, None, tail) is None


def test_limit_along_iff_levi_support():
    sys, reg = d4_setup()
    lam = lam_d4(sys)
    rng = random.Random(29)
    for _ in range(60):
        labels = rng.sample([1, 2, 3] + list(range(4, 13)) + [-12, -4], rng.randrange(1, 4))
        try:
            order = [sys.root_by_label(l) for l in labels]
            tail = collect(
                [RootElement(r, reg.var(f"x{4 + i % 9}")) for i, r in enumerate(order)],
                order, reg)
        except ValueError:
            continue  # not a closed nilpotent set; irrelevant sample
        res = limit_along(lam, None, tail)
        pair = [pairing(r, lam) for r in tail.support]
        if any(p < 0 for p in pair):
            assert res is None
        else:
            _, lim = res
            if all(p == 0 for p in pair):
                assert lim == tail
            else:
                assert set(lim.support) < set(tail.support) or not lim.support


def test_sigma_components_iff_fixed_cochar(capsys):
    sys, _ = d4_setup()
    rng = random.Random(31)
    for _ in range(30):
        lam = sys.cocharacter([rng.randrange(-2, 3) for _ in range(4)])
        data = rparabolic(capsys, sys, lam)
        for name, m in sys.diagram_symmetries().items():
            assert (name in data["sigma_components"]) == (m.act_cochar(lam) == lam)


def test_limit_along_frame_guard():
    sys, reg = d4_setup()
    lam = lam_d4(sys)
    levi, radical = sys.root_by_label(1), sys.root_by_label(12)
    order = [levi, radical]
    tail = collect([RootElement(levi, reg.var("x4")), RootElement(radical, reg.var("x5"))], order, reg)
    bad = word(sys, reg, WeylRep(sys.simple("b")))  # s_beta moves lambda
    with pytest.raises(ValueError):
        limit_along(lam, bad, tail)
    good = word(sys, reg, WeylRep(sys.simple("a")), GraphAut(sys, "sigma"),
                TorusValue(sys.cocharacter((1, 0, 1, 0)), "t"))
    frame, lim = limit_along(lam, good, tail)
    assert frame is good
    assert lim == collect([RootElement(levi, reg.var("x4"))], order, reg)


def test_word_membership():
    sys, reg = d4_setup()
    lam = lam_d4(sys)
    nsigma = word(sys, reg, WeylRep(sys.simple("a")), GraphAut(sys, "sigma"))
    assert word_in_rparabolic(nsigma, lam)
    h = word(sys, reg, RootElement(sys.root_by_label(11), reg.one()),
             RootElement(sys.root_by_label(2), reg.var("s")))
    assert word_in_rparabolic(h, lam)
    bad = word(sys, reg, RootElement(sys.root_by_label(-12), reg.one()))
    assert not word_in_rparabolic(bad, lam)


def test_a_frame_that_moves_lambda_is_outside_the_parabolic():
    sys, reg = d4_setup()
    # s_beta(lambda) = lambda - <beta, lambda> beta^v, and <beta, (a+2b+c+d)^v> = 1
    assert not word_in_rparabolic(word(sys, reg, WeylRep(sys.simple("b"))), lam_d4(sys))


def test_word_membership_of_a_word_that_freely_reduces_to_1():
    # e-1 pairs -2 with alpha^v, but the word is 1, which lies in every P_lambda
    sys = root_system("a2")
    reg = VariableRegistry()
    x, y = reg.add("x"), reg.add("y")
    a, minus_a = sys.simple("a"), -sys.simple("a")
    w = word(sys, reg, RootElement(a, x), RootElement(minus_a, y), RootElement(minus_a, y), RootElement(a, x))
    assert word_in_rparabolic(w, sys.coroot(a))
    assert not word_in_rparabolic(word(sys, reg, RootElement(minus_a, y)), sys.coroot(a))


def test_word_membership_of_a_word_whose_tail_does_not_collect():
    # the closure of {alpha, -alpha} is not nilpotent, so the tail stays uncollected;
    # membership is read off its atoms' roots: both pair 0 with (1,2) and +-2 with (1,0)
    sys = root_system("a2")
    reg = VariableRegistry()
    x, y = reg.add("x"), reg.add("y")
    a = sys.simple("a")
    w = word(sys, reg, RootElement(a, x), RootElement(-a, y))
    assert word_in_rparabolic(w, sys.cocharacter((1, 2)))
    assert not word_in_rparabolic(w, sys.cocharacter((1, 0)))
