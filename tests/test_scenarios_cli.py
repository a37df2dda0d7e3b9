"""Scenario runner and CLI behavior: statuses, determinism, exit codes."""

import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from crlab import chevalley, rootsys, scenarios
from crlab.chevalley import EPS, GraphAut, RootElement, TorusValue, WeylRep, word, word_equal
from crlab.cli import main
from crlab.coeffring import Polynomial, VariableRegistry
from crlab.rootsys import RootMap, root_system
from crlab.scenarios import run_scenario, scenario_names
from crlab.wordexpr import ExprError, parse_word

GOLDEN = Path(__file__).resolve().parent / "data" / "canonical_golden.json"
EXPECTED_VERIFY = Path(__file__).resolve().parents[1] / "perfbench" / "expected_verify.json"
README = Path(__file__).resolve().parents[1] / "README.md"
README_COMMANDS = [line for line in README.read_text().splitlines() if line.startswith("crlab ")]


def canonical_json(record: dict) -> str:
    """A report's dict as the golden file pins it: sorted keys, and the
    timing zeroed so that runs compare byte for byte."""
    return json.dumps({**record, "elapsed_ms": 0}, sort_keys=True)


FULLY_PASSING = ["d4-gcr-not-gcrk", "a2-conjugacy", "d4-nonseparability", "w0-combinatorics"]


def test_registered_names():
    assert scenario_names() == [
        "d4-gcr-not-gcrk",
        "d4-gir-not-gcr",
        "a2-conjugacy",
        "d4-nonseparability",
        "w0-combinatorics",
    ]


@pytest.mark.parametrize("name", FULLY_PASSING)
def test_scenarios_pass(name):
    report = run_scenario(name)
    assert report.passed, report.text()


def test_d4_gir_fails_only_on_the_recorded_root11_image():
    # the recorded expectation 11 -> -12 for the longest-word action is not
    # realizable (the word acts as -1); every other step must pass
    report = run_scenario("d4-gir-not-gcr")
    failing = [s for s in report.steps if s.status != "PASS"]
    assert [s.name for s in failing] == ["n12-action-on-11"]
    assert failing[0].expected == "-12"
    assert failing[0].actual == "-11"


SCENARIO_SYSTEMS = {"d4-gcr-not-gcrk": "d4", "d4-gir-not-gcr": "d4", "a2-conjugacy": "a2",
                    "d4-nonseparability": "d4", "w0-combinatorics": "d4"}


def same_word(text1, text2, system):
    """Both texts parse as words on `system`, and word_equal proves them equal."""
    reg = VariableRegistry()
    try:
        w1, w2 = parse_word(text1, system, reg), parse_word(text2, system, reg)
    except ExprError:
        return False
    return word_equal(w1, w2)


@pytest.mark.parametrize("name", scenario_names())
def test_a_pass_step_records_what_it_compared(name):
    # a PASS records equal texts, or two spellings of one word
    system = root_system(SCENARIO_SYSTEMS[name])
    for s in run_scenario(name).steps:
        if s.status == "PASS" and s.expected != s.actual:
            assert same_word(s.expected, s.actual, system), (s.name, s.expected, s.actual)


def run_crlab(*args):
    """`python -m crlab ARGS` in a fresh interpreter, from the repository root."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run([sys.executable, "-m", "crlab", *args],
                          cwd=root, env=env, capture_output=True, text=True, timeout=120)


def test_verify_all_statuses_match_the_benchmark_table():
    # the verify-all benchmark checks every step status against this table;
    # a renamed or flipped step must show here, not only as failed bench ops.
    # The exit code is 1 exactly while the table holds a FAIL.
    expected = json.loads(EXPECTED_VERIFY.read_text())
    done = run_crlab("verify", "--all", "--format", "json")
    got = {r["scenario"]: {s["name"]: s["status"] for s in r["steps"]} for r in json.loads(done.stdout)}
    assert got == expected
    assert done.returncode == int(any(s == "FAIL" for steps in expected.values() for s in steps.values()))


def test_unknown_scenario():
    with pytest.raises(KeyError) as err:
        run_scenario("nope")
    assert "a2-conjugacy" in str(err.value)


def test_determinism_same_seed():
    for name in scenario_names():
        a = canonical_json(run_scenario(name).to_dict())
        b = canonical_json(run_scenario(name).to_dict())
        assert a == b


def test_scenario_independence():
    # no shared mutable state: interleaved runs reproduce isolated runs
    isolated = {n: canonical_json(run_scenario(n).to_dict()) for n in scenario_names()}
    for n in reversed(scenario_names()):
        assert canonical_json(run_scenario(n).to_dict()) == isolated[n]


def test_report_schema():
    report = run_scenario("a2-conjugacy")
    d = report.to_dict()
    assert set(d) == {"scenario", "steps", "pass", "elapsed_ms"}
    for s in d["steps"]:
        assert set(s) == {"name", "anchor", "status", "expected", "actual"}
    assert d["pass"] is True


def test_cli_verify_exit_codes(capsys):
    assert main(["verify", "a2-conjugacy"]) == 0
    assert main(["verify", "d4-gir-not-gcr"]) == 1
    capsys.readouterr()
    assert main(["verify", "nope"]) == 2
    assert f"unknown scenario 'nope'; registered: {', '.join(scenario_names())}" in capsys.readouterr().err
    for argv in (["verify"], ["verify", "a2-conjugacy", "--all"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "verify needs a scenario name or --all, not both" in captured.err


def test_cli_verify_json(capsys):
    assert main(["verify", "w0-combinatorics", "--format", "json", "--seed", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["scenario"] == "w0-combinatorics"
    assert out["pass"] is True


def test_cli_collect(capsys):
    assert main(["collect", "e2(x)e1(y)e3(z)", "--system", "a2"]) == 0
    assert capsys.readouterr().out.strip() == "e1(y)*e2(x)*e3(x*y+z)"
    assert main(["collect", "e9(x)e6(y)", "--system", "d4",
                 "--order", "4,5,6,7,8,9,10,11,12"]) == 0
    assert capsys.readouterr().out.strip() == "e6(y)*e9(x)*e12(x*y)"


def test_cli_collect_rejects_an_order_listing_a_root_twice(capsys):
    assert main(["collect", "e4(x)*e5(y)", "--system", "d4", "--order", "4,4,5,12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "lists a root twice" in captured.err


def test_cli_collect_without_order_rejects_a_non_nilpotent_support(capsys):
    assert main(["collect", "e1(x)e-1(y)", "--system", "a2"]) == 2
    err = capsys.readouterr().err
    assert "support closure is not nilpotent" in err
    # no order helps: collect rejects every set holding a root and its negative
    assert "--order" not in err
    assert main(["collect", "e1(x)e-1(y)", "--system", "a2", "--order", "1,-1"]) == 2
    assert "contains a root and its negative" in capsys.readouterr().err


def test_cli_collect_rejects_frames(capsys):
    assert main(["collect", "sigma e1(x)", "--system", "a2"]) == 2
    capsys.readouterr()


def test_cli_pairing(capsys):
    assert main(["pairing", "a+2b+c+d", "a+c", "--system", "d4"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["pairing", "-12", "a+2b+c+d", "--system", "d4"]) == 0
    assert capsys.readouterr().out.strip() == "-2"


def test_the_readme_shows_every_subcommand():
    assert {shlex.split(c)[1] for c in README_COMMANDS} == {"verify", "collect", "pairing", "rparabolic"}


@pytest.mark.parametrize("command", README_COMMANDS)
def test_readme_cli_example_runs(command, capsys):
    # verify exits 1 exactly while perfbench/expected_verify.json records a FAIL
    args = shlex.split(command)[1:]
    want = 0
    if args[0] == "verify":
        expected = json.loads(EXPECTED_VERIFY.read_text())
        names = list(expected) if "--all" in args else [args[1]]
        want = int(any(s == "FAIL" for n in names for s in expected[n].values()))
    assert main(args) == want
    captured = capsys.readouterr()
    assert captured.out and not captured.err


def test_cli_rparabolic(capsys):
    assert main(["rparabolic", "a+b", "--system", "a2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["u_roots"] == [1, 2, 3]
    assert out["l_roots"] == []
    assert "sigma" in out["sigma_components"]


@pytest.mark.parametrize("argv", [["verify", "--all"], ["verify", "w0-combinatorics"]])
def test_cli_json_is_the_indented_dump_of_its_reports(argv, capsys, monkeypatch):
    # the report is dumped without the cycle check; the text must be what
    # json.dumps(payload, indent=2) gives for the same reports
    reports = []

    def recording(name):
        reports.append(run_scenario(name))
        return reports[-1]

    monkeypatch.setattr("crlab.cli.run_scenario", recording)
    main([*argv, "--format", "json"])
    payload = [r.to_dict() for r in reports]
    assert capsys.readouterr().out == json.dumps(payload if len(payload) > 1 else payload[0], indent=2) + "\n"


def test_cli_bad_input(capsys):
    assert main(["pairing", "a+d", "a", "--system", "d4"]) == 2
    capsys.readouterr()
    assert main(["collect", "e1((x+y+z)^8191)", "--system", "a2"]) == 2
    assert "would expand to more than 100000 terms" in capsys.readouterr().err


def _untimed(text):
    """CLI output with the scenario timings blanked out."""
    return re.sub(r'"elapsed_ms": \d+|\(\d+ ms\)', "<elapsed>", text)


def test_the_shared_parser_leaks_no_state_between_calls(capsys):
    # main parses every argv with one cached parser; each call in one process
    # prints and exits as a fresh `python -m crlab` does
    for argv in (["verify", "w0-combinatorics", "--format", "text"],
                 ["verify", "--all", "--format", "json"],
                 ["collect", "e2(x)e1(y)e3(z)", "--system", "a2"],
                 ["collect", "e2(x)", "--system", "e8"]):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = run_crlab(*argv)
        assert code == fresh.returncode, argv
        assert _untimed(captured.out) == _untimed(fresh.stdout), argv
        assert captured.err == fresh.stderr, argv
    assert code == 2


def test_python_dash_m_crlab_runs_the_cli():
    done = run_crlab("verify", "w0-combinatorics")
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("seed", [0, 5])
def test_canonical_json_matches_the_golden_file(seed, capsys):
    # the file pins canonical_json of every scenario byte for byte; a change
    # of any scenario's behaviour must update it in the same change.  It holds
    # one record per scenario: `verify --seed` is ignored, so every seed must
    # print the same records
    golden = json.loads(GOLDEN.read_text())
    assert list(golden) == sorted(scenario_names())
    for name in scenario_names():
        assert canonical_json(run_scenario(name).to_dict()) == golden[name], name
    assert main(["verify", "--all", "--seed", str(seed), "--format", "json"]) == 1
    for record in json.loads(capsys.readouterr().out):
        assert canonical_json(record) == golden[record["scenario"]], record["scenario"]


@pytest.mark.parametrize("cache", ["cold", "evicted"])
def test_the_default_order_cache_keeps_no_state_between_calls(cache, capsys):
    # verify --all prints the golden records from a cleared cache, and again
    # after 300 seeded random D4 root sets have turned the bounded cache over
    memo = chevalley._default_order
    memo.cache_clear()
    if cache == "evicted":
        assert main(["verify", "--all", "--format", "json"]) == 1
        capsys.readouterr()
        d4, rng = root_system("d4"), random.Random(30)
        sets = {frozenset(rng.sample(d4.roots, rng.randrange(1, 9))) for _ in range(300)}
        for roots in sets:
            chevalley.default_order(d4, roots)
        assert len(sets) > memo.cache_info().maxsize == memo.cache_info().currsize
    golden = json.loads(GOLDEN.read_text())
    assert main(["verify", "--all", "--format", "json"]) == 1
    for record in json.loads(capsys.readouterr().out):
        assert canonical_json(record) == golden[record["scenario"]], record["scenario"]


@pytest.mark.parametrize("exc", [RuntimeError("engine broke"), ValueError("bad table")])
def test_a_builder_that_raises_is_one_failed_step(monkeypatch, capsys, exc):
    def broken(step):
        raise exc
    monkeypatch.setitem(scenarios.SCENARIOS, "d4-nonseparability", broken)
    assert main(["verify", "--all", "--format", "json"]) == 1
    reports = json.loads(capsys.readouterr().out)
    assert [r["scenario"] for r in reports] == scenario_names()
    broken_report = reports[scenario_names().index("d4-nonseparability")]
    assert broken_report["pass"] is False
    assert [(s["name"], s["status"], s["expected"], s["actual"]) for s in broken_report["steps"]] == [
        ("build", "FAIL", "no error", f"{type(exc).__name__}: {exc}")]
    assert all(r["pass"] for r in reports if r["scenario"] in FULLY_PASSING
               and r["scenario"] != "d4-nonseparability")


def test_w0_combinatorics_composes_only_witnesses(monkeypatch):
    # the ambient-extension search tests candidates on root indices; composing
    # all 1,152 maps of W x| Diag again would make thousands of calls
    run_scenario("w0-combinatorics")
    calls = []
    compose = RootMap.compose

    def counted(self, other):
        calls.append(1)
        return compose(self, other)

    monkeypatch.setattr(RootMap, "compose", counted)
    assert run_scenario("w0-combinatorics").passed
    assert len(calls) <= 20


def test_a2_realization_fails_with_a_wrong_longest_element(monkeypatch):
    # with w0 = 1, sigma_L = -1 and w0 o sigma_L = -1 still holds; only the
    # word n[b]n[a]n[b] o sigma_L shows that w0 was wrong: it is the diagram
    # flip, which sends no Levi root to its negative
    monkeypatch.setattr(rootsys, "longest_element", lambda system, simples: system.identity_map())
    steps = {s.name: s for s in run_scenario("w0-combinatorics").steps}
    assert (steps["a2-realization"].status, steps["a2-realization"].actual) == (
        "FAIL", "[1, 2, 4, -1, -2, -4]")
    assert all(s.status == "PASS" for name, s in steps.items() if name != "a2-realization")


def test_an_engine_error_fails_only_its_own_steps(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("engine broke")

    expected_tail = {s.name: s.expected for s in run_scenario("d4-gcr-not-gcrk").steps}[
        "generic-collection"]
    # only the generic-collection thunk calls normalize through the scenarios module
    monkeypatch.setattr(scenarios, "normalize", broken)
    report = run_scenario("d4-gcr-not-gcrk")
    assert [s.name for s in report.steps] == [
        "eq-perm", "conjugation-identity", "lir-cocharacter-swap", "lir-cube",
        "generic-collection", "constraint-extraction", "rationality-substitution",
        "rationality-obstruction"]
    steps = {s.name: s for s in report.steps}
    assert (steps["generic-collection"].status, steps["generic-collection"].actual) == (
        "FAIL", "RuntimeError: engine broke")
    for name in ("eq-perm", "conjugation-identity", "lir-cocharacter-swap", "lir-cube",
                 "constraint-extraction"):
        assert steps[name].status == "PASS", name
    # the two steps built on the collected tail have no value to work on
    assert steps["rationality-substitution"].status == "FAIL"
    assert steps["rationality-obstruction"].status == "FAIL"
    assert steps["rationality-substitution"].actual == (
        "RuntimeError: input step 'generic-collection' failed")
    assert steps["rationality-obstruction"].actual == (
        "RuntimeError: input step 'rationality-substitution' failed")
    # an erroring step still shows the value it was to check: the rendered tail
    assert steps["generic-collection"].expected == expected_tail
    assert expected_tail.startswith("e7(x4+x7)*e10(x7+x10)*")


def _statuses_differing_from_the_table():
    """(scenario, step) of every `verify --all` status that differs from
    perfbench/expected_verify.json."""
    expected = json.loads(EXPECTED_VERIFY.read_text())
    return sorted((n, s.name) for n in scenario_names() for s in run_scenario(n).steps
                  if s.status != expected[n][s.name])


def test_a_wrong_linear_class_fails_the_substitution(monkeypatch):
    # the substitution binds the classes that constraint-extraction returned,
    # so moving x9 into the first class fails it too: the e12 coefficient
    # collapses to s^2, whose witness 0 then fails the obstruction step.
    # centralizer-nsigma reads the same classes in d4-gir-not-gcr
    linear_classes = chevalley.ConstraintSystem.linear_classes

    def moved(self):
        first, second = linear_classes(self)
        return [first + ["x9"], [n for n in second if n != "x9"]]
    monkeypatch.setattr(chevalley.ConstraintSystem, "linear_classes", moved)
    assert _statuses_differing_from_the_table() == [
        ("d4-gcr-not-gcrk", "constraint-extraction"), ("d4-gcr-not-gcrk", "rationality-obstruction"),
        ("d4-gcr-not-gcrk", "rationality-substitution"), ("d4-gir-not-gcr", "centralizer-nsigma")]
    steps = {s.name: s for s in run_scenario("d4-gcr-not-gcrk").steps}
    assert (steps["rationality-substitution"].expected, steps["rationality-substitution"].actual) == (
        "y^2+x9^2+s^2", "s^2")
    assert steps["rationality-obstruction"].actual == "0"


def test_a_wrong_witness_fails_the_obstruction_naming_it(monkeypatch):
    monkeypatch.setattr(scenarios, "square_obstruction_witness", lambda p: p.registry.var("y"))
    assert _statuses_differing_from_the_table() == [("d4-gcr-not-gcrk", "rationality-obstruction")]
    steps = {s.name: s for s in run_scenario("d4-gcr-not-gcrk").steps}
    assert (steps["rationality-obstruction"].expected, steps["rationality-obstruction"].actual) == (
        "y+x9", "y")


def test_a_failed_tuple_valued_step_is_named_downstream(monkeypatch):
    # the substitution indexes constraint-extraction's (classes, equations)
    def broken(*args):
        raise RuntimeError("engine broke")
    monkeypatch.setattr(scenarios, "centralizer_system", broken)
    steps = {s.name: s for s in run_scenario("d4-gcr-not-gcrk").steps}
    assert steps["constraint-extraction"].actual == "RuntimeError: engine broke"
    assert (steps["rationality-substitution"].status, steps["rationality-substitution"].actual) == (
        "FAIL", "RuntimeError: input step 'constraint-extraction' failed")


@pytest.mark.parametrize("use", [lambda v: v.attr, lambda v: v[0], lambda v: list(v),
                                 lambda v: [*v], lambda v: repr(v)],
                         ids=["attribute", "index", "iteration", "unpacking", "rendering"])
def test_every_use_of_a_failed_value_names_its_step(use):
    with pytest.raises(RuntimeError, match="input step 'extract' failed"):
        use(scenarios._FailedStep("extract"))


def test_a_rendered_failed_step_names_it(monkeypatch):
    # pair-formula compares curve-not-centralizing's value: conjugating sigma breaks,
    # conjugating e3(1) does not
    conjugate = scenarios.conjugate

    def broken(g, h):
        if [type(a) for a in h.atoms] == [GraphAut]:
            raise RuntimeError("engine broke")
        return conjugate(g, h)
    monkeypatch.setattr(scenarios, "conjugate", broken)
    steps = {s.name: s for s in run_scenario("a2-conjugacy").steps}
    assert steps["curve-not-centralizing"].actual == "RuntimeError: engine broke"
    assert (steps["pair-formula"].status, steps["pair-formula"].actual) == (
        "FAIL", "RuntimeError: input step 'curve-not-centralizing' failed")
    assert steps["pair-formula"].expected == "(sigma·e3(x^2), e3(1))"


def test_a2_steps_compare_words_not_their_text(monkeypatch):
    # e1(1)*e1(1) = e1(0) = 1 in characteristic 2: the same element, a longer word
    conjugate = scenarios.conjugate

    def padded(g, h):
        w = conjugate(g, h)
        e1 = RootElement(w.system.root_by_label(1), w.registry.one())
        return w * word(w.system, w.registry, e1, e1)
    monkeypatch.setattr(scenarios, "conjugate", padded)
    steps = run_scenario("a2-conjugacy").steps
    assert "pair-formula" in [s.name for s in steps]
    assert [s.name for s in steps if s.status != "PASS"] == []


@pytest.mark.parametrize("text, atom", [("e1(x) n[a]", "n[a]"), ("t[a](t) e1(x)", "t[a](t)"),
                                        ("sigma", "sigma")])
def test_cli_collect_names_the_first_atom_that_is_not_a_root_element(text, atom, capsys):
    for order in ([], ["--order", "3,1,2"]):
        assert main(["collect", text, "--system", "a2", *order]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: collect expects root elements, got {atom}\n"


def test_cli_reports_deeply_nested_parentheses_in_one_line(capsys):
    text = "e1(" + "(" * 5000 + "x" + ")" * 5000 + ")"
    assert main(["collect", text, "--system", "a2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: parentheses nested too deeply in 'e1(((((((((((((((((('...\n"


@pytest.mark.parametrize("bad, good", [
    (["rparabolic", "-a-b", "--system", "a2"], ["rparabolic", "--system", "a2", "--", "-a-b"]),
    (["pairing", "-a", "a", "--system", "a2"], ["pairing", "--system", "a2", "--", "-a", "a"]),
])
def test_a_combination_starting_with_minus_must_follow_a_double_dash(bad, good, capsys):
    # argparse reads '-a-b' as an option, as the README says
    with pytest.raises(SystemExit) as exit_:
        main(bad)
    assert exit_.value.code == 2
    assert "the following arguments are required" in capsys.readouterr().err
    assert main(good) == 0


def mentions(w, name):
    """Some root element of the word has a coefficient involving `name`."""
    return any(isinstance(a, RootElement) and a.coeff.involves(name) for a in w.atoms)


def sigma_read_as_n_a(real, w):
    """The matrix model evaluating each diagram atom as n[a]."""
    n_a = WeylRep(w.system.simple("a"))
    return real(word(w.system, w.registry, *(n_a if isinstance(a, GraphAut) else a for a in w.atoms)))


def always(*args):
    return True


# (scenario, step, owner and name of the function the step reads, when it
# answers wrong, the wrong answer given the real function, the step's actual)
MUTATIONS = [
    ("d4-gir-not-gcr", "containment", scenarios, "word_in_rparabolic",
     lambda g, lam: isinstance(g.atoms[0], TorusValue), lambda real, g, lam: False, "[t[a+c](t)]"),
    ("d4-gir-not-gcr", "centralizer-M-radical", scenarios, "centralizer_system",
     lambda gens, radical, reg: len(gens) == 2 and radical[0].label > 0,
     lambda real, gens, radical, reg: real(gens[:1], radical, reg), "(coordinates x4, x12, [x4^2+x6^2])"),
    ("d4-gir-not-gcr", "centralizer-L-torus", scenarios, "pairing",
     lambda r, chi: abs(r.label) == 2, lambda real, r, chi: 0, "[2, -2]"),
    ("d4-gir-not-gcr", "bruhat-exclusion", scenarios, "limit_along",
     always, lambda real, lam, frame, tail: (frame, tail), "(None, e-12(1)*e-2(s))"),
    ("d4-gir-not-gcr", "nonk-flag", Polynomial, "involves",
     lambda p, name: name == "s", lambda real, p, name: False, "[]"),
    ("d4-gir-not-gcr", "u12-centralizes", scenarios, "conjugate",
     lambda g, h: isinstance(g.atoms[0], TorusValue) and mentions(h, "u12arg"),
     lambda real, g, h: real(g, h) * h, "[t[a+c](t)]"),
    ("a2-conjugacy", "sigma-conjugation-oracle", scenarios, "exact_word",
     lambda w: mentions(w, "z"), sigma_read_as_n_a, "(0, (0, 1))"),
    ("a2-conjugacy", "adjoint-fixed-oracle", scenarios, "exact_word",
     lambda w: mentions(w, EPS), sigma_read_as_n_a, "(0, (0, 1))"),
    ("a2-conjugacy", "pair-formula-oracle", scenarios, "exact_word",
     lambda w: mentions(w, "x") and not mentions(w, "z"), sigma_read_as_n_a, "(0, (0, 0))"),
    ("d4-nonseparability", "nonseparability-witness", scenarios, "adjoint",
     lambda g, v: isinstance(g.atoms[0], RootElement),
     lambda real, g, v: {r: c for r, c in real(g, v).items() if r.label != 9}, "(e6, x^2)"),
    ("w0-combinatorics", "a3-extension-absent", scenarios, "extends_to_ambient",
     always, lambda real, system, simples, partial: system.identity_map(),
     "RootMap(A3:(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11))"),
    ("w0-combinatorics", "a3-hypothesis-failure", scenarios, "verify_w0_identities",
     lambda lam: lam.system.type_label == "A3", lambda real, lam: True, "True"),
    ("w0-combinatorics", "a2-realization", scenarios, "minus_one_realization",
     always, lambda real, system, simples: (None, system.identity_map()), "[1, 2, -1, -2]"),
    ("w0-combinatorics", "regular-lambda-vacuous", scenarios, "verify_w0_identities",
     lambda lam: lam.coeffs == (1, 1, 1, 1), lambda real, lam: False, "False"),
]


@pytest.mark.parametrize("scenario, name, owner, function, when, wrong, actual", MUTATIONS,
                         ids=[m[1] for m in MUTATIONS])
def test_a_step_whose_engine_answers_wrong_fails_and_names_the_culprit(
        monkeypatch, scenario, name, owner, function, when, wrong, actual):
    before = {s.name: s.status for s in run_scenario(scenario).steps}
    real = getattr(owner, function)
    monkeypatch.setattr(owner, function, lambda *args: wrong(real, *args) if when(*args) else real(*args))
    steps = {s.name: s for s in run_scenario(scenario).steps}
    assert (steps[name].status, steps[name].actual) == ("FAIL", actual)
    assert {n: s.status for n, s in steps.items()} == {**before, name: "FAIL"}
