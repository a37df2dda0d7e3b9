"""Mutation sweep over the engine: which single-operator changes to
`coeffring`, `chevalley`, `rootsys`, `parabolic` and `matrixoracle` does
neither `crlab verify --all` nor the Tier-1 suite notice?

Run it from anywhere, with no options; it takes about 20 minutes on two
cores:

    python tests/mutation_sweep.py

The mutations are: swap `<`/`<=`, `>`/`>=`, `==`/`!=`, `in`/`not in` and
`is`/`is not`; swap `and`/`or`; and change an integer constant 0 to 1, 1 to
0 or 2 to 1.  A mutant edits only the operator or the constant, so every
other byte of the module stays as it is.

The sweep copies the repository into a temporary directory and runs each
mutant there, one subprocess at a time, with bytecode caching off.  A mutant
is killed when the statuses of `verify --all` differ from
`perfbench/expected_verify.json`, or else when `pytest -x` fails; a run that
times out counts as killed.  Each survivor is printed as
`module:line function: mutation` with its outcome from the ledger
`tests/data/mutation_ledger.json`, and the sweep exits 1 when a survivor is
missing from the ledger.
"""

import ast
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter, namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "tests" / "data" / "mutation_ledger.json"
EXPECTED = ROOT / "perfbench" / "expected_verify.json"
MODULES = ("coeffring", "chevalley", "rootsys", "parabolic", "matrixoracle")

# operator node -> (regex for its text, replacement text)
COMPARE_SWAPS = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
    ast.In: (r"\bin\b", "not in"), ast.NotIn: (r"\bnot\s+in\b", "in"),
    ast.Is: (r"\bis\b", "is not"), ast.IsNot: (r"\bis\s+not\b", "is"),
}
CONSTANT_SWAPS = {0: 1, 1: 0, 2: 1}
# too small to say where a constant sits: the description climbs past these
_INNER = (ast.Constant, ast.Slice, ast.UnaryOp, ast.List, ast.Tuple)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp, ast.comprehension)

# edits: (start, end, new bytes) with byte offsets into the module source;
# context: the (start, end) of the source text that describes the mutation
Mutant = namedtuple("Mutant", "line function edits context")


def apply(edits, text: bytes, base: int = 0) -> bytes:
    for start, end, new in sorted(edits, reverse=True):
        text = text[:start - base] + new + text[end - base:]
    return text


def describe(m: Mutant, source: bytes) -> str:
    """`before → after` of the mutated expression, whitespace collapsed."""
    start, end = m.context
    flat = lambda b: " ".join(b.decode().split())
    return f"{flat(source[start:end])} → {flat(apply(m.edits, source[start:end], start))}"


def _constant_context(node, parents):
    """The smallest enclosing expression that is more than the constant, or
    a simple statement.  Inside a comprehension or a compound statement,
    the constant with the small expressions around it."""
    inner = node
    for p in reversed(parents):
        if isinstance(p, _INNER):
            inner = p
        elif isinstance(p, _COMPREHENSIONS) or isinstance(p, ast.stmt) and hasattr(p, "body"):
            return inner
        elif isinstance(p, (ast.expr, ast.stmt)):
            return p
    return inner


def mutants(source: bytes):
    tree = ast.parse(source)
    starts = [0]
    for line in source.split(b"\n"):
        starts.append(starts[-1] + len(line) + 1)
    begin = lambda node: starts[node.lineno - 1] + node.col_offset
    finish = lambda node: starts[node.end_lineno - 1] + node.end_col_offset

    def gap_edit(left, right, pattern, new):
        """Replace the first match of `pattern` between two operands."""
        start = finish(left)
        m = re.search(pattern.encode(), source[start:begin(right)])
        return start + m.start(), start + m.end(), new.encode()

    out = []

    def visit(node, names, parents):
        function = ".".join(names) or "<module>"
        found = []
        if isinstance(node, ast.Compare):
            operands = [node.left] + node.comparators
            for i, op in enumerate(node.ops):
                found.append((node, [gap_edit(operands[i], operands[i + 1], *COMPARE_SWAPS[type(op)])]))
        elif isinstance(node, ast.BoolOp):
            old, new = ("and", "or") if isinstance(node.op, ast.And) else ("or", "and")
            found.append((node, [gap_edit(a, b, rf"\b{old}\b", new) for a, b in zip(node.values, node.values[1:])]))
        elif isinstance(node, ast.Constant) and type(node.value) is int and node.value in CONSTANT_SWAPS:
            edit = (begin(node), finish(node), str(CONSTANT_SWAPS[node.value]).encode())
            found.append((_constant_context(node, parents), [edit]))
        for context, edits in found:
            mutated = apply(edits, source)
            assert ast.dump(ast.parse(mutated)) != ast.dump(tree), node.lineno
            out.append(Mutant(node.lineno, function, edits, (begin(context), finish(context))))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = names + [node.name]
        for child in ast.iter_child_nodes(node):
            visit(child, names, parents + [node])

    visit(tree, [], [])
    return out


def run(args, cwd: Path, timeout: int):
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    try:
        return subprocess.run(args, cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None


def statuses(stdout: str):
    try:
        reports = json.loads(stdout)
    except json.JSONDecodeError:
        return None
    return {r["scenario"]: {s["name"]: s["status"] for s in r["steps"]} for r in reports}


def verdict(copy: Path, expected) -> str:
    verify = run([sys.executable, "-m", "crlab", "verify", "--all", "--format", "json"], copy, 30)
    if verify is None or statuses(verify.stdout) != expected:
        return "verify"
    tier1 = run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"], copy, 300)
    return "tier-1" if tier1 is None or tier1.returncode else "survived"


def main() -> int:
    expected = json.loads(EXPECTED.read_text())
    ledger = {(e["module"], e["function"], e["mutation"]): e for e in json.loads(LEDGER.read_text())}
    score = {m: Counter() for m in MODULES}
    missing = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "results"))
        for module in MODULES:
            path = copy / "src" / "crlab" / f"{module}.py"
            source = path.read_bytes()
            try:
                for m in mutants(source):
                    path.write_bytes(apply(m.edits, source))
                    outcome = verdict(copy, expected)
                    score[module][outcome] += 1
                    if outcome == "survived":
                        text = describe(m, source)
                        entry = ledger.get((module, m.function, text))
                        missing += entry is None
                        note = f"{entry['outcome']}: {entry['reason']}" if entry else "NOT IN LEDGER"
                        print(f"{module}:{m.line} {m.function}: {text}  [{note}]", flush=True)
            finally:
                path.write_bytes(source)
    for name, c in list(score.items()) + [("total", sum(score.values(), Counter()))]:
        print(f"{name}: {sum(c.values())} mutants, verify killed {c['verify']}, "
              f"tier-1 killed {c['tier-1']}, {c['survived']} survived")
    print(f"{missing} survivors missing from the ledger")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
