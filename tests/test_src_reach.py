"""Every public function, class and method in `src/crlab` has a caller in
the program itself: in `src/crlab` (the CLI included) or in the benchmark
under `perfbench/`.  A name that only tests reach belongs in the tests.

The scan is by name: a load of `name` or of `obj.name`, or a dotted string
such as the tracer's "ConstraintSystem.solve", counts as a reference to
every definition called `name`, except inside that definition itself.
Import statements do not count.  The package itself re-exports nothing:
callers import each name from its module, such as `crlab.chevalley`.
"""

import ast
import collections
import functools
import pkgutil
import re
from pathlib import Path

import crlab
import crlab.cli  # noqa: F401  (imports every submodule but __main__)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "crlab"
PROGRAM = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# the pinning API: tests compare it with tests/data/canonical_golden.json
ALLOWED = {"Report.canonical_json"}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def public_definitions(tree):
    """(qualified name, bare name, node) for the public module-level
    functions and classes of a module and the public methods of its classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def referenced_names(tree):
    """(name, line) of every name the module reads: bare names, attribute
    names and the parts of dotted identifier strings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                for part in node.value.split("."):
                    yield part, node.lineno


@functools.cache
def unreached_names():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in PROGRAM}
    uses = collections.defaultdict(list)  # name -> [(path, line)]
    for path, tree in trees.items():
        for name, line in referenced_names(tree):
            uses[name].append((path, line))
    unreached = []
    for path in sorted(SRC.glob("*.py")):
        for qualified, name, node in public_definitions(trees[path]):
            own = range(node.lineno, node.end_lineno + 1)
            if all(p == path and line in own for p, line in uses[name]):
                unreached.append(f"{path.stem}.{qualified}")
    return tuple(unreached)


def test_every_public_src_name_has_a_caller_outside_the_tests():
    unreached = [n for n in unreached_names() if n.split(".", 1)[1] not in ALLOWED]
    assert unreached == []


def test_the_allow_list_names_only_unreached_names():
    # an allowed name that gains a caller leaves the list
    assert {n.split(".", 1)[1] for n in unreached_names()} >= ALLOWED


def test_the_package_re_exports_nothing():
    submodules = {m.name for m in pkgutil.iter_modules(crlab.__path__)} - {"__main__"}
    assert {n for n in vars(crlab) if not n.startswith("__")} == submodules
    assert crlab.__version__
