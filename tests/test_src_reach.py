"""Every public function, class and method in `src/crlab` has a caller in
the program itself: in `src/crlab` (the CLI included) or in the benchmark
under `perfbench/`.  A name that only tests reach belongs in the tests;
there are no exceptions.

The scan is by name, except inside the definition itself.  A module-level
function or class counts as reached only through a bare `name` or through
`module.name` for a `crlab` module; a method only through any other
`obj.name`.  A dotted string such as the tracer's "ConstraintSystem.solve"
reads its first part as a bare name and the others as attributes.  Import
statements do not count.  The package itself re-exports nothing: callers
import each name from its module, such as `crlab.chevalley`.
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

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


MODULES = {path.stem for path in SRC.glob("*.py")}
BARE, ATTRIBUTE = "bare", "attribute"


def public_definitions(tree):
    """(qualified name, bare name, how it is reached, node) for the public
    module-level functions and classes of a module and the public methods
    of its classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name, BARE, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, ATTRIBUTE, item


def referenced_names(tree):
    """(name, how, line) of every name the module reads: bare names and
    `module.name` as BARE, other attribute names as ATTRIBUTE, and the parts
    of dotted identifier strings, the first as BARE."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, BARE, node.lineno
        elif isinstance(node, ast.Attribute):
            owner = node.value
            on_module = getattr(owner, "id", getattr(owner, "attr", None)) in MODULES
            yield node.attr, BARE if on_module else ATTRIBUTE, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                first, *rest = node.value.split(".")
                yield first, BARE, node.lineno
                for part in rest:
                    yield part, ATTRIBUTE, node.lineno


@functools.cache
def unreached_names():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in PROGRAM}
    uses = collections.defaultdict(list)  # (name, how) -> [(path, line)]
    for path, tree in trees.items():
        for name, how, line in referenced_names(tree):
            uses[name, how].append((path, line))
    unreached = []
    for path in sorted(SRC.glob("*.py")):
        for qualified, name, how, node in public_definitions(trees[path]):
            own = range(node.lineno, node.end_lineno + 1)
            if all(p == path and line in own for p, line in uses[name, how]):
                unreached.append(f"{path.stem}.{qualified}")
    return tuple(unreached)


def test_every_public_src_name_has_a_caller_outside_the_tests():
    assert unreached_names() == ()


def test_the_package_re_exports_nothing():
    submodules = {m.name for m in pkgutil.iter_modules(crlab.__path__)} - {"__main__"}
    assert {n for n in vars(crlab) if not n.startswith("__")} == submodules
    assert crlab.__version__
