"""Every name imported in `src/crlab` and in the tests is read somewhere in
its module.  A deletion that leaves an import behind fails here.

A name counts as read when it appears as a bare name in the module, inside
a string annotation included.  Imports from `__future__` and names on a line
marked `# noqa` (side-effect imports) are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "crlab").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def imported_names(tree, lines):
    """(name, line) of every name an import statement binds."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "# noqa" not in lines[alias.lineno - 1]:
                yield alias.asname or alias.name.split(".")[0], alias.lineno


def annotations(tree):
    """The annotations of a module's arguments, returns and annotated names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            yield node.returns


def read_names(tree):
    """The bare names a module reads, those in string annotations included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


def unused_imports(source):
    tree = ast.parse(source)
    read = read_names(tree)
    return [(name, line) for name, line in imported_names(tree, source.splitlines()) if name not in read]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import_and_honours_the_exemptions():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json  # noqa: F401\n"
        "from typing import (\n"
        "    Dict,\n"
        "    List,  # noqa\n"
        ")\n"
        "from math import gcd, lcm as least\n"
        "def f(x: 'Dict[str, int]'):\n"
        "    return os.sep, least(x, 2)\n"
    )
    assert unused_imports(source) == [("gcd", 8)]
    assert unused_imports("from typing import List\nx = 'List'\n") == [("List", 1)]
