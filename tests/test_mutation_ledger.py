"""The ledger of `tests/mutation_sweep.py` parses: each entry names an
engine module, a function defined in it, the mutation, one of the outcomes
and a reason.  The sweep itself is too slow for Tier-1."""

import ast
import json

from mutation_sweep import LEDGER, MODULES, ROOT

OUTCOMES = {"killed", "deleted", "equivalent"}


def defined_functions(module: str) -> set:
    """Dotted names of the classes, functions and methods defined in a
    module, and `<module>` for its top level."""
    names = {"<module>"}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                names.add(prefix + child.name)
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse((ROOT / "src" / "crlab" / f"{module}.py").read_text()), "")
    return names


def test_the_mutation_ledger_names_existing_functions():
    entries = json.loads(LEDGER.read_text())
    keys = [(e["module"], e["function"], e["mutation"]) for e in entries]
    assert entries and len(set(keys)) == len(keys)
    for e in entries:
        assert set(e) == {"module", "function", "mutation", "outcome", "reason"}, e
        assert e["module"] in MODULES, e
        assert e["function"] in defined_functions(e["module"]), e
        assert " → " in e["mutation"] and e["outcome"] in OUTCOMES and e["reason"], e
