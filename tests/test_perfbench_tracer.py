"""The benchmark's tracer still finds every function it wraps.

`perfbench/tracer.py` names crlab functions and methods by module and
attribute path; a rename in the program would otherwise only break a
traced benchmark run.  The tracer is imported from its file and only read.
"""

import importlib.util
import sys
from pathlib import Path

import crlab.cli  # noqa: F401  (imports every crlab module the tracer names)
from crlab import chevalley, scenarios

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(module, path):
    owner = sys.modules[module]
    if "." in path:
        cls_name, attr = path.split(".")
        return vars(getattr(owner, cls_name))[attr]
    return getattr(owner, path)


def test_every_traced_path_resolves_and_uninstall_restores_it():
    tracing = load_tracer()
    paths = tracing.SPANS + tracing.COUNTED
    originals = {p: current(*p) for p in paths}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for p in paths:
            assert current(*p).__wrapped__ is originals[p], p
        assert scenarios.collect is chevalley.collect  # every binding is wrapped
    finally:
        tracer.uninstall()
    for p in paths:
        assert current(*p) is originals[p], p
    assert chevalley.collect is originals[("crlab.chevalley", "collect")]
    assert not hasattr(chevalley.collect, "__wrapped__")
    assert scenarios.collect is chevalley.collect


def test_no_crlab_module_keeps_a_traced_function_in_a_container():
    # a dict or list built at import time holds the unwrapped function, so
    # calls through it would escape the tracer's spans
    tracing = load_tracer()
    traced = {id(current(m, p)) for m, p in tracing.SPANS if "." not in p}
    for name, module in sorted(sys.modules.items()):
        if name != "crlab" and not name.startswith("crlab."):
            continue
        for attr, value in vars(module).items():
            if isinstance(value, (dict, list, tuple, set, frozenset)):
                items = value.values() if isinstance(value, dict) else value
                assert not any(id(v) in traced for v in items), f"{name}.{attr}"
