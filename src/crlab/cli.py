"""crlab: verification CLI for the symbolic Chevalley-group engine.

Subcommands:
  verify (<scenario> | --all) [--seed N] [--format text|json]
  collect <word-expr> --system {a2|a3|a4|d4} [--order <labels>]
  pairing <root-expr> <cochar-expr> --system ...
  rparabolic <cochar-expr> --system ...
"""

from __future__ import annotations

import argparse
import functools
import json
import sys as _sys

from .coeffring import VariableRegistry
from .chevalley import RootElement, collect, default_order
from .rootsys import SYSTEMS, pairing, root_system
from .scenarios import run_scenario, scenario_names
from .wordexpr import parse_cochar, parse_root, parse_word, render_word


def _cmd_verify(args) -> int:
    names = scenario_names() if args.all else [args.scenario]
    reports = [run_scenario(n) for n in names]
    if args.format == "json":
        payload = [r.to_dict() for r in reports]
        # a report holds only fresh dicts, lists and scalars, so it has no cycle to look for
        print(json.dumps(payload[0] if len(payload) == 1 else payload, indent=2, check_circular=False))
    else:
        for r in reports:
            print(r.text())
    return 0 if all(r.passed for r in reports) else 1


def _cmd_collect(args) -> int:
    system = root_system(args.system)
    reg = VariableRegistry()
    w = parse_word(args.word, system, reg)
    if args.order:
        order = [system.root_by_label(int(tok)) for tok in args.order.split(",")]
    else:
        order = default_order(system, [a.root for a in w.atoms if isinstance(a, RootElement)])
        if order is None:
            print("support closure is not nilpotent", file=_sys.stderr)
            return 2
    result = collect(w, order)  # names the first atom that is not a root element
    print(render_word(result))
    return 0


def _cmd_pairing(args) -> int:
    system = root_system(args.system)
    root = parse_root(args.root, system)
    chi = parse_cochar(args.cochar, system)
    print(pairing(root, chi))
    return 0


def _cmd_rparabolic(args) -> int:
    system = root_system(args.system)
    chi = parse_cochar(args.cochar, system)
    pairs = {r.label: pairing(r, chi) for r in system.roots}
    out = {
        "lambda": str(chi),
        "p_roots": sorted(label for label, p in pairs.items() if p >= 0),
        "l_roots": sorted(label for label, p in pairs.items() if p == 0),
        "u_roots": sorted(label for label, p in pairs.items() if p > 0),
        "sigma_components": [name for name, m in sorted(system.diagram_symmetries().items())
                             if m.act_cochar(chi) == chi],
    }
    print(json.dumps(out, indent=2))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: `main` parses every argv with it, so
    in-process callers (the benchmark, the tests, a notebook) build it once.
    A one-shot `crlab` process builds one parser either way."""
    p = argparse.ArgumentParser(prog="crlab", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a registered verification scenario")
    v.add_argument("scenario", nargs="?", help="scenario name")
    v.add_argument("--all", action="store_true", help="run every registered scenario")
    v.add_argument("--seed", type=int, default=0,
                   help="accepted for compatibility and ignored: no step is randomized")
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.set_defaults(func=_cmd_verify)

    c = sub.add_parser("collect", help="normal-order a product of root elements")
    c.add_argument("word", help="word expression, e.g. 'e2(x)e1(y)e3(z)'")
    c.add_argument("--system", required=True, choices=SYSTEMS)
    c.add_argument("--order", help="comma-separated root labels fixing the order")
    c.set_defaults(func=_cmd_collect)

    pr = sub.add_parser("pairing", help="pair a root with a cocharacter")
    pr.add_argument("root", help="root label or combination, e.g. '12' or 'a+2b+c+d'")
    pr.add_argument("cochar", help="cocharacter combination, e.g. 'a+c'")
    pr.add_argument("--system", required=True, choices=SYSTEMS)
    pr.set_defaults(func=_cmd_pairing)

    rp = sub.add_parser("rparabolic", help="root decomposition of P_lambda")
    rp.add_argument("cochar", help="cocharacter combination, e.g. 'a+2b+c+d'")
    rp.add_argument("--system", required=True, choices=SYSTEMS)
    rp.set_defaults(func=_cmd_rparabolic)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify" and args.all == bool(args.scenario):
        print("verify needs a scenario name or --all, not both", file=_sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc.args[0]}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
