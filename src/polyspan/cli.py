"""Command line front end.

``compose`` reads two polynomial documents and writes their composite,
``eval`` applies a polynomial to an indexed family, ``check`` runs a
named property suite, and ``random`` emits a seeded random document.
Output bytes are canonical, so identical inputs always give identical
files.  Exit status 0 means success, 1 a property failure reported by
``check``, and 2 rejected input.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module

from .documents import KINDS, ParseError, document, parse, serialize
from .errors import InvariantViolation

# Each command imports the layer it uses when it runs, so a call pays
# only for its own setting: --kind -> (document kind, module, function).
_COMPOSE = {
    "set": ("polynomial", "polyset", "compose_poly"),
    "rel": ("rel-polynomial", "relpoly", "compose_polyrel"),
    "mod": ("mod-polynomial", "modpoly", "compose_polymod"),
}

# The names of checks.SUITES, kept here so that building the parser does
# not import the suites; a test holds the two equal.
_SUITE_NAMES = (
    "cli-determinism", "comprehensive-factorization", "discrete-reduction",
    "distributivity-terminality", "extension-oracle", "grothendieck-roundtrip",
    "groupoid-criterion", "map-characterization", "mod-h-pseudofunctor",
    "rel-h-formula", "rel-kleisli")


def _load(path: str, kind: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}") from None
    doc = parse(text)
    if doc.kind != kind:
        raise ParseError(f"{path}: expected a {kind} document, "
                         f"found {doc.kind}")
    return doc.payload


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_compose(args: argparse.Namespace) -> int:
    kind, module, name = _COMPOSE[args.kind]
    compose = getattr(import_module(f".{module}", __package__), name)
    outer = _load(args.lhs, kind)
    inner = _load(args.rhs, kind)
    composite = compose(outer, inner)
    _emit(serialize(document(kind, composite)), args.out)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from .polyset import extension_eval
    poly = _load(args.poly, "polynomial")
    fam = _load(args.family, "family")
    if fam.base != poly.X:
        raise ParseError(f"{args.family}: family base has size "
                         f"{fam.base.size}, polynomial wants {poly.X.size}")
    _emit(serialize(document("family", extension_eval(poly, fam))), args.out)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .checks import SUITES, run_suite
    names = list(SUITES) if args.suite == "all" else [args.suite]
    status = 0
    for name in names:
        report = run_suite(name, seed=args.seed, count=args.count)
        if report.ok:
            print(f"{name}: ok ({report.count} cases, seed {args.seed})")
        else:
            status = 1
            print(f"{name}: FAIL ({len(report.failures)} of "
                  f"{report.count} cases, seed {args.seed})")
            shown = report.failures[:args.max_failures]
            for line in shown:
                print(f"  {line}")
            hidden = len(report.failures) - len(shown)
            if hidden:
                print(f"  ... and {hidden} more")
    return status


def _cmd_random(args: argparse.Namespace) -> int:
    from .checks import random_document
    _emit(serialize(random_document(args.kind, args.seed)), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyspan",
        description="Compose, evaluate, and check polynomial documents.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compose = sub.add_parser(
        "compose", help="compose two polynomial documents (LHS after RHS)")
    p_compose.add_argument("--kind", required=True, choices=sorted(_COMPOSE),
                           help="which composition to use")
    p_compose.add_argument("lhs", help="document applied second")
    p_compose.add_argument("rhs", help="document applied first")
    p_compose.add_argument("-o", "--out", help="write here instead of stdout")
    p_compose.set_defaults(fn=_cmd_compose)

    p_eval = sub.add_parser(
        "eval", help="apply a polynomial to an indexed family")
    p_eval.add_argument("poly", help="polynomial document")
    p_eval.add_argument("family", help="family document over its source")
    p_eval.add_argument("-o", "--out", help="write here instead of stdout")
    p_eval.set_defaults(fn=_cmd_eval)

    p_check = sub.add_parser("check", help="run a property suite")
    p_check.add_argument("suite", choices=sorted(_SUITE_NAMES) + ["all"],
                         help="suite name, or all of them")
    p_check.add_argument("--seed", type=int, default=0,
                         help="generator seed (default 0)")
    p_check.add_argument("--count", type=int, default=None,
                         help="override the suite's case count")
    p_check.add_argument("--max-failures", type=int, default=5,
                         help="failure lines to print per suite")
    p_check.set_defaults(fn=_cmd_check)

    p_random = sub.add_parser("random", help="emit a seeded random document")
    p_random.add_argument("--kind", required=True, choices=sorted(KINDS))
    p_random.add_argument("--seed", type=int, required=True)
    p_random.add_argument("-o", "--out", help="write here instead of stdout")
    p_random.set_defaults(fn=_cmd_random)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InvariantViolation as e:
        # str already leads with the violated clause name
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
