"""Command-line surface: check laws, analyze elements, export diagrams.

Input posets are JSON documents in the format of
``catalog.spec_from_document``, or the name of a built-in catalog entry.

Element literals: finite labels as strings, "nat:<k>", "omega", and closed
sets as {"finite": [...], "infinity": bool} or the full
prefix/threshold/period/residues/infinity form.  Lift elements are
"bottom" / {"inner": LIT}; sum elements {"left": LIT} / {"right": LIT}.

Law names for --law are the keys of kernel.LAWS, in the order of --law all.

Exit codes: 0 no refutation, 1 some law refuted, 2 only sampling-grade
outcomes and --strict was given, 64 usage error, 65 parse/validation error,
70 internal error (an unexpected exception, reported on one stderr line).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog as cat
from .catalog import CatalogSpec, ClosedSetsPresentation, make_catalog
from .core import PosetPresentation
from .errors import (NotApproximable, ParseError, PosetError,
                     PreconditionUnverified, ScopeUnsupported, SizeLimit,
                     UnknownName, ValidationError)
from .kernel import (LAWS, in_retract, is_approximable, kernel_of,
                     quotient_structure, retract_member)
from .oracle import as_finite_poset, truncate
from .reports import (DEFAULT_PAIR_SAMPLES, DEFAULT_SEED, CheckReport, Status,
                      sampled)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_STRICT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_SOFTWARE = 70


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Input documents


def parse_input(text: str) -> CatalogSpec:
    """Parse and validate a poset document; errors carry positions."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno) from None
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
    return cat.spec_from_document(raw)


def load_poset(arg: str) -> PosetPresentation:
    """Resolve a file path or a built-in catalog name."""
    if not os.path.exists(arg):
        try:
            return make_catalog(cat.builtin_spec(arg))
        except (UnknownName, SizeLimit):
            raise ParseError(f"{arg!r} is neither a file nor a catalog "
                             "name") from None
    try:
        with open(arg, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {arg!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{arg!r} is not UTF-8 text: {exc.reason} at byte "
                         f"{exc.start}") from None
    return make_catalog(parse_input(text))


def parse_element_arg(P: PosetPresentation, text: str):
    """Element literal from the command line: JSON when it parses, a bare
    label string otherwise."""
    try:
        literal = json.loads(text)
    except (json.JSONDecodeError, RecursionError):
        literal = text
    if isinstance(literal, (int, float)) and not isinstance(literal, bool):
        literal = text  # labels like "3" stay strings
    return P.parse_element(literal)


# ---------------------------------------------------------------------------
# Law registry


def run_law(P: PosetPresentation, law: str, scope) -> CheckReport:
    try:
        check = LAWS[law]
    except KeyError:
        raise UsageError(f"unknown law {law!r} (choose from "
                         f"{', '.join(LAWS)} or all)") from None
    return check(P, scope)


# ---------------------------------------------------------------------------
# DOT export


def export_dot(P: PosetPresentation, waybelow: bool = False,
               truncate_n: int | None = None) -> str:
    """Hasse diagram as GraphViz text; way-below pairs (minus the reflexive
    ones) become dashed edges on request.  Node order follows the input
    order, so the bytes are stable."""
    if truncate_n is not None:
        trunc = truncate(P, truncate_n)
        fp, elems = trunc.poset, list(trunc.to_parent)
    elif P.is_finite_kind:
        fp, elems = as_finite_poset(P)
    else:
        raise ScopeUnsupported("symbolic kinds need --truncate <n> for "
                               "diagram export")
    lines = ["digraph poset {", "  rankdir=BT;"]
    for i, name in enumerate(fp.names):
        label = name.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{label}"];')
    for i, j in fp.hasse_edges():
        lines.append(f"  n{i} -> n{j};")
    if waybelow:
        for i, x in enumerate(elems):
            for j, y in enumerate(elems):
                if i != j and P.waybelow(x, y):
                    lines.append(f"  n{i} -> n{j} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands


def _print_report(report: CheckReport, render) -> None:
    print(report.describe(render))
    for sub in report.subreports:
        print("  " + sub.describe(render))


def cmd_check(args) -> int:
    P = load_poset(args.poset)
    laws = list(LAWS) if args.law == "all" else [args.law]
    scope = sampled(args.seed, args.samples)
    reports = []
    for law in laws:
        try:
            reports.append(run_law(P, law, scope))
        except (PreconditionUnverified, ScopeUnsupported, SizeLimit) as exc:
            print(f"[{law}] SKIPPED reason={exc}")
    for report in reports:
        _print_report(report, P.format_element)
    if any(r.status is Status.REFUTED for r in reports):
        return EXIT_REFUTED
    if args.strict and reports and all(
            r.status in (Status.UNREFUTED, Status.UNKNOWN) for r in reports):
        return EXIT_STRICT_UNKNOWN
    return EXIT_OK


def cmd_analyze(args) -> int:
    P = load_poset(args.poset)
    if args.what == "kernel":
        if args.element is None:
            raise UsageError("analyze kernel needs --element")
        x = parse_element_arg(P, args.element)
        print(f"element: {P.format_element(x)}")
        if not is_approximable(P, x):
            print("approximable: no")
            print("kernel: undefined (the element has no approximants)")
            print("in retract: no")
            return EXIT_OK
        k = kernel_of(P, x)
        print("approximable: yes")
        print(f"kernel: {P.format_element(k)}")
        print(f"in retract: {'yes' if in_retract(P, x) else 'no'}")
        return EXIT_OK
    if args.what == "retract":
        member = retract_member(P)
        if P.is_finite_kind:
            members = ", ".join(P.format_element(e) for e in P.elements()
                                if member(e))
            print(f"retract carrier: {{{members}}}")
        else:
            print("retract membership rule: x is approximable and fixed by "
                  "the kernel (sup of its approximants)")
            if isinstance(P, ClosedSetsPresentation):
                print("for closed sets: if inf is in C then the natural "
                      "part of C must be infinite"
                      + (" (and nonempty overall)" if P.punctured else ""))
        for text in args.elements or ():
            x = parse_element_arg(P, text)
            verdict = "yes" if in_retract(P, x) else "no"
            print(f"in retract {P.format_element(x)}: {verdict}")
        return EXIT_OK
    if not args.elements:
        raise UsageError("analyze quotient needs --elements")
    elems = [parse_element_arg(P, text) for text in args.elements]
    try:
        qs = quotient_structure(P, elems)
    except NotApproximable as exc:
        print(f"not approximable: {exc}")
        return EXIT_OK
    print(f"classes: {len(qs.classes)}")
    for cls, value in zip(qs.classes, qs.kernel_values):
        members = ", ".join(P.format_element(e) for e in cls)
        print(f"  class {{{members}}} -> {P.format_element(value)}")
    return EXIT_OK


def cmd_export_dot(args) -> int:
    P = load_poset(args.poset)
    text = export_dot(P, waybelow=args.waybelow, truncate_n=args.truncate)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .acceptance import run_all

    results = run_all(quick=args.quick)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_OK if not failed else EXIT_REFUTED


# ---------------------------------------------------------------------------
# Entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_at_least(low):
    """An argparse type: a decimal integer no smaller than ``low``."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="posetkernel",
                     description="Law checks, kernels, and retracts on "
                                 "poset presentations.")
    sub = parser.add_subparsers(dest="command")

    check = sub.add_parser("check", help="run law checks")
    check.add_argument("poset", help="JSON file or catalog name")
    check.add_argument("--law", default="all")
    check.add_argument("--samples", type=_int_at_least(1),
                       default=DEFAULT_PAIR_SAMPLES)
    check.add_argument("--seed", type=lambda s: int(s, 0),
                       default=DEFAULT_SEED)
    check.add_argument("--strict", action="store_true")
    check.set_defaults(func=cmd_check)

    analyze = sub.add_parser("analyze", help="kernel / retract / quotient "
                                             "of specific elements")
    analyze.add_argument("poset")
    analyze.add_argument("what", choices=("kernel", "retract", "quotient"))
    analyze.add_argument("--element")
    analyze.add_argument("--elements", nargs="*")
    analyze.set_defaults(func=cmd_analyze)

    dot = sub.add_parser("export-dot", help="Hasse diagram as DOT text")
    dot.add_argument("poset")
    dot.add_argument("--waybelow", action="store_true")
    dot.add_argument("--truncate", type=_int_at_least(0), default=None)
    dot.add_argument("--out", default=None)
    dot.set_defaults(func=cmd_export_dot)

    selftest = sub.add_parser("selftest", help="run the acceptance matrix")
    group = selftest.add_mutually_exclusive_group()
    group.add_argument("--quick", action="store_true")
    group.add_argument("--full", action="store_true")
    selftest.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            raise UsageError("a command is required "
                             "(check, analyze, export-dot, selftest)")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, ValidationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PosetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:
        message = f"{type(exc).__name__}: {exc}".replace("\n", " ")
        print(f"internal error: {message}", file=sys.stderr)
        return EXIT_SOFTWARE


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
