"""Command-line surface: check laws, analyze elements, export diagrams.

Input posets are JSON documents (or the name of a built-in catalog entry):

    {"kind": "finite", "elements": ["a", "b"], "covers": [["a", "b"]]}
    {"kind": "omega_plus_one"}
    {"kind": "closed_sets"} | {"kind": "punctured_closed_sets"}
    {"kind": "lift", "inner": DOC}
    {"kind": "disjoint_sum", "left": DOC, "right": DOC}

Element literals: finite labels as strings, "nat:<k>", "omega", and closed
sets as {"finite": [...], "infinity": bool} or the full
prefix/threshold/period/residues/infinity form.  Lift elements are
"bottom" / {"inner": LIT}; sum elements {"left": LIT} / {"right": LIT}.

Exit codes: 0 no refutation, 1 some law refuted, 2 only sampling-grade
outcomes and --strict was given, 64 usage error, 65 parse/validation error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import catalog as cat
from .catalog import (CatalogSpec, ClosedSetsPresentation, make_catalog,
                      named_finite_poset)
from .closedsets import EVENS, ODDS
from .core import PosetPresentation, check_axiom
from .errors import (NoInfimumError, NotApproximable, ParseError, PosetError,
                     PreconditionUnverified, ScopeUnsupported, SizeLimit,
                     UnknownName, ValidationError)
from .kernel import (check_approximation_laws, check_inf_preservation,
                     check_kernel_laws, check_largest_retract,
                     check_scott_continuity,
                     check_waybelow_kernel_equivalence, in_retract,
                     is_approximable, kernel_of, quotient_structure,
                     retract_view)
from .oracle import as_finite_poset, truncate
from .reports import (DEFAULT_PAIR_SAMPLES, DEFAULT_SEED, CheckReport, Status,
                      combine, sampled, unrefuted)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_STRICT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_PARSE = 65


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Input documents


@dataclass
class InputDocument:
    """A validated, normalized poset description."""

    data: dict

    def to_spec(self) -> CatalogSpec:
        return _doc_to_spec(self.data)

    def serialize(self) -> str:
        return json.dumps(self.data, sort_keys=True, separators=(", ", ": "))


_SYMBOLIC_KINDS = ("omega_plus_one", "closed_sets", "punctured_closed_sets")


def parse_input(text: str) -> InputDocument:
    """Parse and validate a poset document; errors carry positions."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno) from None
    return InputDocument(_normalize_doc(raw))


def _normalize_doc(raw) -> dict:
    if not isinstance(raw, dict):
        raise ValidationError("poset document must be a JSON object")
    kind = raw.get("kind")
    if kind == "finite":
        extra = set(raw) - {"kind", "elements", "covers"}
        if extra:
            raise ValidationError(f"unknown fields {sorted(extra)}")
        elements = raw.get("elements")
        covers = raw.get("covers", [])
        if (not isinstance(elements, list) or not elements
                or not all(isinstance(e, str) for e in elements)):
            raise ValidationError("'elements' must be a nonempty list of "
                                  "label strings")
        if not isinstance(covers, list) or not all(
                isinstance(c, list) and len(c) == 2
                and all(isinstance(x, str) for x in c) for c in covers):
            raise ValidationError("'covers' must be a list of [a, b] pairs")
        try:
            cat.build_finite_poset(elements, [tuple(c) for c in covers])
        except PosetError as exc:
            raise ValidationError(str(exc)) from None
        return {"kind": "finite", "elements": list(elements),
                "covers": [list(c) for c in covers]}
    if kind in _SYMBOLIC_KINDS:
        extra = set(raw) - {"kind"}
        if extra:
            raise ValidationError(f"unknown fields {sorted(extra)}")
        return {"kind": kind}
    if kind == "lift":
        extra = set(raw) - {"kind", "inner"}
        if extra:
            raise ValidationError(f"unknown fields {sorted(extra)}")
        return {"kind": "lift", "inner": _normalize_doc(raw.get("inner"))}
    if kind == "disjoint_sum":
        extra = set(raw) - {"kind", "left", "right"}
        if extra:
            raise ValidationError(f"unknown fields {sorted(extra)}")
        return {"kind": "disjoint_sum",
                "left": _normalize_doc(raw.get("left")),
                "right": _normalize_doc(raw.get("right"))}
    raise ValidationError(f"unknown poset kind {kind!r}")


def _doc_to_spec(doc: dict) -> CatalogSpec:
    kind = doc["kind"]
    if kind == "finite":
        return cat.finite_explicit(doc["elements"],
                                   [tuple(c) for c in doc["covers"]])
    if kind == "omega_plus_one":
        return cat.omega_plus_one()
    if kind == "closed_sets":
        return cat.closed_sets()
    if kind == "punctured_closed_sets":
        return cat.punctured_closed_sets()
    if kind == "lift":
        return cat.lift(_doc_to_spec(doc["inner"]))
    return cat.disjoint_sum(_doc_to_spec(doc["left"]),
                            _doc_to_spec(doc["right"]))


def document_for_builtin(name: str) -> InputDocument:
    """The document a catalog name denotes (named finite posets are spelled
    out as explicit cover lists)."""
    if name in _SYMBOLIC_KINDS:
        return InputDocument({"kind": name})
    fp = named_finite_poset(name)
    covers = [[fp.names[i], fp.names[j]] for i, j in fp.hasse_edges()]
    return InputDocument({"kind": "finite", "elements": list(fp.names),
                          "covers": covers})


def load_poset(arg: str) -> tuple[InputDocument, PosetPresentation]:
    """Resolve a file path or a built-in catalog name."""
    if os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as handle:
            doc = parse_input(handle.read())
    else:
        try:
            doc = document_for_builtin(arg)
        except (UnknownName, SizeLimit):
            raise ParseError(f"{arg!r} is neither a file nor a catalog "
                             "name") from None
    return doc, make_catalog(doc.to_spec())


def parse_element_arg(P: PosetPresentation, text: str):
    """Element literal from the command line: JSON when it parses, a bare
    label string otherwise."""
    try:
        literal = json.loads(text)
    except json.JSONDecodeError:
        literal = text
    if isinstance(literal, (int, float)) and not isinstance(literal, bool):
        literal = text  # labels like "3" stay strings
    return P.parse_element(literal)


# ---------------------------------------------------------------------------
# Law registry


LAW_ORDER = ("cc", "interpolation", "continuity", "subposet", "kernel",
             "scott", "eq", "largest-retract", "laws", "inf")


def run_law(P: PosetPresentation, law: str, scope) -> CheckReport:
    if law == "cc":
        return check_axiom(P, "conditionally_complete", scope)
    if law == "interpolation":
        return check_axiom(P, "interpolating", scope)
    if law == "continuity":
        return check_axiom(P, "continuous", scope)
    if law == "subposet":
        return check_axiom(P, "subposet", scope, view=retract_view(P))
    if law == "kernel":
        return check_kernel_laws(P, scope)
    if law == "scott":
        return check_scott_continuity(P)
    if law == "eq":
        return check_waybelow_kernel_equivalence(P, scope)
    if law == "largest-retract":
        return check_largest_retract(P, scope)
    if law == "laws":
        return check_approximation_laws(P, scope)
    if law == "inf":
        return _run_inf_law(P, scope)
    raise UsageError(f"unknown law {law!r} (choose from "
                     f"{', '.join(LAW_ORDER)} or all)")


def _run_inf_law(P: PosetPresentation, scope) -> CheckReport:
    """Kernel-of-infimum instances: the canned evens/odds pair on the full
    closed-set lattice, then sampled retract subsets."""
    import random

    law = "infima-preservation"
    instances = []
    if isinstance(P, ClosedSetsPresentation) and not P.punctured:
        instances.append((EVENS, ODDS))
    rng = random.Random(scope.seed if scope else DEFAULT_SEED)
    pool = [x for x in _pool(P, rng, 200) if in_retract(P, x)]
    want = 50 if scope is None else max(10, scope.count // 10)
    attempts = 0
    while len(instances) < want and attempts < want * 8 and len(pool) >= 2:
        attempts += 1
        instances.append(tuple(rng.sample(pool,
                                          rng.randint(2, min(3, len(pool))))))
    parts = []
    skipped = 0
    for inst in instances:
        try:
            parts.append(check_inf_preservation(P, inst, scope))
        except NoInfimumError:
            skipped += 1
    if not parts:
        return unrefuted(law, 0, scope or sampled(),
                         reason=f"no instances with approximable infima "
                                f"({skipped} skipped)")
    report = combine(law, parts, scope or sampled())
    report.law = law
    if report.status is not Status.REFUTED:
        report.subreports = []
        report.reason = (f"{len(parts)} retract subsets checked"
                         + (f", {skipped} without an approximable infimum"
                            if skipped else ""))
    return report


def _pool(P, rng, count):
    from .core import sample_pool

    return sample_pool(P, rng, count)


# ---------------------------------------------------------------------------
# DOT export


def export_dot(P: PosetPresentation, waybelow: bool = False,
               truncate_n: int | None = None) -> str:
    """Hasse diagram as GraphViz text; way-below pairs (minus the reflexive
    ones) become dashed edges on request.  Node order follows the input
    order, so the bytes are stable."""
    if P.is_finite_kind:
        fp, elems = as_finite_poset(P)
        wb = P.waybelow
    elif truncate_n is not None:
        trunc = truncate(P, truncate_n)
        fp, elems = trunc.poset, list(trunc.to_parent)
        wb = P.waybelow
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
                if i != j and wb(x, y):
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
    _, P = load_poset(args.poset)
    laws = list(LAW_ORDER) if args.law == "all" else [args.law]
    scope = sampled(args.seed, args.samples)
    reports = []
    for law in laws:
        try:
            reports.append(run_law(P, law, scope if not P.is_finite_kind
                                   else None))
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
    _, P = load_poset(args.poset)
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
        view = retract_view(P)
        if P.is_finite_kind:
            members = ", ".join(P.format_element(e) for e in view.carrier())
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
    _, P = load_poset(args.poset)
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="posetkernel",
                     description="Law checks, kernels, and retracts on "
                                 "poset presentations.")
    sub = parser.add_subparsers(dest="command")

    check = sub.add_parser("check", help="run law checks")
    check.add_argument("poset", help="JSON file or catalog name")
    check.add_argument("--law", default="all")
    check.add_argument("--samples", type=int, default=DEFAULT_PAIR_SAMPLES)
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
    dot.add_argument("--truncate", type=int, default=None)
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


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
