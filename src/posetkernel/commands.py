"""The ``analyze`` and ``export-dot`` commands, with what only they run:
element literals from the command line, the quotient by equal kernel
values, and the DOT export.

``cli.main`` loads the poset for these two commands and imports this
module for them only, as ``selftest`` imports the acceptance matrix, so a
``check`` never compiles it.  Nothing here imports ``cli``: under ``python
-m posetkernel.cli`` that would compile it a second time.
"""

from __future__ import annotations

import sys

from .core import PosetPresentation, induced_finite_poset
from .errors import (EmptyFamily, NotApproximable, ParseError, PosetError,
                     ScopeUnsupported, UsageError)
from .kernel import in_retract, is_approximable, kernel_of, retract_member
from .values import Record, assign


def parse_element_arg(P: PosetPresentation, text: str):
    """Element literal from the command line: JSON when it parses, a bare
    label string otherwise."""
    import json

    try:
        literal = json.loads(text)
    except (json.JSONDecodeError, RecursionError):
        literal = text
    if isinstance(literal, (int, float)) and not isinstance(literal, bool):
        literal = text  # labels like "3" stay strings
    return P.parse_element(literal)


# ---------------------------------------------------------------------------
# Quotient by equal kernel values


class QuotientStructure(Record):
    """A finite sample of the approximable part, partitioned by kernel
    value, with the induced bijection onto retract elements."""

    _fields = ("presentation", "sample", "classes", "kernel_values")

    def __init__(self, presentation: PosetPresentation, sample: tuple,
                 classes: tuple, kernel_values: tuple):
        assign(self, locals())
        self._class_of = {x: i for i, cls in enumerate(classes) for x in cls}

    def class_index_of(self, x) -> int:
        try:
            return self._class_of[x]
        except KeyError:
            raise NotApproximable("element not in the sampled carrier") \
                from None

    def image_of(self, x):
        """f(class of x), which must equal the kernel value of x."""
        return self.kernel_values[self.class_index_of(x)]


def quotient_structure(P: PosetPresentation, sample) -> QuotientStructure:
    """Partition a sample of approximable elements by kernel value."""
    sample = tuple(dict.fromkeys(sample))
    if not sample:
        raise EmptyFamily("quotient needs a nonempty sample")
    buckets = {}  # kernel value -> its class, in order of first appearance
    for x in sample:
        P.require(x)
        value = P.kernel_value(x)
        if value is None:
            raise NotApproximable(
                f"{P.format_element(x)} has no approximants")
        buckets.setdefault(value, []).append(x)
    classes = tuple(map(tuple, buckets.values()))
    values = tuple(buckets)
    for v in values:
        if not in_retract(P, v):
            raise PosetError("a class image escapes the retract")
    # Equal order codes mean a <= b and b <= a; leq confirms before raising.
    first = {}  # order code -> the first class value with it
    for b, code in zip(values, P.order_codes(values)):
        a = first.setdefault(code, b)
        if a is not b and P.leq(a, b) and P.leq(b, a):
            raise PosetError("transported order fails antisymmetry on "
                             "distinct classes")
    return QuotientStructure(P, sample, classes, values)


# ---------------------------------------------------------------------------
# DOT export


def export_dot(P: PosetPresentation, waybelow: bool = False,
               truncate_n: int | None = None) -> str:
    """Hasse diagram as GraphViz text; way-below pairs (minus the reflexive
    ones) become dashed edges on request.  Node order follows the input
    order, so the bytes are stable; a finite carrier is drawn whole."""
    if P.is_finite_kind:
        elems, fp = P.elements(), P.poset
    elif truncate_n is not None:
        elems = P.truncation(truncate_n)
        fp = induced_finite_poset(P, elems)
    else:
        raise ScopeUnsupported("symbolic kinds need --truncate <n> for "
                               "diagram export")
    lines = ["digraph poset {", "  rankdir=BT;"]
    for i, x in enumerate(elems):
        label = P.format_element(x).replace("\\", "\\\\").replace('"', '\\"')
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


def cmd_analyze(P: PosetPresentation, args) -> None:
    # Every literal is parsed before anything is printed, so an input error
    # (exit 65) leaves stdout empty.
    if args.what == "kernel":
        if args.element is None:
            raise UsageError("analyze kernel needs --element")
        x = parse_element_arg(P, args.element)
        print(f"element: {P.format_element(x)}")
        if not is_approximable(P, x):
            print("approximable: no")
            print("kernel: undefined (the element has no approximants)")
            print("in retract: no")
            return
        k = kernel_of(P, x)
        print("approximable: yes")
        print(f"kernel: {P.format_element(k)}")
        print(f"in retract: {'yes' if in_retract(P, x) else 'no'}")
        return
    elems = [parse_element_arg(P, text) for text in args.elements or ()]
    if args.what == "retract":
        member = retract_member(P)
        if P.is_finite_kind:
            members = ", ".join(P.format_element(e) for e in P.elements()
                                if member(e))
            print(f"retract carrier: {{{members}}}")
        else:
            print("retract membership rule: x is approximable and fixed by "
                  "the kernel (sup of its approximants)")
            for rule in P.retract_rules():
                print(rule)
        for x in elems:
            verdict = "yes" if in_retract(P, x) else "no"
            print(f"in retract {P.format_element(x)}: {verdict}")
        return
    if not elems:
        raise UsageError("analyze quotient needs --elements")
    try:
        qs = quotient_structure(P, elems)
    except NotApproximable as exc:
        print(f"not approximable: {exc}")
        return
    print(f"classes: {len(qs.classes)}")
    for cls, value in zip(qs.classes, qs.kernel_values):
        members = ", ".join(P.format_element(e) for e in cls)
        print(f"  class {{{members}}} -> {P.format_element(value)}")


def cmd_export_dot(P: PosetPresentation, args) -> None:
    text = export_dot(P, waybelow=args.waybelow, truncate_n=args.truncate)
    if args.out is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {args.out!r}: {exc.strerror}") \
            from None
