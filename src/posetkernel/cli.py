"""Command-line surface: check laws, analyze elements, export diagrams.

Input posets are JSON documents in the format of
``catalog.spec_from_document``, or the name of a built-in catalog entry.

Element literals: finite labels as strings, "nat:<k>", "omega", and closed
sets as {"finite": [...], "infinity": bool} or the full
prefix/threshold/period/residues/infinity form.  Lift elements are
"bottom" / {"inner": LIT}; sum elements {"left": LIT} / {"right": LIT}.

Law names for --law are the keys of kernel.LAWS, in the order of --law all.

Exit codes: 0 no refutation, 1 some law refuted, 2 no law Verified (each
was Unrefuted or skipped) and --strict was given, 64 usage error, 65
parse/validation error, a corrupt catalog entry or an --out file that cannot
be written, 70 internal error (an unexpected exception, reported on one
stderr line).
"""

from __future__ import annotations

import gc
import os
import re
import sys
from types import SimpleNamespace

from . import catalog as cat
from .catalog import CatalogSpec, make_catalog
from .core import PosetPresentation
from .errors import (ParseError, PosetError, PreconditionUnverified,
                     ScopeUnsupported, SizeLimit, UnknownName, UsageError,
                     ValidationError)
from .kernel import LAWS
from .reports import (DEFAULT_PAIR_SAMPLES, DEFAULT_SEED, CheckReport, Status,
                      sampled)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_STRICT_UNREFUTED = 2
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_SOFTWARE = 70


# ---------------------------------------------------------------------------
# Input documents


def parse_input(text: str) -> CatalogSpec:
    """Parse and validate a poset document; errors carry positions."""
    import json

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
    if args.strict and not any(r.status is Status.VERIFIED for r in reports):
        return EXIT_STRICT_UNREFUTED  # a skipped law is no verification
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
#
# The command line is read as Python 3.11's argparse read it for the parser
# this table replaced, with its usage-error wording, but without importing
# argparse (and with it gettext and locale) in every process.  Each word is
# first classified: an option (a long one may be shortened to a unique
# prefix and take its value after "="), a positional, or the "--" after
# which every word is positional.  Then, left to right, each option takes
# its value and each run of positionals fills the command's slots in order.


def _int_at_least(low, base=10):
    """A value reader: an integer no smaller than ``low``, read by
    ``int(text, base)`` (base 0 also reads prefixed literals: 0xC0FFEE)."""

    def parse(text):
        try:
            value = int(text, base)
        except ValueError:
            raise ValueError(f"invalid int value: {text!r}") from None
        if value < low:
            raise ValueError(f"must be at least {low}, got {value}")
        return value

    return parse


def _choice(*names):
    def parse(text):
        if text not in names:
            raise ValueError(f"invalid choice: {text!r} (choose from "
                             f"{', '.join(map(repr, names))})")
        return text

    return parse


_HELP = {"-h": (0, None, None), "--help": (0, None, None)}
# command -> (summary, positionals, options).  A positional names its value
# reader; an option gives its arity (0 a flag, 1 one value, "*" any number of
# values), value reader and default.
_COMMANDS = {
    "check": ("run law checks", {"poset": str}, {
        "--law": (1, str, "all"),
        "--samples": (1, _int_at_least(1), DEFAULT_PAIR_SAMPLES),
        "--seed": (1, _int_at_least(0, base=0), DEFAULT_SEED),
        "--strict": (0, None, False)}),
    "analyze": ("kernel / retract / quotient of specific elements",
                {"poset": str, "what": _choice("kernel", "retract",
                                               "quotient")},
                {"--element": (1, str, None), "--elements": ("*", str, None)}),
    "export-dot": ("Hasse diagram as DOT text", {"poset": str}, {
        "--waybelow": (0, None, False),
        "--truncate": (1, _int_at_least(0), None),
        "--out": (1, str, None)}),
    "selftest": ("run the acceptance matrix", {}, {
        "--quick": (0, None, False), "--full": (0, None, False)}),
}
_EXCLUSIVE = {"--quick": "--full", "--full": "--quick"}
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


class _Help(Exception):
    """-h or --help: the text to print, after which nothing else is read."""


def _help(command=None) -> str:
    if command is None:
        rows = "".join(f"\n  {name:<10}  {spec[0]}"
                       for name, spec in _COMMANDS.items())
        return ("usage: posetkernel <command> [options]\n\nLaw checks, "
                "kernels, and retracts on poset presentations.\n\n"
                f"commands:{rows}\n\n'posetkernel <command> -h' shows the "
                "options of a command.")
    summary, positionals, options = _COMMANDS[command]
    words = [f"[{opt}]" if arity == 0 else
             f"[{opt} {opt[2:].upper()}{' ...' if arity == '*' else ''}]"
             for opt, (arity, _, _) in options.items()]
    return " ".join(["usage: posetkernel", command, "[-h]", *words,
                     *positionals]) + f"\n\n{summary}"


def _option(word, options):
    """How ``word`` reads against ``options``: None for a positional, else
    (option, its value given after "=" or glued to -h, or None); the option
    is None when no option matches."""
    if word[:1] != "-" or word == "-":
        return None
    if word in options:
        return word, None
    name, eq, value = word.partition("=")
    if eq and name in options:
        return name, value
    if word[1] == "-":
        matches = [opt for opt in options if opt.startswith(name)]
        value = value if eq else None
    else:
        matches = [opt for opt in options if opt == word[:2]]
        value = word[2:]
    if len(matches) > 1:
        raise UsageError(f"ambiguous option: {word} could match "
                         f"{', '.join(matches)}")
    if matches:
        return matches[0], value
    if _NEGATIVE.match(word) or " " in word:
        return None
    return None, None


def _flag(opt, value, command=None):
    """Take the flag ``opt``: a value for it is refused, except that -hh
    is -h twice; -h and --help stop here with the help text."""
    if value is not None:
        rest = value.lstrip("h") if opt == "-h" and value else value
        if rest or not value:
            name = "-h/--help" if opt in _HELP else opt
            raise UsageError(f"argument {name}: ignored explicit argument "
                             f"{rest!r}")
    if opt in _HELP:
        raise _Help(_help(command))


def _read(label, read, word):
    try:
        return read(word)
    except ValueError as exc:
        raise UsageError(f"argument {label}: {exc}") from None


def _value(label, read, words, arity=1):
    """The value of an option or positional from its words: the first "--"
    among them is dropped, as argparse has it, and a one-value slot left
    with no word is refused (argparse gave it an empty list)."""
    words = list(words)
    if "--" in words:
        words.remove("--")
    if arity == 1 and not words:
        raise UsageError(f"argument {label}: expected one argument")
    values = [_read(label, read, word) for word in words]
    return values[0] if arity == 1 and len(values) == 1 else values


def parse_args(argv) -> SimpleNamespace:
    """The command and its values; UsageError for what argparse refused."""
    extras = []
    args = None
    for k, word in enumerate(argv):
        if word == "--":  # read as the command, unless nothing follows
            mark = None if argv[k + 1:] else (None, None)
        else:
            mark = _option(word, _HELP)
        if mark is None:
            _read("command", _choice(*_COMMANDS), word)
            args = _parse_command(word, argv[k + 1:], extras)
            break
        if mark[0] is None:
            extras.append(word)
        else:
            _flag(*mark)
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    if args is None:
        raise UsageError("a command is required "
                         f"({', '.join(_COMMANDS)})")
    return args


def _parse_command(command, words, extras) -> SimpleNamespace:
    _, positionals, options = _COMMANDS[command]
    table = {**_HELP, **options}
    args = SimpleNamespace(command=command, **{
        opt[2:]: default for opt, (_, _, default) in options.items()})
    marks = []
    for k, word in enumerate(words):
        if word == "--":
            marks += ["--"] + [None] * (len(words) - k - 1)
            break
        marks.append(_option(word, table))
    slots = list(positionals.items())
    given = set()
    last = owner = -2  # the word last taken by a positional, the "--" owner
    i, n = 0, len(words)
    while i < n:
        mark, word = marks[i], words[i]
        i += 1
        if mark == "--":
            # it goes with the positional just before it, else with the next
            # one, else it is left over
            if last == i - 2:
                continue
            if slots and i < n:
                owner = i
                continue
            extras.append(word)
        elif mark is None:
            if not slots:
                extras.append(word)
                continue
            name, read = slots.pop(0)
            mine = [word, "--"] if i - 1 == owner else [word]
            setattr(args, name, _value(name, read, mine))
            last = i - 1
        elif mark[0] is None:
            extras.append(word)
        elif table[mark[0]][0] == 0:
            opt = mark[0]
            _flag(opt, mark[1], command)
            if _EXCLUSIVE.get(opt) in given:
                raise UsageError(f"argument {opt}: not allowed with "
                                 f"argument {_EXCLUSIVE[opt]}")
            given.add(opt)
            setattr(args, opt[2:], True)
        else:
            opt, value = mark
            arity, read, _ = table[opt]
            if value is None:
                end, stop = i, n if arity == "*" else min(i + 1, n)
                while end < stop and marks[end] is None:
                    end += 1
                if end == i and arity == 1:
                    raise UsageError(f"argument {opt}: expected one argument")
                value, i = words[i:end], end
            else:
                value = [value]
            setattr(args, opt[2:], _value(opt, read, value, arity))
    if slots:
        raise UsageError("the following arguments are required: "
                         f"{', '.join(name for name, _ in slots)}")
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        run = {"check": cmd_check, "selftest": cmd_selftest}
        if args.command in run:
            return run[args.command](args)
        from . import commands  # analyze and export-dot
        run = {"analyze": commands.cmd_analyze,
               "export-dot": commands.cmd_export_dot}
        run[args.command](load_poset(args.poset), args)
        return EXIT_OK
    except _Help as text:
        print(text)
        return EXIT_OK
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
    """The process entry point.  Freezing the heap before the exit lets the
    interpreter's shutdown skip its full collections over objects the
    operating system is about to reclaim; ``main`` itself leaves ``gc``
    alone, as tests and the acceptance matrix call it in-process."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_entry()
