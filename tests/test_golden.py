"""Byte-for-byte regression of `posetkernel check <kind> --law all` on the
standard roster, and the law table that the output and the benchmark's
per-law timing are keyed by.

Each tests/golden/check_<kind>.txt holds the stdout of that command followed
by a final line `exit <code>`.  The combinator kinds are read from the same
JSON documents the benchmark runs (perfbench/kinds/*.json).  To regenerate a
file after an intended output change, run the command and append the exit
line; review the diff before committing it.

Five more kinds the roster misses are pinned the same way in
tests/golden/extra_<name>.txt from the documents in ``EXTRAS``: a lift of a
finite poset, a sum with a finite and a symbolic side, a finite chain above
10 elements (the directed-subset counts of the bank laws), a sum with a
finite lift on one side (the lift's bank as a symbolic carrier reads it)
and the 32-deep lift of a two-element chain (34 elements, above the
subset-scan cap, every law decided all the same).
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from posetkernel import cli, kernel
from posetkernel.catalog import (NAMED_FINITE_ROSTER, finite_named,
                                 spec_to_document)

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
KINDS = ROOT / "perfbench" / "kinds"

ROSTER = {name: name for name in NAMED_FINITE_ROSTER
          + ("omega_plus_one", "closed_sets", "punctured_closed_sets")}
ROSTER.update((doc.stem, str(doc)) for doc in sorted(KINDS.glob("*.json")))

CHAIN_2 = {"kind": "finite", "elements": ["0", "1"], "covers": [["0", "1"]]}
DEEP_LIFT_CHAIN_2 = CHAIN_2
for _ in range(32):
    DEEP_LIFT_CHAIN_2 = {"kind": "lift", "inner": DEEP_LIFT_CHAIN_2}
EXTRAS = {
    "lift_chain_3": {"kind": "lift", "inner": {
        "kind": "finite", "elements": ["0", "1", "2"],
        "covers": [["0", "1"], ["1", "2"]]}},
    "disjoint_sum_chain_2_closed_sets": {
        "kind": "disjoint_sum", "left": CHAIN_2,
        "right": {"kind": "closed_sets"}},
    "chain_12": spec_to_document(finite_named("chain_12")),
    "disjoint_sum_lift_chain_2_omega_plus_one": {
        "kind": "disjoint_sum", "left": {"kind": "lift", "inner": CHAIN_2},
        "right": {"kind": "omega_plus_one"}},
    "deep_lift_chain_2": DEEP_LIFT_CHAIN_2,
}


def run_check(arg) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", arg, "--law", "all"])
    return out.getvalue() + f"exit {code}\n"


def test_roster_has_sixteen_kinds():
    assert len(ROSTER) == 16
    assert sorted(p.name for p in GOLDEN.glob("check_*.txt")) == sorted(
        f"check_{name}.txt" for name in ROSTER)


@pytest.mark.parametrize("name", sorted(ROSTER))
def test_check_all_matches_golden(name):
    expected = (GOLDEN / f"check_{name}.txt").read_bytes()
    assert run_check(ROSTER[name]).encode() == expected


@pytest.mark.parametrize("name", sorted(EXTRAS))
def test_extra_kind_matches_golden(name, tmp_path):
    doc = tmp_path / f"{name}.json"
    doc.write_text(json.dumps(EXTRAS[name]))
    expected = (GOLDEN / f"extra_{name}.txt").read_bytes()
    assert run_check(str(doc)).encode() == expected


def test_law_table_matches_benchmark_spans():
    """perfbench/spans.py keys its per-law timing by these names; a name
    missing there would silently read 0."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert list(kernel.LAWS) == list(spans.LAWS)


def test_unknown_law_names_every_law():
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(["check", "closed_sets", "--law", "gibberish"])
    assert code == 64
    message = err.getvalue()
    assert message.startswith("usage error: unknown law 'gibberish'")
    assert all(name in message for name in kernel.LAWS)
    assert ", ".join(kernel.LAWS) + " or all" in message
