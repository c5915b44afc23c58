"""The acceptance matrix: every headline property of the library as one
runnable criterion, used by the test suite and by `posetkernel selftest`.

Criteria are property-grade, not numeric: oracle equivalence on finite
carriers, pinned refutation witnesses on the symbolic ones, law checks over
the full family bank, and the CLI contract (round-trips, stable bytes, exit
codes).  ``quick`` mode shrinks the random-poset seed range and sample
counts; the full matrix is the shipped definition of done.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from functools import cache

from . import cli
# The matrix builds every carrier, so they load with it: a tool that wraps
# the presentation classes after this import (perfbench/spans.py) sees
# them all.
from . import carriers  # noqa: F401
from .catalog import (NAMED_FINITE_ROSTER, finite_named, finite_random,
                      make_catalog, spec_to_document, standard_roster)
from .closedsets import EMPTY, EVENS, INF_POINT, ODDS, closed_set
from .core import scope_pool
from .kernel import (adversarial_kernel, check_approximation_laws,
                     check_inf_preservation_sampled, check_kernel_laws,
                     check_largest_retract, check_scott_continuity,
                     check_waybelow_kernel_equivalence, is_approximable,
                     kernel_of, quotient_structure, retract_member)
from .oracle import (kernel_bruteforce, largest_continuous_subposet_bruteforce,
                     waybelow_bruteforce)
from .reports import DEFAULT_SEED, Status, sampled
from .values import Record, assign

import random


class CriterionResult(Record):
    __slots__ = _fields = ("ident", "title", "passed", "detail", "seconds")

    def __init__(self, ident: str, title: str, passed: bool, detail: str,
                 seconds: float):
        assign(self, locals())

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"[{self.ident}] {verdict} ({self.seconds:.2f}s) "
                f"{self.title}: {self.detail}")


def _result(ident, title, fn) -> CriterionResult:
    start = time.perf_counter()
    try:
        detail = fn()
        passed = True
    except AssertionError as exc:
        detail = str(exc) or "assertion failed"
        passed = False
    seconds = time.perf_counter() - start
    return CriterionResult(ident, title, passed, detail, seconds)


@cache
def _roster() -> dict:
    """``standard_roster()`` by name, built once, so the criteria share each
    presentation and the pools and kernel values it memoizes."""
    return {P.name: P for P in standard_roster()}


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# C1: finite oracle equivalence


def _finite_lineup(quick: bool):
    specs = [finite_named(name) for name in NAMED_FINITE_ROSTER]
    seeds = range(20 if quick else 200)
    specs += [finite_random((seed % 8) + 1, 0.35, seed) for seed in seeds]
    return [make_catalog(s) for s in specs]


def criterion_1(quick: bool = False) -> str:
    pairs = posets = 0
    for P in _finite_lineup(quick):
        fp = P.poset
        n = fp.n
        for x in range(n):
            for y in range(n):
                brute = waybelow_bruteforce(fp, x, y)
                assert P.waybelow(x, y) == brute, \
                    f"{P.name}: certified waybelow differs at ({x},{y})"
                assert brute == fp.leq(x, y), \
                    f"{P.name}: waybelow/leq meta-fact fails at ({x},{y})"
                pairs += 1
            assert kernel_of(P, x) == kernel_bruteforce(fp, x), \
                f"{P.name}: kernel differs at {x}"
        member = retract_member(P)
        carrier = frozenset(x for x in P.elements() if member(x))
        brute_carrier = frozenset(largest_continuous_subposet_bruteforce(fp))
        assert carrier == brute_carrier, \
            f"{P.name}: retract carrier differs from brute force"
        posets += 1
    return f"{posets} posets, {pairs} way-below pairs agree with brute force"


# ---------------------------------------------------------------------------
# C2: non-continuity witness on the closed-set lattice


def criterion_2(quick: bool = False) -> str:
    code, text = _run_cli(["check", "closed_sets", "--law", "continuity"])
    assert code == 1, f"exit code {code}, expected 1"
    assert "REFUTED" in text and "witness={inf}" in text, text
    assert "sup of approximants = {}" in text, text
    C = _roster()["closed_sets"]
    assert kernel_of(C, INF_POINT) == EMPTY
    return "continuity refuted at {inf} with kernel {} and exit code 1"


# ---------------------------------------------------------------------------
# C3: the approximable part is proper in the punctured lattice


def criterion_3(quick: bool = False) -> str:
    P = _roster()["punctured_closed_sets"]
    assert not is_approximable(P, INF_POINT), "{inf} must not be approximable"
    rng = random.Random(DEFAULT_SEED)
    count = 0
    for rep in P.sample_elements(rng, 400):
        if not any(m in rep for m in range(64)) and not rep.residues:
            continue
        assert is_approximable(P, rep), \
            f"{P.format_element(rep)} has a natural member but no approximants"
        count += 1
        if count >= 100:
            break
    assert count >= 100, f"only {count} sampled sets with natural members"
    report = check_approximation_laws(P)
    subs = {s.law: s for s in report.subreports}
    for law in ("directed-restriction", "restriction-nonempty"):
        assert subs[law].status is not Status.REFUTED, subs[law].describe()
    return f"{count} approximable samples; restriction laws unrefuted"


# ---------------------------------------------------------------------------
# C4: kernel laws, the way-below equivalence, Scott continuity


def criterion_4(quick: bool = False) -> str:
    scope = sampled(DEFAULT_SEED, 100 if quick else 500)
    kinds = 0
    for P in _roster().values():
        laws = check_kernel_laws(P, scope)
        equiv = check_waybelow_kernel_equivalence(P, scope)
        scott = check_scott_continuity(P)
        for report in (laws, equiv, scott):
            assert report.status is not Status.REFUTED, \
                f"{P.name}: {report.describe(P.format_element)}"
            if P.is_finite_kind:
                assert report.status is Status.VERIFIED, \
                    f"{P.name}: {report.law} not Verified on a finite kind"
        kinds += 1
    return f"{kinds} catalog kinds clean on kernel laws, equivalence, Scott"


# ---------------------------------------------------------------------------
# C5: the retract is the largest continuous subposet


def criterion_5(quick: bool = False) -> str:
    for name in NAMED_FINITE_ROSTER:
        P = _roster()[name]
        report = check_largest_retract(P)
        assert report.status is Status.VERIFIED, \
            f"{name}: {report.describe(P.format_element)}"
    C = _roster()["closed_sets"]
    report = check_largest_retract(C)
    assert report.status is not Status.REFUTED, \
        report.describe(C.format_element)
    subs = {s.law: s for s in report.subreports}
    candidate = subs["largest-retract:candidate-beyond-retract"]
    assert candidate.status is Status.VERIFIED, candidate.describe()
    assert "{}" in candidate.reason and "{inf}" in candidate.reason, \
        candidate.reason
    return ("named posets Verified exhaustively; candidate beyond the "
            "retract refuted at {inf} with sup {}")


# ---------------------------------------------------------------------------
# C6: double approximation and retract self-approximation


def criterion_6(quick: bool = False) -> str:
    scope = sampled(DEFAULT_SEED, 200)
    kinds = 0
    for P in _roster().values():
        report = check_approximation_laws(P, scope)
        subs = {s.law: s for s in report.subreports}
        for law in ("double-approximation", "retract-approximation"):
            assert subs[law].status is not Status.REFUTED, \
                f"{P.name}: {subs[law].describe(P.format_element)}"
        kinds += 1
    return f"{kinds} kinds: approximants of approximants behave"


# ---------------------------------------------------------------------------
# C7: the kernel preserves existing infima


def criterion_7(quick: bool = False) -> str:
    C = _roster()["closed_sets"]
    glb = C.finite_inf((EVENS, ODDS))
    assert glb == INF_POINT, C.format_element(glb)
    assert kernel_of(C, glb) == EMPTY
    report = check_inf_preservation_sampled(C)
    assert report.status is Status.UNREFUTED, \
        report.describe(C.format_element)
    assert report.reason.startswith("50 retract subsets checked"), \
        report.reason
    return ("evens/odds infimum is {inf} with kernel {}; the inf law over "
            f"it and sampled retract subsets: {report.reason}")


# ---------------------------------------------------------------------------
# C8: quotient by equal kernel values


def criterion_8(quick: bool = False) -> str:
    C = _roster()["closed_sets"]
    sample = (INF_POINT, EMPTY, closed_set({1}, infinity=True),
              closed_set({1}))
    qs = quotient_structure(C, sample)
    assert len(qs.classes) == 2, f"{len(qs.classes)} classes"
    assert qs.kernel_values == (EMPTY, closed_set({1})), qs.kernel_values
    count = 200 if not quick else 50
    for P in (C, _roster()["lift(punctured_closed_sets)"]):
        pool, _ = scope_pool(P, sampled(DEFAULT_SEED, count * 2))
        pool = [x for x in pool if is_approximable(P, x)][:count]
        qs = quotient_structure(P, pool)
        for x in pool:
            assert qs.image_of(x) == kernel_of(P, x), \
                f"{P.name}: f(pi(x)) != k(x) at {P.format_element(x)}"
    return "pinned 4-element sample gives classes {} and {1}; f o pi = k"


# ---------------------------------------------------------------------------
# C9: harness sanity via the planted adversarial kernel


def criterion_9(quick: bool = False) -> str:
    C = _roster()["closed_sets"]
    report = check_kernel_laws(C, kernel=adversarial_kernel(C))
    assert report.status is Status.REFUTED, "adversarial kernel slipped by"
    assert "deflation" in report.reason, report.reason
    return "adversarial kernel refuted by the deflation law"


# ---------------------------------------------------------------------------
# C10: CLI round-trips, byte-stable DOT, exit codes


_FIXTURE_DOCS = (
    '{"kind": "omega_plus_one"}',
    '{"kind": "closed_sets"}',
    '{"kind": "punctured_closed_sets"}',
    '{"kind": "finite", "elements": ["a", "b", "c", "d"], '
    '"covers": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]]}',
    '{"kind": "lift", "inner": {"kind": "punctured_closed_sets"}}',
    '{"kind": "disjoint_sum", "left": {"kind": "omega_plus_one"}, '
    '"right": {"kind": "closed_sets"}}',
)


def criterion_10(quick: bool = False) -> str:
    for text in _FIXTURE_DOCS:
        spec = cli.parse_input(text)
        again = cli.parse_input(json.dumps(spec_to_document(spec)))
        assert again == spec, f"round-trip drift on {text}"
    P = _roster()["diamond"]
    first = cli.export_dot(P, waybelow=True)
    second = cli.export_dot(P, waybelow=True)
    assert first == second and first.encode() == second.encode()
    C = _roster()["closed_sets"]
    t1 = cli.export_dot(C, truncate_n=1)
    assert t1 == cli.export_dot(C, truncate_n=1)
    assert t1.count("[label=") == 8, "truncate 1 must have 8 nodes"

    code, _ = _run_cli(["check", "diamond", "--law", "all"])
    assert code == 0, f"diamond check exit {code}"
    code, _ = _run_cli(["check", "closed_sets", "--law", "continuity"])
    assert code == 1, f"refuted check exit {code}"
    code, _ = _run_cli(["check", "closed_sets", "--law", "kernel",
                        "--samples", "100", "--strict"])
    assert code == 2, f"strict sampled check exit {code}"
    code, _ = _run_cli(["frobnicate"])
    assert code == 64, f"usage exit {code}"
    import tempfile, os
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as handle:
        handle.write('{"kind": "finite", "elements": ["a"], '
                     '"covers": [["a", "a"]]}')
        path = handle.name
    try:
        code, _ = _run_cli(["check", path])
        assert code == 65, f"validation exit {code}"
    finally:
        os.unlink(path)
    return "round-trips stable, DOT bytes stable, exit table honored"


# ---------------------------------------------------------------------------


CRITERIA = (
    ("C1", "finite oracle equivalence", criterion_1),
    ("C2", "non-continuity witness", criterion_2),
    ("C3", "proper approximable part", criterion_3),
    ("C4", "kernel laws / equivalence / Scott", criterion_4),
    ("C5", "largest retract", criterion_5),
    ("C6", "double approximation", criterion_6),
    ("C7", "infima preservation", criterion_7),
    ("C8", "quotient structure", criterion_8),
    ("C9", "harness sanity", criterion_9),
    ("C10", "CLI contract", criterion_10),
)


def run_all(quick: bool = False) -> list:
    return [_result(ident, title, lambda fn=fn: fn(quick))
            for ident, title, fn in CRITERIA]
