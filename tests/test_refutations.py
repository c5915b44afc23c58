"""Every refutation a law checker can report, each reached by a corrupt
double.

``REFUTATIONS`` holds one case per refutation: a double that breaks one
law, the check that must refute it, and the witness, reason and samples of
the (sub-)report.  The doubles are ``corrupt_omega`` (ω+1 with methods or
approximant families replaced) and ``CorruptFinite`` (a finite poset with
approximant suprema or way-below replaced), both in conftest, and finite
orders whose oracle table is planted.  ``test_every_refutation_site_runs``
runs the whole table under ``sys.settrace`` and fails when a
``refuted(...)`` call in ``core``, ``kernel``, ``sampled_laws`` or
``oracle`` never ran, so a new law or branch arrives with its case here.
"""

import ast
import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from posetkernel import (OMEGA, cli, core, kernel, make_catalog, oracle,
                         sampled_laws)
from posetkernel.acceptance import adversarial_kernel
from posetkernel.carriers import OmegaPlusOnePresentation
from posetkernel.catalog import (build_finite_poset, closed_sets,
                                 disjoint_sum, finite_named,
                                 named_finite_poset, omega_plus_one)
from posetkernel.closedsets import INF_POINT
from posetkernel.core import (Left, check_conditionally_complete,
                              check_continuity, check_interpolation,
                              check_subposet, scope_pool)
from posetkernel.families import ChainFamily, ExplicitFamily
from posetkernel.kernel import (check_approximation_laws,
                                check_inf_preservation, check_kernel_laws,
                                check_largest_retract,
                                check_scott_continuity,
                                check_waybelow_kernel_equivalence)
from posetkernel.oracle import bank_refute_waybelow, continuity_bruteforce
from posetkernel.reports import Status, sampled

from conftest import BOWTIE, CorruptFinite, corrupt_omega

# 0 < 1 < 2 below two maximal elements 3 and 4
FORK = ("01234", [("0", "1"), ("1", "2"), ("2", "3"), ("2", "4")])


def chain(k):
    return named_finite_poset(f"chain_{k}")


def planted(approximants):
    """``chain_2`` whose oracle table of approximants is ``approximants``."""
    fp = chain(2)
    fp._approximants = approximants
    return fp


def sub(report, law):
    """The sub-report of ``report`` for ``law``."""
    return next(s for s in report.subreports if s.law == law)


# Doubles shared by a case and a `check` run.
def no_interpolant():  # only 0 << 1, and nothing is way-below itself
    return CorruptFinite(chain(2), {}, waybelow=lambda x, y: (x, y) == (0, 1))


def strict_finite():  # x << y iff x < y: nothing is way-below itself
    return CorruptFinite(chain(2), {}, waybelow=lambda x, y: x < y)


def short_three():  # 3's approximants declare the supremum 2
    return corrupt_omega(families={3: ExplicitFamily((0, 1, 2), 2)})


def short_bank():  # (0, 1) declared as ω, and ω the only element drawn
    return corrupt_omega(
        interesting_elements=lambda self: [OMEGA],
        sample_elements=lambda self, rng, count: [OMEGA],
        _bank=lambda self: [ExplicitFamily((0, 1), OMEGA, label="short")])


def sinking_chain():  # k(2) = 1, k(1) = 0: deflating, not idempotent
    return CorruptFinite(chain(3), {2: 1, 1: 0})


def foreign_approximant():  # 3's only declared approximant is 5
    return corrupt_omega(families={3: ExplicitFamily((5,), 3)})


def continuous_counterexample():  # names 3, at which ω+1 is continuous
    return corrupt_omega(continuity_counterexample=lambda self: 3)


def low_infimum():  # every infimum is reported as 0
    return corrupt_omega(finite_inf=lambda self, xs: 0)


def zigzag():
    return ChainFamily(lambda i: i % 2, OMEGA, label="zigzag",
                       member_dominates=lambda v: v is not OMEGA,
                       kernel_image_sup=OMEGA)


SAMPLED = sampled()

# name -> (the report, its witness, reason and samples); every one REFUTED
REFUTATIONS = {
    # core: conditional completeness
    "cc-exhaustive": (
        lambda: check_conditionally_complete(make_catalog(BOWTIE)),
        (0, 1), "bounded-above subset without a least upper bound", 0),
    "cc-supremum-not-above": (
        lambda: check_conditionally_complete(
            corrupt_omega(finite_sup=lambda self, xs: 0)),
        (8, 2, 19), "reported supremum is not an upper bound", 0),
    "cc-supremum-not-least": (
        lambda: check_conditionally_complete(
            corrupt_omega(finite_sup=lambda self, xs: OMEGA)),
        (8, 2, 19),
        "supremum not least: 19 is a smaller-incomparable upper bound", 0),
    # the bowtie's {a, b} is bounded by c and d but has no supremum.  The
    # law draws at most 200 subsets and at the default seed none of them is
    # {a, b}; seed 1 was picked because its draw reaches the pair, so a
    # change to the draw order may need another seed here
    "cc-sampled-bounded-without-supremum": (
        lambda: check_conditionally_complete(
            make_catalog(disjoint_sum(BOWTIE, omega_plus_one())), sampled(1)),
        (Left(1), Left(0)),
        "bounded-above subset without a least upper bound", 7),
    "cc-bank-supremum-below-a-member": (
        lambda: check_conditionally_complete(corrupt_omega(
            _bank=lambda self: [ExplicitFamily((0, 5), 3, label="over")])),
        "over", "declared supremum does not dominate a member", 200),
    "cc-bank-supremum-not-a-member": (
        lambda: check_conditionally_complete(corrupt_omega(
            _bank=lambda self: [ExplicitFamily((0, 1), 5, label="loose")])),
        "loose", "declared supremum is not a member", 200),
    "cc-bank-supremum-unseen-bound": (
        lambda: check_conditionally_complete(short_bank()),
        "short", "declared supremum is not a member", 0),
    # core: interpolation
    "interpolation-exhaustive": (
        lambda: check_interpolation(no_interpolant()),
        (0, 1), "no interpolant", 0),
    "interpolation-sampled": (
        lambda: check_interpolation(corrupt_omega(
            waybelow=lambda self, x, y: x is not OMEGA and y is OMEGA)),
        (9, OMEGA), "no interpolant found in scope", 0),
    # core: continuity
    "continuity-exhaustive": (
        lambda: check_continuity(CorruptFinite(chain(3), {2: 1})),
        2, "sup of approximants = 1 != 2", 0),
    "continuity-certified-counterexample": (
        lambda: check_continuity(make_catalog(closed_sets())),
        INF_POINT, "sup of approximants = {} != {inf}", 1),
    "continuity-sampled": (
        lambda: check_continuity(short_three()),
        3, "sup of approximants = 2 != 3", 4),
    # core: subposet
    "subposet-exhaustive": (
        lambda: check_subposet(strict_finite(), None, lambda x: True),
        (0, 0), "way-below inside the subset = True, ambient = False", 0),
    "subposet-sampled": (
        lambda: check_subposet(
            corrupt_omega(waybelow=lambda self, x, y: True), None,
            lambda x: True),
        (16, 3), "family 'small-chain' inside the subset refutes an "
        "ambient way-below pair", 2),
    # kernel: kernel laws
    "kernel-deflation": (
        lambda: check_kernel_laws(
            make_catalog(finite_named("diamond")), None,
            adversarial_kernel(make_catalog(finite_named("diamond")))),
        0, "deflation fails: k = b", 0),
    "kernel-idempotence": (
        lambda: check_kernel_laws(sinking_chain()),
        2, "idempotence fails at k(x) = 1", 0),
    "kernel-monotonicity": (
        lambda: check_kernel_laws(
            CorruptFinite(named_finite_poset("diamond"), {3: 2})),
        (1, 3), "monotonicity fails", 0),
    # kernel: Scott continuity, by directed subsets and by the bank
    "scott-exhaustive": (
        lambda: check_scott_continuity(sinking_chain()),
        "{2}", "image supremum escapes the retract", 3),
    "scott-bank": (
        lambda: check_scott_continuity(corrupt_omega(
            families={OMEGA: ExplicitFamily((0, 1, 2, 3), 3)})),
        "ascending-naturals", "a kernel image escapes k(sup)", 0),
    "waybelow-kernel-equivalence": (
        lambda: check_waybelow_kernel_equivalence(
            CorruptFinite(chain(2), {1: 0})),
        (1, 1), "v << x is True but v << k(x) is False", 0),
    # kernel: largest retract
    "largest-retract-exhaustive": (
        lambda: check_largest_retract(CorruptFinite(chain(3), {2: 1})),
        (2,), "a continuous subposet escapes the retract", 0),
    "largest-retract-candidate": (
        lambda: sub(check_largest_retract(continuous_counterexample()),
                    "largest-retract:candidate-beyond-retract"),
        3, "candidate unexpectedly continuous at 3", 0),
    "largest-retract-compact-element": (
        lambda: sub(check_largest_retract(corrupt_omega(
            families={3: ExplicitFamily((0, 1, 2), 2)},
            continuity_counterexample=lambda self: 3,
            compact_below=lambda self, x: 3)),
            "largest-retract:finite-sublattice"),
        3, "compact element escapes the retract", 0),
    "largest-retract-continuity": (
        lambda: sub(check_largest_retract(corrupt_omega(
            families={3: ExplicitFamily((0, 1, 5), 3)})),
            "largest-retract:retract-is-continuous"),
        3, "sup of its approximants inside the retract = 5", 0),
    # kernel: infima preservation
    "inf-kernel-escapes-the-retract": (
        lambda: check_inf_preservation(
            CorruptFinite(build_finite_poset(*FORK), {2: 1, 1: 0}), (3, 4)),
        1, "kernel of the infimum escapes the retract", 0),
    "inf-not-a-lower-bound": (
        lambda: check_inf_preservation(
            corrupt_omega(finite_inf=lambda self, xs: OMEGA), (3, 5)),
        OMEGA, "not a lower bound of 3", 0),
    "inf-lower-bound-escapes": (
        lambda: check_inf_preservation(low_infimum(), (3, 5)),
        1, "a retract lower bound escapes the kernel of the infimum", 0),
    # kernel: approximation laws
    "laws-directed-restriction-not-directed": (
        lambda: sub(check_approximation_laws(corrupt_omega(
            leq=lambda self, x, y: x == y or y is OMEGA,
            _bank=lambda self: [ExplicitFamily((1, 2), 2, label="split")])),
            "directed-restriction"),
        "split", "restriction to the approximable part is not directed", 0),
    "laws-directed-restriction-supremum": (
        lambda: sub(check_approximation_laws(corrupt_omega(
            _bank=lambda self: [ExplicitFamily((1, 2), 5, label="over")])),
            "directed-restriction"),
        "over", "restricted supremum differs", 0),
    "laws-directed-restriction-monotone": (
        lambda: sub(check_approximation_laws(corrupt_omega(
            _bank=lambda self: [zigzag()])), "directed-restriction"),
        "zigzag", "chain not monotone", 0),
    "laws-double-approximation": (
        lambda: sub(check_approximation_laws(foreign_approximant()),
                    "double-approximation"),
        3, "no approximable approximant", 0),
    "laws-double-approximation-agreement": (
        lambda: sub(check_approximation_laws(
            corrupt_omega(waybelow=lambda self, x, y: True)),
            "double-approximation"),
        (19, 7), "approximable-part way-below disagrees: family "
        "'sparse-chain' inside the subset refutes an ambient way-below "
        "pair", 0),
    "laws-retract-approximation": (
        lambda: sub(check_approximation_laws(foreign_approximant()),
                    "retract-approximation"),
        3, "no approximant inside the retract", 0),
    # oracle
    "oracle-continuity-no-approximants": (
        lambda: continuity_bruteforce(planted((0, 0b11))),
        "0", "no approximants", 0),
    "oracle-continuity-supremum": (
        lambda: continuity_bruteforce(planted((0b1, 0b1))),
        "1", "sup of approximants = 0", 0),
    "oracle-bank-refutation": (
        lambda: bank_refute_waybelow(make_catalog(omega_plus_one()), OMEGA,
                                     OMEGA),
        (OMEGA, OMEGA), "family 'ascending-naturals' has supremum above "
        "omega but no member dominating omega", 0),
}


@pytest.mark.parametrize("name", REFUTATIONS)
def test_refutation(name):
    check, witness, reason, samples = REFUTATIONS[name]
    report = check()
    assert (report.status, report.witness, report.reason, report.samples) \
        == (Status.REFUTED, witness, reason, samples)


def test_sampled_interpolation_counts_a_pair_interpolated_in_the_pool():
    # 0 is not way-below itself, so each pair (0, y) needs the pool: y
    # itself, or a natural above 0 when y is ω
    P = corrupt_omega(waybelow=lambda self, x, y: (
        (x, y) != (0, 0) and OmegaPlusOnePresentation.waybelow(self, x, y)))
    pool, rng = scope_pool(P, SAMPLED)
    pairs = [(rng.choice(pool), rng.choice(pool))
             for _ in range(SAMPLED.count)]
    assert any(x == 0 and P.waybelow(x, y) for x, y in pairs)
    report = check_interpolation(P)
    assert (report.status, report.samples, report.reason) == (
        Status.VERIFIED, sum(P.waybelow(x, y) for x, y in pairs),
        "certified closed-form witness; spot-checked")


# --law name -> (the double it checks, the first line `check` prints)
THROUGH_CHECK = {
    "cc": (lambda: make_catalog(BOWTIE),
           "[conditionally_complete] REFUTED scope=exhaustive witness=(a, b) "
           "reason=bounded-above subset without a least upper bound"),
    "interpolation": (no_interpolant,
                      "[interpolating] REFUTED scope=exhaustive "
                      "witness=(0, 1) reason=no interpolant"),
    "continuity": (short_three,
                   "[continuous] REFUTED scope=sampled(seed=0xC0FFEE,"
                   "count=500) samples=4 witness=3 reason=sup of "
                   "approximants = 2 != 3"),
    "subposet": (strict_finite,
                 "[subposet] REFUTED scope=exhaustive witness=(0, 0) "
                 "reason=way-below inside the subset = True, ambient = "
                 "False"),
    "kernel": (sinking_chain,
               "[kernel-laws] REFUTED scope=exhaustive witness=2 "
               "reason=idempotence fails at k(x) = 1"),
    "scott": (sinking_chain,
              "[scott-continuity] REFUTED scope=exhaustive samples=3 "
              "witness={2} reason=image supremum escapes the retract"),
    "eq": (lambda: CorruptFinite(chain(2), {1: 0}),
           "[waybelow-kernel-equivalence] REFUTED scope=exhaustive "
           "witness=(1, 1) reason=v << x is True but v << k(x) is False"),
    "largest-retract": (continuous_counterexample,
                        "[largest-retract] REFUTED scope=sampled(seed="
                        "0xC0FFEE,count=500) samples=500 witness=3 reason="
                        "largest-retract:candidate-beyond-retract: "
                        "candidate unexpectedly continuous at 3"),
    "laws": (foreign_approximant,
             "[approximation-laws] REFUTED scope=sampled(seed=0xC0FFEE,"
             "count=500) samples=12 witness=3 reason=double-approximation: "
             "no approximable approximant"),
    "inf": (low_infimum,
            "[infima-preservation] REFUTED scope=sampled(seed=0xC0FFEE,"
            "count=500) samples=182 witness=1 reason=infima-preservation: "
            "a retract lower bound escapes the kernel of the infimum"),
}


def test_every_law_has_a_refutation_through_check():
    assert list(THROUGH_CHECK) == list(kernel.LAWS)


@pytest.mark.parametrize("law", THROUGH_CHECK)
def test_check_prints_the_refutation(law, monkeypatch):
    make, first_line = THROUGH_CHECK[law]
    monkeypatch.setattr(cli, "load_poset", lambda arg: make())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", "double", "--law", law])
    assert code == 1
    assert out.getvalue().splitlines()[0] == first_line


# ---------------------------------------------------------------------------
# Every refutation site runs


def refutation_sites():
    """(path, first line, last line) of each ``refuted(...)`` call in the
    checker modules."""
    for module in (core, kernel, sampled_laws, oracle):
        path = os.path.realpath(module.__file__)
        for node in ast.walk(ast.parse(Path(path).read_text("utf-8"))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "refuted"):
                yield path, node.lineno, node.end_lineno


def lines_run(calls, paths):
    """The (path, line) pairs of ``paths`` that run while each of
    ``calls`` is called, traced with ``sys.settrace``; the tracer in place
    before is restored."""
    ran = set()
    traced = {}  # code file name -> its real path when it is one of paths

    def line(frame, event, arg):
        if event == "line":
            ran.add((traced[frame.f_code.co_filename], frame.f_lineno))
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in traced:
            real = os.path.realpath(name)
            traced[name] = real if real in paths else None
        return line if traced[name] else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        for run in calls:
            run()
    finally:
        sys.settrace(previous)
    return ran


def test_every_refutation_site_runs():
    sites = list(refutation_sites())
    assert len({path for path, _, _ in sites}) == 4
    ran = lines_run([check for check, *_ in REFUTATIONS.values()],
                    {path for path, _, _ in sites})
    missing = [f"{Path(path).name}:{first}" for path, first, last in sites
               if not any((path, n) in ran for n in range(first, last + 1))]
    assert not missing, f"no refutation case reaches {missing}"


def test_the_site_guard_sees_a_site_that_never_runs():
    path = os.path.realpath(core.__file__)
    sites = [site for site in refutation_sites() if site[0] == path]
    ran = lines_run([REFUTATIONS["cc-exhaustive"][0]], {path})
    hit = [first for _, first, last in sites
           if any((path, n) in ran for n in range(first, last + 1))]
    assert len(hit) == 1 and len(sites) > 1
