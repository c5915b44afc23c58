"""Kernel, retract, quotient, and the law checkers on top of them."""

import ast
import json
import random
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest

from posetkernel import (BOTTOM, NO_SUPREMUM, OMEGA, Inner,
                         PosetPresentation, catalog, cli, closed_set, core,
                         kernel, make_catalog, oracle)
from posetkernel.catalog import (closed_sets, disjoint_sum, finite_named,
                                 finite_random, lift, named_finite_poset,
                                 omega_plus_one, punctured_closed_sets,
                                 standard_roster)
from posetkernel.closedsets import EMPTY, EVENS, FULL, INF_POINT, ODDS
from posetkernel.core import (FinitePoset, FinitePosetPresentation, _bits,
                              induced_finite_poset, is_element, sample_pool)
from posetkernel.errors import (NoInfimumError, NotApproximable, PosetError,
                                PreconditionUnverified)
from posetkernel.families import ChainFamily, ExplicitFamily
from posetkernel.kernel import (adversarial_kernel, check_approximation_laws,
                                check_inf_preservation,
                                check_inf_preservation_sampled,
                                check_kernel_laws,
                                check_largest_retract, check_scott_continuity,
                                check_waybelow_kernel_equivalence, in_retract,
                                is_approximable, kernel_of,
                                quotient_structure, retract_member)
from posetkernel.oracle import bank_refute_waybelow
from posetkernel.reports import (BANK, EXHAUSTIVE, Status, refuted, sampled,
                                 verified)

from conftest import corrupt_omega, random_presentation


class TestKernelValues:
    def test_omega_kernel_fixes_top(self, omega):
        assert kernel_of(omega, OMEGA) is OMEGA
        assert kernel_of(omega, 5) == 5

    def test_closed_inf_point_collapses_to_empty(self, closed):
        assert kernel_of(closed, INF_POINT) == EMPTY
        # cross-check: nothing nonempty is way-below {inf} per the bank
        for v in (INF_POINT, closed_set({0}, True)):
            assert bank_refute_waybelow(closed, v, INF_POINT).status \
                is Status.REFUTED
        assert closed.waybelow(EMPTY, INF_POINT)

    def test_finite_natural_part_is_fixed(self, closed):
        x = closed_set({1, 3}, infinity=True)
        assert kernel_of(closed, x) == closed_set({1, 3})
        assert kernel_of(closed, closed_set({1, 3})) == closed_set({1, 3})

    def test_infinite_natural_part_keeps_inf(self, closed):
        assert kernel_of(closed, EVENS) == EVENS
        assert kernel_of(closed, FULL) == FULL

    def test_not_approximable_raises(self, punctured):
        with pytest.raises(NotApproximable):
            kernel_of(punctured, INF_POINT)

    def test_lift_kernel_falls_to_bottom(self, lifted_punctured):
        assert kernel_of(lifted_punctured, Inner(INF_POINT)) is BOTTOM
        assert kernel_of(lifted_punctured, BOTTOM) is BOTTOM
        assert kernel_of(lifted_punctured, Inner(closed_set({2}, True))) == \
            Inner(closed_set({2}))

    def test_kernel_postconditions_sampled(self):
        rng = random.Random(0xC0FFEE)
        for P in standard_roster():
            for x in sample_pool(P, rng, 60):
                if not is_approximable(P, x):
                    continue
                k = kernel_of(P, x)
                assert P.leq(k, x), P.name
                assert is_approximable(P, k), P.name
                assert kernel_of(P, k) == k, P.name

    def test_approximants_agree_with_kernel_approximants(self):
        # sampled consequence of v << x iff v << k(x)
        rng = random.Random(1)
        for P in standard_roster():
            pool = sample_pool(P, rng, 40)
            for x in pool[:20]:
                if not is_approximable(P, x):
                    continue
                k = kernel_of(P, x)
                for v in pool:
                    assert P.waybelow(v, x) == P.waybelow(v, k), P.name


class TestRetract:
    def test_closed_membership(self, closed):
        assert not in_retract(closed, INF_POINT)
        assert in_retract(closed, EVENS)
        assert in_retract(closed, closed_set({1, 3}))
        assert not in_retract(closed, closed_set({1, 3}, True))
        assert in_retract(closed, EMPTY)

    def test_finite_posets_are_their_own_retract(self, diamond):
        member = retract_member(diamond)
        assert [x for x in diamond.elements() if member(x)] == [0, 1, 2, 3]

    def test_omega_retract_is_everything(self, omega):
        rng = random.Random(2)
        member = retract_member(omega)
        for x in sample_pool(omega, rng, 50):
            assert member(x)

    def test_closed_retract_rule_matches_dossier(self, closed):
        # dossier rule: inf in C implies the natural part is infinite
        rng = random.Random(3)
        for C in sample_pool(closed, rng, 120):
            expected = (not C.infinity) or bool(C.residues)
            assert in_retract(closed, C) == expected

    def test_retract_view_sups_stay_inside(self, closed):
        member = retract_member(closed)
        assert member(EVENS) and member(ODDS)
        s = closed.finite_sup((EVENS, ODDS))
        assert s == FULL
        assert member(s)

    def test_retract_view_on_nonconditionally_complete_finite(self):
        # bowtie: not conditionally complete, but finite posets are
        # continuous, so the retract is still the whole carrier
        from posetkernel.core import FinitePosetPresentation
        from posetkernel import build_finite_poset

        fp = build_finite_poset(
            ["a", "b", "c", "d"],
            [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
        P = FinitePosetPresentation(fp, name="bowtie")
        assert not P.certified_conditionally_complete
        member = retract_member(P)
        assert [x for x in P.elements() if member(x)] == [0, 1, 2, 3]

    def test_retract_view_passes_continuity_check(self, closed):
        # each sampled retract element is the supremum of its approximants
        # and has an approximant inside the retract
        member = retract_member(closed)
        rng = random.Random(0xC0FFEE)
        inside = [x for x in sample_pool(closed, rng, 120) if member(x)]
        assert len(inside) > 20
        for x in inside:
            assert kernel_of(closed, x) == x
            fam = closed.waybelow_family(x)
            assert any(member(m) for m in fam.sample_members())

    def test_approximable_view_excludes_inf_point(self, punctured):
        assert not is_approximable(punctured, INF_POINT)
        assert is_approximable(punctured, closed_set({5}))


# An ω+1 whose scope holds no element at all.
EMPTY_SCOPE = {"interesting_elements": lambda self: [],
               "sample_elements": lambda self, rng, count: []}


@pytest.mark.parametrize("check", [check_kernel_laws,
                                   check_waybelow_kernel_equivalence],
                         ids=["kernel", "eq"])
def test_no_approximable_sample_is_unrefuted(check):
    report = check(corrupt_omega(**EMPTY_SCOPE), sampled(count=5))
    assert report.status is Status.UNREFUTED
    assert report.samples == 0
    assert report.reason == "no approximable elements sampled"


class TestKernelLaws:
    def test_closed_sets_sampled(self, closed):
        report = check_kernel_laws(closed)
        assert report.status is Status.UNREFUTED
        assert report.samples >= 500

    def test_finite_exhaustive_verified(self, diamond):
        report = check_kernel_laws(diamond)
        assert report.status is Status.VERIFIED

    def test_adversarial_kernel_refuted(self, closed):
        report = check_kernel_laws(closed, kernel=adversarial_kernel(closed))
        assert report.status is Status.REFUTED
        assert report.reason == "deflation fails: k = {inf}"
        assert report.witness == EMPTY

    def test_adversarial_kernel_on_finite(self, diamond):
        report = check_kernel_laws(diamond,
                                   kernel=adversarial_kernel(diamond))
        assert report.status is Status.REFUTED


class TestScottContinuity:
    def test_closed_sets_bank(self, closed):
        report = check_scott_continuity(closed)
        assert report.status is Status.UNREFUTED
        assert report.samples > 0

    def test_initial_segment_chain_instance(self, closed):
        # hand instance: k(sup F_n) = N+inf = sup of k(F_n) = F_n
        chain = next(f for f in closed.family_bank()
                     if f.label == "initial-segments")
        assert kernel_of(closed, chain.supremum) == FULL
        assert chain.kernel_image_sup == FULL

    def test_omega_chain_instance(self, omega):
        chain = next(f for f in omega.family_bank()
                     if f.label == "ascending-naturals")
        assert kernel_of(omega, chain.supremum) is OMEGA
        assert all(kernel_of(omega, n) == n
                   for n in chain.sample_members()[:8])

    def test_finite_kinds_verified(self):
        for name in ("diamond", "m3", "n5", "boolean_3"):
            P = make_catalog(finite_named(name))
            report = check_scott_continuity(P)
            assert report.status is Status.VERIFIED, name

    def test_chain_exercising_nontrivial_kernel(self, closed):
        # members carry inf with finite natural parts; their kernels drop inf
        chain = next(f for f in closed.family_bank()
                     if f.label == "initial-segments-with-inf")
        member = chain.generator(3)
        assert member.infinity
        assert kernel_of(closed, member) == closed_set(range(4))
        # the bank scanned by the checker holds this chain
        report = check_scott_continuity(closed)
        assert report.status is not Status.REFUTED

    @pytest.mark.parametrize("families, methods, witness, reason", [
        ({OMEGA: None}, {}, "ascending-naturals",
         "supremum of an approximable directed family is not approximable"),
        ({}, {"finite_sup": lambda self, xs:
              NO_SUPREMUM if len(xs) > 1 else xs[0]},
         "small-chain", "kernel image has no supremum"),
        ({OMEGA: ExplicitFamily((0, 1, 2, 3), 3)}, {}, "ascending-naturals",
         "a kernel image escapes k(sup)"),
        ({9: ExplicitFamily((0, 1, 2), 2)}, {}, "sparse-chain",
         "k(sup) = 2 but sup of kernel images = 5"),
        ({}, {"family_bank": lambda self: [ChainFamily(
            lambda i: i, OMEGA, label="ascending-naturals",
            member_dominates=lambda v: v is not OMEGA,
            kernel_image_sup=5)]}, "ascending-naturals",
         "k(sup) = omega but certified image supremum = 5"),
        ({9: ExplicitFamily(tuple(range(8)), 7),
          7: ExplicitFamily(tuple(range(7)), 6)}, {}, "sparse-chain",
         "image supremum escapes the retract"),
    ], ids=["not-approximable", "no-image-supremum", "image-escapes",
            "explicit-image-supremum", "chain-image-supremum",
            "escapes-retract"])
    def test_refutes_a_corrupt_omega(self, families, methods, witness,
                                     reason):
        report = check_scott_continuity(corrupt_omega(families, **methods))
        assert report.status is Status.REFUTED
        assert report.witness == witness
        assert report.reason == reason


class TestWaybelowKernelEquivalence:
    def test_closed_hand_instances(self, closed):
        two, x = closed_set({2}), closed_set({2}, True)
        assert closed.waybelow(two, x)
        assert closed.waybelow(two, kernel_of(closed, x))
        assert not closed.waybelow(INF_POINT, x)
        assert not closed.waybelow(INF_POINT, kernel_of(closed, x))

    def test_sampled_clean(self, closed, punctured):
        for P in (closed, punctured):
            report = check_waybelow_kernel_equivalence(P)
            assert report.status is Status.UNREFUTED
            assert report.samples == 500

    def test_finite_exhaustive(self, diamond):
        report = check_waybelow_kernel_equivalence(diamond)
        assert report.status is Status.VERIFIED


class TestLargestRetract:
    def test_named_finite_verified(self):
        for name in ("diamond", "n5", "chain_4", "fence_4"):
            P = make_catalog(finite_named(name))
            report = check_largest_retract(P)
            assert report.status is Status.VERIFIED, name

    def test_exhaustive_law_refutes_a_supremum_below_x(self):
        """The family of 2 in chain_3 declares supremum 1, so 2 leaves the
        retract while the oracle finds {2} continuous."""
        class Corrupt(FinitePosetPresentation):
            def waybelow_family(self, x):
                if x == 2:
                    return ExplicitFamily((0, 1), 1)
                return super().waybelow_family(x)

        P = Corrupt(make_catalog(finite_named("chain_3")).poset)
        report = check_largest_retract(P)
        assert report.status is Status.REFUTED
        assert report.scope.kind == "exhaustive"
        assert report.witness == (2,)
        assert report.reason == "a continuous subposet escapes the retract"

    def test_closed_sets_candidate_refuted(self, closed):
        report = check_largest_retract(closed)
        assert report.status is not Status.REFUTED
        candidate = next(s for s in report.subreports
                         if s.law.endswith("candidate-beyond-retract"))
        assert candidate.status is Status.VERIFIED
        assert "{inf}" in candidate.reason
        assert "{}" in candidate.reason

    def test_punctured_candidate_refuted_via_empty_approximants(self,
                                                                punctured):
        report = check_largest_retract(punctured)
        candidate = next(s for s in report.subreports
                         if s.law.endswith("candidate-beyond-retract"))
        assert candidate.status is Status.VERIFIED
        assert "no approximants" in candidate.reason

    def test_finite_sublattice_inside_retract(self, closed):
        report = check_largest_retract(closed)
        sub = next(s for s in report.subreports
                   if s.law.endswith("finite-sublattice"))
        assert sub.status is Status.UNREFUTED
        assert sub.samples > 100

    @pytest.mark.parametrize("spec", [
        disjoint_sum(finite_named("chain_2"), closed_sets()),
        disjoint_sum(omega_plus_one(), closed_sets())],
        ids=["sum_chain_2_closed", "sum_omega_closed"])
    def test_finite_sublattice_uses_every_draw_on_a_sum(self, spec):
        # every element of a finite poset and every natural of omega+1 is
        # way-below itself, so no draw on either side of the sum is skipped
        report = check_largest_retract(make_catalog(spec), sampled(count=300))
        sub = next(s for s in report.subreports
                   if s.law.endswith("finite-sublattice"))
        assert sub.status is Status.UNREFUTED
        assert sub.samples == 300

    @pytest.mark.parametrize("spec", [finite_named("n5"), omega_plus_one()],
                             ids=["n5", "omega_plus_one"])
    def test_compact_below_is_below_and_compact(self, spec):
        P = make_catalog(spec)
        for x in sample_pool(P, random.Random(0), 40):
            c = P.compact_below(x)
            assert P.leq(c, x) and P.waybelow(c, c)

    @pytest.mark.parametrize("spec", [
        lift(closed_sets()), lift(punctured_closed_sets()),
        disjoint_sum(finite_named("chain_2"), closed_sets())],
        ids=["lift_closed", "lift_punctured", "sum_chain_2_closed"])
    def test_combinators_inherit_the_targeted_checks(self, spec):
        P = make_catalog(spec)
        report = check_largest_retract(P)
        assert report.status is Status.UNREFUTED
        laws = {sub.law: sub for sub in report.subreports}
        assert set(laws) == {"largest-retract:candidate-beyond-retract",
                             "largest-retract:finite-sublattice"}
        candidate = laws["largest-retract:candidate-beyond-retract"]
        assert candidate.status is Status.VERIFIED
        assert P.format_element(P.continuity_counterexample()) \
            in candidate.reason
        assert laws["largest-retract:finite-sublattice"].samples > 100

    def test_a_candidate_without_a_supremum_inside_r_is_corrupt(self):
        """omega's one approximant 3 leaves the retract, so R = Q ∪ {omega}
        holds none of its approximants to join."""
        P = corrupt_omega(families={OMEGA: ExplicitFamily((3,), OMEGA),
                                    3: ExplicitFamily((2,), 2)},
                          continuity_counterexample=lambda self: OMEGA)
        with pytest.raises(PosetError, match="no supremum inside R"):
            check_largest_retract(P, sampled(count=5))

    @pytest.mark.parametrize("corrupt", ["explicit", "chain"])
    def test_retract_continuity_refutes_a_wrong_supremum(self, corrupt):
        """7 (or omega) keeps its declared supremum, so it stays in the
        retract, but its approximants inside the retract join below it."""
        class Corrupt(make_catalog(omega_plus_one()).__class__):
            def waybelow_family(self, x):
                if corrupt == "explicit" and x == 7:
                    return ExplicitFamily((0, 1, 2), 7)
                if corrupt == "chain" and x is OMEGA:
                    return ChainFamily(
                        lambda i: i, OMEGA,
                        member_dominates=lambda v: v is not OMEGA,
                        kernel_image_sup=5)
                return super().waybelow_family(x)

        P = Corrupt()
        report = check_largest_retract(P)
        assert report.status is Status.REFUTED
        (sub,) = report.subreports
        assert sub.law == "largest-retract:retract-is-continuous"
        assert sub.witness == (7 if corrupt == "explicit" else OMEGA)
        assert sub.reason.endswith(
            "= " + ("2" if corrupt == "explicit" else "5"))


class TestQuotient:
    def test_closed_four_element_sample(self, closed):
        qs = quotient_structure(
            closed, (INF_POINT, EMPTY, closed_set({1}, True),
                     closed_set({1})))
        assert len(qs.classes) == 2
        assert qs.classes[0] == (INF_POINT, EMPTY)
        assert qs.classes[1] == (closed_set({1}, True), closed_set({1}))
        assert qs.kernel_values == (EMPTY, closed_set({1}))

    def test_finite_sample_all_singletons(self, diamond):
        qs = quotient_structure(diamond, (0, 1, 2, 3))
        assert all(len(cls) == 1 for cls in qs.classes)

    def test_singleton_sample(self, closed):
        qs = quotient_structure(closed, (EVENS,))
        assert qs.classes == ((EVENS,),)
        assert qs.kernel_values == (EVENS,)

    def test_requires_approximable_sample(self, punctured):
        with pytest.raises(NotApproximable):
            quotient_structure(punctured, (INF_POINT,))

    def test_image_matches_kernel_everywhere(self):
        rng = random.Random(8)
        for P in standard_roster():
            pool = [x for x in sample_pool(P, rng, 60)
                    if is_approximable(P, x)]
            if not pool:
                continue
            qs = quotient_structure(P, pool)
            assert len(qs.classes) == len(set(qs.kernel_values))
            for x in pool:
                assert qs.image_of(x) == kernel_of(P, x), P.name

    def test_transported_order_reflects(self, closed):
        rng = random.Random(9)
        pool = [x for x in sample_pool(closed, rng, 60)]
        qs = quotient_structure(closed, pool)
        values = qs.kernel_values
        for i, a in enumerate(values):
            for b in values[i + 1:]:
                assert not (closed.leq(a, b) and closed.leq(b, a))


class TestInfPreservation:
    def test_evens_odds_hand_instance(self, closed):
        assert closed.finite_inf((EVENS, ODDS)) == INF_POINT
        assert kernel_of(closed, INF_POINT) == EMPTY
        report = check_inf_preservation(closed, (EVENS, ODDS))
        assert report.status is Status.UNREFUTED
        # the only retract lower bound of both is the empty set
        rng = random.Random(10)
        for c in sample_pool(closed, rng, 200):
            if in_retract(closed, c) and closed.leq(c, EVENS) \
                    and closed.leq(c, ODDS):
                assert c == EMPTY

    def test_infimum_already_inside(self, closed):
        report = check_inf_preservation(
            closed, (closed_set({0, 2}), closed_set({0, 4})))
        assert report.status is not Status.REFUTED
        assert closed.finite_inf((closed_set({0, 2}),
                                  closed_set({0, 4}))) == closed_set({0})

    def test_punctured_no_infimum(self, punctured):
        with pytest.raises(NoInfimumError):
            check_inf_preservation(punctured,
                                   (closed_set({0}), closed_set({1})))

    def test_requires_retract_elements(self, closed):
        with pytest.raises(PosetError):
            check_inf_preservation(closed, (INF_POINT,))

    def test_finite_exhaustive(self, diamond):
        report = check_inf_preservation(diamond, (1, 2))
        assert report.status is Status.VERIFIED

    def test_sampled_instances_are_unrefuted_on_finite_kinds(self, diamond):
        """Each instance is exhaustive, the choice of instances is not."""
        report = check_inf_preservation_sampled(diamond)
        assert report.status is Status.UNREFUTED
        assert report.reason == "50 retract subsets checked"
        assert report.subreports == []

    def test_sampled_starts_with_evens_and_odds(self, closed):
        report = check_inf_preservation_sampled(closed, sampled(count=100))
        assert report.status is Status.UNREFUTED
        assert report.reason == "10 retract subsets checked"

    def test_lift_starts_with_the_wrapped_evens_and_odds(self, monkeypatch):
        P = make_catalog(lift(closed_sets()))
        seen = []

        check_instance = kernel._check_inf_instance

        def spy(P, A, scope, pool):
            seen.append(A)
            return check_instance(P, A, scope, pool)

        monkeypatch.setattr(kernel, "_check_inf_instance", spy)
        report = check_inf_preservation_sampled(P, sampled(count=100))
        assert report.status is Status.UNREFUTED
        assert seen[0] == (Inner(EVENS), Inner(ODDS))
        assert len(seen) == 10


class TestApproximationLaws:
    def test_all_roster_kinds_clean(self):
        for P in standard_roster():
            report = check_approximation_laws(P)
            assert report.status is not Status.REFUTED, \
                f"{P.name}: {report.describe(P.format_element)}"
            if P.is_finite_kind:
                assert report.status is Status.VERIFIED, P.name

    def test_punctured_hand_instance(self, punctured):
        # the initial-segment chain meets the approximable part entirely,
        # and {0,1} <= its sup forces a member there
        chain = next(f for f in punctured.family_bank()
                     if f.label == "initial-segments")
        y = closed_set({0, 1})
        assert punctured.leq(y, chain.supremum)
        assert is_approximable(punctured, y)
        assert all(is_approximable(punctured, m)
                   for m in chain.sample_members())

    def test_lift_makes_laws_vacuous_or_true(self, lifted_punctured):
        report = check_approximation_laws(lifted_punctured)
        assert report.status is not Status.REFUTED
        rng = random.Random(12)
        for x in sample_pool(lifted_punctured, rng, 40):
            assert is_approximable(lifted_punctured, x)

    def test_retract_witness_for_compact_elements(self, closed):
        # {5} is finite, hence way-below itself inside the retract
        five = closed_set({5})
        assert in_retract(closed, five)
        assert closed.waybelow(five, five)
        report = check_approximation_laws(closed)
        sub = next(s for s in report.subreports
                   if s.law == "retract-approximation")
        assert sub.status is not Status.REFUTED


class TestBankHonesty:
    """Bank-driven laws are Verified on finite carriers, which scan every
    directed subset, and Unrefuted on symbolic ones, whose bank is a
    sample."""

    def test_finite_carrier_scans_every_directed_subset(self):
        P = make_catalog(finite_named("chain_14"))
        assert len(P.poset.directed_subset_masks) == 16383
        scott = check_scott_continuity(P)
        assert scott.status is Status.VERIFIED
        assert scott.samples == 16383
        subs = {s.law: (s.status, s.samples)
                for s in check_approximation_laws(P).subreports}
        assert subs == {"directed-restriction": (Status.VERIFIED, 16383),
                        "restriction-nonempty": (Status.VERIFIED, 16383),
                        "double-approximation": (Status.VERIFIED, 14),
                        "retract-approximation": (Status.VERIFIED, 14)}

    def test_sampled_bank_reports_unrefuted(self):
        # a symbolic sum reads the finite side's bank, a fixed 2048 of its
        # 16383 directed subsets
        P = make_catalog(disjoint_sum(finite_named("chain_14"),
                                      omega_plus_one()))
        finite = [f for f in P.family_bank() if isinstance(f, ExplicitFamily)
                  and f.label.startswith("{")]
        assert len(finite) == 2048
        scott = check_scott_continuity(P)
        assert scott.status is Status.UNREFUTED
        assert scott.samples == len(P.family_bank())
        report = check_approximation_laws(P)
        assert report.status is Status.UNREFUTED

    def test_full_bank_stays_verified(self, diamond):
        assert check_scott_continuity(diamond).status is Status.VERIFIED
        report = check_approximation_laws(diamond)
        assert report.status is Status.VERIFIED
        assert all(s.status is Status.VERIFIED for s in report.subreports)

    def test_small_bank_above_ten_elements_is_full(self):
        P = make_catalog(finite_named("antichain_12"))
        assert len(P.family_bank()) == 12
        scott = check_scott_continuity(P)
        assert (scott.status, scott.samples) == (Status.VERIFIED, 12)

    def test_views_and_sums_inherit_the_bank(self):
        # a lift or a sum of finite posets is a finite carrier: its laws
        # scan its own directed subsets, whatever its bank holds
        lifted = make_catalog(lift(finite_named("chain_2")))
        assert len(lifted.family_bank()) == 5
        scott = check_scott_continuity(lifted)
        assert (scott.status, scott.samples) == (Status.VERIFIED, 7)
        for spec in (lift(finite_named("chain_14")),
                     disjoint_sum(finite_named("chain_2"),
                                  finite_named("chain_14"))):
            P = make_catalog(spec)
            assert check_scott_continuity(P).status is Status.VERIFIED
            assert check_approximation_laws(P).status is Status.VERIFIED


def _directed_bank(P):
    """Every directed subset of a finite carrier as a family labelled by
    its elements, in mask order."""
    elems = P.elements()
    bank = []
    for mask, top in induced_finite_poset(P, elems).directed_subset_masks:
        members = tuple(elems[i] for i in _bits(mask))
        label = "{" + ", ".join(map(P.format_element, members)) + "}"
        bank.append(ExplicitFamily(members, elems[top], label=label))
    return bank


def reference_scott(P, bank):
    """The per-family Scott-continuity loop over explicit families."""
    law = "scott-continuity"
    checked = 0
    for fam in bank:
        members = fam.members
        if not all(P.waybelow_family(m) is not None for m in members):
            continue
        if P.waybelow_family(fam.supremum) is None:
            return refuted(law, fam.label, "supremum of an approximable "
                           "directed family is not approximable", BANK,
                           samples=checked)
        k_sup = kernel_of(P, fam.supremum)
        s = P.finite_sup(tuple(kernel_of(P, m) for m in members))
        if not is_element(s):
            return refuted(law, fam.label, "kernel image has no supremum",
                           BANK, samples=checked)
        if s != k_sup:
            return refuted(law, fam.label, f"k(sup) = "
                           f"{P.format_element(k_sup)} but sup of kernel "
                           f"images = {P.format_element(s)}", BANK,
                           samples=checked)
        if not in_retract(P, s):
            return refuted(law, fam.label, "image supremum escapes the "
                           "retract", BANK, samples=checked)
        checked += 1
    return verified(law, BANK, samples=checked)


def reference_directed_restriction(P, bank):
    """The per-family directed-restriction loop over explicit families."""
    law = "directed-restriction"
    count = 0
    for fam in bank:
        inside = [m for m in fam.members if P.waybelow_family(m) is not None]
        if not inside:
            continue
        if P.waybelow_family(fam.supremum) is None:
            return refuted(law, fam.label, "supremum of a family meeting the "
                           "approximable part is not approximable",
                           EXHAUSTIVE)
        directed = all(any(P.leq(a, c) and P.leq(b, c) for c in inside)
                       for a in inside for b in inside)
        if not directed:
            return refuted(law, fam.label, "restriction to the approximable "
                           "part is not directed", EXHAUSTIVE)
        s = P.finite_sup(tuple(inside))
        if not is_element(s) or s != fam.supremum:
            return refuted(law, fam.label, "restricted supremum differs",
                           EXHAUSTIVE)
        count += 1
    return verified(law, EXHAUSTIVE, samples=count)


def reference_restriction_nonempty(P, bank):
    """The per-family restriction-nonempty loop, against the pool that
    ``check_approximation_laws`` draws for an exhaustive scope."""
    law = "restriction-nonempty"
    pool = sample_pool(P, random.Random(EXHAUSTIVE.seed), EXHAUSTIVE.count)
    approx_pool = [x for x in pool if P.waybelow_family(x) is not None]
    count = 0
    for fam in bank:
        for y in approx_pool:
            if P.leq(y, fam.supremum):
                if not any(P.waybelow_family(m) is not None
                           for m in fam.members):
                    return refuted(law, (fam.label, y), "family dominates "
                                   "an approximable element but misses the "
                                   "approximable part", EXHAUSTIVE)
                count += 1
                break
    return verified(law, EXHAUSTIVE, samples=count)


class CorruptFinite(FinitePosetPresentation):
    """A finite poset whose approximant families are overridden: ``sups``
    maps an element to the supremum its down-set family declares, or to
    None for an element declared without approximants."""

    def __init__(self, poset, sups):
        super().__init__(poset, name="corrupt")
        self.sups = sups

    def waybelow_family(self, x):
        if x not in self.sups:
            return super().waybelow_family(x)
        if self.sups[x] is None:
            return None
        members = tuple(i for i in range(self.poset.n)
                        if self.poset.leq(i, x))
        return ExplicitFamily(members, self.sups[x], label="corrupt")


CORRUPTIONS = ("wrong-sup", "none", "not-below")


def _corrupt(seed, how):
    """A seeded random poset with up to three elements corrupted: ``how``
    is "wrong-sup" (a supremum strictly below x), "none" (no approximants),
    "not-below" (a supremum not below x), or "mixed" (one of the three per
    element)."""
    rng = random.Random(seed)
    fp = catalog.random_finite_poset(rng.randint(3, 10), 0.4, seed)
    sups = {}
    for x in rng.sample(range(fp.n), min(3, fp.n)):
        kind = rng.choice(CORRUPTIONS) if how == "mixed" else how
        if kind == "none":
            sups[x] = None
        else:
            wrong = [y for y in range(fp.n) if y != x
                     and fp.leq(y, x) == (kind == "wrong-sup")]
            if wrong:
                sups[x] = rng.choice(wrong)
    return CorruptFinite(fp, sups)


def _outcome(check):
    try:
        r = check()
    except PosetError as exc:
        return type(exc), str(exc)
    return r.status, r.witness, r.reason, r.samples


class TestFiniteScanReference:
    """On finite carriers the bank laws scan the directed subsets as masks;
    the per-family loops over every directed subset, kept here, must give
    the same status, witness, reason and samples."""

    HONEST = ([finite_random(n, p, seed) for seed, n in enumerate(range(1, 11))
               for p in (0.2, 0.5)]
              + [lift(finite_random(n, 0.4, n)) for n in (1, 4, 8)]
              + [lift(lift(finite_random(5, 0.3, 1)))]
              + [disjoint_sum(finite_random(n, 0.4, n), finite_random(9 - n,
                                                                      0.3, 1))
                 for n in (1, 3, 5)]
              + [lift(disjoint_sum(finite_named("chain_2"),
                                   finite_random(6, 0.5, 2)))])

    @staticmethod
    def assert_matches_reference(P, monkeypatch):
        judged = []
        for name in ("_scott_at", "_restriction_at", "_meet_at"):
            def counted(*args, _judge=getattr(kernel, name), _name=name):
                judged.append(_name)
                return _judge(*args)
            monkeypatch.setattr(kernel, name, counted)
        bank = _directed_bank(P)
        scott = _outcome(lambda: check_scott_continuity(P))
        assert scott == _outcome(lambda: reference_scott(P, bank))
        subs = {s.law: s for s in check_approximation_laws(P).subreports}
        restricted = _outcome(lambda: subs["directed-restriction"])
        assert restricted == _outcome(
            lambda: reference_directed_restriction(P, bank))
        met = _outcome(lambda: subs["restriction-nonempty"])
        assert met == _outcome(
            lambda: reference_restriction_nonempty(P, bank))
        # only the first failing subset becomes a family
        expected = [name for name, out in (("_scott_at", scott),
                                           ("_restriction_at", restricted),
                                           ("_meet_at", met))
                    if out[0] is not Status.VERIFIED]
        assert judged == expected
        return scott[0], restricted[0], met[0]

    @pytest.mark.parametrize("spec", HONEST, ids=lambda s: str(
        catalog.spec_to_document(s))[:60])
    def test_honest_carriers(self, spec, monkeypatch):
        statuses = self.assert_matches_reference(make_catalog(spec),
                                                 monkeypatch)
        assert statuses == (Status.VERIFIED,) * 3

    @pytest.mark.parametrize("how", CORRUPTIONS + ("mixed",))
    def test_corrupt_presentations(self, how, monkeypatch):
        seen = set()
        for seed in range(25):
            seen.update(self.assert_matches_reference(_corrupt(seed, how),
                                                      monkeypatch))
        # the corruption reaches the refuting (or raising) branches
        assert {"wrong-sup": Status.REFUTED, "none": Status.REFUTED,
                "not-below": PosetError, "mixed": Status.REFUTED}[how] in seen

    def test_missing_approximants_fire_both_restriction_laws(self,
                                                              monkeypatch):
        # chain 0 < 1 < 2 whose top has no approximants: {0, 2} restricts
        # to {0}, whose supremum is not 2, and {2} misses the approximable
        # part below 2
        P = CorruptFinite(named_finite_poset("chain_3"), {2: None})
        self.assert_matches_reference(P, monkeypatch)
        subs = {s.law: s for s in check_approximation_laws(P).subreports}
        assert subs["directed-restriction"].witness == "{0, 2}"
        assert subs["restriction-nonempty"].witness == ("{2}", 0)


@pytest.mark.parametrize("spec", [
    finite_named("chain_12"), finite_named("antichain_12"),
    finite_named("chain_16"),
    # random orders that are conditionally complete, so that law holds too
    finite_random(14, 0.3, 1), finite_random(14, 0.3, 2),
    lift(finite_named("chain_12")),
    disjoint_sum(finite_named("chain_2"), finite_named("chain_14"))],
    ids=lambda spec: make_catalog(spec).name)
def test_finite_carriers_decide_every_law(spec, tmp_path, capsys):
    doc = tmp_path / "poset.json"
    doc.write_text(json.dumps(catalog.spec_to_document(spec)))
    assert cli.main(["check", str(doc), "--law", "all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 14
    for line in lines:
        if not line.startswith("[infima-preservation]"):
            assert " VERIFIED scope=" in line, line


FINITE_COMBINATORS = [lift(finite_named("chain_3")),
                      disjoint_sum(finite_named("chain_2"),
                                   finite_named("chain_3"))]


class TestOneOrderPerCarrier:
    """Every finite law reads the carrier's one cached order, ``P.poset``,
    and so the directed subsets cached on it."""

    def test_a_finite_presentation_keeps_the_order_it_was_built_from(self):
        fp = named_finite_poset("diamond")
        assert FinitePosetPresentation(fp).poset is fp

    @pytest.mark.parametrize("spec", FINITE_COMBINATORS, ids=["lift", "sum"])
    def test_a_combinator_order_is_built_once_and_induced(self, spec):
        P = make_catalog(spec)
        assert P.poset is P.poset
        induced = induced_finite_poset(P, P.elements())
        assert (P.poset.names, P.poset.up) == (induced.names, induced.up)

    @pytest.mark.parametrize("spec", [finite_named("diamond"),
                                      *FINITE_COMBINATORS],
                             ids=["diamond", "lift", "sum"])
    def test_the_laws_share_one_directed_scan(self, monkeypatch, spec):
        built = Counter()
        for name in ("directed_planes", "directed_subset_masks"):
            def spy(fp, compute=vars(FinitePoset)[name].func, name=name):
                built[name] += 1
                return compute(fp)

            prop = cached_property(spy)
            prop.__set_name__(FinitePoset, name)
            monkeypatch.setattr(FinitePoset, name, prop)
        P = make_catalog(spec)
        for law in ("scott", "laws", "largest-retract"):
            assert kernel.LAWS[law](P, None).status is Status.VERIFIED
        assert built == {"directed_planes": 1, "directed_subset_masks": 1}


class TestPreconditions:
    def test_retract_view_requires_axioms(self):
        class Opaque(make_catalog(omega_plus_one()).__class__):
            certified_conditionally_complete = False
            certified_interpolating = False
            is_finite_kind = False

        with pytest.raises(PreconditionUnverified):
            retract_member(Opaque())

    def test_finite_oracle_agreement_spot(self):
        from posetkernel.oracle import (kernel_bruteforce,
                                        largest_continuous_subposet_bruteforce)

        for seed in range(12):
            P = random_presentation(seed)
            fp = P.poset
            for x in range(fp.n):
                assert kernel_of(P, x) == kernel_bruteforce(fp, x)
            member = retract_member(P)
            assert frozenset(x for x in P.elements() if member(x)) == \
                largest_continuous_subposet_bruteforce(fp)


class TestLayering:
    """The check layer knows no carrier: kernel.py, oracle.py and cli.py
    reach the closed-set lattice and the combinators only through
    presentation hooks, so a lift or a sum inherits every targeted check."""

    CARRIERS = {name for name, obj in vars(catalog).items()
                if isinstance(obj, type) and obj.__module__ == catalog.__name__
                and issubclass(obj, PosetPresentation)}

    @staticmethod
    def tree(module):
        return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))

    def assert_imports_no_carrier_module(self, module):
        for node in ast.walk(self.tree(module)):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            modules = {name.rsplit(".", 1)[-1] for name in names}
            assert not modules & {"catalog", "closedsets"}, ast.unparse(node)

    def test_kernel_imports_no_carrier_module(self):
        self.assert_imports_no_carrier_module(kernel)

    def test_oracle_imports_no_carrier_module(self):
        self.assert_imports_no_carrier_module(oracle)

    @pytest.mark.parametrize("module", [kernel, cli, oracle],
                             ids=["kernel", "cli", "oracle"])
    def test_no_kind_switch(self, module):
        """No ``.kind`` is compared against a document kind."""
        kinds = set(catalog.DOCUMENT_FIELDS)
        for node in ast.walk(self.tree(module)):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if not any(isinstance(op, ast.Attribute) and op.attr == "kind"
                       for op in operands):
                continue
            named = set()
            for op in operands:
                for leaf in [op, *getattr(op, "elts", ())]:
                    if isinstance(leaf, ast.Constant):
                        named.add(leaf.value)
            assert not named & kinds, \
                f"{module.__name__} switches on a kind: {ast.unparse(node)}"

    @staticmethod
    def names(node):
        """The identifiers a syntax tree names: variables, attributes,
        definitions and imports."""
        return {getattr(leaf, "id", None) or getattr(leaf, "attr", None)
                or getattr(leaf, "name", None) for leaf in ast.walk(node)}

    def test_the_finite_order_and_the_cap_have_one_home(self):
        """kernel.py reads a carrier's order as ``P.poset``, and a subset
        scan stops at FINITE_CAP only in ``core._subset_planes``; the
        finite presentation's flag keeps its own test, as it answers False
        rather than raise."""
        assert "induced_finite_poset" not in self.names(self.tree(kernel))
        assert "FINITE_CAP" not in (self.names(self.tree(kernel))
                                    | self.names(self.tree(oracle)))
        users = set()
        for top in self.tree(core).body:
            scopes = ([(f"{top.name}.{getattr(node, 'name', '')}", node)
                       for node in top.body]
                      if isinstance(top, ast.ClassDef)
                      else [(getattr(top, "name", "<module>"), top)])
            users.update(where for where, node in scopes
                         if "FINITE_CAP" in self.names(node))
        assert users == {"<module>", "_subset_planes", "FinitePosetPresentation"
                         ".certified_conditionally_complete"}

    @pytest.mark.parametrize("module", [kernel, cli, oracle],
                             ids=["kernel", "cli", "oracle"])
    def test_no_carrier_class_is_named(self, module):
        assert "ClosedSetsPresentation" in self.CARRIERS
        named = self.names(self.tree(module)) & self.CARRIERS
        assert not named, f"{module.__name__} names the carriers {named}"
