"""Kernel, retract, quotient, and the law checkers on top of them."""

import ast
import json
import random
from collections import Counter
from functools import cached_property, reduce
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from posetkernel import (BOTTOM, NO_SUPREMUM, OMEGA, Inner, Left,
                         PosetPresentation, carriers, catalog, cli,
                         closed_set, commands, core, kernel, make_catalog,
                         oracle, sampled_laws)
from posetkernel.acceptance import adversarial_kernel
from posetkernel.carriers import DisjointSumPresentation
from posetkernel.catalog import (closed_sets, disjoint_sum, finite_named,
                                 finite_random, lift, named_finite_poset,
                                 omega_plus_one, punctured_closed_sets,
                                 standard_roster)
from posetkernel.closedsets import EMPTY, EVENS, FULL, INF_POINT, ODDS
from posetkernel.closedsets import closedset_join
from posetkernel.commands import quotient_structure
from posetkernel.core import (FinitePoset, FinitePosetPresentation, _bits,
                              _extremum, _mask, _none_of, induced_finite_poset,
                              is_element, resolve_scope, sample_pool,
                              scope_pool)
from posetkernel.errors import (EmptyFamily, ForeignElement, NoInfimumError,
                                NotApproximable, PosetError,
                                PreconditionUnverified, ScopeUnsupported,
                                SizeLimit)
from posetkernel.families import ChainFamily, ExplicitFamily
from posetkernel.kernel import (check_approximation_laws,
                                check_inf_preservation,
                                check_inf_preservation_sampled,
                                check_kernel_laws,
                                check_largest_retract, check_scott_continuity,
                                check_waybelow_kernel_equivalence, in_retract,
                                is_approximable, kernel_of, retract_member)
from posetkernel.oracle import bank_refute_waybelow
from posetkernel.reports import (DEFAULT_SEED, DEFAULT_SUBSET_SAMPLES,
                                 EXHAUSTIVE, Status, combine, refuted,
                                 sampled, unrefuted, verified)

from conftest import CorruptFinite, corrupt_omega, random_presentation


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

    def test_kernel_read_once_per_element(self, closed, monkeypatch):
        """Deflation, idempotence and monotonicity read one kernel value per
        distinct element: the sampled closed-set check touches 578."""
        calls = []

        def counted(P, x, _kernel_of=kernel.kernel_of):
            calls.append(x)
            return _kernel_of(P, x)

        monkeypatch.setattr(kernel, "kernel_of", counted)
        report = check_kernel_laws(closed)
        assert report.status is Status.UNREFUTED
        assert len(calls) == len(set(calls)) <= 578

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

    def test_mutually_below_class_values_fail_antisymmetry(self):
        """An ω+1 whose order also puts 1 below 0 (a preorder, so its
        pairwise order codes agree): the classes {0} and {1} have distinct
        values that are each below the other."""
        def leq(self, x, y):
            return carriers.OmegaPlusOnePresentation.leq(
                self, 0 if x == 1 else x, 0 if y == 1 else y)

        P = corrupt_omega(leq=leq)
        assert quotient_structure(P, (0, 2)).kernel_values == (0, 2)
        with pytest.raises(PosetError, match="fails antisymmetry"):
            quotient_structure(P, (2, 0, 1))

    def test_an_element_outside_the_sample_has_no_class(self, closed):
        qs = quotient_structure(closed, (EVENS, closed_set({1})))
        assert qs.class_index_of(closed_set({1})) == 1
        with pytest.raises(NotApproximable):
            qs.image_of(ODDS)

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

    def test_rejects_a_foreign_element_before_reading_codes(self, closed):
        with pytest.raises(ForeignElement, match="^3 is not an element"):
            check_inf_preservation(closed, (EVENS, 3))

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

        def spy(P, A, scope, pool, codes):
            seen.append(A)
            return check_instance(P, A, scope, pool, codes)

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
    """Bank-driven laws are Verified on finite carriers, which decide every
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
        # a symbolic sum reads the finite side's bank, the generators of
        # its 16383 directed subsets: 14 singletons and 91 pairs
        P = make_catalog(disjoint_sum(finite_named("chain_14"),
                                      omega_plus_one()))
        finite = [f for f in P.family_bank() if isinstance(f, ExplicitFamily)
                  and f.label.startswith("{")]
        assert len(finite) == 14 + 91
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
        # decide its own directed subsets, whatever its bank holds
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
    fp = induced_finite_poset(P, elems)
    for mask in fp.directed_subset_masks:
        top = _extremum(fp.down, mask)
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
                           "directed family is not approximable", EXHAUSTIVE,
                           samples=checked)
        k_sup = kernel_of(P, fam.supremum)
        s = P.finite_sup(tuple(kernel_of(P, m) for m in members))
        if not is_element(s):
            return refuted(law, fam.label, "kernel image has no supremum",
                           EXHAUSTIVE, samples=checked)
        if s != k_sup:
            return refuted(law, fam.label, f"k(sup) = "
                           f"{P.format_element(k_sup)} but sup of kernel "
                           f"images = {P.format_element(s)}", EXHAUSTIVE,
                           samples=checked)
        if not in_retract(P, s):
            return refuted(law, fam.label, "image supremum escapes the "
                           "retract", EXHAUSTIVE, samples=checked)
        checked += 1
    return verified(law, EXHAUSTIVE, samples=checked)


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
    """On finite carriers the bank laws are decided from per-element masks;
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
        # only the first failing pair becomes a family
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


class TestGeneratorBank:
    """A finite part's bank is the generators of its directed subsets, {t}
    and {m, t} with m < t.  Every bank reader fails at a directed subset
    exactly when it fails at a generator inside it, so held in a symbolic
    sum against the bank of every directed subset (``_directed_bank``)
    each reader gives the same status."""

    PARTS = {
        "roster": lambda: [make_catalog(finite_named(name))
                           for name in catalog.NAMED_FINITE_ROSTER],
        "chain_12": lambda: [make_catalog(finite_named("chain_12"))],
        "random": lambda: [random_presentation(seed) for seed in range(90)],
        "corrupt": lambda: [_corrupt(seed, how) for how in (*CORRUPTIONS,
                                                            "mixed")
                            for seed in range(15)],
    }

    @staticmethod
    def statuses(S, part):
        """The status, or the PosetError raised, of each reader of the bank
        of the sum S whose left side is ``part``: Scott continuity, the two
        restriction laws, the sampled cc and subposet laws, and the bank
        refutation of each pair of the part's elements."""
        def status(check):
            try:
                return check().status
            except PosetError as exc:
                return type(exc)

        try:
            subs = {s.law: s.status
                    for s in check_approximation_laws(S).subreports}
        except PosetError as exc:
            subs = dict.fromkeys(("directed-restriction",
                                  "restriction-nonempty"), type(exc))
        elems = [Left(x) for x in part.elements()]
        return {
            "scott": status(lambda: check_scott_continuity(S)),
            "directed-restriction": subs["directed-restriction"],
            "restriction-nonempty": subs["restriction-nonempty"],
            "cc": status(lambda: core.check_conditionally_complete(S)),
            "subposet": status(lambda: core.check_subposet(
                S, None, lambda y: S.kernel_value(y) is not None)),
            "refute": [status(lambda: bank_refute_waybelow(S, x, y))
                       for x in elems for y in elems],
        }

    @pytest.mark.parametrize("parts", PARTS)
    def test_generators_read_as_every_directed_subset(self, parts):
        omega = make_catalog(omega_plus_one())
        seen = set()
        for part, twin in zip(self.PARTS[parts](), self.PARTS[parts]()):
            twin.__dict__["_family_bank"] = _directed_bank(twin)
            new = self.statuses(DisjointSumPresentation(part, omega), part)
            old = self.statuses(DisjointSumPresentation(twin, omega), twin)
            assert new == old, part.name
            seen.update(new["refute"], (v for k, v in new.items()
                                        if k != "refute"))
        if parts == "corrupt":
            # the corrupt doubles reach the refuting and raising branches
            assert {Status.REFUTED, PosetError} <= seen

    def test_chain_16_bank_lists_no_directed_subset(self):
        P = make_catalog(finite_named("chain_16"))
        assert len(P.family_bank()) == 16 + 120
        assert "directed_subset_masks" not in P.poset.__dict__
        assert "directed_planes" not in P.poset.__dict__


def _nested():
    from test_catalog import NESTED
    return NESTED


# ---------------------------------------------------------------------------
# The plane-scan law paths that the per-element masks replaced: the finite
# laws over directed sets listed every directed subset, conditional
# completeness scanned subset planes, and the subposet and largest-retract
# laws asked the brute-force oracle.  Kept as the reference.


def reference_plane_scan(P, elems, fp, judge, decide):
    """The verdicts of a bank law over every directed subset, in mask
    order: ``decide(mask, top)`` from per-element masks, the judge where it
    says False."""
    for mask in fp.directed_subset_masks:
        top = _extremum(fp.down, mask)
        verdict = decide(mask, top)
        if verdict is False:
            members = tuple(elems[i] for i in _bits(mask))
            verdict = judge(ExplicitFamily(members, elems[top], label="{" + (
                ", ".join(map(P.format_element, members))) + "}"))
        yield verdict


def reference_tally(law, verdicts, scope, counted=False):
    count = 0
    for verdict in verdicts:
        if verdict is True:
            count += 1
        elif verdict:
            return refuted(law, *verdict, scope, samples=count if counted
                           else 0)
    return verified(law, scope, samples=count)


def reference_lubless_subset(fp):
    """The first nonempty bounded subset without a least upper bound, in
    mask order, from the planes of the subsets bounded by each u."""
    n, full = fp.n, (1 << fp.n) - 1
    B = [_none_of(n, full & ~fp.down[u]) for u in range(n)]
    bounded = lubbed = 0
    for u in range(n):
        least = B[u]
        for v in _bits(full & ~fp.up[u]):
            least &= ~B[v]
        bounded |= B[u]
        lubbed |= least
    lubless = bounded & ~lubbed & ~1
    return (lubless & -lubless).bit_length() - 1 if lubless else None


def reference_cc_scan(P):
    law = "conditionally_complete"
    mask = reference_lubless_subset(P.poset)
    if mask is not None:
        elems = P.elements()
        return refuted(law, tuple(elems[i] for i in _bits(mask)),
                       "bounded-above subset without a least upper bound",
                       EXHAUSTIVE)
    return verified(law, EXHAUSTIVE,
                    reason="every bounded pair has a least upper bound")


def reference_subposet_oracle(P):
    law = "subposet"
    member = retract_member(P)
    elems = [e for e in P.elements() if member(e)]
    induced = P.poset if len(elems) == P.poset.n \
        else induced_finite_poset(P, elems)
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            inside = oracle.waybelow_bruteforce(induced, i, j)
            ambient = P.waybelow(x, y)
            if inside != ambient:
                return refuted(law, (x, y),
                               f"way-below inside the subset = {inside}, "
                               f"ambient = {ambient}", EXHAUSTIVE)
    return verified(law, EXHAUSTIVE)


def reference_scott_scan(P):
    elems, fp, approx = kernel._finite_part(P)
    index = {e: i for i, e in enumerate(elems)}
    values = {}
    for i in _bits(approx):
        try:
            values[i] = index[kernel_of(P, elems[i])]
        except PosetError:
            pass
    retract = _mask(i for i, e in enumerate(elems) if in_retract(P, e))
    below = [0] * fp.n
    for t, kt in values.items():
        if retract >> kt & 1:
            below[t] = _mask(m for m, km in values.items()
                             if fp.leq(km, kt))
    verdicts = reference_plane_scan(
        P, elems, fp, lambda fam: kernel._scott_at(P, fam),
        lambda mask, top: (None if mask & ~approx
                           else not mask & ~below[top]))
    return reference_tally("scott-continuity", verdicts, EXHAUSTIVE,
                           counted=True)


def reference_largest_retract_oracle(P):
    law = "largest-retract"
    elems = P.elements()
    retract = _mask(i for i, e in enumerate(elems) if in_retract(P, e))
    for mask in oracle.continuous_subposets_bruteforce(P.poset):
        if mask & ~retract:
            return refuted(law, tuple(elems[i]
                                      for i in _bits(mask & ~retract)),
                           "a continuous subposet escapes the retract",
                           EXHAUSTIVE)
    return verified(law, EXHAUSTIVE)


def reference_laws_scan(P):
    pool = P.elements()
    approx_pool = [x for x in pool if P.kernel_value(x) is not None]
    elems, fp, approx = kernel._finite_part(P)
    restricted = reference_plane_scan(
        P, elems, fp, lambda fam: kernel._restriction_at(P, fam),
        lambda mask, top: (bool(approx >> top & 1) if mask & approx
                           else None))
    met = reference_plane_scan(
        P, elems, fp, lambda fam: reference_meet_at(P, fam, approx_pool),
        lambda mask, top: (bool(mask & approx) if fp.down[top] & approx
                           else None))
    subs = [
        reference_tally("directed-restriction", restricted, EXHAUSTIVE),
        reference_tally("restriction-nonempty", met, EXHAUSTIVE),
        kernel._law_double_approximation(P, approx_pool, EXHAUSTIVE),
        kernel._law_retract_approximation(P, pool, EXHAUSTIVE),
    ]
    return combine("approximation-laws", subs, EXHAUSTIVE)


PLANE_SCAN_REFERENCE = {
    "cc": reference_cc_scan,
    "subposet": reference_subposet_oracle,
    "scott": reference_scott_scan,
    "largest-retract": reference_largest_retract_oracle,
    "laws": reference_laws_scan,
}


def _report_outcomes(check):
    """(status, scope, witness, reason, samples) of a report and of each of
    its sub-reports, or the error it raised."""
    try:
        report = check()
    except PosetError as exc:
        return type(exc), str(exc)
    return [(r.status, r.scope, r.witness, r.reason, r.samples)
            for r in [report, *report.subreports]]


class TestPlaneScanReference:
    """The five finite laws decided from per-element masks give the status,
    witness, reason and samples of the plane scans they replaced."""

    RANDOM = [finite_random(4 + seed % 7, (0.2, 0.35, 0.5)[seed % 3], seed)
              for seed in range(30)]

    @staticmethod
    def assert_matches_reference(P):
        outcomes = {}
        for law, reference in PLANE_SCAN_REFERENCE.items():
            got = _report_outcomes(lambda: kernel.LAWS[law](P, None))
            assert got == _report_outcomes(lambda: reference(P)), law
            outcomes[law] = got
        return outcomes

    @pytest.mark.parametrize("spec", [
        *map(finite_named, catalog.NAMED_FINITE_ROSTER),
        disjoint_sum(finite_named("chain_2"), finite_named("chain_2")),
        *(spec for spec in _nested() if make_catalog(spec).is_finite_kind)],
        ids=lambda spec: make_catalog(spec).name)
    def test_finite_roster_and_nested_documents(self, spec):
        outcomes = self.assert_matches_reference(make_catalog(spec))
        assert all(got[0][0] is Status.VERIFIED for got in outcomes.values())

    def test_random_posets(self):
        incomplete = 0
        for spec in self.RANDOM:
            outcomes = self.assert_matches_reference(make_catalog(spec))
            incomplete += outcomes["cc"][0][0] is Status.REFUTED
        assert incomplete >= 5

    @pytest.mark.parametrize("how", CORRUPTIONS + ("mixed",))
    def test_corrupt_presentations(self, how):
        seen = Counter()
        for seed in range(25):
            for law, got in self.assert_matches_reference(
                    _corrupt(seed, how)).items():
                seen[law, got[0] if isinstance(got, tuple)
                     else got[0][0]] += 1
        # each corruption reaches a refuting (or raising) branch
        assert seen["largest-retract", Status.REFUTED]
        assert seen[{"wrong-sup": ("scott", Status.REFUTED),
                     "none": ("laws", Status.REFUTED),
                     "not-below": ("scott", PosetError),
                     "mixed": ("laws", Status.REFUTED)}[how]]

    def test_a_waybelow_that_is_not_the_order(self):
        """A finite poset whose way-below drops the pairs below its top:
        inside a finite subset way-below is the order, so the subposet law
        refutes at the first such pair, as the oracle does."""
        class Dropped(FinitePosetPresentation):
            def waybelow(self, x, y):
                return self.poset.leq(x, y) and (x == y or y != top)

        refuting = 0
        for seed in range(12):
            fp = catalog.random_finite_poset(3 + seed % 6, 0.4, seed)
            top = max(range(fp.n), key=lambda y: fp.down[y].bit_count())
            P = Dropped(fp)
            outcomes = self.assert_matches_reference(P)
            refuted_here = outcomes["subposet"][0][0] is Status.REFUTED
            assert refuted_here is (fp.down[top] != 1 << top)
            refuting += refuted_here
        assert refuting >= 10

    @settings(max_examples=200)
    @given(st.integers(1, 9), st.floats(0.1, 0.7), st.integers(0, 10**6),
           st.data())
    def test_directed_counts_match_the_listing(self, n, p, seed, data):
        """``_count_directed`` counts what the directed-subset listing
        holds: inside ``within``, maximum in ``tops``, mask below
        ``bound``."""
        fp = catalog.random_finite_poset(n, p, seed)
        within, tops = (data.draw(st.integers(0, (1 << n) - 1))
                        for _ in range(2))
        bound = data.draw(st.integers(0, 1 << n))
        listed = [mask for mask in fp.directed_subset_masks
                  if not mask & ~within
                  and tops >> _extremum(fp.down, mask) & 1]
        assert kernel._count_directed(fp, tops, within) == len(listed)
        assert kernel._count_directed(fp, tops, within, bound) == sum(
            mask < bound for mask in listed)


def reference_cc_sampled(P, scope):
    """The sampled conditional-completeness probe with pairwise bound
    tests: each pool element is held against each subset member by
    ``leq``."""
    law = "conditionally_complete"
    scope = resolve_scope(P, scope)
    rng = random.Random(scope.seed)
    pool = sample_pool(P, rng, scope.count)
    checked = 0
    for _ in range(min(scope.count, DEFAULT_SUBSET_SAMPLES)):
        size = rng.randint(2, 4)
        if len(pool) < size:
            break
        subset = rng.sample(pool, size)
        s = P.finite_sup(tuple(subset))
        if is_element(s):
            if not all(P.leq(a, s) for a in subset):
                return refuted(law, tuple(subset),
                               "reported supremum is not an upper bound",
                               scope, samples=checked)
            for u in pool:
                if all(P.leq(a, u) for a in subset) and not P.leq(s, u):
                    return refuted(
                        law, tuple(subset),
                        f"supremum not least: {P.format_element(u)} is a "
                        "smaller-incomparable upper bound", scope,
                        samples=checked)
        checked += 1
    for fam in P.family_bank():
        members = fam.sample_members()
        if not all(P.leq(m, fam.supremum) for m in members):
            return refuted(law, fam.label or fam,
                           "declared supremum does not dominate a member",
                           scope, samples=checked)
        if isinstance(fam, ExplicitFamily) and fam.supremum not in members:
            return refuted(law, fam.label or fam,
                           "declared supremum is not a member", scope,
                           samples=checked)
        checked += 1
    if P.certified_conditionally_complete:
        return verified(law, scope,
                        reason="certified for the kind; probes consistent",
                        samples=checked)
    return unrefuted(law, checked, scope)


def reference_inf_instance(P, A, scope, pool):
    """One infima-preservation instance with the pairwise lower-bound
    scan."""
    law = "infima-preservation"
    A = tuple(dict.fromkeys(A))
    if not A:
        raise EmptyFamily("need a nonempty retract subset")
    for a in A:
        P.require(a)
        if not in_retract(P, a):
            raise PosetError(f"{P.format_element(a)} is not in the retract")
    g = P.finite_inf(A)
    if not is_element(g):
        raise NoInfimumError("the set has no infimum in the carrier")
    if P.kernel_value(g) is None:
        raise NoInfimumError("the infimum lies outside the approximable "
                             "part; no representable approximable infimum")
    candidate = kernel_of(P, g)
    if not in_retract(P, candidate):
        return refuted(law, candidate, "kernel of the infimum escapes the "
                       "retract", scope)
    for a in A:
        if not P.leq(candidate, a):
            return refuted(law, candidate,
                           f"not a lower bound of {P.format_element(a)}",
                           scope)
    for c in pool:
        if all(P.leq(c, a) for a in A) and not P.leq(c, candidate):
            return refuted(law, c,
                           "a retract lower bound escapes the kernel of "
                           "the infimum", scope)
    return (verified(law, scope, samples=len(pool))
            if scope.kind == "exhaustive" else
            unrefuted(law, len(pool), scope))


def reference_inf_sampled(P, scope=None):
    """``check_inf_preservation_sampled`` over the pairwise instance
    check."""
    law = "infima-preservation"
    outer = scope or sampled()
    instances = list(P.inf_instances())
    rng = random.Random(outer.seed)
    pool = [x for x in sample_pool(P, rng, 200) if in_retract(P, x)]
    want = max(10, outer.count // 10)
    while len(instances) < want and len(pool) >= 2:
        size = rng.randint(2, min(3, len(pool)))
        instances.append(tuple(rng.sample(pool, size)))
    inner = resolve_scope(P, scope)
    lower_bounds = [x for x in (
        P.elements() if inner.kind == "exhaustive"
        else sample_pool(P, random.Random(inner.seed), inner.count))
        if in_retract(P, x)]
    parts = []
    skipped = 0
    for inst in instances:
        try:
            parts.append(reference_inf_instance(P, inst, inner,
                                                lower_bounds))
        except NoInfimumError:
            skipped += 1
    if not parts:
        return unrefuted(law, 0, outer,
                         reason=f"no instances with approximable infima "
                                f"({skipped} skipped)")
    report = combine(law, parts, outer)
    if report.status is not Status.REFUTED:
        report.status = Status.UNREFUTED
        report.subreports = []
        report.reason = (f"{len(parts)} retract subsets checked"
                         + (f", {skipped} without an approximable infimum"
                            if skipped else ""))
    return report


class SupPlusNatural(carriers.ClosedSetsPresentation):
    """Closed sets whose reported supremum adds a natural: an upper bound,
    but not the least one."""

    def finite_sup(self, xs):
        return closedset_join(super().finite_sup(xs), closed_set({30}))


class KernelDropsALowerBound(carriers.ClosedSetsPresentation):
    """Closed sets whose kernel sends {0, 1} to {1}, dropping the retract
    lower bound {0} of the instance ({0, 1, 2}, {0, 1, 3}) checked first."""

    def _kernel_value(self, x):
        if x == closed_set({0, 1}):
            return closed_set({1})
        return super()._kernel_value(x)

    def inf_instances(self):
        return [(closed_set({0, 1, 2}), closed_set({0, 1, 3}))]


SYMBOLIC = [omega_plus_one(), closed_sets(), punctured_closed_sets(),
            lift(punctured_closed_sets()),
            disjoint_sum(omega_plus_one(), closed_sets())]


class TestPoolScanReference:
    """The sampled ``cc`` and ``inf`` laws find the pool's bounds by order
    codes; the pairwise loops, kept here, must give the same status,
    witness, reason and samples."""

    SCOPES = [sampled(seed, count) for seed in (0, 1, 7, 11)
              for count in (3, 40, 500)]

    @staticmethod
    def assert_matches_reference(P, scope):
        cc = _outcome(lambda: core.check_conditionally_complete(P, scope))
        assert cc == _outcome(lambda: reference_cc_sampled(P, scope))
        inf = _outcome(lambda: check_inf_preservation_sampled(P, scope))
        assert inf == _outcome(lambda: reference_inf_sampled(P, scope))
        return cc, inf

    @pytest.mark.parametrize("spec", SYMBOLIC,
                             ids=lambda spec: make_catalog(spec).name)
    def test_symbolic_kinds(self, spec):
        P = make_catalog(spec)
        for scope in self.SCOPES:
            self.assert_matches_reference(P, scope)

    @pytest.mark.parametrize("methods", [
        {"finite_sup": lambda self, xs: xs[0]},
        {"finite_sup": lambda self, xs: OMEGA},
        {"family_bank": lambda self: carriers.OmegaPlusOnePresentation
         .family_bank(self) + [ExplicitFamily((0, 5), 3, label="over")]},
        {"family_bank": lambda self: carriers.OmegaPlusOnePresentation
         .family_bank(self) + [ExplicitFamily((0, 1), 5, label="loose")]},
    ], ids=["not-an-upper-bound", "not-least", "family-not-dominated",
            "family-not-a-member"])
    def test_corrupt_omega(self, methods):
        P = corrupt_omega(**methods)
        for scope in [None, *self.SCOPES]:
            cc, _ = self.assert_matches_reference(P, scope)
        assert cc[0] is Status.REFUTED

    def test_a_supremum_that_adds_a_natural(self):
        P = SupPlusNatural()
        for scope in self.SCOPES:
            cc, _ = self.assert_matches_reference(P, scope)
            if scope.count >= 40:
                assert cc[0] is Status.REFUTED
                assert cc[2].startswith("supremum not least: ")

    def test_a_kernel_that_drops_a_retract_lower_bound(self):
        P = KernelDropsALowerBound()
        for scope in self.SCOPES:
            _, inf = self.assert_matches_reference(P, scope)
            assert inf[:3] == (Status.REFUTED, closed_set({0}),
                               "infima-preservation: a retract lower bound "
                               "escapes the kernel of the infimum")
        A = P.inf_instances()[0]
        scope = resolve_scope(P, None)
        assert _outcome(lambda: check_inf_preservation(P, A)) == _outcome(
            lambda: reference_inf_instance(P, A, scope,
                                           kernel._retract_pool(P, scope)))


def reference_meet_at(P, fam, approx_pool):
    """The restriction-nonempty verdict at one family by a ``leq`` scan of
    the approximable pool for the first y below the supremum."""
    members = fam.sample_members()
    for y in approx_pool:
        if P.leq(y, fam.supremum):
            if not any(P.kernel_value(m) is not None for m in members):
                return (fam.label or fam, y), (
                    "family dominates an approximable element but misses "
                    "the approximable part")
            return True
    return None


def reference_restriction_nonempty_bank(P, scope):
    """The restriction-nonempty sub-law over a symbolic bank, each family
    judged by ``reference_meet_at``."""
    law = "restriction-nonempty"
    approx_pool = [x for x in scope_pool(P, scope)[0]
                   if P.kernel_value(x) is not None]
    count = 0
    for fam in P.family_bank():
        verdict = reference_meet_at(P, fam, approx_pool)
        if verdict is True:
            count += 1
        elif verdict:
            return refuted(law, *verdict, scope)
    return unrefuted(law, count, scope)


class TestMeetCodesReference:
    """The restriction-nonempty sub-law finds the first approximable pool
    element below a family's supremum by order codes and confirms it with
    ``leq``; the ``leq`` scan, kept here, must give the same status,
    witness, reason and samples."""

    SCOPES = [sampled(seed, count) for seed in (0, 7)
              for count in (3, 40, 500)]

    @staticmethod
    def assert_matches_reference(P, scope):
        subs = {s.law: s for s in check_approximation_laws(
            P, scope).subreports}
        got = _outcome(lambda: subs["restriction-nonempty"])
        assert got == _outcome(
            lambda: reference_restriction_nonempty_bank(P, scope)), P.name
        return got

    @pytest.mark.parametrize("P", [P for P in standard_roster()
                                   if not P.is_finite_kind],
                             ids=lambda P: P.name)
    def test_roster(self, P):
        for scope in self.SCOPES:
            assert self.assert_matches_reference(P, scope)[0] \
                is Status.UNREFUTED

    @pytest.mark.parametrize("spec", [
        spec for spec in _nested() if not make_catalog(spec).is_finite_kind],
        ids=lambda spec: make_catalog(spec).name)
    def test_nested_documents(self, spec):
        P = make_catalog(spec)
        for scope in self.SCOPES:
            self.assert_matches_reference(P, scope)

    @staticmethod
    def missing(**methods):
        """ω+1 in which 0 has no approximants, with a bank of two families
        of that one member: one with supremum 0, above no approximable
        element, and one with supremum 5, above 1 to 5."""
        return corrupt_omega(
            kernel_value=lambda self, x: None if x == 0 else x,
            _bank=lambda self: [ExplicitFamily((0,), 0, label="bottom"),
                                ExplicitFamily((0,), 5, label="zero")],
            **methods)

    def test_a_family_that_misses_the_approximable_part(self):
        """Refuted at the first approximable pool element below the
        supremum."""
        for scope in self.SCOPES:
            status, witness, _, _ = self.assert_matches_reference(
                self.missing(), scope)
            assert status is Status.REFUTED
            assert witness[0] == "zero" and 0 < witness[1] <= 5

    def test_codes_that_relate_everything_change_nothing(self):
        """Codes that put every element below every other leave each
        decision to ``leq``, which finds the same first element."""
        everything = {"order_codes": lambda self, xs: [0] * len(xs)}
        for P in (corrupt_omega(**everything), self.missing(**everything)):
            for scope in self.SCOPES:
                self.assert_matches_reference(P, scope)


def reference_subposet_sampled(P, scope, member):
    """The sampled subposet law with pairwise bank tests: ``leq`` against
    each family's supremum and ``family_dominates`` for every pair."""
    law = "subposet"
    rng = random.Random(scope.seed)
    pool = [e for e in P.interesting_elements() if member(e)]
    wanted = len(pool) + scope.count
    budget = scope.count * 8
    while len(pool) < wanted and budget:
        budget -= 1
        pool.extend(e for e in P.sample_elements(rng, 1) if member(e))
    pool = list(dict.fromkeys(pool))
    bank = [fam for fam in P.family_bank() if member(fam.supremum)
            and all(member(m) for m in fam.sample_members())]
    confirmed = 0
    for _ in range(scope.count):
        if not pool:
            break
        x, y = rng.choice(pool), rng.choice(pool)
        ambient = P.waybelow(x, y)
        for fam in bank:
            if not P.leq(y, fam.supremum) or core.family_dominates(P, fam, x):
                continue
            if ambient:
                return refuted(
                    law, (x, y),
                    f"family {fam.label!r} inside the subset refutes an "
                    "ambient way-below pair", scope, samples=confirmed)
            confirmed += 1
            break
        else:
            if ambient:
                confirmed += 1
    return unrefuted(law, confirmed, scope)


class TestSubposetCodesReference:
    """The sampled subposet law decides its bank tests by order codes; the
    pairwise loop, kept here, must give the same status, witness, reason
    and samples, for the retract and for the approximable part that the
    double-approximation law hands it."""

    SCOPES = [sampled(seed, count) for seed in (0, 7)
              for count in (3, 40, 500)]

    def assert_matches_reference(self, P):
        members = {"retract": retract_member(P),
                   "approximable": lambda y: P.kernel_value(y) is not None}
        outcomes = []
        for scope in self.SCOPES:
            for name, member in members.items():
                got = _outcome(lambda: sampled_laws._subposet_sampled(
                    P, scope, member))
                want = _outcome(lambda: reference_subposet_sampled(
                    P, scope, member))
                assert got == want, (P.name, scope, name)
                outcomes.append(got)
        return outcomes

    @pytest.mark.parametrize("P", standard_roster(), ids=lambda P: P.name)
    def test_roster(self, P):
        self.assert_matches_reference(P)

    @pytest.mark.parametrize("spec", _nested(),
                             ids=lambda spec: make_catalog(spec).name)
    def test_nested_documents(self, spec):
        self.assert_matches_reference(make_catalog(spec))

    def test_elements_beyond_the_sampled_members(self):
        """Naturals above the 64 sampled members of the ascending chain:
        only its certificate says that a member dominates them."""
        P = corrupt_omega(
            interesting_elements=lambda self: [0, 3, 100, 250, OMEGA])
        self.assert_matches_reference(P)

    def test_a_family_that_refutes_an_ambient_waybelow_pair(self):
        # a family declared to reach ω whose members stop at 2: it refutes
        # every way-below pair n << m with n above 2
        P = corrupt_omega(family_bank=lambda self: carriers
                          .OmegaPlusOnePresentation.family_bank(self)
                          + [ExplicitFamily((0, 1, 2), OMEGA, label="short")])
        outcomes = self.assert_matches_reference(P)
        for scope, (status, witness, reason, _) in zip(
                [s for s in self.SCOPES for _ in range(2)], outcomes):
            if scope.count >= 40:
                assert status is Status.REFUTED
                assert witness[0] > 2 and P.waybelow(*witness)
                assert reason == ("family 'short' inside the subset refutes "
                                  "an ambient way-below pair")

    def test_codes_that_disagree_with_leq_never_refute(self):
        """Codes relating nothing but equal elements make every family
        look like a refuter; ``leq`` and ``family_dominates`` overrule
        them."""
        P = corrupt_omega(order_codes=lambda self, xs: [
            1 << i for i in range(len(xs))])
        for scope in self.SCOPES:
            report = sampled_laws._subposet_sampled(P, scope,
                                                    lambda y: True)
            assert report.status is Status.UNREFUTED


def test_check_all_builds_each_bank_once(monkeypatch, capsys):
    """``family_bank()`` builds a presentation's bank once, however many
    laws read it; a sum builds each side's bank once too."""
    built = Counter()
    for cls in {type(P) for P in standard_roster()}:
        hook = cls._bank

        def counted(self, _hook=hook):
            built[self.name] += 1
            return _hook(self)

        monkeypatch.setattr(cls, "_bank", counted)
    kind = Path(__file__).resolve().parents[1] / "perfbench" / "kinds"
    for arg, parts in [
            ("closed_sets", {"closed_sets"}),
            (str(kind / "disjoint_sum_omega_plus_one_closed_sets.json"),
             {"omega_plus_one", "closed_sets",
              "disjoint_sum(omega_plus_one, closed_sets)"})]:
        built.clear()
        assert cli.main(["check", arg, "--law", "all"]) == 1
        capsys.readouterr()
        assert built == dict.fromkeys(parts, 1)


def _described(P, law, scope):
    """The lines ``check`` prints for one law, or its SKIPPED reason."""
    try:
        report = cli.run_law(P, law, scope)
    except (PreconditionUnverified, ScopeUnsupported, SizeLimit) as exc:
        return [f"SKIPPED reason={exc}"]
    return [r.describe(P.format_element)
            for r in [report, *report.subreports]]


class TestScopePool:
    """``core.scope_pool`` draws each (seed, count) pool once per
    presentation and hands every law a copy of it and an rng in the state
    the draw left, so a law reads what it would draw alone."""

    def test_check_all_draws_each_pool_once(self, monkeypatch, capsys):
        fresh = random.Random(DEFAULT_SEED).getstate()
        draws = Counter()
        draw = carriers.ClosedSetsPresentation.sample_elements

        def spy(P, rng, count):
            draws[rng.getstate() == fresh, count] += 1
            return draw(P, rng, count)

        monkeypatch.setattr(carriers.ClosedSetsPresentation,
                            "sample_elements", spy)
        assert cli.main(["check", "closed_sets", "--law", "all"]) == 1
        capsys.readouterr()
        # one pool of 500, which the compact-element probe reads too, and the
        # 200 that inf draws its subsets from; the rest are the subposet
        # law's draws of one element at a time
        assert draws[True, 500] == draws[True, 200] == 1
        assert set(draws) == {(True, 500), (True, 200), (True, 1),
                              (False, 1)}

    @pytest.mark.parametrize("spec", [
        finite_named("diamond"), finite_named("antichain_3"),
        lift(finite_named("chain_3")),
        disjoint_sum(finite_named("chain_2"), finite_named("n5"))],
        ids=lambda spec: make_catalog(spec).name)
    def test_an_exhaustive_pool_draws_nothing(self, spec, monkeypatch):
        P = make_catalog(spec)

        def never(self, rng, count):
            raise AssertionError("an exhaustive pool drew an element")

        for cls in {type(P), FinitePosetPresentation}:
            monkeypatch.setattr(cls, "sample_elements", never)
        assert scope_pool(P, EXHAUSTIVE) == (P.elements(), None)
        # the laws that read the pool of a finite carrier draw nothing
        for law in ("kernel", "eq", "laws"):
            assert kernel.LAWS[law](P, None).status is Status.VERIFIED

    def test_cc_draws_no_pool_for_the_bank(self, monkeypatch):
        """A finite directed family holds its supremum, so the sampled cc
        law decides each of the 142 bank families of a sum with a finite
        part without drawing a probe pool."""
        calls = []
        draw = core.sample_pool

        def spy(*args):
            calls.append(args)
            return draw(*args)

        monkeypatch.setattr(core, "sample_pool", spy)
        P = make_catalog(disjoint_sum(finite_named("chain_16"),
                                      omega_plus_one()))
        report = core.check_conditionally_complete(P)
        assert report.status is Status.VERIFIED
        assert len(P.family_bank()) == 142 and calls == []

    def test_callers_cannot_change_the_memo(self):
        P = make_catalog(closed_sets())
        scope = sampled(7, 50)
        rng = random.Random(7)
        expected = sample_pool(P, rng, 50), rng.getstate()
        pool, rng = scope_pool(P, scope)
        assert (pool, rng.getstate()) == expected
        pool.clear()
        rng.random()
        again, resumed = scope_pool(P, scope)
        assert (again, resumed.getstate()) == expected
        assert resumed is not rng

    @pytest.mark.parametrize("index", range(len(standard_roster())),
                             ids=[P.name for P in standard_roster()])
    def test_shared_pools_change_no_report(self, index):
        """``--law all`` on one presentation reports what each law reports
        on a presentation of its own."""
        for scope in [sampled(seed, count) for seed in (0, 7)
                      for count in (50, 500)]:
            P = standard_roster()[index]
            shared = [_described(P, law, scope) for law in kernel.LAWS]
            alone = [_described(standard_roster()[index], law, scope)
                     for law in kernel.LAWS]
            assert shared == alone


@pytest.mark.parametrize("spec", [
    finite_named("chain_12"), finite_named("antichain_12"),
    finite_named("chain_16"),
    # random orders that are conditionally complete, so that law holds too
    finite_random(14, 0.3, 1), finite_random(14, 0.3, 2),
    lift(finite_named("chain_12")),
    disjoint_sum(finite_named("chain_2"), finite_named("chain_14")),
    # above the subset-scan cap: the 34-element deep lift and a balanced
    # 256-element sum tree of chain_16
    pytest.param(reduce(lambda spec, _: lift(spec), range(32),
                        finite_named("chain_2")), id="deep_lift_chain_2"),
    pytest.param(reduce(lambda spec, _: disjoint_sum(spec, spec), range(4),
                        finite_named("chain_16")), id="sum_tree_256")],
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
    and none lists the directed subsets: they are decided from
    per-element masks of that order."""

    def test_a_finite_presentation_keeps_the_order_it_was_built_from(self):
        fp = named_finite_poset("diamond")
        assert FinitePosetPresentation(fp).poset is fp

    @pytest.mark.parametrize("spec", FINITE_COMBINATORS, ids=["lift", "sum"])
    def test_a_combinator_order_is_built_once_and_induced(self, spec):
        P = make_catalog(spec)
        assert P.poset is P.poset
        induced = induced_finite_poset(P, P.elements())
        assert (P.poset.names, P.poset.up) == (induced.names, induced.up)

    @pytest.fixture
    def built(self, monkeypatch):
        """Counts of the directed-scan builds, spied on as
        ``perfbench/spans.py`` does."""
        built = Counter()
        for name in ("directed_planes", "directed_subset_masks"):
            def spy(fp, compute=vars(FinitePoset)[name].func, name=name):
                built[name] += 1
                return compute(fp)

            prop = cached_property(spy)
            prop.__set_name__(FinitePoset, name)
            monkeypatch.setattr(FinitePoset, name, prop)
        return built

    @pytest.mark.parametrize("spec", [finite_named("diamond"),
                                      *FINITE_COMBINATORS],
                             ids=["diamond", "lift", "sum"])
    def test_the_laws_list_no_directed_subset(self, built, spec):
        P = make_catalog(spec)
        for law in ("scott", "laws", "largest-retract"):
            assert kernel.LAWS[law](P, None).status is Status.VERIFIED
        assert built == {}

    @pytest.mark.parametrize("kind", ["chain_16", "chain_12", "boolean_3",
                                      "diamond"])
    def test_check_all_builds_no_directed_planes(self, built, kind, capsys):
        assert cli.main(["check", kind, "--law", "all"]) == 0
        assert built == {}


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

    CARRIERS = {name for module in (catalog, carriers)
                for name, obj in vars(module).items()
                if isinstance(obj, type) and obj.__module__ == module.__name__
                and issubclass(obj, PosetPresentation)}

    @staticmethod
    def tree(module):
        return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))

    @staticmethod
    def imported(node):
        """The last components of the module names an import statement
        names, or the empty set for any other node."""
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            return set()
        return {name.rsplit(".", 1)[-1] for name in names}

    def assert_imports_none_of(self, module, forbidden):
        for node in ast.walk(self.tree(module)):
            assert not self.imported(node) & forbidden, ast.unparse(node)

    @pytest.mark.parametrize("module", [kernel, sampled_laws],
                             ids=["kernel", "sampled_laws"])
    def test_kernel_imports_no_carrier_module(self, module):
        self.assert_imports_none_of(module, {"catalog", "closedsets"})

    def test_oracle_imports_no_carrier_module(self):
        self.assert_imports_none_of(oracle, {"catalog", "closedsets"})

    @pytest.mark.parametrize("module", [kernel, core, sampled_laws],
                             ids=["kernel", "core", "sampled_laws"])
    def test_the_law_path_imports_no_oracle(self, module):
        """The laws decide finite carriers by theorems, not by the brute
        force, so the oracle stays an independent cross-check: only the
        acceptance matrix, the tests and the benchmark reach it."""
        self.assert_imports_none_of(module, {"oracle"})

    @pytest.mark.parametrize("module", [kernel, cli, oracle, sampled_laws,
                                        commands],
                             ids=["kernel", "cli", "oracle", "sampled_laws",
                                  "commands"])
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

    @staticmethod
    def owners(tree, where):
        """``(scope, node)`` for every node under ``tree``: the dotted name
        of the innermost function or class around it, from ``where``."""
        for child in ast.iter_child_nodes(tree):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}"
            yield inner, child
            yield from TestLayering.owners(child, inner)

    FINITE_PATH = ("cli", "core", "kernel", "oracle", "families", "reports",
                   "values", "errors", "catalog", "commands")

    def test_the_finite_path_loads_no_symbolic_carrier(self):
        """A finite answer compiles neither the closed-set algebra nor the
        symbolic carriers: no module it loads imports ``closedsets`` or
        ``carriers`` at module level, and the one function that imports
        them is ``catalog.make_catalog``, for a symbolic spec."""
        package = Path(core.__file__).parent
        importers = {where for stem in self.FINITE_PATH
                     for where, node in self.owners(
                         ast.parse((package / f"{stem}.py").read_text(
                             encoding="utf-8")), stem)
                     if self.imported(node) & {"closedsets", "carriers"}}
        assert importers == {"catalog.make_catalog"}

    def test_the_symbolic_laws_and_the_commands_load_where_they_run(self):
        """A finite ``check`` compiles neither the symbolic halves of the
        laws nor the other commands: ``sampled_laws`` is imported only
        inside the checkers that dispatch to it, once ``resolve_scope`` has
        picked a sampled scope, and ``commands`` only inside ``cli.main``
        for ``analyze`` and ``export-dot``, and by the acceptance matrix,
        which ``selftest`` loads."""
        package = Path(core.__file__).parent
        importers = {}
        for path in sorted(package.glob("*.py")):
            for where, node in self.owners(ast.parse(path.read_text(
                    encoding="utf-8")), path.stem):
                for name in self.imported(node) & {"sampled_laws",
                                                   "commands"}:
                    importers.setdefault(name, set()).add(where)
        assert importers == {
            "sampled_laws": {"core._axiom.check",
                             "kernel.check_scott_continuity",
                             "kernel.check_largest_retract",
                             "kernel.check_approximation_laws"},
            "commands": {"cli.main", "acceptance"}}

    def test_the_finite_order_and_the_cap_have_one_home(self):
        """kernel.py reads a carrier's order as ``P.poset``.  Every
        SizeLimit that catalog.py and carriers.py raise comes from
        ``_check_size``, the one cap on what a presentation lists.  In the
        package only ``core._subset_planes`` reads FINITE_CAP, the cap of
        the oracle's subset scans; a docstring may name it."""
        assert "induced_finite_poset" not in self.names(self.tree(kernel))
        raisers = {where for module in (catalog, carriers)
                   for where, node in self.owners(
                       self.tree(module), module.__name__.split(".")[-1])
                   if isinstance(node, ast.Raise)
                   and "SizeLimit" in self.names(node)}
        assert raisers == {"catalog._check_size"}
        readers = set()
        for path in sorted(Path(core.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            readers.update(
                where for where, node in self.owners(tree, path.stem)
                if isinstance(node, ast.Name) and node.id == "FINITE_CAP"
                and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.alias) and node.name == "FINITE_CAP")
        assert readers == {"core._subset_planes"}

    def test_the_pool_draw_has_one_home(self):
        """kernel.py and sampled_laws.py take their element pools and draws
        from ``core.scope_pool`` and ``core.scope_draw`` and never draw one
        themselves; besides that home, only the subposet law builds its own
        rng.  No family bank is drawn."""
        for module in (kernel, sampled_laws):
            assert "sample_pool" not in self.names(self.tree(module))
        builders = {node.name for module in (core, kernel, sampled_laws)
                    for node in ast.walk(self.tree(module))
                    if isinstance(node, ast.FunctionDef)
                    and "Random" in self.names(node)}
        assert builders == {"scope_draw", "scope_pool", "_subposet_sampled"}

    PLANES = {"directed_planes", "directed_subset_masks", "_subset_planes",
              "_none_of", "_plane_members"}

    def test_only_the_oracle_builds_subset_planes(self):
        """No law path builds a 2^n subset plane: outside the oracle only
        ``FinitePoset`` and the plane helpers of core name the planes."""
        users = set()
        for path in sorted(Path(core.__file__).parent.glob("*.py")):
            if path.stem == "oracle":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for top in tree.body:
                where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
                if isinstance(top, (ast.Import, ast.ImportFrom)):
                    where = f"{path.stem}.<import>"
                if self.names(top) & self.PLANES:
                    users.add(where)
        assert users == {"core.FinitePoset", "core._subset_planes",
                         "core._none_of", "core._plane_members"}

    @pytest.mark.parametrize("module", [kernel, core, sampled_laws],
                             ids=["kernel", "core", "sampled_laws"])
    def test_kernel_values_come_from_the_hook(self, module):
        """Whether x is approximable, and its kernel value, are read from
        ``kernel_value``; no family is built to be compared with None."""
        for node in ast.walk(self.tree(module)):
            if (isinstance(node, ast.Compare)
                    and isinstance(node.left, ast.Call)
                    and "waybelow_family" in self.names(node.left.func)):
                assert not any(isinstance(c, ast.Constant)
                               and c.value is None
                               for c in node.comparators), ast.unparse(node)

    @pytest.mark.parametrize("module", [kernel, cli, oracle, sampled_laws,
                                        commands],
                             ids=["kernel", "cli", "oracle", "sampled_laws",
                                  "commands"])
    def test_no_carrier_class_is_named(self, module):
        assert "ClosedSetsPresentation" in self.CARRIERS
        named = self.names(self.tree(module)) & self.CARRIERS
        assert not named, f"{module.__name__} names the carriers {named}"
