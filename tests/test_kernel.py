"""Kernel, retract, quotient, and the law checkers on top of them."""

import random

import pytest

from posetkernel import BOTTOM, OMEGA, Inner, closed_set, make_catalog
from posetkernel.catalog import finite_named, omega_plus_one, \
    standard_roster
from posetkernel.closedsets import EMPTY, EVENS, FULL, INF_POINT, ODDS
from posetkernel.core import sample_pool
from posetkernel.errors import (NoInfimumError, NotApproximable, PosetError,
                                PreconditionUnverified)
from posetkernel.kernel import (adversarial_kernel, check_approximation_laws,
                                check_inf_preservation,
                                check_inf_preservation_sampled,
                                check_kernel_laws,
                                check_largest_retract, check_scott_continuity,
                                check_waybelow_kernel_equivalence, in_retract,
                                is_approximable, kernel_of,
                                quotient_structure, retract_member)
from posetkernel.oracle import as_finite_poset, bank_refute_waybelow
from posetkernel.reports import Status, sampled

from conftest import random_presentation


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
        assert "deflation" in report.reason
        assert report.witness == closed_set({0})

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
    """Bank-driven laws are Verified only when the bank holds every
    directed subset."""

    def test_sampled_bank_reports_unrefuted(self):
        P = make_catalog(finite_named("chain_14"))
        assert len(P.poset.directed_subset_masks) == 16383
        assert len(P.family_bank()) == 2048
        assert not P.bank_is_exhaustive
        scott = check_scott_continuity(P)
        assert scott.status is Status.UNREFUTED
        assert scott.samples == 2048
        subs = {s.law: s.status
                for s in check_approximation_laws(P).subreports}
        assert subs == {"directed-restriction": Status.UNREFUTED,
                        "restriction-nonempty": Status.UNREFUTED,
                        "double-approximation": Status.VERIFIED,
                        "retract-approximation": Status.VERIFIED}

    def test_full_bank_stays_verified(self, diamond):
        assert diamond.bank_is_exhaustive
        assert check_scott_continuity(diamond).status is Status.VERIFIED
        report = check_approximation_laws(diamond)
        assert report.status is Status.VERIFIED
        assert all(s.status is Status.VERIFIED for s in report.subreports)

    def test_small_bank_above_ten_elements_is_full(self):
        P = make_catalog(finite_named("antichain_12"))
        assert len(P.family_bank()) == 12
        assert P.bank_is_exhaustive
        assert check_scott_continuity(P).status is Status.VERIFIED

    def test_views_and_sums_inherit_the_bank(self):
        from posetkernel.catalog import disjoint_sum, lift

        big = make_catalog(disjoint_sum(finite_named("chain_2"),
                                        finite_named("chain_14")))
        assert not big.bank_is_exhaustive
        small = make_catalog(disjoint_sum(finite_named("chain_2"),
                                          finite_named("diamond")))
        assert small.bank_is_exhaustive
        # a finite lift's bank is {bottom}, each inner directed set D and
        # each D with bottom added: every directed subset of the lift
        lifted = make_catalog(lift(finite_named("chain_2")))
        assert lifted.bank_is_exhaustive
        fp, _ = as_finite_poset(lifted)
        assert len(lifted.family_bank()) == len(fp.directed_subset_masks) == 7
        assert check_scott_continuity(lifted).status is Status.VERIFIED
        big_lift = make_catalog(lift(finite_named("chain_14")))
        assert not big_lift.bank_is_exhaustive
        assert check_scott_continuity(big_lift).status is Status.UNREFUTED


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
