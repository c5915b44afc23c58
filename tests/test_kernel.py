"""Kernel, retract, quotient, and the law checkers on top of them."""

import ast
import random
from pathlib import Path

import pytest

from posetkernel import (BOTTOM, NO_SUPREMUM, OMEGA, Inner,
                         PosetPresentation, catalog, cli, closed_set, kernel,
                         make_catalog, oracle)
from posetkernel.catalog import (closed_sets, disjoint_sum, finite_named, lift,
                                 omega_plus_one, punctured_closed_sets,
                                 standard_roster)
from posetkernel.closedsets import EMPTY, EVENS, FULL, INF_POINT, ODDS
from posetkernel.core import (FinitePosetPresentation, induced_finite_poset,
                              sample_pool)
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
from posetkernel.reports import Status, sampled

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
        fp = induced_finite_poset(lifted, lifted.elements())
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

    @pytest.mark.parametrize("module", [kernel, cli, oracle],
                             ids=["kernel", "cli", "oracle"])
    def test_no_carrier_class_is_named(self, module):
        assert "ClosedSetsPresentation" in self.CARRIERS
        for node in ast.walk(self.tree(module)):
            name = (getattr(node, "id", None) or getattr(node, "attr", None)
                    or getattr(node, "name", None))
            assert name not in self.CARRIERS, \
                f"{module.__name__} names the carrier {name}"
