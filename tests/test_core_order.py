"""Order abstraction: finite construction, suprema/infima, directedness,
certified way-below rules, approximability, and the axiom checker."""

import random

import pytest
from hypothesis import given, strategies as st

from posetkernel import (NO_INFIMUM, NO_SUPREMUM, OMEGA, build_finite_poset,
                         check_axiom, closed_set, greatest_lower_bound,
                         is_directed, least_upper_bound, leq, make_catalog,
                         waybelow)
from posetkernel.catalog import (finite_named, named_finite_poset,
                                 random_finite_poset, standard_roster)
from posetkernel.closedsets import INF_POINT
from posetkernel.core import resolve_scope
from posetkernel.errors import (CycleDetected, DuplicateLabel, EmptyFamily,
                                ForeignElement, ScopeUnsupported,
                                ValidationError)
from posetkernel.kernel import is_approximable
from posetkernel.oracle import bank_refute_waybelow, truncate, \
    waybelow_bruteforce
from posetkernel.reports import EXHAUSTIVE, Status, sampled

from conftest import random_presentation


class TestBuildFinitePoset:
    def test_singleton(self):
        fp = build_finite_poset(["a"], [])
        assert fp.n == 1
        assert fp.leq(0, 0)

    def test_diamond_transitive_closure(self, diamond):
        a, d = 0, 3
        assert leq(diamond, a, d)

    def test_cycle_detected(self):
        with pytest.raises(CycleDetected):
            build_finite_poset(["a", "b"], [("a", "b"), ("b", "a")])

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabel):
            build_finite_poset(["a", "a"], [])

    def test_unknown_cover_label(self):
        with pytest.raises(ForeignElement):
            build_finite_poset(["a"], [("a", "z")])

    @given(st.integers(0, 60), st.integers(1, 7))
    def test_random_closures_are_orders(self, seed, n):
        P = random_presentation(seed, n)
        fp = P.poset
        for i in range(n):
            assert fp.leq(i, i)
            for j in range(n):
                if fp.leq(i, j) and fp.leq(j, i):
                    assert i == j
                for k in range(n):
                    if fp.leq(i, j) and fp.leq(j, k):
                        assert fp.leq(i, k)


class TestOrderLaws:
    @pytest.mark.parametrize("P", standard_roster(), ids=lambda P: P.name)
    def test_sampled_reflexive_antisymmetric_transitive(self, P):
        rng = random.Random(0xC0FFEE)
        pool = P.interesting_elements() + P.sample_elements(rng, 40)
        for _ in range(250):
            x, y, z = (rng.choice(pool) for _ in range(3))
            assert P.leq(x, x)
            if P.leq(x, y) and P.leq(y, x):
                assert x == y
            if P.leq(x, y) and P.leq(y, z):
                assert P.leq(x, z)


class TestLeq:
    def test_omega_top(self, omega):
        assert leq(omega, 3, OMEGA)
        assert not leq(omega, OMEGA, 3)

    def test_closed_subset_order(self, closed):
        assert leq(closed, closed_set({1, 3}), closed_set({1, 3}, True))

    def test_foreign_element(self, diamond, closed):
        with pytest.raises(ForeignElement):
            leq(diamond, 0, closed_set({1}))
        with pytest.raises(ForeignElement):
            leq(closed, 0, closed_set({1}))


class TestSuprema:
    def test_antichain_has_no_supremum(self):
        P = make_catalog(finite_named("antichain_2"))
        assert least_upper_bound(P, (0, 1)) is NO_SUPREMUM

    def test_closed_binary_join(self, closed):
        got = least_upper_bound(closed, (closed_set({1}),
                                         closed_set({2}, True)))
        assert got == closed_set({1, 2}, True)

    def test_diamond_lub_by_upper_bound_scan(self, diamond):
        # independent oracle: scan all upper bounds for a least one
        b, c = 1, 2
        elems = diamond.elements()
        ubs = [u for u in elems
               if diamond.leq(b, u) and diamond.leq(c, u)]
        least = [u for u in ubs
                 if all(diamond.leq(u, v) for v in ubs)]
        assert least == [3]
        assert least_upper_bound(diamond, (b, c)) == 3

    def test_empty_set_rejected(self, diamond):
        with pytest.raises(EmptyFamily):
            least_upper_bound(diamond, ())

    def test_lub_least_among_sampled_upper_bounds(self, closed):
        rng = random.Random(7)
        pool = closed.sample_elements(rng, 60)
        for _ in range(60):
            subset = rng.sample(pool, 2)
            s = least_upper_bound(closed, subset)
            assert all(closed.leq(a, s) for a in subset)
            for u in pool:
                if all(closed.leq(a, u) for a in subset):
                    assert closed.leq(s, u)


class TestInfima:
    def test_closed_intersection(self, closed):
        assert greatest_lower_bound(
            closed, (closed_set({0, 2}), closed_set({0, 4}))) == \
            closed_set({0})

    def test_punctured_no_infimum_by_lower_bound_scan(self, punctured):
        # independent oracle: scan the 16-element truncation for common
        # lower bounds of {0} and {1}; there are none
        trunc = truncate(punctured, 1)
        a, b = closed_set({0}), closed_set({1})
        lower = [e for e in trunc.to_parent
                 if punctured.leq(e, a) and punctured.leq(e, b)]
        assert lower == []
        assert greatest_lower_bound(punctured, (a, b)) is NO_INFIMUM

    def test_chain_minimum(self):
        P = make_catalog(finite_named("chain_3"))
        one, two = P.parse_element("1"), P.parse_element("2")
        assert greatest_lower_bound(P, (one, two)) == one


class TestDirected:
    def test_singleton(self, diamond):
        assert is_directed(diamond, (0,))

    def test_diamond_pair_not_directed(self, diamond):
        assert not is_directed(diamond, (1, 2))

    def test_diamond_with_top_directed(self, diamond):
        assert is_directed(diamond, (1, 2, 3))

    def test_empty_family(self, diamond):
        with pytest.raises(EmptyFamily):
            is_directed(diamond, ())


class TestWaybelow:
    def test_diamond_bottom_waybelow_top(self, diamond):
        # definitional oracle first
        assert waybelow_bruteforce(diamond.poset, 0, 3)
        assert waybelow(diamond, 0, 3)

    def test_omega_not_waybelow_itself(self, omega):
        report = bank_refute_waybelow(omega, OMEGA, OMEGA)
        assert report.status is Status.REFUTED
        assert not waybelow(omega, OMEGA, OMEGA)

    def test_closed_examples(self, closed):
        two, two_inf = closed_set({2}), closed_set({2}, True)
        assert waybelow(closed, two, two_inf)
        assert bank_refute_waybelow(closed, two, two_inf).status \
            is Status.UNREFUTED
        assert not waybelow(closed, INF_POINT, INF_POINT)
        assert bank_refute_waybelow(closed, INF_POINT, INF_POINT).status \
            is Status.REFUTED
        # one-sided transfer into the truncation's brute force
        trunc = truncate(closed, 2)
        i, j = trunc.index_of(two), trunc.index_of(two_inf)
        assert waybelow_bruteforce(trunc.poset, i, j)

    def test_waybelow_implies_leq_sampled(self):
        rng = random.Random(0xC0FFEE)
        for P in standard_roster():
            pool = P.interesting_elements() + P.sample_elements(rng, 40)
            for _ in range(120):
                x, y = rng.choice(pool), rng.choice(pool)
                if P.waybelow(x, y):
                    assert P.leq(x, y), P.name

    def test_waybelow_stable_under_order(self):
        rng = random.Random(11)
        for P in standard_roster():
            pool = P.interesting_elements() + P.sample_elements(rng, 40)
            for _ in range(300):
                x2, x, y, y2 = (rng.choice(pool) for _ in range(4))
                if P.leq(x2, x) and P.waybelow(x, y) and P.leq(y, y2):
                    assert P.waybelow(x2, y2), P.name


class TestApproximable:
    def test_least_element_makes_everything_approximable(self, closed,
                                                          lifted_punctured):
        rng = random.Random(3)
        for P in (closed, lifted_punctured):
            for x in P.interesting_elements() + P.sample_elements(rng, 50):
                assert is_approximable(P, x), P.format_element(x)

    def test_punctured_inf_point_not_approximable(self, punctured):
        assert not is_approximable(punctured, INF_POINT)
        report = bank_refute_waybelow(punctured, closed_set({5}), INF_POINT)
        assert report.status is Status.REFUTED

    def test_punctured_singleton_self_witness(self, punctured):
        five = closed_set({5})
        assert is_approximable(punctured, five)
        assert waybelow(punctured, five, five)

    def test_consistency_with_sampled_witnesses(self):
        rng = random.Random(5)
        for P in standard_roster():
            pool = P.interesting_elements() + P.sample_elements(rng, 30)
            for x in pool[:40]:
                fam = P.waybelow_family(x)
                if fam is None:
                    assert not any(P.waybelow(v, x) for v in pool), P.name
                else:
                    members = fam.sample_members()
                    assert members, P.name
                    assert any(P.waybelow(v, x) for v in members), P.name


class TestCheckAxiom:
    def test_diamond_continuous_exhaustive(self, diamond):
        report = check_axiom(diamond, "continuous")
        assert report.status is Status.VERIFIED
        assert report.scope.kind == "exhaustive"

    def test_closed_sets_continuity_refuted_at_inf(self, closed):
        report = check_axiom(closed, "continuous")
        assert report.status is Status.REFUTED
        assert report.witness == INF_POINT
        assert "{}" in report.reason

    def test_closed_sets_interpolation_certified(self, closed):
        report = check_axiom(closed, "interpolating")
        assert report.status is Status.VERIFIED
        assert "certified" in report.reason

    def test_conditional_completeness(self, diamond, closed):
        assert check_axiom(diamond, "cc").status is Status.VERIFIED
        assert check_axiom(closed, "cc").status is Status.VERIFIED

    def test_bowtie_not_conditionally_complete(self):
        P = make_catalog_from_covers(
            ["a", "b", "c", "d"],
            [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
        report = check_axiom(P, "conditionally_complete")
        assert report.status is Status.REFUTED

    def test_exhaustive_scope_rejected_for_symbolic(self, closed):
        from posetkernel.reports import EXHAUSTIVE

        with pytest.raises(ScopeUnsupported):
            check_axiom(closed, "continuous", EXHAUSTIVE)

    def test_sampled_scope_is_deterministic(self, closed):
        first = check_axiom(closed, "cc", sampled(42, 50))
        second = check_axiom(closed, "cc", sampled(42, 50))
        assert first.status == second.status
        assert first.samples == second.samples

    @pytest.mark.parametrize("key, name", [
        ("cc", "conditionally_complete"), ("interpolation", "interpolating"),
        ("continuity", "continuous")])
    def test_law_table_key_and_report_name(self, closed, key, name):
        by_key = check_axiom(closed, key, sampled(42, 50))
        by_name = check_axiom(closed, name, sampled(42, 50))
        assert by_key == by_name
        assert by_key.law == name

    def test_subposet_takes_the_view(self, diamond):
        from posetkernel.kernel import retract_member

        report = check_axiom(diamond, "subposet",
                             member=retract_member(diamond))
        assert report.status is Status.VERIFIED

    @pytest.mark.parametrize("law", ["kernel", "inf", "bogus"])
    def test_only_order_axioms(self, closed, law):
        with pytest.raises(ValidationError):
            check_axiom(closed, law)


class TestResolveScope:
    @pytest.mark.parametrize("scope", [None, EXHAUSTIVE, sampled(7, 30)])
    def test_finite_carriers_are_exhausted(self, diamond, scope):
        assert resolve_scope(diamond, scope) is EXHAUSTIVE
        assert check_axiom(diamond, "cc", scope).scope is EXHAUSTIVE

    def test_symbolic_carriers_are_sampled(self, closed):
        assert resolve_scope(closed) == sampled()
        assert resolve_scope(closed, sampled(7, 30)) == sampled(7, 30)
        with pytest.raises(ScopeUnsupported):
            resolve_scope(closed, EXHAUSTIVE)


def _lubless_subset_by_scan(fp):
    """Reference: the first bounded-above subset without a least upper
    bound, found with leq alone."""
    elems = range(fp.n)
    for mask in range(1, 1 << fp.n):
        members = [i for i in elems if mask >> i & 1]
        ubs = [u for u in elems if all(fp.leq(m, u) for m in members)]
        if ubs and not any(all(fp.leq(u, v) for v in ubs) for u in ubs):
            return mask
    return None


class TestLublessSubset:
    @given(st.integers(1, 8), st.floats(0.1, 0.7), st.integers(0, 10**6))
    def test_matches_the_scan(self, n, p, seed):
        fp = random_finite_poset(n, p, seed)
        assert fp.lubless_subset() == _lubless_subset_by_scan(fp)

    def test_bowtie(self):
        fp = build_finite_poset(["a", "b", "c", "d"],
                                [("a", "c"), ("a", "d"), ("b", "c"),
                                 ("b", "d")])
        assert fp.lubless_subset() == 0b11
        assert named_finite_poset("boolean_3").lubless_subset() is None


def make_catalog_from_covers(names, covers):
    from posetkernel.core import FinitePosetPresentation

    return FinitePosetPresentation(build_finite_poset(names, covers),
                                   name="adhoc")
