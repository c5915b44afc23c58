"""Order abstraction: finite construction, suprema/infima, directedness,
certified way-below rules, approximability, and the axiom checker."""

import random

import pytest
from hypothesis import given, strategies as st

from posetkernel import (NO_INFIMUM, NO_SUPREMUM, OMEGA, build_finite_poset,
                         check_conditionally_complete, check_continuity,
                         check_interpolation, check_subposet, closed_set,
                         greatest_lower_bound, is_directed, least_upper_bound,
                         leq, make_catalog, waybelow)
from posetkernel.catalog import (OmegaPlusOnePresentation, finite_named,
                                 named_finite_poset, random_finite_poset,
                                 standard_roster)
from posetkernel.closedsets import INF_POINT
from posetkernel.core import (FinitePosetPresentation, induced_finite_poset,
                              resolve_scope)
from posetkernel.errors import (CycleDetected, DuplicateLabel, EmptyFamily,
                                ForeignElement, PosetError, ScopeUnsupported)
from posetkernel.families import ExplicitFamily
from posetkernel.kernel import is_approximable
from posetkernel.oracle import bank_refute_waybelow, waybelow_bruteforce
from posetkernel.reports import EXHAUSTIVE, Status, sampled

from conftest import corrupt_omega, random_presentation


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
        a, b = closed_set({0}), closed_set({1})
        lower = [e for e in punctured.truncation(1)
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
        elems = closed.truncation(2)
        i, j = elems.index(two), elems.index(two_inf)
        assert waybelow_bruteforce(induced_finite_poset(closed, elems), i, j)

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
        report = check_continuity(diamond)
        assert report.status is Status.VERIFIED
        assert report.scope.kind == "exhaustive"

    def test_closed_sets_continuity_refuted_at_inf(self, closed):
        report = check_continuity(closed)
        assert report.status is Status.REFUTED
        assert report.witness == INF_POINT
        assert "{}" in report.reason

    def test_closed_sets_refuted_at_inf_without_samples(self, closed):
        report = check_continuity(closed, sampled(count=0))
        assert report.status is Status.REFUTED
        assert report.witness == INF_POINT

    @pytest.mark.parametrize("counterexample", [None, 3],
                             ids=["none", "continuous-point"])
    def test_non_continuity_without_a_refuting_point_is_corrupt(
            self, counterexample):
        P = corrupt_omega(
            certified_continuous=False,
            continuity_counterexample=lambda self: counterexample)
        with pytest.raises(PosetError,
                           match="names no refuting counterexample"):
            check_continuity(P, sampled(count=5))

    def test_closed_sets_interpolation_certified(self, closed):
        report = check_interpolation(closed)
        assert report.status is Status.VERIFIED
        assert "certified" in report.reason

    def test_conditional_completeness(self, diamond, closed):
        assert check_conditionally_complete(diamond).status \
            is Status.VERIFIED
        assert check_conditionally_complete(closed).status is Status.VERIFIED

    def test_bowtie_not_conditionally_complete(self):
        P = make_catalog_from_covers(
            ["a", "b", "c", "d"],
            [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
        report = check_conditionally_complete(P)
        assert report.status is Status.REFUTED

    def test_exhaustive_scope_rejected_for_symbolic(self, closed):
        from posetkernel.reports import EXHAUSTIVE

        with pytest.raises(ScopeUnsupported):
            check_continuity(closed, EXHAUSTIVE)

    def test_sampled_scope_is_deterministic(self, closed):
        first = check_conditionally_complete(closed, sampled(42, 50))
        second = check_conditionally_complete(closed, sampled(42, 50))
        assert first.status == second.status
        assert first.samples == second.samples

    def test_subposet_takes_the_view(self, diamond):
        from posetkernel.kernel import retract_member

        report = check_subposet(diamond, None, retract_member(diamond))
        assert report.status is Status.VERIFIED

    @pytest.mark.parametrize("name", ["diamond", "n5", "fence_4"])
    def test_subposet_of_a_proper_subset_reads_its_own_order(self, name):
        # the carrier's order is reused only for the whole carrier; the
        # subset without element 0 is indexed from its own first element
        P = make_catalog(finite_named(name))
        report = check_subposet(P, None, lambda x: x != 0)
        assert report.status is Status.VERIFIED


def _with_family(fam):
    return lambda self: OmegaPlusOnePresentation.family_bank(self) + [fam]


class TestSampledCCRefutations:
    """Each refutation of the sampled conditional-completeness check, on an
    ω+1 with a corrupt supremum or bank family."""

    @pytest.mark.parametrize("methods, witness, reason", [
        ({"finite_sup": lambda self, xs: xs[0]}, (8, 2, 19),
         "reported supremum is not an upper bound"),
        ({"finite_sup": lambda self, xs: OMEGA}, (8, 2, 19),
         "supremum not least: 19 is a smaller-incomparable upper bound"),
        ({"family_bank": _with_family(
            ExplicitFamily((0, 5), 3, label="overshoot"))}, "overshoot",
         "declared supremum does not dominate a member"),
        ({"family_bank": _with_family(
            ExplicitFamily((0, 1), 5, label="loose"))}, "loose",
         "declared supremum is not a member"),
    ], ids=["not-an-upper-bound", "not-least", "family-not-dominated",
            "family-not-a-member"])
    def test_refutes(self, methods, witness, reason):
        report = check_conditionally_complete(corrupt_omega(**methods))
        assert report.status is Status.REFUTED
        assert report.witness == witness
        assert report.reason == reason


class TestResolveScope:
    @pytest.mark.parametrize("scope", [None, EXHAUSTIVE, sampled(7, 30)])
    def test_finite_carriers_are_exhausted(self, diamond, scope):
        assert resolve_scope(diamond, scope) is EXHAUSTIVE
        assert check_conditionally_complete(diamond, scope).scope \
            is EXHAUSTIVE

    def test_symbolic_carriers_are_sampled(self, closed):
        assert resolve_scope(closed) == sampled()
        assert resolve_scope(closed, sampled(7, 30)) == sampled(7, 30)
        with pytest.raises(ScopeUnsupported):
            resolve_scope(closed, EXHAUSTIVE)


def _lubless_subset_by_scan(fp, size=None):
    """Reference: the first bounded-above subset without a least upper
    bound (of ``size`` elements, when given), found with leq alone."""
    elems = range(fp.n)
    for mask in range(1, 1 << fp.n):
        members = [i for i in elems if mask >> i & 1]
        if size is not None and len(members) != size:
            continue
        ubs = [u for u in elems if all(fp.leq(m, u) for m in members)]
        if ubs and not any(all(fp.leq(u, v) for v in ubs) for u in ubs):
            return mask
    return None


def _cc_witness(fp):
    """The mask of the witness that the exhaustive cc law refutes at, or
    None when it verifies; the presentation's flag must agree."""
    P = FinitePosetPresentation(fp)
    report = check_conditionally_complete(P)
    assert P.certified_conditionally_complete is (
        report.status is Status.VERIFIED)
    if report.status is Status.VERIFIED:
        return None
    assert report.reason == ("bounded-above subset without a least upper "
                             "bound")
    return sum(1 << i for i in report.witness)


class TestLublessSubset:
    """A finite order is conditionally complete exactly when every bounded
    pair has a join, so the cc law refutes at the first lubless pair in
    mask order."""

    @given(st.integers(1, 8), st.floats(0.1, 0.7), st.integers(0, 10**6))
    def test_matches_the_scan(self, n, p, seed):
        fp = random_finite_poset(n, p, seed)
        first = _lubless_subset_by_scan(fp)
        witness = _cc_witness(fp)
        assert (witness is None) is (first is None)
        if witness is not None:
            assert witness == _lubless_subset_by_scan(fp, size=2)
            assert first <= witness

    def test_bowtie(self):
        fp = build_finite_poset(["a", "b", "c", "d"],
                                [("a", "c"), ("a", "d"), ("b", "c"),
                                 ("b", "d")])
        assert _cc_witness(fp) == 0b11
        assert _cc_witness(named_finite_poset("boolean_3")) is None

    def test_a_lubless_triple_is_reported_by_a_pair(self):
        """Atoms a, b, c with pairwise joins, and two incomparable upper
        bounds u, v of those joins: {a, b, c} is the first lubless subset,
        and the law names the first lubless pair, {c, a ∨ b}."""
        names = ["a", "b", "c", "ab", "ac", "bc", "u", "v"]
        covers = [(x, x + y) for x, y in ("ab", "ac", "bc")] + [
            (y, x + y) for x, y in ("ab", "ac", "bc")] + [
            (j, top) for j in ("ab", "ac", "bc") for top in "uv"]
        fp = build_finite_poset(names, covers)
        assert _lubless_subset_by_scan(fp) == 0b111
        assert _cc_witness(fp) == _lubless_subset_by_scan(fp, size=2) \
            == 0b1100


def make_catalog_from_covers(names, covers):
    from posetkernel.core import FinitePosetPresentation

    return FinitePosetPresentation(build_finite_poset(names, covers),
                                   name="adhoc")
