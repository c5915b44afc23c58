"""Catalog presentations: fixtures, banks, combinators, and the standing
invariant that no certified way-below rule is ever refuted by its bank."""

import json
import random
import tracemalloc
from functools import partial
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from posetkernel import (BOTTOM, NO_INFIMUM, NO_LOWER_BOUND, NO_SUPREMUM,
                         OMEGA, Inner, Left, PosetPresentation, Right, cli,
                         closed_set, closedsets, least_upper_bound,
                         make_catalog)
from posetkernel.carriers import (DisjointSumPresentation,
                                  LiftPresentation, OmegaPlusOnePresentation,
                                  _Combinator)
from posetkernel.catalog import (MAX_DOCUMENT_DEPTH, MAX_ELEMENTS,
                                 closed_sets, disjoint_sum,
                                 finite_explicit, finite_named, lift,
                                 named_finite_poset, omega_plus_one,
                                 punctured_closed_sets, random_finite_poset,
                                 spec_to_document, standard_roster)
from posetkernel.closedsets import (EMPTY, EVENS, FULL, INF_POINT,
                                    periodic_set)
from posetkernel.core import (_continuity_failure, induced_finite_poset,
                              is_element, scope_pool)
from posetkernel.errors import SizeLimit, UnknownName
from posetkernel.families import ChainFamily, ExplicitFamily
from posetkernel.kernel import (LAWS, check_approximation_laws,
                                check_scott_continuity, in_retract,
                                is_approximable, kernel_of)
from posetkernel.oracle import bank_refute_waybelow
from posetkernel.reports import Status, sampled

from conftest import closed_reps, corrupt_omega, random_presentation

ROOT = Path(__file__).resolve().parents[1]
BOWTIE = finite_explicit(["a", "b", "c", "d"],
                         [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]])
F2 = finite_explicit(["0", "1"], [["0", "1"]])
NESTED = [
    lift(lift(closed_sets())), lift(closed_sets()), lift(omega_plus_one()),
    lift(F2), lift(lift(lift(F2))), disjoint_sum(lift(F2), omega_plus_one()),
    disjoint_sum(disjoint_sum(F2, omega_plus_one()),
                 lift(punctured_closed_sets())),
    lift(disjoint_sum(closed_sets(), F2)),
    disjoint_sum(punctured_closed_sets(), closed_sets()),
]


class TestNamedPosets:
    def test_diamond_shape(self):
        fp = named_finite_poset("diamond")
        assert fp.n == 4
        bottom = [i for i in range(4)
                  if all(fp.leq(i, j) for j in range(4))]
        assert bottom == [fp.index_of("a")]

    def test_sizes(self):
        assert named_finite_poset("boolean_3").n == 8
        assert named_finite_poset("m3").n == 5
        assert named_finite_poset("n5").n == 5
        assert named_finite_poset("fence_4").n == 4
        assert named_finite_poset("chain_5").n == 5
        assert named_finite_poset("antichain_4").n == 4

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            named_finite_poset("dodecahedron")

    def test_size_limit(self):
        """Named and random posets stop at the one element cap."""
        assert named_finite_poset(f"chain_{MAX_ELEMENTS}").n == MAX_ELEMENTS
        assert random_finite_poset(MAX_ELEMENTS, 0.01, 0).n == MAX_ELEMENTS
        for name in ("chain", "antichain"):
            with pytest.raises(SizeLimit, match=f"^{name}_513 is over the "
                                                "cap of 512 elements$"):
                named_finite_poset(f"{name}_{MAX_ELEMENTS + 1}")
        with pytest.raises(SizeLimit):
            random_finite_poset(MAX_ELEMENTS + 1, 0.2, 0)

    @pytest.mark.parametrize("name", ["chain_0", "antichain_0", "chain_07",
                                      "chain_" + "9" * 5000])
    def test_a_size_outside_the_names_is_unknown(self, name):
        with pytest.raises(UnknownName):
            named_finite_poset(name)

    def test_random_poset_deterministic(self):
        one = random_finite_poset(7, 0.35, 13)
        two = random_finite_poset(7, 0.35, 13)
        assert one.up == two.up


class TestCombinators:
    def test_lift_makes_everything_approximable(self):
        P = make_catalog(lift(punctured_closed_sets()))
        rng = random.Random(0)
        for x in [BOTTOM, Inner(INF_POINT)] + P.sample_elements(rng, 40):
            assert is_approximable(P, x)

    def test_lift_bottom_waybelow_everything(self):
        P = make_catalog(lift(punctured_closed_sets()))
        rng = random.Random(1)
        for x in P.sample_elements(rng, 40):
            assert P.waybelow(BOTTOM, x)

    def test_disjoint_sum_cross_pairs(self):
        P = make_catalog(disjoint_sum(finite_named("chain_2"),
                                      finite_named("chain_2")))
        assert len(P.elements()) == 4
        cross = (Left(0), Right(1))
        assert not P.leq(*cross)
        assert not P.waybelow(*cross)
        assert least_upper_bound(P, cross) is NO_SUPREMUM

    def test_sum_no_cross_relations_sampled(self):
        P = make_catalog(disjoint_sum(finite_named("chain_2"),
                                      finite_named("chain_2")))
        for x in P.elements():
            for y in P.elements():
                if type(x) is not type(y):
                    assert not P.leq(x, y)
                    assert not P.waybelow(x, y)

    def test_lift_infimum_falls_to_bottom(self):
        P = make_catalog(lift(punctured_closed_sets()))
        got = P.finite_inf((Inner(closed_set({0})), Inner(closed_set({1}))))
        assert got is BOTTOM

    def test_sum_of_symbolic_kinds(self):
        P = make_catalog(disjoint_sum(omega_plus_one(), closed_sets()))
        assert P.leq(Left(2), Left(OMEGA))
        assert P.waybelow(Right(EMPTY), Right(INF_POINT))
        assert not P.waybelow(Left(OMEGA), Left(OMEGA))

    def test_single_draws_on_a_sum_reach_both_sides(self):
        # the sampled subposet law draws one element at a time
        P = make_catalog(disjoint_sum(omega_plus_one(), closed_sets()))
        rng = random.Random(0)
        draws = [x for _ in range(500) for x in P.sample_elements(rng, 1)]
        assert len(draws) == 500
        lefts = sum(isinstance(x, Left) for x in draws)
        assert 150 < lefts < 350
        even = P.sample_elements(rng, 10)
        assert sum(isinstance(x, Left) for x in even) == 5

    @pytest.mark.parametrize("spec, literals, expected", [
        (lift(finite_named("antichain_2")),
         ({"inner": "a0"}, {"inner": "a1"}), BOTTOM),
        (lift(BOWTIE), ({"inner": "c"}, {"inner": "d"}), NO_INFIMUM),
        (lift(disjoint_sum(finite_named("chain_2"), finite_named("chain_2"))),
         ({"inner": {"left": "0"}}, {"inner": {"right": "0"}}), BOTTOM),
        (lift(lift(BOWTIE)),
         ({"inner": {"inner": "c"}}, {"inner": {"inner": "d"}}), NO_INFIMUM),
    ], ids=["antichain", "bowtie", "sum", "lift-of-lift"])
    def test_lift_infimum_without_inner_infimum(self, spec, literals,
                                                expected):
        # bottom when the inner elements have no common lower bound at
        # all, NoInfimum when they have several maximal ones
        P = make_catalog(spec)
        xs = tuple(P.parse_element(lit) for lit in literals)
        assert P.finite_inf(xs) is expected


class TestFamilyBanks:
    @pytest.mark.parametrize("spec", [
        lift(finite_named("chain_3")), lift(finite_named("antichain_2")),
        lift(lift(finite_named("chain_2"))),
        lift(disjoint_sum(finite_named("chain_2"), BOWTIE))],
        ids=["chain_3", "antichain_2", "lift-of-lift", "sum"])
    def test_finite_lift_bank_is_every_directed_subset(self, spec):
        # the bank laws of a finite carrier count every directed subset
        P = make_catalog(spec)
        fp = induced_finite_poset(P, P.elements())
        count = len(fp.directed_subset_masks)
        subs = {s.law: s for s in check_approximation_laws(P).subreports}
        for report in (check_scott_continuity(P),
                       subs["directed-restriction"],
                       subs["restriction-nonempty"]):
            assert (report.status, report.samples) == (Status.VERIFIED,
                                                       count)

    def test_deep_lift_bank_stays_bounded(self, tmp_path, capsys):
        # a lift adds two families per level: the 32-deep lift the
        # document parser accepts keeps 3 + 2 * 32; its 34 elements are
        # above the subset-scan cap, and the laws over directed sets decide
        # its 2^34 - 1 directed subsets without listing them
        spec = finite_named("chain_2")
        for _ in range(32):
            spec = lift(spec)
        P = make_catalog(spec)
        assert len(P.family_bank()) == 67
        for law in ("cc", "subposet", "scott", "largest-retract", "laws"):
            assert LAWS[law](P, None).status is Status.VERIFIED, law
        assert check_scott_continuity(P).samples == 2 ** 34 - 1
        doc = tmp_path / "deep.json"
        doc.write_text(json.dumps(spec_to_document(spec)))
        assert cli.main(["check", str(doc), "--law", "all"]) == 0
        assert "SKIPPED" not in capsys.readouterr().out

    @pytest.mark.parametrize("P", standard_roster(), ids=lambda P: P.name)
    def test_families_are_directed_with_dominating_sups(self, P):
        for fam in P.family_bank():
            members = fam.sample_members()
            assert members
            if isinstance(fam, ExplicitFamily):
                for a in members:
                    for b in members:
                        assert any(P.leq(a, c) and P.leq(b, c)
                                   for c in members), fam.label
            else:
                for a, b in zip(members, members[1:]):
                    assert P.leq(a, b), fam.label
            for m in members:
                assert P.leq(m, fam.supremum), fam.label

    @pytest.mark.parametrize("P", standard_roster(), ids=lambda P: P.name)
    def test_sup_minimality_probe(self, P):
        rng = random.Random(0xBEEF)
        candidates = P.interesting_elements() + P.sample_elements(rng, 64)
        for fam in P.family_bank():
            members = fam.sample_members()
            for z in candidates:
                if P.leq(z, fam.supremum) and z != fam.supremum:
                    assert not all(P.leq(m, z) for m in members), \
                        f"{fam.label}: {P.format_element(z)} undercuts the sup"

    @pytest.mark.parametrize(
        "P", [p for p in standard_roster() if not p.is_finite_kind],
        ids=lambda P: P.name)
    def test_certified_waybelow_never_refuted_by_bank(self, P):
        rng = random.Random(0xC0FFEE)
        pool = P.interesting_elements() + P.sample_elements(rng, 80)
        for _ in range(500):
            x, y = rng.choice(pool), rng.choice(pool)
            if P.waybelow(x, y):
                report = bank_refute_waybelow(P, x, y)
                assert report.status is not Status.REFUTED, \
                    report.describe(P.format_element)

    def test_closed_sets_bank_contents(self, closed):
        labels = {fam.label for fam in closed.family_bank()}
        assert "initial-segments" in labels
        assert "even-initial-segments" in labels
        chains = {fam.label: fam for fam in closed.family_bank()
                  if isinstance(fam, ChainFamily)}
        initial = chains["initial-segments"]
        assert initial.supremum == FULL
        assert initial.generator(2) == closed_set({0, 1, 2})
        evens = chains["even-initial-segments"]
        assert evens.supremum == EVENS
        assert evens.generator(2) == closed_set({0, 2, 4})
        # the initial-segment chain witnesses non-continuity at {inf}
        assert closed.leq(INF_POINT, initial.supremum)
        assert initial.member_dominates(INF_POINT) is False

    def test_omega_bank_has_the_naturals_chain(self, omega):
        chains = [fam for fam in omega.family_bank()
                  if isinstance(fam, ChainFamily)]
        assert len(chains) == 1
        chain = chains[0]
        assert chain.supremum is OMEGA
        assert chain.generator(5) == 5

    def test_finite_bank_is_its_generators(self, diamond):
        # the directed subsets of one or two members, in mask order: each
        # {t} and each {m, t} with m < t
        from posetkernel.core import is_directed

        bank = diamond.family_bank()
        expected = []
        for mask in range(1, 1 << 4):
            members = [i for i in range(4) if (mask >> i) & 1]
            if len(members) <= 2 and all(
                    any(diamond.leq(a, c) and diamond.leq(b, c)
                        for c in members)
                    for a in members for b in members):
                expected.append(tuple(members))
        assert [fam.members for fam in bank] == expected
        assert len(bank) == 4 + 5  # the elements and the pairs m < t
        for fam in bank:
            assert fam.supremum in fam.members  # finite sup is the maximum
            assert is_directed(diamond, fam)


class TestWrappedFamilies:
    """The combinators re-export component families through map_family."""

    def test_lifted_chain_keeps_its_certificates(self, lifted_punctured):
        x = Inner(EVENS)
        fam = lifted_punctured.waybelow_family(x)
        assert isinstance(fam, ChainFamily)
        assert fam.supremum == x and fam.kernel_image_sup == x
        assert fam.member_dominates(BOTTOM)
        assert fam.member_dominates(Inner(closed_set({0, 2})))
        assert not fam.member_dominates(Inner(closed_set({1})))
        assert fam.sample_members()[:2] == [Inner(closed_set({0})),
                                            Inner(closed_set({0}))]

    def test_lifted_explicit_family_wraps_each_member(self, lifted_punctured):
        fam = lifted_punctured.waybelow_family(Inner(closed_set({1, 2})))
        assert fam.members == (Inner(closed_set({1, 2})),)
        assert fam.supremum == Inner(closed_set({1, 2}))
        assert fam.label == "natural-part"

    @pytest.mark.parametrize("build,wrap", [
        (lambda: lift(omega_plus_one()), Inner),
        (lambda: disjoint_sum(finite_named("chain_2"), omega_plus_one()),
         Right)], ids=["lift", "sum"])
    def test_a_large_natural_family_is_wrapped_unlisted(self, build, wrap):
        """ω+1 holds the family of n as range(n + 1); its lift or sum wraps
        that range as a view, building no member up front."""
        C = make_catalog(build())
        n = 10 ** 6
        tracemalloc.start()
        try:
            fam = C.waybelow_family(wrap(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(fam.members) == n + 1
        assert fam.members[0] == wrap(0) and fam.members[-1] == wrap(n)
        assert fam.supremum == wrap(n)
        assert peak < 64 * 1024
        small = C.waybelow_family(wrap(2)).members
        listed = (wrap(0), wrap(1), wrap(2))
        assert small == listed and listed == small
        assert hash(small) == hash(listed) and repr(small) == repr(listed)
        assert small[1:] == listed[1:]

    def test_a_wrapped_family_lists_its_members_once(self):
        """The bank laws read each explicit family of a lift or sum several
        times; its wrapped members are listed on the first read and kept,
        so every law holds the same wrap objects."""
        C = make_catalog(lift(disjoint_sum(finite_named("chain_3"),
                                           omega_plus_one())))
        explicit = [fam for fam in C.family_bank()
                    if isinstance(fam, ExplicitFamily)]
        assert explicit
        for fam in explicit:
            listed = fam.sample_members()
            assert listed is fam.sample_members()
            assert listed == list(fam.members)

    def test_lifted_bank_labels(self, lifted_punctured):
        labels = [f.label for f in lifted_punctured.family_bank()]
        assert labels[0] == "bottom-singleton"
        assert "initial-segments" in labels
        assert "lifted:three-chain" in labels
        assert labels[-1] == "bottom-and-anchor"

    @pytest.mark.parametrize("name", ["chain_3", "diamond", "antichain_2"])
    def test_finite_bank_labels_name_their_elements(self, name):
        F = make_catalog(finite_named(name))
        L = make_catalog(lift(finite_named(name)))

        def names(members):
            return "{" + ", ".join(map(F.format_element, members)) + "}"

        for fam in F.family_bank():
            assert fam.label == names(fam.members)
        bank = L.family_bank()
        assert bank[0].label == "bottom-singleton"
        assert [fam.label for fam in bank[1:-1]] == [
            "lifted:" + names(fam.members) for fam in F.family_bank()]
        assert bank[-1].label == "bottom-and-anchor"

    def test_summed_chain_is_certified_on_its_side_only(self):
        S = make_catalog(disjoint_sum(punctured_closed_sets(),
                                      punctured_closed_sets()))
        fam = S.waybelow_family(Right(EVENS))
        assert fam.supremum == fam.kernel_image_sup == Right(EVENS)
        assert fam.member_dominates(Right(closed_set({2})))
        assert not fam.member_dominates(Left(closed_set({2})))
        left_bank = [f for f in S.family_bank()
                     if isinstance(f.supremum, Left)]
        assert len(left_bank) == len(S.left.family_bank())


class TestOneForwardingPath:
    """Lift and sum carry every component hook through ``_Combinator``, so
    each forwarding is written once."""

    FORWARDED = sorted(name for name, value in vars(_Combinator).items()
                       if callable(value) and not name.startswith("__"))

    def test_the_base_forwards_the_carrier_hooks(self):
        assert {"contains", "elements", "truncation", "compact_below",
                "continuity_counterexample", "inf_instances",
                "retract_rules", "format_element", "parse_element",
                "_kernel_value", "_wrap_family",
                "order_codes", "leq", "waybelow", "finite_sup", "finite_inf",
                "waybelow_family", "_same_side"} <= set(self.FORWARDED)

    @pytest.mark.parametrize("cls", [LiftPresentation,
                                     DisjointSumPresentation],
                             ids=lambda cls: cls.kind)
    def test_no_combinator_forwards_a_hook_itself(self, cls):
        assert set(vars(cls)).isdisjoint(self.FORWARDED)

    def test_flags_combine_over_the_parts(self):
        # continuous exactly when every part is; else a part's witness
        omega = make_catalog(omega_plus_one())
        closed = make_catalog(closed_sets())
        assert DisjointSumPresentation(
            omega, omega).continuity_counterexample() is None
        assert DisjointSumPresentation(
            omega, closed).continuity_counterexample() == Right(INF_POINT)
        assert DisjointSumPresentation(
            closed, omega).continuity_counterexample() == Left(INF_POINT)
        assert LiftPresentation(omega).continuity_counterexample() is None
        assert LiftPresentation(
            closed).continuity_counterexample() == Inner(INF_POINT)
        assert LiftPresentation(closed).name == "lift(closed_sets)"


class TestCarrierInvariants:
    """What the checks take for granted of every carrier, so that each of
    them decides: an approximable element among the interesting ones, and a
    stated continuity counterexample that refutes continuity where named."""

    CARRIERS = standard_roster() + [make_catalog(spec) for spec in NESTED]

    @pytest.mark.parametrize("P", CARRIERS, ids=lambda P: P.name)
    def test_an_interesting_element_is_approximable(self, P):
        assert any(is_approximable(P, x) for x in P.interesting_elements())

    @pytest.mark.parametrize("P", CARRIERS, ids=lambda P: P.name)
    def test_a_named_counterexample_refutes_continuity(self, P):
        ce = P.continuity_counterexample()
        if ce is not None:
            assert _continuity_failure(P, ce)


class TestKernelValue:
    """``kernel_value`` is the declared supremum of ``waybelow_family``, in
    closed form on the closed sets and through the one combinator rule on
    lifts and sums, and it is memoized per presentation."""

    CARRIERS = TestCarrierInvariants.CARRIERS

    @pytest.mark.parametrize("P", CARRIERS, ids=lambda P: P.name)
    def test_agrees_with_the_family_supremum(self, P):
        pool = P.interesting_elements() + P.sample_elements(
            random.Random(5), 120)
        for x in pool:
            fam = P.waybelow_family(x)
            expected = None if fam is None else fam.supremum
            assert P.kernel_value(x) == expected, P.format_element(x)

    def test_a_second_call_reads_the_memo(self):
        calls = []

        class Counting(OmegaPlusOnePresentation):
            def waybelow_family(self, x):
                calls.append(x)
                return super().waybelow_family(x)

        P = Counting()
        L = LiftPresentation(P)
        assert P.kernel_value(OMEGA) is OMEGA
        assert P.kernel_value(OMEGA) is OMEGA
        assert L.kernel_value(Inner(3)) == Inner(3)
        assert L.kernel_value(Inner(3)) == Inner(3)
        assert calls == [OMEGA, 3]
        assert Counting().kernel_value(OMEGA) is OMEGA
        assert calls == [OMEGA, 3, OMEGA]  # the memo is per presentation

    def test_a_double_that_overrides_only_the_family_keeps_its_kernel(self):
        P = corrupt_omega(families={3: ExplicitFamily((0, 1, 2), 2)})
        assert P.kernel_value(3) == 2
        assert kernel_of(P, 3) == 2
        assert not in_retract(P, 3)
        assert LiftPresentation(P).kernel_value(Inner(3)) == Inner(2)
        assert _continuity_failure(P, 3) == "sup of approximants = 2 != 3"

    def test_a_component_without_approximants(self, punctured):
        assert punctured.kernel_value(INF_POINT) is None
        assert LiftPresentation(punctured).kernel_value(Inner(INF_POINT)) \
            is BOTTOM
        assert DisjointSumPresentation(punctured, punctured).kernel_value(
            Left(INF_POINT)) is None


def _deep_lift():
    spec = finite_named("chain_2")
    for _ in range(MAX_DOCUMENT_DEPTH):
        spec = lift(spec)
    return make_catalog(spec)


def _perfbench_kinds():
    return [cli.load_poset(str(path))
            for path in sorted((ROOT / "perfbench" / "kinds").glob("*.json"))]


class TestOrderCodes:
    """``order_codes`` decides the order of a list of elements by bit
    inclusion: each implementation (the pairwise default, the closed form
    of the closed sets, the combinator rule) gives the order of the
    pairwise default."""

    CARRIERS = (TestCarrierInvariants.CARRIERS + _perfbench_kinds()
                + [_deep_lift()])

    @staticmethod
    def relation(codes):
        return {(i, j) for i, a in enumerate(codes)
                for j, b in enumerate(codes) if not a & ~b}

    def assert_decides_the_order(self, P, xs):
        codes = P.order_codes(xs)
        assert len(codes) == len(xs)
        assert self.relation(codes) == self.relation(
            PosetPresentation.order_codes(P, xs))
        assert self.relation(codes) == {
            (i, j) for i, x in enumerate(xs) for j, y in enumerate(xs)
            if P.leq(x, y)}

    @pytest.mark.parametrize("P", CARRIERS, ids=lambda P: P.name[:60])
    def test_on_the_sample_pools(self, P):
        self.assert_decides_the_order(
            P, scope_pool(P, sampled(11, 100))[0])

    @given(st.lists(closed_reps(), max_size=10))
    def test_on_closed_sets(self, xs):
        for P in (make_catalog(closed_sets()),
                  make_catalog(punctured_closed_sets())):
            ys = [x for x in xs if P.contains(x)]
            self.assert_decides_the_order(P, ys)
            self.assert_decides_the_order(LiftPresentation(P),
                                          [BOTTOM] + [Inner(y) for y in ys])

    def test_the_closed_forms(self, closed):
        # window 2 (threshold 1 plus period 1); bit 2 is infinity
        assert closed.order_codes([INF_POINT, EMPTY, closed_set({0})]) == \
            [0b100, 0b000, 0b001]
        # the lift's bottom is 0, the inner codes sit above the part bit
        assert LiftPresentation(closed).order_codes(
            [BOTTOM, Inner(EMPTY), Inner(INF_POINT)]) == [0, 0b1, 0b101]
        assert DisjointSumPresentation(closed, closed).order_codes(
            [Left(EMPTY), Right(EMPTY), Right(INF_POINT)]) == \
            [0b01, 0b10, 0b1010]

    def test_codes_above_the_window_cap_fall_back_to_the_default(
            self, closed, monkeypatch):
        xs = [EVENS, periodic_set({1}, 3), closed_set({0, 7}, True),
              INF_POINT]
        window = 8 + 6  # the largest threshold, plus the lcm of 2 and 3
        calls = []
        default = PosetPresentation.order_codes

        def spy(self, ys):
            calls.append(len(ys))
            return default(self, ys)

        monkeypatch.setattr(PosetPresentation, "order_codes", spy)
        for cap, fallbacks in ((window * len(xs), []),
                               (window * len(xs) - 1, [len(xs)])):
            monkeypatch.setattr(closedsets, "MAX_WINDOW", cap)
            calls.clear()
            self.assert_decides_the_order(closed, xs)
            # the spy also serves the pairwise reference once
            assert calls == fallbacks + [len(xs)]


class TestSampling:
    @pytest.mark.parametrize("P", standard_roster(), ids=lambda P: P.name)
    def test_samples_are_carrier_elements(self, P):
        rng = random.Random(17)
        for x in P.sample_elements(rng, 60):
            assert P.contains(x)
        for x in P.interesting_elements():
            assert P.contains(x)

    def test_punctured_never_samples_empty(self, punctured):
        rng = random.Random(23)
        for x in punctured.sample_elements(rng, 200):
            assert punctured.contains(x)
            assert x != EMPTY

    @pytest.mark.parametrize("P", standard_roster(), ids=lambda P: P.name)
    def test_sampling_is_deterministic(self, P):
        one = P.sample_elements(random.Random(9), 30)
        two = P.sample_elements(random.Random(9), 30)
        assert one == two

    @pytest.mark.parametrize("spec", [closed_sets(), punctured_closed_sets()],
                             ids=["closed_sets", "punctured_closed_sets"])
    def test_closed_set_samples_match_the_literal_built_sampler(self, spec):
        """The closed-set sampler builds each set from bits; it makes the
        rng calls of the sampler that built them through the validating
        constructors, so it draws the same sets and leaves the same
        state."""
        P = make_catalog(spec)
        for seed in range(60):
            for count in (1, 2, 7, 50):
                rng, ref = random.Random(seed), random.Random(seed)
                assert P.sample_elements(rng, count) == \
                    reference_closed_samples(P, ref, count)
                assert rng.getstate() == ref.getstate()


def reference_closed_samples(P, rng, count):
    """``ClosedSetsPresentation.sample_elements`` through ``closed_set``
    and ``periodic_set``, as it was before it built sets from bits."""
    out = []
    pool = P.interesting_elements()
    for _ in range(count):
        style = rng.random()
        if style < 0.45:
            size = rng.randint(0, 4)
            nats = frozenset(rng.randrange(12) for _ in range(size))
            rep = closed_set(nats, infinity=rng.random() < 0.35)
        elif style < 0.85:
            p = rng.randint(1, 4)
            rs = frozenset(q for q in range(p) if rng.random() < 0.5)
            if not rs:
                rs = frozenset({rng.randrange(p)})
            t = rng.randint(0, 4)
            pref = frozenset(m for m in range(t) if rng.random() < 0.4)
            rep = periodic_set(rs, p, prefix=pref, threshold=t)
        else:
            rep = rng.choice(pool)
        if P.punctured and closedsets.is_empty(rep):
            rep = closed_set({rng.randrange(8)})
        out.append(rep)
    return out


# The order hooks lift and sum kept one copy each of before ``_Combinator``
# wrote them once; a combinator component is asked through these as well,
# so the reference never reaches the shared rule.


def _reference(P, name):
    """The reference hook ``name`` of a lift or sum, else P's own method."""
    if isinstance(P, (LiftPresentation, DisjointSumPresentation)):
        return partial(REFERENCE_HOOKS[name], P)
    return getattr(P, name)


def _reference_sum_part(P, x):
    return (P.left, Left) if isinstance(x, Left) else (P.right, Right)


def _reference_same_side(P, xs):
    for comp, wrap in ((P.left, Left), (P.right, Right)):
        if all(isinstance(x, wrap) for x in xs):
            return comp, tuple(x.value for x in xs), wrap
    return None


def reference_leq(P, x, y):
    if isinstance(P, LiftPresentation):
        if x is BOTTOM:
            return True
        if y is BOTTOM:
            return False
        return _reference(P.inner, "leq")(x.value, y.value)
    if type(x) is not type(y):
        return False
    comp, _ = _reference_sum_part(P, x)
    return _reference(comp, "leq")(x.value, y.value)


def reference_waybelow(P, x, y):
    if isinstance(P, LiftPresentation):
        if x is BOTTOM:
            return True
        if y is BOTTOM:
            return False
        return _reference(P.inner, "waybelow")(x.value, y.value)
    if type(x) is not type(y):
        return False
    comp, _ = _reference_sum_part(P, x)
    return _reference(comp, "waybelow")(x.value, y.value)


def reference_finite_sup(P, xs):
    if isinstance(P, LiftPresentation):
        proper = [x.value for x in xs if x is not BOTTOM]
        if not proper:
            return BOTTOM
        s = _reference(P.inner, "finite_sup")(tuple(proper))
        return Inner(s) if is_element(s) else s
    side = _reference_same_side(P, xs)
    if side is None:
        return NO_SUPREMUM
    comp, vals, wrap = side
    s = _reference(comp, "finite_sup")(vals)
    return wrap(s) if is_element(s) else s


def reference_finite_inf(P, xs):
    if isinstance(P, LiftPresentation):
        if any(x is BOTTOM for x in xs):
            return BOTTOM
        vals = tuple(x.value for x in xs)
        g = _reference(P.inner, "finite_inf")(vals)
        if is_element(g):
            return Inner(g)
        return BOTTOM if g is NO_LOWER_BOUND else g
    side = _reference_same_side(P, xs)
    if side is None:
        return NO_LOWER_BOUND
    comp, vals, wrap = side
    g = _reference(comp, "finite_inf")(vals)
    return wrap(g) if is_element(g) else g


def reference_waybelow_family(P, x):
    if isinstance(P, LiftPresentation):
        if x is BOTTOM:
            return ExplicitFamily((BOTTOM,), BOTTOM, label="bottom")
        fam = _reference(P.inner, "waybelow_family")(x.value)
        if fam is None:
            return ExplicitFamily((BOTTOM,), BOTTOM, label="bottom-only")
        return P._wrap_family(fam, Inner)
    comp, wrap = _reference_sum_part(P, x)
    fam = _reference(comp, "waybelow_family")(x.value)
    return None if fam is None else P._wrap_family(fam, wrap)


REFERENCE_HOOKS = {
    "leq": reference_leq, "waybelow": reference_waybelow,
    "finite_sup": reference_finite_sup, "finite_inf": reference_finite_inf,
    "waybelow_family": reference_waybelow_family,
}


def _family_key(fam):
    if fam is None:
        return None
    return (type(fam), tuple(fam.sample_members()), fam.supremum, fam.label)


class TestCombinatorOrderReference:
    """``_Combinator`` writes the order of lift and sum once; the per-class
    hooks they kept before, above, must answer the same on every pair and
    on 2- and 3-element tuples of sample pools."""

    # The bowtie's pairs {c, d} have lower bounds but no infimum.
    CARRIERS = ([P for P in standard_roster() if isinstance(P, _Combinator)]
                + [make_catalog(spec) for spec in NESTED] + [_deep_lift()]
                + [make_catalog(disjoint_sum(BOWTIE, lift(BOWTIE)))])

    @staticmethod
    def pool(P, seed):
        return P.interesting_elements() + scope_pool(
            P, sampled(seed, 60))[0]

    @pytest.mark.parametrize("P", CARRIERS, ids=lambda P: P.name[:60])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_the_one_rule_answers_as_the_per_class_hooks(self, P, seed):
        xs = self.pool(P, seed)
        for x in xs:
            assert _family_key(P.waybelow_family(x)) == _family_key(
                reference_waybelow_family(P, x)), P.format_element(x)
        tuples = [(x, y) for x in xs for y in xs]
        tuples += [tuple(random.Random(seed + i).sample(xs, 3))
                   for i in range(300)]
        for t in tuples:
            if len(t) == 2:
                assert P.leq(*t) is reference_leq(P, *t)
                assert P.waybelow(*t) is reference_waybelow(P, *t)
            assert P.finite_sup(t) == reference_finite_sup(P, t)
            assert P.finite_inf(t) == reference_finite_inf(P, t)

    def test_the_pools_reach_every_case_of_the_rule(self):
        """Bottom, cross-part pairs, a punctured component with an element
        without approximants and a pair without a lower bound, and lower
        bounds without an infimum."""
        lifted = make_catalog(lift(punctured_closed_sets()))
        summed = make_catalog(disjoint_sum(punctured_closed_sets(),
                                           closed_sets()))
        bowties = make_catalog(disjoint_sum(BOWTIE, lift(BOWTIE)))
        c, d = (bowties.parse_element({"right": {"inner": v}})
                for v in "cd")
        assert {c, d} <= set(self.pool(bowties, 0))
        assert reference_finite_inf(bowties, (c, d)) is NO_INFIMUM
        xs = self.pool(lifted, 0)
        assert BOTTOM in xs and Inner(INF_POINT) in xs
        assert reference_waybelow_family(lifted, Inner(INF_POINT)).label \
            == "bottom-only"
        zero, one = Inner(closed_set({0})), Inner(closed_set({1}))
        assert zero in xs and one in xs
        assert reference_finite_inf(lifted, (zero, one)) is BOTTOM
        ys = self.pool(summed, 0)
        assert Left(INF_POINT) in ys and Right(EMPTY) in ys
        assert reference_waybelow_family(summed, Left(INF_POINT)) is None
        assert not reference_leq(summed, Right(EMPTY), Left(INF_POINT))
        assert reference_finite_inf(
            summed, (Left(closed_set({0})), Left(closed_set({1})))) \
            is NO_LOWER_BOUND


def brute_force_inf(P, xs):
    """The infimum of ``xs`` by a scan of ``elements()`` with ``leq``."""
    elems = P.elements()
    lower = [z for z in elems if all(P.leq(z, x) for x in xs)]
    if not lower:
        return NO_LOWER_BOUND
    greatest = [g for g in lower if all(P.leq(z, g) for z in lower)]
    return greatest[0] if greatest else NO_INFIMUM


class TestThreeInfimumOutcomes:
    """``finite_inf`` answers the infimum, ``NO_INFIMUM`` (lower bounds but
    no greatest one) or ``NO_LOWER_BOUND`` (none at all), as a scan of a
    finite carrier's elements finds them, on every tuple of 1 to 3
    elements."""

    CARRIERS = ([make_catalog(spec) for spec in (
        BOWTIE, finite_named("antichain_3"), finite_named("fence_4"),
        finite_named("n5"), lift(F2), lift(lift(lift(F2))),
        lift(disjoint_sum(finite_named("chain_2"), finite_named("chain_2"))),
        disjoint_sum(BOWTIE, lift(BOWTIE)))]
        + [random_presentation(seed) for seed in range(30)])

    @pytest.mark.parametrize("P", CARRIERS,
                             ids=lambda P: f"{P.name}-{len(P.elements())}")
    def test_finite_inf_against_the_scan(self, P):
        elems = P.elements()
        for k in (1, 2, 3):
            for xs in product(elems, repeat=k):
                got, want = P.finite_inf(xs), brute_force_inf(P, xs)
                same = got == want if is_element(want) else got is want
                assert same, [P.format_element(x) for x in xs]

    def test_the_bowtie_reaches_every_outcome(self):
        P = make_catalog(BOWTIE)
        a, b, c, d = (P.parse_element(v) for v in "abcd")
        assert P.finite_inf((a, b)) is NO_LOWER_BOUND
        assert P.finite_inf((c, d)) is NO_INFIMUM
        assert P.finite_inf((c, a)) == a
