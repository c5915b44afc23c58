"""Catalog presentations: fixtures, banks, combinators, and the standing
invariant that no certified way-below rule is ever refuted by its bank."""

import json
import random

import pytest

from posetkernel import (BOTTOM, NO_INFIMUM, NO_SUPREMUM, OMEGA, Inner, Left,
                         Right, cli, closed_set, least_upper_bound,
                         make_catalog)
from posetkernel.catalog import (DisjointSumPresentation, LiftPresentation,
                                 _Combinator, closed_sets, disjoint_sum,
                                 finite_explicit, finite_named, lift,
                                 named_finite_poset, omega_plus_one,
                                 punctured_closed_sets, random_finite_poset,
                                 spec_to_document, standard_roster)
from posetkernel.closedsets import EMPTY, EVENS, FULL, INF_POINT
from posetkernel.core import _continuity_failure, induced_finite_poset
from posetkernel.errors import SizeLimit, UnknownName
from posetkernel.families import ChainFamily, ExplicitFamily
from posetkernel.kernel import (LAWS, check_approximation_laws,
                                check_scott_continuity, is_approximable)
from posetkernel.oracle import bank_refute_waybelow
from posetkernel.reports import Status


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
        with pytest.raises(SizeLimit):
            named_finite_poset("chain_99")
        with pytest.raises(SizeLimit):
            random_finite_poset(40, 0.2, 0)

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
        # the bank laws of a finite carrier scan every directed subset
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
        # above the subset-scan cap, so every finite scan is skipped with
        # the one reason
        spec = finite_named("chain_2")
        for _ in range(32):
            spec = lift(spec)
        P = make_catalog(spec)
        assert len(P.family_bank()) == 67
        scans = ("cc", "subposet", "scott", "largest-retract", "laws")
        reason = "subset scan capped at 16 elements, poset has 34"
        for law in scans:
            with pytest.raises(SizeLimit, match=f"^{reason}$"):
                LAWS[law](P, None)
        doc = tmp_path / "deep.json"
        doc.write_text(json.dumps(spec_to_document(spec)))
        assert cli.main(["check", str(doc), "--law", "all"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("".join(f"[{law}] SKIPPED reason={reason}\n"
                                      for law in scans))

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

    def test_finite_bank_is_all_directed_subsets(self, diamond):
        from posetkernel.core import is_directed

        bank = diamond.family_bank()
        masks = {frozenset(fam.members) for fam in bank}
        expected = set()
        for mask in range(1, 1 << 4):
            members = [i for i in range(4) if (mask >> i) & 1]
            if all(any(diamond.leq(a, c) and diamond.leq(b, c)
                       for c in members)
                   for a in members for b in members):
                expected.add(frozenset(members))
        assert masks == expected
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
                "_wrap_family"} <= set(self.FORWARDED)

    @pytest.mark.parametrize("cls", [LiftPresentation,
                                     DisjointSumPresentation],
                             ids=lambda cls: cls.kind)
    def test_no_combinator_forwards_a_hook_itself(self, cls):
        assert set(vars(cls)).isdisjoint(self.FORWARDED)

    def test_flags_combine_over_the_parts(self):
        # continuous exactly when every part is
        omega = make_catalog(omega_plus_one())
        closed = make_catalog(closed_sets())
        assert DisjointSumPresentation(omega, omega).certified_continuous \
            is True
        assert DisjointSumPresentation(omega, closed).certified_continuous \
            is False
        assert DisjointSumPresentation(closed, omega).certified_continuous \
            is False
        assert LiftPresentation(omega).certified_continuous is True
        assert LiftPresentation(closed).certified_continuous is False
        assert LiftPresentation(closed).name == "lift(closed_sets)"


class TestCarrierInvariants:
    """What the checks take for granted of every carrier, so that each of
    them decides: an approximable element among the interesting ones, and a
    refuting counterexample exactly on the kinds certified non-continuous."""

    CARRIERS = standard_roster() + [make_catalog(spec) for spec in NESTED]

    @pytest.mark.parametrize("P", CARRIERS, ids=lambda P: P.name)
    def test_an_interesting_element_is_approximable(self, P):
        assert any(is_approximable(P, x) for x in P.interesting_elements())

    @pytest.mark.parametrize("P", CARRIERS, ids=lambda P: P.name)
    def test_a_counterexample_exactly_when_not_certified_continuous(self, P):
        ce = P.continuity_counterexample()
        assert P.certified_continuous is (ce is None)
        if ce is not None:
            assert _continuity_failure(P, ce)


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
