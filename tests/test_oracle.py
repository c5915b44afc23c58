"""The definitional brute force, its agreement with the certified rules,
and the soundness boundaries of truncation and bank refutation."""

import random

import pytest

from posetkernel import OMEGA, build_finite_poset, closed_set, make_catalog
from posetkernel.catalog import finite_named, lift, punctured_closed_sets
from posetkernel.closedsets import FULL, INF_POINT
from posetkernel.errors import ScopeUnsupported, SizeLimit
from posetkernel.kernel import kernel_of, retract_member
from posetkernel.oracle import (as_finite_poset, bank_refute_waybelow,
                                continuity_bruteforce,
                                continuous_subposets_bruteforce,
                                kernel_bruteforce,
                                largest_continuous_subposet_bruteforce,
                                truncate, waybelow_bruteforce)
from posetkernel.reports import Status

from conftest import random_presentation


class TestWaybelowBruteforce:
    def test_diamond_bottom_to_top(self, diamond):
        assert waybelow_bruteforce(diamond.poset, 0, 3)

    def test_two_chain_strictly_above(self):
        fp = build_finite_poset(["0", "1"], [("0", "1")])
        assert not waybelow_bruteforce(fp, 1, 0)

    def test_meta_fact_waybelow_is_leq(self):
        for seed in range(40):
            P = random_presentation(seed)
            fp = P.poset
            for x in range(fp.n):
                for y in range(fp.n):
                    assert waybelow_bruteforce(fp, x, y) == fp.leq(x, y)

    def test_size_limit(self):
        fp = build_finite_poset([str(i) for i in range(17)], [])
        with pytest.raises(SizeLimit):
            waybelow_bruteforce(fp, 0, 0)

    def test_every_finite_directed_subset_has_its_max(self, diamond):
        for mask, top in diamond.poset.directed_subset_masks:
            members = [i for i in range(4) if (mask >> i) & 1]
            assert top in members
            assert all(diamond.poset.leq(m, top) for m in members)


class TestContinuityBruteforce:
    @pytest.mark.parametrize("name", ("diamond", "m3", "n5", "chain_4",
                                      "fence_4", "antichain_3", "boolean_3"))
    def test_every_named_finite_poset_is_continuous(self, name):
        fp = make_catalog(finite_named(name)).poset
        assert continuity_bruteforce(fp).status is Status.VERIFIED

    def test_random_posets_are_continuous(self):
        for seed in range(25):
            fp = random_presentation(seed).poset
            assert continuity_bruteforce(fp).status is Status.VERIFIED


class TestKernelBruteforce:
    def test_diamond_top(self, diamond):
        assert kernel_bruteforce(diamond.poset, 3) == 3

    def test_chain_top(self):
        fp = make_catalog(finite_named("chain_3")).poset
        assert kernel_bruteforce(fp, 2) == 2

    def test_antichain_elements_are_compact(self):
        fp = make_catalog(finite_named("antichain_2")).poset
        assert kernel_bruteforce(fp, 0) == 0


class TestLargestSubposet:
    @pytest.mark.parametrize("name,size", (("diamond", 4), ("n5", 5),
                                           ("chain_4", 4)))
    def test_named(self, name, size):
        fp = make_catalog(finite_named(name)).poset
        assert largest_continuous_subposet_bruteforce(fp) == \
            frozenset(range(size))

    def test_union_is_the_pairwise_maximum(self):
        # the largest one is taken as the union of the passing subsets;
        # hold it against the definition: the one passing subset that no
        # other passing subset strictly contains
        for seed in range(30):
            fp = random_presentation(seed, n=seed % 7 + 1).poset
            passing = continuous_subposets_bruteforce(fp)
            maximal = [R for R in passing
                       if not any(S != R and S & R == R for S in passing)]
            assert len(maximal) == 1
            assert largest_continuous_subposet_bruteforce(fp) == \
                frozenset(i for i in range(fp.n) if maximal[0] >> i & 1)

    def test_every_subset_of_a_finite_poset_passes(self, diamond):
        # finite posets: every subset is a continuous subposet
        assert len(continuous_subposets_bruteforce(diamond.poset)) == 16

    def test_size_limit(self):
        fp = build_finite_poset([str(i) for i in range(11)], [])
        with pytest.raises(SizeLimit):
            continuous_subposets_bruteforce(fp)


class TestBankRefutation:
    def test_omega_top_not_waybelow_itself(self, omega):
        report = bank_refute_waybelow(omega, OMEGA, OMEGA)
        assert report.status is Status.REFUTED
        assert "ascending-naturals" in report.reason

    def test_inf_point_not_waybelow_full(self, closed):
        report = bank_refute_waybelow(closed, INF_POINT, FULL)
        assert report.status is Status.REFUTED
        assert "initial-segments" in report.reason

    def test_compact_pair_unrefuted(self, closed):
        report = bank_refute_waybelow(closed, closed_set({2}),
                                      closed_set({2}, True))
        assert report.status is Status.UNREFUTED
        assert report.samples > 0

    def test_rejects_finite_kinds(self, diamond):
        with pytest.raises(ScopeUnsupported):
            bank_refute_waybelow(diamond, 0, 0)

    def test_refutations_always_sound(self, closed, punctured, omega):
        # whenever the bank refutes x << y, the certified rule agrees
        rng = random.Random(0xC0FFEE)
        for P in (closed, punctured, omega):
            pool = P.interesting_elements() + P.sample_elements(rng, 40)
            for _ in range(200):
                x, y = rng.choice(pool), rng.choice(pool)
                report = bank_refute_waybelow(P, x, y)
                if report.status is Status.REFUTED:
                    assert not P.waybelow(x, y), P.name


class TestTruncation:
    def test_closed_sets_sizes(self, closed, punctured):
        assert len(truncate(closed, 1).to_parent) == 8
        assert len(truncate(closed, 2).to_parent) == 16
        assert len(truncate(punctured, 1).to_parent) == 7

    def test_order_embedding(self, closed):
        trunc = truncate(closed, 2)
        for i, x in enumerate(trunc.to_parent):
            for j, y in enumerate(trunc.to_parent):
                assert trunc.poset.leq(i, j) == closed.leq(x, y)

    def test_one_sided_transfer(self, closed):
        # parent way-below transfers INTO the truncation's brute force
        trunc = truncate(closed, 2)
        for x in trunc.to_parent:
            for y in trunc.to_parent:
                if closed.waybelow(x, y):
                    assert waybelow_bruteforce(
                        trunc.poset, trunc.index_of(x), trunc.index_of(y))

    def test_known_nontransfer_at_inf(self, closed):
        # the truncation is finite, so {inf} is compact there, while in the
        # full lattice the initial-segment chain kills it
        trunc = truncate(closed, 1)
        i = trunc.index_of(INF_POINT)
        assert waybelow_bruteforce(trunc.poset, i, i)
        assert not closed.waybelow(INF_POINT, INF_POINT)

    def test_omega_truncation(self, omega):
        trunc = truncate(omega, 5)
        assert len(trunc.to_parent) == 7
        assert trunc.to_parent[-1] is OMEGA

    def test_size_limits(self, closed, omega):
        with pytest.raises(SizeLimit):
            truncate(closed, 7)
        with pytest.raises(SizeLimit):
            truncate(omega, 15)

    def test_unsupported_kind(self, lifted_punctured):
        with pytest.raises(ScopeUnsupported):
            truncate(lifted_punctured, 2)


class TestAgreementSweep:
    def test_certified_against_bruteforce(self):
        # the heart of the differential suite: certified rules vs the
        # definitional oracle on finite carriers
        pairs = 0
        for seed in range(60):
            P = random_presentation(seed)
            fp = P.poset
            for x in range(fp.n):
                for y in range(fp.n):
                    assert P.waybelow(x, y) == waybelow_bruteforce(fp, x, y)
                    pairs += 1
                assert kernel_of(P, x) == kernel_bruteforce(fp, x)
            member = retract_member(P)
            assert frozenset(x for x in P.elements() if member(x)) == \
                largest_continuous_subposet_bruteforce(fp)
        assert pairs > 500

    def test_as_finite_poset_roundtrip(self):
        P = make_catalog(finite_named("m3"))
        fp, elems = as_finite_poset(P)
        assert elems == P.elements()
        for x in elems:
            for y in elems:
                assert fp.leq(x, y) == P.leq(x, y)

    def test_as_finite_poset_on_combinators(self):
        spec = lift(punctured_closed_sets())
        P = make_catalog(spec)
        assert not P.is_finite_kind
        from posetkernel.catalog import disjoint_sum, finite_named as fn

        S = make_catalog(disjoint_sum(fn("chain_2"), fn("antichain_2")))
        fp, elems = as_finite_poset(S)
        assert fp.n == 4
