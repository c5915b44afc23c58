"""The definitional brute force, its agreement with the certified rules,
and the soundness boundaries of truncation and bank refutation."""

import random
import time

import pytest

from posetkernel import (BOTTOM, OMEGA, FinitePoset, Inner,
                         build_finite_poset, closed_set, make_catalog)
from posetkernel.catalog import finite_named, lift, punctured_closed_sets
from posetkernel.closedsets import FULL, INF_POINT
from posetkernel.core import _bits, induced_finite_poset
from posetkernel.errors import (NotApproximable, PosetError, ScopeUnsupported,
                               SizeLimit)
from posetkernel.kernel import kernel_of, retract_member
from posetkernel.oracle import (bank_refute_waybelow, continuity_bruteforce,
                                continuous_subposets_bruteforce,
                                kernel_bruteforce,
                                largest_continuous_subposet_bruteforce,
                                waybelow_bruteforce)
from posetkernel.reports import EXHAUSTIVE, Status, refuted, verified

from conftest import random_presentation

# The reference subposet scan below tries every subset against every
# directed subset in Python, so it runs up to 10 elements only.
REFERENCE_SUBSETS_CAP = 10


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
        fp = build_finite_poset([str(i) for i in range(17)], [])
        with pytest.raises(SizeLimit):
            continuous_subposets_bruteforce(fp)

    def test_every_oracle_stops_before_allocating_planes(self):
        # 2^34-bit subset planes would take 2 GiB each: every public
        # function must reach the cap in directed_planes first
        calls = (lambda fp: waybelow_bruteforce(fp, 0, 1),
                 lambda fp: kernel_bruteforce(fp, 0), continuity_bruteforce,
                 continuous_subposets_bruteforce,
                 largest_continuous_subposet_bruteforce)
        start = time.perf_counter()
        for call in calls:
            fp = FinitePoset([str(i) for i in range(34)],
                             [1 << i for i in range(34)])
            with pytest.raises(SizeLimit, match="capped at 16 elements, "
                                                "poset has 34"):
                call(fp)
        assert time.perf_counter() - start < 0.5


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
        assert len(closed.truncation(1)) == 8
        assert len(closed.truncation(2)) == 16
        assert len(punctured.truncation(1)) == 7

    def test_order_embedding(self, closed):
        elems = closed.truncation(2)
        fp = induced_finite_poset(closed, elems)
        for i, x in enumerate(elems):
            for j, y in enumerate(elems):
                assert fp.leq(i, j) == closed.leq(x, y)

    def test_one_sided_transfer(self, closed):
        # parent way-below transfers INTO the truncation's brute force
        elems = closed.truncation(2)
        fp = induced_finite_poset(closed, elems)
        for x in elems:
            for y in elems:
                if closed.waybelow(x, y):
                    assert waybelow_bruteforce(fp, elems.index(x),
                                               elems.index(y))

    def test_known_nontransfer_at_inf(self, closed):
        # the truncation is finite, so {inf} is compact there, while in the
        # full lattice the initial-segment chain kills it
        elems = closed.truncation(1)
        i = elems.index(INF_POINT)
        assert waybelow_bruteforce(induced_finite_poset(closed, elems), i, i)
        assert not closed.waybelow(INF_POINT, INF_POINT)

    def test_omega_truncation(self, omega):
        elems = omega.truncation(5)
        assert len(elems) == 7
        assert elems[-1] is OMEGA

    def test_size_limits(self, closed, omega):
        with pytest.raises(SizeLimit):
            closed.truncation(7)
        with pytest.raises(SizeLimit):
            omega.truncation(15)

    def test_lift_forwards_the_inner_truncation(self, lifted_punctured,
                                                punctured):
        elems = lifted_punctured.truncation(2)
        inner = punctured.truncation(2)
        assert elems == [BOTTOM] + [Inner(e) for e in inner]
        fp = induced_finite_poset(lifted_punctured, elems)
        for i, x in enumerate(elems):
            for j, y in enumerate(elems):
                assert fp.leq(i, j) == lifted_punctured.leq(x, y)
        assert fp.leq(0, len(elems) - 1)

    def test_unsupported_kind(self, diamond):
        # a finite carrier has no cut; export-dot names its kind
        with pytest.raises(ScopeUnsupported,
                           match="^no truncation for kind 'finite'$"):
            diamond.truncation(2)


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
        # the induced poset of a finite carrier's elements is its order
        P = make_catalog(finite_named("m3"))
        elems = P.elements()
        fp = induced_finite_poset(P, elems)
        assert fp.names == tuple(map(P.format_element, elems))
        for x in elems:
            for y in elems:
                assert fp.leq(x, y) == P.leq(x, y)

    def test_as_finite_poset_on_combinators(self):
        spec = lift(punctured_closed_sets())
        P = make_catalog(spec)
        assert not P.is_finite_kind
        from posetkernel.catalog import disjoint_sum, finite_named as fn

        S = make_catalog(disjoint_sum(fn("chain_2"), fn("antichain_2")))
        fp = induced_finite_poset(S, S.elements())
        assert fp.n == 4


# ---------------------------------------------------------------------------
# The oracle against a pairwise reference: each directed subset found by
# checking its member pairs one by one, each way-below pair decided by
# scanning the directed subsets that refute it.


def reference_directed(fp):
    out = []
    for mask in range(1, 1 << fp.n):
        members = list(_bits(mask))
        if all(mask & fp.up[i] & fp.up[j] for i in members for j in members):
            top = next(i for i in members if mask & ~fp.down[i] == 0)
            out.append((mask, top))
    return out


def reference_refuters(fp, directed):
    """refs[x][y]: the directed subsets whose maximum dominates y and that
    contain no element above x."""
    refs = [[[] for _ in range(fp.n)] for _ in range(fp.n)]
    for mask, top in directed:
        for y in range(fp.n):
            if fp.leq(y, top):
                for x in range(fp.n):
                    if mask & fp.up[x] == 0:
                        refs[x][y].append(mask)
    return refs


def reference_approximants(fp, refs, x):
    return sum(1 << v for v in range(fp.n) if not refs[v][x])


def reference_kernel(fp, refs, x):
    mask = reference_approximants(fp, refs, x)
    if not mask:
        return "no approximants"
    u = fp.lub_of_mask(mask)
    return "no least upper bound" if u is None else u


def reference_continuity(fp, refs):
    for x in range(fp.n):
        mask = reference_approximants(fp, refs, x)
        if not mask:
            return refuted("continuous", fp.names[x], "no approximants",
                           EXHAUSTIVE)
        u = fp.lub_of_mask(mask)
        if u != x:
            found = "none" if u is None else fp.names[u]
            return refuted("continuous", fp.names[x],
                           f"sup of approximants = {found}", EXHAUSTIVE)
    return verified("continuous", EXHAUSTIVE)


def reference_subposets(fp, refs):
    passing = []
    for R in range(1 << fp.n):
        members = list(_bits(R))

        def inside(x, y):
            return not any(S & ~R == 0 for S in refs[x][y])

        if any(inside(x, y) != (not refs[x][y])
               for x in members for y in members):
            continue
        for x in members:
            approx = [y for y in members if inside(y, x)]
            ubs = R
            for w in approx:
                ubs &= fp.up[w]
            least = next((u for u in _bits(ubs) if ubs & ~fp.up[u] == 0),
                         None)
            if not approx or least != x:
                break
        else:
            passing.append(R)
    return passing


def shuffled_poset(rng, n, p):
    """A random order whose labels, and so whose indices, are not in a
    linear extension of it."""
    names = [f"e{k}" for k in range(n)]
    order = rng.sample(names, n)
    covers = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)
              if rng.random() < p]
    return build_finite_poset(names, covers)


def kernel_or_error(fp, x):
    try:
        return kernel_bruteforce(fp, x)
    except NotApproximable:
        return "no approximants"
    except PosetError:
        return "no least upper bound"


def assert_oracle_matches_reference(fp, directed):
    refs = reference_refuters(fp, directed)
    n = fp.n
    assert fp.directed_subset_masks == directed
    assert [[waybelow_bruteforce(fp, x, y) for y in range(n)]
            for x in range(n)] == [[not refs[x][y] for y in range(n)]
                                   for x in range(n)]
    assert [kernel_or_error(fp, x) for x in range(n)] == \
        [reference_kernel(fp, refs, x) for x in range(n)]
    assert continuity_bruteforce(fp) == reference_continuity(fp, refs)
    if n <= REFERENCE_SUBSETS_CAP:
        assert continuous_subposets_bruteforce(fp) == \
            reference_subposets(fp, refs)


class TestPairwiseReference:
    CASES = [(n, p, seed) for seed, n in enumerate((1, 2, 3, 4, 5, 6, 7, 8,
                                                    8, 9, 10, 11, 12, 12))
             for p in (0.2, 0.5)]

    @pytest.mark.parametrize("n,p,seed", CASES)
    def test_shuffled_random_poset(self, n, p, seed):
        fp = shuffled_poset(random.Random(seed), n, p)
        assert_oracle_matches_reference(fp, reference_directed(fp))
        if n <= REFERENCE_SUBSETS_CAP:
            # an honest finite poset passes as its own full subset, which
            # the finite largest-retract check takes for granted
            assert (1 << n) - 1 in continuous_subposets_bruteforce(fp)

    @pytest.mark.parametrize("n,seed", [
        (n, seed) for n in range(2, REFERENCE_SUBSETS_CAP + 1)
        for seed in range(3)])
    def test_thinned_directed_family(self, n, seed):
        # Way-below, kernel, continuity and the subposet scan are functions
        # of the family of directed subsets.  On an honest finite poset that
        # family makes every answer trivial (way-below is the order, every
        # subset passes), so both sides are also fed the same random part of
        # it, which makes the refuting branches fire.
        rng = random.Random(1000 + seed)
        fp = shuffled_poset(rng, n, 0.4)
        keep = rng.getrandbits(1 << n)
        D, T = FinitePoset(fp.names, fp.up).directed_planes
        fp.__dict__["directed_planes"] = (D & keep, T)
        directed = [(mask, top) for mask, top in reference_directed(fp)
                    if keep >> mask & 1]
        assert_oracle_matches_reference(fp, directed)
