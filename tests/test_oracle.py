"""The definitional brute force, its agreement with the certified rules,
and the soundness boundaries of truncation and bank refutation."""

import random
import time
import tracemalloc

import pytest

from posetkernel import (BOTTOM, NO_SUPREMUM, OMEGA, FinitePoset, Inner,
                         build_finite_poset, closed_set, make_catalog)
from posetkernel.catalog import (MAX_ELEMENTS, NAMED_FINITE_ROSTER,
                                 finite_named, lift, punctured_closed_sets)
from posetkernel.closedsets import FULL, INF_POINT
from posetkernel.core import (FINITE_CAP, _bits, _extremum, _none_of,
                              _plane_members, _subset_planes,
                              induced_finite_poset)
from posetkernel.errors import (NotApproximable, PosetError, ScopeUnsupported,
                               SizeLimit)
from posetkernel.families import ExplicitFamily
from posetkernel.kernel import kernel_of, retract_member
from posetkernel import core, oracle
from posetkernel.oracle import (_approximants, _avoid, _singletons, _suprema,
                                bank_refute_waybelow,
                                continuity_bruteforce,
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
        for mask in diamond.poset.directed_subset_masks:
            top = _extremum(diamond.poset.down, mask)
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

    @pytest.mark.parametrize("seed", range(30))
    def test_every_subset_of_a_finite_poset_passes(self, seed):
        # finite posets: every subset is a continuous subposet, which the
        # largest-retract law takes as given
        n = 1 + seed % REFERENCE_SUBSETS_CAP
        fp = random_presentation(seed, n=n).poset
        assert continuous_subposets_bruteforce(fp) == list(range(1 << fp.n))

    @pytest.mark.parametrize("seed", range(30))
    def test_waybelow_is_the_order_on_induced_subposets(self, seed):
        """Inside any subset of a finite poset way-below is the inherited
        order, which the subposet law takes as given."""
        rng = random.Random(seed)
        P = random_presentation(seed, n=rng.randint(1, 12))
        elems = [x for x in P.elements() if rng.random() < 0.6] or [0]
        fp = induced_finite_poset(P, elems)
        for i, x in enumerate(elems):
            for j, y in enumerate(elems):
                assert waybelow_bruteforce(fp, i, j) == P.leq(x, y)

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

    def test_size_limits(self, closed, punctured, omega):
        """A cut is sized before it is built: 2^(n+2) closed sets (one
        fewer punctured) and n + 2 points of ω+1, at most
        ``MAX_ELEMENTS``."""
        for P, n, size in ((closed, 7, MAX_ELEMENTS),
                           (punctured, 7, MAX_ELEMENTS - 1),
                           (omega, 510, MAX_ELEMENTS)):
            assert len(P.truncation(n)) == size
            with pytest.raises(SizeLimit, match="is over the cap of 512 "):
                P.truncation(n + 1)

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

    def test_a_finite_carrier_is_its_own_cut(self, diamond):
        for n in (0, 2, MAX_ELEMENTS + 1):
            assert diamond.truncation(n) == diamond.elements()


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


def listed_pairs(fp):
    """The directed-subset listing with the maximum of each mask, as the
    (mask, maximum) pairs the references hold."""
    return [(mask, _extremum(fp.down, mask))
            for mask in fp.directed_subset_masks]


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
    assert listed_pairs(fp) == directed
    assert [[waybelow_bruteforce(fp, x, y) for y in range(n)]
            for x in range(n)] == [[not refs[x][y] for y in range(n)]
                                   for x in range(n)]
    assert [kernel_or_error(fp, x) for x in range(n)] == \
        [reference_kernel(fp, refs, x) for x in range(n)]
    assert continuity_bruteforce(fp) == reference_continuity(fp, refs)
    if n <= REFERENCE_SUBSETS_CAP:
        assert continuous_subposets_bruteforce(fp) == \
            reference_subposets(fp, refs)


def singleton_slots(n):
    """The plane of the singletons {0}, ..., {n-1}."""
    return sum(1 << (1 << t) for t in range(n))


def thin(fp, keep):
    """Feed the oracle the directed family of ``fp`` cut down to the
    subsets in the plane ``keep``."""
    D, T = FinitePoset(fp.names, fp.up).directed_planes
    fp.__dict__["directed_planes"] = (D & keep, T)


def thinned_pairs(fp, keep):
    """The (mask, maximum) pairs the references hold for ``thin(fp, keep)``."""
    return [(mask, top) for mask, top in reference_directed(fp)
            if keep >> mask & 1]


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
        thin(fp, keep)
        assert_oracle_matches_reference(fp, thinned_pairs(fp, keep))


# ---------------------------------------------------------------------------
# The oracle reads each ``avoid`` row from the singletons {t} first and from
# the planes only for the t whose singleton the family lacks.  Both branches
# against the pairwise reference: a family without any singleton runs only
# the planes, the honest family only the singletons.


class TestSingletonWitnesses:
    @pytest.mark.parametrize("n,seed", [
        (n, seed) for n in range(2, REFERENCE_SUBSETS_CAP + 1)
        for seed in range(2)])
    def test_without_singletons(self, n, seed):
        fp = shuffled_poset(random.Random(4000 + seed), n, 0.4)
        keep = ((1 << (1 << n)) - 1) & ~singleton_slots(n)
        thin(fp, keep)
        assert _singletons(*fp.directed_planes) == 0
        assert_oracle_matches_reference(fp, thinned_pairs(fp, keep))

    @pytest.mark.parametrize("n,seed", [
        (n, seed) for n in range(2, REFERENCE_SUBSETS_CAP + 1)
        for seed in range(2)])
    def test_whole_family(self, n, seed):
        fp = shuffled_poset(random.Random(4000 + seed), n, 0.4)
        assert _singletons(*fp.directed_planes) == (1 << n) - 1
        assert_oracle_matches_reference(fp, reference_directed(fp))


def reference_avoid(fp):
    """Each ``avoid`` row as the plane form builds it: t is in row x when
    some directed subset with maximum t misses the up-set of x."""
    D, T = fp.directed_planes
    rows = []
    for x in range(fp.n):
        missing = D & reference_none_of(fp.n, fp.up[x])
        rows.append(sum(1 << t for t in range(fp.n) if missing & T[t]))
    return tuple(rows)


class TestAvoidAgainstPlaneRows:
    @pytest.mark.parametrize("n", range(1, FINITE_CAP + 1))
    def test_random_poset(self, n):
        rng = random.Random(5000 + n)
        fp = shuffled_poset(rng, n, 0.3)
        assert _avoid(fp) == reference_avoid(fp)
        full = (1 << (1 << n)) - 1
        for keep in (rng.getrandbits(1 << n), full & ~singleton_slots(n),
                     rng.getrandbits(1 << n) | singleton_slots(n)):
            thinned = FinitePoset(fp.names, fp.up)
            thin(thinned, keep)
            assert _avoid(thinned) == reference_avoid(thinned)

    @pytest.mark.parametrize("name", ("chain_16", "antichain_16"))
    def test_extremes(self, name):
        fp = make_catalog(finite_named(name)).poset
        assert _avoid(fp) == reference_avoid(fp)


class OneSlotPlane(int):
    """A subset plane that takes part only in ANDs with a single slot."""

    def __and__(self, other):
        if other.bit_count() > 1:
            raise AssertionError("a full-width AND of the directed planes ran")
        return int(self) & other

    __rand__ = __and__


class TestNoPlanePathOnHonestPosets:
    """On an honest poset every singleton is in the family, so the oracle
    answers without a ``none_of`` plane, an upward closure, or an AND of
    the directed planes wider than one slot; the directed planes are built
    without a ``none_of`` plane; and a sparse family is listed from its
    maxima, without reading the plane."""

    @staticmethod
    def posets():
        names = NAMED_FINITE_ROSTER + ("chain_16", "antichain_16")
        yield from (make_catalog(finite_named(name)).poset for name in names)
        for seed, n in enumerate((6, 9, 10, 12, 14, FINITE_CAP)):
            yield shuffled_poset(random.Random(6000 + seed), n, 0.3)

    def test_planes_are_never_reached(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a full-width plane path ran")

        monkeypatch.setattr(core, "_none_of", forbidden)
        monkeypatch.setattr(oracle, "_none_of", forbidden)
        monkeypatch.setattr(oracle, "_supersets", forbidden)
        monkeypatch.setattr(core, "_plane_members", forbidden)
        listed = 0
        for fp in self.posets():
            D, T = fp.directed_planes
            fp.__dict__["directed_planes"] = (
                OneSlotPlane(D), tuple(map(OneSlotPlane, T)))
            if D.bit_count() * 3 <= D.bit_length():
                assert fp.directed_subset_masks == \
                    reference_plane_members(D)
                listed += 1
            assert _avoid(fp) == tuple(((1 << fp.n) - 1) & ~up
                                       for up in fp.up)
            assert [kernel_bruteforce(fp, x) for x in range(fp.n)] == \
                list(range(fp.n))
            assert continuity_bruteforce(fp).status is Status.VERIFIED
            if fp.n <= REFERENCE_SUBSETS_CAP:
                assert continuous_subposets_bruteforce(fp) == \
                    list(range(1 << fp.n))
        assert listed == 5  # antichain_16 and the shuffled 6, 10, 12 and 14


# ---------------------------------------------------------------------------
# The subset-plane helpers against their earlier, plainer forms: the
# complement of the union of the element planes for ``_none_of``, a
# digit-by-digit scan of the binary form for ``_plane_members``, and the
# pair form for ``directed_planes``, which removes from all subsets every
# one holding a pair of elements and missing their common up-set.  They
# reach n = 16, where the pairwise reference above would be too slow.

def reference_none_of(n, mask):
    planes = _subset_planes(n)
    hit = 0
    for b in _bits(mask):
        hit |= planes[b]
    return ((1 << (1 << n)) - 1) & ~hit


def reference_plane_members(plane):
    return [m for m, digit in enumerate(reversed(bin(plane)[2:]))
            if digit == "1"]


def reference_directed_planes(fp):
    n = fp.n
    S = _subset_planes(n)
    full = (1 << n) - 1
    unbounded = 1
    for i in range(n):
        for j in range(i + 1, n):
            unbounded |= S[i] & S[j] & reference_none_of(n, fp.up[i] & fp.up[j])
    D = ((1 << (1 << n)) - 1) & ~unbounded
    T = tuple(S[t] & reference_none_of(n, full & ~fp.down[t])
              for t in range(n))
    return D, T


def reference_directed_masks(D, T):
    return sorted((mask, t) for t in range(len(T))
                  for mask in reference_plane_members(D & T[t]))


class TestPlaneHelpers:
    @pytest.mark.parametrize("n", range(FINITE_CAP + 1))
    def test_none_of_and_members(self, n):
        rng = random.Random(n)
        full = (1 << n) - 1
        for mask in [0, full] + [rng.getrandbits(n) for _ in range(12)]:
            assert _none_of(n, mask) == reference_none_of(n, mask)
        width = 1 << n
        for plane in [0, (1 << width) - 1, 1, 1 << (width - 1),
                      rng.getrandbits(width),
                      rng.getrandbits(width) & rng.getrandbits(width)
                      & rng.getrandbits(width)]:
            assert _plane_members(plane) == reference_plane_members(plane)

    @staticmethod
    def assert_matches(fp):
        D, T = reference_directed_planes(fp)
        assert fp.directed_planes == (D, T)
        assert listed_pairs(fp) == reference_directed_masks(D, T)

    @pytest.mark.parametrize("n,p", [
        (n, p) for n in range(FINITE_CAP + 1) for p in (0.1, 0.3, 0.6)] + [
        (n, 0.15) for n in range(13, FINITE_CAP + 1)])
    def test_random_poset(self, n, p):
        # labels not in a linear extension, so the build's own order is
        # not the index order
        self.assert_matches(shuffled_poset(random.Random(n), n, p))

    @pytest.mark.parametrize("name", ("chain_16", "antichain_16"))
    def test_extremes(self, name):
        self.assert_matches(make_catalog(finite_named(name)).poset)

    @pytest.mark.parametrize("n", (13, FINITE_CAP))
    def test_thinned_directed_family(self, n):
        rng = random.Random(2000 + n)
        fp = shuffled_poset(rng, n, 0.3)
        keep = rng.getrandbits(1 << n)
        D, T = reference_directed_planes(fp)
        fp.__dict__["directed_planes"] = (D & keep, T)
        assert listed_pairs(fp) == reference_directed_masks(D & keep, T)

    # Relations built past ``FinitePoset.__init__``: the build refuses any
    # that is not a partial order.

    @staticmethod
    def corrupt(names, up, down=None):
        """A FinitePoset of the rows ``up`` and ``down``, the transpose of
        ``up`` unless given, with no check of the order."""
        n = len(names)
        fp = FinitePoset.__new__(FinitePoset)
        fp.n, fp.names, fp.up = n, tuple(names), tuple(up)
        fp.down = tuple(down) if down is not None else tuple(
            sum(1 << i for i in range(n) if up[i] >> j & 1)
            for j in range(n))
        return fp

    NOT_AN_ORDER = "is not a partial order; the order is corrupt"

    def test_a_cycle_is_refused_by_the_rows(self):
        # a <= b <= c <= a without transitivity: {a, b, c} is directed, and
        # no member's down-set holds it
        fp = self.corrupt("abc", (0b011, 0b110, 0b101))
        with pytest.raises(PosetError, match=self.NOT_AN_ORDER):
            fp.directed_planes

    def test_elements_mutually_below_each_other(self):
        # a transitive relation whose up-sets tie: neither is taken first
        fp = self.corrupt("ab", (0b11, 0b11))
        with pytest.raises(PosetError, match="'a' " + self.NOT_AN_ORDER):
            fp.directed_planes

    def test_an_irreflexive_row(self):
        # a < b with a not below itself, b taken first: the strict up-set
        # of a is taken and transitive, and its row lacks a
        fp = self.corrupt("ba", (0b01, 0b01))
        with pytest.raises(PosetError, match="'a' " + self.NOT_AN_ORDER):
            fp.directed_planes

    @pytest.mark.parametrize("names", ("abc", "bac"))
    def test_an_intransitive_chain_before_any_plane(self, names):
        # a < b < c without a < c.  The pair form answers it, listing {a},
        # {b}, {c}, {a, b} and {b, c}; with b taken before a, only the
        # transitivity check of a's row refuses it.
        a, b, c = (names.index(x) for x in "abc")
        up = [0] * 3
        up[a], up[b], up[c] = 1 << a | 1 << b, 1 << b | 1 << c, 1 << c
        fp = self.corrupt(names, up)
        D, T = reference_directed_planes(fp)
        assert [mask for mask, _ in reference_directed_masks(D, T)] == sorted(
            sum(1 << i for i in subset) for subset in
            ({a}, {b}, {c}, {a, b}, {b, c}))
        with pytest.raises(PosetError, match=f"{names[a]!r} "
                                             + self.NOT_AN_ORDER):
            fp.directed_planes
        # the same three beside 13 isolated elements, all taken before a
        # and b: refused having allocated less than a 2^15-bit plane
        n = FINITE_CAP
        fp = self.corrupt(names + "".join(map(chr, range(100, 100 + n - 3))),
                          up + [1 << i for i in range(3, n)])
        _subset_planes(n)
        tracemalloc.start()
        try:
            with pytest.raises(PosetError, match=self.NOT_AN_ORDER):
                fp.directed_planes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 12

    def test_a_down_set_that_is_not_the_transpose(self):
        # the order a < b, with a missing from the down-set of b: {a, b} is
        # directed, and no T[t] holds it
        fp = self.corrupt("ab", (0b11, 0b10), down=(0b01, 0b10))
        with pytest.raises(PosetError, match="a directed subset has no "
                                             "maximum"):
            fp.directed_planes

    def test_cap_before_any_plane(self):
        # a 17-element plane is 2^17 bits, 16 KiB: the calls must raise
        # having allocated less than that
        fp = FinitePoset([str(i) for i in range(FINITE_CAP + 1)],
                         [1 << i for i in range(FINITE_CAP + 1)])
        for call in (lambda: _none_of(FINITE_CAP + 1, 0),
                     lambda: fp.directed_planes):
            tracemalloc.start()
            try:
                with pytest.raises(SizeLimit, match="capped at 16 elements, "
                                                    "poset has 17"):
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 14


# ---------------------------------------------------------------------------
# ``directed_subset_masks`` lists a sparse family that is the union of the
# ``T[t]`` from the maxima, and reads a dense or a thinned family off the
# plane.  Each branch against the per-maximum reference, with the plane
# reads counted.


class TestListingBranches:
    @staticmethod
    def plane_reads(monkeypatch, fp):
        """Check the listing of ``fp``; return how often it read a plane."""
        reads = []

        def counted(plane):
            reads.append(plane)
            return _plane_members(plane)

        monkeypatch.setattr(core, "_plane_members", counted)
        assert listed_pairs(fp) == reference_directed_masks(
            *fp.directed_planes)
        return len(reads)

    @staticmethod
    def poset(case):
        """A named poset, or a shuffled one for (n, p)."""
        if isinstance(case, str):
            return make_catalog(finite_named(case)).poset
        n, p = case
        return shuffled_poset(random.Random(n), n, p)

    @staticmethod
    def sparse(fp):
        D = fp.directed_planes[0]
        return D.bit_count() * 3 <= D.bit_length()

    @pytest.mark.parametrize("case", ["antichain_16"] + [
        (n, p) for n in range(13, FINITE_CAP + 1) for p in (0.1, 0.15)])
    def test_sparse_from_maxima(self, monkeypatch, case):
        fp = self.poset(case)
        assert self.sparse(fp)
        assert self.plane_reads(monkeypatch, fp) == 0

    @pytest.mark.parametrize("case", ["chain_16"] + [
        (n, p) for n in range(13, FINITE_CAP + 1) for p in (0.5, 0.7)])
    def test_dense_off_the_plane(self, monkeypatch, case):
        fp = self.poset(case)
        assert not self.sparse(fp)
        assert self.plane_reads(monkeypatch, fp) == 1

    @pytest.mark.parametrize("n", range(13, FINITE_CAP + 1))
    def test_thinned_off_the_plane(self, monkeypatch, n):
        rng = random.Random(7000 + n)
        fp = shuffled_poset(rng, n, 0.15)
        D = fp.directed_planes[0]
        thin(fp, rng.getrandbits(1 << n))
        assert self.sparse(fp) and fp.directed_planes[0] != D
        assert self.plane_reads(monkeypatch, fp) == 1


# ---------------------------------------------------------------------------
# The suprema table: one least upper bound search per element, skipped for
# approximants that hold the element and lie below it.  Against
# ``lub_of_mask`` over each approximant set.


def reference_suprema(fp):
    out = []
    for mask in _approximants(fp):
        u = fp.lub_of_mask(mask)
        out.append(None if not mask else NO_SUPREMUM if u is None else u)
    return tuple(out)


class TestSupremaTable:
    @pytest.mark.parametrize("n,seed", [
        (n, seed) for n in range(1, REFERENCE_SUBSETS_CAP + 1)
        for seed in range(2)])
    def test_families(self, n, seed):
        rng = random.Random(8000 + seed)
        fp = shuffled_poset(rng, n, 0.3)
        assert _suprema(fp) == reference_suprema(fp) == tuple(range(n))
        full = (1 << (1 << n)) - 1
        for keep in (rng.getrandbits(1 << n), full & ~singleton_slots(n), 0):
            thinned = FinitePoset(fp.names, fp.up)
            thin(thinned, keep)
            assert _suprema(thinned) == reference_suprema(thinned)

    def test_an_empty_family_has_no_least_upper_bound(self):
        # every element is way-below every other, and the antichain's
        # elements have no common upper bound
        fp = make_catalog(finite_named("antichain_3")).poset
        thin(fp, 0)
        assert _suprema(fp) == (NO_SUPREMUM,) * 3
        with pytest.raises(PosetError, match="no least upper bound"):
            kernel_bruteforce(fp, 0)
        assert continuity_bruteforce(fp) == refuted(
            "continuous", fp.names[0], "sup of approximants = none",
            EXHAUSTIVE)

    def test_any_approximant_table(self):
        # an honest order holds each element among its approximants; these
        # tables need not, and between them reach every outcome
        outcomes = set()
        for seed in range(20):
            rng = random.Random(9000 + seed)
            fp = shuffled_poset(rng, rng.randrange(1, 9), 0.3)
            fp.__dict__["_approximants"] = tuple(
                rng.choice((0, down, rng.getrandbits(fp.n)))
                for down in fp.down)
            expected = reference_suprema(fp)
            assert _suprema(fp) == expected
            assert [kernel_or_error(fp, x) for x in range(fp.n)] == [
                "no approximants" if u is None else
                "no least upper bound" if u is NO_SUPREMUM else u
                for u in expected]
            wrong = next((x for x, u in enumerate(expected) if u != x), None)
            report = continuity_bruteforce(fp)
            if wrong is None:
                assert report.status is Status.VERIFIED
            else:
                u = expected[wrong]
                assert (report.witness, report.reason) == (
                    fp.names[wrong], "no approximants" if u is None else
                    "sup of approximants = "
                    + ("none" if u is NO_SUPREMUM else fp.names[u]))
            outcomes |= {u if u is None or u is NO_SUPREMUM else int
                         for u in expected}
        assert outcomes == {None, NO_SUPREMUM, int}


# ---------------------------------------------------------------------------
# The directed-subset listing against the per-maximum reference: the members
# of ``D & T[t]`` for each t, zipped with t and sorted
# (``reference_directed_masks``); and the finite bank is the generators of
# the directed subsets, read off the down-sets, against the same pairs.


def reference_bank(P):
    """The finite bank as the directed subsets of one or two members, from
    the (mask, maximum) pairs."""
    pairs = reference_directed_masks(*reference_directed_planes(P.poset))
    return [ExplicitFamily(tuple(_bits(mask)), top, label="{" + ", ".join(
                P.format_element(i) for i in _bits(mask)) + "}")
            for mask, top in pairs if mask.bit_count() <= 2]


class TestDirectedListing:
    @pytest.mark.parametrize("n", range(1, FINITE_CAP + 1))
    def test_random_poset(self, n):
        fp = shuffled_poset(random.Random(3000 + n), n, 0.5)
        assert listed_pairs(fp) == reference_directed_masks(
            *reference_directed_planes(fp))

    def test_extremum_without_a_maximum(self, diamond):
        # b and c are incomparable; the empty mask has no member
        assert _extremum(diamond.poset.down, 0b0110) is None
        assert _extremum(diamond.poset.down, 0) is None
        assert _extremum(diamond.poset.down, 0b1110) == 3

    @pytest.mark.parametrize("name", NAMED_FINITE_ROSTER
                             + ("chain_12", "chain_16"))
    def test_bank_matches_the_pairs(self, name):
        # chain_16 has 65,535 directed subsets and a bank of 16 + 120
        P = make_catalog(finite_named(name))
        assert P.family_bank() == reference_bank(P)

    def test_chain_16_listing_memory(self):
        # 65,535 masks as ints; as (mask, maximum) tuples they took 6 MiB
        fp = make_catalog(finite_named("chain_16")).poset
        tracemalloc.start()
        try:
            listing = fp.directed_subset_masks
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(listing) == 65535
        assert peak < 3.5 * 2**20
