"""Definitional brute force on finite posets, and bank-driven refutation of
the certified way-below rules on symbolic carriers.

The brute-force way-below quantifies over literally all directed subsets.
Every finite directed set contains its maximum (which is its supremum), so
the quantification is decidable by enumeration; the well-known consequence
that way-below then coincides with the order on finite posets is *checked*
as a meta-test by the suite, not assumed here.

The enumeration runs on subset planes (``FinitePoset.directed_planes``): a
set of subsets is one 2^n-bit int, bit m standing for the subset with
element mask m, so one big-int operation of 2^n / word machine words acts
on all 2^n subsets.  The directed subsets come out of one term per pair of
elements, the subsets that hold both and miss the pair's common up-set:
O(n^2) full-width ANDs and ORs, with the plane of each distinct common
up-set built once, by n doubling shifts; a pair of comparable elements is
skipped, as their common up-set holds one of them.  That plane lies in
the union of the planes of the subsets with maximum t; once it is counted
as large as that union, ``FinitePoset.directed_subset_masks`` lists a
sparse one from the maxima,
each t with every subset of the rest of its down-set; a dense or a thinned
family is read off the plane.  One table per poset, ``avoid[x]``, holds the
maxima t of the directed subsets that miss the up-set of x.  Such a subset
lies in the down-set of its maximum t, which misses the up-set of x
exactly when t is not above x, so each row is the maxima of the directed
subsets less an up-set.  A t is one when the family holds the singleton
{t}, one slot of two planes; only a t without that witness costs a
full-width AND.  Then ``x << y`` fails exactly when such a t lies above y,
one AND of n-bit masks per query.  The approximants of each x are read off
that table once per poset, into ``approximants[x]``, which kernels,
continuity and the subposet scan share, and their least upper bound once,
into ``suprema[x]``, which kernels and continuity share.  Every plane is
built from ``core._subset_planes``, which raises SizeLimit above
``core.FINITE_CAP`` elements.  That cap is the oracle's alone: a document
may list up to ``catalog.MAX_ELEMENTS`` elements, which the laws decide
without subset scans.

For symbolic kinds, refutation scans the family bank.  A family refutes
``x << y`` when its supremum dominates y and no member dominates x: decided
exhaustively for explicit families, and by the domination certificate for
chains.
"""

from __future__ import annotations

from functools import cache, reduce
from operator import or_

from .core import (NO_SUPREMUM, FinitePoset, PosetPresentation, _bits, _mask,
                   _none_of, _plane_members, _subset_planes, family_dominates)
from .errors import NotApproximable, PosetError, ScopeUnsupported
from .reports import BANK, CheckReport, EXHAUSTIVE, refuted, unrefuted, verified


def _singletons(D, T):
    """The mask of the t with {t} in ``D`` and ``T[t]``: one-slot ANDs."""
    return _mask(t for t, top in enumerate(T)
                 if D & 1 << (1 << t) and top & 1 << (1 << t))


def _avoid(fp: FinitePoset):
    """``avoid[x]``: the mask of the maxima of the directed subsets that
    contain no element above x, which are those maxima not above x.  Built
    once per poset."""
    table = fp.__dict__.get("_avoid")
    if table is None:
        D, T = fp.directed_planes
        alone = _singletons(D, T)
        tops = alone | _mask(t for t in _bits(((1 << fp.n) - 1) & ~alone)
                             if D & T[t])
        table = fp._avoid = tuple(tops & ~up for up in fp.up)
    return table


def waybelow_bruteforce(fp: FinitePoset, x: int, y: int) -> bool:
    """x << y by quantification over all directed subsets: none whose
    maximum dominates y misses the up-set of x."""
    return (fp.__dict__.get("_avoid") or _avoid(fp))[x] & fp.up[y] == 0


def _approximants(fp: FinitePoset):
    """``approximants[x]``: the mask of the v with v << x, read off
    ``avoid``.  Built once per poset."""
    table = fp.__dict__.get("_approximants")
    if table is None:
        avoid, full = _avoid(fp), (1 << fp.n) - 1
        # with every avoid[v] = ~up[v], v << x iff up[x] <= up[v] iff v <= x
        honest = all(row == full & ~up for row, up in zip(avoid, fp.up))
        table = fp._approximants = fp.down if honest else tuple(
            _mask(v for v in range(fp.n) if avoid[v] & up == 0)
            for up in fp.up)
    return table


def _suprema(fp: FinitePoset):
    """``suprema[x]``: the least upper bound of the approximants of x, None
    when x has none, ``NO_SUPREMUM`` when they have no least upper bound.
    Built once per poset.  Approximants that hold x and lie in its down-set
    have x as their maximum, so an honest poset runs no bound search."""
    table = fp.__dict__.get("_suprema")
    if table is None:
        def supremum(x, mask):
            if mask >> x & 1 and not mask & ~fp.down[x]:
                return x
            if not mask:
                return None
            u = fp.lub_of_mask(mask)
            return NO_SUPREMUM if u is None else u

        table = fp._suprema = tuple(map(supremum, range(fp.n),
                                        _approximants(fp)))
    return table


def kernel_bruteforce(fp: FinitePoset, x: int) -> int:
    """Least upper bound of the definitional approximants of x."""
    u = _suprema(fp)[x]
    if u is None:
        raise NotApproximable(f"{fp.names[x]!r} has no approximants")
    if u is NO_SUPREMUM:
        raise PosetError("approximant set of a finite element has no "
                         "least upper bound; the order is corrupt")
    return u


def continuity_bruteforce(fp: FinitePoset) -> CheckReport:
    """Verified iff every element is the supremum of its approximants."""
    law = "continuous"
    for x, u in enumerate(_suprema(fp)):
        if u is None:
            return refuted(law, fp.names[x], "no approximants", EXHAUSTIVE)
        if u != x:
            found = "none" if u is NO_SUPREMUM else fp.names[u]
            return refuted(law, fp.names[x],
                           f"sup of approximants = {found}", EXHAUSTIVE)
    return verified(law, EXHAUSTIVE)


def _supersets(n, plane):
    """The plane of the subsets that contain some subset in ``plane``: each
    element b in turn is added to every subset without it."""
    for b, with_b in enumerate(_subset_planes(n)):
        plane |= (plane & ~with_b) << (1 << b)
    return plane


def continuous_subposets_bruteforce(fp: FinitePoset) -> list:
    """All element subsets that are subposets (inherited way-below equals
    the internal one, both definitional) and continuous as posets in their
    own right.  Returned as bitmasks, ascending.

    Computed on subset planes: each condition below is the plane of the
    subsets R it makes fail, and R passes when it is in none of them.  The
    directed subsets of R are the directed subsets of the poset that lie
    inside R, so x << y fails inside R exactly when one of them with a
    maximum above y misses the up-set of x; and way-below inside R being
    the inherited one, the approximants of x inside R are its approximants
    that lie in R.  A refuting subset with maximum t holds t, so when {t}
    refutes, the R holding one are those holding t; only the t without that
    witness build a refuting plane, ``D & T[t]`` for t not above x, and
    take its upward closure."""
    n = fp.n
    D, T = fp.directed_planes
    S = _subset_planes(n)
    alone = _singletons(D, T)
    avoid = _avoid(fp)
    approximants = _approximants(fp)
    none_of = cache(lambda mask: _none_of(n, mask))
    failing = 0
    for x in range(n):
        outside = ((1 << n) - 1) & ~fp.up[x]
        # not (x << y): R holding x and y needs a refuting directed subset
        # inside it with a maximum above y; {y} is one wherever it refutes
        for y in range(n):
            witnessed = fp.up[y] & alone & outside
            if avoid[x] & fp.up[y] and not witnessed >> y & 1:
                term = S[x] & S[y] & none_of(witnessed)
                refuting = 0
                for t in _bits(fp.up[y] & outside & ~alone):
                    refuting |= T[t]
                if refuting:
                    term &= ~_supersets(n, D & refuting)
                failing |= term
        # x is the least upper bound in R of its approximants in R: it has
        # one, each lies below x, and each u in R not above x misses one;
        # the first and the last hold in every R when x is one of them
        approx = approximants[x]
        for v in _bits(approx & ~fp.down[x]):
            failing |= S[x] & S[v]
        if not approx >> x & 1:
            failing |= S[x] & none_of(approx)
            for u in _bits(outside):
                failing |= S[x] & S[u] & none_of(approx & ~fp.down[u])
    return _plane_members(((1 << (1 << n)) - 1) & ~failing)


def largest_continuous_subposet_bruteforce(fp: FinitePoset) -> frozenset:
    """The unique union-maximal continuous subposet, as an index set.

    A unique maximal one exists exactly when the union of all passing
    subsets passes itself; that union is numerically the largest mask, so
    it passes iff it is the last one enumerated."""
    passing = continuous_subposets_bruteforce(fp)
    union = reduce(or_, passing, 0)
    if passing[-1] != union:
        raise PosetError("expected a unique maximal continuous subposet; "
                         "the union of the passing subsets does not pass")
    return frozenset(_bits(union))


def bank_refute_waybelow(P: PosetPresentation, x, y) -> CheckReport:
    """Try to refute the assertion ``x << y`` against the family bank.

    Refuted carries the witnessing family; Unrefuted counts the families
    that were relevant (supremum above y) and dominated x.
    """
    if P.is_finite_kind:
        raise ScopeUnsupported("bank refutation is for symbolic kinds; "
                               "finite kinds have the definitional oracle")
    P.require(x)
    P.require(y)
    law = "waybelow-refutation"
    scanned = 0
    for fam in P.family_bank():
        if not P.leq(y, fam.supremum):
            continue
        if not family_dominates(P, fam, x):
            return refuted(
                law, (x, y),
                f"family {fam.label!r} has supremum above "
                f"{P.format_element(y)} but no member dominating "
                f"{P.format_element(x)}", BANK, samples=scanned)
        scanned += 1
    return unrefuted(law, scanned, BANK)

