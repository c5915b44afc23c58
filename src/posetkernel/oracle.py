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
elements, each clearing the pair's common up-set (O(n^2) terms of at most n
operations).  One table per poset, ``avoid[x]``, holds the maxima t of the
directed subsets that miss the up-set of x; it costs another n^2
operations.  Then ``x << y`` fails exactly when such a t lies above y, one
AND of n-bit masks per query, and approximants, kernels, continuity and the
subposet scan read the same table.  Every plane is built from
``core._subset_planes``, which raises SizeLimit above ``core.FINITE_CAP``
elements.

For symbolic kinds, refutation scans the family bank.  A family refutes
``x << y`` when its supremum dominates y and no member dominates x: decided
exhaustively for explicit families, and by the domination certificate for
chains.
"""

from __future__ import annotations

from .core import (FinitePoset, PosetPresentation, _bits, _mask, _none_of,
                   _plane_members, _subset_planes, family_dominates)
from .errors import NotApproximable, PosetError, ScopeUnsupported
from .reports import BANK, CheckReport, EXHAUSTIVE, refuted, unrefuted, verified


def _refuting_planes(fp: FinitePoset):
    """Row by row, ``[planes[x][t] for t]``: the directed subsets with
    maximum t that contain no element above x, as subset planes."""
    D, T = fp.directed_planes
    tops = [D & plane for plane in T]
    for x in range(fp.n):
        missing = _none_of(fp.n, fp.up[x])
        yield [top & missing for top in tops]


def _avoid(fp: FinitePoset):
    """``avoid[x]``: the mask of the maxima of the directed subsets that
    contain no element above x.  Built once per poset."""
    table = fp.__dict__.get("_avoid")
    if table is None:
        table = fp._avoid = tuple(_mask(t for t, plane in enumerate(row)
                                        if plane)
                                  for row in _refuting_planes(fp))
    return table


def waybelow_bruteforce(fp: FinitePoset, x: int, y: int) -> bool:
    """x << y by quantification over all directed subsets: none whose
    maximum dominates y misses the up-set of x."""
    return _avoid(fp)[x] & fp.up[y] == 0


def _approximants_mask(fp: FinitePoset, x: int) -> int:
    avoid = _avoid(fp)
    return _mask(v for v in range(fp.n) if avoid[v] & fp.up[x] == 0)


def kernel_bruteforce(fp: FinitePoset, x: int) -> int:
    """Least upper bound of the definitional approximants of x."""
    mask = _approximants_mask(fp, x)
    if not mask:
        raise NotApproximable(f"{fp.names[x]!r} has no approximants")
    u = fp.lub_of_mask(mask)
    if u is None:
        raise PosetError("approximant set of a finite element has no "
                         "least upper bound; the order is corrupt")
    return u


def continuity_bruteforce(fp: FinitePoset) -> CheckReport:
    """Verified iff every element is the supremum of its approximants."""
    law = "continuous"
    for x in range(fp.n):
        mask = _approximants_mask(fp, x)
        if not mask:
            return refuted(law, fp.names[x], "no approximants", EXHAUSTIVE)
        u = fp.lub_of_mask(mask)
        if u != x:
            found = "none" if u is None else fp.names[u]
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
    that lie in R."""
    n = fp.n
    refuting = list(_refuting_planes(fp))
    S = _subset_planes(n)
    avoid = _avoid(fp)
    failing = 0
    for x in range(n):
        # not (x << y): R holding x and y needs a refuting directed subset
        # inside it with a maximum above y
        for y in range(n):
            if avoid[x] & fp.up[y]:
                refuters = 0
                for t in _bits(fp.up[y]):
                    refuters |= refuting[x][t]
                failing |= S[x] & S[y] & ~_supersets(n, refuters)
        # x is the least upper bound in R of its approximants in R: it has
        # one, each lies below x, and each u in R not above x misses one
        approx = _approximants_mask(fp, x)
        failing |= S[x] & _none_of(n, approx)
        for v in _bits(approx & ~fp.down[x]):
            failing |= S[x] & S[v]
        for u in _bits(((1 << n) - 1) & ~fp.up[x]):
            failing |= S[x] & S[u] & _none_of(n, approx & ~fp.down[u])
    return list(_plane_members(_none_of(n, 0) & ~failing))


def largest_continuous_subposet_bruteforce(fp: FinitePoset) -> frozenset:
    """The unique union-maximal continuous subposet, as an index set.

    A unique maximal one exists exactly when the union of all passing
    subsets passes itself; that union is numerically the largest mask, so
    it passes iff it is the last one enumerated."""
    passing = continuous_subposets_bruteforce(fp)
    union = 0
    for R in passing:
        union |= R
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

