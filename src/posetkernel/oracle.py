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
AND of n-bit masks per query, and approximants, kernels and continuity read
the same table.

For symbolic kinds, refutation scans the family bank.  A family refutes
``x << y`` only when its supremum dominates y and the absence of a member
dominating x is conclusive: exhaustively for explicit families, and for
chains via the domination certificate or ``x`` not being below the declared
supremum.  A chain scanned to its horizon without a conclusive answer is
skipped, which weakens refutation power but never fabricates a refutation.
"""

from __future__ import annotations

from .core import (FINITE_CAP, SUBSET_SCAN_CAP, FinitePoset,
                   PosetPresentation, _bits, _mask, _none_of,
                   family_dominates)
from .errors import NotApproximable, PosetError, ScopeUnsupported, SizeLimit
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
        if fp.n > FINITE_CAP:
            raise SizeLimit(f"brute-force way-below capped at {FINITE_CAP} "
                            "elements")
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
    if fp.n > FINITE_CAP:
        raise SizeLimit(f"brute-force continuity capped at {FINITE_CAP} "
                        "elements")
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


def continuous_subposets_bruteforce(fp: FinitePoset) -> list:
    """All element subsets that are subposets (inherited way-below equals
    the internal one, both definitional) and continuous as posets in their
    own right.  Returned as bitmasks.

    The directed subsets of R are the directed subsets of the poset that lie
    inside R, so x << y fails inside R exactly when one of them with a
    maximum above y misses the up-set of x."""
    n = fp.n
    if n > SUBSET_SCAN_CAP:
        raise SizeLimit(f"subset enumeration capped at {SUBSET_SCAN_CAP} "
                        "elements")
    refuting = list(_refuting_planes(fp))
    avoid = _avoid(fp)
    # not_below[x]: the y with not (x << y), the down-set of avoid[x]
    not_below = [0] * n
    for x in range(n):
        for t in _bits(avoid[x]):
            not_below[x] |= fp.down[t]
    approximants = [_approximants_mask(fp, x) for x in range(n)]
    members = [list(_bits(R)) for R in range(1 << n)]
    # inside[R] = none_of(~R), the plane of the subsets of R: those of R
    # without its lowest element b, and each of them with b added (+ 2^b)
    inside = [1]
    passing = []
    for R in range(1 << n):
        if R:
            low = R & -R
            rest = inside[R ^ low]
            inside.append(rest | rest << low)
        ok = True
        for x in members[R]:
            # each y in R with not (x << y) needs a refuting directed subset
            # inside R with a maximum t above y
            need = not_below[x] & R
            for t in members[avoid[x] & R]:
                if not need:
                    break
                if fp.down[t] & need and refuting[x][t] & inside[R]:
                    need &= ~fp.down[t]
            if need:
                ok = False
                break
        if not ok:
            continue
        # way-below inside R is the inherited one, so the approximants of x
        # inside R are its approximants that lie in R
        for x in members[R]:
            approx = approximants[x] & R
            if not approx:
                ok = False
                break
            ubs = R
            for w in members[approx]:
                ubs &= fp.up[w]
            # x is the least of the upper bounds in R
            if not ubs >> x & 1 or ubs & ~fp.up[x]:
                ok = False
                break
        if ok:
            passing.append(R)
    return passing


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
    that were relevant (supremum above y) and conclusively dominated x.
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
        dom = family_dominates(P, fam, x)
        if dom is False:
            return refuted(
                law, (x, y),
                f"family {fam.label!r} has supremum above "
                f"{P.format_element(y)} but no member dominating "
                f"{P.format_element(x)}", BANK, samples=scanned)
        if dom is True:
            scanned += 1
    return unrefuted(law, scanned, BANK)

