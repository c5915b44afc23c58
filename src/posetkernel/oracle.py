"""Definitional brute force on finite posets, and bank-driven refutation of
the certified way-below rules on symbolic carriers.

The brute-force way-below quantifies over literally all directed subsets.
Every finite directed set contains its maximum (which is its supremum), so
the quantification is decidable by enumeration; the well-known consequence
that way-below then coincides with the order on finite posets is *checked*
as a meta-test by the suite, not assumed here.

For symbolic kinds, refutation scans the family bank.  A family refutes
``x << y`` only when its supremum dominates y and the absence of a member
dominating x is conclusive: exhaustively for explicit families, and for
chains via the domination certificate or ``x`` not being below the declared
supremum.  A chain scanned to its horizon without a conclusive answer is
skipped, which weakens refutation power but never fabricates a refutation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (OMEGA, FinitePoset, PosetPresentation, _bits,
                   family_dominates, induced_finite_poset)
from .closedsets import closed_set
from .errors import NotApproximable, PosetError, ScopeUnsupported, SizeLimit
from .reports import BANK, CheckReport, EXHAUSTIVE, refuted, unrefuted, verified

_REFUTER_LIMIT = 12  # all-pairs refuter tables only below this size


def _refuters(fp: FinitePoset):
    """refs[x][y] = masks of directed subsets witnessing not (x << y):
    subsets whose maximum dominates y but no member dominates x."""
    cached = getattr(fp, "_refuter_table", None)
    if cached is not None:
        return cached
    if fp.n > _REFUTER_LIMIT:
        raise SizeLimit(f"refuter table capped at {_REFUTER_LIMIT} elements")
    n = fp.n
    refs = [[[] for _ in range(n)] for _ in range(n)]
    for mask, top in fp.directed_subset_masks:
        for y in range(n):
            if not fp.leq(y, top):
                continue
            for x in range(n):
                if mask & fp.up[x] == 0:
                    refs[x][y].append(mask)
    refs = [[tuple(cell) for cell in row] for row in refs]
    fp._refuter_table = refs
    return refs


def waybelow_bruteforce(fp: FinitePoset, x: int, y: int) -> bool:
    """x << y by quantification over all directed bounded-above subsets."""
    if fp.n > 16:
        raise SizeLimit("brute-force way-below capped at 16 elements")
    if fp.n <= _REFUTER_LIMIT:
        return not _refuters(fp)[x][y]
    for mask, top in fp.directed_subset_masks:
        if fp.leq(y, top) and mask & fp.up[x] == 0:
            return False
    return True


def _approximants_mask(fp: FinitePoset, x: int) -> int:
    mask = 0
    for v in range(fp.n):
        if waybelow_bruteforce(fp, v, x):
            mask |= 1 << v
    return mask


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
    if fp.n > 16:
        raise SizeLimit("brute-force continuity capped at 16 elements")
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
    own right.  Returned as bitmasks."""
    n = fp.n
    if n > 10:
        raise SizeLimit("subset enumeration capped at 10 elements")
    refs = _refuters(fp)
    passing = []
    for R in range(1 << n):
        members = list(_bits(R))
        ok = True
        for x in members:
            if not ok:
                break
            for y in members:
                ambient = not refs[x][y]
                internal = ambient or not any(S & ~R == 0 for S in refs[x][y])
                if internal != ambient:
                    ok = False
                    break
        if not ok:
            continue
        for x in members:
            approx = [y for y in members
                      if not any(S & ~R == 0 for S in refs[y][x])]
            if not approx:
                ok = False
                break
            ubs = R
            for w in approx:
                ubs &= fp.up[w]
            least = None
            for u in _bits(ubs):
                if ubs & ~fp.up[u] == 0:
                    least = u
                    break
            if least != x:
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


# ---------------------------------------------------------------------------
# Finite truncations of symbolic kinds


@dataclass
class TruncatedPoset:
    """A finite order-embedded restriction of a symbolic presentation.

    The order transfers both ways across the embedding.  Way-below does
    NOT transfer from the truncation to the parent: the truncation lacks
    the unbounded families that kill way-below pairs upstairs, so its
    brute force can only be used for the one-sided check
    "parent x << y implies truncated x << y".
    """

    parent: PosetPresentation
    poset: FinitePoset
    to_parent: tuple

    def index_of(self, element) -> int:
        for i, e in enumerate(self.to_parent):
            if e == element:
                return i
        raise NotApproximable(f"element not in the truncation")


def truncate(P: PosetPresentation, n: int) -> TruncatedPoset:
    """Finite restriction: closed sets over {0..n} with an optional ∞,
    or the chain {0..n, ω}."""
    if P.kind == "omega_plus_one":
        if n > 14:
            raise SizeLimit("omega truncation capped at 14")
        elems = list(range(n + 1)) + [OMEGA]
    elif P.kind in ("closed_sets", "punctured_closed_sets"):
        if n > 6:
            raise SizeLimit("closed-set truncation capped at 6")
        elems = []
        for inf in (False, True):
            for mask in range(1 << (n + 1)):
                rep = closed_set({i for i in range(n + 1)
                                  if (mask >> i) & 1}, infinity=inf)
                if P.contains(rep):
                    elems.append(rep)
    else:
        raise ScopeUnsupported(f"no truncation for kind {P.kind!r}")
    return TruncatedPoset(P, induced_finite_poset(P, elems), tuple(elems))


def as_finite_poset(P: PosetPresentation):
    """Materialize any finite-kind presentation as an explicit FinitePoset,
    returning it with the element list in index order."""
    elems = P.elements()
    return induced_finite_poset(P, elems), elems
