"""The approximation kernel, its continuous retract, and the quotient.

On the approximable part of a conditionally-complete interpolating poset,
the map sending x to the supremum of its approximants is a kernel: it is
deflationary, monotone, idempotent, and preserves directed suprema.  Its
fixed points form the largest continuous subposet, and collapsing elements
with equal kernel values yields a quotient order-isomorphic to that retract.
Each of those claims has a checker here; on finite carriers the checks are
exhaustive, on symbolic carriers they sample and scan the family bank and
report honestly (Unrefuted, never Verified, unless a certified closed form
stands behind the claim).  ``LAWS`` maps each ``--law`` name to its checker.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .catalog import ClosedSetsPresentation
from .closedsets import EVENS, ODDS, closed_set, truncate_naturals
from .core import (PosetPresentation, check_conditionally_complete,
                   check_continuity, check_interpolation, check_subposet,
                   _mask, is_approximable, is_element, resolve_scope,
                   sample_pool)
from .errors import (EmptyFamily, NoInfimumError, NotApproximable, PosetError,
                     PreconditionUnverified, ScopeUnsupported)
from .families import ExplicitFamily
from .oracle import as_finite_poset, continuous_subposets_bruteforce
from .reports import (BANK, EXHAUSTIVE, CheckReport, Scope, Status, combine,
                      refuted, sampled, unknown, unrefuted, verified)


def kernel_of(P: PosetPresentation, x):
    """Supremum of the approximants of x, computed as the declared supremum
    of the kind's cofinal approximant family."""
    P.require(x)
    fam = P.waybelow_family(x)
    if fam is None:
        raise NotApproximable(
            f"{P.format_element(x)} has no approximants; the kernel is "
            "undefined there")
    value = fam.supremum
    if not P.leq(value, x):
        raise PosetError("approximant family supremum fails to deflate; "
                         "the catalog entry is corrupt")
    return value


def in_retract(P: PosetPresentation, x) -> bool:
    """Membership in the largest continuous retract: x is approximable and
    fixed by the kernel."""
    P.require(x)
    fam = P.waybelow_family(x)
    return fam is not None and fam.supremum == x


def adversarial_kernel(P: PosetPresentation) -> Callable:
    """Planted self-test fixture: the identity except one element is sent
    strictly upward, so deflation must be refuted by check_kernel_laws."""
    if isinstance(P, ClosedSetsPresentation):
        src, dst = closed_set({0}), closed_set({0, 1})
    else:
        pool = P.interesting_elements()
        pair = next(((a, b) for a in pool for b in pool
                     if a != b and P.leq(a, b)), None)
        if pair is None:
            raise ScopeUnsupported(
                f"{P.name} has no strictly comparable pair to corrupt")
        src, dst = pair
    return lambda x: dst if x == src else x


def retract_member(P: PosetPresentation) -> Callable[[object], bool]:
    """Membership in the largest continuous retract, as a predicate.

    Requires the parent's axioms: certified for the symbolic catalog kinds,
    re-verified by exhaustion for finite carriers (interpolation plus a
    total kernel, which is what the construction actually consumes; random
    finite posets need not be conditionally complete, yet the construction
    is sound on any finite poset).
    """
    if not (P.certified_conditionally_complete and P.certified_interpolating):
        if not P.is_finite_kind:
            raise PreconditionUnverified(
                f"{P.name}: conditional completeness and interpolation are "
                "neither certified nor exhaustively verifiable")
        report = check_interpolation(P, EXHAUSTIVE)
        if report.status is not Status.VERIFIED:
            raise PreconditionUnverified(
                f"{P.name} failed exhaustive interpolation: {report.reason}")
        for x in P.elements():
            if P.waybelow_family(x) is None:
                raise PreconditionUnverified(
                    f"{P.name} has an element without approximants")
    return lambda x: in_retract(P, x)


# ---------------------------------------------------------------------------
# Kernel-law checkers


def _approximable_pool(P, rng, count):
    return [x for x in sample_pool(P, rng, count)
            if P.waybelow_family(x) is not None]


def check_kernel_laws(P: PosetPresentation, scope: Scope | None = None,
                      kernel: Callable | None = None) -> CheckReport:
    """Deflation, idempotence, and monotonicity of ``kernel`` (by default
    the approximation kernel) on the approximable part."""
    law = "kernel-laws"
    k = kernel or (lambda x: kernel_of(P, x))
    scope = resolve_scope(P, scope)
    if scope.kind == "exhaustive":
        xs = [x for x in P.elements() if P.waybelow_family(x) is not None]
        pairs = [(x, y) for x in xs for y in xs if P.leq(x, y)]
    else:
        rng = random.Random(scope.seed)
        pool = _approximable_pool(P, rng, scope.count)
        if not pool:
            return unknown(law, "no approximable elements sampled", scope)
        xs = pool[:scope.count]
        pairs = []
        for _ in range(scope.count):
            x, y = rng.choice(pool), rng.choice(pool)
            if P.leq(x, y):
                pairs.append((x, y))
            else:
                s = P.finite_sup((x, y))
                if is_element(s) and P.waybelow_family(s) is not None:
                    pairs.append((x, s))
    for x in xs:
        kx = k(x)
        if not P.leq(kx, x):
            return refuted(law, x,
                           f"deflation fails: k = {P.format_element(kx)}",
                           scope)
        if k(kx) != kx:
            return refuted(law, x,
                           f"idempotence fails at k(x) = "
                           f"{P.format_element(kx)}", scope)
    for x, y in pairs:
        if not P.leq(k(x), k(y)):
            return refuted(law, (x, y), "monotonicity fails", scope)
    total = len(xs) + len(pairs)
    return _finish(law, scope.kind == "exhaustive", total, scope)


def check_scott_continuity(P: PosetPresentation) -> CheckReport:
    """k(sup D) against sup k(D) for every bank family inside the
    approximable part; the image supremum is asserted to lie in the
    retract.  Verified only when the bank holds every directed subset."""
    law = "scott-continuity"
    checked = 0
    partial = 0
    for fam in P.family_bank():
        members = fam.sample_members()
        if not all(P.waybelow_family(m) is not None for m in members):
            continue
        d0 = fam.supremum if isinstance(fam, ExplicitFamily) \
            else P.chain_sup(fam)
        if P.waybelow_family(d0) is None:
            return refuted(law, fam.label or fam,
                           "supremum of an approximable directed family "
                           "is not approximable", BANK, samples=checked)
        k_sup = kernel_of(P, d0)
        if isinstance(fam, ExplicitFamily):
            images = tuple(kernel_of(P, m) for m in members)
            s = P.finite_sup(images)
            if not is_element(s):
                return refuted(law, fam.label or fam,
                               "kernel image has no supremum", BANK,
                               samples=checked)
            if s != k_sup:
                return refuted(
                    law, fam.label or fam,
                    f"k(sup) = {P.format_element(k_sup)} but sup of kernel "
                    f"images = {P.format_element(s)}", BANK, samples=checked)
            if not in_retract(P, s):
                return refuted(law, fam.label or fam,
                               "image supremum escapes the retract", BANK,
                               samples=checked)
            checked += 1
        else:
            for m in members:
                if not P.leq(kernel_of(P, m), k_sup):
                    return refuted(law, fam.label or fam,
                                   "a kernel image escapes k(sup)", BANK,
                                   samples=checked)
            if fam.kernel_image_sup is not None:
                s = fam.kernel_image_sup
                if s != k_sup:
                    return refuted(
                        law, fam.label or fam,
                        f"k(sup) = {P.format_element(k_sup)} but certified "
                        f"image supremum = {P.format_element(s)}", BANK,
                        samples=checked)
                if not in_retract(P, s):
                    return refuted(law, fam.label or fam,
                                   "image supremum escapes the retract",
                                   BANK, samples=checked)
                checked += 1
            else:
                partial += 1
    return _finish(law, P.bank_is_exhaustive, checked + partial, BANK)


def check_waybelow_kernel_equivalence(P: PosetPresentation,
                                      scope: Scope | None = None
                                      ) -> CheckReport:
    """v << x iff v << k(x), for approximable x."""
    law = "waybelow-kernel-equivalence"
    scope = resolve_scope(P, scope)
    if scope.kind == "exhaustive":
        elems = P.elements()
        pairs = [(v, x) for v in elems for x in elems
                 if P.waybelow_family(x) is not None]
    else:
        rng = random.Random(scope.seed)
        pool = sample_pool(P, rng, scope.count)
        approx = [x for x in pool if P.waybelow_family(x) is not None]
        if not approx:
            return unknown(law, "no approximable elements sampled", scope)
        pairs = [(rng.choice(pool), rng.choice(approx))
                 for _ in range(scope.count)]
    for v, x in pairs:
        if P.waybelow(v, x) != P.waybelow(v, kernel_of(P, x)):
            return refuted(law, (v, x),
                           f"v << x is {P.waybelow(v, x)} but v << k(x) is "
                           f"{not P.waybelow(v, x)}", scope)
    return _finish(law, scope.kind == "exhaustive", len(pairs), scope)


def check_largest_retract(P: PosetPresentation,
                          scope: Scope | None = None) -> CheckReport:
    """Every continuous subposet sits inside the retract.

    Finite carriers: exhaust all subsets against the definitional brute
    force.  Closed-set kinds: refute the targeted candidate Q ∪ {{∞}} and
    sample-confirm the finite-sets sublattice; universal quantification
    over subposets of an infinite carrier is out of reach, so the overall
    status stays Unrefuted there.
    """
    law = "largest-retract"
    scope = resolve_scope(P, scope)
    if scope.kind == "exhaustive":
        fp, elems = as_finite_poset(P)
        if fp.n > 10:
            raise ScopeUnsupported("exhaustive subset check capped at 10 "
                                   "elements")
        retract = frozenset(i for i, e in enumerate(elems)
                            if in_retract(P, e))
        passing = continuous_subposets_bruteforce(fp)
        for mask in passing:
            if mask & ~_mask(retract):
                outside = [elems[i] for i in range(fp.n)
                           if (mask >> i) & 1 and i not in retract]
                return refuted(law, tuple(outside),
                               "a continuous subposet escapes the retract",
                               scope)
        # every passing subset lies inside the retract, so the retract is
        # the largest one exactly when it passes itself
        if _mask(retract) not in passing:
            return refuted(law, None,
                           "retract differs from the brute-force largest "
                           "continuous subposet", scope)
        return verified(law, scope)
    subs = []
    if isinstance(P, ClosedSetsPresentation):
        subs.append(_refute_inf_candidate(P))
        subs.append(_confirm_finite_sublattice(P, scope))
    else:
        subs.append(_confirm_retract_continuity(P, scope))
    return combine(law, subs, scope)


def _refute_inf_candidate(P: ClosedSetsPresentation) -> CheckReport:
    """The candidate R = Q ∪ {{∞}} is not a continuous subposet: inside R
    the approximants of {∞} have supremum below {∞}."""
    law = "largest-retract:candidate-beyond-retract"
    witness = closed_set(infinity=True)
    fam = P.waybelow_family(witness)
    if fam is None:
        return verified(law, BANK, reason="candidate refuted: {inf} has no "
                        "approximants at all, hence none inside R")
    members = tuple(m for m in fam.sample_members()
                    if in_retract(P, m) or m == witness)
    if not members:
        return verified(law, BANK, reason="candidate refuted: no "
                        "approximants of {inf} inside R")
    s = P.finite_sup(members)
    if is_element(s) and s == witness:
        return refuted(law, witness,
                       "candidate unexpectedly continuous at {inf}", BANK)
    return verified(
        law, BANK,
        reason=f"candidate refuted: sup of approximants of {{inf}} inside R "
               f"= {P.format_element(s)} != {{inf}}")


def _confirm_finite_sublattice(P: ClosedSetsPresentation,
                               scope: Scope) -> CheckReport:
    """The sublattice of finite closed sets sits inside the retract."""
    law = "largest-retract:finite-sublattice"
    rng = random.Random(scope.seed)
    count = 0
    for rep in P.sample_elements(rng, scope.count):
        finite_part = truncate_naturals(rep, 15)
        if not P.contains(finite_part):
            continue
        if not in_retract(P, finite_part):
            return refuted(law, finite_part,
                           "finite closed set escapes the retract", scope)
        count += 1
    return unrefuted(law, count, scope)


def _confirm_retract_continuity(P: PosetPresentation,
                                scope: Scope) -> CheckReport:
    """Sampled retract elements are suprema of their retract approximants."""
    law = "largest-retract:retract-is-continuous"
    rng = random.Random(scope.seed)
    count = 0
    for x in sample_pool(P, rng, scope.count):
        if not in_retract(P, x):
            continue
        fam = P.waybelow_family(x)
        if fam.supremum != x:
            return refuted(law, x, "retract element is not the sup of its "
                           "approximants", scope)
        count += 1
    return unrefuted(law, count, scope)


# ---------------------------------------------------------------------------
# Quotient by equal kernel values


@dataclass
class QuotientStructure:
    """A finite sample of the approximable part, partitioned by kernel
    value, with the induced bijection onto retract elements."""

    presentation: PosetPresentation
    sample: tuple
    classes: tuple
    kernel_values: tuple

    def class_index_of(self, x) -> int:
        for i, cls in enumerate(self.classes):
            if x in cls:
                return i
        raise NotApproximable("element not in the sampled carrier")

    def image_of(self, x):
        """f(class of x), which must equal the kernel value of x."""
        return self.kernel_values[self.class_index_of(x)]


def quotient_structure(P: PosetPresentation, sample) -> QuotientStructure:
    """Partition a sample of approximable elements by kernel value."""
    sample = tuple(dict.fromkeys(sample))
    if not sample:
        raise EmptyFamily("quotient needs a nonempty sample")
    buckets = {}
    order = []
    for x in sample:
        P.require(x)
        fam = P.waybelow_family(x)
        if fam is None:
            raise NotApproximable(
                f"{P.format_element(x)} has no approximants")
        value = fam.supremum
        if value not in buckets:
            buckets[value] = []
            order.append(value)
        buckets[value].append(x)
    classes = tuple(tuple(buckets[v]) for v in order)
    values = tuple(order)
    for v in values:
        if not in_retract(P, v):
            raise PosetError("a class image escapes the retract")
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            if P.leq(a, b) and P.leq(b, a):
                raise PosetError("transported order fails antisymmetry on "
                                 "distinct classes")
    return QuotientStructure(P, sample, classes, values)


# ---------------------------------------------------------------------------
# Infima preservation


def check_inf_preservation(P: PosetPresentation, A,
                           scope: Scope | None = None) -> CheckReport:
    """The kernel of the infimum of a retract subset is the greatest lower
    bound of that subset inside the retract (over the searchable scope)."""
    law = "infima-preservation"
    A = tuple(dict.fromkeys(A))
    if not A:
        raise EmptyFamily("need a nonempty retract subset")
    for a in A:
        P.require(a)
        if not in_retract(P, a):
            raise PosetError(f"{P.format_element(a)} is not in the retract")
    scope = resolve_scope(P, scope)
    g = P.finite_inf(A)
    if not is_element(g):
        raise NoInfimumError("the set has no infimum in the carrier")
    if P.waybelow_family(g) is None:
        raise NoInfimumError("the infimum lies outside the approximable "
                             "part; no representable approximable infimum")
    candidate = kernel_of(P, g)
    if not in_retract(P, candidate):
        return refuted(law, candidate, "kernel of the infimum escapes the "
                       "retract", scope)
    for a in A:
        if not P.leq(candidate, a):
            return refuted(law, candidate,
                           f"not a lower bound of {P.format_element(a)}",
                           scope)
    if scope.kind == "exhaustive":
        pool = [x for x in P.elements() if in_retract(P, x)]
    else:
        rng = random.Random(scope.seed)
        pool = [x for x in sample_pool(P, rng, scope.count)
                if in_retract(P, x)]
    for c in pool:
        if all(P.leq(c, a) for a in A) and not P.leq(c, candidate):
            return refuted(law, c,
                           "a retract lower bound escapes the kernel of "
                           "the infimum", scope)
    return _finish(law, scope.kind == "exhaustive", len(pool), scope)


def check_inf_preservation_sampled(P: PosetPresentation,
                                   scope: Scope | None = None) -> CheckReport:
    """check_inf_preservation over sampled retract subsets of two or three
    elements, after the evens/odds pair on the full closed-set lattice.

    The instances are drawn with the seed and count of ``scope`` (or
    ``sampled()``) on every carrier; each one is decided within
    ``resolve_scope(P, scope)``, exhaustively on finite carriers.  The
    instances are a sample, so a clean run is Unrefuted, never Verified.
    """
    law = "infima-preservation"
    outer = scope or sampled()
    instances = []
    if isinstance(P, ClosedSetsPresentation) and not P.punctured:
        instances.append((EVENS, ODDS))
    rng = random.Random(outer.seed)
    pool = [x for x in sample_pool(P, rng, 200) if in_retract(P, x)]
    want = max(10, outer.count // 10)
    while len(instances) < want and len(pool) >= 2:
        size = rng.randint(2, min(3, len(pool)))
        instances.append(tuple(rng.sample(pool, size)))
    parts = []
    skipped = 0
    for inst in instances:
        try:
            parts.append(check_inf_preservation(P, inst, scope))
        except NoInfimumError:
            skipped += 1
    if not parts:
        return unrefuted(law, 0, outer,
                         reason=f"no instances with approximable infima "
                                f"({skipped} skipped)")
    report = combine(law, parts, outer)
    if report.status is not Status.REFUTED:
        report.status = Status.UNREFUTED
        report.subreports = []
        report.reason = (f"{len(parts)} retract subsets checked"
                         + (f", {skipped} without an approximable infimum"
                            if skipped else ""))
    return report


# ---------------------------------------------------------------------------
# Structure laws of the approximable part


def check_approximation_laws(P: PosetPresentation,
                             scope: Scope | None = None) -> CheckReport:
    """The structure laws of the approximable part, one sub-report each:

    directed-restriction
        a directed family meeting the approximable part restricts to a
        directed family there with the same supremum (and that supremum is
        itself approximable);
    restriction-nonempty
        a directed family whose supremum dominates some approximable
        element meets the approximable part;
    double-approximation
        every approximable element has an approximable approximant, and the
        way-below of the approximable part agrees with the ambient one;
    retract-approximation
        every retract element has an approximant inside the retract.

    The first two scan the family bank and are Verified only when it holds
    every directed subset; the last two exhaust finite carriers.
    """
    scope = resolve_scope(P, scope)
    rng = random.Random(scope.seed)
    pool = sample_pool(P, rng, scope.count)
    approx_pool = [x for x in pool if P.waybelow_family(x) is not None]
    bank = P.family_bank()
    complete = scope.kind == "exhaustive"

    subs = [
        _law_directed_restriction(P, bank, scope, P.bank_is_exhaustive),
        _law_restriction_nonempty(P, bank, approx_pool, scope,
                                  P.bank_is_exhaustive),
        _law_double_approximation(P, approx_pool, scope, complete),
        _law_retract_approximation(P, pool, scope, complete),
    ]
    return combine("approximation-laws", subs, scope)


def _finish(law, complete, count, scope):
    return verified(law, scope, samples=count) if complete \
        else unrefuted(law, count, scope)


def _law_directed_restriction(P, bank, scope, complete):
    law = "directed-restriction"
    count = 0
    for fam in bank:
        members = fam.sample_members()
        inside = [m for m in members if P.waybelow_family(m) is not None]
        if not inside:
            continue
        if P.waybelow_family(fam.supremum) is None:
            return refuted(law, fam.label or fam,
                           "supremum of a family meeting the approximable "
                           "part is not approximable", scope)
        if isinstance(fam, ExplicitFamily):
            directed = all(any(P.leq(a, c) and P.leq(b, c) for c in inside)
                           for a in inside for b in inside)
            if not directed:
                return refuted(law, fam.label or fam,
                               "restriction to the approximable part is "
                               "not directed", scope)
            s = P.finite_sup(tuple(inside))
            if not is_element(s) or s != fam.supremum:
                return refuted(law, fam.label or fam,
                               "restricted supremum differs", scope)
        else:
            if len(inside) != len(members):
                continue  # cannot restrict a chain by samples alone
            for a, b in zip(inside, inside[1:]):
                if not P.leq(a, b):
                    return refuted(law, fam.label or fam,
                                   "chain not monotone", scope)
        count += 1
    return _finish(law, complete, count, scope)


def _law_restriction_nonempty(P, bank, approx_pool, scope, complete):
    law = "restriction-nonempty"
    count = 0
    for fam in bank:
        members = fam.sample_members()
        for y in approx_pool:
            if P.leq(y, fam.supremum):
                if not any(P.waybelow_family(m) is not None
                           for m in members):
                    return refuted(
                        law, (fam.label or fam, y),
                        "family dominates an approximable element but "
                        "misses the approximable part", scope)
                count += 1
                break
    return _finish(law, complete, count, scope)


def _law_double_approximation(P, approx_pool, scope, complete):
    law = "double-approximation"
    count = 0
    for x in approx_pool[:scope.count]:
        fam = P.waybelow_family(x)
        witnesses = [m for m in fam.sample_members()
                     if P.waybelow_family(m) is not None
                     and P.waybelow(m, x)]
        if not witnesses:
            return refuted(law, x, "no approximable approximant", scope)
        count += 1
    if not complete:
        subset_scope = sampled(scope.seed, max(scope.count // 4, 32))
        agreement = check_subposet(
            P, subset_scope, lambda y: P.waybelow_family(y) is not None)
        if agreement.status is Status.REFUTED:
            return refuted(law, agreement.witness,
                           f"approximable-part way-below disagrees: "
                           f"{agreement.reason}", scope)
        count += agreement.samples
    return _finish(law, complete, count, scope)


def _law_retract_approximation(P, pool, scope, complete):
    law = "retract-approximation"
    count = 0
    for x in pool:
        if not in_retract(P, x):
            continue
        fam = P.waybelow_family(x)
        witnesses = [m for m in fam.sample_members()
                     if in_retract(P, m) and P.waybelow(m, x)]
        if not witnesses:
            return refuted(law, x, "no approximant inside the retract",
                           scope)
        count += 1
    return _finish(law, complete, count, scope)


# ---------------------------------------------------------------------------
# The law table

LAWS = {
    "cc": check_conditionally_complete,
    "interpolation": check_interpolation,
    "continuity": check_continuity,
    "subposet": lambda P, scope: check_subposet(P, scope, retract_member(P)),
    "kernel": check_kernel_laws,
    "scott": lambda P, scope: check_scott_continuity(P),
    "eq": check_waybelow_kernel_equivalence,
    "largest-retract": check_largest_retract,
    "laws": check_approximation_laws,
    "inf": check_inf_preservation_sampled,
}
"""Every law checker ``(P, scope)`` by its ``--law`` name, in the order of
``--law all``."""
