"""The approximation kernel, its continuous retract, and the quotient.

On the approximable part of a conditionally-complete interpolating poset,
the map sending x to the supremum of its approximants is a kernel: it is
deflationary, monotone, idempotent, and preserves directed suprema.  Its
fixed points form the largest continuous subposet, and collapsing elements
with equal kernel values yields a quotient order-isomorphic to that retract.
Each of those claims has a checker here.  On finite carriers every check
is exhaustive: the laws stated over all directed sets scan the directed
subsets as bit masks, since each one holds its maximum, and a finite
carrier above ``core.FINITE_CAP`` elements raises SizeLimit.  On symbolic
carriers the checks sample and scan the family bank and report honestly
(Unrefuted, never Verified, unless a certified closed form stands behind
the claim).  ``LAWS`` maps each ``--law`` name to its checker.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .core import (PosetPresentation, check_conditionally_complete,
                   check_continuity, check_interpolation, check_subposet,
                   _bits, _mask, is_approximable, is_element, resolve_scope,
                   sample_pool)
from .errors import (EmptyFamily, NoInfimumError, NotApproximable, PosetError,
                     PreconditionUnverified, ScopeUnsupported)
from .families import ChainFamily, ExplicitFamily
from .oracle import continuous_subposets_bruteforce
from .reports import (BANK, EXHAUSTIVE, CheckReport, Scope, Status, combine,
                      refuted, sampled, unrefuted, verified)


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
    """Planted self-test fixture: the identity except that the first
    interesting element below another is sent up to it, so deflation must
    be refuted by check_kernel_laws."""
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
        pool = [x for x in sample_pool(P, rng, scope.count)
                if P.waybelow_family(x) is not None]
        if not pool:
            return unrefuted(law, 0, scope, "no approximable elements sampled")
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


def _chain_sup(P: PosetPresentation, chain: ChainFamily):
    """The declared supremum of a symbolic chain, after probing that it
    dominates the sampled members."""
    for m in chain.sample_members():
        if not P.leq(m, chain.supremum):
            raise PosetError(
                f"declared supremum of chain {chain.label!r} does not "
                f"dominate a sampled member")
    return chain.supremum


def check_scott_continuity(P: PosetPresentation) -> CheckReport:
    """k(sup D) against sup k(D) for every bank family D inside the
    approximable part; the image supremum is asserted to lie in the
    retract.

    A finite carrier's bank is every directed subset D.  D holds its
    maximum t, so the law at D reads: k(m) <= k(t) for each member m, and
    k(t) lies in the retract; the scan decides that against per-element
    masks and reports Verified.  A symbolic bank is a sample: Unrefuted."""
    law = "scott-continuity"
    judge = lambda fam: _scott_at(P, fam)
    if resolve_scope(P).kind != "exhaustive":
        return _tally(law, map(judge, P.family_bank()), BANK, False,
                      counted=True)
    elems, fp, approx = _finite_part(P)
    index = {e: i for i, e in enumerate(elems)}
    kernel = {}  # index -> index of its kernel value, where it has one
    for i in _bits(approx):
        try:
            kernel[i] = index[kernel_of(P, elems[i])]
        except PosetError:
            pass  # every subset holding i goes to the judge
    retract = _mask(i for i, e in enumerate(elems) if in_retract(P, e))
    below = [0] * fp.n  # the m with k(m) <= k(t), if k(t) is in the retract
    for t, kt in kernel.items():
        if retract >> kt & 1:
            below[t] = _mask(m for m, km in kernel.items() if fp.leq(km, kt))
    verdicts = _scan(P, elems, fp, judge, lambda mask, top: (
        None if mask & ~approx else not mask & ~below[top]))
    return _tally(law, verdicts, BANK, True, counted=True)


def _scott_at(P: PosetPresentation, fam):
    """The Scott-continuity verdict (see ``_scan``) at one bank family."""
    members = fam.sample_members()
    if not all(P.waybelow_family(m) is not None for m in members):
        return None
    label = fam.label or fam
    explicit = isinstance(fam, ExplicitFamily)
    d0 = fam.supremum if explicit else _chain_sup(P, fam)
    if P.waybelow_family(d0) is None:
        return label, ("supremum of an approximable directed family is not "
                       "approximable")
    k_sup = kernel_of(P, d0)
    if explicit:
        s = P.finite_sup(tuple(kernel_of(P, m) for m in members))
        if not is_element(s):
            return label, "kernel image has no supremum"
    else:
        if not all(P.leq(kernel_of(P, m), k_sup) for m in members):
            return label, "a kernel image escapes k(sup)"
        s = fam.kernel_image_sup
    if s != k_sup:
        what = "sup of kernel images" if explicit \
            else "certified image supremum"
        return label, (f"k(sup) = {P.format_element(k_sup)} but {what} = "
                       f"{P.format_element(s)}")
    if not in_retract(P, s):
        return label, "image supremum escapes the retract"
    return True


def _finite_part(P: PosetPresentation):
    """The elements of a finite carrier, their order, and the mask of the
    approximable ones."""
    elems = P.elements()
    approx = _mask(i for i, e in enumerate(elems)
                   if P.waybelow_family(e) is not None)
    return elems, P.poset, approx


def _scan(P: PosetPresentation, elems, fp, judge, decide):
    """The verdicts of a bank law over every directed subset of a finite
    carrier, in mask order.  ``decide(mask, top)`` gives the verdict from
    per-element masks (``top`` is the subset's maximum), or False when the
    subset may fail; then ``judge`` sees it as a family labelled by its
    elements and writes the refutation."""
    for mask, top in fp.directed_subset_masks:
        verdict = decide(mask, top)
        if verdict is False:
            members = tuple(elems[i] for i in _bits(mask))
            verdict = judge(ExplicitFamily(members, elems[top], label="{" + (
                ", ".join(map(P.format_element, members))) + "}"))
        yield verdict


def _tally(law, verdicts, scope, complete, counted=False):
    """The report of a bank law from its verdicts, one per family: None
    where the law does not apply, True where it holds, else the refutation
    ``(witness, reason)``, which carries the count so far when ``counted``."""
    count = 0
    for verdict in verdicts:
        if verdict is True:
            count += 1
        elif verdict:
            return refuted(law, *verdict, scope, samples=count if counted
                           else 0)
    return _finish(law, complete, count, scope)


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
            return unrefuted(law, 0, scope, "no approximable elements sampled")
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
    force, up to ``FINITE_CAP`` elements.  On an honest finite poset every
    subset passes, so on finite carriers this law cross-checks the
    presentation against the oracle: it refutes when a declared approximant
    supremum leaves an element out of the retract.  A symbolic carrier
    with a certified non-continuity witness x (``continuity_counterexample``):
    refute the targeted candidate Q ∪ {x} and sample-confirm that its
    compact elements (``compact_below``) lie in the retract Q; any other
    symbolic carrier: sample-confirm that Q is continuous.  Universal
    quantification over subposets of an infinite carrier is out of reach,
    so the overall status stays Unrefuted there.
    """
    law = "largest-retract"
    scope = resolve_scope(P, scope)
    if scope.kind == "exhaustive":
        elems = P.elements()
        retract = _mask(i for i, e in enumerate(elems) if in_retract(P, e))
        passing = continuous_subposets_bruteforce(P.poset)
        for mask in passing:
            if mask & ~retract:
                return refuted(law, tuple(elems[i]
                                          for i in _bits(mask & ~retract)),
                               "a continuous subposet escapes the retract",
                               scope)
        # a finite poset passes as its own full subset, so the retract is
        # the full set here
        return verified(law, scope)
    witness = P.continuity_counterexample()
    if witness is None:
        subs = [_confirm_retract_continuity(P, scope)]
    else:
        subs = [_refute_candidate(P, witness),
                _confirm_compact_elements(P, scope)]
    return combine(law, subs, scope)


def _refute_candidate(P: PosetPresentation, witness) -> CheckReport:
    """The candidate R = Q ∪ {witness} is not a continuous subposet: inside
    R the approximants of the witness have a supremum below it."""
    law = "largest-retract:candidate-beyond-retract"
    w = P.format_element(witness)
    fam = P.waybelow_family(witness)
    if fam is None:
        return verified(law, BANK, reason=f"candidate refuted: {w} has no "
                        "approximants at all, hence none inside R")
    s = _sup_inside_retract(P, witness, fam)
    if s is None:
        raise PosetError(f"the approximants of {w} have no supremum inside "
                         "R; the catalog entry is corrupt")
    if s == witness:
        return refuted(law, witness,
                       f"candidate unexpectedly continuous at {w}", BANK)
    return verified(
        law, BANK,
        reason=f"candidate refuted: sup of approximants of {w} inside R "
               f"= {P.format_element(s)} != {w}")


def _sup_inside_retract(P: PosetPresentation, x, fam):
    """The supremum of the approximants of x inside R = Q ∪ {x}, from x's
    approximant family: the join of its members in R, or a chain's certified
    ``kernel_image_sup``; None when an explicit family has nothing to join
    or no join."""
    if not isinstance(fam, ExplicitFamily):
        return fam.kernel_image_sup
    members = tuple(m for m in fam.members if m == x or in_retract(P, m))
    s = P.finite_sup(members) if members else None
    return s if is_element(s) else None


def _confirm_compact_elements(P: PosetPresentation,
                              scope: Scope) -> CheckReport:
    """The compact elements below sampled elements sit inside the retract
    (on closed sets: the sublattice of finite sets)."""
    law = "largest-retract:finite-sublattice"
    rng = random.Random(scope.seed)
    count = 0
    for x in P.sample_elements(rng, scope.count):
        c = P.compact_below(x)
        if c is None:
            continue
        if not in_retract(P, c):
            return refuted(law, c, "compact element escapes the retract",
                           scope)
        count += 1
    return unrefuted(law, count, scope)


def _confirm_retract_continuity(P: PosetPresentation,
                                scope: Scope) -> CheckReport:
    """Sampled retract elements are the suprema of their approximants
    inside the retract (elements where that supremum is unknown are
    skipped)."""
    law = "largest-retract:retract-is-continuous"
    rng = random.Random(scope.seed)
    count = 0
    for x in sample_pool(P, rng, scope.count):
        if not in_retract(P, x):
            continue
        s = _sup_inside_retract(P, x, P.waybelow_family(x))
        if s is None:
            continue
        if s != x:
            return refuted(law, x, f"sup of its approximants inside the "
                           f"retract = {P.format_element(s)}", scope)
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
    buckets = {}  # kernel value -> its class, in order of first appearance
    for x in sample:
        P.require(x)
        fam = P.waybelow_family(x)
        if fam is None:
            raise NotApproximable(
                f"{P.format_element(x)} has no approximants")
        buckets.setdefault(fam.supremum, []).append(x)
    classes = tuple(map(tuple, buckets.values()))
    values = tuple(buckets)
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
    scope = resolve_scope(P, scope)
    return _check_inf_instance(P, A, scope, _retract_pool(P, scope))


def _retract_pool(P: PosetPresentation, scope: Scope) -> list:
    """The retract elements of the scope: every element when exhaustive,
    else the sample pool."""
    if scope.kind == "exhaustive":
        pool = P.elements()
    else:
        pool = sample_pool(P, random.Random(scope.seed), scope.count)
    return [x for x in pool if in_retract(P, x)]


def _check_inf_instance(P: PosetPresentation, A, scope: Scope,
                        pool) -> CheckReport:
    """check_inf_preservation within a resolved scope, against the retract
    lower bounds found in ``pool``."""
    law = "infima-preservation"
    A = tuple(dict.fromkeys(A))
    if not A:
        raise EmptyFamily("need a nonempty retract subset")
    for a in A:
        P.require(a)
        if not in_retract(P, a):
            raise PosetError(f"{P.format_element(a)} is not in the retract")
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
    for c in pool:
        if all(P.leq(c, a) for a in A) and not P.leq(c, candidate):
            return refuted(law, c,
                           "a retract lower bound escapes the kernel of "
                           "the infimum", scope)
    return _finish(law, scope.kind == "exhaustive", len(pool), scope)


def check_inf_preservation_sampled(P: PosetPresentation,
                                   scope: Scope | None = None) -> CheckReport:
    """check_inf_preservation over the kind's ``inf_instances``, then over
    sampled retract subsets of two or three elements.

    The instances are drawn with the seed and count of ``scope`` (or
    ``sampled()``) on every carrier; each one is decided within
    ``resolve_scope(P, scope)``, exhaustively on finite carriers.  The
    instances are a sample, so a clean run is Unrefuted, never Verified.
    """
    law = "infima-preservation"
    outer = scope or sampled()
    instances = list(P.inf_instances())
    rng = random.Random(outer.seed)
    pool = [x for x in sample_pool(P, rng, 200) if in_retract(P, x)]
    want = max(10, outer.count // 10)
    while len(instances) < want and len(pool) >= 2:
        size = rng.randint(2, min(3, len(pool)))
        instances.append(tuple(rng.sample(pool, size)))
    inner = resolve_scope(P, scope)
    lower_bounds = _retract_pool(P, inner)
    parts = []
    skipped = 0
    for inst in instances:
        try:
            parts.append(_check_inf_instance(P, inst, inner, lower_bounds))
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

    On a finite carrier the first two scan every directed subset as a mask
    (see ``check_scott_continuity``) and the last two exhaust the elements,
    so all four can be Verified.  On a symbolic carrier the first two scan
    the family bank and the last two sample.
    """
    scope = resolve_scope(P, scope)
    rng = random.Random(scope.seed)
    pool = sample_pool(P, rng, scope.count)
    approx_pool = [x for x in pool if P.waybelow_family(x) is not None]
    complete = scope.kind == "exhaustive"
    restrict = lambda fam: _restriction_at(P, fam)
    meet = lambda fam: _meet_at(P, fam, approx_pool)
    if complete:  # the pool holds every element of a finite carrier
        elems, fp, approx = _finite_part(P)
        restricted = _scan(P, elems, fp, restrict, lambda mask, top: (
            bool(approx >> top & 1) if mask & approx else None))
        met = _scan(P, elems, fp, meet, lambda mask, top: (
            bool(mask & approx) if fp.down[top] & approx else None))
    else:
        bank = P.family_bank()
        restricted, met = map(restrict, bank), map(meet, bank)
    subs = [
        _tally("directed-restriction", restricted, scope, complete),
        _tally("restriction-nonempty", met, scope, complete),
        _law_double_approximation(P, approx_pool, scope, complete),
        _law_retract_approximation(P, pool, scope, complete),
    ]
    return combine("approximation-laws", subs, scope)


def _finish(law, complete, count, scope):
    return verified(law, scope, samples=count) if complete \
        else unrefuted(law, count, scope)


def _restriction_at(P, fam):
    """The directed-restriction verdict (see ``_scan``) at one family."""
    members = fam.sample_members()
    inside = [m for m in members if P.waybelow_family(m) is not None]
    if not inside:
        return None
    label = fam.label or fam
    if P.waybelow_family(fam.supremum) is None:
        return label, ("supremum of a family meeting the approximable part "
                       "is not approximable")
    if isinstance(fam, ExplicitFamily):
        directed = all(any(P.leq(a, c) and P.leq(b, c) for c in inside)
                       for a in inside for b in inside)
        if not directed:
            return label, ("restriction to the approximable part is not "
                           "directed")
        s = P.finite_sup(tuple(inside))
        if not is_element(s) or s != fam.supremum:
            return label, "restricted supremum differs"
    elif len(inside) != len(members):
        return None  # cannot restrict a chain by samples alone
    elif not all(P.leq(a, b) for a, b in zip(inside, inside[1:])):
        return label, "chain not monotone"
    return True


def _meet_at(P, fam, approx_pool):
    """The restriction-nonempty verdict (see ``_scan``) at one family."""
    members = fam.sample_members()
    for y in approx_pool:
        if P.leq(y, fam.supremum):
            if not any(P.waybelow_family(m) is not None for m in members):
                return (fam.label or fam, y), (
                    "family dominates an approximable element but misses "
                    "the approximable part")
            return True
    return None


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
