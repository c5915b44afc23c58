"""The approximation kernel, its continuous retract, and the law checkers.

On the approximable part of a conditionally-complete interpolating poset,
the map sending x to the supremum of its approximants is a kernel: it is
deflationary, monotone, idempotent, and preserves directed suprema.  Its
fixed points form the largest continuous subposet, and collapsing elements
with equal kernel values yields a quotient order-isomorphic to that retract
(``commands.quotient_structure``).  Each of those claims has a checker
here.  On finite carriers every check but ``inf`` is exhaustive (``inf``
samples the retract subsets it decides): a finite directed set is its
maximum t plus a subset of the down-set of t, so the laws stated over all
directed sets are decided from per-element masks, at any size.  On
symbolic carriers the checks sample and scan the family bank and report
honestly (Unrefuted, never Verified, unless a certified closed form stands
behind the claim); the scope, bank and largest-retract laws keep those
halves in ``sampled_laws``, which loads only for such a carrier.  ``LAWS``
maps each ``--law`` name to its checker.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache, reduce
from itertools import chain
from operator import and_

from .core import (PosetPresentation, check_conditionally_complete,
                   check_continuity, check_interpolation, check_subposet,
                   _bits, _directed, _generators, _mask, _mask_family,
                   is_approximable, is_element, resolve_scope, scope_pool)
from .errors import (EmptyFamily, NoInfimumError, NotApproximable, PosetError,
                     PreconditionUnverified)
from .families import ExplicitFamily
from .reports import (EXHAUSTIVE, CheckReport, Scope, Status, combine,
                      refuted, sampled, unrefuted, verified)


def kernel_of(P: PosetPresentation, x):
    """Supremum of the approximants of x, as the presentation's
    ``kernel_value``, checked to deflate."""
    P.require(x)
    value = P.kernel_value(x)
    if value is None:
        raise NotApproximable(
            f"{P.format_element(x)} has no approximants; the kernel is "
            "undefined there")
    if not P.leq(value, x):
        raise PosetError("approximant family supremum fails to deflate; "
                         "the catalog entry is corrupt")
    return value


def in_retract(P: PosetPresentation, x) -> bool:
    """Membership in the largest continuous retract: x is approximable and
    fixed by the kernel."""
    P.require(x)
    return P.kernel_value(x) == x


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
            if P.kernel_value(x) is None:
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
    k = cache(kernel or (lambda x: kernel_of(P, x)))  # a raise is not kept
    scope = resolve_scope(P, scope)
    pool, rng = scope_pool(P, scope)
    xs = [x for x in pool if P.kernel_value(x) is not None]
    if scope.kind == "exhaustive":
        pairs = [(x, y) for x in xs for y in xs if P.leq(x, y)]
    else:
        if not xs:
            return unrefuted(law, 0, scope, "no approximable elements sampled")
        approx, xs = xs, xs[:scope.count]
        pairs = []
        for _ in range(scope.count):
            x, y = rng.choice(approx), rng.choice(approx)
            if P.leq(x, y):
                pairs.append((x, y))
            else:
                s = P.finite_sup((x, y))
                if is_element(s) and P.kernel_value(s) is not None:
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
    return _finish(law, len(xs) + len(pairs), scope)


def check_scott_continuity(P: PosetPresentation) -> CheckReport:
    """k(sup D) against sup k(D) for every bank family D inside the
    approximable part; the image supremum is asserted to lie in the
    retract.

    On a finite carrier the law ranges over every directed subset D.  D
    holds its maximum t, so the law at D reads: k(m) <= k(t) for each
    member m, and k(t) lies in the retract, so D fails where a generator
    {m, t} in it fails (``_decided``): the law is Verified, scope exhaustive.
    A symbolic bank: Unrefuted, scope bank."""
    if resolve_scope(P).kind != "exhaustive":
        from .sampled_laws import _scott_bank
        return _scott_bank(P)
    elems, fp, approx = _finite_part(P)
    kernel = {}  # index -> its kernel value, where it has one
    for i in _bits(approx):
        try:
            kernel[i] = kernel_of(P, elems[i])
        except PosetError:
            pass  # every pair holding i goes to the judge
    failing = {}  # t -> the m below t at which {m, t} fails
    for t in _bits(approx):
        kt = kernel.get(t)
        holds = kt is not None and in_retract(P, kt)
        failing[t] = _mask(m for m in _bits(fp.down[t] & approx) if not (
            holds and m in kernel and P.leq(kernel[m], kt)))
    return _decided(P, "scott-continuity", lambda fam: _scott_at(P, fam),
                    failing, approx, approx, EXHAUSTIVE, counted=True)


_UNAPPROXIMABLE_SUP = ("supremum of an approximable directed family is not "
                      "approximable")


def _scott_at(P: PosetPresentation, fam):
    """The Scott-continuity verdict (see ``_decided``) at an explicit
    family; ``sampled_laws._scott_chain_at`` is the one at a chain."""
    members = fam.sample_members()
    if not all(P.kernel_value(m) is not None for m in members):
        return None
    label = fam.label or fam
    if P.kernel_value(fam.supremum) is None:
        return label, _UNAPPROXIMABLE_SUP
    k_sup = kernel_of(P, fam.supremum)
    s = P.finite_sup(tuple(kernel_of(P, m) for m in members))
    if not is_element(s):
        return label, "kernel image has no supremum"
    return _image_verdict(P, label, k_sup, s, "sup of kernel images")


def _image_verdict(P: PosetPresentation, label, k_sup, s, what):
    """The Scott-continuity verdict once the kernel image of a family has
    the supremum ``s``: it must be k(sup), in the retract."""
    if s != k_sup:
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
                   if P.kernel_value(e) is not None)
    return elems, P.poset, approx


def _decided(P: PosetPresentation, law, judge, failing, tops, within, scope,
             counted=False):
    """A bank law on a finite carrier, over the directed subsets inside
    ``within`` with maximum in ``tops``.  One with maximum t fails when it
    holds an m in ``failing[t]``, and then so does {m, t}: ``judge`` refutes
    at the first such generator (``_generators``).  The subsets are counted:
    all, or those before the refuting one when ``counted``."""
    elems, fp = P.elements(), P.poset
    for mask, top in _generators(failing.items()):
        verdict = judge(_mask_family(P, elems, mask, top))
        if verdict and verdict is not True:
            return refuted(law, *verdict, scope, samples=_count_directed(
                fp, tops, within, mask) if counted else 0)
    return verified(law, scope, samples=_count_directed(fp, tops, within))


def _count_directed(fp, tops, within, bound=None):
    """How many directed subsets t ∪ X (X inside the rest of the down-set
    of t) lie inside ``within``, with t in ``tops``, below ``bound``: above
    some bit b, 1 in ``bound`` and 0 in t ∪ X, they agree, and X is open."""
    bound = 1 << fp.n if bound is None else bound
    total = 0
    for t in _bits(tops & within):
        rest = fp.down[t] & within & ~(1 << t)
        for b in _bits(bound & ~(1 << t)):
            if not (bound ^ 1 << t) & (-2 << b) & ~rest:
                total += 1 << (rest & ((1 << b) - 1)).bit_count()
    return total


def check_waybelow_kernel_equivalence(P: PosetPresentation,
                                      scope: Scope | None = None
                                      ) -> CheckReport:
    """v << x iff v << k(x), for approximable x."""
    law = "waybelow-kernel-equivalence"
    scope = resolve_scope(P, scope)
    pool, rng = scope_pool(P, scope)
    approx = [x for x in pool if P.kernel_value(x) is not None]
    if scope.kind == "exhaustive":
        pairs = [(v, x) for v in pool for x in approx]
    else:
        if not approx:
            return unrefuted(law, 0, scope, "no approximable elements sampled")
        pairs = [(rng.choice(pool), rng.choice(approx))
                 for _ in range(scope.count)]
    k = cache(lambda x: kernel_of(P, x))  # a raise is not kept: it recurs
    for v, x in pairs:
        if P.waybelow(v, x) != P.waybelow(v, k(x)):
            return refuted(law, (v, x),
                           f"v << x is {P.waybelow(v, x)} but v << k(x) is "
                           f"{not P.waybelow(v, x)}", scope)
    return _finish(law, len(pairs), scope)


def check_largest_retract(P: PosetPresentation,
                          scope: Scope | None = None) -> CheckReport:
    """Every continuous subposet sits inside the retract.

    Finite carriers: every subset of a finite poset is a continuous
    subposet (its way-below is its order), so the law cross-checks the
    presentation: it refutes at the singleton of the first element that a
    declared approximant supremum leaves out of the retract.  A symbolic
    carrier
    with a certified non-continuity witness x (``continuity_counterexample``):
    refute the targeted candidate Q ∪ {x} and sample-confirm that its
    compact elements (``compact_below``) lie in the retract Q; any other
    symbolic carrier: sample-confirm that Q is continuous.  Universal
    quantification over subposets of an infinite carrier is out of reach,
    so the overall status stays Unrefuted there.
    """
    scope = resolve_scope(P, scope)
    if scope.kind != "exhaustive":
        from .sampled_laws import _retract_sampled
        return _retract_sampled(P, scope)
    for x in P.elements():
        if not in_retract(P, x):
            return refuted("largest-retract", (x,), "a continuous subposet "
                           "escapes the retract", scope)
    return verified("largest-retract", scope)


# ---------------------------------------------------------------------------
# Infima preservation


def check_inf_preservation(P: PosetPresentation, A,
                           scope: Scope | None = None) -> CheckReport:
    """The kernel of the infimum of a retract subset is the greatest lower
    bound of that subset inside the retract (over the searchable scope)."""
    scope = resolve_scope(P, scope)
    pool = _retract_pool(P, scope)
    return _check_inf_instance(P, A, scope, pool, _coded(P, pool, [A]))


def _retract_pool(P: PosetPresentation, scope: Scope) -> list:
    """The retract elements of the scope's pool (``scope_pool``)."""
    return [x for x in scope_pool(P, scope)[0] if in_retract(P, x)]


def _coded(P: PosetPresentation, pool, instances) -> dict:
    """The order codes (``P.order_codes``) of the elements of ``pool`` and
    of the instances, by element.  An element outside P gets none: the
    instance check rejects it before it reads a code."""
    elems = [x for x in dict.fromkeys(chain(pool, *instances))
             if P.contains(x)]
    return dict(zip(elems, P.order_codes(elems)))


def _check_inf_instance(P: PosetPresentation, A, scope: Scope, pool,
                        codes) -> CheckReport:
    """check_inf_preservation within a resolved scope, against the retract
    lower bounds found in ``pool``.  ``codes`` (see ``_coded``) find the
    pool's lower bounds of A; ``leq`` confirms one before it refutes."""
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
    if P.kernel_value(g) is None:
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
    bound = reduce(and_, (codes[a] for a in A))
    for c in pool:
        if (not codes[c] & ~bound and not P.leq(c, candidate)
                and all(P.leq(c, a) for a in A)):
            return refuted(law, c,
                           "a retract lower bound escapes the kernel of "
                           "the infimum", scope)
    return _finish(law, len(pool), scope)


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
    pool, rng = scope_pool(P, sampled(outer.seed, 200))
    pool = [x for x in pool if in_retract(P, x)]
    want = max(10, outer.count // 10)
    while len(instances) < want and len(pool) >= 2:
        size = rng.randint(2, min(3, len(pool)))
        instances.append(tuple(rng.sample(pool, size)))
    inner = resolve_scope(P, scope)
    lower_bounds = _retract_pool(P, inner)
    codes = _coded(P, lower_bounds, instances)
    parts = []
    skipped = 0
    for inst in instances:
        try:
            parts.append(_check_inf_instance(P, inst, inner, lower_bounds,
                                             codes))
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

    On a finite carrier a directed subset with maximum t outside the
    approximable part fails the first at a pair {m, t} with m inside and
    the second at {t} (``_decided``), and the last two exhaust the
    elements: all four can be Verified.  On a symbolic carrier the first
    two scan the family bank and the last two sample.
    """
    scope = resolve_scope(P, scope)
    pool = scope_pool(P, scope)[0]
    approx_pool = [x for x in pool if P.kernel_value(x) is not None]
    if scope.kind == "exhaustive":
        elems, fp, approx = _finite_part(P)
        full = (1 << fp.n) - 1
        outside = list(_bits(full & ~approx))
        tops = [t for t in outside if fp.down[t] & approx]
        restricted = _decided(
            P, "directed-restriction", lambda fam: _restriction_at(P, fam),
            {t: fp.down[t] & approx for t in outside}, approx, full, scope)
        met = _decided(
            P, "restriction-nonempty",
            _meet_judge(P, approx_pool, [elems[t] for t in tops]),
            {t: 1 << t for t in tops}, approx, full, scope)
    else:
        from .sampled_laws import _restriction_bank
        restricted, met = _restriction_bank(P, approx_pool, scope)
    subs = [restricted, met,
            _law_double_approximation(P, approx_pool, scope),
            _law_retract_approximation(P, pool, scope)]
    return combine("approximation-laws", subs, scope)


def _finish(law, count, scope):
    return verified(law, scope, samples=count) \
        if scope.kind == "exhaustive" else unrefuted(law, count, scope)


def _restriction_at(P, fam):
    """The directed-restriction verdict (see ``_decided``) at one family."""
    members = fam.sample_members()
    inside = [m for m in members if P.kernel_value(m) is not None]
    if not inside:
        return None
    label = fam.label or fam
    if P.kernel_value(fam.supremum) is None:
        return label, ("supremum of a family meeting the approximable part "
                       "is not approximable")
    if isinstance(fam, ExplicitFamily):
        if not _directed(P, inside):
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


def _meet_judge(P, approx_pool, sups):
    """``_meet_at`` as the judge of families whose suprema are among
    ``sups``.  The order codes it reads, of the approximable pool and of
    ``sups`` (``_coded``), are built once, when the first family is
    judged."""

    @cache
    def coded():
        codes = _coded(P, approx_pool, [sups])
        return [(y, codes[y]) for y in approx_pool], codes

    return lambda fam: _meet_at(P, fam, *coded())


def _meet_at(P, fam, pool, codes):
    """The restriction-nonempty verdict (see ``_decided``) at one family:
    when its supremum lies above an element of the approximable pool, some
    member must be approximable, and a refutation names the first such
    element in pool order.  ``pool`` pairs each element with its order
    code and ``codes`` holds the supremum's; an element whose code lies
    below is confirmed with ``leq``."""
    members = fam.sample_members()
    sup = codes[fam.supremum]
    for y, code in pool:
        if not code & ~sup and P.leq(y, fam.supremum):
            if not any(P.kernel_value(m) is not None for m in members):
                return (fam.label or fam, y), (
                    "family dominates an approximable element but misses "
                    "the approximable part")
            return True
    return None


def _law_double_approximation(P, approx_pool, scope):
    law = "double-approximation"
    count = 0
    for x in approx_pool[:scope.count]:
        if not any(P.kernel_value(m) is not None and P.waybelow(m, x)
                   for m in P.waybelow_family(x).iter_members()):
            return refuted(law, x, "no approximable approximant", scope)
        count += 1
    if scope.kind != "exhaustive":
        subset_scope = sampled(scope.seed, max(scope.count // 4, 32))
        agreement = check_subposet(
            P, subset_scope, lambda y: P.kernel_value(y) is not None)
        if agreement.status is Status.REFUTED:
            return refuted(law, agreement.witness,
                           f"approximable-part way-below disagrees: "
                           f"{agreement.reason}", scope)
        count += agreement.samples
    return _finish(law, count, scope)


def _law_retract_approximation(P, pool, scope):
    law = "retract-approximation"
    count = 0
    for x in pool:
        if not in_retract(P, x):
            continue
        if not any(in_retract(P, m) and P.waybelow(m, x)
                   for m in P.waybelow_family(x).iter_members()):
            return refuted(law, x, "no approximant inside the retract",
                           scope)
        count += 1
    return _finish(law, count, scope)


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
