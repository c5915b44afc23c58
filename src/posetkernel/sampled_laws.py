"""The laws on a symbolic carrier: the sampled and bank-only halves of the
checkers of ``core`` and ``kernel``.

``core.resolve_scope`` picks exhaustive checking for a finite carrier and a
sampled scope for a symbolic one, and ``core._axiom``, the one dispatcher
of every law but ``inf``, imports this module only when it picks the
sampled scope, so a finite answer never compiles it.  Here the element
pools come from ``core.scope_pool`` and ``core.scope_draw``, the bank from
``family_bank()``, and every refutation names its witness; a clean run is
Unrefuted, or Verified where a certified closed form stands behind it.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import chain
from operator import or_

from .core import (PosetPresentation, _continuity_failure, _interpolated,
                   family_dominates, is_element, scope_draw, scope_pool)
from .errors import PosetError
from .families import ChainFamily, ExplicitFamily
from .kernel import (_UNAPPROXIMABLE_SUP, _equivalence, _image_verdict,
                     _kernel_laws, _law_double_approximation,
                     _law_retract_approximation, _meet_judge,
                     _restriction_at, _scott_at, in_retract, kernel_of)
from .reports import (BANK, DEFAULT_SUBSET_SAMPLES, CheckReport, Scope,
                      Status, combine, refuted, sampled, unrefuted, verified)

# ---------------------------------------------------------------------------
# The order axioms of core


def _cc_sampled(P, scope):
    """Sampled subsets of the pool, each with its reported supremum held
    against the pool's upper bounds of it (a subset reported without a
    supremum must have none), then the bank families.  The upper bounds
    are found by order codes (``P.order_codes``) and each is confirmed
    with ``leq`` before it refutes.  A finite directed family holds its
    maximum, which is its supremum, so an explicit family is refuted
    exactly: its declared supremum must dominate every member and be one
    of them.  At most ``DEFAULT_SUBSET_SAMPLES`` (200) subsets are drawn,
    whatever the scope's count: ``--samples`` does not raise it."""
    law = "conditionally_complete"
    pool, rng = scope_pool(P, scope)
    codes = P.order_codes(pool)
    checked = 0
    for _ in range(min(scope.count, DEFAULT_SUBSET_SAMPLES)):
        size = rng.randint(2, 4)
        if len(pool) < size:
            break
        picks = rng.sample(range(len(pool)), size)  # as rng.sample(pool, size)
        subset = tuple(pool[i] for i in picks)
        s = P.finite_sup(subset)
        if is_element(s) and not all(P.leq(a, s) for a in subset):
            return refuted(law, subset,
                           "reported supremum is not an upper bound",
                           scope, samples=checked)
        bound = reduce(or_, (codes[i] for i in picks))
        for u, code in zip(pool, codes):
            if (bound & ~code or is_element(s) and P.leq(s, u)
                    or not all(P.leq(a, u) for a in subset)):
                continue
            return refuted(law, subset, (
                f"supremum not least: {P.format_element(u)} is a "
                "smaller-incomparable upper bound" if is_element(s) else
                "bounded-above subset without a least upper bound"),
                scope, samples=checked)
        checked += 1
    for fam in P.family_bank():
        members = fam.sample_members()
        if not all(P.leq(m, fam.supremum) for m in members):
            return refuted(law, fam.label or fam,
                           "declared supremum does not dominate a member",
                           scope, samples=checked)
        if isinstance(fam, ExplicitFamily) and fam.supremum not in members:
            return refuted(law, fam.label or fam,
                           "declared supremum is not a member", scope,
                           samples=checked)
        checked += 1
    if P.certified_conditionally_complete:
        return verified(law, scope,
                        reason="certified for the kind; probes consistent",
                        samples=checked)
    return unrefuted(law, checked, scope)


def _interp_sampled(P, scope):
    """Sampled way-below pairs of the pool have interpolants in the pool;
    Verified only where ``certified_interpolating``."""
    law = "interpolating"
    pool, rng = scope_pool(P, scope)
    checked = 0
    for _ in range(scope.count):
        x, y = rng.choice(pool), rng.choice(pool)
        if not P.waybelow(x, y):
            continue
        if not _interpolated(P, x, y, pool):
            return refuted(law, (x, y), "no interpolant found in scope",
                           scope, samples=checked)
        checked += 1
    if P.certified_interpolating:
        return verified(law, scope,
                        reason="certified closed-form witness; spot-checked",
                        samples=checked)
    return unrefuted(law, checked, scope)


def _cont_sampled(P, scope):
    law = "continuous"
    ce = P.continuity_counterexample()
    if not P.certified_continuous:  # refuted at ce, whatever the count
        why = ce is not None and _continuity_failure(P, ce)
        if not why:
            raise PosetError(f"{P.name} names no refuting counterexample; "
                             "the catalog entry is corrupt")
        return refuted(law, ce, why, scope, samples=1)
    pool = [] if ce is None else [ce]
    pool.extend(scope_pool(P, scope)[0])
    pool = list(dict.fromkeys(pool))[:scope.count]
    for i, x in enumerate(pool, 1):
        why = _continuity_failure(P, x)
        if why:
            return refuted(law, x, why, scope, samples=i)
    return verified(law, scope, reason="certified for the kind",
                    samples=len(pool))


def _subposet_sampled(P, scope, member):
    """Way-below pairs drawn inside the subset, probed against the bank
    families that lie in it.  The pool is the subset's interesting elements,
    then parent samples drawn one at a time that land in the subset.  The
    order codes (``P.order_codes``) of the pool, the bank suprema and the
    sampled bank members decide ``y <= supremum`` and whether a sampled
    member dominates x; ``leq`` and ``family_dominates`` confirm a family
    before it refutes.  Explicit families with one supremum code and one
    set of maximal member codes answer every pair alike, so only the first
    of them in bank order is scanned.  That holds when the codes are
    faithful to ``leq``; with codes that are not, a skipped family that
    would have been confirmed and refuted is lost, though no false
    refutation is made."""
    law = "subposet"
    rng = random.Random(scope.seed)
    pool = [e for e in P.interesting_elements() if member(e)]
    wanted = len(pool) + scope.count
    budget = scope.count * 8
    while len(pool) < wanted and budget:
        budget -= 1
        pool.extend(e for e in P.sample_elements(rng, 1) if member(e))
    pool = list(dict.fromkeys(pool))
    bank = [fam for fam in P.family_bank() if member(fam.supremum)
            and all(member(m) for m in fam.sample_members())]
    listed = list(dict.fromkeys(chain(
        pool, (fam.supremum for fam in bank),
        *(fam.sample_members() for fam in bank))))
    code = dict(zip(listed, P.order_codes(listed))).__getitem__
    pool_codes = list(map(code, pool))
    coded_bank, seen = [], set()
    for fam in bank:
        sup = code(fam.supremum)
        members = list(map(code, fam.sample_members()))
        if isinstance(fam, ExplicitFamily):
            key = sup, frozenset(m for m in members if not any(
                m != d and not m & ~d for d in members))
            if key in seen:
                continue
            seen.add(key)
        coded_bank.append((fam, sup, members))
    dominated = {}  # (pool index, bank index) -> family_dominates

    def dominates(i, f):
        key = i, f
        if key not in dominated:
            fam, _, members = coded_bank[f]
            cx = pool_codes[i]
            dominated[key] = any(not cx & ~m for m in members) or (
                not isinstance(fam, ExplicitFamily)
                and bool(fam.member_dominates(pool[i])))
        return dominated[key]

    indices = range(len(pool))
    confirmed = 0
    for _ in range(scope.count):
        if not pool:
            break
        i, j = rng.choice(indices), rng.choice(indices)  # as rng.choice(pool)
        x, y = pool[i], pool[j]
        cy = pool_codes[j]
        ambient = P.waybelow(x, y)
        for f, (fam, sup, _) in enumerate(coded_bank):
            if cy & ~sup or dominates(i, f):
                continue
            if ambient:
                if not P.leq(y, fam.supremum) or family_dominates(P, fam, x):
                    continue
                return refuted(
                    law, (x, y),
                    f"family {fam.label!r} inside the subset refutes an "
                    "ambient way-below pair", scope, samples=confirmed)
            confirmed += 1
            break
        else:
            if ambient:
                confirmed += 1
    return unrefuted(law, confirmed, scope)


# ---------------------------------------------------------------------------
# The laws of kernel


def _kernel_sampled(P, scope, kernel=None):
    """``kernel.check_kernel_laws`` at the first ``scope.count``
    approximable elements of the pool and at drawn pairs of them; an
    unordered pair (x, y) is judged as (x, x ∨ y), or dropped."""
    pool, rng = scope_pool(P, scope)
    approx = [x for x in pool if P.kernel_value(x) is not None]
    if not approx:
        return unrefuted("kernel-laws", 0, scope,
                         "no approximable elements sampled")
    pairs = []
    for _ in range(scope.count):
        x, y = rng.choice(approx), rng.choice(approx)
        if P.leq(x, y):
            pairs.append((x, y))
        else:
            s = P.finite_sup((x, y))
            if is_element(s) and P.kernel_value(s) is not None:
                pairs.append((x, s))
    return _kernel_laws(P, scope, kernel, approx[:scope.count], pairs)


def _eq_sampled(P, scope):
    """``kernel.check_waybelow_kernel_equivalence`` at ``scope.count``
    drawn pairs (v, x) of the pool, x approximable."""
    pool, rng = scope_pool(P, scope)
    approx = [x for x in pool if P.kernel_value(x) is not None]
    if not approx:
        return unrefuted("waybelow-kernel-equivalence", 0, scope,
                         "no approximable elements sampled")
    return _equivalence(P, scope, [(rng.choice(pool), rng.choice(approx))
                                   for _ in range(scope.count)])


def _tally(law, verdicts, scope, counted=False):
    """A law over a symbolic bank from its verdicts, one per family: None
    where it does not apply, True where it holds, else the refutation
    ``(witness, reason)``, with the count so far when ``counted``."""
    count = 0
    for verdict in verdicts:
        if verdict is True:
            count += 1
        elif verdict:
            return refuted(law, *verdict, scope, samples=count if counted
                           else 0)
    return unrefuted(law, count, scope)


def _scott_bank(P, scope):
    """``kernel.check_scott_continuity`` over a symbolic bank, whatever the
    sampled scope: Unrefuted, scope bank."""
    return _tally("scott-continuity", (
        _scott_at(P, fam) if isinstance(fam, ExplicitFamily)
        else _scott_chain_at(P, fam) for fam in P.family_bank()), BANK,
        counted=True)


def _chain_sup(P: PosetPresentation, fam: ChainFamily):
    """The declared supremum of a symbolic chain, after probing that it
    dominates the sampled members."""
    for m in fam.sample_members():
        if not P.leq(m, fam.supremum):
            raise PosetError(
                f"declared supremum of chain {fam.label!r} does not "
                f"dominate a sampled member")
    return fam.supremum


def _scott_chain_at(P: PosetPresentation, fam: ChainFamily):
    """The Scott-continuity verdict (see ``_tally``) at a chain: its kernel
    images lie below k(sup), and its certified image supremum is k(sup)."""
    members = fam.sample_members()
    if not all(P.kernel_value(m) is not None for m in members):
        return None
    label = fam.label or fam
    d0 = _chain_sup(P, fam)
    if P.kernel_value(d0) is None:
        return label, _UNAPPROXIMABLE_SUP
    k_sup = kernel_of(P, d0)
    if not all(P.leq(kernel_of(P, m), k_sup) for m in members):
        return label, "a kernel image escapes k(sup)"
    return _image_verdict(P, label, k_sup, fam.kernel_image_sup,
                          "certified image supremum")


def _laws_sampled(P, scope):
    """``kernel.check_approximation_laws`` on a symbolic carrier: the
    directed-restriction and restriction-nonempty sub-laws over the bank,
    the other two at the pool (``_double_sampled``)."""
    pool = scope_pool(P, scope)[0]
    approx = [x for x in pool if P.kernel_value(x) is not None]
    bank = P.family_bank()
    meet = _meet_judge(P, approx, [fam.supremum for fam in bank])
    return combine("approximation-laws", [
        _tally("directed-restriction",
               (_restriction_at(P, fam) for fam in bank), scope),
        _tally("restriction-nonempty", map(meet, bank), scope),
        _double_sampled(P, approx, scope),
        _law_retract_approximation(P, pool, scope)], scope)


def _double_sampled(P, approx, scope):
    """Double approximation at the first ``scope.count`` approximable
    elements, then the approximable part's way-below held against the
    ambient one (``_subposet_sampled``)."""
    law = "double-approximation"
    report = _law_double_approximation(P, approx[:scope.count], scope)
    if report.status is Status.REFUTED:
        return report
    agreement = _subposet_sampled(
        P, sampled(scope.seed, max(scope.count // 4, 32)),
        lambda y: P.kernel_value(y) is not None)
    if agreement.status is Status.REFUTED:
        return refuted(law, agreement.witness,
                       f"approximable-part way-below disagrees: "
                       f"{agreement.reason}", scope)
    return unrefuted(law, report.samples + agreement.samples, scope)


def _retract_sampled(P, scope):
    """``kernel.check_largest_retract`` on a symbolic carrier: with a
    certified non-continuity witness x (``continuity_counterexample``),
    refute the targeted candidate Q ∪ {x} and sample-confirm that its
    compact elements (``compact_below``) lie in the retract Q; otherwise
    sample-confirm that Q is continuous."""
    witness = P.continuity_counterexample()
    if witness is None:
        subs = [_confirm_retract_continuity(P, scope)]
    else:
        subs = [_refute_candidate(P, witness),
                _confirm_compact_elements(P, scope)]
    return combine("largest-retract", subs, scope)


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
    count = 0
    for x in scope_draw(P, scope)[0]:
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
    count = 0
    for x in scope_pool(P, scope)[0]:
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


