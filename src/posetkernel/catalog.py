"""The poset catalog: finite generators, the ω+1 chain, closed subsets of
N ∪ {∞}, and the lift / disjoint-sum combinators.

Each kind ships *certified* closed-form rules for its order, suprema, and
way-below relation.  Way-below is defined by a quantification over all
directed bounded-above sets, which is undecidable on infinite carriers, so
the rules below are proved here once and machine-refuted (never confirmed)
against the family bank by the oracle module.

Certified rules and why they hold:

ω+1 (naturals below a top point ω)
    m << n  iff m <= n for naturals: any directed set with supremum >= n
    contains its supremum when that supremum is a natural (bounded subsets
    of a chain of naturals are finite), and otherwise is unbounded in the
    naturals or contains ω, so some member dominates m.  m << ω always, by
    the same case split.  ω << y never: the chain 0 < 1 < 2 < ... has
    supremum ω and no member dominating ω.  The poset is a complete chain,
    hence conditionally complete, continuous, and interpolating.

Closed sets of N ∪ {∞} (closed iff finite or containing ∞), by inclusion
    A << B  iff  A is finite, ∞ ∉ A, and A ⊆ B.
    If so: any directed D with sup ⊇ B covers each natural of A by some
    member, and directedness bounds those finitely many members inside D.
    Conversely ∞ ∈ A is killed by the chain {0..n} (supremum N ∪ {∞} ⊇ B
    for every B, no member contains ∞), and an infinite natural part is
    impossible without ∞ (closedness).  Consequences:
        approximants of C = the finite subsets of C ∩ N (always nonempty,
        the empty set approximates everything), so the whole lattice is
        approximable;
        kernel value of C = closure of C ∩ N  (C ∩ N itself if finite,
        else (C ∩ N) ∪ {∞});
        retract membership: ∞ ∈ C implies C ∩ N infinite.
    The lattice is complete but NOT continuous: the approximants of {∞}
    are {∅}, whose supremum ∅ differs from {∞}.
    Interpolation holds with witness A itself: A << A << B, because a
    finite set without ∞ is way-below itself.

Punctured closed sets (the same lattice with ∅ removed)
    A << B additionally requires A nonempty (∅ is gone).  {∞} now has no
    approximants at all, so the approximable part is a proper subset:
    exactly the closed sets with a natural member.  Infima can fail:
    {0} and {1} have no common lower bound.  Still conditionally complete
    (suprema of nonempty families of nonempty sets are nonempty) and
    interpolating (same witness).

Lift (add a fresh bottom ⊥)
    ⊥ << everything (every directed set has a member, and ⊥ is below it);
    inner pairs keep the inner rule, because directed sets in the lift are
    directed sets of the inner poset with ⊥ optionally added, which changes
    neither suprema nor domination of non-bottom elements.  The lift makes
    every element approximable.

Disjoint sum
    Directed sets live inside one component (a cross pair has no upper
    bound), so order, suprema and way-below are all componentwise and cross
    pairs never relate.

Carrier hooks: closed sets name their non-continuity witness {∞}, a compact
element below each set, the evens/odds infimum instance and their retract
rule (``continuity_counterexample``, ``compact_below``, ``inf_instances``,
``retract_rules``).  The same holds for ``truncation``, the finite
restriction ``export-dot --truncate`` draws: ω+1 and the closed sets cut
their carriers.  Lift and sum forward every such hook through one base,
``_Combinator``, which holds their components as ``(tag, component, wrap)``
parts: the targeted checks reach every combinator of the lattice, and the
cuts of the components are assembled up to ``MAX_TRUNCATION`` elements.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import cached_property, reduce

from . import closedsets as cs
from .closedsets import (ClosedSetRep, closed_set, closedset_join,
                         closedset_leq, closedset_meet, format_closed_set,
                         is_empty, min_natural, natural_closure,
                         natural_part_is_finite, periodic_set,
                         truncate_naturals)
from .core import (BOTTOM, FINITE_CAP, NO_INFIMUM, NO_SUPREMUM, OMEGA,
                   FinitePoset, FinitePosetPresentation, Inner, Left,
                   PosetPresentation, Right, _bits, build_finite_poset,
                   is_element)
from .errors import PosetError, SizeLimit, UnknownName, ValidationError
from .families import ChainFamily, ExplicitFamily, map_family


# ---------------------------------------------------------------------------
# ω + 1


class OmegaPlusOnePresentation(PosetPresentation):
    kind = "omega_plus_one"
    name = "omega_plus_one"
    certified_conditionally_complete = True
    certified_interpolating = True
    certified_continuous = True

    def contains(self, x) -> bool:
        return x is OMEGA or (type(x) is int and x >= 0)

    def leq(self, x, y) -> bool:
        if x is OMEGA:
            return y is OMEGA
        if y is OMEGA:
            return True
        return x <= y

    def finite_sup(self, xs):
        if any(x is OMEGA for x in xs):
            return OMEGA
        return max(xs)

    def finite_inf(self, xs):
        nats = [x for x in xs if x is not OMEGA]
        return min(nats) if nats else OMEGA

    def lower_bound_exists(self, xs):
        return True

    def waybelow(self, x, y) -> bool:
        if x is OMEGA:
            return False
        if y is OMEGA:
            return True
        return x <= y

    def waybelow_family(self, x):
        if x is OMEGA:
            return self._naturals_chain()
        return ExplicitFamily(tuple(range(x + 1)), x, label=f"naturals<= {x}")

    @staticmethod
    def _naturals_chain():
        return ChainFamily(lambda i: i, OMEGA, label="ascending-naturals",
                           member_dominates=lambda v: v is not OMEGA,
                           kernel_image_sup=OMEGA)

    def family_bank(self):
        return [
            self._naturals_chain(),
            ExplicitFamily((0,), 0, label="zero"),
            ExplicitFamily((0, 1, 2, 3), 3, label="small-chain"),
            ExplicitFamily((2, 5, 9), 9, label="sparse-chain"),
            ExplicitFamily((OMEGA,), OMEGA, label="top-singleton"),
            ExplicitFamily((1, 3, OMEGA), OMEGA, label="chain-through-top"),
        ]

    def sample_elements(self, rng, count):
        return [OMEGA if rng.random() < 0.15 else rng.randrange(25)
                for _ in range(count)]

    def interesting_elements(self):
        return [0, 1, 2, 3, 7, OMEGA]

    def truncation(self, n):
        """The chain {0..n, ω}."""
        if n > 14:
            raise SizeLimit("omega truncation capped at 14")
        return list(range(n + 1)) + [OMEGA]

    def interpolation_witness(self, x, y):
        return x if x is not OMEGA else None

    def compact_below(self, x):
        # every natural is way-below itself; omega is not, but 0 is below it
        return 0 if x is OMEGA else x

    def format_element(self, x) -> str:
        return "omega" if x is OMEGA else str(x)

    def parse_element(self, literal):
        if literal == "omega":
            return OMEGA
        if isinstance(literal, str) and literal.startswith("nat:"):
            try:
                n = int(literal[4:])
            except ValueError:
                n = None
            # Only the plain decimal spelling: no signs, spaces, underscores
            # or non-ASCII digits.
            if n is None or str(n) != literal[4:]:
                raise ValidationError(f"bad natural literal {literal!r}")
            if n < 0:
                raise ValidationError("naturals are non-negative")
            return n
        raise ValidationError(
            f"expected 'omega' or 'nat:<k>', got {literal!r}")


# ---------------------------------------------------------------------------
# Closed subsets of N ∪ {∞}


class ClosedSetsPresentation(PosetPresentation):
    certified_conditionally_complete = True
    certified_interpolating = True
    certified_continuous = False

    def __init__(self, punctured=False):
        self.punctured = punctured
        self.kind = "punctured_closed_sets" if punctured else "closed_sets"
        self.name = self.kind

    def contains(self, x) -> bool:
        if not isinstance(x, ClosedSetRep):
            return False
        return not (self.punctured and is_empty(x))

    def leq(self, x, y) -> bool:
        return closedset_leq(x, y)

    def finite_sup(self, xs):
        return reduce(closedset_join, xs)

    def finite_inf(self, xs):
        acc = reduce(closedset_meet, xs)
        if self.punctured and is_empty(acc):
            return NO_INFIMUM
        return acc

    def lower_bound_exists(self, xs):
        return self.finite_inf(xs) is not NO_INFIMUM

    def waybelow(self, x, y) -> bool:
        if self.punctured and is_empty(x):
            return False
        return (natural_part_is_finite(x) and not x.infinity
                and closedset_leq(x, y))

    def waybelow_family(self, x):
        if self.punctured and min_natural(x) is None:
            return None
        sup = natural_closure(x)
        if natural_part_is_finite(x):
            return ExplicitFamily((sup,), sup, label="natural-part")
        start = min_natural(x)
        return ChainFamily(
            lambda i: truncate_naturals(x, start + i),
            sup,
            label="finite-truncations",
            member_dominates=lambda v: self.waybelow(v, x),
            kernel_image_sup=sup,
        )

    def family_bank(self):
        initial = ChainFamily(
            lambda i: closed_set(range(i + 1)), cs.FULL,
            label="initial-segments",
            member_dominates=lambda v: self.waybelow(v, cs.FULL),
            kernel_image_sup=cs.FULL)
        evens = ChainFamily(
            lambda i: closed_set(range(0, 2 * i + 1, 2)), cs.EVENS,
            label="even-initial-segments",
            member_dominates=lambda v: self.waybelow(v, cs.EVENS),
            kernel_image_sup=cs.EVENS)
        through_inf = ChainFamily(
            lambda i: closed_set(range(i + 1), infinity=True), cs.FULL,
            label="initial-segments-with-inf",
            member_dominates=natural_part_is_finite,
            kernel_image_sup=cs.FULL)
        families = [
            initial,
            evens,
            through_inf,
            ExplicitFamily((closed_set({1}), closed_set({2}),
                            closed_set({1, 2})),
                           closed_set({1, 2}), label="join-closed-pair"),
            ExplicitFamily((closed_set({0}), closed_set({0, 1}),
                            closed_set({0, 1, 2})),
                           closed_set({0, 1, 2}), label="three-chain"),
            ExplicitFamily((cs.INF_POINT, closed_set({0}, True),
                            closed_set({0, 1}, True)),
                           closed_set({0, 1}, True),
                           label="chain-through-inf"),
            ExplicitFamily((cs.INF_POINT,), cs.INF_POINT,
                           label="inf-singleton"),
        ]
        if not self.punctured:
            families.append(ExplicitFamily(
                (cs.EMPTY, closed_set({1}), closed_set({2}),
                 closed_set({1, 2})),
                closed_set({1, 2}), label="join-closed-with-bottom"))
            families.append(ExplicitFamily((cs.EMPTY,), cs.EMPTY,
                                           label="bottom-singleton"))
        return families

    def sample_elements(self, rng, count):
        out = []
        pool = self.interesting_elements()
        for _ in range(count):
            style = rng.random()
            if style < 0.45:
                size = rng.randint(0, 4)
                nats = frozenset(rng.randrange(12) for _ in range(size))
                rep = closed_set(nats, infinity=rng.random() < 0.35)
            elif style < 0.85:
                p = rng.randint(1, 4)
                rs = frozenset(q for q in range(p) if rng.random() < 0.5)
                if not rs:
                    rs = frozenset({rng.randrange(p)})
                t = rng.randint(0, 4)
                pref = frozenset(m for m in range(t) if rng.random() < 0.4)
                rep = periodic_set(rs, p, prefix=pref, threshold=t)
            else:
                rep = rng.choice(pool)
            if self.punctured and is_empty(rep):
                rep = closed_set({rng.randrange(8)})
            out.append(rep)
        return out

    def interesting_elements(self):
        base = [
            cs.INF_POINT,
            closed_set({0}),
            closed_set({1}),
            closed_set({5}),
            closed_set({0, 1}),
            closed_set({1, 3}),
            closed_set({1, 3}, infinity=True),
            closed_set({0}, infinity=True),
            cs.FULL,
            cs.EVENS,
            cs.ODDS,
            periodic_set({0}, 3),
            periodic_set({2}, 3, prefix={0}, threshold=1),
        ]
        if not self.punctured:
            base.insert(0, cs.EMPTY)
        return base

    def truncation(self, n):
        """The closed sets over {0..n}, without ∞ and then with it."""
        if n > 6:
            raise SizeLimit("closed-set truncation capped at 6")
        reps = (closed_set(_bits(mask), infinity=inf)
                for inf in (False, True) for mask in range(1 << (n + 1)))
        return [rep for rep in reps if self.contains(rep)]

    def interpolation_witness(self, x, y):
        return x

    def continuity_counterexample(self):
        return cs.INF_POINT

    def compact_below(self, x):
        finite_part = truncate_naturals(x, 15)
        return finite_part if self.contains(finite_part) else None

    def inf_instances(self):
        # Their meet {∞} lies outside the retract; its kernel value is ∅.
        return [] if self.punctured else [(cs.EVENS, cs.ODDS)]

    def retract_rules(self):
        return ["for closed sets: if inf is in C then the natural part of C "
                "must be infinite"
                + (" (and nonempty overall)" if self.punctured else "")]

    def format_element(self, x) -> str:
        return format_closed_set(x)

    def parse_element(self, literal):
        rep = parse_closed_set_literal(literal)
        if self.punctured and is_empty(rep):
            raise ValidationError(
                "the punctured lattice does not contain the empty set")
        return rep


def parse_closed_set_literal(literal) -> ClosedSetRep:
    """Closed-set literal: {"finite": [...], "infinity": b} or the full
    prefix/threshold/period/residues/infinity form."""
    if not isinstance(literal, dict):
        raise ValidationError(f"closed-set literal must be an object, "
                              f"got {literal!r}")
    extra = set(literal) - {"finite", "prefix", "threshold", "period",
                            "residues", "infinity"}
    if extra:
        raise ValidationError(f"unknown closed-set fields {sorted(extra)}")
    infinity = literal.get("infinity", False)
    if not isinstance(infinity, bool):
        raise ValidationError(f"'infinity' must be true or false, "
                              f"got {infinity!r}")
    if "finite" in literal:
        nats = literal["finite"]
        if not isinstance(nats, list) or not all(
                type(n) is int and n >= 0 for n in nats):
            raise ValidationError("'finite' must be a list of naturals")
        return closed_set(nats, infinity=infinity)
    prefix = literal.get("prefix", [])
    residues = literal.get("residues", [])
    if not isinstance(prefix, list) or not isinstance(residues, list):
        raise ValidationError("'prefix' and 'residues' must be lists")
    return ClosedSetRep(prefix, literal.get("threshold", 0),
                        literal.get("period", 1), residues, infinity)


# ---------------------------------------------------------------------------
# Combinators: lift and disjoint sum over wrapped component elements


MAX_TRUNCATION = 512
"""Elements a lift or sum truncation may hold.  The combinators add their
components' truncations, so without a cap a wide sum document could ask
for an unbounded order; two closed-set lattices cut at 6 fit."""


def _capped(elems):
    if len(elems) > MAX_TRUNCATION:
        raise SizeLimit(f"truncation capped at {MAX_TRUNCATION} elements, "
                        f"this one has {len(elems)}")
    return elems


class _Combinator(PosetPresentation):
    """A poset built from components whose elements it wraps.

    ``parts`` holds one ``(tag, component, wrap)`` per component and
    ``points`` the combinator's own elements, each printed and parsed as
    its name.  Every hook that only carries a question to the component of
    an element, and its answer back, is written here once; the subclasses
    keep the order, the approximant families and sampling."""

    points = ()
    literal_error: str

    def __init__(self, *parts):
        self.parts = parts
        comps = [comp for _, comp, _ in parts]
        self.name = f"{self.kind}({', '.join(c.name for c in comps)})"
        self.is_finite_kind = all(c.is_finite_kind for c in comps)
        self.certified_conditionally_complete = all(
            c.certified_conditionally_complete for c in comps)
        self.certified_interpolating = all(c.certified_interpolating
                                           for c in comps)
        self.certified_continuous = all(c.certified_continuous
                                        for c in comps)

    def _part(self, x):
        """The part whose wrap x is, or None for an own point."""
        for part in self.parts:
            if isinstance(x, part[2]):
                return part
        return None

    def _wrap_family(self, fam, wrap, label=None):
        points = self.points
        return map_family(fam, wrap, label=label,
                          dominates=lambda x, inner: (
                              inner(x.value) if isinstance(x, wrap)
                              else x in points))

    def contains(self, x) -> bool:
        part = self._part(x)
        if part is None:
            return x in self.points
        return part[1].contains(x.value)

    def elements(self):
        return list(self.points) + [wrap(e) for _, comp, wrap in self.parts
                                    for e in comp.elements()]

    def interesting_elements(self):
        return list(self.points) + [wrap(e) for _, comp, wrap in self.parts
                                    for e in comp.interesting_elements()]

    def truncation(self, n):
        return _capped(list(self.points)
                       + [wrap(e) for _, comp, wrap in self.parts
                          for e in comp.truncation(n)])

    # An own point is its own interpolant and compact element.

    def interpolation_witness(self, x, y):
        part = self._part(x)
        if part is None:
            return x
        z = part[1].interpolation_witness(x.value, y.value)
        return None if z is None else part[2](z)

    def compact_below(self, x):
        part = self._part(x)
        if part is None:
            return x
        c = part[1].compact_below(x.value)
        return None if c is None else part[2](c)

    def continuity_counterexample(self):
        for _, comp, wrap in self.parts:
            ce = comp.continuity_counterexample()
            if ce is not None:
                return wrap(ce)
        return None

    def inf_instances(self):
        return [tuple(map(wrap, inst)) for _, comp, wrap in self.parts
                for inst in comp.inf_instances()]

    def retract_rules(self):
        return [f"{tag}: {rule}" for tag, comp, _ in self.parts
                for rule in comp.retract_rules()]

    def format_element(self, x) -> str:
        part = self._part(x)
        if part is None:
            return repr(x)
        tag, comp, _ = part
        return f"{tag}:{comp.format_element(x.value)}"

    def parse_element(self, literal):
        for point in self.points:
            if literal == repr(point):
                return point
        if isinstance(literal, dict) and len(literal) == 1:
            for tag, comp, wrap in self.parts:
                if tag in literal:
                    return wrap(comp.parse_element(literal[tag]))
        raise ValidationError(self.literal_error)


class LiftPresentation(_Combinator):
    """A fresh bottom ⊥ below an inner poset."""

    kind = "lift"
    points = (BOTTOM,)
    literal_error = "lift element literal is 'bottom' or {\"inner\": ...}"

    def __init__(self, inner: PosetPresentation):
        self.inner = inner
        super().__init__(("inner", inner, Inner))

    def leq(self, x, y) -> bool:
        if x is BOTTOM:
            return True
        if y is BOTTOM:
            return False
        return self.inner.leq(x.value, y.value)

    def finite_sup(self, xs):
        proper = [x.value for x in xs if x is not BOTTOM]
        if not proper:
            return BOTTOM
        s = self.inner.finite_sup(tuple(proper))
        return Inner(s) if is_element(s) else s

    def finite_inf(self, xs):
        if any(x is BOTTOM for x in xs):
            return BOTTOM
        vals = tuple(x.value for x in xs)
        g = self.inner.finite_inf(vals)
        if is_element(g):
            return Inner(g)
        return NO_INFIMUM if self.inner.lower_bound_exists(vals) else BOTTOM

    def lower_bound_exists(self, xs):
        return True

    def waybelow(self, x, y) -> bool:
        if x is BOTTOM:
            return True
        if y is BOTTOM:
            return False
        return self.inner.waybelow(x.value, y.value)

    def waybelow_family(self, x):
        if x is BOTTOM:
            return ExplicitFamily((BOTTOM,), BOTTOM, label="bottom")
        fam = self.inner.waybelow_family(x.value)
        if fam is None:
            return ExplicitFamily((BOTTOM,), BOTTOM, label="bottom-only")
        return self._wrap_family(fam, Inner)

    def family_bank(self):
        return self._bank

    @cached_property
    def _bank(self):
        """{⊥}, each lifted inner family, then one ⊥-and-anchor pair: two
        families per level.  Only a symbolic carrier's laws read it; a
        finite lift is scanned over its directed subsets."""
        bank = [ExplicitFamily((BOTTOM,), BOTTOM, label="bottom-singleton")]
        for fam in self.inner.family_bank():
            explicit = isinstance(fam, ExplicitFamily)
            bank.append(self._wrap_family(
                fam, Inner, label=f"lifted:{fam.label}" if explicit else None))
        anchors = self.inner.interesting_elements()
        if anchors:
            bank.append(ExplicitFamily((BOTTOM, Inner(anchors[0])),
                                       Inner(anchors[0]),
                                       label="bottom-and-anchor"))
        return bank

    def sample_elements(self, rng, count):
        return [BOTTOM if rng.random() < 0.12 else Inner(v)
                for v in self.inner.sample_elements(rng, count)]


class DisjointSumPresentation(_Combinator):
    """Two posets side by side; no element of one relates to the other."""

    kind = "disjoint_sum"
    literal_error = ("sum element literal is {\"left\": ...} or "
                     "{\"right\": ...}")

    def __init__(self, left: PosetPresentation, right: PosetPresentation):
        self.left = left
        self.right = right
        super().__init__(("left", left, Left), ("right", right, Right))

    def leq(self, x, y) -> bool:
        if type(x) is not type(y):
            return False
        return self._part(x)[1].leq(x.value, y.value)

    def _same_side(self, xs):
        for _, comp, wrap in self.parts:
            if all(isinstance(x, wrap) for x in xs):
                return comp, tuple(x.value for x in xs), wrap
        return None

    def finite_sup(self, xs):
        side = self._same_side(xs)
        if side is None:
            return NO_SUPREMUM
        comp, vals, wrap = side
        s = comp.finite_sup(vals)
        return wrap(s) if is_element(s) else s

    def finite_inf(self, xs):
        side = self._same_side(xs)
        if side is None:
            return NO_INFIMUM
        comp, vals, wrap = side
        g = comp.finite_inf(vals)
        return wrap(g) if is_element(g) else g

    def lower_bound_exists(self, xs):
        side = self._same_side(xs)
        if side is None:
            return False
        comp, vals, _ = side
        return comp.lower_bound_exists(vals)

    def waybelow(self, x, y) -> bool:
        if type(x) is not type(y):
            return False
        return self._part(x)[1].waybelow(x.value, y.value)

    def waybelow_family(self, x):
        _, comp, wrap = self._part(x)
        fam = comp.waybelow_family(x.value)
        return None if fam is None else self._wrap_family(fam, wrap)

    def family_bank(self):
        return [self._wrap_family(fam, wrap) for _, comp, wrap in self.parts
                for fam in comp.family_bank()]

    def sample_elements(self, rng, count):
        # An odd count takes its extra element from a side picked by rng,
        # so one-at-a-time draws reach both sides.
        half = count // 2
        extra_left = count % 2 == 1 and rng.random() < 0.5
        lefts = self.left.sample_elements(rng, half + extra_left)
        rights = self.right.sample_elements(rng, count - half - extra_left)
        out = []
        for i in range(count):
            if i % 2 == 0 and lefts:
                out.append(Left(lefts.pop()))
            elif rights:
                out.append(Right(rights.pop()))
            elif lefts:
                out.append(Left(lefts.pop()))
        return out


# ---------------------------------------------------------------------------
# Named and random finite posets


def _chain(k):
    names = [str(i) for i in range(k)]
    return names, [(str(i), str(i + 1)) for i in range(k - 1)]


def _antichain(k):
    return [f"a{i}" for i in range(k)], []


def _boolean_3():
    atoms = "xyz"
    names = []
    for mask in range(8):
        label = "".join(atoms[i] for i in range(3) if (mask >> i) & 1)
        names.append(label or "0")
    covers = []
    for mask in range(8):
        for i in range(3):
            if not (mask >> i) & 1:
                covers.append((names[mask], names[mask | (1 << i)]))
    return names, covers


_FIXED_NAMED = {
    "diamond": (["a", "b", "c", "d"],
                [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]),
    "m3": (["0", "a", "b", "c", "1"],
           [("0", "a"), ("0", "b"), ("0", "c"),
            ("a", "1"), ("b", "1"), ("c", "1")]),
    "n5": (["0", "a", "b", "c", "1"],
           [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")]),
    "fence_4": (["a", "b", "c", "d"], [("a", "b"), ("c", "b"), ("c", "d")]),
}


def named_finite_poset(name: str) -> FinitePoset:
    """Fixture posets: chain_k, antichain_k, diamond, m3, n5, boolean_3,
    fence_4."""
    if name in _FIXED_NAMED:
        names, covers = _FIXED_NAMED[name]
    elif name == "boolean_3":
        names, covers = _boolean_3()
    elif m := re.fullmatch(r"(chain|antichain)_(\d+)", name):
        k = int(m.group(2))
        if not 1 <= k <= FINITE_CAP:
            raise SizeLimit(f"{m.group(1)} size must be 1..{FINITE_CAP}")
        names, covers = (_chain if m.group(1) == "chain" else _antichain)(k)
    else:
        raise UnknownName(f"no catalog poset named {name!r}")
    return build_finite_poset(names, covers)


def random_finite_poset(n: int, edge_prob: float, seed: int) -> FinitePoset:
    """Random order: a DAG by edge probability on a topological order,
    closed reflexively and transitively."""
    if not 1 <= n <= FINITE_CAP:
        raise SizeLimit(f"random poset size must be 1..{FINITE_CAP}")
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(n)]
    covers = [(names[i], names[j])
              for i in range(n) for j in range(i + 1, n)
              if rng.random() < edge_prob]
    return build_finite_poset(names, covers)


# ---------------------------------------------------------------------------
# Specs and the catalog constructor


@dataclass(frozen=True)
class CatalogSpec:
    """Serializable description of a catalog presentation."""

    kind: str
    name: str | None = None
    n: int = 0
    edge_prob: float = 0.3
    seed: int = 0
    elements: tuple = ()
    covers: tuple = ()
    inner: "CatalogSpec | None" = None
    left: "CatalogSpec | None" = None
    right: "CatalogSpec | None" = None


def finite_named(name: str) -> CatalogSpec:
    return CatalogSpec("finite_named", name=name)


def finite_random(n: int, edge_prob: float = 0.3, seed: int = 0) -> CatalogSpec:
    return CatalogSpec("finite_random", n=n, edge_prob=edge_prob, seed=seed)


def finite_explicit(elements, covers) -> CatalogSpec:
    return CatalogSpec("finite_explicit", elements=tuple(elements),
                       covers=tuple((a, b) for a, b in covers))


def omega_plus_one() -> CatalogSpec:
    return CatalogSpec("omega_plus_one")


def closed_sets() -> CatalogSpec:
    return CatalogSpec("closed_sets")


def punctured_closed_sets() -> CatalogSpec:
    return CatalogSpec("punctured_closed_sets")


def lift(inner: CatalogSpec) -> CatalogSpec:
    return CatalogSpec("lift", inner=inner)


def disjoint_sum(left: CatalogSpec, right: CatalogSpec) -> CatalogSpec:
    return CatalogSpec("disjoint_sum", left=left, right=right)


# ---------------------------------------------------------------------------
# Poset documents


DOCUMENT_FIELDS = {
    "finite": ("elements", "covers"),
    "omega_plus_one": (),
    "closed_sets": (),
    "punctured_closed_sets": (),
    "lift": ("inner",),
    "disjoint_sum": ("left", "right"),
}
"""Each document kind and the fields it takes besides ``kind``; the fields
of ``lift`` and ``disjoint_sum`` are nested documents."""

MAX_DOCUMENT_DEPTH = 32
"""Lift / disjoint-sum levels a document may nest: every law check walks
the whole nesting on each element operation."""


def spec_from_document(raw) -> CatalogSpec:
    """Validate a decoded JSON poset document and return its spec:

        {"kind": "finite", "elements": ["a", "b"], "covers": [["a", "b"]]}
        {"kind": "omega_plus_one"}
        {"kind": "closed_sets"} | {"kind": "punctured_closed_sets"}
        {"kind": "lift", "inner": DOC}
        {"kind": "disjoint_sum", "left": DOC, "right": DOC}

    Raises ValidationError for anything else."""
    return _spec_from_document(raw, MAX_DOCUMENT_DEPTH)


def _spec_from_document(raw, depth_left) -> CatalogSpec:
    if not isinstance(raw, dict):
        raise ValidationError("poset document must be a JSON object")
    kind = raw.get("kind")
    fields = DOCUMENT_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise ValidationError(f"unknown poset kind {kind!r}")
    extra = set(raw) - {"kind", *fields}
    if extra:
        raise ValidationError(f"unknown fields {sorted(extra)}")
    if kind == "finite":
        return _finite_spec(raw.get("elements"), raw.get("covers", []))
    if fields and depth_left == 0:
        raise ValidationError(f"documents nest at most {MAX_DOCUMENT_DEPTH} "
                              "lift/disjoint_sum levels")
    return CatalogSpec(kind, **{field: _spec_from_document(raw.get(field),
                                                           depth_left - 1)
                                for field in fields})


def _finite_spec(elements, covers) -> CatalogSpec:
    if (not isinstance(elements, list) or not elements
            or not all(isinstance(e, str) for e in elements)):
        raise ValidationError("'elements' must be a nonempty list of "
                              "label strings")
    if len(elements) > FINITE_CAP:
        raise ValidationError(f"'elements' lists at most {FINITE_CAP} "
                              f"labels, got {len(elements)}")
    if not isinstance(covers, list) or not all(
            isinstance(c, list) and len(c) == 2
            and all(isinstance(x, str) for x in c) for c in covers):
        raise ValidationError("'covers' must be a list of [a, b] pairs")
    try:
        build_finite_poset(elements, [tuple(c) for c in covers])
    except PosetError as exc:
        raise ValidationError(str(exc)) from None
    return finite_explicit(elements, covers)


def spec_to_document(spec: CatalogSpec) -> dict:
    """The document of a spec that ``spec_from_document`` returns.  A named
    or random finite poset is written out with its labels and its cover
    pairs."""
    if spec.kind in ("finite_named", "finite_random"):
        fp = make_catalog(spec).poset
        spec = finite_explicit(fp.names, [(fp.names[i], fp.names[j])
                                          for i, j in fp.hasse_edges()])
    if spec.kind == "finite_explicit":
        return {"kind": "finite", "elements": list(spec.elements),
                "covers": [list(c) for c in spec.covers]}
    return {"kind": spec.kind,
            **{field: spec_to_document(getattr(spec, field))
               for field in DOCUMENT_FIELDS[spec.kind]}}


def builtin_spec(name: str) -> CatalogSpec:
    """The spec a built-in catalog name denotes: a symbolic kind, else a
    named finite poset (``make_catalog`` raises UnknownName or SizeLimit
    when the name is neither)."""
    if DOCUMENT_FIELDS.get(name) == ():
        return CatalogSpec(name)
    return finite_named(name)


def make_catalog(spec: CatalogSpec) -> PosetPresentation:
    """Build the presentation described by the spec."""
    if spec.kind == "finite_named":
        return FinitePosetPresentation(named_finite_poset(spec.name),
                                       name=spec.name)
    if spec.kind == "finite_random":
        fp = random_finite_poset(spec.n, spec.edge_prob, spec.seed)
        return FinitePosetPresentation(
            fp, name=f"random(n={spec.n},seed={spec.seed})")
    if spec.kind == "finite_explicit":
        fp = build_finite_poset(spec.elements, spec.covers)
        return FinitePosetPresentation(fp, name="finite")
    if spec.kind == "omega_plus_one":
        return OmegaPlusOnePresentation()
    if spec.kind == "closed_sets":
        return ClosedSetsPresentation(punctured=False)
    if spec.kind == "punctured_closed_sets":
        return ClosedSetsPresentation(punctured=True)
    if spec.kind == "lift":
        return LiftPresentation(make_catalog(spec.inner))
    if spec.kind == "disjoint_sum":
        return DisjointSumPresentation(make_catalog(spec.left),
                                       make_catalog(spec.right))
    raise UnknownName(f"unknown catalog kind {spec.kind!r}")


NAMED_FINITE_ROSTER = ("chain_2", "chain_3", "chain_4", "diamond", "m3", "n5",
                       "boolean_3", "fence_4", "antichain_2", "antichain_3")


def standard_roster() -> list:
    """The curated catalog the acceptance checks run over."""
    specs = [finite_named(name) for name in NAMED_FINITE_ROSTER]
    specs += [
        omega_plus_one(),
        closed_sets(),
        punctured_closed_sets(),
        lift(punctured_closed_sets()),
        disjoint_sum(finite_named("chain_2"), finite_named("chain_2")),
        disjoint_sum(omega_plus_one(), closed_sets()),
    ]
    return [make_catalog(s) for s in specs]
