"""The symbolic carriers besides the closed sets: the ω+1 chain and the
lift / disjoint-sum combinators.  ``catalog.make_catalog`` imports this
module on the first spec that names one of them, so a finite answer never
loads it; the closed sets live with their algebra in ``closedsets``, so
neither ω+1 nor a lift or sum of finite parts loads that.

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

Carrier hooks: every carrier names its non-continuity witness, or None
when it is certified continuous (``continuity_counterexample``); a carrier
may name a compact element below each element, infimum instances and
retract rules (``compact_below``, ``inf_instances``, ``retract_rules``), as
the closed sets do.  The same holds for ``truncation``, the finite
restriction ``export-dot --truncate`` draws: ω+1 and the closed sets cut
their carriers.  Lift and sum forward every such hook through one base,
``_Combinator``, which holds their components as ``(tag, component,
wrap)`` parts: the targeted checks reach every combinator of the lattice,
and the cuts and the element lists of the components are assembled
there.  It writes their order once, by the two rules above, and wraps the
``kernel_value`` of a component.  ``order_codes`` gives each element of a
list an int code whose bit inclusion is the order: the combinators by a
bit per part above their components' codes.  Every list of elements a
presentation holds is within the catalog's one cap, ``MAX_ELEMENTS``.
"""

from __future__ import annotations

from .catalog import _check_size
from .core import (BOTTOM, NO_LOWER_BOUND, NO_SUPREMUM, OMEGA, Inner, Left,
                   PosetPresentation, Right, is_element)
from .errors import ValidationError
from .families import ChainFamily, ExplicitFamily, map_family


# ---------------------------------------------------------------------------
# ω + 1


class OmegaPlusOnePresentation(PosetPresentation):
    kind = "omega_plus_one"
    name = "omega_plus_one"
    certified_conditionally_complete = True
    certified_interpolating = True

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

    def waybelow(self, x, y) -> bool:
        if x is OMEGA:
            return False
        if y is OMEGA:
            return True
        return x <= y

    def waybelow_family(self, x):
        if x is OMEGA:
            return self._naturals_chain()
        return ExplicitFamily(range(x + 1), x, label=f"naturals<= {x}")

    @staticmethod
    def _naturals_chain():
        return ChainFamily(lambda i: i, OMEGA, label="ascending-naturals",
                           member_dominates=lambda v: v is not OMEGA,
                           kernel_image_sup=OMEGA)

    def _bank(self):
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
        _check_size(n + 2, f"the {self.kind} truncation at {n}")
        return list(range(n + 1)) + [OMEGA]

    def continuity_counterexample(self):
        return None  # every element is the supremum of its approximants

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
# Combinators: lift and disjoint sum over wrapped component elements


class _Combinator(PosetPresentation):
    """A poset built from components whose elements it wraps.

    ``parts`` holds one ``(tag, component, wrap)`` per component and
    ``points`` the combinator's own elements, each printed and parsed as
    its name.  Every hook is written here once, the order by one rule: an
    own point (the lift's ⊥) is the least element, and two elements relate
    only in one part, as the component relates their values.  A tuple
    across parts has no lower bound; a tuple within one part whose
    component answers ``NO_LOWER_BOUND`` has the least own point as its
    infimum, when there is one.  The subclasses keep only their banks and
    their sampling."""

    points = ()
    literal_error: str

    def __init__(self, *parts):
        self.parts = parts
        self._parts_by_wrap = {part[2]: part for part in parts}
        comps = [comp for _, comp, _ in parts]
        self.name = f"{self.kind}({', '.join(c.name for c in comps)})"
        for flag in ("is_finite_kind", "certified_conditionally_complete",
                     "certified_interpolating"):
            setattr(self, flag, all(getattr(c, flag) for c in comps))
        # The own points and every element of the finite parts, nested
        # ones included: the cap holds before any law runs.
        self.listed = len(self.points) + sum(
            c.listed if isinstance(c, _Combinator)
            else len(c.elements()) if c.is_finite_kind else 0 for c in comps)
        _check_size(self.listed,
                    f"a {self.kind} listing {self.listed} elements")

    def _part(self, x):
        """The part whose wrap x is, or None for an own point."""
        return self._parts_by_wrap.get(type(x))

    def _same_side(self, xs):
        """(component, values, wrap) of xs all in one part, else None."""
        wrap = type(xs[0])
        part = self._parts_by_wrap.get(wrap)
        if part is None or any(type(x) is not wrap for x in xs):
            return None
        return part[1], tuple(x.value for x in xs), wrap

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
        # each part's cut is within the cap already, so this list is short
        elems = list(self.points) + [wrap(e) for _, comp, wrap in self.parts
                                     for e in comp.truncation(n)]
        _check_size(len(elems), f"the {self.kind} truncation at {n}")
        return elems

    def leq(self, x, y) -> bool:
        part = self._parts_by_wrap.get(type(x))  # _part inline: a hot path
        if part is None:
            return True
        return type(y) is part[2] and part[1].leq(x.value, y.value)

    def waybelow(self, x, y) -> bool:
        part = self._parts_by_wrap.get(type(x))
        if part is None:
            return True
        return type(y) is part[2] and part[1].waybelow(x.value, y.value)

    def finite_sup(self, xs):
        wrapped = [x for x in xs if type(x) in self._parts_by_wrap]
        if not wrapped:
            return self.points[0]
        side = self._same_side(wrapped)
        if side is None:
            return NO_SUPREMUM
        comp, vals, wrap = side
        s = comp.finite_sup(vals)
        return wrap(s) if is_element(s) else s

    def finite_inf(self, xs):
        for x in xs:
            if type(x) not in self._parts_by_wrap:
                return x
        side = self._same_side(xs)
        if side is None:
            return NO_LOWER_BOUND
        comp, vals, wrap = side
        g = comp.finite_inf(vals)
        if is_element(g):
            return wrap(g)
        # No lower bound at all in the component leaves only the own points.
        if self.points and g is NO_LOWER_BOUND:
            return self.points[0]
        return g

    def order_codes(self, xs):
        """Part k's elements carry bit k, with their component's codes
        shifted above the part bits.  An own point has code 0, below every
        code: the lift's bottom is its least element."""
        shift = len(self.parts)
        codes = [0] * len(xs)
        for bit, (_, comp, wrap) in enumerate(self.parts):
            where = [i for i, x in enumerate(xs) if isinstance(x, wrap)]
            inner = comp.order_codes([xs[i].value for i in where])
            for i, code in zip(where, inner):
                codes[i] = code << shift | 1 << bit
        return codes

    # An own point is its own approximant, kernel value and compact element.

    def waybelow_family(self, x):
        """A wrapped element's family is its component's, wrapped; an
        element whose component gives none has only the least own point
        below it (the lift's bottom), or no approximant when there is none
        (sum)."""
        part = self._part(x)
        if part is None:
            return ExplicitFamily((x,), x, label=repr(x))
        fam = part[1].waybelow_family(x.value)
        if fam is not None:
            return self._wrap_family(fam, part[2])
        if not self.points:
            return None
        least = self.points[0]
        return ExplicitFamily((least,), least, label=f"{least!r}-only")

    def _kernel_value(self, x):
        """The supremum of ``waybelow_family``, from the component's."""
        part = self._part(x)
        if part is None:
            return x
        v = part[1].kernel_value(x.value)
        if v is None:
            return self.points[0] if self.points else None
        return part[2](v)

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

    def _bank(self):
        """{⊥}, each lifted inner family, then one ⊥-and-anchor pair: two
        families per level.  Only a symbolic carrier's laws read it; a
        finite lift's laws judge its own generators (``kernel._decided``)."""
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

    def _bank(self):
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
