"""Poset presentations, finite posets, and checkers for the order axioms.

A *presentation* packages a carrier with a decidable order, partial finite
suprema/infima, a way-below decision certified per kind, per-element
approximant families, and a bank of directed families with known suprema.
Symbolic carriers (the infinite catalog kinds) answer way-below queries by a
closed-form rule documented with the kind; the oracle module can refute such
rules against the family bank but never confirm them, which is why sampled
checks report Unrefuted rather than Verified.
"""

from __future__ import annotations

import random
from functools import cache, cached_property, reduce
from itertools import compress
from operator import or_

from .errors import (CycleDetected, DuplicateLabel, EmptyFamily,
                     ForeignElement, PosetError, ScopeUnsupported, SizeLimit,
                     ValidationError)
from .families import ExplicitFamily, Family
from .reports import EXHAUSTIVE, Scope, refuted, sampled, verified
from .values import Frozen, set_field

# ---------------------------------------------------------------------------
# Outcome sentinels for partial suprema / infima


class _Named:
    """A sentinel compared by identity and printed as its name."""

    __slots__ = ("_name",)

    def __init__(self, name):
        self._name = name

    def __repr__(self):
        return self._name


class _Outcome(_Named):
    """A partial supremum / infimum that is not an element."""

    __slots__ = ()


NO_SUPREMUM = _Outcome("NoSupremum")
NO_INFIMUM = _Outcome("NoInfimum")
NO_LOWER_BOUND = _Outcome("NoLowerBound")


def is_element(value) -> bool:
    """False for the NoSupremum / NoInfimum / NoLowerBound outcomes."""
    return not isinstance(value, _Outcome)


# ---------------------------------------------------------------------------
# Element payloads for the symbolic kinds

OMEGA = _Named("omega")  # the point above all naturals in the ω+1 chain
BOTTOM = _Named("bottom")  # the fresh least element added by the lift


class _Wrap(Frozen):
    """One element of a component, tagged by the class that wraps it; two
    wraps are equal only when their classes and values are.  The hash takes
    the class too, so that the parts of a sum hash apart, and is computed
    once: a nested wrap reads its value's stored hash, not its depth."""

    __slots__ = ("value", "_hash")
    _fields = ("value",)

    def __init__(self, value):
        set_field(self, "value", value)
        set_field(self, "_hash", hash((self.__class__.__name__, value)))

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return other._hash == self._hash and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return self._hash


class Inner(_Wrap):
    """A non-bottom element of a lifted poset."""

    __slots__ = ()


class Left(_Wrap):
    __slots__ = ()


class Right(_Wrap):
    __slots__ = ()


# ---------------------------------------------------------------------------
# Finite posets

# The cap of the oracle's scans of the 2^n subsets of a finite poset, read
# only by ``_subset_planes``; what a presentation lists is capped in catalog.
FINITE_CAP = 16


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _common(rows, mask):
    """The bounds common to the members of ``mask`` (all when it is empty)."""
    bounds = (1 << len(rows)) - 1
    for i in _bits(mask):
        bounds &= rows[i]
    return bounds


def _extremum(rows, mask):
    """The member of ``mask`` whose row holds the whole mask, or None."""
    for u in _bits(mask):
        if not mask & ~rows[u]:
            return u
    return None


def _generators(rows):
    """``(mask, t)`` for the generators {m, t} ({t} when m = t) of the rows
    ``(t, row)``, m in the row, ascending by mask.  A finite directed set is
    its maximum t plus part of the down-set of t, so these decide a law that
    fails at a directed set exactly when it fails at a generator in it."""
    return sorted((1 << t | 1 << m, t) for t, row in rows for m in _bits(row))


def _mask_family(P, elems, mask, top):
    """The ``elems`` in ``mask``, sup ``elems[top]``, labelled ``{a, b}``."""
    members = tuple(elems[i] for i in _bits(mask))
    return ExplicitFamily(members, elems[top], label="{" + ", ".join(
        map(P.format_element, members)) + "}")


# Subset planes: a set of subsets of {0..n-1} is one 2^n-bit int whose bit m
# stands for the subset with element mask m, so a single big-int operation
# acts on all 2^n subsets at once.

_BIT_FLAGS = bytes.maketrans(b"01", bytes((0, 1)))


@cache
def _subset_planes(n):
    """``S[b]`` for b < n: the plane of the subsets that contain b.  Built on
    first use and kept per n.  Every subset scan starts here, so above
    FINITE_CAP elements it raises SizeLimit before any 2^n-bit plane."""
    if n > FINITE_CAP:
        raise SizeLimit(f"subset scan capped at {FINITE_CAP} elements, "
                        f"poset has {n}")
    planes = []
    for b in range(n):
        # bit m of S[b] is bit b of m: runs of 2^b zeros then 2^b ones
        plane, width = ((1 << (1 << b)) - 1) << (1 << b), 2 << b
        while width < 1 << n:
            plane |= plane << width
            width <<= 1
        planes.append(plane)
    return tuple(planes)


def _none_of(n, mask):
    """The plane of the subsets of {0..n-1} that contain no element of
    ``mask``: starting from the empty subset, each element b outside
    ``mask`` in turn is added to every subset so far, by one shift."""
    _subset_planes(n)  # the cap, before any plane
    plane = 1
    for b in range(n):
        if not mask >> b & 1:
            plane |= plane << (1 << b)
    return plane


def _plane_members(plane):
    """The element masks of the subsets in a plane, ascending, read slot by
    slot off its binary digits."""
    flags = bin(plane)[:1:-1].encode().translate(_BIT_FLAGS)
    return list(compress(range(len(flags)), flags))


class FinitePoset:
    """An explicit finite order, stored as bitmask rows of the relation.

    ``up[i]`` has bit j set iff element i is below element j, ``down[j]``
    then bit i.  Both builders end here, where the relation is validated
    once to be reflexive, antisymmetric and transitive.
    """

    __slots__ = ("n", "names", "up", "down", "__dict__")

    def __init__(self, names, up):
        names = tuple(names)
        up = tuple(up)
        n = len(names)
        if len(set(names)) != n:
            raise DuplicateLabel("element labels must be distinct")
        if len(up) != n:
            raise ValidationError("relation rows must match the label count")
        full = (1 << n) - 1
        for i in range(n):
            if up[i] & ~full:
                raise ValidationError("relation row mentions unknown elements")
            if not (up[i] >> i) & 1:
                raise ValidationError("order must be reflexive")
        down = [0] * n
        for i in range(n):
            for j in _bits(up[i]):
                if i != j and (up[j] >> i) & 1:
                    raise CycleDetected(
                        f"{names[i]!r} and {names[j]!r} are mutually below "
                        "each other")
                if up[j] & ~up[i]:
                    raise ValidationError("order must be transitive")
                down[j] |= 1 << i
        self.n = n
        self.names = names
        self.up = up
        self.down = tuple(down)

    def leq(self, i, j) -> bool:
        return bool((self.up[i] >> j) & 1)

    def index_of(self, name) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ForeignElement(f"unknown element label {name!r}") from None

    def lub_of_mask(self, mask):
        """Least upper bound of the elements in ``mask``, or None."""
        return _extremum(self.up, _common(self.up, mask))

    @cached_property
    def directed_planes(self):
        """``(D, T)`` as subset planes.  ``D`` holds the directed subsets:
        nonempty, and every pair of members has an upper bound among the
        members.  ``T[t]`` holds the subsets whose maximum is t: they
        contain t and lie inside its down-set.

        ``D`` grows by one step per element b, taken in ascending order of
        up-set size, so after every element above it.  For X inside the
        elements taken so far, none of which lies below b, X + {b} is
        directed iff X is empty, or X is directed and meets the up-set of
        b: b bounds no pair, and a member z0 >= b gives each x in X a
        bound z >= z0 >= b.  So the step adds b to the empty subset and to
        each directed subset that meets the strict up-set of b, by one
        shift.  The two facts the proof uses, every strict upper bound of b
        taken before b and transitivity at b, are checked on the n-bit rows
        of every element, with reflexivity, before any plane is built.
        ``T[t]`` is the empty subset doubled over the rest of the down-set
        of t, then shifted by 2^t to add t: a shift commutes with the
        doubling, and the doubling runs on planes no wider than its result.

        Every finite directed set contains its own maximum, which is
        therefore its supremum; that ``D`` lies in the union of the ``T[t]``
        is checked here rather than assumed, which also refuses a ``down``
        that is not the transpose of ``up``.
        """
        n, up, down = self.n, self.up, self.down
        S = _subset_planes(n)
        order = sorted(range(n), key=lambda b: up[b].bit_count())
        taken = 0
        for b in order:
            row = up[b]
            strict = row & ~(1 << b)
            bounds = 0  # the up-sets of the strict upper bounds of b
            for a in _bits(strict):
                bounds |= up[a]
            if not row >> b & 1 or strict & ~taken or bounds & ~row:
                raise PosetError(f"the relation at {self.names[b]!r} is not "
                                 "a partial order; the order is corrupt")
            taken |= 1 << b
        D = 0
        for b in order:
            meets = 0
            for a in _bits(up[b] & ~(1 << b)):
                meets |= S[a]
            D |= (1 | (D & meets)) << (1 << b)
        T = []
        for t, below in enumerate(down):
            plane = 1
            for b in _bits(below & ~(1 << t)):
                plane |= plane << (1 << b)
            T.append(plane << (1 << t))
        if D & ~reduce(or_, T, 0):
            raise PosetError("a directed subset has no maximum; the order "
                             "is corrupt")
        return D, tuple(T)

    @cached_property
    def directed_subset_masks(self):
        """The masks of all directed subsets, ascending: the members of the
        plane ``D`` of ``directed_planes``, which has checked that D lies in
        the union of the disjoint planes ``T[t]``, of 2^(|down[t]| - 1)
        members each.  A ``D`` of that many members is that union; if it
        also fills at most one slot in three, it is listed from the maxima,
        each t with every subset of the rest of its down-set, and sorted
        once.  Any other is read off the plane.  No law and no family bank
        reads it."""
        D = self.directed_planes[0]
        size = D.bit_count()
        if (size * 3 > D.bit_length()
                or size != sum(1 << (d.bit_count() - 1) for d in self.down)):
            return _plane_members(D)
        masks = []
        for t, below in enumerate(self.down):
            subsets, rest = [1 << t], below & ~(1 << t)
            while rest:
                bit = rest & -rest
                rest ^= bit
                subsets += [m | bit for m in subsets]
            masks += subsets
        masks.sort()
        return masks

    def hasse_edges(self):
        """Cover pairs (i, j): the transitive reduction of the strict order."""
        edges = []
        for i in range(self.n):
            strict = self.up[i] & ~(1 << i)
            for j in _bits(strict):
                between = strict & self.down[j] & ~(1 << j)
                if between == 0:
                    edges.append((i, j))
        return edges


def build_finite_poset(names, covers) -> FinitePoset:
    """Finite poset from labels and cover pairs; the order is their
    reflexive-transitive closure, taken in one Warshall pass, and cyclic
    covers fail the antisymmetry check of ``FinitePoset``."""
    names = tuple(names)
    if len(set(names)) != len(names):
        raise DuplicateLabel("element labels must be distinct")
    index = {a: i for i, a in enumerate(names)}
    n = len(names)
    up = [1 << i for i in range(n)]
    for a, b in covers:
        if a not in index or b not in index:
            raise ForeignElement(f"cover ({a!r}, {b!r}) mentions an unknown label")
        if a == b:
            raise CycleDetected(f"cover ({a!r}, {b!r}) asserts {a!r} < {a!r}")
        up[index[a]] |= 1 << index[b]
    for k in range(n):
        bit, row = 1 << k, up[k]
        for i in range(n):
            if up[i] & bit:
                up[i] |= row
    return FinitePoset(names, up)


def induced_finite_poset(P, elems) -> FinitePoset:
    """The order of P restricted to ``elems``, as a FinitePoset whose index
    i is ``elems[i]`` and whose labels are the formatted elements."""
    up = [_mask(j for j, y in enumerate(elems) if P.leq(x, y)) for x in elems]
    return FinitePoset([P.format_element(e) for e in elems], up)


# ---------------------------------------------------------------------------
# Presentation interface


class PosetPresentation:
    """Capability bundle for one poset carrier.

    Subclasses fix a kind tag, the decidable order, partial suprema and
    infima on finite element sets, the certified way-below rule, per-element
    approximant families, and a curated family bank.  All presentations are
    immutable after construction and every operation is pure.
    """

    kind = "abstract"
    name = "poset"
    is_finite_kind = False
    certified_conditionally_complete = False
    certified_interpolating = False

    # -- carrier -------------------------------------------------------

    def contains(self, x) -> bool:
        raise NotImplementedError

    def require(self, x):
        if not self.contains(x):
            raise ForeignElement(
                f"{self.format_element_safe(x)} is not an element of {self.name}")
        return x

    def elements(self) -> list:
        raise ScopeUnsupported(f"{self.name} has no element enumeration")

    def truncation(self, n) -> list:
        """The elements of a finite, order-embedded restriction of the
        carrier at cut n; a finite carrier's cut is the whole carrier.  The
        order transfers both ways; way-below only from the carrier into the
        restriction, which lacks the unbounded families that refute
        way-below pairs here."""
        raise ScopeUnsupported(f"no truncation for kind {self.kind!r}")

    @cached_property
    def poset(self) -> FinitePoset:
        """The order of a finite carrier, index i standing for
        ``elements()[i]``; the finite laws read it through ``finite_view``."""
        return induced_finite_poset(self, self.elements())

    @cached_property
    def finite_view(self):
        """``(elements(), poset, approx)``, approx the mask of the elements
        whose ``kernel_value`` is not None: the one view every exhaustive
        law reads, built without the oracle.  Callers must not change it."""
        elems = self.elements()
        return elems, self.poset, _mask(
            i for i, e in enumerate(elems) if self.kernel_value(e) is not None)

    # -- order ---------------------------------------------------------

    def leq(self, x, y) -> bool:
        raise NotImplementedError

    def order_codes(self, xs) -> list:
        """Int codes of the elements ``xs``: ``xs[i] <= xs[j]`` exactly when
        ``codes[i] & ~codes[j] == 0``, so one int test decides the order
        of two listed elements.  By default the code of x is its down-set
        within ``xs`` as a bit mask, from pairwise ``leq``; a carrier with
        a closed form overrides it."""
        return [_mask(j for j, y in enumerate(xs) if self.leq(y, x))
                for x in xs]

    def finite_sup(self, xs):
        raise NotImplementedError

    def finite_inf(self, xs):
        """The infimum of the nonempty tuple ``xs``; ``NO_INFIMUM`` when
        lower bounds exist but none is greatest; ``NO_LOWER_BOUND`` when
        there is no lower bound at all."""
        raise NotImplementedError

    # -- way-below -----------------------------------------------------

    def waybelow(self, x, y) -> bool:
        raise NotImplementedError

    def waybelow_family(self, x) -> Family | None:
        """A directed family cofinal in the approximants of x, with its
        supremum declared; None exactly when x has no approximants."""
        raise NotImplementedError

    def kernel_value(self, x):
        """The supremum of the approximants of x, or None when x has none.

        Memoized per presentation, keyed by the element: presentations are
        immutable and every element payload is hashable.  A carrier with a
        closed form overrides ``_kernel_value``; by default it is the
        declared supremum of ``waybelow_family(x)``."""
        memo = self._kernel_values
        try:
            return memo[x]
        except KeyError:
            value = memo[x] = self._kernel_value(x)
            return value

    @cached_property
    def _kernel_values(self):
        return {}

    def _kernel_value(self, x):
        fam = self.waybelow_family(x)
        return None if fam is None else fam.supremum

    @cached_property
    def _scope_pools(self):
        return {}  # (seed, count) -> (draw, pool, rng state after the draw)

    def family_bank(self) -> list:
        """The curated directed families with declared suprema, built by
        the carrier's ``_bank`` hook once per presentation.  Every law reads
        this one list, so no caller may change it."""
        return self._family_bank

    @cached_property
    def _family_bank(self):
        return self._bank()

    def _bank(self) -> list:
        return []

    # -- sampling and presentation-specific extras ----------------------

    def sample_elements(self, rng, count) -> list:
        raise ScopeUnsupported(f"{self.name} cannot sample elements")

    def interesting_elements(self) -> list:
        return []

    def continuity_counterexample(self):
        """A certified point where the poset fails continuity, or None when
        the poset is certified continuous.  Every carrier states one."""
        raise NotImplementedError

    def compact_below(self, x):
        """An element below x and way-below itself, if the kind has one."""
        return None

    def inf_instances(self) -> list:
        """Retract subsets the ``inf`` law checks before sampled ones."""
        return []

    def retract_rules(self) -> list:
        """The kind's retract membership rule, as lines of text."""
        return []

    def format_element(self, x) -> str:
        return repr(x)

    def format_element_safe(self, x) -> str:
        try:
            return self.format_element(x)
        except Exception:
            return repr(x)

    def parse_element(self, literal):
        raise ValidationError(f"{self.name} has no element literal syntax")


class FinitePosetPresentation(PosetPresentation):
    """Presentation of an explicit finite poset; elements are indices.

    On a finite carrier every directed set contains its maximum, so the
    way-below relation coincides with the order.  That closed form is used
    here; the oracle module recomputes way-below definitionally and the test
    suite holds the two against each other.
    """

    kind = "finite"
    is_finite_kind = True
    certified_interpolating = True

    def __init__(self, poset: FinitePoset, name="finite"):
        self.poset = poset
        self.name = name

    def contains(self, x) -> bool:
        return type(x) is int and 0 <= x < self.poset.n

    def elements(self):
        return list(range(self.poset.n))

    def leq(self, x, y) -> bool:
        return self.poset.leq(x, y)

    def truncation(self, n):
        return self.elements()

    def finite_sup(self, xs):
        u = self.poset.lub_of_mask(_mask(xs))
        return NO_SUPREMUM if u is None else u

    def finite_inf(self, xs):
        down = self.poset.down
        lower = _common(down, _mask(xs))
        if not lower:
            return NO_LOWER_BOUND
        v = _extremum(down, lower)
        return NO_INFIMUM if v is None else v

    waybelow = leq

    def waybelow_family(self, x):
        return ExplicitFamily(tuple(_bits(self.poset.down[x])), x,
                              label=f"down-set({self.poset.names[x]})")

    def _bank(self):
        """The generators {t} and {m, t}, m < t, of the directed subsets,
        labelled by their element names; for each bank law they stand for
        every directed subset.  Only a symbolic combinator reads it."""
        return [_mask_family(self, range(self.poset.n), mask, t)
                for mask, t in _generators(enumerate(self.poset.down))]

    @cached_property
    def certified_conditionally_complete(self):
        return _lubless_pair(self.poset) is None

    def sample_elements(self, rng, count):
        return [rng.randrange(self.poset.n) for _ in range(count)]

    interesting_elements = elements

    def continuity_counterexample(self):
        return None  # a finite poset is continuous: way-below is its order

    def compact_below(self, x):
        return x

    def format_element(self, x) -> str:
        return str(self.poset.names[x])

    def parse_element(self, literal):
        if not isinstance(literal, str):
            raise ValidationError(f"finite element literals are labels, "
                                  f"got {literal!r}")
        try:
            return self.poset.index_of(literal)
        except ForeignElement as exc:
            raise ValidationError(str(exc)) from None


# ---------------------------------------------------------------------------
# Core operations


def leq(P: PosetPresentation, x, y) -> bool:
    """Decide the order of the presentation."""
    P.require(x)
    P.require(y)
    return P.leq(x, y)


def least_upper_bound(P: PosetPresentation, elems):
    """Supremum of a nonempty finite element set, or NO_SUPREMUM."""
    elems = tuple(elems)
    if not elems:
        raise EmptyFamily("least_upper_bound needs a nonempty set")
    for e in elems:
        P.require(e)
    return P.finite_sup(elems)


def greatest_lower_bound(P: PosetPresentation, elems):
    elems = tuple(elems)
    if not elems:
        raise EmptyFamily("greatest_lower_bound needs a nonempty set")
    for e in elems:
        P.require(e)
    return P.finite_inf(elems)


def is_directed(P: PosetPresentation, family) -> bool:
    """Whether every pair of members has an upper bound inside the set.

    Accepts an ExplicitFamily or any iterable of elements.
    """
    members = list(family.members) if isinstance(family, ExplicitFamily) \
        else list(family)
    if not members:
        raise EmptyFamily("directedness is defined for nonempty sets")
    for m in members:
        P.require(m)
    return _directed(P, members)


def _directed(P: PosetPresentation, members) -> bool:
    """Every pair of ``members`` has an upper bound among them."""
    return all(any(P.leq(a, c) and P.leq(b, c) for c in members)
               for a in members for b in members)


def waybelow(P: PosetPresentation, x, y) -> bool:
    """The certified way-below decision of the presentation kind."""
    P.require(x)
    P.require(y)
    return P.waybelow(x, y)


def is_approximable(P: PosetPresentation, x) -> bool:
    """Whether something is way-below x (x has a nonempty approximant set)."""
    P.require(x)
    return P.kernel_value(x) is not None


def family_dominates(P: PosetPresentation, fam, x) -> bool:
    """Does some member of the family dominate x?

    Explicit families are decided exactly.  For chains, a sampled member
    dominating x settles True; otherwise the chain's domination certificate
    decides.
    """
    if isinstance(fam, ExplicitFamily):
        return any(P.leq(x, m) for m in fam.members)
    if any(P.leq(x, m) for m in fam.sample_members()):
        return True
    return bool(fam.member_dominates(x))


# ---------------------------------------------------------------------------
# Axiom checks

def _pool(P: PosetPresentation, draw) -> list:
    return list(dict.fromkeys([*P.interesting_elements(), *draw]))


def scope_draw(P: PosetPresentation, scope: Scope):
    """The draw behind a sampled scope, made once per presentation and
    (seed, count): ``P.sample_elements(Random(seed), count)`` as drawn,
    repeats included, its pool (the interesting elements, then the draw,
    de-duplicated) and the rng state after it.  Do not change the lists."""
    key = scope.seed, scope.count
    if key not in P._scope_pools:
        rng = random.Random(scope.seed)
        draw = P.sample_elements(rng, scope.count)
        P._scope_pools[key] = draw, _pool(P, draw), rng.getstate()
    return P._scope_pools[key]


def scope_pool(P: PosetPresentation, scope: Scope):
    """The elements a law over ``scope`` reads, and the rng it draws on
    with.  Exhaustive: a copy of the elements of ``finite_view``, no rng.
    Sampled: a copy of the pool of ``scope_draw``, and a fresh rng in the
    state that draw left it in."""
    if scope.kind == "exhaustive":
        return list(P.finite_view[0]), None
    _, pool, state = scope_draw(P, scope)
    rng = random.Random()
    rng.setstate(state)
    return list(pool), rng


def resolve_scope(P: PosetPresentation, scope: Scope | None = None) -> Scope:
    """The scope a check of P runs over.  A finite carrier is always
    exhausted, the laws over directed sets included; a symbolic one takes
    the given sampled scope, or ``sampled()`` when none is given, and cannot
    be exhausted."""
    if P.is_finite_kind:
        return EXHAUSTIVE
    if scope is None:
        return sampled()
    if scope.kind == "exhaustive":
        raise ScopeUnsupported("exhaustive scope needs a finite carrier")
    return scope


def _cc_exhaustive(P, scope):
    law = "conditionally_complete"
    elems, fp, _ = P.finite_view
    pair = _lubless_pair(fp)
    if pair is not None:
        return refuted(law, tuple(elems[i] for i in pair),
                       "bounded-above subset without a least upper bound",
                       scope)
    return verified(law, scope,
                    reason="every bounded pair has a least upper bound")


def _lubless_pair(fp: FinitePoset):
    """The first pair (i, j) in mask order that is bounded above but has no
    least upper bound, or None: then every bounded finite set has one, as
    {a, b, ...} has the upper bounds of {a ∨ b, ...}.  The least-element
    test runs once per distinct set of upper bounds."""
    least = cache(lambda ubs: _extremum(fp.up, ubs) is not None)
    for j in range(fp.n):
        for i in range(j):
            ubs = fp.up[i] & fp.up[j]
            if ubs and not least(ubs):
                return i, j
    return None


def _interpolated(P, x, y, pool):
    """Whether some z in ``pool`` (which holds x) has x << z << y, given
    x << y: z = x first, which every catalog carrier's approximants pass."""
    return P.waybelow(x, x) or any(P.waybelow(x, z) and P.waybelow(z, y)
                                   for z in pool)


def _interp_exhaustive(P, scope):
    """Every way-below pair has an interpolant among the elements."""
    law = "interpolating"
    elems = P.finite_view[0]
    for x in elems:
        for y in elems:
            if P.waybelow(x, y) and not _interpolated(P, x, y, elems):
                return refuted(law, (x, y), "no interpolant", scope)
    return verified(law, scope)


def _continuity_failure(P, x):
    """Reason string if x is not the supremum of its approximants."""
    k = P.kernel_value(x)
    if k is None:
        return "no approximants"
    if k != x:
        return (f"sup of approximants = {P.format_element(k)} != "
                f"{P.format_element(x)}")
    return None


def _cont_exhaustive(P, scope):
    law = "continuous"
    for x in P.finite_view[0]:
        why = _continuity_failure(P, x)
        if why:
            return refuted(law, x, why, scope)
    return verified(law, scope)


def _subposet_exhaustive(P, scope, member):
    """Inside a finite subset way-below is the inherited order (a directed
    set holds its maximum), so that is what the ambient one must be."""
    law = "subposet"
    elems, fp, _ = P.finite_view
    inside = [i for i, e in enumerate(elems) if member(e)]
    for i in inside:
        for j in inside:
            ordered, ambient = fp.leq(i, j), P.waybelow(elems[i], elems[j])
            if ordered != ambient:
                return refuted(law, (elems[i], elems[j]),
                               f"way-below inside the subset = {ordered}, "
                               f"ambient = {ambient}", scope)
    return verified(law, scope)


def _axiom(exhaustive, sampled_name):
    """The checker ``(P, scope=None, ...)`` of one law, and the one place
    that picks its half: ``exhaustive`` when ``resolve_scope`` exhausts P,
    else ``sampled_laws.<sampled_name>``, which loads only then.  Further
    arguments go to either half: the subposet law takes the membership
    predicate of the subset, the kernel laws the kernel to hold to them."""

    def check(P, scope=None, *args, **kwargs):
        scope = resolve_scope(P, scope)
        if scope.kind == "exhaustive":
            return exhaustive(P, scope, *args, **kwargs)
        from . import sampled_laws
        return getattr(sampled_laws, sampled_name)(P, scope, *args, **kwargs)

    return check


check_conditionally_complete = _axiom(_cc_exhaustive, "_cc_sampled")
check_interpolation = _axiom(_interp_exhaustive, "_interp_sampled")
check_continuity = _axiom(_cont_exhaustive, "_cont_sampled")
check_subposet = _axiom(_subposet_exhaustive, "_subposet_sampled")
