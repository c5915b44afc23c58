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
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import compress

from .errors import (CycleDetected, DuplicateLabel, EmptyFamily,
                     ForeignElement, PosetError, ScopeUnsupported, SizeLimit,
                     ValidationError)
from .families import ExplicitFamily, Family
from .reports import (DEFAULT_SUBSET_SAMPLES, EXHAUSTIVE, Scope, refuted,
                      sampled, unrefuted, verified)

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


def is_element(value) -> bool:
    """False for the NoSupremum / NoInfimum outcomes."""
    return not isinstance(value, _Outcome)


# ---------------------------------------------------------------------------
# Element payloads for the symbolic kinds

OMEGA = _Named("omega")  # the point above all naturals in the ω+1 chain
BOTTOM = _Named("bottom")  # the fresh least element added by the lift


@dataclass(frozen=True)
class Inner:
    """A non-bottom element of a lifted poset."""

    value: object


@dataclass(frozen=True)
class Left:
    value: object


@dataclass(frozen=True)
class Right:
    value: object


# ---------------------------------------------------------------------------
# Finite posets

# The cap of every scan of the 2^n subsets of a finite carrier (directed
# subsets, brute-force way-below and continuity, conditional completeness,
# candidate subposets and the bank laws), in elements; ``_subset_planes``
# enforces it.  It also bounds the size of a finite catalog poset.
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
    ``mask``."""
    planes = _subset_planes(n)
    hit = 0
    for b in _bits(mask):
        hit |= planes[b]
    return ((1 << (1 << n)) - 1) & ~hit


def _plane_members(plane):
    """The element masks of the subsets in a plane, ascending."""
    flags = bin(plane)[:1:-1].encode().translate(_BIT_FLAGS)
    return compress(range(len(flags)), flags)


class FinitePoset:
    """An explicit finite order, stored as bitmask rows of the relation.

    ``up[i]`` has bit j set iff element i is below element j.  The relation
    is validated to be reflexive, antisymmetric and transitive at
    construction time.
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
        for i in range(n):
            for j in _bits(up[i]):
                if i != j and (up[j] >> i) & 1:
                    raise CycleDetected(
                        f"{names[i]!r} and {names[j]!r} are mutually below "
                        "each other")
                if up[j] & ~up[i]:
                    raise ValidationError("order must be transitive")
        self.n = n
        self.names = names
        self.up = up
        down = [0] * n
        for i in range(n):
            for j in _bits(up[i]):
                down[j] |= 1 << i
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
        ubs = (1 << self.n) - 1
        for i in _bits(mask):
            ubs &= self.up[i]
        for u in _bits(ubs):
            if ubs & ~self.up[u] == 0:
                return u
        return None

    def glb_of_mask(self, mask):
        lbs = (1 << self.n) - 1
        for i in _bits(mask):
            lbs &= self.down[i]
        for v in _bits(lbs):
            if lbs & ~self.down[v] == 0:
                return v
        return None

    def lubless_subset(self):
        """The first nonempty subset, in mask order, that is bounded above
        but has no least upper bound, as a mask; None when there is none
        (the order is conditionally complete).

        Computed on subset planes: ``B[u]`` holds the subsets bounded by u,
        and a subset has u as its least upper bound when it lies in ``B[u]``
        and in no ``B[v]`` with v not above u."""
        n, full = self.n, (1 << self.n) - 1
        B = [_none_of(n, full & ~self.down[u]) for u in range(n)]
        bounded = lubbed = 0
        for u in range(n):
            least = B[u]
            for v in _bits(full & ~self.up[u]):
                least &= ~B[v]
            bounded |= B[u]
            lubbed |= least
        lubless = bounded & ~lubbed & ~1  # the empty subset is not asked
        return (lubless & -lubless).bit_length() - 1 if lubless else None

    @cached_property
    def directed_planes(self):
        """``(D, T)`` as subset planes.  ``D`` holds the directed subsets:
        nonempty, and every pair of members has an upper bound among the
        members.  ``T[t]`` holds the subsets whose maximum is t: they
        contain t and lie inside its down-set.

        Every finite directed set contains its own maximum, which is
        therefore its supremum; the maximum is computed and checked here
        rather than assumed.
        """
        n = self.n
        S = _subset_planes(n)
        full = (1 << n) - 1
        unbounded = 1  # the empty subset
        for i in range(n):
            for j in range(i + 1, n):
                unbounded |= S[i] & S[j] & _none_of(n, self.up[i] & self.up[j])
        D = ((1 << (1 << n)) - 1) & ~unbounded
        T = tuple(S[t] & _none_of(n, full & ~self.down[t]) for t in range(n))
        topless = D
        for plane in T:
            topless &= ~plane
        if topless:
            raise PosetError("a directed subset has no maximum; the order "
                             "is corrupt")
        return D, T

    @cached_property
    def directed_subset_masks(self):
        """All directed subsets as (mask, max_element) pairs in mask order,
        read off ``directed_planes``."""
        D, T = self.directed_planes
        return sorted((mask, t) for t in range(self.n)
                      for mask in _plane_members(D & T[t]))

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
    """Finite poset from labels and cover pairs; order is the
    reflexive-transitive closure of the covers."""
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
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = up[i]
            for j in _bits(acc):
                acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    for i in range(n):
        for j in _bits(up[i]):
            if i != j and (up[j] >> i) & 1:
                raise CycleDetected(
                    f"covers induce a cycle through {names[i]!r} and {names[j]!r}")
    return FinitePoset(names, up)


def induced_finite_poset(P, elems) -> FinitePoset:
    """The order of P restricted to ``elems``, as a FinitePoset whose index
    i is ``elems[i]`` and whose labels are the formatted elements."""
    up = []
    for x in elems:
        row = 0
        for j, y in enumerate(elems):
            if P.leq(x, y):
                row |= 1 << j
        up.append(row)
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
    # False exactly when continuity_counterexample() names a refuting point
    certified_continuous: bool

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
        carrier at cut n.  The order transfers both ways; way-below only
        from the carrier into the restriction, which lacks the unbounded
        families that refute way-below pairs here."""
        raise ScopeUnsupported(f"no truncation for kind {self.kind!r}")

    @cached_property
    def poset(self) -> FinitePoset:
        """The order of a finite carrier, index i standing for
        ``elements()[i]``; every finite law reads this one copy."""
        return induced_finite_poset(self, self.elements())

    # -- order ---------------------------------------------------------

    def leq(self, x, y) -> bool:
        raise NotImplementedError

    def finite_sup(self, xs):
        raise NotImplementedError

    def finite_inf(self, xs):
        raise NotImplementedError

    def lower_bound_exists(self, xs) -> bool:
        raise NotImplementedError

    # -- way-below -----------------------------------------------------

    def waybelow(self, x, y) -> bool:
        raise NotImplementedError

    def waybelow_family(self, x) -> Family | None:
        """A directed family cofinal in the approximants of x, with its
        supremum declared; None exactly when x has no approximants."""
        raise NotImplementedError

    def family_bank(self) -> list:
        return []

    # -- sampling and presentation-specific extras ----------------------

    def sample_elements(self, rng, count) -> list:
        raise ScopeUnsupported(f"{self.name} cannot sample elements")

    def interesting_elements(self) -> list:
        return []

    def interpolation_witness(self, x, y):
        """An element z with x << z << y, when the kind has a closed form."""
        return None

    def continuity_counterexample(self):
        """A certified witness that the poset is not continuous, if any."""
        return None

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
    certified_continuous = True

    def __init__(self, poset: FinitePoset, name="finite"):
        self.poset = poset
        self.name = name

    def contains(self, x) -> bool:
        return type(x) is int and 0 <= x < self.poset.n

    def elements(self):
        return list(range(self.poset.n))

    def leq(self, x, y) -> bool:
        return self.poset.leq(x, y)

    def finite_sup(self, xs):
        u = self.poset.lub_of_mask(_mask(xs))
        return NO_SUPREMUM if u is None else u

    def finite_inf(self, xs):
        v = self.poset.glb_of_mask(_mask(xs))
        return NO_INFIMUM if v is None else v

    def lower_bound_exists(self, xs):
        lbs = (1 << self.poset.n) - 1
        for x in xs:
            lbs &= self.poset.down[x]
        return lbs != 0

    def waybelow(self, x, y) -> bool:
        return self.poset.leq(x, y)

    def waybelow_family(self, x):
        members = tuple(i for i in range(self.poset.n) if self.poset.leq(i, x))
        return ExplicitFamily(members, x,
                              label=f"down-set({self.poset.names[x]})")

    @cached_property
    def _bank(self):
        """Every directed subset, labelled by its element names, or a fixed
        random 2048 of them when there are more.  Only a symbolic
        combinator reads it: the laws scan a finite carrier's directed
        subsets as masks."""
        masks = self.poset.directed_subset_masks
        if len(masks) > 2048:
            masks = random.Random(0xD1CE).sample(masks, 2048)
        return [ExplicitFamily(tuple(_bits(mask)), top, label="{" + ", ".join(
                    map(self.format_element, _bits(mask))) + "}")
                for mask, top in masks]

    def family_bank(self):
        return self._bank

    @cached_property
    def certified_conditionally_complete(self):
        return (self.poset.n <= FINITE_CAP
                and self.poset.lubless_subset() is None)

    def sample_elements(self, rng, count):
        return [rng.randrange(self.poset.n) for _ in range(count)]

    def interesting_elements(self):
        return list(range(self.poset.n))

    def interpolation_witness(self, x, y):
        return x

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
    return P.waybelow_family(x) is not None


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

def sample_pool(P: PosetPresentation, rng, count) -> list:
    """Deterministic element pool: the kind's interesting elements first,
    then random samples, de-duplicated."""
    pool = list(P.interesting_elements())
    pool.extend(P.sample_elements(rng, count))
    return list(dict.fromkeys(pool))


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
    mask = P.poset.lubless_subset()
    if mask is not None:
        elems = P.elements()
        return refuted(law, tuple(elems[i] for i in _bits(mask)),
                       "bounded-above subset without a least upper bound",
                       scope)
    return verified(law, scope, reason="all nonempty bounded subsets scanned")


def _cc_sampled(P, scope):
    law = "conditionally_complete"
    rng = random.Random(scope.seed)
    pool = sample_pool(P, rng, scope.count)
    checked = 0
    for _ in range(min(scope.count, DEFAULT_SUBSET_SAMPLES)):
        size = rng.randint(2, 4)
        if len(pool) < size:
            break
        subset = rng.sample(pool, size)
        s = P.finite_sup(tuple(subset))
        if is_element(s):
            if not all(P.leq(a, s) for a in subset):
                return refuted(law, tuple(subset),
                               "reported supremum is not an upper bound",
                               scope, samples=checked)
            for u in pool:
                if all(P.leq(a, u) for a in subset) and not P.leq(s, u):
                    return refuted(
                        law, tuple(subset),
                        f"supremum not least: {P.format_element(u)} is a "
                        "smaller-incomparable upper bound", scope,
                        samples=checked)
        checked += 1
    for fam in P.family_bank():
        members = fam.sample_members()
        if not all(P.leq(m, fam.supremum) for m in members):
            return refuted(law, fam.label or fam,
                           "declared supremum does not dominate a member",
                           scope, samples=checked)
        if isinstance(fam, ExplicitFamily):
            for u in sample_pool(P, rng, 64):
                if all(P.leq(m, u) for m in members) and not P.leq(fam.supremum, u):
                    return refuted(law, fam.label or fam,
                                   "declared supremum is not least", scope,
                                   samples=checked)
        checked += 1
    if P.certified_conditionally_complete:
        return verified(law, scope,
                        reason="certified for the kind; probes consistent",
                        samples=checked)
    return unrefuted(law, checked, scope)


def _interp_exhaustive(P, scope):
    law = "interpolating"
    elems = P.elements()
    for x in elems:
        for y in elems:
            if P.waybelow(x, y):
                if not any(P.waybelow(x, z) and P.waybelow(z, y)
                           for z in elems):
                    return refuted(law, (x, y), "no interpolant", scope)
    return verified(law, scope)


def _interp_sampled(P, scope):
    law = "interpolating"
    rng = random.Random(scope.seed)
    pool = sample_pool(P, rng, scope.count)
    checked = 0
    for _ in range(scope.count):
        x, y = rng.choice(pool), rng.choice(pool)
        if not P.waybelow(x, y):
            continue
        z = P.interpolation_witness(x, y)
        good = z is not None and P.waybelow(x, z) and P.waybelow(z, y)
        if not good:
            good = any(P.waybelow(x, z) and P.waybelow(z, y) for z in pool)
        if not good:
            return refuted(law, (x, y), "no interpolant found in scope",
                           scope, samples=checked)
        checked += 1
    if P.certified_interpolating:
        return verified(law, scope,
                        reason="certified closed-form witness; spot-checked",
                        samples=checked)
    return unrefuted(law, checked, scope)


def _continuity_failure(P, x):
    """Reason string if x is not the supremum of its approximants."""
    fam = P.waybelow_family(x)
    if fam is None:
        return "no approximants"
    k = fam.supremum
    if k != x:
        return (f"sup of approximants = {P.format_element(k)} != "
                f"{P.format_element(x)}")
    return None


def _cont_exhaustive(P, scope):
    law = "continuous"
    for x in P.elements():
        why = _continuity_failure(P, x)
        if why:
            return refuted(law, x, why, scope)
    return verified(law, scope)


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
    pool.extend(sample_pool(P, random.Random(scope.seed), scope.count))
    pool = list(dict.fromkeys(pool))[:scope.count]
    for i, x in enumerate(pool, 1):
        why = _continuity_failure(P, x)
        if why:
            return refuted(law, x, why, scope, samples=i)
    return verified(law, scope, reason="certified for the kind",
                    samples=len(pool))


def _subposet_exhaustive(P, scope, member):
    from .oracle import waybelow_bruteforce  # cycle: oracle builds on core

    law = "subposet"
    elems = [e for e in P.elements() if member(e)]
    induced = induced_finite_poset(P, elems)
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            inside = waybelow_bruteforce(induced, i, j)
            ambient = P.waybelow(x, y)
            if inside != ambient:
                return refuted(law, (x, y),
                               f"way-below inside the subset = {inside}, "
                               f"ambient = {ambient}", scope)
    return verified(law, scope)


def _subposet_sampled(P, scope, member):
    """Way-below pairs drawn inside the subset, probed against the bank
    families that lie in it.  The pool is the subset's interesting elements,
    then parent samples drawn one at a time that land in the subset."""
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
    confirmed = 0
    for _ in range(scope.count):
        if not pool:
            break
        x, y = rng.choice(pool), rng.choice(pool)
        ambient = P.waybelow(x, y)
        for fam in bank:
            if not P.leq(y, fam.supremum) or family_dominates(P, fam, x):
                continue
            if ambient:
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


def _axiom(exhaustive, sampled_check):
    """The checker ``(P, scope=None, *args)`` of one order axiom: the
    exhaustive variant when ``resolve_scope`` exhausts P, the sampled one
    otherwise.  The subposet law takes one argument, the membership
    predicate of the subset."""

    def check(P, scope=None, *args):
        scope = resolve_scope(P, scope)
        if scope.kind == "exhaustive":
            return exhaustive(P, scope, *args)
        return sampled_check(P, scope, *args)

    return check


check_conditionally_complete = _axiom(_cc_exhaustive, _cc_sampled)
check_interpolation = _axiom(_interp_exhaustive, _interp_sampled)
check_continuity = _axiom(_cont_exhaustive, _cont_sampled)
check_subposet = _axiom(_subposet_exhaustive, _subposet_sampled)
