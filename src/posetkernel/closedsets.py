"""Eventually-periodic representations of closed subsets of N ∪ {∞}.

Give N ∪ {∞} the topology of the one-point compactification of discrete N:
a subset is closed iff it is a finite subset of N or it contains ∞.  Ordered
by inclusion, the closed sets form a complete lattice (meets are
intersections, finite joins are unions, infinite joins add ∞ when the union
of the natural parts is infinite).

The carrier here is the sublattice of closed sets whose natural part is
eventually periodic: membership of n below ``threshold`` is bit n of the
prefix bits, and at or above ``threshold`` it is bit ``n % period`` of the
residue bits.  This class of sets (the unary regular languages) is closed
under finite unions and intersections, so the representation supports the
full binary lattice structure exactly.

Closedness forces the invariant: a nonempty residue set (infinite natural
part) requires the ∞ flag.

Every value is kept in the canonical form (minimal period, then minimal
threshold), so structural equality coincides with equality of the denoted
sets.  A join or meet aligns both operands on one window, the common
threshold plus the lcm of the periods, and works on it with ``|`` and
``&``; that window is capped at ``MAX_WINDOW`` bits, which binds only join
and meet.  Inclusion builds no word longer than the larger period: a finite
natural part is compared with the other set's members below its threshold,
and for two infinite ones, after the members below the larger threshold,
each residue word is ORed down to g = gcd(pa, pb) bits.  By the Chinese
remainder theorem the residues (n mod pa, n mod pb) of the naturals n past
the threshold are exactly the pairs (r, s) with r = s mod g, so ``a`` has a
member missing from ``b`` iff a residue of ``a`` and a residue missing from
``b`` agree modulo g.

Each rep keeps the primes of its period.  A period a caller spells out is
factored by trial division (once per period, in a bounded cache); the
lcm window of a join or meet is never factored, since its primes are those
of the operands' periods.  The least period divides out one prime at a
time, and each trial is one shift: a word of length L is d-periodic (d
dividing L) iff ``bits >> d == bits & ((1 << (L - d)) - 1)``.  The hash
reads a word of at most 64 bits whole and a longer one through its low
and high 64 bits and its length, so hashing costs the same at any period.

A join or meet of operands whose least periods pa and pb exceed 1 and are
coprime skips the trials: the product L = pa * pb is already the least
period of the union and of the intersection of their tails.  The proof
rests on the canonical form, which makes each operand's period its least
one.  By the Chinese remainder theorem the tails are A' x Z_pb and
Z_pa x B' in Z_pa x Z_pb, with A' and B' neither empty nor full (a least
period above 1).  Let the prime r divide pa (pb is symmetric).  The shift
by L / r fixes every residue modulo pb and moves residues modulo pa by a
generator of the subgroup of pa / r.  At a residue s modulo pb outside
B' the union is A' x {s}, so if the union repeated with L / r, A' would
repeat with pa / r, which leastness forbids.  The intersection is the
complement of the union of the complements, whose least periods are
again pa and pb.

``ClosedSetsPresentation`` makes these sets a poset carrier, with
*certified* closed-form rules for its order, suprema and way-below
relation.  Way-below is defined by a quantification over all directed
bounded-above sets, which is undecidable on this infinite carrier, so the
rules below are proved here once and machine-refuted (never confirmed)
against the family bank by the oracle module.

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

Carrier hooks: ``ClosedSetsPresentation`` names its non-continuity witness
{∞}, a compact element below each set, the evens/odds infimum instance,
its retract rule and its ``truncation`` (the closed sets over {0..n}).  It
gives ``kernel_value`` in the closed form above, and ``order_codes`` in
closed form: the naturals on one window, and ∞.  ``catalog.make_catalog``
imports this module for a closed-set kind only.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache, reduce

from .catalog import MAX_ELEMENTS, _check_size
from .core import NO_LOWER_BOUND, PosetPresentation, _bits
from .errors import ValidationError
from .families import ChainFamily, ExplicitFamily

# Largest period and threshold a caller may spell out.
MAX_LITERAL = 1 << 16
# Largest aligned window (common threshold + lcm of the periods), in bits,
# that a join or meet will allocate; inclusion needs none.
MAX_WINDOW = 1 << 27


class ClosedSetRep:
    """Canonical eventually-periodic closed subset of N ∪ {∞}.

    ``ClosedSetRep(prefix, threshold, period, residues, infinity)`` takes
    the naturals below ``threshold`` and the residues modulo ``period`` as
    iterables of ints, validates them and stores the canonical form as
    ``prefix_bits`` and ``residue_bits``.  ``prefix`` and ``residues`` are
    frozenset views of those bits.  Instances are immutable.
    """

    __slots__ = ("prefix_bits", "threshold", "period", "residue_bits",
                 "infinity", "_primes", "_hash")

    def __init__(self, prefix=(), threshold=0, period=1, residues=(),
                 infinity=False):
        self.__post_init__(prefix, threshold, period, residues, infinity)

    def __post_init__(self, prefix, threshold, period, residues, infinity):
        _check_literal_int("period", period, 1)
        _check_literal_int("threshold", threshold, 0)
        prefix_bits = _naturals_to_bits(
            prefix, threshold, "prefix entries must lie in [0, threshold)")
        residue_bits = _naturals_to_bits(
            residues, period, "residues must lie in [0, period)")
        if residue_bits and not infinity:
            raise ValidationError(
                "infinite natural part requires the point at infinity")
        _normalize_into(self, prefix_bits, threshold, period, residue_bits,
                        bool(infinity), None)

    @property
    def prefix(self) -> frozenset:
        return _bit_positions(self.prefix_bits)

    @property
    def residues(self) -> frozenset:
        return _bit_positions(self.residue_bits)

    def __contains__(self, n: int) -> bool:
        if n < self.threshold:
            return n >= 0 and bool(self.prefix_bits >> n & 1)
        return bool(self.residue_bits >> n % self.period & 1)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, ClosedSetRep):
            return NotImplemented
        return (self._hash == other._hash
                and self.threshold == other.threshold
                and self.period == other.period
                and self.infinity == other.infinity
                and self.prefix_bits == other.prefix_bits
                and self.residue_bits == other.residue_bits)

    def __hash__(self):
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"ClosedSetRep is immutable; cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"ClosedSetRep is immutable; cannot delete {name}")

    def __repr__(self):
        return f"ClosedSetRep({format_closed_set(self)})"


def _check_literal_int(name, value, low):
    if type(value) is not int:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValidationError(f"{name} must be >= {low}, got {value}")
    if value > MAX_LITERAL:
        raise ValidationError(f"{name} {value} exceeds the cap {MAX_LITERAL}")


def _naturals_to_bits(naturals, bound, message) -> int:
    bits = 0
    for n in naturals:
        if type(n) is not int:
            raise ValidationError(f"naturals must be integers, got {n!r}")
        if not 0 <= n < bound:
            raise ValidationError(message)
        bits |= 1 << n
    return bits


def _bit_positions(bits: int) -> frozenset:
    digits = bin(bits)[:1:-1]
    return frozenset(i for i, d in enumerate(digits) if d == "1")


def _tile(bits: int, period: int, width: int) -> int:
    """``bits`` (a pattern of length ``period``) repeated to cover at least
    ``width`` bits, by doubling shifts: bit n of the result is bit
    ``n % period`` of ``bits`` for every n below ``width``."""
    while period < width:
        bits |= bits << period
        period <<= 1
    return bits


@lru_cache(maxsize=1 << 10)
def _prime_factors(n: int) -> tuple:
    """The distinct primes of ``n``, by trial division: only for periods a
    caller spells out, which are at most ``MAX_LITERAL``."""
    primes = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        primes.append(n)
    return tuple(primes)


def _minimal_period(period: int, bits: int, primes: tuple):
    """Least period of the cyclic word ``bits`` of length ``period``, with
    the word cut to it and the primes of that period; ``primes`` holds those
    of ``period``.  The periods dividing ``period`` are the multiples of the
    least one, so dividing out one prime at a time while the word repeats
    with the quotient reaches it.  A word of length L repeats with d (d
    dividing L) iff it equals itself shifted by d on the L - d bits both
    cover."""
    cut = False
    for q in primes:
        while period % q == 0:
            d = period // q
            if bits >> d != bits & ((1 << (period - d)) - 1):
                break
            period, bits, cut = d, bits & ((1 << d) - 1), True
    if cut:
        primes = tuple(q for q in primes if period % q == 0)
    return period, bits, primes


_WORD = (1 << 64) - 1


def _digest(bits: int) -> tuple:
    """A fixed-size stand-in, in the hash, for a word longer than 64 bits:
    its low and high 64 bits and its length."""
    n = bits.bit_length()
    return bits & _WORD, bits >> (n - 64), n


def _normalize_into(rep, prefix_bits, threshold, period, residue_bits,
                    infinity, primes, least=False):
    """Store the canonical form of the given state in ``rep``: minimal
    period, then minimal threshold; an empty tail collapses to period 1.
    ``primes`` are the primes of ``period``, or None to factor it.
    ``least`` says that ``period`` is already the least period of a
    nonempty tail, so no trial shift runs."""
    if residue_bits:
        if not least:
            if primes is None:
                primes = _prime_factors(period)
            period, residue_bits, primes = _minimal_period(
                period, residue_bits, primes)
        # The threshold can drop to one past the highest natural where the
        # prefix disagrees with the periodic tail extended downwards.
        tail = _tile(residue_bits, period, threshold)
        threshold = ((prefix_bits ^ tail) & ((1 << threshold) - 1)
                     ).bit_length()
        prefix_bits &= (1 << threshold) - 1
    else:
        threshold, period, primes = prefix_bits.bit_length(), 1, ()
    return _store(rep, prefix_bits, threshold, period, residue_bits,
                  infinity, primes)


def _store(rep, prefix_bits, threshold, period, residue_bits, infinity,
           primes):
    """Set the fields of ``rep`` to a state already in canonical form."""
    setter = object.__setattr__
    setter(rep, "prefix_bits", prefix_bits)
    setter(rep, "threshold", threshold)
    setter(rep, "period", period)
    setter(rep, "residue_bits", residue_bits)
    setter(rep, "infinity", infinity)
    setter(rep, "_primes", primes)
    setter(rep, "_hash", hash((
        prefix_bits if prefix_bits <= _WORD else _digest(prefix_bits),
        threshold, period,
        residue_bits if residue_bits <= _WORD else _digest(residue_bits),
        infinity)))
    return rep


def _from_bits(prefix_bits, threshold, period, residue_bits, infinity,
               primes=None, least=False):
    """Canonical rep of already valid state, without the validating
    constructor: the one path for results computed here.  ``primes`` are
    the primes of ``period``, or None to factor it; ``least`` is as for
    ``_normalize_into``."""
    return _normalize_into(object.__new__(ClosedSetRep), prefix_bits,
                           threshold, period, residue_bits, infinity, primes,
                           least)


def closedset_normalize(rep: ClosedSetRep) -> ClosedSetRep:
    """Canonical form of a representation; idempotent by construction."""
    return _from_bits(rep.prefix_bits, rep.threshold, rep.period,
                      rep.residue_bits, rep.infinity, rep._primes)


def _naturals_below(rep: ClosedSetRep, width: int) -> int:
    """The natural members of ``rep`` below ``width``, as bits."""
    if not rep.residue_bits:
        bits = rep.prefix_bits
        return bits if rep.threshold <= width else bits & ((1 << width) - 1)
    tail = _tile(rep.residue_bits, rep.period, width)
    tail &= ~((1 << rep.threshold) - 1)
    return (rep.prefix_bits | tail) & ((1 << width) - 1)


def _aligned(a: ClosedSetRep, b: ClosedSetRep):
    """Both operands on a common window: the common threshold, the lcm of
    the periods, and for each operand its members below that threshold and
    its residues modulo that lcm.  Membership at and beyond the threshold
    is periodic with the lcm, so the window decides everything."""
    t = max(a.threshold, b.threshold)
    span = math.lcm(a.period, b.period)
    if t + span > MAX_WINDOW:
        raise ValidationError(
            f"window {t} + lcm {span} exceeds the cap of {MAX_WINDOW} bits")
    ra, rb = a.residue_bits, b.residue_bits
    if a.period < span or b.period < span:  # tile only below the window
        mask = (1 << span) - 1
        ra = ra if a.period == span else _tile(ra, a.period, span) & mask
        rb = rb if b.period == span else _tile(rb, b.period, span) & mask
    return t, span, _naturals_below(a, t), ra, _naturals_below(b, t), rb


def _fold(bits: int, length: int, g: int) -> int:
    """The word ``bits`` of that length ORed onto its first g bits (g
    dividing the length), by halving shifts: bit r of the result is set
    iff some bit r + k * g is."""
    while length > g:
        half = (length // g + 1) // 2 * g
        bits = bits & ((1 << half) - 1) | bits >> half
        length = half
    return bits


@lru_cache(maxsize=1 << 16)
def closedset_leq(a: ClosedSetRep, b: ClosedSetRep) -> bool:
    """Subset test on denotations.  A finite natural part is compared with
    the members of ``b`` below its threshold; an infinite one is never
    inside a finite one.  Two infinite ones compare their members below
    the larger threshold, then their residues modulo g, the gcd of the
    periods: past the threshold, n's residues (n mod pa, n mod pb) take
    exactly the pairs (r, s) with r = s mod g (Chinese remainder theorem),
    so some member of ``a`` is missing from ``b`` iff a residue of ``a``
    and a residue missing from ``b`` agree modulo g.  No word is longer
    than the larger period, so no pair is refused."""
    if a is b:
        return True
    if a.infinity and not b.infinity:
        return False
    if not a.residue_bits:
        return not a.prefix_bits & ~_naturals_below(b, a.threshold)
    if not b.residue_bits:
        return False
    t = max(a.threshold, b.threshold)
    if _naturals_below(a, t) & ~_naturals_below(b, t):
        return False
    g = math.gcd(a.period, b.period)
    missing = ~b.residue_bits & ((1 << b.period) - 1)
    return not (_fold(a.residue_bits, a.period, g)
                & _fold(missing, b.period, g))


def _lcm_primes(a: ClosedSetRep, b: ClosedSetRep) -> tuple:
    """The primes of lcm(a.period, b.period): those of either period."""
    pa, pb = a._primes, b._primes
    if pa == pb or not pb:
        return pa
    if not pa:
        return pb
    return tuple({*pa, *pb})


def _coprime(a: ClosedSetRep, b: ClosedSetRep) -> bool:
    """Whether both least periods exceed 1 and are coprime: then their
    product is the least period of the union and of the intersection of
    the two tails (see the module docstring)."""
    return min(a.period, b.period) > 1 and math.gcd(a.period, b.period) == 1


@lru_cache(maxsize=1 << 16)
def closedset_join(a: ClosedSetRep, b: ClosedSetRep) -> ClosedSetRep:
    """Union; closed because a finite union of closed sets is closed."""
    t, span, pa, ra, pb, rb = _aligned(a, b)
    return _from_bits(pa | pb, t, span, ra | rb, a.infinity or b.infinity,
                      _lcm_primes(a, b), _coprime(a, b))


@lru_cache(maxsize=1 << 16)
def closedset_meet(a: ClosedSetRep, b: ClosedSetRep) -> ClosedSetRep:
    """Intersection; closed sets are stable under arbitrary intersections."""
    t, span, pa, ra, pb, rb = _aligned(a, b)
    return _from_bits(pa & pb, t, span, ra & rb, a.infinity and b.infinity,
                      _lcm_primes(a, b), _coprime(a, b))


def closed_set(naturals=(), infinity=False) -> ClosedSetRep:
    """Closed set with a finite natural part."""
    naturals = tuple(naturals)
    threshold = max(naturals) + 1 if naturals else 0
    return ClosedSetRep(naturals, threshold, 1, (), infinity)


def periodic_set(residues, period, *, prefix=(), threshold=0,
                 infinity=True) -> ClosedSetRep:
    """Closed set whose natural part is periodic from ``threshold`` on."""
    return ClosedSetRep(prefix, threshold, period, residues, infinity)


EMPTY = closed_set()
INF_POINT = closed_set(infinity=True)
FULL = periodic_set({0}, 1)
EVENS = periodic_set({0}, 2)
ODDS = periodic_set({1}, 2)


def is_empty(rep: ClosedSetRep) -> bool:
    return not rep.prefix_bits and not rep.residue_bits and not rep.infinity


def natural_part_is_finite(rep: ClosedSetRep) -> bool:
    return not rep.residue_bits


def _lowest_bit(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


def min_natural(rep: ClosedSetRep):
    """Least natural member, or None when the natural part is empty."""
    if rep.prefix_bits:
        return _lowest_bit(rep.prefix_bits)
    if rep.residue_bits:
        start = rep.threshold % rep.period
        later = rep.residue_bits >> start
        if later:
            return rep.threshold + _lowest_bit(later)
        return rep.threshold + rep.period - start + _lowest_bit(
            rep.residue_bits)
    return None


def truncate_naturals(rep: ClosedSetRep, n: int) -> ClosedSetRep:
    """The finite closed set {m in rep ∩ N : m <= n}."""
    return _from_bits(_naturals_below(rep, n + 1), 0, 1, 0, False)


def natural_closure(rep: ClosedSetRep) -> ClosedSetRep:
    """Closure of the natural part: itself if finite, else with ∞ attached.

    This is the supremum of the finite closed subsets of ``rep``'s natural
    part, i.e. the value of the approximation kernel on ``rep``.  For a
    finite natural part it is that part as a closed set without ∞.
    """
    if rep.residue_bits or not rep.infinity:
        return rep
    # A finite natural part with ∞: dropping ∞ keeps the form canonical.
    return _store(object.__new__(ClosedSetRep), rep.prefix_bits,
                  rep.threshold, 1, 0, False, ())


def format_closed_set(rep: ClosedSetRep) -> str:
    if not rep.residue_bits:
        items = [str(n) for n in sorted(rep.prefix)]
        if rep.infinity:
            items.append("inf")
        return "{" + ",".join(items) + "}"
    body = f"mod {rep.period}: {sorted(rep.residues)} from {rep.threshold}"
    if rep.prefix_bits:
        body += f", prefix {sorted(rep.prefix)}"
    body += ", inf"
    return "{" + body + "}"


# ---------------------------------------------------------------------------
# The carrier: closed subsets of N ∪ {∞} by inclusion


class ClosedSetsPresentation(PosetPresentation):
    certified_conditionally_complete = True
    certified_interpolating = True

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

    def order_codes(self, xs):
        """In closed form: bit n of a code says whether the natural n is a
        member, for n below one window w (the largest threshold plus the
        lcm of the periods), and bit w whether ∞ is.  From the largest
        threshold on, membership repeats with the lcm, so the window
        decides inclusion.  Codes of more than ``MAX_WINDOW`` bits in all
        fall back to the pairwise default, whose ``closedset_leq`` takes
        no window and answers every pair."""
        w = max((x.threshold for x in xs), default=0) + math.lcm(
            *(x.period for x in xs))
        if w * len(xs) > MAX_WINDOW:
            return super().order_codes(xs)
        return [_naturals_below(x, w) | x.infinity << w for x in xs]

    def finite_sup(self, xs):
        return reduce(closedset_join, xs)

    def finite_inf(self, xs):
        acc = reduce(closedset_meet, xs)
        if self.punctured and is_empty(acc):
            return NO_LOWER_BOUND
        return acc

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

    def _kernel_value(self, x):
        # the family's supremum in closed form; the suite holds the two
        # against each other
        if self.punctured and min_natural(x) is None:
            return None
        return natural_closure(x)

    def _bank(self):
        initial = ChainFamily(
            lambda i: closed_set(range(i + 1)), FULL,
            label="initial-segments",
            member_dominates=lambda v: self.waybelow(v, FULL),
            kernel_image_sup=FULL)
        evens = ChainFamily(
            lambda i: closed_set(range(0, 2 * i + 1, 2)), EVENS,
            label="even-initial-segments",
            member_dominates=lambda v: self.waybelow(v, EVENS),
            kernel_image_sup=EVENS)
        through_inf = ChainFamily(
            lambda i: closed_set(range(i + 1), infinity=True), FULL,
            label="initial-segments-with-inf",
            member_dominates=natural_part_is_finite,
            kernel_image_sup=FULL)
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
            ExplicitFamily((INF_POINT, closed_set({0}, True),
                            closed_set({0, 1}, True)),
                           closed_set({0, 1}, True),
                           label="chain-through-inf"),
            ExplicitFamily((INF_POINT,), INF_POINT,
                           label="inf-singleton"),
        ]
        if not self.punctured:
            families.append(ExplicitFamily(
                (EMPTY, closed_set({1}), closed_set({2}),
                 closed_set({1, 2})),
                closed_set({1, 2}), label="join-closed-with-bottom"))
            families.append(ExplicitFamily((EMPTY,), EMPTY,
                                           label="bottom-singleton"))
        return families

    @cached_property
    def _sample_pool(self):
        return self.interesting_elements()

    def sample_elements(self, rng, count):
        # Each set is built from the bits of the naturals drawn, which are
        # valid by construction, so no literal is checked.
        out = []
        pool = self._sample_pool
        for _ in range(count):
            style = rng.random()
            if style < 0.45:
                nats = 0
                for _ in range(rng.randint(0, 4)):
                    nats |= 1 << rng.randrange(12)
                rep = _from_bits(nats, 0, 1, 0, rng.random() < 0.35)
            elif style < 0.85:
                p = rng.randint(1, 4)
                rs = sum(1 << q for q in range(p) if rng.random() < 0.5)
                rs = rs or 1 << rng.randrange(p)
                t = rng.randint(0, 4)
                pref = sum(1 << m for m in range(t) if rng.random() < 0.4)
                rep = _from_bits(pref, t, p, rs, True)
            else:
                rep = rng.choice(pool)
            if self.punctured and is_empty(rep):
                rep = _from_bits(1 << rng.randrange(8), 0, 1, 0, False)
            out.append(rep)
        return out

    def interesting_elements(self):
        base = [
            INF_POINT,
            closed_set({0}),
            closed_set({1}),
            closed_set({5}),
            closed_set({0, 1}),
            closed_set({1, 3}),
            closed_set({1, 3}, infinity=True),
            closed_set({0}, infinity=True),
            FULL,
            EVENS,
            ODDS,
            periodic_set({0}, 3),
            periodic_set({2}, 3, prefix={0}, threshold=1),
        ]
        if not self.punctured:
            base.insert(0, EMPTY)
        return base

    def truncation(self, n):
        """The closed sets over {0..n}, without ∞ and then with it."""
        # 2^(n+1) sets per ∞ flag.  An exponent past the cap's bit length
        # is over the cap already, so a huge n is refused without a huge int.
        _check_size(2 << min(n + 1, MAX_ELEMENTS.bit_length()),
                    f"the {self.kind} truncation at {n}")
        reps = (closed_set(_bits(mask), infinity=inf)
                for inf in (False, True) for mask in range(1 << (n + 1)))
        return [rep for rep in reps if self.contains(rep)]

    def continuity_counterexample(self):
        return INF_POINT

    def compact_below(self, x):
        finite_part = truncate_naturals(x, 15)
        return finite_part if self.contains(finite_part) else None

    def inf_instances(self):
        # Their meet {∞} lies outside the retract; its kernel value is ∅.
        return [] if self.punctured else [(EVENS, ODDS)]

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
    prefix/threshold/period/residues/infinity form, not both."""
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
        mixed = set(literal) - {"finite", "infinity"}
        if mixed:
            raise ValidationError(f"'finite' cannot be combined with "
                                  f"{sorted(mixed)}")
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
