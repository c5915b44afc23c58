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
sets.  Binary operations align both operands on one window, the common
threshold plus the lcm of the periods, and work on it with ``|``, ``&`` and
``& ~``; that window is capped at ``MAX_WINDOW`` bits.  Inclusion takes no
window when a side has a finite natural part.

Each rep keeps the primes of its period.  A period a caller spells out is
factored by trial division (once per period, in a bounded cache); the
lcm window of a join or meet is never factored, since its primes are those
of the operands' periods.  The least period divides out one prime at a
time, and each trial is one shift: a word of length L is d-periodic (d
dividing L) iff ``bits >> d == bits & ((1 << (L - d)) - 1)``.  The hash
reads a word of at most 64 bits whole and a longer one through its low
and high 64 bits and its length, so hashing costs the same at any period.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import ValidationError

# Largest period and threshold a caller may spell out.
MAX_LITERAL = 1 << 16
# Largest aligned window (common threshold + lcm of the periods), in bits,
# that a binary operation will allocate.
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
                    infinity, primes):
    """Store the canonical form of the given state in ``rep``: minimal
    period, then minimal threshold; an empty tail collapses to period 1.
    ``primes`` are the primes of ``period``, or None to factor it."""
    if residue_bits:
        if primes is None:
            primes = _prime_factors(period)
        period, residue_bits, primes = _minimal_period(period, residue_bits,
                                                       primes)
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
               primes=None):
    """Canonical rep of already valid state, without the validating
    constructor: the one path for results computed here.  ``primes`` are
    the primes of ``period``, or None to factor it."""
    return _normalize_into(object.__new__(ClosedSetRep), prefix_bits,
                           threshold, period, residue_bits, infinity, primes)


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


@lru_cache(maxsize=1 << 16)
def closedset_leq(a: ClosedSetRep, b: ClosedSetRep) -> bool:
    """Subset test on denotations.  A finite natural part is compared with
    the members of ``b`` below its threshold; an infinite one is never
    inside a finite one; two infinite ones are decided on the aligned
    window."""
    if a.infinity and not b.infinity:
        return False
    if not a.residue_bits:
        return not a.prefix_bits & ~_naturals_below(b, a.threshold)
    if not b.residue_bits:
        return False
    _, _, pa, ra, pb, rb = _aligned(a, b)
    return not (pa & ~pb) and not (ra & ~rb)


def _lcm_primes(a: ClosedSetRep, b: ClosedSetRep) -> tuple:
    """The primes of lcm(a.period, b.period): those of either period."""
    pa, pb = a._primes, b._primes
    if pa == pb or not pb:
        return pa
    if not pa:
        return pb
    return tuple({*pa, *pb})


@lru_cache(maxsize=1 << 16)
def closedset_join(a: ClosedSetRep, b: ClosedSetRep) -> ClosedSetRep:
    """Union; closed because a finite union of closed sets is closed."""
    t, span, pa, ra, pb, rb = _aligned(a, b)
    return _from_bits(pa | pb, t, span, ra | rb, a.infinity or b.infinity,
                      _lcm_primes(a, b))


@lru_cache(maxsize=1 << 16)
def closedset_meet(a: ClosedSetRep, b: ClosedSetRep) -> ClosedSetRep:
    """Intersection; closed sets are stable under arbitrary intersections."""
    t, span, pa, ra, pb, rb = _aligned(a, b)
    return _from_bits(pa & pb, t, span, ra & rb, a.infinity and b.infinity,
                      _lcm_primes(a, b))


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
