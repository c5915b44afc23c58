"""Closed-set representation algebra, checked against plain set arithmetic
on sound comparison windows."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from posetkernel import ClosedSetRep, closed_set, periodic_set
from posetkernel.closedsets import (EMPTY, EVENS, FULL, INF_POINT,
                                    MAX_LITERAL, MAX_WINDOW, ODDS, _aligned,
                                    _minimal_period, _prime_factors,
                                    closedset_join,
                                    closedset_leq, closedset_meet,
                                    closedset_normalize,
                                    format_closed_set, is_empty, min_natural,
                                    natural_closure, natural_part_is_finite)
from posetkernel.errors import ValidationError

from conftest import closed_fields, closed_reps, compare_window, model_member


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


PRIMES = [p for p in range(50, 251) if _is_prime(p)]
# Periods whose lcm windows share primes or are prime powers.
SHARED_PRIMES = [4, 6, 8, 9, 12, 14, 18, 25, 27, 49]


class TestNormalization:
    def test_full_residues_collapse_to_period_one(self):
        rep = ClosedSetRep(frozenset(), 0, 2, frozenset({0, 1}), True)
        assert rep.period == 1
        assert rep.residues == frozenset({0})
        assert rep == FULL

    def test_empty_tail_gives_finite_form(self):
        rep = ClosedSetRep(frozenset({4}), 5, 3, frozenset(), False)
        assert rep == closed_set({4})
        assert rep.period == 1 and rep.threshold == 5

    def test_closedness_violation(self):
        with pytest.raises(ValidationError, match="point at infinity"):
            ClosedSetRep(frozenset(), 0, 2, frozenset({0}), False)

    def test_structural_validation(self):
        with pytest.raises(ValidationError):
            ClosedSetRep(frozenset({3}), 2, 1, frozenset(), False)
        with pytest.raises(ValidationError):
            ClosedSetRep(frozenset(), 0, 0, frozenset(), False)
        with pytest.raises(ValidationError):
            ClosedSetRep(frozenset(), 0, 2, frozenset({5}), True)

    @pytest.mark.parametrize("fields", [
        ({True}, 2, 1, (), False),
        ({1.0}, 2, 1, (), False),
        ((), 2.0, 1, (), False),
        ((), True, 1, (), False),
        ((), 0, True, (0,), True),
        ((), 0, 2, (1.0,), True),
        ((), 0, MAX_LITERAL + 1, (0,), True),
        ((), MAX_LITERAL + 1, 1, (), False),
    ])
    def test_strict_integers_and_literal_caps(self, fields):
        with pytest.raises(ValidationError):
            ClosedSetRep(*fields)

    def test_literal_caps_are_inclusive(self):
        rep = ClosedSetRep((), MAX_LITERAL, MAX_LITERAL, (1,), True)
        assert rep.period == MAX_LITERAL and rep.threshold == 2

    @given(closed_fields(max_period=64, max_threshold=40), st.integers(1, 4),
           st.integers(0, 20))
    def test_equal_denotations_give_equal_reps(self, fields, factor, extra):
        """Spelling the same set with a multiple of the period and a later
        threshold gives an equal rep with an equal hash and equal state."""
        rep = ClosedSetRep(*fields)
        _, threshold, period, residues, infinity = fields
        longer = period * factor
        later = threshold + extra
        other = ClosedSetRep(
            [n for n in range(later) if model_member(fields, n)], later,
            longer, [r for r in range(longer) if r % period in residues],
            infinity)
        assert other == rep and hash(other) == hash(rep)
        assert (other.prefix_bits, other.threshold, other.period,
                other.residue_bits, other.infinity) == \
            (rep.prefix_bits, rep.threshold, rep.period, rep.residue_bits,
             rep.infinity)

    def test_threshold_absorbed_into_tail(self):
        rep = ClosedSetRep(frozenset({0}), 1, 1, frozenset({0}), True)
        assert rep == FULL
        assert rep.threshold == 0 and not rep.prefix

    @given(closed_reps())
    def test_normalize_idempotent(self, rep):
        again = closedset_normalize(rep)
        assert again == rep
        assert (again.prefix, again.threshold, again.period, again.residues,
                again.infinity) == (rep.prefix, rep.threshold, rep.period,
                                    rep.residues, rep.infinity)

    @given(closed_reps())
    def test_normalization_preserves_denotation(self, rep):
        raw_prefix = rep.prefix
        raw = ClosedSetRep(rep.prefix, rep.threshold, rep.period,
                           rep.residues, rep.infinity)
        for n in range(compare_window(rep)):
            assert (n in raw) == (n in rep)
        assert raw.infinity == rep.infinity
        assert raw_prefix <= set(range(max(rep.threshold, 1)))

    def test_semantic_equality_across_presentations(self):
        assert periodic_set({0, 1}, 2) == FULL
        assert ClosedSetRep(frozenset({1}), 2, 2, frozenset({1}), True) == ODDS
        assert closed_set({2, 4}) == ClosedSetRep(frozenset({2, 4}), 5, 3,
                                                  frozenset(), False)


class TestAlgebra:
    def test_join_examples(self):
        assert closedset_join(closed_set({1}), closed_set({2}, True)) == \
            closed_set({1, 2}, True)
        assert closedset_join(EVENS, ODDS) == FULL
        assert closedset_join(EMPTY, EVENS) == EVENS

    def test_meet_examples(self):
        assert closedset_meet(EVENS, ODDS) == INF_POINT
        assert closedset_meet(closed_set({0, 2}), closed_set({0, 4})) == \
            closed_set({0})
        assert closedset_meet(EVENS, EVENS) == EVENS

    def test_leq_examples(self):
        assert closedset_leq(closed_set({1, 3}), closed_set({1, 3}, True))
        assert closedset_leq(EVENS, FULL)
        assert not closedset_leq(INF_POINT, closed_set({5}))

    @given(closed_reps(), closed_reps())
    def test_join_is_union(self, a, b):
        j = closedset_join(a, b)
        for n in range(compare_window(a, b, j)):
            assert (n in j) == ((n in a) or (n in b))
        assert j.infinity == (a.infinity or b.infinity)

    @given(closed_reps(), closed_reps())
    def test_meet_is_intersection(self, a, b):
        m = closedset_meet(a, b)
        for n in range(compare_window(a, b, m)):
            assert (n in m) == ((n in a) and (n in b))
        assert m.infinity == (a.infinity and b.infinity)

    @given(closed_reps(), closed_reps())
    def test_leq_is_inclusion(self, a, b):
        expected = (not a.infinity or b.infinity) and all(
            (n not in a) or (n in b) for n in range(compare_window(a, b)))
        assert closedset_leq(a, b) == expected

    def test_lattice_laws_on_seeded_triples(self):
        rng = random.Random(0xC0FFEE)
        reps = _seeded_reps(rng, 80)
        for _ in range(500):
            a, b, c = (rng.choice(reps) for _ in range(3))
            assert closedset_join(a, b) == closedset_join(b, a)
            assert closedset_meet(a, b) == closedset_meet(b, a)
            assert closedset_join(a, closedset_join(b, c)) == \
                closedset_join(closedset_join(a, b), c)
            assert closedset_meet(a, closedset_meet(b, c)) == \
                closedset_meet(closedset_meet(a, b), c)
            assert closedset_join(a, a) == a
            assert closedset_meet(a, a) == a
            assert closedset_join(a, closedset_meet(a, b)) == a
            assert closedset_meet(a, closedset_join(a, b)) == a
            assert closedset_leq(a, b) == (closedset_join(a, b) == b)


def _assert_canonical(rep):
    """Minimal period, then minimal threshold, checked by brute force, and
    the primes the rep keeps are exactly those of its period."""
    rest = rep.period
    assert len(set(rep._primes)) == len(rep._primes)
    for q in rep._primes:
        assert _is_prime(q) and rest % q == 0
        while rest % q == 0:
            rest //= q
    assert rest == 1
    prefix, residues = rep.prefix, rep.residues
    assert all(n < rep.threshold for n in prefix)
    if not residues:
        assert rep.period == 1
        assert rep.threshold == (max(prefix) + 1 if prefix else 0)
        return
    assert all(r < rep.period for r in residues) and rep.infinity
    for d in range(1, rep.period):
        if rep.period % d == 0:
            assert any((r in residues) != ((r + d) % rep.period in residues)
                       for r in range(rep.period))
    if rep.threshold:
        n = rep.threshold - 1
        assert (n in prefix) != (n % rep.period in residues)


def _check_against_model(fa, fb):
    """Bitset results against pointwise membership of the raw literals."""
    a, b = ClosedSetRep(*fa), ClosedSetRep(*fb)
    join, meet = closedset_join(a, b), closedset_meet(a, b)
    for rep in (a, b, join, meet):
        _assert_canonical(rep)
    assert (a.infinity, b.infinity) == (fa[4], fb[4])
    assert join.infinity == (fa[4] or fb[4])
    assert meet.infinity == (fa[4] and fb[4])
    included = not fa[4] or fb[4]
    for n in range(compare_window(a, b, join, meet)):
        in_a, in_b = model_member(fa, n), model_member(fb, n)
        assert (n in a) == in_a and (n in b) == in_b
        assert (n in join) == (in_a or in_b)
        assert (n in meet) == (in_a and in_b)
        included = included and (in_b or not in_a)
    assert closedset_leq(a, b) == included
    for rep in (a, b, join, meet):
        _check_closure(rep)


def _check_closure(rep):
    """The natural closure keeps the naturals, is canonical, and holds ∞
    exactly when the natural part is infinite."""
    closure = natural_closure(rep)
    _assert_canonical(closure)
    assert closure.infinity == bool(rep.residue_bits)
    for n in range(compare_window(rep, closure)):
        assert (n in closure) == (n in rep)


class TestBitsetDifferential:
    @given(closed_fields(max_period=64, max_threshold=40),
           closed_fields(max_period=64, max_threshold=40))
    def test_periods_up_to_64(self, fa, fb):
        _check_against_model(fa, fb)

    @settings(max_examples=12, deadline=None)
    @given(closed_fields(max_threshold=20, periods=PRIMES),
           closed_fields(max_threshold=20, periods=PRIMES))
    def test_prime_periods_50_to_250(self, fa, fb):
        _check_against_model(fa, fb)

    @settings(max_examples=60, deadline=None)
    @given(closed_fields(max_threshold=20, periods=SHARED_PRIMES),
           closed_fields(max_threshold=20, periods=SHARED_PRIMES))
    def test_periods_sharing_primes(self, fa, fb):
        """The lcm window's primes come from the operands; here they are
        shared or repeated, so one prime is divided out more than once."""
        _check_against_model(fa, fb)

    @pytest.mark.parametrize("pa,pb", [(4, 8), (8, 12), (9, 27), (6, 14),
                                       (18, 12), (25, 49), (27, 18)])
    def test_results_collapse_through_shared_primes(self, pa, pb):
        """Residues that repeat with a proper divisor of the lcm: the least
        period drops through a prime the two periods share."""
        for step in (1, 2, 3, 4, 6):
            fa = ((), 0, pa, frozenset(range(0, pa, math.gcd(pa, step))),
                  True)
            fb = (frozenset({0, 2}), 3, pb,
                  frozenset(range(1, pb, math.gcd(pb, step))), True)
            _check_against_model(fa, fb)

    def test_large_coprime_join(self):
        """Periods 9973 and 9967: the join has the product as its period
        and the members the two literals give it."""
        a = periodic_set({0, 5}, 9973, prefix={1}, threshold=3)
        b = periodic_set({1}, 9967)
        join = closedset_join(a, b)
        assert join.period == 9973 * 9967 and join.infinity
        rng = random.Random(7)
        points = list(range(40)) + [rng.randrange(3 * join.period)
                                    for _ in range(300)]
        for n in points:
            in_a = n == 1 if n < 3 else n % 9973 in (0, 5)
            assert (n in join) == (in_a or n % 9967 == 1)

    def test_window_cap(self):
        """A join or meet whose lcm window is over ``MAX_WINDOW`` is
        refused; inclusion takes no window, so it answers every pair."""
        a, b = periodic_set({0}, 65521), periodic_set({0}, 65519)
        for op in (closedset_join, closedset_meet):
            with pytest.raises(ValidationError, match="exceeds the cap"):
                op(a, b)
        assert not closedset_leq(a, b) and not closedset_leq(b, a)
        # lcm(65534, 65532) = 65534 * 32766 is over the cap too
        fa = ((), 0, 65534, frozenset({0}), True)
        fb = ((), 0, 65532, frozenset(range(0, 65532, 2)) | {1}, True)
        a, b = ClosedSetRep(*fa), ClosedSetRep(*fb)
        assert math.lcm(a.period, b.period) > MAX_WINDOW
        # every member of a below the lcm is in b, and 1 is in b, not in a
        assert all(model_member(fb, n) for n in range(0, 65534 * 32766, 65534))
        assert model_member(fb, 1) and not model_member(fa, 1)
        assert closedset_leq(a, b) is True
        assert closedset_leq(b, a) is False


@st.composite
def _finite_fields(draw, max_threshold=40):
    """Raw fields of a closed set with a finite natural part, with or
    without infinity."""
    threshold = draw(st.integers(0, max_threshold))
    bits = draw(st.integers(0, (1 << threshold) - 1))
    prefix = frozenset(n for n in range(threshold) if bits >> n & 1)
    return prefix, threshold, 1, frozenset(), draw(st.booleans())


_periodic_fields = closed_fields(max_period=64, max_threshold=40).filter(
    lambda fields: fields[3])
# Coprime pairs, shared primes, the prime powers 4/8/16 and 9/27, equal
# periods and period 1.
MIXED_PERIODS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 18, 27, 35]
_mixed_fields = closed_fields(max_threshold=12,
                              periods=MIXED_PERIODS).filter(
    lambda fields: fields[3])


def _windowed_leq(a, b):
    """Inclusion decided on the aligned window of both operands: the
    reference for every branch of ``closedset_leq``."""
    if a.infinity and not b.infinity:
        return False
    _, _, pa, ra, pb, rb = _aligned(a, b)
    return not (pa & ~pb) and not (ra & ~rb)


def _rotation_fixes(bits, length, d):
    """The word of that length equals its rotation by d."""
    mask = (1 << length) - 1
    return (bits >> d) | ((bits << (length - d)) & mask) == bits


class TestLeastPeriod:
    def test_one_shift_matches_the_rotation(self):
        """For d dividing L, a word of length L is fixed by rotation by d
        iff it equals its shift by d on the L - d bits both cover: every
        word with L <= 12."""
        for length in range(1, 13):
            for d in range(1, length):
                if length % d:
                    continue
                low = (1 << (length - d)) - 1
                for bits in range(1 << length):
                    assert (bits >> d == bits & low) == \
                        _rotation_fixes(bits, length, d), (bits, length, d)

    def test_least_period_of_every_short_word(self):
        for length in range(1, 13):
            primes = _prime_factors(length)
            assert set(primes) == {q for q in range(2, length + 1)
                                   if length % q == 0 and _is_prime(q)}
            for bits in range(1 << length):
                least = min(d for d in range(1, length + 1)
                            if length % d == 0
                            and (d == length
                                 or _rotation_fixes(bits, length, d)))
                period, word, kept = _minimal_period(length, bits, primes)
                assert (period, word) == (least, bits & ((1 << least) - 1))
                assert set(kept) == set(_prime_factors(least))

    @settings(max_examples=300)
    @given(_mixed_fields, _mixed_fields)
    def test_joins_and_meets_equal_their_normal_form(self, fa, fb):
        """A join or meet equals ``closedset_normalize`` of itself, which
        runs the trial shifts: at coprime least periods, where the product
        is taken as least without them, and at periods sharing a prime."""
        a, b = ClosedSetRep(*fa), ClosedSetRep(*fb)
        coprime = (min(a.period, b.period) > 1
                   and math.gcd(a.period, b.period) == 1)
        for rep in (closedset_join(a, b), closedset_meet(a, b)):
            assert rep == closedset_normalize(rep)
            if coprime:
                assert rep.period == a.period * b.period


class TestBoundedHash:
    def _state(self, rep):
        return (rep.prefix_bits, rep.threshold, rep.period, rep.residue_bits,
                rep.infinity)

    @given(closed_reps())
    def test_short_words_keep_the_field_hash(self, rep):
        assert hash(rep) == hash(self._state(rep))

    @pytest.mark.parametrize("rep", [
        periodic_set({63}, 64),
        periodic_set({0, 63}, 64, prefix=set(range(0, 64, 3)), threshold=64),
        closed_set({63}, infinity=True),
    ])
    def test_words_of_exactly_64_bits_keep_the_field_hash(self, rep):
        assert max(rep.prefix_bits, rep.residue_bits).bit_length() == 64
        assert hash(rep) == hash(self._state(rep))

    @pytest.mark.parametrize("pa,pb", [(65, 5), (100, 4), (227, 229)])
    def test_equal_long_reps_hash_equally(self, pa, pb):
        """A join, the literal spelling its fields and the literal doubling
        its period are one rep, with one hash, at words over 64 bits."""
        rng = random.Random(pa)
        a = periodic_set({r for r in range(pa) if rng.random() < 0.5} | {64},
                         pa, prefix={n for n in range(90)
                                     if rng.random() < 0.5}, threshold=90)
        rep = closedset_join(a, periodic_set({0}, pb))
        assert rep.residue_bits.bit_length() > 64
        spellings = [ClosedSetRep(rep.prefix, rep.threshold, rep.period,
                                  rep.residues, True), closedset_normalize(rep)]
        if 2 * rep.period <= MAX_LITERAL:
            spellings.append(ClosedSetRep(
                rep.prefix, rep.threshold, 2 * rep.period,
                {r + k * rep.period for r in rep.residues for k in (0, 1)},
                True))
        for other in spellings:
            assert other == rep and hash(other) == hash(rep)

    @pytest.mark.parametrize("high", [64, 70, 99])
    def test_reps_differing_above_bit_64_are_unequal(self, high):
        base = set(range(0, 64, 5)) | {99}
        a = periodic_set(base, 100)
        b = periodic_set(base ^ {high}, 100)
        assert a.residue_bits & ((1 << 64) - 1) == \
            b.residue_bits & ((1 << 64) - 1)
        assert a != b and b != a
        c = closed_set(base | {high + 1}, infinity=True)
        d = closed_set(base | {high + 2}, infinity=True)
        assert c != d


class TestLeqWithoutAWindow:
    """``closedset_leq`` compares a finite natural part with the members
    of the other operand below its threshold, never puts an infinite
    natural part inside a finite one, and decides two infinite ones
    modulo the gcd of their periods; every branch is held against the
    pointwise model and the aligned window."""

    @staticmethod
    def check(fa, fb):
        a, b = ClosedSetRep(*fa), ClosedSetRep(*fb)
        expected = (not fa[4] or fb[4]) and all(
            not model_member(fa, n) or model_member(fb, n)
            for n in range(compare_window(a, b)))
        # uncached, so the branch itself runs
        assert closedset_leq.__wrapped__(a, b) == expected
        assert _windowed_leq(a, b) == expected

    @given(_finite_fields(), _periodic_fields)
    def test_finite_against_periodic(self, fa, fb):
        self.check(fa, fb)

    @given(_periodic_fields, _finite_fields())
    def test_periodic_against_finite(self, fa, fb):
        self.check(fa, fb)

    @given(_finite_fields(), _finite_fields())
    def test_finite_against_finite(self, fa, fb):
        self.check(fa, fb)

    @settings(max_examples=300)
    @given(_mixed_fields, _mixed_fields)
    def test_periodic_against_periodic(self, fa, fb):
        """Two infinite natural parts: residues folded modulo the gcd of
        the periods."""
        self.check(fa, fb)
        self.check(fb, fa)

    @pytest.mark.parametrize("pa, pb", [
        (4, 9), (8, 27), (5, 7), (4, 6), (12, 18), (6, 35), (4, 8), (8, 16),
        (4, 16), (9, 27), (6, 6), (16, 16), (1, 6), (1, 1)])
    def test_periodic_pairs_by_period(self, pa, pb):
        """Each kind of period pair, at densities that give both answers:
        a subset of b's residues, spelled with a's period, is inside b."""
        rng = random.Random(pa * 100 + pb)
        for _ in range(40):
            ra = frozenset(r for r in range(pa) if rng.random() < 0.3)
            rb = frozenset(r for r in range(pb) if rng.random() < 0.7)
            if rng.random() < 0.5 and rb:
                g = math.gcd(pa, pb)
                kept = {c for c in range(g)
                        if all(s in rb for s in range(c, pb, g))}
                ra = frozenset(r for r in ra if r % g in kept)
            ra = ra or frozenset({0})
            rb = rb or frozenset({0})
            t = rng.randrange(6)
            fa = (frozenset(n for n in range(t) if rng.random() < 0.5), t,
                  pa, ra, True)
            fb = ((), 0, pb, rb, True)
            self.check(fa, fb)
            self.check(fb, fa)

    @pytest.mark.parametrize("a, b, expected", [
        (closed_set({0, 2, 4}), EVENS, True),
        (closed_set({0, 2, 4}, True), EVENS, True),
        (closed_set({0, 3}), EVENS, False),
        (INF_POINT, ODDS, True),
        (EMPTY, periodic_set({0}, 65521), True),
        (closed_set({0, 65521}), periodic_set({0}, 65521), True),
        (closed_set({1, 7, 10}),
         periodic_set({1}, 3, prefix={1, 7}, threshold=9), True),
        (closed_set({4}), periodic_set({1}, 3, prefix={1, 7}, threshold=9),
         False),
        (EVENS, closed_set(range(40), True), False),
        (EVENS, closed_set(range(40)), False),
        (periodic_set({0}, 65521), closed_set({0}, True), False),
        (EVENS, EVENS, True),
        (EVENS, periodic_set({0, 2}, 4), True),
        (periodic_set({0}, 4), periodic_set({0, 3}, 6), False),
        (periodic_set({0}, 12), periodic_set({0, 3}, 6), True),
        (periodic_set({0}, 8), periodic_set({0, 4}, 16), False),
        (periodic_set({0}, 16), periodic_set({0, 1}, 8), True),
        (periodic_set({0}, 27), periodic_set({0, 3, 6}, 9), True),
        (periodic_set({0}, 5), periodic_set({0}, 7), False),
        (FULL, ODDS, False),
        (ODDS, FULL, True),
    ])
    def test_examples(self, a, b, expected):
        assert closedset_leq.__wrapped__(a, b) is expected
        assert _windowed_leq(a, b) is expected


class TestHelpers:
    def test_finite_part_helpers(self):
        rep = closed_set({1, 3}, infinity=True)
        assert natural_part_is_finite(rep)
        assert min_natural(rep) == 1
        assert min_natural(INF_POINT) is None
        assert min_natural(periodic_set({2}, 3, prefix={0}, threshold=1)) == 0
        assert min_natural(periodic_set({2}, 3)) == 2
        assert is_empty(EMPTY) and not is_empty(INF_POINT)

    def test_natural_closure(self):
        assert natural_closure(closed_set({1, 3}, True)) == closed_set({1, 3})
        assert natural_closure(EVENS) == EVENS
        assert natural_closure(INF_POINT) == EMPTY

    def test_format(self):
        assert format_closed_set(EMPTY) == "{}"
        assert format_closed_set(INF_POINT) == "{inf}"
        assert format_closed_set(closed_set({1, 3})) == "{1,3}"
        assert format_closed_set(EVENS) == "{mod 2: [0] from 0, inf}"


def _seeded_reps(rng, count):
    reps = [EMPTY, INF_POINT, FULL, EVENS, ODDS]
    for _ in range(count):
        if rng.random() < 0.5:
            reps.append(closed_set(
                frozenset(rng.randrange(10) for _ in range(rng.randint(0, 4))),
                infinity=rng.random() < 0.4))
        else:
            p = rng.randint(1, 5)
            rs = frozenset(q for q in range(p) if rng.random() < 0.5)
            if not rs:
                rs = frozenset({0})
            reps.append(periodic_set(rs, p,
                                     prefix=frozenset(
                                         m for m in range(2)
                                         if rng.random() < 0.3),
                                     threshold=2))
    return reps
