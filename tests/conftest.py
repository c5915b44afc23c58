import math

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from posetkernel import ClosedSetRep, make_catalog
from posetkernel.carriers import OmegaPlusOnePresentation
from posetkernel.catalog import (closed_sets, finite_explicit, finite_named,
                                 finite_random, lift, omega_plus_one,
                                 punctured_closed_sets)
from posetkernel.core import FinitePosetPresentation
from posetkernel.families import ExplicitFamily

settings.register_profile(
    "ci", derandomize=True, max_examples=100,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("ci")

# a, b below both of c, d: the pair {a, b} has no least upper bound
BOWTIE = finite_explicit("abcd", [("a", "c"), ("a", "d"), ("b", "c"),
                                  ("b", "d")])


@st.composite
def closed_fields(draw, max_period=6, max_threshold=8, periods=None):
    """Raw (prefix, threshold, period, residues, infinity) fields of a
    closed-set literal, not necessarily in canonical form.  ``periods``, when
    given, is the list the period is drawn from."""
    threshold = draw(st.integers(0, max_threshold))
    prefix = _positions(draw(st.integers(0, (1 << threshold) - 1)))
    if periods is None:
        period = draw(st.integers(1, max_period))
    else:
        period = draw(st.sampled_from(periods))
    residues = _positions(draw(st.integers(0, (1 << period) - 1)))
    infinity = draw(st.booleans()) or bool(residues)
    return prefix, threshold, period, residues, infinity


def _positions(bits):
    return frozenset(n for n in range(bits.bit_length()) if bits >> n & 1)


def closed_reps():
    return closed_fields().map(lambda fields: ClosedSetRep(*fields))


def model_member(fields, n):
    """Membership of the natural n in the set the raw fields denote."""
    prefix, threshold, period, residues, _ = fields
    return n in prefix if n < threshold else n % period in residues


def compare_window(*reps):
    """A window on which two eventually periodic sets with these parameters
    are equal iff they agree pointwise."""
    threshold = max(r.threshold for r in reps)
    span = math.lcm(*(r.period for r in reps))
    return threshold + 2 * span


@pytest.fixture(scope="session")
def diamond():
    return make_catalog(finite_named("diamond"))


@pytest.fixture(scope="session")
def closed():
    return make_catalog(closed_sets())


@pytest.fixture(scope="session")
def punctured():
    return make_catalog(punctured_closed_sets())


@pytest.fixture(scope="session")
def omega():
    return make_catalog(omega_plus_one())


@pytest.fixture(scope="session")
def lifted_punctured():
    return make_catalog(lift(punctured_closed_sets()))


def random_presentation(seed, n=None):
    return make_catalog(finite_random((seed % 8) + 1 if n is None else n,
                                      0.35, seed))


def corrupt_omega(families=None, **methods):
    """An ω+1 with some methods replaced (``methods``: name -> function of
    self and the arguments) and the approximant families of some elements
    overridden (``families``: element -> family)."""
    base = OmegaPlusOnePresentation
    families = families or {}

    def waybelow_family(self, x):
        if x in families:
            return families[x]
        return base.waybelow_family(self, x)

    return type("CorruptOmega", (base,),
                {"waybelow_family": waybelow_family, **methods})()


class CorruptFinite(FinitePosetPresentation):
    """A finite poset whose approximant families are overridden: ``sups``
    maps an element to the supremum its down-set family declares, or to
    None for an element declared without approximants.  ``waybelow``, when
    given, replaces the way-below relation: a function of two indices."""

    def __init__(self, poset, sups, waybelow=None):
        super().__init__(poset, name="corrupt")
        self.sups = sups
        if waybelow is not None:
            self.waybelow = waybelow

    def waybelow_family(self, x):
        if x not in self.sups:
            return super().waybelow_family(x)
        if self.sups[x] is None:
            return None
        members = tuple(i for i in range(self.poset.n)
                        if self.poset.leq(i, x))
        return ExplicitFamily(members, self.sups[x], label="corrupt")
