"""Directed families: explicit finite sets and symbolic monotone chains.

A chain family stands in for an infinite directed set.  Its generator must be
monotone in the index and its supremum is *declared* by the catalog entry
that built it; validation probes (monotonicity at sampled indices, the
declared supremum dominating sampled members) live with the presentations.

Two optional certificates make chains usable in sound refutations:

``member_dominates``
    closed-form decision of "some member of the chain dominates x".
    Without it, a scan to the horizon can confirm domination but never
    certify its absence.

``kernel_image_sup``
    the known supremum of the kernel images of the members, used by the
    Scott-continuity checker (the image of a chain under the kernel is again
    a chain, but its supremum is not computable from samples alone).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .errors import EmptyFamily
from .reports import DEFAULT_CHAIN_HORIZON


@dataclass(frozen=True)
class ExplicitFamily:
    """A finite directed set with its supremum (= its maximum) declared."""

    members: tuple
    supremum: object
    label: str = ""

    def __post_init__(self):
        if not self.members:
            raise EmptyFamily("explicit directed family must be nonempty")

    def sample_members(self, count=None):
        return list(self.members)


@dataclass(frozen=True, eq=False)
class ChainFamily:
    """A symbolic monotone chain ``i -> generator(i)`` with declared supremum."""

    generator: Callable[[int], object]
    supremum: object
    horizon: int = DEFAULT_CHAIN_HORIZON
    label: str = ""
    member_dominates: Callable[[object], bool] | None = None
    kernel_image_sup: object = None
    _cache: dict = field(default_factory=dict, repr=False)

    def sample_members(self, count=None):
        count = self.horizon if count is None else min(count, self.horizon)
        key = ("members", count)
        if key not in self._cache:
            self._cache[key] = [self.generator(i) for i in range(count)]
        return self._cache[key]


Family = ExplicitFamily | ChainFamily


def map_family(fam: Family, wrap, *, dominates, label=None) -> Family:
    """Wrap every member, the supremum and (for a chain) the kernel-image
    supremum of a family through ``wrap``.

    Used by the lift and disjoint-sum combinators to re-export the families
    of their components.  ``dominates(x, inner)`` is the chain's domination
    certificate phrased against wrapped elements, given the certificate
    ``inner`` of the component chain; the wrapped chain has none when the
    component chain has none.
    """
    label = label or fam.label
    if isinstance(fam, ExplicitFamily):
        return ExplicitFamily(tuple(wrap(m) for m in fam.members),
                              wrap(fam.supremum), label=label)
    inner = fam.member_dominates
    return ChainFamily(
        generator=lambda i, _g=fam.generator: wrap(_g(i)),
        supremum=wrap(fam.supremum),
        horizon=fam.horizon,
        label=label,
        member_dominates=(None if inner is None
                          else lambda x: dominates(x, inner)),
        kernel_image_sup=(None if fam.kernel_image_sup is None
                          else wrap(fam.kernel_image_sup)),
    )
