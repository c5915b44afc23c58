"""Directed families: explicit finite sets and symbolic monotone chains.

A chain family stands in for an infinite directed set.  Its generator must be
monotone in the index and its supremum is *declared* by the catalog entry
that built it; validation probes (monotonicity at sampled indices, the
declared supremum dominating sampled members) live with the presentations.

Samples can confirm that some member dominates x but never certify that none
does, so every chain carries two certificates:

``member_dominates``
    closed-form decision of "some member of the chain dominates x";

``kernel_image_sup``
    the supremum of the kernel images of the members, used by the
    Scott-continuity checker.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

from .errors import EmptyFamily
from .reports import DEFAULT_CHAIN_HORIZON
from .values import Frozen, assign, set_field


class ExplicitFamily(Frozen):
    """A finite directed set with its supremum declared.  A finite directed
    set holds its maximum, which is its supremum, so the supremum is one of
    the members; the ``cc`` law refutes a family whose supremum is not.
    ``members`` is any finite sequence: ω+1 gives a ``range``, so that the
    family of a large natural is not listed, and a lift or sum of it a
    ``MappedMembers`` view of that range."""

    _fields = ("members", "supremum", "label")
    __slots__ = _fields + ("_listed",)

    def __init__(self, members, supremum, label: str = ""):
        if not members:
            raise EmptyFamily("explicit directed family must be nonempty")
        set_field(self, "members", members)
        set_field(self, "supremum", supremum)
        set_field(self, "label", label)

    def sample_members(self):
        """Every member, listed on the first call and kept, as a chain
        keeps its sampled members: a lift or sum reads its members through
        ``wrap``, and the bank laws read each family several times."""
        try:
            return self._listed
        except AttributeError:
            set_field(self, "_listed", list(self.members))
            return self._listed

    def iter_members(self):
        return iter(self.members)


class ChainFamily(Frozen):
    """A symbolic monotone chain ``i -> generator(i)`` with declared supremum.

    Compared and hashed by identity: its generator and certificate are
    functions."""

    _fields = ("generator", "supremum", "label", "member_dominates",
               "kernel_image_sup")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, generator, supremum, label: str = "", *,
                 member_dominates, kernel_image_sup):
        assign(self, locals())

    @cached_property
    def _members(self):
        return [self.generator(i) for i in range(DEFAULT_CHAIN_HORIZON)]

    def sample_members(self):
        """The members at indices below DEFAULT_CHAIN_HORIZON."""
        return self._members

    def iter_members(self):
        """The same members, generated one at a time and not kept, so a
        scan that stops at its first witness builds no more of them."""
        return map(self.generator, range(DEFAULT_CHAIN_HORIZON))


Family = ExplicitFamily | ChainFamily


class MappedMembers(Sequence):
    """The members of a finite family read through ``wrap`` one at a time,
    so that wrapping a family lists none of it: a lift of ω+1 keeps the
    ``range`` of a large natural's family.  Compared, hashed and printed as
    the tuple it stands for."""

    __slots__ = ("wrap", "base")

    def __init__(self, wrap, base):
        self.wrap = wrap
        self.base = base

    def __len__(self):
        return len(self.base)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return MappedMembers(self.wrap, self.base[index])
        return self.wrap(self.base[index])

    def __iter__(self):
        return map(self.wrap, self.base)

    def __eq__(self, other):
        if not isinstance(other, (tuple, MappedMembers)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return repr(tuple(self))


def map_family(fam: Family, wrap, *, dominates, label=None) -> Family:
    """Wrap every member, the supremum and (for a chain) the kernel-image
    supremum of a family through ``wrap``; the members of an explicit family
    are wrapped as they are read.

    Used by the lift and disjoint-sum combinators to re-export the families
    of their components.  ``dominates(x, inner)`` is the chain's domination
    certificate phrased against wrapped elements, given the certificate
    ``inner`` of the component chain.
    """
    label = label or fam.label
    if isinstance(fam, ExplicitFamily):
        return ExplicitFamily(MappedMembers(wrap, fam.members),
                              wrap(fam.supremum), label=label)
    inner = fam.member_dominates
    return ChainFamily(
        generator=lambda i, _g=fam.generator: wrap(_g(i)),
        supremum=wrap(fam.supremum),
        label=label,
        member_dominates=lambda x: dominates(x, inner),
        kernel_image_sup=wrap(fam.kernel_image_sup),
    )
