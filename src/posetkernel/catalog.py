"""The poset catalog: specs and poset documents, the one element cap, and
the named and random finite posets.

``make_catalog`` builds the presentation a ``CatalogSpec`` describes.  The
finite kinds are built here on ``core.FinitePosetPresentation``.  The
symbolic carriers live with the proofs of their rules: the closed sets in
``closedsets``, beside their algebra, and ω+1 and the lift and disjoint-sum
combinators in ``carriers``.  Each module loads on the first spec that
needs it: a finite answer compiles neither.
"""

from __future__ import annotations

import random
import re

from .core import (FinitePoset, FinitePosetPresentation, PosetPresentation,
                   build_finite_poset)
from .errors import PosetError, SizeLimit, UnknownName, ValidationError
from .values import Frozen, assign


MAX_ELEMENTS = 512
"""The one cap on the elements a presentation lists, checked once by
``_check_size``: a finite document's labels, ``chain_k``, ``antichain_k``
and a random poset, and the ω+1 and closed-set cuts (n + 2, and 2^(n+1)
per ∞ flag) before they are built; a lift or sum's cut from its parts'
cuts, each within the cap; and a lift or sum when it is built, its own
points plus every element of its finite parts, finite or symbolic.  So a
document loads within it or exits 65, before any law runs."""


def _check_size(count, what):
    """Refuse ``what``, which would list ``count`` elements, above the cap."""
    if count > MAX_ELEMENTS:
        raise SizeLimit(f"{what} is over the cap of {MAX_ELEMENTS} elements")


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
    elif m := re.fullmatch(r"(chain|antichain)_([1-9]\d{0,8})", name):
        k = int(m.group(2))
        _check_size(k, name)
        names, covers = (_chain if m.group(1) == "chain" else _antichain)(k)
    else:
        raise UnknownName(f"no catalog poset named {name!r}")
    return build_finite_poset(names, covers)


def random_finite_poset(n: int, edge_prob: float, seed: int) -> FinitePoset:
    """Random order: a DAG by edge probability on a topological order,
    closed reflexively and transitively."""
    if n < 1:
        raise ValidationError("a random poset has at least one element")
    _check_size(n, f"a random poset of {n} elements")
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(n)]
    covers = [(names[i], names[j])
              for i in range(n) for j in range(i + 1, n)
              if rng.random() < edge_prob]
    return build_finite_poset(names, covers)


# ---------------------------------------------------------------------------
# Specs and the catalog constructor


class CatalogSpec(Frozen):
    """Serializable description of a catalog presentation."""

    __slots__ = _fields = ("kind", "name", "n", "edge_prob", "seed",
                           "elements", "covers", "inner", "left", "right")

    def __init__(self, kind: str, name: str | None = None, n: int = 0,
                 edge_prob: float = 0.3, seed: int = 0, elements: tuple = (),
                 covers: tuple = (), inner: CatalogSpec | None = None,
                 left: CatalogSpec | None = None,
                 right: CatalogSpec | None = None):
        assign(self, locals())


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

    Raises ValidationError for anything else, and SizeLimit for a
    ``finite`` document over ``MAX_ELEMENTS`` labels."""
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
    _check_size(len(elements),
                f"a finite document of {len(elements)} labels")
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
    """Build the presentation described by the spec.  A closed-set kind
    imports ``closedsets`` here and any other symbolic kind ``carriers``,
    so a finite one loads neither, and ω+1 or a lift or sum of finite
    parts never loads the closed-set algebra."""
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
    if spec.kind in ("closed_sets", "punctured_closed_sets"):
        from .closedsets import ClosedSetsPresentation
        return ClosedSetsPresentation(
            punctured=spec.kind == "punctured_closed_sets")
    from . import carriers
    if spec.kind == "omega_plus_one":
        return carriers.OmegaPlusOnePresentation()
    if spec.kind == "lift":
        return carriers.LiftPresentation(make_catalog(spec.inner))
    if spec.kind == "disjoint_sum":
        return carriers.DisjointSumPresentation(make_catalog(spec.left),
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
