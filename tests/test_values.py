"""The value types are plain classes, so that importing the library does not
import ``dataclasses``; the dataclass definitions they replace are kept
here as the reference for their equality, hashing, printing, defaults and
immutability."""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import KW_ONLY, dataclass, field, fields
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import pytest

from posetkernel import (acceptance, catalog, commands, core, families,
                         reports)
from posetkernel.closedsets import EVENS, closed_set
from posetkernel.core import BOTTOM, OMEGA
from posetkernel.errors import EmptyFamily
from posetkernel.reports import (DEFAULT_CHAIN_HORIZON, DEFAULT_PAIR_SAMPLES,
                                 DEFAULT_SEED, Status)

SRC = Path(__file__).resolve().parents[1] / "src"


def test_the_import_path_is_free_of_dataclasses_and_argparse():
    """The CLI and the acceptance matrix import neither ``dataclasses`` nor
    ``inspect``, which it pulls in, nor ``argparse`` and the ``gettext``
    and ``locale`` it brings, even without site packages."""
    script = ("import sys, posetkernel.cli, posetkernel.acceptance; "
              "print(sorted({'dataclasses', 'inspect', 'argparse', 'gettext',"
              " 'locale'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# The reference dataclasses


@dataclass(frozen=True)
class Inner:
    value: object


@dataclass(frozen=True)
class Left:
    value: object


@dataclass(frozen=True)
class Right:
    value: object


@dataclass(frozen=True)
class CatalogSpec:
    kind: str
    name: str | None = None
    n: int = 0
    edge_prob: float = 0.3
    seed: int = 0
    elements: tuple = ()
    covers: tuple = ()
    inner: CatalogSpec | None = None
    left: CatalogSpec | None = None
    right: CatalogSpec | None = None


@dataclass(frozen=True)
class ExplicitFamily:
    members: tuple
    supremum: object
    label: str = ""

    def __post_init__(self):
        if not self.members:
            raise EmptyFamily("explicit directed family must be nonempty")


@dataclass(frozen=True, eq=False)
class ChainFamily:
    generator: Callable[[int], object]
    supremum: object
    label: str = ""
    _: KW_ONLY
    member_dominates: Callable[[object], bool]
    kernel_image_sup: object

    @cached_property
    def _members(self):
        return [self.generator(i) for i in range(DEFAULT_CHAIN_HORIZON)]


@dataclass(frozen=True)
class Scope:
    kind: str
    seed: int = DEFAULT_SEED
    count: int = DEFAULT_PAIR_SAMPLES


@dataclass
class CheckReport:
    law: str
    status: Status
    scope: Scope
    witness: object = None
    reason: str = ""
    samples: int = 0
    subreports: list = field(default_factory=list)


@dataclass
class QuotientStructure:
    presentation: object
    sample: tuple
    classes: tuple
    kernel_values: tuple


@dataclass
class CriterionResult:
    ident: str
    title: str
    passed: bool
    detail: str
    seconds: float


NAMES = ("Inner", "Left", "Right", "CatalogSpec", "ExplicitFamily",
         "ChainFamily", "Scope", "CheckReport", "QuotientStructure",
         "CriterionResult")
LIBRARY = SimpleNamespace(
    Inner=core.Inner, Left=core.Left, Right=core.Right,
    CatalogSpec=catalog.CatalogSpec, ExplicitFamily=families.ExplicitFamily,
    ChainFamily=families.ChainFamily, Scope=reports.Scope,
    CheckReport=reports.CheckReport,
    QuotientStructure=commands.QuotientStructure,
    CriterionResult=acceptance.CriterionResult)
REFERENCE = SimpleNamespace(**{name: globals()[name] for name in NAMES})
WRAPS = ("Inner", "Left", "Right")
FROZEN = ("Inner", "Left", "Right", "CatalogSpec", "ExplicitFamily",
          "ChainFamily", "Scope")

# Shared by both namespaces, so that the two reprs print the same objects.
PRESENTATION = catalog.make_catalog(catalog.closed_sets())
STEP = lambda i: i  # noqa: E731
DOMINATES = lambda v: v is not OMEGA  # noqa: E731


def instances(ns):
    """The same sample values, built from the classes in ``ns``."""
    chain_2 = ns.CatalogSpec("finite_named", name="chain_2")
    scope = ns.Scope("sampled", seed=7, count=40)
    chain = ns.ChainFamily(STEP, OMEGA, label="naturals",
                           member_dominates=DOMINATES,
                           kernel_image_sup=OMEGA)
    leaf = ns.CheckReport("cc", Status.REFUTED, scope,
                          witness=(ns.Left(3), ns.Right(3)), reason="why")
    return [
        ns.Inner(3), ns.Inner(3), ns.Left(3), ns.Right(3), ns.Left(BOTTOM),
        ns.Inner(ns.Left(EVENS)), ns.Inner(ns.Right(EVENS)),
        ns.Right(closed_set({1})), ns.Right(closed_set({1})),
        chain_2, ns.CatalogSpec("finite_named", name="chain_2"),
        ns.CatalogSpec("finite_random", n=5, edge_prob=0.4, seed=2),
        ns.CatalogSpec("finite_explicit", elements=("a", "b"),
                       covers=(("a", "b"),)),
        ns.CatalogSpec("lift", inner=ns.CatalogSpec("closed_sets")),
        ns.CatalogSpec("disjoint_sum", left=chain_2,
                       right=ns.CatalogSpec("lift", inner=chain_2)),
        ns.ExplicitFamily((0, 1), 1), ns.ExplicitFamily((0, 1), 1),
        ns.ExplicitFamily((0, 1), 1, label="pair"),
        ns.ExplicitFamily((ns.Inner(0), BOTTOM), ns.Inner(0)),
        chain, chain,
        ns.ChainFamily(STEP, OMEGA, label="naturals",
                       member_dominates=DOMINATES, kernel_image_sup=OMEGA),
        scope, ns.Scope("sampled", 7, 40), ns.Scope("exhaustive"),
        ns.Scope("bank"),
        # the field tuple of the family (0, 1) above, in another class
        ns.Scope((0, 1), 1, ""),
        leaf,
        ns.CheckReport("cc", Status.REFUTED, scope,
                       witness=(ns.Left(3), ns.Right(3)), reason="why"),
        ns.CheckReport("all", Status.REFUTED, ns.Scope("exhaustive"),
                       witness=leaf.witness, samples=3,
                       subreports=[leaf, ns.CheckReport(
                           "eq", Status.VERIFIED, ns.Scope("exhaustive"))]),
        ns.CheckReport("eq", Status.VERIFIED, ns.Scope("exhaustive")),
        ns.QuotientStructure(PRESENTATION, (EVENS,), ((EVENS,),), (EVENS,)),
        ns.QuotientStructure(PRESENTATION, (EVENS,), ((EVENS,),), (EVENS,)),
        ns.CriterionResult("C1", "title", True, "detail", 0.25),
        ns.CriterionResult("C1", "title", True, "detail", 0.25),
    ]


def _hash(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


def _holds_wrap(value):
    """Whether a frozen value, or a tuple, holds a wrap at any depth."""
    if isinstance(value, core._Wrap):
        return True
    if isinstance(value, tuple):
        return any(map(_holds_wrap, value))
    return isinstance(value, families.ExplicitFamily | catalog.CatalogSpec) \
        and any(_holds_wrap(getattr(value, f)) for f in value._fields)


class TestValueSemantics:
    def test_equality_hash_and_repr(self):
        """Each value prints and compares as its reference dataclass does.
        It hashes as the reference does too, by identity, as its field
        tuple or not at all, except a wrap: that hashes by its part.  A
        frozen value holding a wrap hashes as the reference's field tuple
        read off it, whose wraps are the library's."""
        ours, theirs = instances(LIBRARY), instances(REFERENCE)
        for a, ref_a in zip(ours, theirs):
            assert repr(a) == repr(ref_a)
            if type(ref_a).__hash__ is object.__hash__:  # by identity
                assert type(a).__hash__ is object.__hash__
            elif type(ref_a).__name__ in WRAPS:
                assert hash(a) == hash((type(a).__name__, a.value)), repr(a)
            elif _holds_wrap(a):
                assert hash(a) == hash(tuple(
                    getattr(a, f.name) for f in fields(ref_a))), repr(a)
            else:
                assert _hash(a) == _hash(ref_a), repr(a)
            for b, ref_b in zip(ours, theirs):
                assert (a == b) == (ref_a == ref_b), (a, b)
                assert (a != b) == (ref_a != ref_b), (a, b)
            assert a != (getattr(a, "value", a),)

    def test_wraps_hash_by_part_once(self):
        """A wrap hashes as (its class name, its value), so the parts of a
        sum hash apart, and the hash is taken once, when it is built: a
        nested wrap reads its value's stored hash instead of walking the
        nesting again."""
        wraps = [getattr(LIBRARY, name) for name in WRAPS]
        for v in (3, OMEGA, BOTTOM, EVENS, closed_set({1}), "a"):
            assert len({hash(wrap(v)) for wrap in wraps}) == len(wraps)

        class Counted:
            hashed = 0

            def __hash__(self):
                Counted.hashed += 1
                return 7

        value = Counted()
        nested = LIBRARY.Inner(LIBRARY.Left(value))
        assert Counted.hashed == 1
        again = LIBRARY.Inner(nested.value)
        for _ in range(3):
            assert hash(nested) == hash(again)
            assert nested == again and nested == nested
        assert Counted.hashed == 1

    def test_no_output_depends_on_the_hash_seed(self):
        """A wrap's hash takes its class name, whose hash changes with
        ``PYTHONHASHSEED``, so what ``check`` prints must not depend on the
        order of a set of wraps."""
        doc = json.dumps(catalog.spec_to_document(catalog.disjoint_sum(
            catalog.lift(catalog.finite_named("n5")),
            catalog.disjoint_sum(catalog.omega_plus_one(),
                                 catalog.lift(catalog.closed_sets())))))
        script = ("import sys; from posetkernel.cli import main; "
                  "sys.exit(main(['check', sys.argv[1], '--law', 'all']))")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sum.json"
            path.write_text(doc)
            outs = {subprocess.run(
                [sys.executable, "-c", script, str(path)],
                env={**os.environ, "PYTHONPATH": str(SRC),
                     "PYTHONHASHSEED": seed},
                capture_output=True, text=True).stdout
                for seed in ("1", "2", "3")}
        assert len(outs) == 1 and "[subposet]" in outs.pop()

    @pytest.mark.parametrize("name", NAMES)
    def test_signature_and_defaults(self, name):
        ours, theirs = getattr(LIBRARY, name), getattr(REFERENCE, name)
        assert [(p.name, p.kind) for p in
                inspect.signature(ours).parameters.values()] == [
            (p.name, p.kind) for p in
            inspect.signature(theirs).parameters.values()]
        required = {"Inner": (1,), "Left": (1,), "Right": (1,),
                    "CatalogSpec": ("omega_plus_one",),
                    "ExplicitFamily": ((1,), 1),
                    "Scope": ("bank",),
                    "CheckReport": ("cc", Status.VERIFIED, None),
                    "QuotientStructure": (None, (), (), ()),
                    "CriterionResult": ("C1", "t", False, "d", 1.0)}
        if name == "ChainFamily":
            kw = {"member_dominates": DOMINATES, "kernel_image_sup": OMEGA}
            assert repr(ours(STEP, OMEGA, **kw)) == repr(
                theirs(STEP, OMEGA, **kw))
            for cls in (ours, theirs):
                with pytest.raises(TypeError):
                    cls(STEP, OMEGA, "", DOMINATES, OMEGA)
                with pytest.raises(TypeError):
                    cls(STEP, OMEGA)
            return
        assert repr(ours(*required[name])) == repr(theirs(*required[name]))
        for cls in (ours, theirs):
            with pytest.raises(TypeError):
                cls(*required[name][:-1])

    def test_a_report_gets_its_own_subreport_list(self):
        a = LIBRARY.CheckReport("cc", Status.VERIFIED, None)
        b = LIBRARY.CheckReport("cc", Status.VERIFIED, None)
        a.subreports.append(b)
        assert b.subreports == [] and a.subreports == [b]

    def test_an_explicit_family_is_nonempty(self):
        for ns in (LIBRARY, REFERENCE):
            with pytest.raises(EmptyFamily):
                ns.ExplicitFamily((), 0)

    def test_an_unlabelled_family_prints_as_a_witness(self):
        ours = LIBRARY.ExplicitFamily((0, 1), 1)
        theirs = REFERENCE.ExplicitFamily((0, 1), 1)
        assert reports.render_witness(ours, PRESENTATION.format_element) \
            == reports.render_witness(theirs, PRESENTATION.format_element) \
            == "ExplicitFamily(members=(0, 1), supremum=1, label='')"

    def test_a_chain_caches_its_members(self):
        for ns in (LIBRARY, REFERENCE):
            chain = ns.ChainFamily(STEP, OMEGA, member_dominates=DOMINATES,
                                   kernel_image_sup=OMEGA)
            assert chain._members is chain._members
            assert chain._members == list(range(DEFAULT_CHAIN_HORIZON))

    @pytest.mark.parametrize("index", range(len(instances(LIBRARY))))
    def test_assignment(self, index):
        """A frozen value refuses to set or delete any attribute, a field
        or not, with an AttributeError; a mutable one takes a new field
        value."""
        ours = instances(LIBRARY)[index]
        theirs = instances(REFERENCE)[index]
        name = type(theirs).__name__
        field_name = next(iter(vars(type(theirs))["__dataclass_fields__"]))
        for value in (ours, theirs):
            if name in FROZEN:
                for attr in (field_name, "other"):
                    with pytest.raises(AttributeError):
                        setattr(value, attr, 1)
                    with pytest.raises(AttributeError):
                        delattr(value, attr)
            else:
                setattr(value, field_name, 1)
                assert getattr(value, field_name) == 1
        if name not in FROZEN:
            assert repr(ours) == repr(theirs)
