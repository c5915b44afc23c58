"""Check reports: the uniform outcome type of every law checker.

A report is Verified only when a complete method stands behind it (finite
exhaustion or a certified closed-form rule).  Sampling can refute but never
verify; a clean sampled run is reported as Unrefuted with its sample count.
"""

from __future__ import annotations

import enum

from .values import Frozen, Record, assign

DEFAULT_SEED = 0xC0FFEE
DEFAULT_PAIR_SAMPLES = 500
DEFAULT_SUBSET_SAMPLES = 200
DEFAULT_CHAIN_HORIZON = 64


class Status(enum.Enum):
    VERIFIED = "VERIFIED"
    UNREFUTED = "UNREFUTED"
    REFUTED = "REFUTED"

    @property
    def severity(self) -> int:
        """Rank in declaration order, from best to worst."""
        return list(Status).index(self)


class Scope(Frozen):
    """Where a check looked: everything, a seeded sample, or the family bank."""

    __slots__ = _fields = ("kind", "seed", "count")

    def __init__(self, kind: str, seed: int = DEFAULT_SEED,
                 count: int = DEFAULT_PAIR_SAMPLES):
        assign(self, locals())  # kind: "exhaustive" | "sampled" | "bank"

    def describe(self) -> str:
        if self.kind == "sampled":
            return f"sampled(seed=0x{self.seed:X},count={self.count})"
        return self.kind


EXHAUSTIVE = Scope("exhaustive")
BANK = Scope("bank")


def sampled(seed: int = DEFAULT_SEED, count: int = DEFAULT_PAIR_SAMPLES) -> Scope:
    return Scope("sampled", seed=seed, count=count)


class CheckReport(Record):
    """Outcome of one law check.

    ``witness`` carries concrete elements only for refutations; ``samples``
    counts the cases a sampling run actually exercised.  Aggregate checks
    store their per-law outcomes in ``subreports`` (a new list when none is
    given) and take the worst status.
    """

    __slots__ = _fields = ("law", "status", "scope", "witness", "reason",
                           "samples", "subreports")

    def __init__(self, law: str, status: Status, scope: Scope,
                 witness=None, reason: str = "", samples: int = 0,
                 subreports: list[CheckReport] | None = None):
        if subreports is None:
            subreports = []
        assign(self, locals())

    def describe(self, render=str) -> str:
        parts = [f"[{self.law}] {self.status.value} scope={self.scope.describe()}"]
        if self.samples:
            parts.append(f"samples={self.samples}")
        if self.witness is not None:
            parts.append(f"witness={render_witness(self.witness, render)}")
        if self.reason:
            parts.append(f"reason={self.reason}")
        return " ".join(parts)


def render_witness(witness, render=str) -> str:
    """Render a witness element or tuple of elements, never raising.  No
    carrier has strings for elements: a string is a family label, printed
    as it is on every carrier."""
    if isinstance(witness, str):
        return witness
    if isinstance(witness, tuple):
        return "(" + ", ".join(render_witness(w, render) for w in witness) + ")"
    try:
        return render(witness)
    except Exception:
        return repr(witness)


def verified(law, scope=EXHAUSTIVE, reason="", samples=0) -> CheckReport:
    return CheckReport(law, Status.VERIFIED, scope, reason=reason, samples=samples)


def unrefuted(law, samples, scope, reason="") -> CheckReport:
    return CheckReport(law, Status.UNREFUTED, scope, samples=samples, reason=reason)


def refuted(law, witness, reason, scope, samples=0) -> CheckReport:
    return CheckReport(law, Status.REFUTED, scope, witness=witness, reason=reason,
                       samples=samples)


def combine(law: str, parts: list[CheckReport], scope: Scope) -> CheckReport:
    """Merge a nonempty list of sub-reports into one, keeping the worst
    status."""
    worst = max(parts, key=lambda r: r.status.severity)
    report = CheckReport(law, worst.status, scope,
                         samples=sum(p.samples for p in parts))
    report.subreports = list(parts)
    if worst.status is Status.REFUTED:
        report.witness = worst.witness
        report.reason = f"{worst.law}: {worst.reason}"
    return report
