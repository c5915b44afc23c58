"""Check reports: the uniform outcome type of every law checker.

A report is Verified only when a complete method stands behind it (finite
exhaustion or a certified closed-form rule).  Sampling can refute but never
verify; a clean sampled run is reported as Unrefuted with its sample count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

DEFAULT_SEED = 0xC0FFEE
DEFAULT_PAIR_SAMPLES = 500
DEFAULT_SUBSET_SAMPLES = 200
DEFAULT_CHAIN_HORIZON = 64


class Status(enum.Enum):
    VERIFIED = "VERIFIED"
    UNREFUTED = "UNREFUTED"
    UNKNOWN = "UNKNOWN"
    REFUTED = "REFUTED"

    @property
    def severity(self) -> int:
        return _SEVERITY[self]


_SEVERITY = {
    Status.VERIFIED: 0,
    Status.UNREFUTED: 1,
    Status.UNKNOWN: 2,
    Status.REFUTED: 3,
}


@dataclass(frozen=True)
class Scope:
    """Where a check looked: everything, a seeded sample, or the family bank."""

    kind: str  # "exhaustive" | "sampled" | "bank"
    seed: int = DEFAULT_SEED
    count: int = DEFAULT_PAIR_SAMPLES

    def describe(self) -> str:
        if self.kind == "sampled":
            return f"sampled(seed=0x{self.seed:X},count={self.count})"
        return self.kind


EXHAUSTIVE = Scope("exhaustive")
BANK = Scope("bank")


def sampled(seed: int = DEFAULT_SEED, count: int = DEFAULT_PAIR_SAMPLES) -> Scope:
    return Scope("sampled", seed=seed, count=count)


@dataclass
class CheckReport:
    """Outcome of one law check.

    ``witness`` carries concrete elements only for refutations; ``samples``
    counts the cases a sampling run actually exercised.  Aggregate checks
    store their per-law outcomes in ``subreports`` and take the worst status.
    """

    law: str
    status: Status
    scope: Scope
    witness: object = None
    reason: str = ""
    samples: int = 0
    subreports: list["CheckReport"] = field(default_factory=list)

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
    """Render a witness element or tuple of elements, never raising."""
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


def unknown(law, reason, scope) -> CheckReport:
    return CheckReport(law, Status.UNKNOWN, scope, reason=reason)


def refuted(law, witness, reason, scope, samples=0) -> CheckReport:
    return CheckReport(law, Status.REFUTED, scope, witness=witness, reason=reason,
                       samples=samples)


def combine(law: str, parts: list[CheckReport], scope: Scope) -> CheckReport:
    """Merge sub-reports into one, keeping the worst status."""
    worst = max(parts, key=lambda r: r.status.severity, default=None)
    status = worst.status if worst else Status.VERIFIED
    report = CheckReport(law, status, scope,
                         samples=sum(p.samples for p in parts))
    report.subreports = list(parts)
    if worst is not None and worst.status is Status.REFUTED:
        report.witness = worst.witness
        report.reason = f"{worst.law}: {worst.reason}"
    return report
