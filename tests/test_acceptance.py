"""The acceptance matrix, one test per criterion.

Each criterion prints its pass/fail line; the same matrix backs
`posetkernel selftest`.  The stated time bounds are part of the contract
and asserted here.
"""

from collections import Counter

import pytest

from posetkernel import acceptance, core, sampled_laws
from posetkernel.acceptance import CRITERIA, _result

TIME_BOUNDS = {
    "C1": 30.0,  # finite oracle equivalence
    "C2": 1.0,   # non-continuity witness
    "C3": 5.0,   # proper approximable part
    "C4": 30.0,  # kernel laws / equivalence / Scott
    "C5": 20.0,  # largest retract
    "C6": 10.0,  # double approximation
    "C7": 5.0,   # infima preservation
    "C8": 5.0,   # quotient structure
    "C9": 1.0,   # harness sanity
    "C10": 5.0,  # CLI contract
}


@pytest.mark.parametrize("ident,title,fn", CRITERIA,
                         ids=[c[0] for c in CRITERIA])
def test_criterion(ident, title, fn):
    result = _result(ident, title, lambda: fn(quick=False))
    print(result.line())
    assert result.passed, result.detail
    assert result.seconds < TIME_BOUNDS[ident], \
        f"{ident} took {result.seconds:.2f}s, bound {TIME_BOUNDS[ident]}s"


def test_the_criteria_share_one_roster(monkeypatch):
    """The criteria take their presentations from one ``standard_roster()``,
    so no presentation draws the same sampled pool twice."""
    draws = Counter()
    draw = core.scope_draw

    def counted(P, scope):
        if (scope.seed, scope.count) not in P._scope_pools:
            draws[id(P), scope.count] += 1
        return draw(P, scope)

    for module in (core, sampled_laws):
        monkeypatch.setattr(module, "scope_draw", counted)
    acceptance._roster.cache_clear()
    for ident, _, fn in CRITERIA:
        if ident not in ("C1", "C10"):  # no draws; C10 runs the CLI
            fn(quick=False)
    roster = acceptance._roster().values()
    assert draws and {P for P, _ in draws} <= {id(P) for P in roster}
    assert max(draws.values()) == 1, draws
    # C4's one pool of 500 on each symbolic kind
    assert sum(count == 500 for _, count in draws) == sum(
        not P.is_finite_kind for P in roster)
