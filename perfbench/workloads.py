"""Seeded inputs and independent reference checks for the benchmark.

Nothing here imports posetkernel: every expected answer is derived from the
generated input and from facts the paper proves, so a defect in the library
cannot also hide in its own reference.
"""

from __future__ import annotations

import math
import os
import random
import re

HERE = os.path.dirname(os.path.abspath(__file__))

# ---------------------------------------------------------------------------
# roster_check: one `posetkernel check <kind> --law all` per roster kind, then
# one `posetkernel selftest --full`.

FINITE_NAMED = ("chain_2", "chain_3", "chain_4", "diamond", "m3", "n5",
                "boolean_3", "fence_4", "antichain_2", "antichain_3")

# The combinator kinds of the standard roster, as JSON documents in kinds/.
# (argument for `check`, expected exit code, expected {refuted law: witness})
# The closed-set lattice is complete but not continuous: the approximants of
# {inf} are only the empty set, so `continuous` is refuted at {inf} on every
# kind that contains the lattice (or its punctured variant), and nothing else
# is refuted anywhere.
_INF = {"continuous": "{inf}"}
ROSTER = (
    [(name, 0, {}) for name in FINITE_NAMED]
    + [
        ("omega_plus_one", 0, {}),
        ("closed_sets", 1, _INF),
        ("punctured_closed_sets", 1, _INF),
        ("kinds/lift_punctured_closed_sets.json", 1,
         {"continuous": "inner:{inf}"}),
        ("kinds/disjoint_sum_chain_2_chain_2.json", 0, {}),
        ("kinds/disjoint_sum_omega_plus_one_closed_sets.json", 1,
         {"continuous": "right:{inf}"}),
    ])


def roster_ops(seed: int) -> list:
    """The 17 CLI invocations of one pass; the seed fixes their order.

    Each check keeps the CLI's default sampling seed: a different sampling
    seed may legitimately pick another witness of non-continuity (any finite
    set plus inf), which the fixed reference would then misreport.
    """
    ops = []
    for arg, code, refuted in ROSTER:
        target = os.path.join(HERE, arg) if arg.endswith(".json") else arg
        name = os.path.basename(arg).removesuffix(".json")
        ops.append({"name": name, "argv": ["check", target, "--law", "all"],
                    "exit": code, "refuted": refuted})
    ops.append({"name": "selftest", "argv": ["selftest", "--full"],
                "exit": 0, "refuted": None})
    random.Random(seed).shuffle(ops)
    return ops


_REPORT = re.compile(r"^\s*\[([^\]]+)\] (VERIFIED|UNREFUTED|UNKNOWN|REFUTED)"
                     r"(?: .*?)?(?: witness=(.*?))?(?: reason=.*)?$")


def check_roster_op(op: dict, code: int, stdout: str) -> str:
    """'' when the process answer matches the reference, else why not."""
    if code != op["exit"]:
        return f"exit {code}, expected {op['exit']}"
    if op["refuted"] is None:
        lines = stdout.strip().splitlines()
        if not lines or lines[-1] != "10/10 criteria passed" or any(
                "] FAIL " in line for line in lines):
            return "selftest did not pass every criterion"
        return ""
    refuted = {}
    for line in stdout.splitlines():
        m = _REPORT.match(line)
        if m and m.group(2) == "REFUTED":
            refuted[m.group(1)] = m.group(3)
    if refuted != op["refuted"]:
        return f"refuted {refuted}, expected {op['refuted']}"
    return ""


# ---------------------------------------------------------------------------
# finite_oracle: seeded random finite posets, plus two fixed extremes.

# (n, edge probability, posets per pass); with chain_16 and antichain_16
# this makes 100 ops.  The counts put both reported percentiles inside one
# class of ops whose cost is mostly a fixed mask enumeration: the median
# among the sparse 14-element posets, the 90th percentile among the sparse
# 16-element ones.
FINITE_PLAN = ((10, 0.15, 8), (10, 0.3, 8), (12, 0.15, 20), (12, 0.3, 20),
               (14, 0.15, 20), (14, 0.3, 8), (16, 0.15, 12), (16, 0.3, 2))

# The 5%, 10%, ..., 95% quantiles of the directed-subset count for each
# (n, p), from 4000 draws of the generator below.  The count is heavy-tailed
# (a dense 16-element poset has anywhere from ~10^3 to ~6*10^4 directed
# subsets) and brute-force cost grows with it, so posets are drawn at random
# and kept only when their count lands near an evenly spaced quantile of this
# table: every seed then gives a pass of about the same work with the same
# spread of shapes.
_DIRECTED_QUANTILES = {
    (10, 0.15): (14, 15, 16, 17, 19, 20, 21, 23, 24, 26, 29, 31, 34, 38, 45,
                 51, 61, 81, 110),
    (10, 0.3): (36, 47, 56, 66, 77, 88, 98, 108, 120, 134, 157, 173, 193, 221,
                248, 299, 346, 416, 564),
    (12, 0.15): (20, 24, 26, 29, 32, 35, 38, 42, 47, 52, 57, 64, 72, 87, 100,
                 120, 157, 191, 309),
    (12, 0.3): (97, 133, 169, 205, 242, 287, 326, 370, 420, 473, 551, 631,
                707, 809, 941, 1136, 1325, 1600, 2175),
    (14, 0.15): (32, 39, 46, 53, 59, 66, 75, 86, 97, 109, 124, 148, 172, 199,
                 241, 315, 407, 607, 1008),
    (14, 0.3): (311, 451, 596, 735, 876, 1038, 1216, 1374, 1549, 1760, 1995,
                2314, 2619, 2959, 3490, 4190, 4920, 6050, 8930),
    (16, 0.15): (54, 70, 87, 106, 124, 146, 175, 201, 231, 280, 328, 377, 461,
                 583, 717, 1001, 1272, 1889, 3175),
    (16, 0.3): (1103, 1713, 2275, 2818, 3404, 4035, 4791, 5405, 6139, 6989,
                8046, 9435, 10685, 12093, 13900, 16358, 20062, 24175, 32182),
}
_MAX_DRAWS = 5000


def up_closure(n: int, covers) -> list:
    """up[i] has bit j set iff i <= j, for covers (i, j) with i < j."""
    succ = [0] * n
    for i, j in covers:
        succ[i] |= 1 << j
    up = [0] * n
    for i in range(n - 1, -1, -1):
        row = 1 << i
        for j in range(i + 1, n):
            if (succ[i] >> j) & 1:
                row |= up[j]
        up[i] = row
    return up


def directed_count(n: int, up) -> int:
    """A finite directed set contains its maximum t, so the directed subsets
    with maximum t are t plus any subset of the rest of the down-set of t."""
    total = 0
    for t in range(n):
        below = sum((up[i] >> t) & 1 for i in range(n))
        total += 1 << (below - 1)
    return total


def _target(quantiles, q: float) -> float:
    pos = min(max(q * 20 - 1, 0), len(quantiles) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(quantiles) - 1)
    return quantiles[lo] + (quantiles[hi] - quantiles[lo]) * (pos - lo)


def _draw_poset(rng, n: int, p: float, target: float):
    best = None
    for _ in range(_MAX_DRAWS):
        covers = [(i, j) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < p]
        count = directed_count(n, up_closure(n, covers))
        miss = abs(count - target) / target
        if best is None or miss < best[0]:
            best = (miss, covers)
        if miss <= 0.1:
            break
    return best[1]


def finite_ops(seed: int) -> list:
    """One pass: a list of {name, n, covers} with covers as index pairs
    (i, j), i < j, over the labels x0..x{n-1}."""
    rng = random.Random(seed)
    ops = []
    for n, p, count in FINITE_PLAN:
        quantiles = _DIRECTED_QUANTILES[(n, p)]
        for k in range(count):
            target = _target(quantiles, (k + 0.5) / count)
            covers = _draw_poset(rng, n, p, target)
            ops.append({"name": f"random_{n}_{p}", "n": n, "covers": covers})
    ops.append({"name": "chain_16", "n": 16,
                "covers": [(i, i + 1) for i in range(15)]})
    ops.append({"name": "antichain_16", "n": 16, "covers": []})
    rng.shuffle(ops)
    return ops


def check_finite_op(op: dict, result: dict) -> str:
    """On a finite poset way-below is the order, the kernel is the identity,
    the poset is continuous and the largest continuous retract is the whole
    carrier."""
    n = op["n"]
    up = up_closure(n, op["covers"])
    if result["directed"] != directed_count(n, up):
        return (f"{result['directed']} directed subsets, expected "
                f"{directed_count(n, up)}")
    if result["waybelow"] != up:
        return "brute-force way-below differs from the order"
    if result["kernel"] != list(range(n)):
        return "brute-force kernel is not the identity"
    if result["continuity"] != "VERIFIED":
        return f"continuity {result['continuity']}, expected VERIFIED"
    if n <= 10 and result["retract"] != list(range(n)):
        return "largest continuous subposet is not the whole carrier"
    return ""


# ---------------------------------------------------------------------------
# closedset_periods: pairs of eventually periodic closed sets with distinct
# prime periods in [50, 250].

PRIMES = tuple(p for p in range(50, 251)
               if all(p % d for d in range(2, math.isqrt(p) + 1)))
# Each op pairs a prime with its 1st, 2nd and 3rd successor in cyclic
# order: 3 * 38 = 114 distinct pairs, every prime in exactly six.  The work
# of an op grows with the lcm of its periods, so the periods are the same on
# every seed and only the sets themselves are drawn: with independently
# drawn pairs the pass total varies by about 7% across seeds (interquartile
# range) and its 90th percentile by more.
_OFFSETS = (1, 2, 3)


def _closed_literal(rng, period: int) -> dict:
    threshold = rng.randint(0, 20)
    residues = [r for r in range(period) if rng.random() < 0.5]
    if not residues:
        residues = [rng.randrange(period)]
    prefix = [k for k in range(threshold) if rng.random() < 0.5]
    return {"prefix": prefix, "threshold": threshold, "period": period,
            "residues": residues, "infinity": True}


def closedset_ops(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    for k in _OFFSETS:
        for i, p in enumerate(PRIMES):
            q = PRIMES[(i + k) % len(PRIMES)]
            a, b = _closed_literal(rng, p), _closed_literal(rng, q)
            if rng.random() < 0.5:
                a, b = b, a
            finite = {"finite": list(a["prefix"]), "infinity": False}
            ops.append({"name": f"periods_{a['period']}_{b['period']}",
                        "a": a, "b": b, "f": finite})
    rng.shuffle(ops)
    return ops


def _members(prefix, threshold, period, residues, width) -> int:
    """Membership of 0..width-1 as an int with one byte per natural, so that
    | and & act elementwise."""
    pattern = bytearray(period)
    for r in residues:
        pattern[r] = 1
    cells = bytearray((pattern * (width // period + 1))[:width])
    cells[:threshold] = bytes(threshold)
    for k in prefix:
        cells[k] = 1
    return int.from_bytes(cells, "little")


def _fields(lit: dict) -> tuple:
    if "finite" in lit:
        nats = lit["finite"]
        return (nats, max(nats) + 1 if nats else 0, 1, [], lit["infinity"])
    return (lit["prefix"], lit["threshold"], lit["period"], lit["residues"],
            lit["infinity"])


def check_closedset_op(op: dict, result: dict) -> str:
    """Pointwise membership model over threshold + 2 * lcm(periods)."""
    a, b, f = _fields(op["a"]), _fields(op["b"]), _fields(op["f"])
    reps = {key: result[key] for key in ("a", "b", "join", "meet", "kernel")}
    span = math.lcm(a[2], b[2])
    start = max(a[1], b[1])
    width = max([start] + [r[1] for r in reps.values()]) + 2 * span

    def bits(fields):
        return _members(*fields[:4], width)

    A, B, F = bits(a), bits(b), bits(f)
    got = {key: bits(rep) for key, rep in reps.items()}
    tail = ((A & B) >> (8 * start)) & ((1 << (8 * span)) - 1)
    meet_inf, join_inf = a[4] and b[4], a[4] or b[4]
    meet_nats_infinite = tail != 0
    expected = {
        "a": (A, a[4]), "b": (B, b[4]),
        "join": (A | B, join_inf), "meet": (A & B, meet_inf),
        # The kernel keeps the natural part and adds inf exactly when that
        # part is infinite.
        "kernel": (A & B, meet_nats_infinite),
    }
    for key, (want, inf) in expected.items():
        if got[key] != want or reps[key][4] != inf:
            return f"{key} differs from the membership model"
    leq_ab = (A & ~B) == 0 and (not a[4] or b[4])
    answers = {
        "leq_a_join": True, "leq_meet_b": True, "leq_a_b": leq_ab,
        # inf in C forces an infinite natural part for C to be a fixed point.
        "in_retract": (not meet_inf) or meet_nats_infinite,
        # F is finite, lacks inf and lies inside a, hence inside a | b.
        "waybelow": (F & ~(A | B)) == 0 and not f[4],
    }
    for key, want in answers.items():
        if result[key] != want:
            return f"{key} is {result[key]}, expected {want}"
    return ""
