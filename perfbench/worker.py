"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N [--trace] [--setup-only]

Set-up (importing posetkernel and building the pass's inputs) ends with a
"ready" line on stdout; the parent times set-up up to that line.  The ops
then run one at a time, each timed on its own right after a reading of
gauge() (the host's current speed), and each answer is checked
against its reference in workloads.py outside that time.  The pass ends
with one JSON line: pass time, per-op latency and verdict, peak RSS, and
with --trace the per-layer totals.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
import traceback

import workloads
from entry import TRACE_ENV

HERE = os.path.dirname(os.path.abspath(__file__))
OP_LIMIT_S = 60.0  # an op running longer than this counts as failed
GAUGE_STEPS = 1024


class _Periodic:
    """A stand-in for an eventually periodic set, used only by gauge()."""

    __slots__ = ("prefix", "threshold", "period", "residues")

    def __init__(self, prefix, threshold, period, residues):
        self.prefix = frozenset(prefix)
        self.threshold = threshold
        self.period = period
        self.residues = frozenset(residues)

    def __contains__(self, n):
        if n < self.threshold:
            return n in self.prefix
        return n % self.period in self.residues


_GAUGE_SETS = (_Periodic(range(0, 10, 2), 10, 7, (1, 3, 4)),
               _Periodic(range(0, 10, 3), 10, 11, (0, 2, 5, 7)))
_GAUGE_UP = [0b1010 << i & (GAUGE_STEPS - 1) for i in range(10)]


def gauge() -> float:
    """Seconds taken by a fixed piece of pure Python: the host's current speed.

    Shared hosts change speed by half or more for tens of seconds at a time,
    so run.py scales each op's time by the gauge read next to it.  The gauge
    has the instruction mix of the library's own loops (integer arithmetic;
    method calls, generators and frozenset lookups; a bitmask scan that
    allocates), about 2 ms in all; a mix tracks the host better than any one
    of its parts.
    """
    a, b = _GAUGE_SETS
    t0 = time.perf_counter()
    acc = 0
    for i in range(8 * GAUGE_STEPS):
        acc += i * i % 7
    frozenset(n for n in range(GAUGE_STEPS) if n in a or n in b)
    all(n in b for n in range(GAUGE_STEPS) if n in a)
    found = []
    for mask in range(GAUGE_STEPS):
        rest, closed = mask, True
        while rest:
            low = rest & -rest
            rest ^= low
            closed = closed and _GAUGE_UP[low.bit_length() - 1] & mask != 0
        if closed:
            found.append(mask << 40)
    return time.perf_counter() - t0


def roster_pass(ops, tracing):
    """Each op is a fresh CLI process launched through entry.py."""
    records = []
    totals = []
    for i, op in enumerate(ops):
        env = dict(os.environ)
        trace_file = os.path.join(tempfile.gettempdir(),
                                  f"trace-{os.getpid()}-{i}.json")
        if tracing:
            env[TRACE_ENV] = trace_file
        argv = [sys.executable, os.path.join(HERE, "entry.py"), *op["argv"]]
        g = gauge()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  env=env, timeout=OP_LIMIT_S)
        except subprocess.TimeoutExpired:
            records.append((op, time.perf_counter() - t0, g, None))
            continue
        records.append((op, time.perf_counter() - t0, g, proc))
        if tracing and os.path.exists(trace_file):
            with open(trace_file, encoding="utf-8") as handle:
                totals.append(json.load(handle))
            os.unlink(trace_file)
    out = []
    for op, seconds, g, proc in records:
        if proc is None:
            out.append(_record(op, seconds, g, "timed out"))
        elif "Traceback (most recent call last)" in proc.stderr:
            last = proc.stderr.strip().splitlines()[-1]
            out.append(_record(op, seconds, g,
                               f"exit {proc.returncode}: {last}"))
        else:
            out.append(_record(op, seconds, g, None, workloads.check_roster_op(
                op, proc.returncode, proc.stdout)))
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return out, peak_kb, _sum_totals(totals) if tracing else None


def _sum_totals(totals):
    out = {}
    for total in totals:
        for key, value in total.items():
            out[key] = out.get(key, 0) + value
    return out


def _record(op, seconds, g, failure, wrong=""):
    if failure is None and seconds > OP_LIMIT_S:
        failure = f"ran {seconds:.1f}s, over the {OP_LIMIT_S:.0f}s limit"
    return {"name": op["name"], "s": seconds, "g": g, "failed": failure,
            "wrong": "" if failure else wrong}


def finite_op(pk, op):
    names = [f"x{i}" for i in range(op["n"])]
    fp = pk.build_finite_poset(names, [(names[i], names[j])
                                       for i, j in op["covers"]])
    n = fp.n
    directed = len(fp.directed_subset_masks)
    waybelow = [sum(1 << y for y in range(n)
                    if pk.waybelow_bruteforce(fp, x, y)) for x in range(n)]
    kernel = [pk.kernel_bruteforce(fp, x) for x in range(n)]
    continuity = pk.continuity_bruteforce(fp).status.value
    retract = (sorted(pk.largest_continuous_subposet_bruteforce(fp))
               if n <= 10 else None)
    return {"directed": directed, "waybelow": waybelow, "kernel": kernel,
            "continuity": continuity, "retract": retract}


def closedset_op(pk, C, op):
    a = C.parse_element(op["a"])
    b = C.parse_element(op["b"])
    join = pk.closedset_join(a, b)
    meet = pk.closedset_meet(a, b)
    return {"a": a, "b": b, "join": join, "meet": meet,
            "leq_a_join": pk.closedset_leq(a, join),
            "leq_meet_b": pk.closedset_leq(meet, b),
            "leq_a_b": pk.closedset_leq(a, b),
            "kernel": pk.kernel_of(C, meet),
            "in_retract": pk.in_retract(C, meet),
            "waybelow": pk.waybelow(C, C.parse_element(op["f"]), join)}


def _rep_fields(rep):
    return (sorted(rep.prefix), rep.threshold, rep.period,
            sorted(rep.residues), rep.infinity)


def in_process_pass(workload, ops, pk):
    if workload == "finite_oracle":
        run, check = (lambda op: finite_op(pk, op)), workloads.check_finite_op
    else:
        C = pk.make_catalog(pk.closed_sets())

        def run(op):
            return closedset_op(pk, C, op)

        def check(op, result):
            return workloads.check_closedset_op(op, {
                key: _rep_fields(value) if hasattr(value, "period") else value
                for key, value in result.items()})
    out = []
    for op in ops:
        g = gauge()
        t0 = time.perf_counter()
        try:
            result, failure = run(op), None
        except Exception:
            result = None
            failure = traceback.format_exc().strip().splitlines()[-1]
        seconds = time.perf_counter() - t0
        # Checked right away but outside the op's time, so that results are
        # not held in memory across the pass.
        wrong = ""
        if failure is None:
            try:
                wrong = check(op, result)
            except Exception as exc:  # a malformed answer is a wrong answer
                wrong = f"reference check failed on the answer: {exc!r}"
        out.append(_record(op, seconds, g, failure, wrong))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import posetkernel as pk

    if args.workload == "roster_check":
        ops = workloads.roster_ops(args.seed)
    elif args.workload == "finite_oracle":
        ops = workloads.finite_ops(args.seed)
    else:
        ops = workloads.closedset_ops(args.seed)
    tracer = None
    if args.trace and args.workload != "roster_check":
        import spans
        tracer = spans.install()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.workload == "roster_check":
        records, peak_kb, totals = roster_pass(ops, args.trace)
    else:
        records = in_process_pass(args.workload, ops, pk)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        totals = tracer.totals() if tracer else None
    # Ops run back to back, so the pass takes the sum of their latencies;
    # the reference checks are left out.
    pass_s = sum(r["s"] for r in records)
    print(json.dumps({"pass_s": pass_s, "ops": records,
                      "peak_rss_kb": peak_kb, "totals": totals}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
