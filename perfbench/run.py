"""The posetkernel benchmark (workloads and metrics: BENCHMARK.json).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from a checkout: the library is imported from src/ next to this
directory.  Every pass of a workload runs in a fresh interpreter
(worker.py), so the library's caches start cold in each pass, and one
client issues the ops one at a time (a closed loop).  With --trace 0,
passes repeat until the next one would overrun --seconds, and the last line
of stdout is a JSON object with the end-to-end metrics.  With --trace 1, one
untraced pass and two traced passes of the same ops give the per-layer
metrics; their counts must agree exactly.

Timings are wall-clock on whatever host runs this, with no CPU pinning and
no cache dropping, scaled to a reference host speed by a gauge loop read
next to each op (see GAUGE_REF_S); the gauge printed with each run shows how
fast the host was.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import spans
from worker import gauge

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("roster_check", "finite_oracle", "closedset_periods")
SETUPS = 7  # set-ups timed per run; setup_s is their median
RUN_LIMIT_S = 170.0  # workers still running this long into the run are killed
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("verdicts_ok", "share"),
              ("completed_ops", "share"), ("peak_rss_mb", "MB"))
EXACT_SUFFIXES = ("_calls", "_scanned", "_found")
STARTED = time.perf_counter()
# The host this runs on changes speed by half or more for tens of seconds at
# a time, and CPU time moves with wall time, so raw times measure the host as
# much as the program.  Every reported time is therefore scaled to a
# reference host: multiplied by GAUGE_REF_S over the time of worker.gauge()
# (a fixed piece of pure Python) read next to it.  A slower program still
# reads slower; a slower host mostly does not (on a 2-vCPU shared host this
# cut the run-to-run spread of pass time about threefold).  Raw times are
# printed beside them.
GAUGE_REF_S = 0.002
GAUGE_READS = 5  # gauge readings taken before each set-up
GAUGE_WINDOW = 8  # ops on each side whose gauges scale an op's time


class WorkerError(Exception):
    pass


def host_gauge() -> float:
    """Median of a few gauge readings: the host's speed right now."""
    return statistics.median(gauge() for _ in range(GAUGE_READS))


def scaled(seconds: float, gauge_s: float) -> float:
    """`seconds` as they would read on a host whose gauge reads GAUGE_REF_S."""
    return seconds * GAUGE_REF_S / gauge_s


def scaled_ops(ops) -> list:
    """Each op's time in one pass, scaled by the median gauge of the ops
    within GAUGE_WINDOW of it (a lone reading can be hit by preemption)."""
    gauges = [op["g"] for op in ops]
    return [scaled(op["s"], statistics.median(
        gauges[max(0, i - GAUGE_WINDOW):i + GAUGE_WINDOW + 1]))
        for i, op in enumerate(ops)]


def spawn(workload, seed, env, trace=False, setup_only=False):
    """Run worker.py once; return (set-up seconds, the gauge read just
    before, its JSON or None)."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(seed)]
    if trace:
        argv.append("--trace")
    if setup_only:
        argv.append("--setup-only")
    gauge_s = host_gauge()
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(
        max(1.0, RUN_LIMIT_S - (time.perf_counter() - STARTED)), kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, err = proc.communicate()
    finally:
        timer.cancel()
        kill()  # whatever of the worker's session is still running
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"{workload} worker exited {proc.returncode}: "
                          f"{err.strip()[-2000:]}")
    if setup_only:
        return setup_s, gauge_s, None
    return setup_s, gauge_s, json.loads(out.strip().splitlines()[-1])


def summarize(passes):
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op["failed"]]
    wrong = [op for op in ops if op["wrong"]]
    return ops, failed, wrong


def measure(args, env, out):
    """--trace 0: the end-to-end metrics."""
    setups, passes, longest = [], [], 0.0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        setup_s, gauge_s, result = spawn(args.workload, args.seed, env)
        setups.append((setup_s, gauge_s))
        passes.append(result)
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > args.seconds:
            break
    while len(setups) < SETUPS:
        setups.append(spawn(args.workload, args.seed, env,
                            setup_only=True)[:2])

    ops, failed, wrong = summarize(passes)
    # Percentiles are taken within each pass and their median over passes
    # reported, so that they do not shift with the number of passes that fit.
    times = [sorted(t * 1000 for t in scaled_ops(p["ops"])) for p in passes]
    attempted = len(ops)
    ok = attempted - len(failed) - len(wrong)
    per_pass = len(passes[0]["ops"])
    values = {
        "setup_s": statistics.median(scaled(*s) for s in setups),
        "wall_s": statistics.median(sum(t) for t in times) / 1000,
        "op_p50_ms": statistics.median(statistics.median(t) for t in times),
        "op_p90_ms": statistics.median(
            statistics.quantiles(t, n=10)[8] for t in times),
        "verdicts_ok": ok / attempted,
        "completed_ops": (attempted - len(failed)) / attempted,
        "peak_rss_mb": max(p["peak_rss_kb"] for p in passes) / 1024,
    }
    raw_wall = statistics.median(p["pass_s"] for p in passes)
    notes = {
        "setup_s": f"median of {len(setups)} set-ups (raw "
                   f"{statistics.median(s for s, _ in setups):.4f} s)",
        "wall_s": f"median of {len(passes)} passes of {per_pass} ops "
                  f"(raw {raw_wall:.4f} s)",
        "op_p50_ms": f"median over passes, {per_pass} ops each",
        "op_p90_ms": f"median over passes, {per_pass} ops each",
        "verdicts_ok": f"{ok}/{attempted} ops match the reference",
        "completed_ops": f"{attempted - len(failed)}/{attempted} ops "
                         "neither raised nor timed out",
        "peak_rss_mb": f"max over {len(passes)} passes",
    }
    for name, unit in END_TO_END:
        out.write(f"  {name:14s} {values[name]:12.4f} {unit:5s}  "
                  f"{notes[name]}\n")
    if args.workload == "roster_check":
        selftest = [t for p in passes
                    for op, t in zip(p["ops"], scaled_ops(p["ops"]))
                    if op["name"] == "selftest"]
        out.write(f"  {'selftest_s':14s} {statistics.median(selftest):12.4f} "
                  f"{'s':5s}  median of {len(selftest)} selftest --full runs\n")
    out.write(f"  {'failed_ops':14s} {len(failed) / attempted:12.4f} "
              f"{'share':5s}  {len(failed)}/{attempted}"
              f" ({len(failed) // len(passes)}/{per_pass} per pass)\n")
    _report_bad(failed, wrong, out)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    return {"correct": not wrong, "attempted": attempted,
            "failed": len(failed), "metrics": metrics}


def _report_bad(failed, wrong, out):
    seen = set()
    for key, ops in (("failed", failed), ("wrong", wrong)):
        for op in ops:
            line = f"  {key}: {op['name']}: {op[key]}"
            if line not in seen:
                seen.add(line)
                out.write(line + "\n")


def trace(args, env, out):
    """--trace 1: per-layer metrics from two traced passes."""
    plain = spawn(args.workload, args.seed, env)[2]
    traced = [spawn(args.workload, args.seed, env, trace=True)[2]
              for _ in range(2)]
    first, second = (p["totals"] for p in traced)
    drift = sorted(k for k in first if k.endswith(EXACT_SUFFIXES)
                   and first[k] != second[k])
    for key in drift:
        out.write(f"  count differs between traced runs: {key} "
                  f"{first[key]} != {second[key]}\n")
    # Counts come from the first traced pass; times are the mean of both.
    total = {k: v if isinstance(v, int) else (v + second[k]) / 2
             for k, v in first.items()}
    overhead = (statistics.mean(sum(scaled_ops(p["ops"])) for p in traced)
                - sum(scaled_ops(plain["ops"])))
    layers = spans.layer_metrics(total, overhead)
    for name, (value, unit) in layers.items():
        out.write(f"  {name:42s} {value:>16} {unit}\n" if isinstance(value, int)
                  else f"  {name:42s} {value:16.6f} {unit}\n")
    passes = [plain, *traced]
    ops, failed, wrong = summarize(passes)
    _report_bad(failed, wrong, out)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in layers.items()}
    return {"correct": not wrong and not drift, "attempted": len(ops),
            "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so that the finally
    # clauses stop the worker's process group before this process ends.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "posetkernel", "__init__.py")):
        print(f"perfbench: no posetkernel sources in {SRC}", file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""),
               TMPDIR=workdir, PYTHONHASHSEED="0")
    out = sys.stdout
    out.write(f"perfbench {args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}\n")
    out.write(f"  env: python {platform.python_version()}, "
              f"nproc {os.cpu_count()}, gauge {host_gauge() * 1000:.3f} ms "
              f"(times below are wall-clock scaled to a {GAUGE_REF_S * 1000:g}"
              " ms gauge; shared host, no CPU pinning, no cache dropping)\n")
    try:
        result = (trace if args.trace else measure)(args, env, out)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    out.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
