"""The benchmark harness still drives the library: one traced pass each of
the finite_oracle and closedset_periods workloads, run the way
perfbench/run.py runs them.  The harness
wraps library names from outside (the `directed_subset_masks` cached
property, the oracle functions), so a refactor that renames or reshapes
them shows up here as a failed op or a missing count."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_finite_oracle_traced_pass(tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path
                                               else ""))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--workload", "finite_oracle", "--seed", "1", "--trace"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "ready"
    result = json.loads(lines[-1])
    assert len(result["ops"]) == 100
    assert [op for op in result["ops"] if op["failed"] or op["wrong"]] == []
    # the directed subsets of the seed-1 pass, by the closed form
    # `workloads.directed_count` summed over its ops: a listing that drops
    # or repeats a subset moves this total
    assert result["totals"]["oracle.directed_subsets_found"] == 134326


def test_closedset_periods_traced_pass(tmp_path):
    """One traced pass of closedset_periods at seed 1.  Its counts are
    pinned: a change that builds more reps, calls the cached ops more often
    or walks a wider window moves one of them."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path
                                               else ""))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--workload", "closedset_periods", "--seed", "1", "--trace"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "ready"
    result = json.loads(lines[-1])
    assert len(result["ops"]) == 114
    assert [op for op in result["ops"] if op["failed"] or op["wrong"]] == []
    totals = result["totals"]
    assert (totals["closedsets.construct_calls"],
            totals["closedsets.leq_calls"], totals["closedsets.join_calls"],
            totals["closedsets.meet_calls"]) == (342, 570, 114, 114)
    assert totals["closedsets.window_elems"] == 18_625_569


def test_traced_check_reads_the_kernel_hook(tmp_path):
    """A traced `check closed_sets --law all` still reaches the closed-set
    cache, and asks for approximant families only where members are read:
    the kernel values come from `kernel_value`."""
    out = tmp_path / "totals.json"
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PERFBENCH_TRACE_OUT=str(out),
               PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path
                                               else ""))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "entry.py"), "check",
         "closed_sets", "--law", "all"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    totals = json.loads(out.read_text(encoding="utf-8"))
    assert totals["closedsets.cache_hits"] > 0
    assert totals["catalog.waybelow_family_calls"] < 1000


def test_traced_cc_tests_bounds_by_order_codes(tmp_path):
    """The sampled `cc` law finds the pool's upper bounds by order codes,
    not by one `closedset_leq` per pool element and subset member (51,627
    calls when it did)."""
    out = tmp_path / "totals.json"
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PERFBENCH_TRACE_OUT=str(out),
               PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path
                                               else ""))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "entry.py"), "check",
         "closed_sets", "--law", "cc"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    totals = json.loads(out.read_text(encoding="utf-8"))
    assert totals["closedsets.leq_calls"] < 10_000


def test_the_tracer_wraps_every_library_carrier(tmp_path):
    """``spans.install()`` wraps the hooks it finds in ``vars()`` of each
    presentation class that exists when it runs, so every carrier must load
    by then: after it, each ``PosetPresentation`` subclass of the library,
    the lazily loaded symbolic carriers included, resolves its order hooks
    to the wrapper, and lift and sum resolve the ones they inherit from
    their one base."""
    script = """
import spans
tracer = spans.install()
import posetkernel.carriers
from posetkernel.core import PosetPresentation
wrapper = tracer.span("catalog.waybelow", len).__code__

def subclasses(base):
    for sub in base.__subclasses__():
        yield sub
        yield from subclasses(sub)

names = set()
for cls in subclasses(PosetPresentation):
    if cls.__module__.startswith("posetkernel."):
        names.add(cls.__name__)
        for name in ("waybelow", "waybelow_family", "finite_sup",
                     "finite_inf"):
            assert getattr(cls, name).__code__ is wrapper, (cls, name)
print(sorted(names))
"""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "perfbench"), str(ROOT / "src")]
                   + ([path] if path else [])))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "['ClosedSetsPresentation', 'DisjointSumPresentation', "
        "'FinitePosetPresentation', 'LiftPresentation', "
        "'OmegaPlusOnePresentation', '_Combinator']\n")


def test_the_tracer_wraps_the_lazily_loaded_laws(tmp_path):
    """The symbolic halves of the laws (``sampled_laws``) load after
    ``spans.install()`` in a traced ``check``, and the analyze and
    export-dot commands (``commands``) load with the acceptance matrix
    that it imports.  Either way, every ``kernel_of`` and ``in_retract``
    they bind is the tracer's wrapper, so the traced counts hold their
    calls."""
    script = """
import sys
import spans
tracer = spans.install()
import posetkernel.commands, posetkernel.sampled_laws
wrapper = tracer.span("kernel.kernel_of", len).__code__
bound = []
for name in ("commands", "sampled_laws"):
    module = sys.modules["posetkernel." + name]
    for attr in ("kernel_of", "in_retract"):
        assert getattr(module, attr).__code__ is wrapper, (name, attr)
        bound.append(f"{name}.{attr}")
print(bound)
"""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "perfbench"), str(ROOT / "src")]
                   + ([path] if path else [])))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "['commands.kernel_of', 'commands.in_retract', "
        "'sampled_laws.kernel_of', 'sampled_laws.in_retract']\n")
