"""Per-layer tracing of posetkernel from outside the library.

`install()` wraps the public functions of each layer, in every posetkernel
module that binds them, with a recorder that keeps one span per call
(name, start, end, parent) in flat arrays.  `Tracer.totals()` turns the
spans into per-name call counts and self times (a span's duration minus the
time its child spans cover) and adds the counters read at the same
boundaries.  The library itself is not modified.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from collections import Counter
from functools import cached_property

LAWS = ("cc", "interpolation", "continuity", "subposet", "kernel", "scott",
        "eq", "largest-retract", "laws", "inf")
CRITERIA = tuple(f"C{i}" for i in range(1, 11))

# (span name, whether its call count is a metric too)
SPAN_METRICS = (
    ("closedsets.construct", True),
    ("closedsets.leq", True),
    ("closedsets.join", True),
    ("closedsets.meet", True),
    ("catalog.waybelow", True),
    ("catalog.waybelow_family", True),
    ("catalog.sup_inf", True),
    ("kernel.kernel_of", True),
    ("kernel.in_retract", True),
    ("oracle.directed_enum", False),
    ("oracle.waybelow_bruteforce", True),
    ("oracle.kernel_bruteforce", False),
    ("oracle.continuity_bruteforce", False),
    ("oracle.continuous_subposets", False),
    ("cli.load_poset", False),
)
COUNTERS = ("closedsets.cache_hits", "closedsets.cache_misses",
            "closedsets.window_elems", "catalog.chain_families_built",
            "oracle.directed_masks_scanned", "oracle.directed_subsets_found",
            "oracle.subposets_scanned", "oracle.subposets_passing",
            "law.skipped", "law.refuted")


class Tracer:
    def __init__(self):
        self.names = [name for name, _ in SPAN_METRICS]
        self.kind = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = Counter()
        self.law_s = Counter()
        self.law_samples = Counter()
        self.criteria_s = {}
        self.cache_infos = []

    def span(self, name, fn):
        """`fn` wrapped so that each call records one span named `name`."""
        nid = self.names.index(name)
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            kind.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def totals(self) -> dict:
        """Raw sums: '<span>_calls', '<span>_self_s', counters, law and
        criterion timings.  Ratios are derived later, after summing the
        totals of several processes."""
        counts = Counter(self.counts)
        for info, base in self.cache_infos:
            now = info()
            counts["closedsets.cache_hits"] += now.hits - base.hits
            counts["closedsets.cache_misses"] += now.misses - base.misses
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            k = self.kind[i]
            calls[k] += 1
            self_s[k] += self.end[i] - self.start[i] - child[i]
        out = {}
        for k, name in enumerate(self.names):
            out[f"{name}_calls"] = calls[k]
            out[f"{name}_self_s"] = float(self_s[k])
        for name in COUNTERS:
            out[name] = counts[name]
        for law in LAWS:
            out[f"law.{law}.s"] = float(self.law_s[law])
            out[f"law.{law}.samples"] = self.law_samples[law]
        for ident in CRITERIA:
            out[f"acceptance.{ident}.s"] = self.criteria_s.get(ident, 0.0)
        return out


def _rebind(original, replacement):
    """Point every posetkernel module-level binding of `original` at
    `replacement`, so calls through any import path are traced."""
    for name, module in list(sys.modules.items()):
        if name == "posetkernel" or name.startswith("posetkernel."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install() -> Tracer:
    from posetkernel import (acceptance, cli, closedsets, core, families,
                             kernel, oracle)

    tracer = Tracer()
    counts = tracer.counts

    cls = closedsets.ClosedSetRep
    cls.__post_init__ = tracer.span("closedsets.construct", cls.__post_init__)

    for op in ("leq", "join", "meet"):
        cached = getattr(closedsets, f"closedset_{op}")
        _rebind(cached, _cached_op(tracer, f"closedsets.{op}", cached))

    def subclasses(base):
        for sub in base.__subclasses__():
            yield sub
            yield from subclasses(sub)

    for pres in [core.PosetPresentation, *subclasses(core.PosetPresentation)]:
        for meth, span in (("waybelow", "catalog.waybelow"),
                           ("waybelow_family", "catalog.waybelow_family"),
                           ("finite_sup", "catalog.sup_inf"),
                           ("finite_inf", "catalog.sup_inf")):
            if meth in vars(pres):
                setattr(pres, meth, tracer.span(span, vars(pres)[meth]))

    chain_init = families.ChainFamily.__init__

    def counted_init(self, *args, **kwargs):
        counts["catalog.chain_families_built"] += 1
        chain_init(self, *args, **kwargs)

    families.ChainFamily.__init__ = counted_init

    for fn, span in ((kernel.kernel_of, "kernel.kernel_of"),
                     (kernel.in_retract, "kernel.in_retract"),
                     (oracle.waybelow_bruteforce,
                      "oracle.waybelow_bruteforce"),
                     (oracle.kernel_bruteforce, "oracle.kernel_bruteforce"),
                     (oracle.continuity_bruteforce,
                      "oracle.continuity_bruteforce"),
                     (cli.load_poset, "cli.load_poset")):
        _rebind(fn, tracer.span(span, fn))

    enumerate_masks = vars(core.FinitePoset)["directed_subset_masks"].func

    def directed(fp):
        found = enumerate_masks(fp)
        # The size of the mask space the enumeration ranges over.
        counts["oracle.directed_masks_scanned"] += (1 << fp.n) - 1
        counts["oracle.directed_subsets_found"] += len(found)
        return found

    prop = cached_property(tracer.span("oracle.directed_enum", directed))
    prop.__set_name__(core.FinitePoset, "directed_subset_masks")
    core.FinitePoset.directed_subset_masks = prop

    subposets = oracle.continuous_subposets_bruteforce
    traced_subposets = tracer.span("oracle.continuous_subposets", subposets)

    def scan_subposets(fp):
        passing = traced_subposets(fp)
        counts["oracle.subposets_scanned"] += 1 << fp.n
        counts["oracle.subposets_passing"] += len(passing)
        return passing

    _rebind(subposets, scan_subposets)

    run_law = cli.run_law
    skips = (cli.PreconditionUnverified, cli.ScopeUnsupported, cli.SizeLimit)

    def timed_law(P, law, scope):
        t0 = time.perf_counter()
        try:
            report = run_law(P, law, scope)
        except skips:
            counts["law.skipped"] += 1
            raise
        finally:
            tracer.law_s[law] += time.perf_counter() - t0
        tracer.law_samples[law] += report.samples
        if report.status is cli.Status.REFUTED:
            counts["law.refuted"] += 1
        return report

    _rebind(run_law, timed_law)

    run_all = acceptance.run_all

    def timed_run_all(*args, **kwargs):
        results = run_all(*args, **kwargs)
        for res in results:
            tracer.criteria_s[res.ident] = res.seconds
        return results

    _rebind(run_all, timed_run_all)
    return tracer


def _cached_op(tracer, span, cached):
    """Trace an lru_cache'd binary closed-set op and, on a cache miss, add
    the window it had to walk (common threshold + lcm of the periods)."""
    traced = tracer.span(span, cached)
    info = cached.cache_info
    tracer.cache_infos.append((info, info()))
    counts = tracer.counts

    def op(a, b):
        before = info().misses
        result = traced(a, b)
        if info().misses != before:
            counts["closedsets.window_elems"] += (
                max(a.threshold, b.threshold) + math.lcm(a.period, b.period))
        return result

    return op


def layer_metrics(total: dict, overhead_s: float) -> dict:
    """Per-layer metrics (name -> (value, unit)) from summed totals."""
    out = {}
    for span, with_calls in SPAN_METRICS:
        if with_calls:
            out[f"{span}_calls"] = (total[f"{span}_calls"], "count")
        out[f"{span}_self_s"] = (total[f"{span}_self_s"], "s")
    for name in COUNTERS:
        out[name] = (total[name], "count")
    hits, misses = total["closedsets.cache_hits"], total["closedsets.cache_misses"]
    out["closedsets.cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    window = total["closedsets.window_elems"]
    busy = sum(total[f"closedsets.{op}_self_s"] for op in ("leq", "join", "meet"))
    out["closedsets.ns_per_window_elem"] = (
        busy * 1e9 / window if window else 0.0, "ns")
    scanned = total["oracle.directed_masks_scanned"]
    out["oracle.directed_yield"] = (
        total["oracle.directed_subsets_found"] / scanned if scanned else 0.0,
        "ratio")
    for law in LAWS:
        out[f"law.{law}.s"] = (total[f"law.{law}.s"], "s")
        out[f"law.{law}.samples"] = (total[f"law.{law}.samples"], "count")
    for ident in CRITERIA:
        out[f"acceptance.{ident}.s"] = (total[f"acceptance.{ident}.s"], "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
