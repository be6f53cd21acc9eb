"""In-memory span tracing for the benchmark's traced runs.

Spans are recorded only from this package: :class:`LayerTracer`
replaces the public function of each layer *at its call site* (the
module attribute the caller looks up) with a timing wrapper, and puts
the original back on :meth:`LayerTracer.uninstall`.  Nothing is
installed unless tracing is on, so untraced runs execute the program
exactly as a user's command does.

A span carries a name, start, end, parent and op id.  A layer's self
time is its span's duration minus the part of that interval its child
spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.isa.compiler import lowering_memo_stats


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 for a root
    op: int              # op id the span belongs to


def covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per-span self time: duration minus the union of its direct
    children's intervals (clipped to the parent)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            parent = spans[span.parent]
            children.setdefault(span.parent, []).append(
                (max(span.start, parent.start), min(span.end, parent.end)))
    return [(s.end - s.start) - covered(children.get(i, ()))
            for i, s in enumerate(spans)]


# One entry per traced call site: (span name, module, attribute, extra
# call counter or None).  A layer called from several modules is wrapped
# at each of them; the extra counter tells the sites apart.
SPAN_SITES: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("suites.build", "repro.suites", "build_nas_suite", None),
    ("suites.build", "repro.suites", "build_nr_suite", None),
    ("codelets.find", "repro.core.pipeline", "find_suite_codelets", None),
    ("codelets.profile", "repro.core.pipeline", "profile_codelets", None),
    ("analysis.static", "repro.codelets.profiling", "analyze_static",
     None),
    ("machine.model_run", "repro.codelets.measurement",
     "run_kernel_model", None),
    ("isa.compile", "repro.machine.platform", "compile_kernel", None),
    ("isa.compile", "repro.codelets.profiling", "compile_kernel", None),
    ("machine.cache_model", "repro.machine.platform", "analyze_cache",
     None),
    ("machine.exec_model", "repro.machine.platform",
     "estimate_execution", None),
    ("machine.sim", "repro.machine.platform", "simulate_cache", None),
    ("machine.sim_compile", "repro.machine.cache_sim_vec",
     "compile_address_stream", None),
    ("core.linkage", "repro.core.pipeline", "ward_linkage", None),
    ("core.linkage", "repro.core.ga", "ward_linkage",
     "core.ga.fitness_evals"),
    ("core.elbow", "repro.core.pipeline", "elbow_k", None),
    ("core.elbow", "repro.core.ga", "elbow_k", None),
    ("core.select", "repro.core.pipeline", "select_representatives",
     None),
    ("core.select", "repro.core.ga", "select_representatives", None),
    ("core.evaluate", "repro.core.pipeline", "evaluate_on_target", None),
    ("core.ga", "repro.core.ga", "select_features", None),
    ("core.random_baseline", "repro.core.random_baseline",
     "random_clustering_errors", None),
)
#: Distinct span names, in site order.
SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(
    site[0] for site in SPAN_SITES))

# Call counters without a span (hot, cheap calls): (counter name,
# module, class or None, attribute).
COUNT_SITES: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("codelets.model_runs", "repro.codelets.measurement", "Measurer",
     "model_run"),
    ("core.ga.fitness_calls", "repro.core.ga", "FeatureSelectionProblem",
     "evaluate_mask"),
    ("core.random_baseline.partitions", "repro.core.random_baseline",
     None, "random_partition"),
)


#: Counters reported per op, under their own names.
COUNT_METRICS: Tuple[str, ...] = (
    "codelets.model_runs", "isa.compile_calls", "machine.cache_model_calls",
    "core.linkage_calls", "core.elbow_calls", "core.ga.fitness_calls",
    "core.ga.fitness_evals", "core.random_baseline.partitions",
    "machine.sim_calls", "machine.sim_accesses")


def _stream_nbytes(trace) -> int:
    return int(trace.addresses.nbytes + trace.sizes.nbytes
               + trace.stores.nbytes)


# Result observers: counts derived from what a layer returned.
RESULT_COUNTS: Dict[str, Callable[[object], Dict[str, float]]] = {
    "machine.sim": lambda profile: {
        "machine.sim_accesses": float(profile.accesses)},
    "machine.sim_compile": lambda trace: {
        "machine.sim_stream_bytes": float(_stream_nbytes(trace))},
}


# Delta probes: (counter name, probe) read before and after each call;
# the difference is added to the counter.  The lowering memo's own
# counters are process-wide and reset by ``clear_lowering_memo``, so
# they are read around each call rather than per run.
DELTA_COUNTS: Dict[str, Tuple[str, Callable[[], int]]] = {
    "isa.compile": ("isa.lowering_memo_hits",
                    lambda: lowering_memo_stats()["hits"]),
}


class LayerTracer:
    """Records spans and counts for every wrapped layer call."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.op = -1
        #: Wrappers record only while this is set (during timed ops),
        #: so set-up and output checks leave no spans or counts.
        self.recording = False
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def span(self, name: str, fn: Callable,
             site_counter: Optional[str] = None) -> Callable:
        observe = RESULT_COUNTS.get(name)
        delta_name, probe = DELTA_COUNTS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            self.counts[name + "_calls"] += 1
            if site_counter is not None:
                self.counts[site_counter] += 1
            before = probe() if probe is not None else 0
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent,
                                         self.op)
            if probe is not None:
                self.counts[delta_name] += probe() - before
            if observe is not None:
                self.counts.update(observe(result))
            return result
        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.recording:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr: str, wrapped: Callable) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        for name, module, attr, site_counter in SPAN_SITES:
            owner = importlib.import_module(module)
            self._patch(owner, attr, self.span(
                name, getattr(owner, attr), site_counter))
        for name, module, cls, attr in COUNT_SITES:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            self._patch(owner, attr, self.counter(name,
                                                  getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- summary --------------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        """Total self time per span name."""
        totals: Dict[str, float] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def layer_total_s(self, name: str) -> float:
        """Total inclusive time of the spans named ``name``."""
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def root_s(self) -> float:
        """Time covered by root spans (what ``other_s`` excludes)."""
        return sum(s.end - s.start for s in self.spans if s.parent < 0)

    def to_json(self) -> dict:
        return {"spans": [[s.name, s.start, s.end, s.parent, s.op]
                          for s in self.spans],
                "counts": dict(self.counts)}
