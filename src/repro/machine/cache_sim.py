"""Trace-driven set-associative cache simulator (the reference path).

The analytical model (:mod:`repro.machine.cache_model`) is the default
backend because the experiment sweeps are large; this simulator is the
ground truth it is validated against (see ``tests/machine/``) and an
alternative backend for small kernels.  It executes the *actual* address
stream of a kernel invocation through an inclusive LRU hierarchy.

Two implementations exist (docs/PERFORMANCE.md):

* :func:`simulate_cache_reference` (this module) interprets the
  statement tree access by access — simple, obviously correct, slow;
* :func:`repro.machine.cache_sim_vec.simulate_cache_fast` compiles the
  affine loop nests into numpy address streams and runs a batched
  per-set LRU — proven bit-identical by the ``cache-sim-equivalence``
  verify invariant and ``tests/machine/test_cache_sim_equiv.py``.

:func:`simulate_cache` is the entry point the platform uses; it runs the
fast path.

Simulation semantics — shared by both paths, pinned by the equivalence
suite:

* a trace entry is ``(byte_address, size_bytes, is_store)``: one
  element access of a load or store site;
* an access is split into *units* at the finest line granularity of the
  hierarchy (``min(level.line_bytes)``), so an element that straddles a
  line boundary probes every line it touches — one unit per touched
  line;
* each unit walks the hierarchy top-down and stops at the first hit;
  every level indexes with its **own** ``line_bytes``;
* per-level traffic is accounted in that level's lines
  (``bytes_in = misses * level.line_bytes``); DRAM traffic is counted
  in last-level lines.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..ir.kernel import Kernel
from ..ir.stmt import Block, Loop, Store
from .architecture import Architecture
from .cache_model import CacheProfile, LevelStats

#: Trace entry: (byte address, access size in bytes, is_store).
TraceEntry = Tuple[int, int, bool]


def _layout_arrays(kernel: Kernel, align: int = 4096) -> Dict[str, int]:
    """Assign page-aligned base addresses to the kernel's arrays."""
    bases: Dict[str, int] = {}
    cursor = align
    for arr in kernel.arrays:
        bases[arr.name] = cursor
        cursor += ((arr.nbytes + align - 1) // align) * align + align
    return bases


def generate_trace(kernel: Kernel,
                   max_accesses: Optional[int] = None
                   ) -> Iterator[TraceEntry]:
    """Yield ``(byte_address, size_bytes, is_store)`` in execution order.

    Duplicate loads within one statement body execution are dropped, the
    way register reuse drops them in compiled code; the dedup key is the
    load's *structure* — array name plus affine index expressions — so
    two separately-built but structurally identical loads collapse.
    ``max_accesses`` truncates the trace to a strict prefix (for bounded
    validation runs).
    """
    bases = _layout_arrays(kernel)
    strides = {a.name: a.strides_elems() for a in kernel.arrays}
    sizes = {a.name: a.dtype.size for a in kernel.arrays}
    emitted = 0
    budget = max_accesses if max_accesses is not None else float("inf")

    def address(name: str, indices, env) -> int:
        offset = 0
        for d, idx in enumerate(indices):
            offset += idx.evaluate(env) * strides[name][d]
        return bases[name] + offset * sizes[name]

    def walk(stmt, env) -> Iterator[TraceEntry]:
        nonlocal emitted
        if emitted >= budget:
            return
        if isinstance(stmt, Loop):
            lo = int(stmt.lower.evaluate(env))
            hi = int(stmt.upper.evaluate(env))
            name = stmt.var.name
            for v in range(lo, hi):
                if emitted >= budget:
                    return
                env[name] = v
                for child in stmt.body:
                    yield from walk(child, env)
            env.pop(name, None)
        elif isinstance(stmt, Store):
            seen = set()
            for load in stmt.loads():
                key = (load.array.name, load.indices)
                if key in seen:
                    continue
                seen.add(key)
                if emitted >= budget:
                    return
                emitted += 1
                yield (address(load.array.name, load.indices, env),
                       sizes[load.array.name], False)
            if emitted >= budget:
                return
            emitted += 1
            yield (address(stmt.array.name, stmt.indices, env),
                   sizes[stmt.array.name], True)
        elif isinstance(stmt, Block):
            for child in stmt:
                yield from walk(child, env)

    for top in kernel.body:
        yield from walk(top, {})


class SetAssociativeCache:
    """One LRU set-associative cache level."""

    def __init__(self, size_bytes: int, line_bytes: int, assoc: int):
        self.line_bytes = line_bytes
        self.assoc = assoc
        self.nsets = max(1, size_bytes // (line_bytes * assoc))
        # Each set is an ordered dict-like list of line tags (MRU last).
        self._sets: List[Dict[int, None]] = [dict() for _ in range(self.nsets)]
        self.hits = 0
        self.misses = 0

    def access(self, line_addr: int) -> bool:
        """Touch a line; returns True on hit."""
        s = self._sets[line_addr % self.nsets]
        if line_addr in s:
            del s[line_addr]        # re-insert as MRU
            s[line_addr] = None
            self.hits += 1
            return True
        if len(s) >= self.assoc:
            # Evict LRU (first inserted).
            s.pop(next(iter(s)))
        s[line_addr] = None
        self.misses += 1
        return False

    def warm_reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0


class HierarchySim:
    """An inclusive multi-level cache hierarchy."""

    def __init__(self, arch: Architecture):
        self.arch = arch
        self.levels = [SetAssociativeCache(c.size_bytes, c.line_bytes,
                                           c.assoc) for c in arch.caches]
        # Accesses split into units at the finest line granularity of
        # the hierarchy: a unit lies within one line at *every* level
        # (line sizes are line-granularity multiples in practice), so
        # straddling accesses probe each line they touch.
        self.unit_bytes = min(c.line_bytes for c in arch.caches)
        self.accesses = 0
        self.mem_accesses = 0
        self.store_mem_misses = 0

    def access(self, addr: int, size: int, is_store: bool) -> None:
        unit = self.unit_bytes
        first = addr // unit
        last = (addr + max(1, size) - 1) // unit
        for u in range(first, last + 1):
            self.accesses += 1
            byte = u * unit
            for level in self.levels:
                # Index with each level's own line size.
                if level.access(byte // level.line_bytes):
                    break
            else:
                self.mem_accesses += 1
                if is_store:
                    self.store_mem_misses += 1

    def reset_counters(self) -> None:
        for level in self.levels:
            level.warm_reset_counters()
        self.accesses = 0
        self.mem_accesses = 0
        self.store_mem_misses = 0

    def profile(self) -> CacheProfile:
        stats: List[LevelStats] = []
        for cache, spec in zip(self.levels, self.arch.caches):
            stats.append(LevelStats(
                name=spec.name,
                hits=float(cache.hits),
                misses=float(cache.misses),
                bytes_in=float(cache.misses * spec.line_bytes),
            ))
        llc_line = self.arch.caches[-1].line_bytes
        return CacheProfile(
            accesses=float(self.accesses),
            levels=tuple(stats),
            mem_accesses=float(self.mem_accesses),
            mem_bytes=float(self.mem_accesses * llc_line),
            writeback_bytes=float(self.store_mem_misses * llc_line),
        )


def simulate_cache_reference(kernel: Kernel, arch: Architecture,
                             warmup_invocations: int = 1,
                             max_accesses_per_invocation: Optional[int]
                             = None) -> CacheProfile:
    """Run one measured invocation through the interpreting simulator.

    ``warmup_invocations`` prior invocations populate the hierarchy, so
    the measured pass reflects the steady state the analytical model's
    ``warm=True`` assumes.
    """
    sim = HierarchySim(arch)
    for _ in range(warmup_invocations):
        for addr, size, is_store in generate_trace(
                kernel, max_accesses_per_invocation):
            sim.access(addr, size, is_store)
    sim.reset_counters()
    for addr, size, is_store in generate_trace(kernel,
                                               max_accesses_per_invocation):
        sim.access(addr, size, is_store)
    return sim.profile()


def simulate_cache(kernel: Kernel, arch: Architecture,
                   warmup_invocations: int = 1,
                   max_accesses_per_invocation: Optional[int] = None,
                   batch_skew: bool = False) -> CacheProfile:
    """Simulate one measured invocation of ``kernel`` on ``arch``.

    Runs the vectorized path (address-stream compilation + batched LRU,
    bit-identical to :func:`simulate_cache_reference`).  ``batch_skew``
    exists only for the ``sim-batch-skew`` planted defect of the verify
    harness and must stay False in production.

    Emits the ``sim.accesses`` obs counter (measured trace length) into
    the active observation.
    """
    from .cache_sim_vec import simulate_cache_fast
    profile = simulate_cache_fast(
        kernel, arch, warmup_invocations=warmup_invocations,
        max_accesses_per_invocation=max_accesses_per_invocation,
        batch_skew=batch_skew)

    from ..obs import active_observation
    obs = active_observation()
    if obs is not None:
        obs.metrics.counter("sim.accesses").inc(int(profile.accesses))
    return profile
