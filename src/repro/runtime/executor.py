"""Execution backends for the embarrassingly parallel pipeline stages.

The reduction pipeline is batch-parallel at two points: per-codelet
profiling on the reference machine (Step B) and per-codelet target
measurement (Step E).  An :class:`Executor` abstracts *how* such a batch
runs — in the calling process or fanned out over a process pool — while
guaranteeing that results come back **in input order**, so downstream
consumers (feature matrices, cluster labels, reports) are independent of
scheduling.

Determinism: the machine model is analytical and the noise model is
keyed by (seed, codelet, architecture, run) — see
:mod:`repro.machine.noise` — so a worker process computes bit-identical
values to the parent.  Parallel execution therefore changes wall-clock
time only, never results.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, List, Optional


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0``/negative = all cores."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return int(jobs)


class Executor(ABC):
    """An order-preserving ``map`` over a batch of independent tasks."""

    #: Worker count; 1 means the batch runs in the calling process.
    jobs: int = 1

    @abstractmethod
    def map(self, fn: Callable[[Any], Any],
            items: Iterable[Any]) -> List[Any]:
        """Apply ``fn`` to every item, returning results in input order."""

    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class SerialExecutor(Executor):
    """Run the batch inline — the reference semantics every other
    executor must reproduce bit-for-bit."""

    jobs = 1

    def map(self, fn: Callable[[Any], Any],
            items: Iterable[Any]) -> List[Any]:
        return [fn(item) for item in items]


class ProcessExecutor(Executor):
    """:class:`concurrent.futures.ProcessPoolExecutor`-backed fan-out.

    The pool is created lazily on the first :meth:`map`, so constructing
    (and immediately closing) one costs nothing.  ``fn`` and every item
    must be picklable; ``pool.map`` preserves submission order.

    ``jobs`` is re-validated and re-resolved on **every** :meth:`map`,
    not just at construction: a config mutated after build (e.g. a
    test fixture or service handler writing ``executor.jobs = 0``)
    re-sizes the pool on the next batch instead of silently running
    with a stale worker count.
    """

    def __init__(self, jobs: Optional[int] = None):
        self.jobs = resolve_jobs(self._validate_jobs(jobs))
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers = 0

    @staticmethod
    def _validate_jobs(jobs: Optional[int]) -> Optional[int]:
        if jobs is not None and not isinstance(jobs, int):
            raise TypeError(
                f"jobs must be an int or None, got {type(jobs).__name__}"
                f" ({jobs!r})")
        return jobs

    def map(self, fn: Callable[[Any], Any],
            items: Iterable[Any]) -> List[Any]:
        items = list(items)
        if not items:
            return []
        # Map-time re-validation: pick up (and sanity-check) any
        # mutation of ``jobs`` since the last batch.
        self.jobs = resolve_jobs(self._validate_jobs(self.jobs))
        if self._pool is not None and self._pool_workers != self.jobs:
            self.close()
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            self._pool_workers = self.jobs
        chunksize = max(1, len(items) // (self.jobs * 4))
        try:
            return list(self._pool.map(fn, items, chunksize=chunksize))
        except BaseException:
            # A task raising mid-map must not leak live workers: tear
            # the pool down (cancelling queued work) before re-raising.
            # The next map() lazily builds a fresh pool.
            self.close(cancel_pending=True)
            raise

    def close(self, cancel_pending: bool = False) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True,
                                cancel_futures=cancel_pending)
            self._pool = None
            self._pool_workers = 0


def make_executor(jobs: Optional[int] = 1) -> Executor:
    """Executor for a ``--jobs`` value: 1 = serial, else a process pool
    (0 or ``None`` meaning one worker per core)."""
    if jobs == 1:
        return SerialExecutor()
    return ProcessExecutor(jobs)
