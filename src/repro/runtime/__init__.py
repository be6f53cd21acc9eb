"""Cache-backed, fault-tolerant runtime for the pipeline.

Steps B (per-codelet profiling on the reference machine) and E
(per-codelet benchmarking on each target) run serially in the calling
process, and profiling is a pure function of (codelet source,
architecture, measurer config).  This package supplies the machinery
around those two stages:

* :mod:`~repro.runtime.cache` — a content-addressed on-disk
  :class:`DiskCache` with hit/miss accounting, per-entry payload
  checksums and corruption recovery;
* :mod:`~repro.runtime.fingerprint` — stable content fingerprints of
  codelets, architectures and measurer configurations for cache keys;
* :mod:`~repro.runtime.faults` — deterministic, replayable fault
  injection (:class:`FaultPlan`) keyed like the measurement noise
  model;
* :mod:`~repro.runtime.resilience` — :class:`ResilientExecutor`
  (per-task retries, exponential backoff, wall-clock budgets, circuit
  breakers) and the structured :class:`RunHealth` report;
* :mod:`~repro.runtime.config` — :class:`RuntimeConfig`, the knob bundle
  wired through :class:`repro.core.pipeline.SubsettingConfig` and the
  CLI (``--cache-dir``, ``--retries``, ``--task-timeout``,
  ``--fault-plan``, ``--strict``).

This package deliberately depends only on :mod:`repro.ir` and
:mod:`repro.machine`; the codelet and core layers import *it*.
"""

from .cache import CACHE_FORMAT, CacheStats, DiskCache, content_key
from .config import RuntimeConfig
from .faults import (FAULT_KINDS, FAULT_STAGES, CorruptResult,
                     FaultPlan, FaultRule, InjectedCrash,
                     InjectedFault, InjectedTimeout, crash_plan)
from .fingerprint import (architecture_fingerprint, codelet_fingerprint,
                          kernel_fingerprint, measurer_fingerprint,
                          profile_cache_key)
from .resilience import (QUARANTINED, ResilientExecutor, RetryPolicy,
                         RunHealth, TaskHealth)

__all__ = [
    "DiskCache", "CacheStats", "CACHE_FORMAT", "content_key",
    "RuntimeConfig",
    "FaultPlan", "FaultRule", "FAULT_KINDS", "FAULT_STAGES",
    "InjectedFault", "InjectedCrash", "InjectedTimeout",
    "CorruptResult", "crash_plan",
    "ResilientExecutor", "RetryPolicy", "RunHealth", "TaskHealth",
    "QUARANTINED",
    "kernel_fingerprint", "codelet_fingerprint",
    "architecture_fingerprint", "measurer_fingerprint",
    "profile_cache_key",
]
