"""Runtime knobs: the profile cache and resilience.

:class:`RuntimeConfig` is carried by
:class:`repro.core.pipeline.SubsettingConfig` and surfaced on the CLI as
``--cache-dir`` plus the resilience flags
``--retries`` / ``--task-timeout`` / ``--fault-plan`` / ``--strict``.
The defaults (no cache, two retries, no faults) reproduce the
historical results exactly: with no faults to recover from, the
resilient path computes bit-identical values to the plain one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cache import DiskCache
from .faults import FaultPlan
from .resilience import ResilientExecutor, RetryPolicy, RunHealth


@dataclass(frozen=True)
class RuntimeConfig:
    """How the Step B and Step E pipeline stages execute.

    Attributes
    ----------
    cache_dir:
        Directory of the content-addressed profile cache; ``None``
        disables caching entirely.
    retries:
        Extra attempts per failed task before its circuit breaker
        quarantines it (the CLI's ``--retries``; 0 restores the
        historical fail-fast behaviour).
    backoff_s:
        Base of the exponential backoff between retry rounds; 0 (the
        default) never sleeps.
    task_timeout_s:
        Per-attempt wall-clock budget (``--task-timeout``); ``None``
        means unbounded.
    fault_plan:
        Deterministic fault injection (``--fault-plan``); ``None`` in
        production.
    strict:
        Escalate graceful degradation (quarantines, cache poisoning,
        destroyed clusters) into a non-zero CLI exit instead of a
        health-report footnote.
    """

    cache_dir: Optional[str] = None
    retries: int = 2
    backoff_s: float = 0.0
    task_timeout_s: Optional[float] = None
    fault_plan: Optional[FaultPlan] = None
    strict: bool = False

    def make_cache(self, obs=None) -> Optional[DiskCache]:
        """The profile cache, or ``None`` when caching is off.

        ``obs`` (an :class:`repro.obs.Observation`) mirrors the cache
        accounting into the run's ``cache.*`` metrics.
        """
        if self.cache_dir:
            return DiskCache(self.cache_dir, obs=obs)
        return None

    @property
    def resilience_active(self) -> bool:
        """Whether pipeline stages should run through the resilient
        executor.  ``--retries 0`` with no fault plan and no timeout
        restores the historical fail-fast code path exactly."""
        return (self.retries > 0 or self.fault_plan is not None
                or self.task_timeout_s is not None)

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(retries=self.retries,
                           backoff_s=self.backoff_s,
                           timeout_s=self.task_timeout_s)

    def make_resilience(self, health: Optional[RunHealth] = None,
                        obs=None) -> Optional[ResilientExecutor]:
        """A run-scoped resilient executor, or ``None`` when inactive.

        One instance must span the whole pipeline run so the per-task
        circuit breaker carries quarantine decisions across stages.
        ``obs`` (an :class:`repro.obs.Observation`) turns retry rounds
        into trace spans and failure handling into ``resilience.*``
        metrics.
        """
        if not self.resilience_active:
            return None
        return ResilientExecutor(policy=self.retry_policy(),
                                 fault_plan=self.fault_plan,
                                 health=health, obs=obs)
