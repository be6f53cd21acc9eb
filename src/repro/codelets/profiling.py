"""Step B: static + dynamic profiling on the reference architecture.

Every detected codelet is compiled and statically analysed (MAQAO role)
and probed in-app for dynamic metrics (Likwid role) on the reference
machine.  Codelets whose total in-app execution is under one million
reference cycles are discarded as unmeasurable, as in Section 3.2.

Profiling one codelet is independent of every other codelet and a pure
function of (codelet source, architecture, measurer configuration), so
:func:`profile_codelets` can reuse results from a content-addressed
:class:`~repro.runtime.cache.DiskCache`.  A cached run is bit-identical
to the cold path: the machine model is deterministic, measurement noise
is keyed (not stateful), and the report always preserves input order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.static_metrics import StaticProfile, analyze_static
from ..isa.compiler import compile_kernel
from ..machine.architecture import Architecture, REFERENCE
from ..machine.counters import DynamicMetrics
from ..machine.platform import default_options
from ..obs import Observation
from ..runtime.cache import DiskCache, content_key
from ..runtime.fingerprint import profile_cache_key
from ..runtime.resilience import QUARANTINED, ResilientExecutor
from .codelet import Codelet
from .measurement import Measurer

#: Section 3.2 measurability threshold (total cycles in the app run).
MIN_TOTAL_CYCLES = 1e6


@dataclass(frozen=True)
class CodeletProfile:
    """Everything Step B knows about one codelet."""

    codelet: Codelet
    static: StaticProfile
    dynamic: DynamicMetrics
    ref_seconds: float          # measured per-invocation time (with noise)
    ref_cycles: float           # true cycles per invocation

    @property
    def name(self) -> str:
        return self.codelet.name

    @property
    def app(self) -> str:
        return self.codelet.app

    @property
    def total_ref_seconds(self) -> float:
        """Time this codelet contributes to one full app run."""
        return self.ref_seconds * self.codelet.invocations


@dataclass(frozen=True)
class ProfilingReport:
    """Profiles kept, plus codelets discarded by the 1M-cycle filter
    and codelets quarantined by the resilient executor (every profiling
    attempt failed; see :mod:`repro.runtime.resilience`)."""

    profiles: Tuple[CodeletProfile, ...]
    discarded: Tuple[Tuple[str, float], ...]    # (name, total cycles)
    quarantined: Tuple[str, ...] = ()           # dropped after retries

    def profile(self, name: str) -> CodeletProfile:
        index = self.__dict__.get("_profile_index")
        if index is None:
            index = {p.name: p for p in self.profiles}
            object.__setattr__(self, "_profile_index", index)
        try:
            return index[name]
        except KeyError:
            raise KeyError(name) from None


@dataclass(frozen=True)
class ProfileOutcome:
    """The cacheable result of profiling one codelet.

    This is what lives in the on-disk cache: everything Step B computed
    *except* the codelet object itself, which the caller already holds
    — :meth:`attach` reunites them, so cached runs keep the caller's
    object identities.
    A discarded codelet is an outcome too (``kept=False``), so the
    1M-cycle filter decision is itself cached.
    """

    name: str
    total_cycles: float
    kept: bool
    static: Optional[StaticProfile] = None
    dynamic: Optional[DynamicMetrics] = None
    ref_seconds: Optional[float] = None
    ref_cycles: Optional[float] = None

    def attach(self, codelet: Codelet) -> CodeletProfile:
        if not self.kept:
            raise ValueError(f"codelet {self.name!r} was discarded")
        return CodeletProfile(
            codelet=codelet,
            static=self.static,
            dynamic=self.dynamic,
            ref_seconds=self.ref_seconds,
            ref_cycles=self.ref_cycles,
        )


def profile_codelet(codelet: Codelet, measurer: Measurer,
                    arch: Architecture = REFERENCE,
                    run_id: int = 0) -> CodeletProfile:
    """Static + dynamic profile of one codelet on ``arch``."""
    compiled = compile_kernel(codelet.kernel, default_options(arch))
    static = analyze_static(compiled, arch)
    dynamic = measurer.inapp_metrics(codelet, arch)
    return CodeletProfile(
        codelet=codelet,
        static=static,
        dynamic=dynamic,
        ref_seconds=measurer.measure_inapp(codelet, arch, run_id),
        ref_cycles=measurer.reference_cycles(codelet, arch),
    )


def profile_outcome(codelet: Codelet, measurer: Measurer,
                    arch: Architecture = REFERENCE,
                    min_total_cycles: float = MIN_TOTAL_CYCLES,
                    run_id: int = 0) -> ProfileOutcome:
    """Profile one codelet, including the measurability decision."""
    total_cycles = (measurer.reference_cycles(codelet, arch)
                    * codelet.invocations)
    if total_cycles < min_total_cycles:
        return ProfileOutcome(codelet.name, total_cycles, kept=False)
    profile = profile_codelet(codelet, measurer, arch, run_id)
    return ProfileOutcome(
        name=codelet.name,
        total_cycles=total_cycles,
        kept=True,
        static=profile.static,
        dynamic=profile.dynamic,
        ref_seconds=profile.ref_seconds,
        ref_cycles=profile.ref_cycles,
    )


def profile_codelets(codelets: Sequence[Codelet], measurer: Measurer,
                     arch: Architecture = REFERENCE,
                     min_total_cycles: float = MIN_TOTAL_CYCLES,
                     run_id: int = 0,
                     cache: Optional[DiskCache] = None,
                     resilience: Optional[ResilientExecutor] = None,
                     obs: Optional[Observation] = None
                     ) -> ProfilingReport:
    """Profile a codelet set, applying the measurability filter.

    Uncached codelets are profiled in order with the caller's
    memoizing measurer; ``cache`` short-circuits codelets whose
    content-addressed key is already on disk.  With ``resilience``,
    failed profiling tasks are retried and — once quarantined —
    dropped from the report with a diagnostic instead of aborting the
    batch.  The report lists profiles in input order regardless, and a
    failure-free resilient run is bit-identical to the plain path.
    """
    codelets = list(codelets)
    if obs is None:
        obs = Observation()
    outcomes: Dict[int, ProfileOutcome] = {}
    keys: Dict[int, str] = {}
    pending: List[int] = []
    quarantined: List[str] = []
    plan = resilience.fault_plan if resilience is not None else None

    for i, codelet in enumerate(codelets):
        if cache is not None:
            keys[i] = content_key(profile_cache_key(
                codelet, arch, measurer, min_total_cycles, run_id))
            # Deliberately hit/miss-agnostic, so cold and warm runs of
            # the same suite produce the same span tree (the hit/miss
            # split lives in the cache.* metrics instead).
            obs.event(f"cache-lookup:{codelet.name}",
                      key=keys[i][:12])
            hit = cache.get(keys[i])
            if isinstance(hit, ProfileOutcome) and hit.name == codelet.name:
                outcomes[i] = hit
                continue
        pending.append(i)

    obs.metrics.counter("tasks.profile").inc(len(pending))
    if pending:
        def task(i):
            return profile_outcome(codelets[i], measurer, arch,
                                   min_total_cycles, run_id)
        if resilience is None:
            computed = [task(i) for i in pending]
        else:
            computed = resilience.map_tasks(
                task, pending, keys=[codelets[i].name for i in pending],
                stage="profile", arch=arch.name)
        for i, outcome in zip(pending, computed):
            if outcome is QUARANTINED:
                quarantined.append(codelets[i].name)
                continue
            outcomes[i] = outcome
            if cache is not None:
                poison = (plan is not None and plan.poisons_cache(
                    codelets[i].name, arch.name))
                cache.put(keys[i], outcome, corrupt=poison)

    kept: List[CodeletProfile] = []
    discarded: List[Tuple[str, float]] = []
    for i, codelet in enumerate(codelets):
        if i not in outcomes:
            obs.event(f"profile:{codelet.name}", quarantined=True)
            continue
        outcome = outcomes[i]
        if outcome.kept:
            total_s = outcome.ref_seconds * codelet.invocations
            obs.event(f"profile:{codelet.name}", kept=True,
                      model_s=total_s)
            obs.metrics.counter("model_seconds.profile").inc(total_s)
            kept.append(outcome.attach(codelet))
        else:
            obs.event(f"profile:{codelet.name}", kept=False,
                      total_cycles=outcome.total_cycles)
            discarded.append((codelet.name, outcome.total_cycles))
    return ProfilingReport(tuple(kept), tuple(discarded),
                           tuple(quarantined))
