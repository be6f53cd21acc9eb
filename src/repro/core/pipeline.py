"""End-to-end benchmark reduction pipeline (Steps A-E, Figure 1).

:class:`BenchmarkReducer` wires the whole method together:

* **Step A** — detect codelets (:mod:`repro.codelets.finder`);
* **Step B** — profile them on the reference machine
  (:mod:`repro.codelets.profiling`), once, whatever K is later used;
* **Step C** — normalise features, Ward-cluster, cut at a fixed K or the
  elbow K (:mod:`repro.core.clustering`);
* **Step D** — select well-behaved representatives
  (:mod:`repro.core.representatives`);
* **Step E** — benchmark representatives on a target and extrapolate
  (:func:`evaluate_on_target`).

Profiling is cached on the reducer, so sweeping K (Figure 3) or
evaluating several targets re-uses Steps A-B.  Steps B and E run
serially in the calling process.  The
:class:`~repro.runtime.config.RuntimeConfig` carried by
:class:`SubsettingConfig` can persist per-codelet profiling outcomes in
a content-addressed on-disk cache (``cache_dir``), with results
guaranteed bit-identical to a cold run (see :mod:`repro.runtime`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from ..codelets.codelet import BenchmarkSuite
from ..codelets.finder import find_suite_codelets
from ..codelets.measurement import Measurer
from ..codelets.profiling import (MIN_TOTAL_CYCLES, CodeletProfile,
                                  ProfilingReport, profile_codelets)
from ..machine.architecture import Architecture, REFERENCE
from ..obs import Observation, active_observation
from ..runtime.cache import CacheStats
from ..runtime.config import RuntimeConfig
from ..runtime.resilience import (QUARANTINED, ResilientExecutor,
                                  RunHealth)
from .clustering import Dendrogram, elbow_k, ward_linkage
from .features import TABLE2_FEATURES, FeatureMatrix
from .prediction import (ApplicationPrediction, ClusterModel,
                         CodeletPrediction, aggregate_application,
                         average_error, build_cluster_model, median_error)
from .reduction import ReductionBreakdown, reduction_breakdown
from .representatives import (ILL_BEHAVED_TOLERANCE, SelectionResult,
                              select_representatives)


@dataclass(frozen=True)
class SubsettingConfig:
    """Pipeline knobs, defaulting to the paper's choices.

    ``normalize_features`` exists for the verification harness
    (:mod:`repro.verify`): switching it off clusters on raw feature
    values, a deliberate defect whose detection the feature-scaling
    invariant is responsible for.  Production runs never change it.
    """

    feature_names: Tuple[str, ...] = TABLE2_FEATURES
    elbow_k_max: int = 24               # the paper sweeps K up to 24
    tolerance: float = ILL_BEHAVED_TOLERANCE
    min_total_cycles: float = MIN_TOTAL_CYCLES
    reference: Architecture = REFERENCE
    runtime: RuntimeConfig = RuntimeConfig()
    normalize_features: bool = True


@dataclass(frozen=True)
class PipelineHooks:
    """Optional per-stage observers over the reduction pipeline.

    Each callback fires once per computed artifact (memoized stages fire
    on first computation only), letting callers — chiefly the
    :mod:`repro.verify` harness — capture exactly the intermediates the
    pipeline acted on, instead of recomputing approximations of them.
    """

    on_profiling: Optional[Callable[[ProfilingReport], None]] = None
    on_cluster_rows: Optional[
        Callable[[FeatureMatrix, np.ndarray], None]] = None
    on_dendrogram: Optional[Callable[[Dendrogram], None]] = None
    on_reduced: Optional[Callable[["ReducedSuite"], None]] = None

    def emit(self, name: str, *args) -> None:
        declared = tuple(f.name for f in fields(self))
        if name not in declared:
            raise ValueError(
                f"unknown pipeline hook {name!r}: declared hooks are "
                f"{', '.join(declared)}")
        callback = getattr(self, name)
        if callback is not None:
            callback(*args)

    @classmethod
    def chain(cls, *hooks: Optional["PipelineHooks"]
              ) -> "PipelineHooks":
        """Compose hook sets: each callback fires every non-``None``
        member, in argument order.  ``None`` entries are skipped, and a
        hook field nobody observes stays ``None`` (so memoized stages
        keep their fire-once semantics unchanged)."""
        present = [h for h in hooks if h is not None]

        def fan_out(name: str):
            callbacks = [getattr(h, name) for h in present
                         if getattr(h, name) is not None]
            if not callbacks:
                return None
            if len(callbacks) == 1:
                return callbacks[0]

            def fire(*args):
                for callback in callbacks:
                    callback(*args)
            return fire

        return cls(**{f.name: fan_out(f.name) for f in fields(cls)})


@dataclass(frozen=True)
class ReducedSuite:
    """Result of Steps A-D: a reduced benchmark ready for any target."""

    suite: BenchmarkSuite
    profiles: Tuple[CodeletProfile, ...]
    discarded: Tuple[Tuple[str, float], ...]
    features: FeatureMatrix
    normalized_rows: np.ndarray
    dendrogram: Dendrogram
    requested_k: Union[int, str]
    elbow: int
    labels: np.ndarray
    selection: SelectionResult
    model: ClusterModel
    quarantined: Tuple[str, ...] = ()   # dropped by the resilient runtime

    @property
    def k(self) -> int:
        """Final number of clusters (after possible destructions)."""
        return self.selection.k

    @property
    def representatives(self) -> Tuple[str, ...]:
        return self.selection.representatives

    def profile(self, name: str) -> CodeletProfile:
        # The index lives in __dict__ (not a field) so it is built once
        # per instance without affecting equality or the frozen API.
        index = self.__dict__.get("_profile_index")
        if index is None:
            index = {p.name: p for p in self.profiles}
            object.__setattr__(self, "_profile_index", index)
        try:
            return index[name]
        except KeyError:
            raise KeyError(name) from None


def _observation_hooks(obs: Observation) -> PipelineHooks:
    """Hooks recording stage-level metrics into ``obs`` — how the
    observability subsystem rides the same :class:`PipelineHooks`
    mechanism the verify harness uses (chained, so both coexist)."""
    metrics = obs.metrics

    def on_profiling(report: ProfilingReport) -> None:
        metrics.gauge("profiles.kept").set(len(report.profiles))
        metrics.gauge("profiles.discarded").set(len(report.discarded))
        metrics.gauge("profiles.quarantined").set(
            len(report.quarantined))
        for profile in report.profiles:
            metrics.histogram("profile.total_ref_seconds").observe(
                profile.total_ref_seconds)

    def on_cluster_rows(features: FeatureMatrix, rows) -> None:
        metrics.gauge("features.count").set(len(features.feature_names))

    def on_reduced(reduced: "ReducedSuite") -> None:
        metrics.gauge("cluster.count").set(reduced.k)
        metrics.gauge("cluster.destroyed").set(
            reduced.selection.destroyed_clusters)
        metrics.gauge("elbow.k").set(reduced.elbow)
        metrics.gauge("ill_behaved.count").set(
            len(reduced.selection.ill_behaved))
        for members in reduced.selection.clusters:
            metrics.histogram("cluster.size").observe(len(members))

    return PipelineHooks(on_profiling=on_profiling,
                         on_cluster_rows=on_cluster_rows,
                         on_reduced=on_reduced)


class BenchmarkReducer:
    """Runs the benchmark reduction method over a suite."""

    def __init__(self, suite: BenchmarkSuite,
                 measurer: Optional[Measurer] = None,
                 config: SubsettingConfig = SubsettingConfig(),
                 hooks: Optional[PipelineHooks] = None,
                 obs: Optional[Observation] = None):
        self.suite = suite
        self.measurer = measurer if measurer is not None else Measurer()
        self.config = config
        #: Run-scoped observability (span tree + metrics).  Falls back
        #: to the CLI-activated observation, else a private one, so
        #: recording is always safe and never global by accident.
        if obs is None:
            obs = active_observation()
        self.obs = obs if obs is not None else Observation()
        self.hooks = PipelineHooks.chain(hooks,
                                         _observation_hooks(self.obs))
        self._cache = config.runtime.make_cache(obs=self.obs)
        self.health = RunHealth()
        #: Run-scoped resilient executor (``None`` when ``--retries 0``
        #: and no fault plan restore the fail-fast path); one instance
        #: spans all stages so quarantines carry across them.
        self.resilience = config.runtime.make_resilience(self.health,
                                                         obs=self.obs)
        self._report: Optional[ProfilingReport] = None
        self._features: Optional[FeatureMatrix] = None
        self._normalized: Optional[np.ndarray] = None
        self._dendrogram: Optional[Dendrogram] = None

    @property
    def cache_stats(self) -> Optional[CacheStats]:
        """Profile-cache accounting, or ``None`` when caching is off."""
        return self._cache.stats if self._cache is not None else None

    # -- Steps A + B ----------------------------------------------------------

    def profiling(self) -> ProfilingReport:
        """Detect and profile codelets (cached in memory and, when the
        runtime config names a cache directory, on disk)."""
        if self._report is None:
            with self.obs.span("stage:profile",
                               suite=self.suite.name) as span:
                codelets = find_suite_codelets(self.suite)
                span.set("codelets", len(codelets))
                self._report = profile_codelets(
                    codelets, self.measurer, self.config.reference,
                    self.config.min_total_cycles, cache=self._cache,
                    resilience=self.resilience, obs=self.obs)
                span.set("kept", len(self._report.profiles))
            for name in self._report.quarantined:
                self.health.degrade(
                    f"step B: codelet {name!r} dropped — every "
                    "profiling attempt failed")
            if self._cache is not None:
                self.health.note_cache(self._cache.stats)
            self.hooks.emit("on_profiling", self._report)
        return self._report

    # -- Step C ---------------------------------------------------------------

    def feature_matrix(self) -> FeatureMatrix:
        if self._features is None:
            report = self.profiling()
            if not report.profiles:
                raise ValueError(
                    f"suite {self.suite.name!r} has no measurable "
                    f"codelets left to cluster: "
                    f"{len(report.discarded)} discarded by the "
                    f"{self.config.min_total_cycles:g}-cycle filter, "
                    f"{len(report.quarantined)} quarantined by the "
                    "resilient runtime")
            with self.obs.span("stage:features"):
                self._features = FeatureMatrix.from_profiles(
                    report.profiles, self.config.feature_names)
                if self.config.normalize_features:
                    self._normalized = self._features.normalized()
                else:
                    self._normalized = np.array(self._features.values,
                                                dtype=float)
            self.hooks.emit("on_cluster_rows", self._features,
                            self._normalized)
        return self._features

    def dendrogram(self) -> Dendrogram:
        if self._dendrogram is None:
            self.feature_matrix()
            with self.obs.span("stage:cluster",
                               codelets=self._normalized.shape[0]):
                self._dendrogram = ward_linkage(self._normalized)
            self.hooks.emit("on_dendrogram", self._dendrogram)
        return self._dendrogram

    def elbow(self) -> int:
        self.feature_matrix()
        return elbow_k(self._normalized, self.dendrogram(),
                       self.config.elbow_k_max)

    # -- Steps C + D ----------------------------------------------------------

    def _probe_fidelity(self, profiles) -> set:
        """Step D pre-flight under resilience: run every codelet's
        standalone-fidelity probe through the retry/quarantine wrapper.
        A codelet whose probe is quarantined cannot be trusted as a
        representative and joins the ineligible set, flowing through
        the existing ill-behaved destruction/re-homing machinery."""
        ineligible = set()
        reference = self.config.reference
        with self.obs.span("stage:fidelity", probes=len(profiles)):
            for p in profiles:
                result = self.resilience.run(
                    lambda p=p: self.measurer.is_ill_behaved(
                        p.codelet, reference, self.config.tolerance),
                    key=p.name, stage="fidelity", arch=reference.name)
                self.obs.metrics.counter("tasks.fidelity").inc()
                self.obs.event(
                    f"fidelity:{p.name}",
                    quarantined=result is QUARANTINED,
                    ill_behaved=(result is not QUARANTINED
                                 and bool(result)))
                if result is QUARANTINED:
                    ineligible.add(p.name)
                    self.health.degrade(
                        f"step D: fidelity probe for {p.name!r} "
                        "quarantined — ineligible as representative")
        return ineligible

    def reduce(self, k: Union[int, str] = "elbow") -> ReducedSuite:
        """Cluster at ``k`` (or the elbow K) and select representatives."""
        with self.obs.span("reduce", suite=self.suite.name,
                           requested_k=str(k)) as span:
            reduced = self._reduce(k)
            span.set("final_k", reduced.k)
            span.set("elbow_k", reduced.elbow)
        return reduced

    def _reduce(self, k: Union[int, str]) -> ReducedSuite:
        report = self.profiling()
        features = self.feature_matrix()
        dendrogram = self.dendrogram()
        elbow = self.elbow()
        cut_k = elbow if k == "elbow" else int(k)
        cut_k = max(1, min(cut_k, features.n_codelets))
        labels = dendrogram.cut(cut_k)
        ineligible = (self._probe_fidelity(report.profiles)
                      if self.resilience is not None else set())
        with self.obs.span("stage:select", cut_k=cut_k) as span:
            selection = select_representatives(
                report.profiles, self._normalized, labels,
                self.measurer, self.config.reference,
                self.config.tolerance, ineligible=ineligible)
            span.set("final_k", selection.k)
            span.set("destroyed", selection.destroyed_clusters)
        if ineligible and selection.destroyed_clusters:
            self.health.degrade(
                f"step D: {selection.destroyed_clusters} cluster(s) "
                "destroyed (no trustworthy representative); members "
                "re-homed to their nearest surviving neighbours")
        model = build_cluster_model(report.profiles, selection)
        reduced = ReducedSuite(
            suite=self.suite,
            profiles=report.profiles,
            discarded=report.discarded,
            features=features,
            normalized_rows=self._normalized,
            dendrogram=dendrogram,
            requested_k=k,
            elbow=elbow,
            labels=labels,
            selection=selection,
            model=model,
            quarantined=report.quarantined,
        )
        self.hooks.emit("on_reduced", reduced)
        return reduced


# ---------------------------------------------------------------------------
# Step E: evaluation on a target architecture
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TargetEvaluation:
    """Predictions and accounting for one target architecture.

    ``degraded_representatives`` lists representatives the resilient
    runtime quarantined on this target; their clusters were re-selected
    (and possibly re-homed) before prediction, so the evaluation is
    complete but degraded.
    """

    arch_name: str
    codelets: Tuple[CodeletPrediction, ...]
    applications: Tuple[ApplicationPrediction, ...]
    reduction: ReductionBreakdown
    degraded_representatives: Tuple[str, ...] = ()

    def _require_codelets(self) -> None:
        if not self.codelets:
            raise ValueError(
                f"target evaluation on {self.arch_name!r} has no "
                "codelet predictions to aggregate — every codelet was "
                "discarded or quarantined before prediction")

    @property
    def median_error_pct(self) -> float:
        self._require_codelets()
        return median_error(self.codelets)

    @property
    def average_error_pct(self) -> float:
        self._require_codelets()
        return average_error(self.codelets)

    def application(self, name: str) -> ApplicationPrediction:
        for app in self.applications:
            if app.app == name:
                return app
        raise KeyError(name)


def evaluate_on_target(reduced: ReducedSuite, target: Architecture,
                       measurer: Measurer,
                       resilience: Optional[ResilientExecutor] = None,
                       reference: Architecture = REFERENCE,
                       tolerance: float = ILL_BEHAVED_TOLERANCE,
                       obs: Optional[Observation] = None
                       ) -> TargetEvaluation:
    """Benchmark the representatives on ``target`` and compare the
    extrapolated codelet/application times to real measurements.

    With ``resilience``, a representative whose standalone benchmark is
    quarantined (every attempt failed) does not abort the evaluation:
    it is barred and Step D reselects — possibly destroying its cluster
    and re-homing the members via the ill-behaved machinery — until
    every surviving representative measures cleanly.  ``reference`` and
    ``tolerance`` parameterise that reselection and default to the
    paper's choices.
    """
    if obs is None:
        obs = active_observation()
    if obs is None:
        obs = Observation()

    with obs.span("evaluate", target=target.name,
                  representatives=len(reduced.representatives)) as span:
        # Measure the representatives' standalone microbenchmarks.
        # Under resilience this loops: each quarantined representative
        # joins the barred set and selection re-runs until a clean set
        # emerges (or no cluster can be kept, which
        # select_representatives reports).
        selection = reduced.selection
        model = reduced.model
        rep_times: Dict[str, float] = {}
        barred: set = set()
        while True:
            failed = None
            for rep_name in selection.representatives:
                if rep_name in rep_times:
                    continue
                codelet = reduced.profile(rep_name).codelet
                obs.metrics.counter("tasks.bench").inc()
                if resilience is None:
                    timing = measurer.benchmark_standalone(
                        codelet, target)
                    rep_times[rep_name] = timing.per_invocation_s
                    obs.metrics.counter("model_seconds.bench").inc(
                        timing.total_bench_s)
                    obs.event(f"bench:{rep_name}",
                              invocations=timing.invocations,
                              model_s=timing.total_bench_s)
                    continue
                result = resilience.run(
                    lambda c=codelet: measurer.benchmark_standalone(
                        c, target),
                    key=rep_name, stage="bench", arch=target.name)
                if result is QUARANTINED:
                    obs.event(f"bench:{rep_name}", quarantined=True)
                    failed = rep_name
                    break
                rep_times[rep_name] = result.per_invocation_s
                obs.metrics.counter("model_seconds.bench").inc(
                    result.total_bench_s)
                obs.event(f"bench:{rep_name}",
                          invocations=result.invocations,
                          model_s=result.total_bench_s)
            if failed is None:
                break
            barred.add(failed)
            obs.metrics.counter("bench.reselections").inc()
            resilience.health.degrade(
                f"step E: representative {failed!r} quarantined on "
                f"{target.name}; reselecting its cluster")
            selection = select_representatives(
                reduced.profiles, reduced.normalized_rows,
                reduced.labels, measurer, reference, tolerance,
                ineligible=barred)
            model = build_cluster_model(reduced.profiles, selection)

        span.set("measured", len(rep_times))
        span.set("quarantined", len(barred))
        predicted = model.predict(
            {r: rep_times[r] for r in selection.representatives})

        # "Real" target measurements: the original codelets in-app.
        real: Dict[str, float] = {}
        for p in reduced.profiles:
            real[p.name] = measurer.measure_inapp(p.codelet, target)

    codelet_preds = tuple(
        CodeletPrediction(
            name=p.name,
            app=p.app,
            ref_seconds=p.ref_seconds,
            predicted_seconds=predicted[p.name],
            real_seconds=real[p.name],
        ) for p in reduced.profiles)

    apps = []
    for app in reduced.suite.applications:
        if any(p.app == app.name for p in reduced.profiles):
            apps.append(aggregate_application(
                app.name, reduced.profiles, predicted, real,
                app.codelet_coverage))

    reduction = reduction_breakdown(
        reduced.profiles, selection.representatives, measurer, target)

    return TargetEvaluation(
        arch_name=target.name,
        codelets=codelet_preds,
        applications=tuple(apps),
        reduction=reduction,
        degraded_representatives=tuple(sorted(barred)),
    )
