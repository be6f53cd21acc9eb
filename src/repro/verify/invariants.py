"""The executable invariant registry (metamorphic correctness checks).

Every invariant is a named, self-contained property of the reduction
pipeline (Steps B-E) that must hold on *any* suite — stated once here,
executed by ``repro verify`` on seeded synthetic suites and by the
``pytest -m verify`` tests.  An invariant either returns quietly or
raises :class:`InvariantViolation` with a report that names the
violated property and the witnessing values.

Registered invariants (see ``repro verify --list``):

``normalized-features``
    Clustering consumes z-scored rows, so changing a feature's *unit*
    (scaling a raw column) never changes the partition.
``permutation-invariance``
    Relabeling/reordering codelets permutes nothing but indices: the
    cluster partition, representative set and per-codelet predictions
    are unchanged.
``exact-when-k-equals-n``
    With K = N well-behaved codelets the model matrix is the identity,
    so extrapolation ``t_all = M · t_repr`` is exact — zero error.
``variance-monotone``
    Total within-cluster variance is non-increasing as K grows, and the
    top-down sweep behind ``variance_curve`` equals the per-cut
    ``within_cluster_variance`` recompute exactly at every K — on the
    seed run's rows and on a 64-row tie-heavy lattice matrix, where
    the order of W(k)'s additions shows.
``representative-membership``
    Every representative is a member of the cluster it represents, and
    cluster assignments are a consistent partition of the profiles.
``ill-behaved-never-representative``
    Reselection never picks an ineligible (ill-behaved) codelet, and
    the ill-behaved list agrees with an independent fidelity re-check.
``cache-determinism``
    A warm-cache re-run re-profiles nothing and is bit-identical to
    the cold run.
``lint-determinism``
    The static-analysis lint passes are a pure function of the IR: two
    fresh builds of the same seeded suite serialise to byte-identical
    lint reports, and every canary kernel yields exactly its expected
    diagnostic codes.
``ga-selection``
    GA feature selection is deterministic for a fixed seed, and the
    selected subset never scores worse than the full feature set on
    the training criterion.
``manifest-round-trip``
    A manifest survives export → JSON → import bit-for-bit: dataclass
    equality, byte-identical re-serialisation, identical predictions.
``resilience-replay``
    A failure-free resilient run is bit-identical to the fail-fast
    path; replaying a fault plan yields a byte-identical health report
    and identical degraded results; transient faults that recover
    leave the reduction untouched.
``trace-replay``
    Traces and metrics are wall-clock-free pure functions of the run
    inputs: replaying a run (clean or under a fault plan) serialises
    to byte-identical trace and metrics JSON, and no span smuggles in
    a wall-clock attribute.
``clustering-equivalence``
    The vectorized greedy linkage is bit-compatible with the O(n³)
    reference loop: identical merges, bit-identical heights, identical
    ``cut(k)`` labels for every k — including on exact distance ties.
``cache-sim-equivalence``
    The vectorized cache simulator (compiled address streams + batched
    per-set LRU) is bit-identical to the statement-interpreting
    reference: the compiled trace equals the generated trace entry for
    entry, and hits/misses/writebacks match per level across
    architectures (heterogeneous line sizes included), warmup counts
    and ``max_accesses`` truncation points.
``transform-equivalence``
    Every legally-applied loop rewrite is semantics-preserving: the
    interpreter output of each transformed canary kernel is
    bit-identical to the original over seeded storage, and every
    registered rewrite is exercised by at least one legal canary.
``transform-legality``
    Every rewrite application is justified: canary verdicts match their
    pinned expectations (illegal ones naming the blocking dependence),
    applied records carry legal verdicts, and force-applying the pinned
    illegal interchange demonstrably changes results.
"""

from __future__ import annotations

import json
import tempfile
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..codelets.codelet import Codelet
from ..codelets.finder import find_suite_codelets
from ..codelets.measurement import Measurer
from ..codelets.profiling import ProfilingReport, profile_codelets
from ..core.clustering import (Dendrogram, elbow_k, linkage,
                               linkage_reference, variance_curve,
                               ward_linkage, within_cluster_variance)
from ..core.features import FeatureMatrix
from ..core.ga import GAConfig
from ..core.pipeline import (BenchmarkReducer, PipelineHooks,
                             ReducedSuite, SubsettingConfig)
from ..core.prediction import build_cluster_model
from ..core.representatives import select_representatives
from ..machine.architecture import ATOM, NEHALEM
from ..machine.cache_sim import generate_trace, simulate_cache_reference
from ..machine.cache_sim_vec import (compile_address_stream,
                                     simulate_cache_fast)
from ..obs import Observation
from ..runtime.config import RuntimeConfig
from ..runtime.faults import FaultPlan, FaultRule
from .strategies import (FEATURE_MATRIX_VARIANTS, _feature_matrix,
                         random_codelets, recurrence_kernel,
                         reduction_kernel, stencil_kernel, stream_kernel,
                         synthetic_suite)


class InvariantViolation(AssertionError):
    """A pipeline invariant does not hold; the message names it."""


@dataclass(frozen=True)
class Invariant:
    """A named, executable pipeline property."""

    name: str
    description: str
    check: Callable[["VerifyContext"], None]


#: name -> Invariant, in registration order.
REGISTRY: Dict[str, Invariant] = {}


def invariant(name: str, description: str):
    """Register a pipeline invariant under ``name``."""
    def register(fn: Callable[["VerifyContext"], None]):
        if name in REGISTRY:
            raise ValueError(f"invariant {name!r} registered twice")
        REGISTRY[name] = Invariant(name, description, fn)
        return fn
    return register


@dataclass(frozen=True)
class InvariantResult:
    """Outcome of executing one invariant against a context."""

    name: str
    description: str
    passed: bool
    detail: str = ""
    duration_s: float = 0.0


# ---------------------------------------------------------------------------
# The verification context
# ---------------------------------------------------------------------------


@dataclass
class StageArtifacts:
    """Intermediates captured through :class:`PipelineHooks` — the very
    objects the pipeline acted on, not recomputations of them."""

    report: Optional[ProfilingReport] = None
    features: Optional[FeatureMatrix] = None
    cluster_rows: Optional[np.ndarray] = None
    dendrogram: Optional[Dendrogram] = None
    reduced: Optional[ReducedSuite] = None


class VerifyContext:
    """One seeded synthetic suite plus everything invariants need.

    ``breakage`` injects a named, deliberate defect (see
    :data:`BREAKAGES`) so the harness can demonstrate that exactly the
    matching invariant catches it.
    """

    def __init__(self, seed: int = 0, n_apps: int = 3,
                 codelets_per_app: int = 4,
                 breakage: Optional[str] = None,
                 config: Optional[SubsettingConfig] = None):
        if breakage is not None and breakage not in BREAKAGES:
            raise ValueError(
                f"unknown breakage {breakage!r}: "
                f"choose from {sorted(BREAKAGES)}")
        self.seed = seed
        self.n_apps = n_apps
        self.codelets_per_app = codelets_per_app
        self.breakage = breakage
        self.suite = synthetic_suite(seed, n_apps, codelets_per_app)
        self.codelets = find_suite_codelets(self.suite)
        base = config if config is not None else SubsettingConfig()
        if breakage == "no-normalize":
            base = replace(base, normalize_features=False)
        self.config = base
        self.measurer = Measurer()
        self.artifacts = StageArtifacts()
        self._reduced: Optional[ReducedSuite] = None

    @property
    def lint_disabled(self):
        """Lint passes disabled by the injected defect (if any)."""
        return ("bounds",) if self.breakage == "drop-oob-check" else ()

    def ga_config(self) -> GAConfig:
        """A small, fast GA configuration for the ``ga-selection``
        invariant.  The injected ``ga-unseeded`` defect drops the seed
        (OS entropy), so every run explores a different trajectory."""
        seed = None if self.breakage == "ga-unseeded" \
            else self.seed + 0x6A
        return GAConfig(population=16, generations=6, seed=seed)

    def observation(self) -> Observation:
        """A fresh observability sink for one traced pipeline run.  The
        injected ``trace-wall-clock`` defect stamps every span with
        ``time.perf_counter`` values, so replays stop being
        byte-identical — the ``trace-replay`` invariant must notice."""
        return Observation(
            wall_clock=(self.breakage == "trace-wall-clock"))

    @property
    def manifest_float_digits(self) -> Optional[int]:
        """Float rounding applied when serialising manifests — ``None``
        in a clean context; the ``round-manifest-floats`` defect sets
        it, losing precision the round-trip invariant must notice."""
        return 5 if self.breakage == "round-manifest-floats" else None

    @property
    def transform_ignore_directions(self) -> bool:
        """Whether the interchange legality analysis skips its
        dependence-direction check (``--break
        interchange-ignores-direction``): the pinned illegal
        skewed-stencil interchange is then applied as if legal, which
        the ``transform-legality`` and ``transform-equivalence``
        invariants must both notice."""
        return self.breakage == "interchange-ignores-direction"

    @property
    def sim_batch_skew(self) -> bool:
        """Whether the batched LRU update of the vectorized cache
        simulator inserts misses at the MRU way instead of evicting the
        LRU way (``--break sim-batch-skew``) — a silent replacement-
        policy divergence the ``cache-sim-equivalence`` invariant must
        notice."""
        return self.breakage == "sim-batch-skew"

    @property
    def clustering_skew(self) -> float:
        """Perturbation of one Lance–Williams update coefficient in the
        vectorized greedy linkage — ``0.0`` in a clean context; the
        ``slow-path-skew`` defect sets it, silently diverging the fast
        path from the reference loop, which ``clustering-equivalence``
        must notice."""
        return 1e-3 if self.breakage == "slow-path-skew" else 0.0

    # -- pipeline runs --------------------------------------------------------

    def hooks(self) -> PipelineHooks:
        """Hooks that capture each stage artifact into ``artifacts``."""
        a = self.artifacts

        def on_rows(features, rows):
            a.features, a.cluster_rows = features, rows

        return PipelineHooks(
            on_profiling=lambda report: setattr(a, "report", report),
            on_cluster_rows=on_rows,
            on_dendrogram=lambda d: setattr(a, "dendrogram", d),
            on_reduced=lambda r: setattr(a, "reduced", r),
        )

    @property
    def reduced(self) -> ReducedSuite:
        """The canonical elbow-K reduction of the context suite."""
        if self._reduced is None:
            reducer = BenchmarkReducer(self.suite, self.measurer,
                                       self.config, hooks=self.hooks())
            self._reduced = reducer.reduce("elbow")
        return self._reduced

    def fresh_reducer(self, config: Optional[SubsettingConfig] = None,
                      ) -> BenchmarkReducer:
        """An independent reducer (fresh measurer, no shared memo)."""
        return BenchmarkReducer(self.suite, Measurer(),
                                config if config is not None
                                else self.config)

    def cluster_rows(self, features: FeatureMatrix) -> np.ndarray:
        """The rows clustering would consume under this context's
        configuration (honours an injected no-normalize defect)."""
        if self.config.normalize_features:
            return features.normalized()
        return np.array(features.values, dtype=float)


def reduce_codelets(codelets: Sequence[Codelet], measurer: Measurer,
                    config: SubsettingConfig, k="elbow"):
    """Steps B-D over a bare codelet list (no suite wrapper).

    Mirrors :meth:`BenchmarkReducer.reduce` stage for stage; invariants
    use it to re-run the pipeline on transformed codelet sets
    (permutations, well-behaved subsets) without re-wrapping them into
    applications.  Returns ``(report, rows, labels, selection, model)``.
    """
    report = profile_codelets(codelets, measurer, config.reference,
                              config.min_total_cycles)
    features = FeatureMatrix.from_profiles(report.profiles,
                                           config.feature_names)
    rows = (features.normalized() if config.normalize_features
            else np.array(features.values, dtype=float))
    dendrogram = ward_linkage(rows)
    cut_k = (elbow_k(rows, dendrogram, config.elbow_k_max)
             if k == "elbow" else int(k))
    cut_k = max(1, min(cut_k, features.n_codelets))
    labels = dendrogram.cut(cut_k)
    selection = select_representatives(report.profiles, rows, labels,
                                       measurer, config.reference,
                                       config.tolerance)
    model = build_cluster_model(report.profiles, selection)
    return report, rows, labels, selection, model


def _partition(clusters: Sequence[Sequence[str]]) -> frozenset:
    return frozenset(frozenset(members) for members in clusters)


# ---------------------------------------------------------------------------
# Registered invariants
# ---------------------------------------------------------------------------


@invariant(
    "normalized-features",
    "clustering consumes z-scored feature rows; rescaling a feature's "
    "unit never changes the partition")
def check_normalized_features(ctx: VerifyContext) -> None:
    reduced = ctx.reduced
    rows = ctx.artifacts.cluster_rows
    mean = rows.mean(axis=0)
    std = rows.std(axis=0)
    # Direct: the rows the pipeline clustered on are z-scored (constant
    # features legitimately normalise to all-zero columns).
    bad = [j for j in range(rows.shape[1])
           if abs(mean[j]) > 1e-8
           or (std[j] > 1e-12 and abs(std[j] - 1.0) > 1e-8)]
    if bad:
        j = bad[0]
        raise InvariantViolation(
            "normalized-features: clustering consumed unnormalised "
            f"feature rows — column {j} "
            f"({reduced.features.feature_names[j]!r}) has mean "
            f"{mean[j]:.6g} and std {std[j]:.6g} instead of 0/1 "
            "(was feature normalization skipped?)")
    # Metamorphic: changing one feature's unit (exact power-of-two
    # scaling of the raw column) must not move any codelet between
    # clusters.
    values = np.array(reduced.features.values, dtype=float)
    j = int(np.argmax(values.std(axis=0)))
    scaled = values.copy()
    scaled[:, j] *= 2.0 ** 20
    scaled_matrix = FeatureMatrix(reduced.features.codelet_names,
                                  reduced.features.feature_names, scaled)
    rows_b = ctx.cluster_rows(scaled_matrix)
    k = len(np.unique(reduced.labels))
    labels_b = ward_linkage(rows_b).cut(k)
    names = reduced.features.codelet_names
    part_a = _partition([[names[i] for i in range(len(names))
                          if reduced.labels[i] == lab]
                         for lab in np.unique(reduced.labels)])
    part_b = _partition([[names[i] for i in range(len(names))
                          if labels_b[i] == lab]
                         for lab in np.unique(labels_b)])
    if part_a != part_b:
        raise InvariantViolation(
            "normalized-features: rescaling feature "
            f"{reduced.features.feature_names[j]!r} by 2**20 changed "
            f"the K={k} cluster partition — clustering is not "
            "unit-invariant (was feature normalization skipped?)")


@invariant(
    "permutation-invariance",
    "reordering the codelet list leaves the cluster partition, the "
    "representative set and every per-codelet prediction unchanged")
def check_permutation_invariance(ctx: VerifyContext) -> None:
    reduced = ctx.reduced
    rng = np.random.default_rng(ctx.seed + 0x5EED)
    order = rng.permutation(len(ctx.codelets))
    permuted = [ctx.codelets[i] for i in order]
    # Cut at the same raw K as the base run; Step D's destruction logic
    # then applies identically on both sides.
    raw_k = len(np.unique(reduced.labels))
    _, _, _, selection, model = reduce_codelets(
        permuted, Measurer(), ctx.config, k=raw_k)

    base = reduced.selection
    if _partition(selection.clusters) != _partition(base.clusters):
        raise InvariantViolation(
            "permutation-invariance: permuting the codelet order "
            "changed the cluster partition "
            f"(base {sorted(map(sorted, base.clusters))} vs permuted "
            f"{sorted(map(sorted, selection.clusters))})")
    if set(selection.representatives) != set(base.representatives):
        raise InvariantViolation(
            "permutation-invariance: permuting the codelet order "
            "changed the representative set "
            f"({sorted(base.representatives)} vs "
            f"{sorted(selection.representatives)})")
    # Predictions: identical per codelet for identical rep times.
    rep_times = {r: 1.0 + i for i, r in
                 enumerate(sorted(base.representatives))}
    pred_a = reduced.model.predict(rep_times)
    pred_b = model.predict(rep_times)
    for name in pred_a:
        if pred_a[name] != pred_b[name]:
            raise InvariantViolation(
                "permutation-invariance: prediction for "
                f"{name!r} changed under codelet reordering "
                f"({pred_a[name]!r} vs {pred_b[name]!r})")


@invariant(
    "exact-when-k-equals-n",
    "with K = N well-behaved codelets the model matrix is the "
    "identity, so extrapolation t_all = M · t_repr is exact")
def check_exact_when_k_equals_n(ctx: VerifyContext) -> None:
    codelets = random_codelets(ctx.seed + 0xE8AC7, count=6, tame=True)
    measurer = Measurer()
    report, _, _, selection, model = reduce_codelets(
        codelets, measurer, ctx.config, k=len(codelets))
    n = len(report.profiles)
    if n < 2:
        raise InvariantViolation(
            "exact-when-k-equals-n: tame codelet generator produced "
            f"only {n} measurable codelets — cannot exercise K = N")
    if selection.k != n:
        raise InvariantViolation(
            "exact-when-k-equals-n: cutting at K = N over well-behaved "
            f"codelets kept only {selection.k} of {n} clusters "
            f"(destroyed {selection.destroyed_clusters})")
    matrix = model.matrix()
    if not np.array_equal(matrix, np.eye(n)):
        raise InvariantViolation(
            "exact-when-k-equals-n: the N×K model matrix is not the "
            f"identity at K = N = {n}")
    rng = np.random.default_rng(ctx.seed + 1)
    times = {rep: float(t) for rep, t in
             zip(selection.representatives,
                 rng.uniform(1e-6, 1e-2, size=n))}
    predicted = model.predict(times)
    for name, t in times.items():
        if predicted[name] != t:
            raise InvariantViolation(
                "exact-when-k-equals-n: extrapolation at K = N is not "
                f"exact — {name!r} predicted {predicted[name]!r} from "
                f"measured {t!r}")


@invariant(
    "variance-monotone",
    "total within-cluster variance is non-increasing as K grows "
    "along the dendrogram cuts, and the top-down sweep equals the "
    "per-cut recompute exactly")
def check_variance_monotone(ctx: VerifyContext) -> None:
    # The seed run clusters a handful of rows, too few for the order of
    # W(k)'s additions to change a bit; a 64-row small-integer lattice
    # (many tied, equal-SSE clusters) makes a reordered sum visible.
    lattice = _feature_matrix(ctx.seed, 64, 4, "lattice")
    for label, rows, dendrogram in (
            ("seed run", ctx.artifacts.cluster_rows, ctx.reduced.dendrogram),
            ("64-row lattice", lattice, ward_linkage(lattice))):
        _check_variance_curve(label, rows, dendrogram)


def _check_variance_curve(label: str, rows: np.ndarray,
                          dendrogram: Dendrogram) -> None:
    w = variance_curve(rows, dendrogram)
    for k, swept in enumerate(w, start=1):
        recomputed = within_cluster_variance(rows, dendrogram.cut(k))
        if swept != recomputed:
            raise InvariantViolation(
                f"variance-monotone: on the {label} rows the sweep's "
                f"W({k}) = {swept!r} differs from the recompute "
                f"{recomputed!r}")
    scale = max(float(w[0]), 1e-12)
    for k in range(1, len(w)):
        if w[k] > w[k - 1] + 1e-9 * scale:
            raise InvariantViolation(
                f"variance-monotone: on the {label} rows within-cluster "
                f"variance increased from W({k}) = {w[k - 1]:.6g} to "
                f"W({k + 1}) = {w[k]:.6g}")


@invariant(
    "representative-membership",
    "every representative belongs to the cluster it represents and "
    "assignments form a consistent partition of the profiles")
def check_representative_membership(ctx: VerifyContext) -> None:
    selection = ctx.reduced.selection
    for idx, (members, rep) in enumerate(
            zip(selection.clusters, selection.representatives)):
        if rep not in members:
            raise InvariantViolation(
                f"representative-membership: representative {rep!r} of "
                f"cluster {idx} is not one of its members {members}")
        if selection.cluster_of(rep) != idx:
            raise InvariantViolation(
                f"representative-membership: {rep!r} represents "
                f"cluster {idx} but is assigned to cluster "
                f"{selection.cluster_of(rep)}")
    assigned = sorted(selection.assignments)
    profiled = sorted(p.name for p in ctx.reduced.profiles)
    if assigned != profiled:
        raise InvariantViolation(
            "representative-membership: assignments do not cover the "
            f"profiled codelets exactly ({len(assigned)} assigned vs "
            f"{len(profiled)} profiled)")
    for name, idx in selection.assignments.items():
        if name not in selection.clusters[idx]:
            raise InvariantViolation(
                f"representative-membership: {name!r} assigned to "
                f"cluster {idx} but missing from its member list")


@invariant(
    "ill-behaved-never-representative",
    "reselection never picks an ineligible codelet: no representative "
    "fails the Section 3.4 fidelity check")
def check_ill_behaved_never_representative(ctx: VerifyContext) -> None:
    reduced = ctx.reduced
    selection = reduced.selection
    leaked = set(selection.representatives) & set(selection.ill_behaved)
    if leaked:
        raise InvariantViolation(
            "ill-behaved-never-representative: ill-behaved codelets "
            f"selected as representatives: {sorted(leaked)}")
    # Independent fidelity re-check with a fresh measurer.
    probe = Measurer()
    for rep in selection.representatives:
        codelet = reduced.profile(rep).codelet
        deviation = probe.behavior_deviation(codelet,
                                             ctx.config.reference)
        if deviation > ctx.config.tolerance:
            raise InvariantViolation(
                "ill-behaved-never-representative: representative "
                f"{rep!r} deviates {deviation:.1%} standalone vs "
                f"in-app (tolerance {ctx.config.tolerance:.0%}) yet "
                "was not flagged ill-behaved")


@invariant(
    "cache-determinism",
    "a warm-cache re-run re-profiles nothing and is bit-identical to "
    "the cold run")
def check_cache_determinism(ctx: VerifyContext) -> None:
    with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
        config = replace(ctx.config,
                         runtime=RuntimeConfig(cache_dir=tmp))
        cold = BenchmarkReducer(ctx.suite, Measurer(), config)
        cold_reduced = cold.reduce("elbow")
        warm = BenchmarkReducer(ctx.suite, Measurer(), config)
        warm_reduced = warm.reduce("elbow")
        stats = warm.cache_stats
        if stats.misses or stats.stores:
            raise InvariantViolation(
                "cache-determinism: warm-cache run re-profiled "
                f"{stats.misses} codelets (stored {stats.stores}) "
                "instead of reusing every cached outcome")
        if stats.hits != len(ctx.codelets):
            raise InvariantViolation(
                f"cache-determinism: warm run hit {stats.hits} cached "
                f"outcomes, expected {len(ctx.codelets)}")
        if (warm_reduced.profiles != cold_reduced.profiles
                or not np.array_equal(warm_reduced.labels,
                                      cold_reduced.labels)
                or warm_reduced.representatives
                != cold_reduced.representatives):
            raise InvariantViolation(
                "cache-determinism: warm-cache results differ from the "
                "cold run (profiles, labels or representatives)")


@invariant(
    "lint-determinism",
    "lint output is a pure function of the IR: fresh same-seed suite "
    "builds serialise byte-identically and every canary kernel yields "
    "exactly its expected diagnostic codes")
def check_lint_determinism(ctx: VerifyContext) -> None:
    from ..analysis.lint import check_canaries, make_suite_report

    disabled = ctx.lint_disabled
    problems = check_canaries(disabled=disabled)
    if problems:
        raise InvariantViolation(
            "lint-determinism: canary kernels produced wrong "
            "diagnostics (a lint pass is missing or weakened): "
            + "; ".join(problems))
    # Two fresh builds of the same seeded suite use different
    # fresh_index counters, so any diagnostic that leaked a loop
    # variable name breaks byte-identity here.
    reports = []
    for _ in range(2):
        suite = synthetic_suite(ctx.seed, ctx.n_apps,
                                ctx.codelets_per_app)
        reports.append(make_suite_report(
            "verify", [suite], disabled=disabled).serialize())
    if reports[0] != reports[1]:
        raise InvariantViolation(
            "lint-determinism: two fresh builds of the seed="
            f"{ctx.seed} synthetic suite produced different lint "
            "reports — diagnostics depend on run-specific state "
            "(loop-variable names? iteration order?)")


@invariant(
    "ga-selection",
    "GA feature selection is deterministic for a fixed seed and the "
    "selected subset never scores worse than the full feature set")
def check_ga_selection(ctx: VerifyContext) -> None:
    from ..core.ga import select_features

    profiles = ctx.reduced.profiles
    config = ctx.ga_config()
    result_a, problem = select_features(profiles, ctx.measurer, config)
    result_b, _ = select_features(profiles, ctx.measurer, config)
    if (result_a.best_mask != result_b.best_mask
            or result_a.best_fitness != result_b.best_fitness):
        raise InvariantViolation(
            "ga-selection: two GA runs with the same configuration "
            "disagree — best fitness "
            f"{result_a.best_fitness!r} vs {result_b.best_fitness!r}, "
            f"masks {'equal' if result_a.best_mask == result_b.best_mask else 'differ'} "
            "(is the GA seed unset, drawing OS entropy?)")
    full = np.ones(problem.n_bits, dtype=bool)
    baseline = problem.evaluate_mask(full)
    if result_a.best_fitness > baseline:
        raise InvariantViolation(
            "ga-selection: the selected feature subset scores "
            f"{result_a.best_fitness:.6g} on the training criterion, "
            f"worse than the full feature set at {baseline:.6g} — the "
            "all-features baseline was not preserved")


@invariant(
    "manifest-round-trip",
    "a manifest survives export → JSON → import bit-for-bit: dataclass "
    "equality, byte-identical re-serialisation, identical predictions")
def check_manifest_round_trip(ctx: VerifyContext) -> None:
    from ..core.persist import ReducedSuiteManifest, export_manifest

    manifest = export_manifest(ctx.reduced)
    text = manifest.to_json(float_digits=ctx.manifest_float_digits)
    loaded = ReducedSuiteManifest.from_json(text)
    if loaded != manifest:
        fields = [name for name in ("ref_seconds", "coverage",
                                    "clusters", "representatives",
                                    "invocations", "apps")
                  if getattr(loaded, name) != getattr(manifest, name)]
        raise InvariantViolation(
            "manifest-round-trip: the imported manifest differs from "
            f"the exported one in {fields or ['metadata']} — "
            "serialisation is lossy (are floats being rounded?)")
    again = loaded.to_json(float_digits=ctx.manifest_float_digits)
    if again != text:
        raise InvariantViolation(
            "manifest-round-trip: re-serialising the imported manifest "
            "is not byte-identical to the original JSON")
    rep_times = {r: 1.0 + 0.25 * i for i, r in
                 enumerate(sorted(manifest.representatives))}
    pred_direct = manifest.predict(rep_times)
    pred_loaded = loaded.predict(rep_times)
    for name in pred_direct:
        if pred_direct[name] != pred_loaded[name]:
            raise InvariantViolation(
                "manifest-round-trip: prediction for "
                f"{name!r} changed across the round-trip "
                f"({pred_direct[name]!r} vs {pred_loaded[name]!r})")


@invariant(
    "resilience-replay",
    "a failure-free resilient run is bit-identical to the fail-fast "
    "path; replaying a fault plan is byte-identical in health and "
    "results; recovered transient faults leave the reduction untouched")
def check_resilience_replay(ctx: VerifyContext) -> None:
    base_rt = ctx.config.runtime

    def run(runtime: RuntimeConfig):
        reducer = BenchmarkReducer(ctx.suite, Measurer(),
                                   replace(ctx.config, runtime=runtime))
        return reducer, reducer.reduce("elbow")

    # 1. With nothing to recover from, the resilient path must compute
    #    exactly what the historical fail-fast path computes.
    _, resilient = run(replace(base_rt, retries=2, fault_plan=None,
                               task_timeout_s=None))
    _, failfast = run(replace(base_rt, retries=0, fault_plan=None,
                              task_timeout_s=None))
    if (resilient.profiles != failfast.profiles
            or not np.array_equal(resilient.labels, failfast.labels)
            or resilient.representatives != failfast.representatives):
        raise InvariantViolation(
            "resilience-replay: a failure-free resilient run differs "
            "from the fail-fast path (profiles, labels or "
            "representatives) — the resilient wrapper is not "
            "behaviour-preserving")

    # 2. A permanent fault replayed twice: byte-identical health
    #    reports and identical degraded results.
    victim = failfast.profiles[0].name
    permanent = FaultPlan(seed=ctx.seed, rules=(
        FaultRule(kind="crash", match=victim, stage="profile"),))
    plan_rt = replace(base_rt, retries=1, fault_plan=permanent)
    red_a, deg_a = run(plan_rt)
    red_b, deg_b = run(plan_rt)
    if red_a.health.to_json() != red_b.health.to_json():
        raise InvariantViolation(
            "resilience-replay: replaying the same fault plan produced "
            "different RunHealth reports — health is not a pure "
            "function of (seed, plan)")
    if (deg_a.representatives != deg_b.representatives
            or not np.array_equal(deg_a.labels, deg_b.labels)):
        raise InvariantViolation(
            "resilience-replay: replaying the same fault plan produced "
            "different reductions")
    if victim in {p.name for p in deg_a.profiles}:
        raise InvariantViolation(
            f"resilience-replay: codelet {victim!r} crashes on every "
            "profiling attempt yet still has a profile — quarantine "
            "did not drop it")
    if victim not in deg_a.quarantined or not red_a.health.degraded:
        raise InvariantViolation(
            f"resilience-replay: quarantined codelet {victim!r} is "
            "missing from the degradation record")

    # 3. A transient fault (first attempt only) recovers on retry and
    #    must leave the reduction identical to the permanent-only run.
    survivor = failfast.profiles[1].name
    transient = FaultPlan(seed=ctx.seed, rules=permanent.rules + (
        FaultRule(kind="crash", match=survivor, stage="profile",
                  attempts=(0,)),))
    red_c, deg_c = run(replace(plan_rt, fault_plan=transient))
    if survivor not in {p.name for p in deg_c.profiles}:
        raise InvariantViolation(
            f"resilience-replay: codelet {survivor!r} crashes only on "
            "attempt 0 yet was not recovered by the retry")
    if (deg_c.representatives != deg_a.representatives
            or not np.array_equal(deg_c.labels, deg_a.labels)
            or deg_c.profiles != deg_a.profiles):
        raise InvariantViolation(
            "resilience-replay: a recovered transient fault changed "
            "the reduction — retried work is not bit-identical")
    recovered = {t.task for t in red_c.health.tasks
                 if t.outcome == "recovered"}
    if survivor not in recovered:
        raise InvariantViolation(
            f"resilience-replay: {survivor!r} recovered on retry but "
            "the health report does not say so "
            f"(recovered = {sorted(recovered)})")

@invariant(
    "trace-replay",
    "traces and metrics are wall-clock-free pure functions of the run "
    "inputs: replaying a run (clean or faulted) is byte-identical and "
    "no span carries a wall-clock attribute")
def check_trace_replay(ctx: VerifyContext) -> None:
    def traced_run(runtime: RuntimeConfig):
        obs = ctx.observation()
        reducer = BenchmarkReducer(ctx.suite, Measurer(),
                                   replace(ctx.config, runtime=runtime),
                                   obs=obs)
        reduced = reducer.reduce("elbow")
        return reduced, obs.tracer.to_json(), obs.metrics.to_json()

    def replay(label: str, runtime: RuntimeConfig):
        reduced, trace_a, metrics_a = traced_run(runtime)
        _, trace_b, metrics_b = traced_run(runtime)
        if trace_a != trace_b:
            raise InvariantViolation(
                f"trace-replay: two {label} runs of the same suite "
                "serialised different traces — the span tree is not a "
                "pure function of the run inputs (is wall-clock time "
                "leaking into span attributes?)")
        if metrics_a != metrics_b:
            raise InvariantViolation(
                f"trace-replay: two {label} runs of the same suite "
                "serialised different metrics registries")
        # Direct wall-clock-free check: the defect is caught even if
        # two perf_counter readings were improbably equal.
        if '"wall_s"' in trace_a:
            raise InvariantViolation(
                f"trace-replay: the {label} trace contains 'wall_s' "
                "span attributes — wall-clock values make replays "
                "non-reproducible and must never be recorded")
        return reduced, trace_a, metrics_a

    base_rt = ctx.config.runtime
    _, clean_trace, _ = replay(
        "clean", replace(base_rt, retries=2, fault_plan=None,
                         task_timeout_s=None))
    if '"stage:profile"' not in clean_trace:
        raise InvariantViolation(
            "trace-replay: the clean trace has no 'stage:profile' span "
            "— pipeline stages are not being traced")

    # Under a transient fault (crash on attempt 0, recovered on retry)
    # the replay must still be byte-identical, with the retry round
    # surfaced as a span and the recovery counted.
    reduced, fault_trace, fault_metrics = replay(
        "fault-plan",
        replace(base_rt, retries=1, fault_plan=FaultPlan(
            seed=ctx.seed,
            rules=(FaultRule(kind="crash", match="*", stage="profile",
                             attempts=(0,)),))))
    if '"retry-round"' not in fault_trace:
        raise InvariantViolation(
            "trace-replay: a run that retried every profiling task "
            "recorded no 'retry-round' span")
    recovered = json.loads(fault_metrics)["counters"].get(
        "resilience.recovered", 0)
    if recovered != len(ctx.codelets):
        raise InvariantViolation(
            "trace-replay: the fault-plan run recovered "
            f"{len(ctx.codelets)} profiling tasks but the "
            f"'resilience.recovered' counter says {recovered}")
    if reduced.quarantined:
        raise InvariantViolation(
            "trace-replay: transient attempt-0 faults quarantined "
            f"{sorted(reduced.quarantined)} despite the retry budget")


def _assert_same_dendrogram(invariant_name: str, label: str,
                            fast: Dendrogram, slow: Dendrogram) -> None:
    """Bitwise dendrogram equality: merges, heights, every cut."""
    if len(fast.merges) != len(slow.merges):
        raise InvariantViolation(
            f"{invariant_name}: {label}: fast path produced "
            f"{len(fast.merges)} merges, reference {len(slow.merges)}")
    for step, (mf, ms) in enumerate(zip(fast.merges, slow.merges)):
        if (mf.a, mf.b, mf.size) != (ms.a, ms.b, ms.size):
            raise InvariantViolation(
                f"{invariant_name}: {label}: merge {step} joins "
                f"({mf.a}, {mf.b}) on the fast path but "
                f"({ms.a}, {ms.b}) in the reference — the trees differ")
        if mf.height != ms.height:
            raise InvariantViolation(
                f"{invariant_name}: {label}: merge {step} height "
                f"{mf.height!r} != reference {ms.height!r} — heights "
                "must be bit-identical, not merely close")
    for k in range(1, fast.n_leaves + 1):
        if not np.array_equal(fast.cut(k), slow.cut(k)):
            raise InvariantViolation(
                f"{invariant_name}: {label}: cut(k={k}) labels differ "
                "between the fast path and the reference")


@invariant(
    "clustering-equivalence",
    "the vectorized greedy linkage is bit-compatible with the O(n^3) "
    "reference loop on every method and tie structure: identical "
    "merges, bit-identical heights, identical cut(k) for all k")
def check_clustering_equivalence(ctx: VerifyContext) -> None:
    skew = ctx.clustering_skew
    for variant in FEATURE_MATRIX_VARIANTS:
        for rows in (12, 26):
            points = _feature_matrix(ctx.seed + rows, rows, 4, variant)
            for method in ("ward", "single", "complete", "average"):
                fast = linkage(points, method=method,
                               ward_coeff_skew=(skew if method == "ward"
                                                else 0.0))
                slow = linkage_reference(points, method=method)
                _assert_same_dendrogram(
                    "clustering-equivalence",
                    f"{variant} n={rows} method={method}", fast, slow)


#: Architectures the cache-sim differential runs over: two real Table 1
#: machines plus two synthetic stress configs — heterogeneous line
#: sizes per level, and a tiny 4-byte-line L1 that forces straddling
#: units plus capacity evictions with reuse (without eviction + reuse
#: the replacement policy is unobservable and a skewed LRU would pass).
def _sim_architectures():
    hetero = replace(NEHALEM, name="hetero-lines", caches=(
        replace(NEHALEM.caches[0], line_bytes=32),
        replace(NEHALEM.caches[1], line_bytes=64),
        replace(NEHALEM.caches[2], line_bytes=128),
    ))
    tiny = replace(NEHALEM, name="tiny-lines", caches=(
        replace(NEHALEM.caches[0], size_bytes=1024, line_bytes=4,
                assoc=2),
        replace(NEHALEM.caches[1], size_bytes=8192, line_bytes=8,
                assoc=4),
    ))
    return (NEHALEM, ATOM, hetero, tiny)


@invariant(
    "cache-sim-equivalence",
    "the vectorized cache simulator (compiled address streams + "
    "batched per-set LRU) is bit-identical to the statement-"
    "interpreting reference: same compiled trace, same hits/misses/"
    "writebacks per level across architectures, warmup counts and "
    "max_accesses truncation points")
def check_cache_sim_equivalence(ctx: VerifyContext) -> None:
    skew = ctx.sim_batch_skew
    kernels = (
        stream_kernel("sim_stream", 512),
        reduction_kernel("sim_dot", 768),
        recurrence_kernel("sim_rec", 512),
        stencil_kernel("sim_stencil", 1024),
    )
    archs = _sim_architectures()

    for kernel in kernels:
        reference = list(generate_trace(kernel))
        compiled = compile_address_stream(kernel)
        fast = list(zip((int(a) for a in compiled.addresses),
                        (int(s) for s in compiled.sizes),
                        (bool(w) for w in compiled.stores)))
        if fast != reference:
            diff = next(i for i, (f, r) in enumerate(zip(fast, reference))
                        if f != r) if len(fast) == len(reference) \
                else min(len(fast), len(reference))
            raise InvariantViolation(
                f"cache-sim-equivalence: {kernel.name}: compiled "
                f"address stream diverges from generate_trace at "
                f"access {diff} (lengths {len(fast)} vs "
                f"{len(reference)})")

    for ki, kernel in enumerate(kernels):
        for ai, arch in enumerate(archs):
            # Sample the (warmup, truncation) axes deterministically
            # instead of running the full product on every cell.
            warmup = (ki + ai) % 2
            max_accesses = None if (ki + ai) % 3 else 257
            ref = simulate_cache_reference(
                kernel, arch, warmup_invocations=warmup,
                max_accesses_per_invocation=max_accesses)
            fast_profile = simulate_cache_fast(
                kernel, arch, warmup_invocations=warmup,
                max_accesses_per_invocation=max_accesses,
                batch_skew=skew)
            if fast_profile != ref:
                raise InvariantViolation(
                    f"cache-sim-equivalence: {kernel.name} on "
                    f"{arch.name} (warmup={warmup}, "
                    f"max_accesses={max_accesses}): fast-path profile "
                    f"diverges from the reference\n  reference: {ref}\n"
                    f"  fast:      {fast_profile}")


@invariant(
    "transform-equivalence",
    "every legally-applied loop rewrite is semantics-preserving: "
    "transformed canary kernels interpret bit-identically to their "
    "originals over seeded storage, with every registered rewrite "
    "exercised by at least one legal canary")
def check_transform_equivalence(ctx: VerifyContext) -> None:
    from ..ir.interp import run_kernel
    from ..ir.rewrite import (REWRITE_REGISTRY, TRANSFORM_CANARIES,
                              transform_kernel)

    ignore = ctx.transform_ignore_directions
    exercised = set()
    for canary in TRANSFORM_CANARIES:
        kernel = canary.build()
        transformed, records = transform_kernel(
            kernel, (canary.spec,), ignore_directions=ignore)
        if not any(r.applied for r in records):
            continue
        exercised.add(canary.spec.name)
        # Rewrites never touch the array declarations, so the same seed
        # allocates bit-identical initial storage on both sides.
        for seed in (ctx.seed + 7, ctx.seed + 8):
            base = run_kernel(kernel, seed=seed)
            got = run_kernel(transformed, seed=seed)
            for name in sorted(base):
                if base[name].tobytes() != got[name].tobytes():
                    raise InvariantViolation(
                        "transform-equivalence: applying "
                        f"{canary.spec} to canary {canary.name!r} "
                        f"changed array {name!r} (seed {seed}) — a "
                        "rewrite its legality verdict endorsed is not "
                        "semantics-preserving (is the dependence "
                        "direction check being skipped?)")
    missing = sorted(set(REWRITE_REGISTRY) - exercised)
    if missing:
        raise InvariantViolation(
            "transform-equivalence: no canary legally exercises "
            f"rewrite pass(es) {missing} — the equivalence check has "
            "a coverage hole")


@invariant(
    "transform-legality",
    "every rewrite application is justified: canary verdicts match "
    "their pinned expectations (illegal ones naming the blocking "
    "dependence), applied records carry legal verdicts, and forcing "
    "the pinned illegal interchange demonstrably changes results")
def check_transform_legality(ctx: VerifyContext) -> None:
    from ..ir.interp import run_kernel
    from ..ir.rewrite import (FORCED_DIVERGENCE_CANARY,
                              TRANSFORM_CANARIES, transform_kernel)

    ignore = ctx.transform_ignore_directions
    by_name = {}
    for canary in TRANSFORM_CANARIES:
        by_name[canary.name] = canary
        kernel = canary.build()
        _, records = transform_kernel(kernel, (canary.spec,),
                                      ignore_directions=ignore)
        if not records:
            raise InvariantViolation(
                f"transform-legality: canary {canary.name!r} "
                f"({canary.spec}) produced no decision records")
        verdict = records[0].verdict
        if verdict.status != canary.expected_status:
            raise InvariantViolation(
                f"transform-legality: canary {canary.name!r} "
                f"({canary.spec}) got verdict {verdict.status!r}, "
                f"expected {canary.expected_status!r} — the legality "
                "analysis diverged from its pinned ground truth (is "
                "the dependence-direction check being skipped?)")
        if canary.blocking_fragment is not None:
            blocking = verdict.blocking or ""
            if canary.blocking_fragment not in blocking:
                raise InvariantViolation(
                    f"transform-legality: canary {canary.name!r} was "
                    "refused without naming the blocking dependence "
                    f"(wanted {canary.blocking_fragment!r} in "
                    f"{blocking!r})")
        for record in records:
            if record.status == "applied" and not record.verdict.legal:
                raise InvariantViolation(
                    f"transform-legality: canary {canary.name!r} "
                    f"applied {record.pass_name} to {record.target} "
                    "without a legal verdict")
            if record.status == "refused" \
                    and not record.verdict.blocking:
                raise InvariantViolation(
                    f"transform-legality: canary {canary.name!r} "
                    f"refused {record.pass_name} on {record.target} "
                    "without citing a blocking dependence")

    # The refusal must protect something real: force-applying the
    # pinned illegal interchange (direction check honoured, verdict
    # overridden) has to change interpreter output.
    canary = by_name[FORCED_DIVERGENCE_CANARY]
    kernel = canary.build()
    forced, records = transform_kernel(kernel, (canary.spec,),
                                       force=True)
    if not any(r.status == "forced" for r in records):
        raise InvariantViolation(
            f"transform-legality: force-applying {canary.spec} to "
            f"canary {canary.name!r} recorded no 'forced' decision")
    base = run_kernel(kernel, seed=ctx.seed + 11)
    got = run_kernel(forced, seed=ctx.seed + 11)
    if all(base[name].tobytes() == got[name].tobytes()
           for name in base):
        raise InvariantViolation(
            "transform-legality: force-applying the pinned illegal "
            f"interchange ({canary.name!r}) left every array "
            "bit-identical — the refusal protects nothing, so the "
            "legality rule (or the canary) is wrong")


# ---------------------------------------------------------------------------
# Deliberate defects and registry execution
# ---------------------------------------------------------------------------


#: Injectable defects for ``repro verify --break``: each must make its
#: matching invariant — and only it — fail.
BREAKAGES: Dict[str, str] = {
    "no-normalize": "cluster on raw feature values (skip the z-score "
                    "normalisation of Section 3.3); caught by "
                    "'normalized-features'",
    "drop-oob-check": "silently disable the lint bounds pass (L301 "
                      "out-of-bounds detection); caught by "
                      "'lint-determinism'",
    "ga-unseeded": "run GA feature selection without a pinned seed "
                   "(OS entropy); caught by 'ga-selection'",
    "round-manifest-floats": "round reference times and coverages to 5 "
                             "digits when exporting manifests; caught "
                             "by 'manifest-round-trip'",
    "trace-wall-clock": "stamp every trace span with wall-clock "
                        "(time.perf_counter) values, so replayed runs "
                        "stop serialising byte-identically; caught by "
                        "'trace-replay'",
    "slow-path-skew": "perturb one Lance-Williams update coefficient "
                      "in the vectorized greedy linkage by 1e-3, "
                      "silently diverging it from the reference loop; "
                      "caught by 'clustering-equivalence' only",
    "sim-batch-skew": "make the batched LRU update of the vectorized "
                      "cache simulator insert misses at the MRU way "
                      "instead of evicting the LRU way, silently "
                      "diverging its replacement policy from the "
                      "reference; caught by 'cache-sim-equivalence'",
    "interchange-ignores-direction": "make interchange legality skip "
                                     "the dependence-direction check, "
                                     "silently applying the pinned "
                                     "illegal skewed-stencil "
                                     "interchange; caught by "
                                     "'transform-equivalence' and "
                                     "'transform-legality'",
}


def run_registry(ctx: VerifyContext,
                 names: Optional[Sequence[str]] = None
                 ) -> List[InvariantResult]:
    """Execute (a subset of) the registry against ``ctx``.

    Violations and unexpected errors both become failed results; the
    harness never aborts half-way, so one broken invariant cannot mask
    another.
    """
    if names:
        unknown = sorted(set(names) - set(REGISTRY))
        if unknown:
            raise KeyError(f"unknown invariants: {unknown}; "
                           f"registered: {sorted(REGISTRY)}")
        selected = [REGISTRY[name] for name in names]
    else:
        selected = list(REGISTRY.values())

    results: List[InvariantResult] = []
    for inv in selected:
        start = time.perf_counter()
        try:
            inv.check(ctx)
        except InvariantViolation as violation:
            passed, detail = False, str(violation)
        except Exception as exc:   # noqa: BLE001 - report, don't mask
            passed, detail = False, (f"unexpected "
                                     f"{type(exc).__name__}: {exc}")
        else:
            passed, detail = True, ""
        results.append(InvariantResult(
            name=inv.name, description=inv.description, passed=passed,
            detail=detail, duration_s=time.perf_counter() - start))
    return results
