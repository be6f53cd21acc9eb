"""Portable reduced benchmarks (Section 5).

The paper argues the extraction cost amortises because "the benchmarks
are portable, so they can be extracted once for a benchmark suite and
reused by many different users".  This module implements that workflow:
a :class:`~repro.core.pipeline.ReducedSuite` exports to a plain-JSON
*manifest* carrying everything Step E needs — cluster membership,
representatives, reference times, invocation counts, coverage — and a
loaded manifest predicts new targets without redoing Steps A-D, given
only the ability to benchmark the representative codelets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ..codelets.codelet import BenchmarkSuite
from ..codelets.finder import find_suite_codelets
from ..codelets.measurement import Measurer
from ..machine.architecture import Architecture
from .pipeline import ReducedSuite

FORMAT_VERSION = 1


@dataclass(frozen=True)
class ReducedSuiteManifest:
    """The portable form of a reduced benchmark suite."""

    suite_name: str
    reference_name: str
    feature_names: Tuple[str, ...]
    clusters: Tuple[Tuple[str, ...], ...]
    representatives: Tuple[str, ...]
    ref_seconds: Dict[str, float]
    invocations: Dict[str, int]
    apps: Dict[str, str]                 # codelet -> application
    coverage: Dict[str, float]           # application -> coverage

    # -- (de)serialisation ----------------------------------------------------

    def to_json(self, float_digits: Optional[int] = None) -> str:
        """Serialise the manifest.

        ``float_digits`` rounds reference times and coverages before
        writing — a deliberate lossy-serialisation defect for the
        verify harness (``--break round-manifest-floats``), whose
        detection the ``manifest-round-trip`` invariant is responsible
        for.  Production callers never set it: JSON round-trips Python
        floats exactly via ``repr`` shortest-round-trip encoding.
        """
        def f(value: float) -> float:
            return value if float_digits is None \
                else round(value, float_digits)

        return json.dumps({
            "format_version": FORMAT_VERSION,
            "suite_name": self.suite_name,
            "reference_name": self.reference_name,
            "feature_names": list(self.feature_names),
            "clusters": [list(c) for c in self.clusters],
            "representatives": list(self.representatives),
            "ref_seconds": {k: f(v)
                            for k, v in self.ref_seconds.items()},
            "invocations": self.invocations,
            "apps": self.apps,
            "coverage": {k: f(v) for k, v in self.coverage.items()},
        }, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ReducedSuiteManifest":
        data = json.loads(text)
        version = data.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported manifest version {version!r} "
                f"(expected {FORMAT_VERSION})")
        return cls(
            suite_name=data["suite_name"],
            reference_name=data["reference_name"],
            feature_names=tuple(data["feature_names"]),
            clusters=tuple(tuple(c) for c in data["clusters"]),
            representatives=tuple(data["representatives"]),
            ref_seconds={k: float(v)
                         for k, v in data["ref_seconds"].items()},
            invocations={k: int(v)
                         for k, v in data["invocations"].items()},
            apps=dict(data["apps"]),
            coverage={k: float(v)
                      for k, v in data["coverage"].items()},
        )

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "ReducedSuiteManifest":
        with open(path) as fh:
            return cls.from_json(fh.read())

    # -- consistency ----------------------------------------------------------

    def validate(self) -> None:
        names = {n for cluster in self.clusters for n in cluster}
        if len(self.representatives) != len(self.clusters):
            raise ValueError("one representative per cluster required")
        for rep, cluster in zip(self.representatives, self.clusters):
            if rep not in cluster:
                raise ValueError(
                    f"representative {rep!r} missing from its cluster")
        for mapping, label in ((self.ref_seconds, "ref_seconds"),
                               (self.invocations, "invocations"),
                               (self.apps, "apps")):
            missing = names - set(mapping)
            if missing:
                raise ValueError(
                    f"{label} missing entries for {sorted(missing)}")

    # -- Step E from the manifest alone ---------------------------------------

    def cluster_of(self, codelet_name: str) -> int:
        for idx, cluster in enumerate(self.clusters):
            if codelet_name in cluster:
                return idx
        raise KeyError(codelet_name)

    def predict(self, rep_target_seconds: Mapping[str, float]
                ) -> Dict[str, float]:
        """Extrapolate every codelet from representative measurements."""
        out: Dict[str, float] = {}
        for idx, cluster in enumerate(self.clusters):
            rep = self.representatives[idx]
            scale = rep_target_seconds[rep] / self.ref_seconds[rep]
            for name in cluster:
                out[name] = self.ref_seconds[name] * scale
        return out

    def predict_applications(self, rep_target_seconds: Mapping[str, float]
                             ) -> Dict[str, float]:
        """Whole-application target times (coverage-scaled)."""
        predicted = self.predict(rep_target_seconds)
        totals: Dict[str, float] = {}
        for name, t in predicted.items():
            app = self.apps[name]
            totals[app] = totals.get(app, 0.0) \
                + t * self.invocations[name]
        return {app: total / self.coverage[app]
                for app, total in totals.items()}


def export_manifest(reduced: ReducedSuite) -> ReducedSuiteManifest:
    """Export Steps A-D results as a portable manifest."""
    coverage = {app.name: app.codelet_coverage
                for app in reduced.suite.applications}
    manifest = ReducedSuiteManifest(
        suite_name=reduced.suite.name,
        reference_name="Nehalem",
        feature_names=reduced.features.feature_names,
        clusters=reduced.selection.clusters,
        representatives=reduced.representatives,
        ref_seconds={p.name: p.ref_seconds for p in reduced.profiles},
        invocations={p.name: p.codelet.invocations
                     for p in reduced.profiles},
        apps={p.name: p.app for p in reduced.profiles},
        coverage=coverage,
    )
    manifest.validate()
    return manifest


def benchmark_manifest(manifest: ReducedSuiteManifest,
                       suite: BenchmarkSuite,
                       measurer: Measurer,
                       target: Architecture) -> Dict[str, float]:
    """Measure a manifest's representatives on a target.

    The suite provides the extracted microbenchmarks (by codelet name);
    only the representatives are run — this is the entire per-target
    cost of the portable workflow.
    """
    codelets = {c.name: c for c in find_suite_codelets(suite)}
    out: Dict[str, float] = {}
    for rep in manifest.representatives:
        out[rep] = measurer.benchmark_standalone(
            codelets[rep], target).per_invocation_s
    return out
