"""Shared experiment state.

All experiment drivers share one :class:`ExperimentContext` so the
expensive parts — suite construction, Step A/B profiling, dendrograms —
run once per process.  ``scale`` shrinks suite working sets for fast
test runs; the experiments use 1.0 (the CLASS-B-like configuration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..codelets.measurement import Measurer
from ..core.pipeline import (BenchmarkReducer, ReducedSuite,
                             SubsettingConfig, TargetEvaluation,
                             evaluate_on_target)
from ..machine.architecture import Architecture
from ..suites import build_nas_suite, build_nr_suite


@dataclass
class ExperimentContext:
    """Lazily-built shared state for the paper's experiments."""

    scale: float = 1.0
    measurer: Measurer = field(default_factory=Measurer)
    config: SubsettingConfig = field(default_factory=SubsettingConfig)
    _nr: Optional[BenchmarkReducer] = None
    _nas: Optional[BenchmarkReducer] = None
    _reduced: Dict = field(default_factory=dict)
    _evaluations: Dict = field(default_factory=dict)

    @property
    def nr(self) -> BenchmarkReducer:
        if self._nr is None:
            self._nr = BenchmarkReducer(build_nr_suite(self.scale),
                                        self.measurer, self.config)
        return self._nr

    @property
    def nas(self) -> BenchmarkReducer:
        if self._nas is None:
            self._nas = BenchmarkReducer(build_nas_suite(self.scale),
                                         self.measurer, self.config)
        return self._nas

    def reduced(self, suite: str, k) -> ReducedSuite:
        """Cached Steps C-D result for ('nr'|'nas', k)."""
        key = (suite, k)
        if key not in self._reduced:
            reducer = self.nr if suite == "nr" else self.nas
            self._reduced[key] = reducer.reduce(k)
        return self._reduced[key]

    def evaluation(self, suite: str, k,
                   target: Architecture) -> TargetEvaluation:
        """Cached Step E evaluation for ('nr'|'nas', k, target)."""
        key = (suite, k, target.name)
        if key not in self._evaluations:
            self._evaluations[key] = evaluate_on_target(
                self.reduced(suite, k), target, self.measurer)
        return self._evaluations[key]
