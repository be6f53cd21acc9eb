"""The prediction model — Step E (Section 3.5).

Codelets in a cluster are assumed to share their representative's
speedup between reference and target:

    t_tar_i  ≈  t_ref_i / s_rk  =  t_ref_i * t_tar_rk / t_ref_rk

In matrix form ``t_tar_all ≈ M · t_tar_repr`` with
``M[i, k] = t_ref_i / t_ref_rk`` when codelet i belongs to cluster k.
The module also aggregates codelet predictions into whole-application
times (invocation-weighted, with the uncovered runtime fraction assumed
to scale like the covered part — Section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from ..codelets.profiling import CodeletProfile
from .representatives import SelectionResult


@dataclass(frozen=True)
class ClusterModel:
    """Everything Step E needs: cluster structure plus reference times."""

    selection: SelectionResult
    codelet_names: Tuple[str, ...]
    ref_times: Dict[str, float]         # measured on the reference (s)

    @property
    def k(self) -> int:
        return self.selection.k

    @property
    def representatives(self) -> Tuple[str, ...]:
        return self.selection.representatives

    def matrix(self) -> np.ndarray:
        """The N×K model matrix M of Section 3.5."""
        n = len(self.codelet_names)
        m = np.zeros((n, self.k))
        for i, name in enumerate(self.codelet_names):
            k = self.selection.cluster_of(name)
            rep = self.representatives[k]
            m[i, k] = self.ref_times[name] / self.ref_times[rep]
        return m

    def predict(self, rep_target_times: Mapping[str, float]) -> Dict[str, float]:
        """Predict every codelet's target time from representative
        measurements (``t_all = M · t_repr``)."""
        t_repr = np.array([rep_target_times[r]
                           for r in self.representatives])
        t_all = self.matrix() @ t_repr
        return dict(zip(self.codelet_names, t_all))


def build_cluster_model(profiles: Sequence[CodeletProfile],
                        selection: SelectionResult) -> ClusterModel:
    """Assemble a :class:`ClusterModel` from Step B profiles and the
    Step D selection."""
    return ClusterModel(
        selection=selection,
        codelet_names=tuple(p.name for p in profiles),
        ref_times={p.name: p.ref_seconds for p in profiles},
    )


# ---------------------------------------------------------------------------
# Error metrics
# ---------------------------------------------------------------------------


def percent_error(predicted: float, real: float) -> float:
    """|predicted - real| / real, as a percentage."""
    if real <= 0:
        raise ValueError("real time must be positive")
    return 100.0 * abs(predicted - real) / real


@dataclass(frozen=True)
class CodeletPrediction:
    """One codelet's prediction on one target."""

    name: str
    app: str
    ref_seconds: float
    predicted_seconds: float
    real_seconds: float

    @property
    def error_pct(self) -> float:
        return percent_error(self.predicted_seconds, self.real_seconds)

    @property
    def real_speedup(self) -> float:
        return self.ref_seconds / self.real_seconds

    @property
    def predicted_speedup(self) -> float:
        return self.ref_seconds / self.predicted_seconds


def median_error(predictions: Sequence[CodeletPrediction]) -> float:
    if not predictions:
        raise ValueError(
            "median_error: no codelet predictions to aggregate — the "
            "evaluation kept zero codelets (did quarantine drop them "
            "all?)")
    return float(np.median([p.error_pct for p in predictions]))


def average_error(predictions: Sequence[CodeletPrediction]) -> float:
    if not predictions:
        raise ValueError(
            "average_error: no codelet predictions to aggregate — the "
            "evaluation kept zero codelets (did quarantine drop them "
            "all?)")
    return float(np.mean([p.error_pct for p in predictions]))


# ---------------------------------------------------------------------------
# Whole-application aggregation (Section 4.4)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ApplicationPrediction:
    """Whole-application times: reference, predicted and real target."""

    app: str
    ref_seconds: float
    predicted_seconds: float
    real_seconds: float

    @property
    def error_pct(self) -> float:
        return percent_error(self.predicted_seconds, self.real_seconds)

    @property
    def real_speedup(self) -> float:
        return self.ref_seconds / self.real_seconds

    @property
    def predicted_speedup(self) -> float:
        return self.ref_seconds / self.predicted_seconds


def aggregate_application(app_name: str,
                          profiles: Sequence[CodeletProfile],
                          predicted: Mapping[str, float],
                          real: Mapping[str, float],
                          coverage: float) -> ApplicationPrediction:
    """Aggregate codelet times into application times.

    Covered time is the invocation-weighted sum over the application's
    codelets; the uncovered ``1 - coverage`` fraction is assumed to
    speed up like the covered part, i.e. total = covered / coverage on
    every machine (the paper's two-step aggregation).
    """
    mine = [p for p in profiles if p.app == app_name]
    if not mine:
        raise ValueError(f"no profiled codelets for application "
                         f"{app_name!r}")
    ref = sum(p.ref_seconds * p.codelet.invocations for p in mine)
    pred = sum(predicted[p.name] * p.codelet.invocations for p in mine)
    actual = sum(real[p.name] * p.codelet.invocations for p in mine)
    return ApplicationPrediction(
        app=app_name,
        ref_seconds=ref / coverage,
        predicted_seconds=pred / coverage,
        real_seconds=actual / coverage,
    )


def geometric_mean_speedup(apps: Sequence[ApplicationPrediction],
                           predicted: bool) -> float:
    """Geometric mean of application speedups (Figure 6)."""
    values = [a.predicted_speedup if predicted else a.real_speedup
              for a in apps]
    return float(np.exp(np.mean(np.log(values))))
