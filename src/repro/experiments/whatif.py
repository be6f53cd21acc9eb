"""What-if generalisation experiment (beyond the paper — Section 5).

The paper warns that its feature set is partly architecture-dependent
and suggests microarchitecture-independent metrics for very different
targets.  This experiment tests both claims on a machine no feature was
trained on and whose vector ISA (256-bit AVX) differs from everything
in Table 1:

1. cluster the NAS codelets with the reference-trained Table 2 feature
   set, predict Haswell;
2. cluster the same codelets with the architecture-independent feature
   set of :mod:`repro.analysis.arch_independent`, predict Haswell;
3. compare median errors at the same K.

Both pipelines share Steps A/B/D/E; only the Step C feature space
changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..analysis.arch_independent import arch_independent_matrix
from ..core.clustering import ward_linkage
from ..core.prediction import build_cluster_model, percent_error
from ..core.representatives import select_representatives
from ..machine.architecture import HASWELL, Architecture
from .context import ExperimentContext
from .report import format_table


@dataclass(frozen=True)
class WhatIfRow:
    feature_set: str
    k: int
    median_error_pct: float
    average_error_pct: float


@dataclass(frozen=True)
class WhatIfResult:
    target_name: str
    rows: Tuple[WhatIfRow, ...]

    def row(self, feature_set: str) -> WhatIfRow:
        for r in self.rows:
            if r.feature_set == feature_set:
                return r
        raise KeyError(feature_set)

    def format(self) -> str:
        table = format_table(
            ("Feature set", "K", "median %", "average %"),
            [(r.feature_set, r.k, r.median_error_pct,
              r.average_error_pct) for r in self.rows],
            f"What-if: predicting {self.target_name} (AVX, unseen in "
            f"training)")
        return (table + "\nBoth feature spaces must keep the method "
                        "usable on an unseen vector ISA (Section 5).")


def _evaluate_rows(ctx: ExperimentContext, rows: np.ndarray, k: int,
                   target: Architecture) -> Tuple[float, float, int]:
    profiles = ctx.nas.profiling().profiles
    dendrogram = ward_linkage(rows)
    selection = select_representatives(profiles, rows,
                                       dendrogram.cut(k), ctx.measurer)
    model = build_cluster_model(profiles, selection)
    by_name = {p.name: p for p in profiles}
    rep_times = {r: ctx.measurer.benchmark_standalone(
        by_name[r].codelet, target).per_invocation_s
        for r in selection.representatives}
    predicted = model.predict(rep_times)
    real = {p.name: ctx.measurer.measure_inapp(p.codelet, target)
            for p in profiles}
    errors = [percent_error(predicted[n], real[n]) for n in predicted]
    return (float(np.median(errors)), float(np.mean(errors)),
            selection.k)


def run_whatif(ctx: ExperimentContext, k: int = 16,
               target: Architecture = HASWELL) -> WhatIfResult:
    profiles = ctx.nas.profiling().profiles

    reference_rows = ctx.nas.feature_matrix().normalized()
    med, avg, final_k = _evaluate_rows(ctx, reference_rows, k, target)
    rows = [WhatIfRow("reference-trained (Table 2)", final_k, med, avg)]

    ai_matrix = arch_independent_matrix(profiles)
    ai_rows = ai_matrix.normalized()
    med, avg, final_k = _evaluate_rows(ctx, ai_rows, k, target)
    rows.append(WhatIfRow("architecture-independent", final_k, med,
                          avg))

    return WhatIfResult(target.name, tuple(rows))
