"""Cross-application vs per-application subsetting (Figure 8).

SimPoint-style approaches cluster phases *within* one program, so a
representative can never predict another application.  The paper's
method shares representatives across the whole suite; Figure 8 shows
that this exploits inter-application redundancy and reaches low errors
with far fewer representatives.

``per_application_subsetting`` simulates the SimPoint-like regime: Steps
A-E run on each application separately, with the representative budget
split evenly, and the per-codelet errors aggregated afterwards.  An
application whose codelets are all ill-behaved (MG in the paper) cannot
be predicted this way and is reported in ``unpredictable``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..codelets.codelet import BenchmarkSuite
from ..codelets.measurement import Measurer
from ..machine.architecture import Architecture
from .pipeline import BenchmarkReducer, SubsettingConfig, evaluate_on_target
from .prediction import CodeletPrediction


@dataclass(frozen=True)
class SubsettingComparison:
    """One point of Figure 8: error at a representative budget."""

    arch_name: str
    total_representatives: int
    median_error_pct: float
    codelets: Tuple[CodeletPrediction, ...]
    unpredictable: Tuple[str, ...] = ()


def cross_application_subsetting(suite: BenchmarkSuite,
                                 measurer: Measurer,
                                 target: Architecture,
                                 k: int,
                                 config: SubsettingConfig = SubsettingConfig()
                                 ) -> SubsettingComparison:
    """Shared representatives across the whole suite at budget ``k``."""
    reducer = BenchmarkReducer(suite, measurer, config)
    reduced = reducer.reduce(k)
    evaluation = evaluate_on_target(reduced, target, measurer)
    return SubsettingComparison(
        arch_name=target.name,
        total_representatives=len(reduced.representatives),
        median_error_pct=evaluation.median_error_pct,
        codelets=evaluation.codelets,
    )


def per_application_subsetting(suite: BenchmarkSuite,
                               measurer: Measurer,
                               target: Architecture,
                               reps_per_app: int,
                               config: SubsettingConfig = SubsettingConfig()
                               ) -> SubsettingComparison:
    """Independent per-application subsetting (the SimPoint-like regime).

    Each application gets ``reps_per_app`` representatives.  Apps where
    representative selection fails outright (all codelets ill-behaved)
    are excluded from the error computation and listed as
    unpredictable, as the paper does for MG.
    """
    all_predictions: List[CodeletPrediction] = []
    unpredictable: List[str] = []
    total_reps = 0
    for app in suite.applications:
        sub_suite = BenchmarkSuite(f"{suite.name}:{app.name}", (app,))
        reducer = BenchmarkReducer(sub_suite, measurer, config)
        n_codelets = len(reducer.profiling().profiles)
        if n_codelets == 0:
            unpredictable.append(app.name)
            continue
        k = max(1, min(reps_per_app, n_codelets))
        try:
            reduced = reducer.reduce(k)
        except ValueError:
            # Every codelet ill-behaved: no faithful representative.
            unpredictable.append(app.name)
            continue
        evaluation = evaluate_on_target(reduced, target, measurer)
        total_reps += len(reduced.representatives)
        all_predictions.extend(evaluation.codelets)
    if not all_predictions:
        raise ValueError("no application could be predicted")
    median = float(np.median([p.error_pct for p in all_predictions]))
    return SubsettingComparison(
        arch_name=target.name,
        total_representatives=total_reps,
        median_error_pct=median,
        codelets=tuple(all_predictions),
        unpredictable=tuple(unpredictable),
    )
