"""Table 2 — GA feature selection on Numerical Recipes.

Runs the genetic algorithm over the 76-feature space with the paper's
fitness (max of Atom / Sandy Bridge NR median errors, times the elbow
K), then compares the winning subset against the paper's published
feature set (Table 2) and against using all 76 features.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..core.features import ALL_FEATURE_NAMES, TABLE2_FEATURES
from ..core.ga import GAConfig, select_features
from .context import ExperimentContext
from .report import format_table


@dataclass(frozen=True)
class Table2Result:
    selected: Tuple[str, ...]
    fitness: float
    all_features_fitness: float
    paper_set_fitness: float
    overlap_with_paper: Tuple[str, ...]
    history: Tuple[float, ...]

    @property
    def n_selected(self) -> int:
        return len(self.selected)

    def format(self) -> str:
        rows = [(name, "yes" if name in TABLE2_FEATURES else "no")
                for name in self.selected]
        table = format_table(
            ("GA-selected feature", "in paper's Table 2 set"), rows,
            "Table 2: best feature set found by the GA")
        summary = (
            f"\nGA fitness (max median err x K): {self.fitness:.2f}"
            f"\nfitness of all 76 features:      "
            f"{self.all_features_fitness:.2f}"
            f"\nfitness of the paper's set:      "
            f"{self.paper_set_fitness:.2f}"
            f"\nfeatures selected: {self.n_selected} "
            f"(paper selected 14); overlap with paper's set: "
            f"{len(self.overlap_with_paper)}")
        return table + summary


def run_table2(ctx: ExperimentContext,
               config: GAConfig = GAConfig()) -> Table2Result:
    profiles = ctx.nr.profiling().profiles
    result, problem = select_features(profiles, ctx.measurer, config)
    selected = result.selected(ALL_FEATURE_NAMES)

    def mask_for(names) -> np.ndarray:
        return np.array([n in names for n in ALL_FEATURE_NAMES])

    all_fitness = problem.evaluate_mask(
        np.ones(len(ALL_FEATURE_NAMES), dtype=bool))
    paper_fitness = problem.evaluate_mask(mask_for(TABLE2_FEATURES))

    return Table2Result(
        selected=selected,
        fitness=result.best_fitness,
        all_features_fitness=float(all_fitness),
        paper_set_fitness=float(paper_fitness),
        overlap_with_paper=tuple(n for n in selected
                                 if n in TABLE2_FEATURES),
        history=result.history,
    )
