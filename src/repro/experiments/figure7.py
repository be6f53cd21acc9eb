"""Figure 7 — feature-guided clustering vs random clusterings.

For each K, compares the median prediction error of the feature-guided
clustering against the worst / median / best of ``samples`` random
K-partitionings (the paper uses 1000) on each target.  The claim to
reproduce: the feature-guided clustering is consistently close to or
better than the *best* random clustering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..core.random_baseline import (RandomClusteringStats,
                                    random_clustering_errors)
from ..machine.architecture import ATOM, CORE2, SANDY_BRIDGE
from .context import ExperimentContext
from .report import format_series


@dataclass(frozen=True)
class Figure7Point:
    arch_name: str
    k: int
    guided_error: float
    random: RandomClusteringStats


@dataclass(frozen=True)
class Figure7Result:
    points: Tuple[Figure7Point, ...]
    samples: int

    def series(self, arch_name: str) -> Tuple[Figure7Point, ...]:
        return tuple(p for p in self.points if p.arch_name == arch_name)

    def guided_beats_median_fraction(self, arch_name: str) -> float:
        """Fraction of K where guided clustering beats the random
        median — the headline claim quantified."""
        pts = self.series(arch_name)
        wins = sum(1 for p in pts if p.guided_error <= p.random.median)
        return wins / len(pts)

    def format(self) -> str:
        lines = [f"Figure 7: guided vs {self.samples} random "
                 f"clusterings"]
        for arch in ("Atom", "Core 2", "Sandy Bridge"):
            pts = self.series(arch)
            ks = [p.k for p in pts]
            lines.append(format_series(
                f"{arch} guided %", ks, [p.guided_error for p in pts]))
            lines.append(format_series(
                f"{arch} random best %", ks,
                [p.random.best for p in pts]))
            lines.append(format_series(
                f"{arch} random median %", ks,
                [p.random.median for p in pts]))
            lines.append(format_series(
                f"{arch} random worst %", ks,
                [p.random.worst for p in pts]))
            lines.append(
                f"  guided <= random median at "
                f"{100 * self.guided_beats_median_fraction(arch):.0f}% "
                f"of the K values")
        return "\n".join(lines)


def run_figure7(ctx: ExperimentContext,
                ks: Sequence[int] = (2, 4, 8, 12, 16, 20, 24),
                samples: int = 200) -> Figure7Result:
    profiles = ctx.nas.profiling().profiles
    points = []
    for k in ks:
        for arch in (ATOM, CORE2, SANDY_BRIDGE):
            guided = ctx.evaluation("nas", k, arch).median_error_pct
            rand = random_clustering_errors(profiles, ctx.measurer,
                                            arch, k, samples)
            points.append(Figure7Point(arch.name, k, guided, rand))
    return Figure7Result(tuple(points), samples)
