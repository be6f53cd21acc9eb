"""Random-clustering baseline (Figure 7).

To show the feature-guided clustering earns its keep, the paper compares
it against 1000 *random* partitionings for every K from 2 to 24: the GA
feature set should sit near or below the best random clustering's
error.  A random partitioning has no feature space, so representatives
are drawn uniformly from each cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..codelets.measurement import Measurer
from ..codelets.profiling import CodeletProfile
from ..machine.architecture import Architecture
from .prediction import percent_error


def random_partition(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """A uniform random partition of ``n`` items into exactly ``k``
    non-empty clusters."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    labels = rng.integers(0, k, size=n)
    # Force non-emptiness: assign one random distinct item per cluster.
    seeds = rng.permutation(n)[:k]
    labels[seeds] = np.arange(k)
    return labels


@dataclass(frozen=True)
class RandomClusteringStats:
    """Error distribution of random clusterings at one K."""

    k: int
    arch_name: str
    worst: float
    median: float
    best: float
    samples: int


def _evaluate_partition(profiles: Sequence[CodeletProfile],
                        labels: np.ndarray,
                        reps_idx: Sequence[int],
                        real: Dict[str, float],
                        bench: Dict[str, float]) -> float:
    """Median prediction error of one (partition, representatives)."""
    errors: List[float] = []
    rep_of_cluster = {int(labels[i]): i for i in reps_idx}
    for p, label in zip(profiles, labels.tolist()):
        rep = profiles[rep_of_cluster[label]]
        predicted = p.ref_seconds * bench[rep.name] / rep.ref_seconds
        errors.append(percent_error(predicted, real[p.name]))
    return float(np.median(errors))


def random_clustering_errors(profiles: Sequence[CodeletProfile],
                             measurer: Measurer,
                             target: Architecture,
                             k: int,
                             samples: int = 1000,
                             seed: int = 7) -> RandomClusteringStats:
    """Figure 7 statistics: worst/median/best median-error over
    ``samples`` random K-partitionings on one target."""
    rng = np.random.default_rng(seed + 1000 * k)
    real = {p.name: measurer.measure_inapp(p.codelet, target)
            for p in profiles}
    bench = {p.name: measurer.benchmark_standalone(
        p.codelet, target).per_invocation_s for p in profiles}
    n = len(profiles)
    results: List[float] = []
    for _ in range(samples):
        labels = random_partition(n, k, rng)
        reps_idx = []
        for cluster in range(k):
            members = np.flatnonzero(labels == cluster)
            reps_idx.append(int(rng.choice(members)))
        results.append(_evaluate_partition(profiles, labels, reps_idx,
                                           real, bench))
    arr = np.asarray(results)
    return RandomClusteringStats(
        k=k,
        arch_name=target.name,
        worst=float(arr.max()),
        median=float(np.median(arr)),
        best=float(arr.min()),
        samples=samples,
    )
