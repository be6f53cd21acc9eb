"""Clustering hot-path benchmarks: vectorized greedy vs reference.

These pin the performance contract of the clustering fast path (see
docs/PERFORMANCE.md): the vectorized greedy linkage must stay well
ahead of the O(n³) reference loop it is bit-compatible with.

Run with ``pytest benchmarks/test_clustering_bench.py --benchmark-only``
or ``make bench``.  The committed trajectory (``BENCH_clustering.json``)
is maintained by ``benchmarks/clustering_trajectory.py``, which CI
checks machine-independently via speedup ratios.
"""

import numpy as np
import pytest

from repro.core.clustering import linkage, linkage_reference

#: Feature-space width matched to the paper's Table 2 feature set.
N_FEATURES = 14

SIZES = (32, 128, 512)
#: The O(n³) loop is benchmarked only where a round stays sub-second.
REFERENCE_SIZES = (32, 128)


def _points(n: int) -> np.ndarray:
    return np.random.default_rng(n).normal(size=(n, N_FEATURES))


@pytest.mark.parametrize("n", SIZES)
def test_linkage(benchmark, n):
    points = _points(n)
    benchmark.group = f"linkage n={n}"
    benchmark(linkage, points)


@pytest.mark.parametrize("n", REFERENCE_SIZES)
def test_reference_linkage(benchmark, n):
    points = _points(n)
    benchmark.group = f"linkage n={n}"
    benchmark(linkage_reference, points)
