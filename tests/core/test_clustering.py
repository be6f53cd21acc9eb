"""Tests for the from-scratch Ward clustering, cross-checked against
scipy's reference implementation and via structural properties."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import fcluster, linkage

from repro.codelets import Measurer
from repro.core import clustering
from repro.core.clustering import (ELBOW_THRESHOLD, Dendrogram, Merge,
                                   elbow_k, variance_curve, ward_linkage,
                                   within_cluster_variance)
from repro.core.pipeline import BenchmarkReducer


def _random_points(n, d, seed):
    return np.random.default_rng(seed).normal(size=(n, d))


def _labels_equivalent(a, b):
    """Same partition up to label renaming."""
    mapping = {}
    for x, y in zip(a, b):
        if x in mapping and mapping[x] != y:
            return False
        mapping[x] = y
    return len(set(mapping.values())) == len(mapping)


class TestWardAgainstScipy:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("n,d", [(8, 2), (20, 5), (40, 10)])
    def test_merge_heights_match(self, n, d, seed):
        pts = _random_points(n, d, seed)
        ours = ward_linkage(pts)
        ref = linkage(pts, method="ward")
        np.testing.assert_allclose(ours.heights(), ref[:, 2],
                                   rtol=1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_cuts_match(self, seed, k):
        pts = _random_points(24, 4, seed)
        ours = ward_linkage(pts).cut(k)
        ref = fcluster(linkage(pts, method="ward"), k,
                       criterion="maxclust")
        assert _labels_equivalent(ours, ref)


class TestDendrogram:
    def test_cut_extremes(self):
        pts = _random_points(10, 3, 7)
        dg = ward_linkage(pts)
        assert len(np.unique(dg.cut(1))) == 1
        assert len(np.unique(dg.cut(10))) == 10

    def test_cut_bounds_checked(self):
        dg = ward_linkage(_random_points(5, 2, 0))
        with pytest.raises(ValueError):
            dg.cut(0)
        with pytest.raises(ValueError):
            dg.cut(6)

    def test_single_observation(self):
        dg = ward_linkage(np.zeros((1, 4)))
        assert dg.n_leaves == 1
        np.testing.assert_array_equal(dg.cut(1), [0])

    def test_heights_monotone(self):
        for seed in range(5):
            dg = ward_linkage(_random_points(30, 6, seed))
            h = dg.heights()
            assert (np.diff(h) >= -1e-9).all()

    def test_obvious_clusters_found(self):
        rng = np.random.default_rng(11)
        a = rng.normal(0, 0.05, size=(10, 2))
        b = rng.normal(5, 0.05, size=(10, 2)) + [5, 0]
        pts = np.vstack([a, b])
        labels = ward_linkage(pts).cut(2)
        assert len(set(labels[:10])) == 1
        assert len(set(labels[10:])) == 1
        assert labels[0] != labels[10]

    @given(st.integers(3, 16), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_cut_produces_exactly_k_clusters(self, n, seed):
        pts = _random_points(n, 3, seed)
        dg = ward_linkage(pts)
        for k in range(1, n + 1):
            assert len(np.unique(dg.cut(k))) == k

    @given(st.integers(4, 14), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_cuts_are_nested_refinements(self, n, seed):
        """cut(k+1) refines cut(k): no pair split in k is rejoined."""
        pts = _random_points(n, 3, seed)
        dg = ward_linkage(pts)
        for k in range(1, n):
            coarse = dg.cut(k)
            fine = dg.cut(k + 1)
            for x in range(n):
                for y in range(x + 1, n):
                    if fine[x] == fine[y]:
                        assert coarse[x] == coarse[y]


class TestVarianceAndElbow:
    def test_variance_zero_at_full_split(self):
        pts = _random_points(12, 4, 3)
        assert within_cluster_variance(pts, np.arange(12)) == \
            pytest.approx(0.0)

    def test_variance_total_at_one_cluster(self):
        pts = _random_points(12, 4, 3)
        w1 = within_cluster_variance(pts, np.zeros(12, dtype=int))
        total = ((pts - pts.mean(axis=0)) ** 2).sum()
        assert w1 == pytest.approx(total)

    @given(st.integers(5, 20), st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_variance_curve_monotone_decreasing(self, n, seed):
        pts = _random_points(n, 4, seed)
        dg = ward_linkage(pts)
        w = variance_curve(pts, dg)
        assert (np.diff(w) <= 1e-9).all()

    def test_elbow_finds_planted_k(self):
        rng = np.random.default_rng(21)
        centers = np.array([[0, 0], [10, 0], [0, 10], [10, 10]])
        pts = np.vstack([c + rng.normal(0, 0.1, size=(12, 2))
                         for c in centers])
        dg = ward_linkage(pts)
        k = elbow_k(pts, dg, k_max=24)
        assert k == 4

    def test_elbow_identical_points(self):
        pts = np.ones((10, 3))
        dg = ward_linkage(pts)
        assert elbow_k(pts, dg) == 1

    def test_elbow_respects_k_max(self):
        pts = _random_points(30, 3, 9)
        dg = ward_linkage(pts)
        assert elbow_k(pts, dg, k_max=5) <= 5

    def test_threshold_controls_k(self):
        pts = _random_points(40, 5, 10)
        dg = ward_linkage(pts)
        loose = elbow_k(pts, dg, threshold=0.05)
        tight = elbow_k(pts, dg, threshold=0.001)
        assert tight >= loose


def _recomputed_curve(points, dg, k_max=None):
    """The oracle: cut at every k and recompute W(k) from scratch."""
    top = dg.n_leaves if k_max is None else min(k_max, dg.n_leaves)
    return np.array([within_cluster_variance(points, dg.cut(k))
                     for k in range(1, top + 1)])


def _elbow_on_curve(w, threshold=ELBOW_THRESHOLD):
    """Thorndike's rule read off a whole precomputed curve."""
    if w[0] <= 1e-12:
        return 1
    improvements = w[:-1] - w[1:]
    for k in range(1, len(w) + 1):
        if k == len(w) or improvements[k - 1] < threshold * w[0]:
            return k


@pytest.fixture(scope="module")
def suite_rows(nr_suite, nas_suite):
    """Normalized Step C feature matrices of the paper suites."""
    return {suite.name: BenchmarkReducer(suite, Measurer())
            .feature_matrix().normalized()
            for suite in (nr_suite, nas_suite)}


K_MAXES = [None, 1, 2, 24]


class TestExactSweep:
    """``variance_curve`` sweeps the dendrogram top-down, scoring each
    cluster once; every W(k) must equal the per-k recompute exactly."""

    @given(n=st.integers(1, 30), d=st.integers(1, 6),
           seed=st.integers(0, 2 ** 32 - 1),
           log_scale=st.integers(-8, 8),
           k_max=st.sampled_from(K_MAXES))
    @settings(max_examples=60, deadline=None)
    def test_matches_recompute(self, n, d, seed, log_scale, k_max):
        pts = _random_points(n, d, seed) * 10.0 ** log_scale
        dg = ward_linkage(pts)
        assert np.array_equal(variance_curve(pts, dg, k_max),
                              _recomputed_curve(pts, dg, k_max))

    @pytest.mark.parametrize("k_max", K_MAXES)
    def test_integer_tie_lattice(self, k_max):
        pts = np.random.default_rng(64).integers(
            0, 3, size=(64, 4)).astype(float)
        dg = ward_linkage(pts)
        assert np.array_equal(variance_curve(pts, dg, k_max),
                              _recomputed_curve(pts, dg, k_max))

    @pytest.mark.parametrize("k_max", K_MAXES)
    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_scales(self, scale, k_max):
        pts = _random_points(20, 3, 17) * scale
        dg = ward_linkage(pts)
        assert np.array_equal(variance_curve(pts, dg, k_max),
                              _recomputed_curve(pts, dg, k_max))

    @pytest.mark.parametrize("k_max", K_MAXES)
    @pytest.mark.parametrize("n", [1, 2])
    def test_one_and_two_rows(self, n, k_max):
        pts = _random_points(n, 3, n)
        dg = ward_linkage(pts)
        assert np.array_equal(variance_curve(pts, dg, k_max),
                              _recomputed_curve(pts, dg, k_max))

    @pytest.mark.parametrize("k_max", K_MAXES)
    @pytest.mark.parametrize("suite,rows", [("NR", 28), ("NAS", 67)])
    def test_paper_suite_features(self, suite_rows, suite, rows, k_max):
        pts = suite_rows[suite]
        assert pts.shape[0] == rows
        dg = ward_linkage(pts)
        assert np.array_equal(variance_curve(pts, dg, k_max),
                              _recomputed_curve(pts, dg, k_max))
        assert elbow_k(pts, dg, k_max) == \
            _elbow_on_curve(_recomputed_curve(pts, dg, k_max))

    @given(n=st.integers(3, 30), seed=st.integers(0, 2 ** 32 - 1),
           k_max=st.sampled_from(K_MAXES),
           threshold=st.sampled_from([0.001, ELBOW_THRESHOLD, 0.05]))
    @settings(max_examples=40, deadline=None)
    def test_elbow_stops_at_the_full_curve_decision(self, n, seed, k_max,
                                                    threshold):
        pts = _random_points(n, 4, seed)
        dg = ward_linkage(pts)
        assert elbow_k(pts, dg, k_max, threshold) == _elbow_on_curve(
            _recomputed_curve(pts, dg, k_max), threshold)

    def test_elbow_neither_cuts_nor_recomputes(self, monkeypatch):
        calls = Counter()
        cut, recompute = Dendrogram.cut, clustering.within_cluster_variance

        def counted_cut(self, k):
            calls["cut"] += 1
            return cut(self, k)

        def counted_recompute(points, labels):
            calls["within_cluster_variance"] += 1
            return recompute(points, labels)

        monkeypatch.setattr(Dendrogram, "cut", counted_cut)
        monkeypatch.setattr(clustering, "within_cluster_variance",
                            counted_recompute)
        pts = _random_points(28, 14, 5)
        dg = ward_linkage(pts)
        elbow_k(pts, dg, k_max=24)
        variance_curve(pts, dg, k_max=24)
        assert calls == Counter()
        # The counters do see the oracle's calls.
        dg.cut(3)
        clustering.within_cluster_variance(pts, np.zeros(28, dtype=int))
        assert calls == Counter(cut=1, within_cluster_variance=1)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_k_max_below_one_rejected(self, bad):
        pts = _random_points(10, 3, 4)
        dg = ward_linkage(pts)
        message = f"k_max must be >= 1 or None, got {bad}"
        with pytest.raises(ValueError, match=message):
            variance_curve(pts, dg, k_max=bad)
        with pytest.raises(ValueError, match=message):
            elbow_k(pts, dg, k_max=bad)

    def test_k_max_none_means_every_k(self):
        pts = _random_points(10, 3, 4)
        dg = ward_linkage(pts)
        assert len(variance_curve(pts, dg, k_max=None)) == 10
        assert elbow_k(pts, dg, k_max=None) == elbow_k(pts, dg, k_max=10)

    def test_row_count_must_match_the_dendrogram(self):
        pts = _random_points(10, 3, 4)
        dg = ward_linkage(pts)
        with pytest.raises(ValueError, match="9 rows for a dendrogram"):
            variance_curve(pts[:9], dg)


class TestCutChainRegression:
    """``cut`` on a degenerate chain dendrogram (every merge absorbs one
    more leaf).  With naive union-find linking this shape degenerates to
    quadratic find chains; union by rank + path compression keeps it
    near-linear.  1k leaves is large enough that a regression here is
    obvious in CI wall time while the healthy path stays instant."""

    @staticmethod
    def _chain(n: int) -> Dendrogram:
        merges = [Merge(a=0, b=1, height=1.0, size=2)]
        for i in range(1, n - 1):
            # Merge i joins the growing chain (cluster id n + i - 1)
            # with leaf i + 1.
            merges.append(Merge(a=n + i - 1, b=i + 1,
                                height=float(i + 1), size=i + 2))
        return Dendrogram(n_leaves=n, merges=tuple(merges))

    def test_chain_cut_labels(self):
        n = 1000
        dg = self._chain(n)
        assert list(dg.cut(1)) == [0] * n
        assert list(dg.cut(n)) == list(range(n))
        # Cutting to k clusters leaves the first n - k + 1 leaves fused
        # and the remaining k - 1 leaves singleton, in first-appearance
        # label order.
        for k in (2, 17, 500, 999):
            labels = list(dg.cut(k))
            fused = n - k + 1
            assert labels == [0] * fused + list(range(1, k))

    def test_chain_cut_is_fast(self):
        import time
        dg = self._chain(1000)
        start = time.perf_counter()
        for k in range(1, 1001, 50):
            dg.cut(k)
        assert time.perf_counter() - start < 2.0
