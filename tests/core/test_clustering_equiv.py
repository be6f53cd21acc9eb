"""Property suite: the vectorized greedy linkage is *bit-compatible*
with the O(n³) reference loop.

These are the equivalence guarantees the clustering fast path rests on
(see docs/PERFORMANCE.md): same merges, same heights, same ``cut()``
labels — including on exact distance ties, which the ``duplicates`` /
``quantized`` / ``lattice`` matrix variants manufacture on purpose.
Deterministic cases past the strategy's row cap cover the paper suites'
own feature matrices and a large tie plateau.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codelets import Measurer
from repro.core.clustering import (LINKAGE_METHODS, linkage,
                                   linkage_reference)
from repro.core.pipeline import BenchmarkReducer
from repro.verify.strategies import feature_matrices

METHODS = sorted(LINKAGE_METHODS)


def assert_same_dendrogram(fast, slow):
    """Bitwise merge/height equality plus identical cuts at every k."""
    assert len(fast.merges) == len(slow.merges)
    for mf, ms in zip(fast.merges, slow.merges):
        assert (mf.a, mf.b, mf.size) == (ms.a, ms.b, ms.size)
        # The contract is bitwise, but assert with a tolerance message
        # first so a near-miss shrinks to a readable report.
        assert mf.height == pytest.approx(ms.height, abs=1e-9)
        assert mf.height == ms.height, "heights must be bit-identical"
    for k in range(1, fast.n_leaves + 1):
        assert list(fast.cut(k)) == list(slow.cut(k))


class TestGreedyEquivalence:
    @given(points=feature_matrices(), method=st.sampled_from(METHODS))
    @settings(max_examples=60, deadline=None)
    def test_fast_matches_reference(self, points, method):
        fast = linkage(points, method=method)
        slow = linkage_reference(points, method=method)
        assert_same_dendrogram(fast, slow)


@pytest.fixture(scope="module")
def suite_rows(nr_suite, nas_suite):
    """Normalized Step C feature matrices of the paper suites."""
    return {suite.name: BenchmarkReducer(suite, Measurer())
            .feature_matrix().normalized()
            for suite in (nr_suite, nas_suite)}


class TestPastTheRowCap:
    """Deterministic sizes the Hypothesis strategy never reaches."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("suite,rows", [("NR", 28), ("NAS", 67)])
    def test_paper_suite_features(self, suite_rows, suite, rows, method):
        points = suite_rows[suite]
        assert points.shape[0] == rows
        assert_same_dendrogram(linkage(points, method=method),
                               linkage_reference(points, method=method))

    @pytest.mark.parametrize("method", METHODS)
    def test_lattice_tie_plateau(self, method):
        rng = np.random.default_rng(128)
        points = rng.integers(0, 3, size=(128, 4)).astype(float)
        assert_same_dendrogram(linkage(points, method=method),
                               linkage_reference(points, method=method))


class TestValidation:
    def test_skew_requires_ward(self):
        with pytest.raises(ValueError, match="ward"):
            linkage(np.zeros((3, 2)), method="single",
                    ward_coeff_skew=1e-3)

    def test_skew_changes_the_dendrogram(self):
        # The planted slow-path-skew defect must actually be observable.
        rng = np.random.default_rng(11)
        points = rng.normal(size=(24, 4))
        plain = linkage(points)
        skewed = linkage(points, ward_coeff_skew=1e-3)
        assert any(a.height != b.height
                   for a, b in zip(plain.merges, skewed.merges))

    @pytest.mark.parametrize("impl", [linkage, linkage_reference],
                             ids=["linkage", "linkage_reference"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_rows_rejected(self, impl, bad):
        points = np.arange(16.0).reshape(8, 2)
        points[5, 1] = bad
        points[2, 0] = -bad
        with pytest.raises(ValueError, match=r"non-finite .* \[2, 5\]"):
            impl(points)
