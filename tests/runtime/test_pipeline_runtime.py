"""Acceptance: cold vs warm profile-cache pipeline runs are bit-identical
to an uncached run on the seed suite, and a warm-cache re-run
re-profiles nothing (verified by cache-hit counters)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codelets import Measurer, find_suite_codelets, profile_codelets
from repro.core.pipeline import (BenchmarkReducer, SubsettingConfig,
                                 evaluate_on_target)
from repro.machine import TARGETS
from repro.runtime import RuntimeConfig
from repro.suites import build_nas_suite

pytestmark = pytest.mark.runtime


@pytest.fixture(scope="module")
def suite():
    return build_nas_suite()


@pytest.fixture(scope="module")
def uncached_reduced(suite):
    """The reference result: cold, no cache."""
    return BenchmarkReducer(suite, Measurer()).reduce("elbow")


@pytest.fixture(scope="module")
def cached_runs(suite, tmp_path_factory):
    """A cold run that populates a fresh cache, then a warm re-run."""
    config = SubsettingConfig(runtime=RuntimeConfig(
        cache_dir=str(tmp_path_factory.mktemp("cache"))))
    cold = BenchmarkReducer(suite, Measurer(), config)
    cold_reduced = cold.reduce("elbow")
    warm = BenchmarkReducer(suite, Measurer(), config)
    warm_reduced = warm.reduce("elbow")
    return cold, cold_reduced, warm, warm_reduced


def test_cold_vs_warm_cache_bit_identical(suite, uncached_reduced,
                                          cached_runs):
    cold, cold_reduced, warm, warm_reduced = cached_runs
    n_codelets = len(find_suite_codelets(suite))

    # The cold run populates the cache...
    assert cold.cache_stats.misses == n_codelets
    assert cold.cache_stats.stores == n_codelets
    assert cold.cache_stats.hits == 0

    # ...and the warm run re-profiles nothing at all.
    assert warm.cache_stats.hits == n_codelets
    assert warm.cache_stats.misses == 0
    assert warm.cache_stats.stores == 0

    for reduced in (cold_reduced, warm_reduced):
        # Same labels (bit-identical cluster assignment)...
        assert np.array_equal(reduced.labels, uncached_reduced.labels)
        # ...same representatives, clusters and elbow...
        assert (reduced.representatives
                == uncached_reduced.representatives)
        assert (reduced.selection.clusters
                == uncached_reduced.selection.clusters)
        assert reduced.elbow == uncached_reduced.elbow
        assert reduced.k == uncached_reduced.k
        # ...and bit-identical profiles and feature rows.
        assert reduced.profiles == uncached_reduced.profiles
        assert np.array_equal(reduced.normalized_rows,
                              uncached_reduced.normalized_rows)
        assert reduced.discarded == uncached_reduced.discarded


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.name)
def test_warm_cache_evaluation_bit_identical(uncached_reduced,
                                             cached_runs, target):
    warm_reduced = cached_runs[3]
    expected = evaluate_on_target(uncached_reduced, target, Measurer())
    got = evaluate_on_target(warm_reduced, target, Measurer())
    assert got.median_error_pct == expected.median_error_pct
    assert got.average_error_pct == expected.average_error_pct
    assert got.codelets == expected.codelets
    assert got.applications == expected.applications
    assert got.reduction == expected.reduction


def test_profiling_warms_the_callers_measurer(suite):
    codelets = find_suite_codelets(suite)[:4]
    measurer = Measurer()
    profile_codelets(codelets, measurer)
    assert measurer.runs_snapshot()


def test_cache_stats_none_without_cache(suite):
    reducer = BenchmarkReducer(suite, Measurer())
    assert reducer.cache_stats is None
