"""Failure-injection tests: the pipeline must degrade loudly and
gracefully on hostile inputs, not silently mispredict."""

import numpy as np
import pytest

from repro.codelets import (Application, BenchmarkSuite, CodeletRegion,
                            Measurer, Routine, find_codelets)
from repro.core.pipeline import BenchmarkReducer, SubsettingConfig
from repro.core.clustering import ward_linkage
from repro.ir import DP, SourceLoc
from repro.machine import NoiseModel
from repro.suites import patterns as P


def _region(kernel, invocations=200, **kw):
    return CodeletRegion((kernel,), (1.0,), invocations,
                         kernel.srcloc, **kw)


def _suite(regions, coverage=0.92, name="inj"):
    app = Application(name, (Routine("f.f", tuple(regions)),),
                      codelet_coverage=coverage)
    return BenchmarkSuite(name.upper(), (app,))


def _k(name, line, maker=P.saxpy, n=32_768, **kw):
    return maker(name, n, DP, SourceLoc("f.f", line, line + 9), **kw)


class TestDegenerateSuites:
    def test_single_codelet_suite(self):
        suite = _suite([_region(_k("one", 1))])
        reduced = BenchmarkReducer(suite, Measurer()).reduce("elbow")
        assert reduced.k == 1
        assert len(reduced.representatives) == 1

    def test_identical_codelets_collapse_to_one_cluster(self):
        regions = [_region(_k(f"c{i}", 10 * (i + 1)))
                   for i in range(6)]
        suite = _suite(regions)
        reducer = BenchmarkReducer(suite, Measurer())
        assert reducer.elbow() == 1

    def test_all_ill_behaved_suite_raises(self):
        big = P.vector_copy("vbig", 1 << 20, DP,
                            SourceLoc("f.f", 1, 9))
        small = P.vector_copy("vsmall", 1 << 14, DP,
                              SourceLoc("f.f", 1, 9))
        region = CodeletRegion((big, small), (0.5, 0.5), 50,
                               big.srcloc)
        suite = _suite([region])
        with pytest.raises(ValueError, match="ill-behaved"):
            BenchmarkReducer(suite, Measurer()).reduce(1)

    def test_everything_filtered_leaves_empty_profile_set(self):
        tiny = _region(P.vector_copy("t", 64, DP,
                                     SourceLoc("f.f", 1, 5)),
                       invocations=1)
        suite = _suite([tiny])
        reducer = BenchmarkReducer(suite, Measurer())
        assert len(reducer.profiling().profiles) == 0
        with pytest.raises(ValueError):
            reducer.reduce(1)

    def test_invalid_kernels_are_reported_not_crashed(self):
        from repro.ir import Array, Kernel
        from repro.ir.stmt import Block, Loop, Store, fresh_index
        x = Array("x", (8,), DP)
        i, j = fresh_index(), fresh_index()
        bad = Kernel("bad", (x,),
                     Block((Loop.create(i, 0, 8,
                                        [Store(x, (j + 0,), x[i])]),)),
                     SourceLoc("f.f", 99, 104))
        app = Application("a", (Routine("f.f", (
            CodeletRegion((bad,), (1.0,), 10, bad.srcloc),
            _region(_k("ok", 1)),
        )),))
        report = find_codelets(app)
        assert report.n_detected == 1
        assert len(report.rejected) == 1


class TestHostileNoise:
    def test_extreme_noise_degrades_but_never_crashes(self):
        noisy = Measurer(noise=NoiseModel(seed=1, rel_sigma=0.4))
        regions = [_region(_k(f"c{i}", 10 * (i + 1), n=2 ** (12 + i)))
                   for i in range(5)]
        suite = _suite(regions)
        reduced = BenchmarkReducer(suite, noisy).reduce(3)
        from repro.core.pipeline import evaluate_on_target
        from repro.machine import CORE2
        result = evaluate_on_target(reduced, CORE2, noisy)
        assert np.isfinite(result.median_error_pct)
        # 40% timing noise must show up in the errors, not vanish.
        assert result.median_error_pct > 5.0

    def test_noise_free_representatives_predicted_exactly(self):
        from repro.machine import EXACT
        exact = Measurer(noise=EXACT)
        regions = [_region(_k(f"c{i}", 10 * (i + 1), n=2 ** (12 + i)))
                   for i in range(4)]
        reduced = BenchmarkReducer(_suite(regions), exact).reduce(4)
        from repro.core.pipeline import evaluate_on_target
        from repro.machine import CORE2
        result = evaluate_on_target(reduced, CORE2, exact)
        for pred in result.codelets:
            # Every codelet is its own representative: exact prediction.
            assert pred.error_pct == pytest.approx(0.0, abs=1e-9)


class TestConfigurationEdges:
    def test_k_one_still_predicts(self):
        regions = [_region(_k(f"c{i}", 10 * (i + 1), n=2 ** (12 + i)))
                   for i in range(4)]
        reduced = BenchmarkReducer(_suite(regions),
                                   Measurer()).reduce(1)
        assert reduced.k == 1
        assert len(reduced.selection.clusters[0]) == 4

    def test_empty_feature_subset_rejected(self):
        with pytest.raises(KeyError):
            SubsettingConfig(feature_names=("not_a_feature",))
            reducer = BenchmarkReducer(
                _suite([_region(_k("c", 1))]), Measurer(),
                SubsettingConfig(feature_names=("not_a_feature",)))
            reducer.feature_matrix()

    def test_clustering_rejects_empty_input(self):
        with pytest.raises(ValueError):
            ward_linkage(np.zeros((0, 4)))

    def test_zero_coverage_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Application("x", (), codelet_coverage=0.0)
