"""Tests for representative selection (Step D) and the prediction model
(Step E)."""

import numpy as np
import pytest

from repro.codelets import Measurer, find_suite_codelets, profile_codelets
from repro.core.clustering import ward_linkage
from repro.core.features import TABLE2_FEATURES, FeatureMatrix
from repro.core.prediction import (aggregate_application, build_cluster_model,
                                   geometric_mean_speedup, percent_error)
from repro.core.representatives import select_representatives
from repro.machine import NEHALEM
from repro.suites import build_nas_suite, build_nr_suite


@pytest.fixture(scope="module")
def nr_setup():
    m = Measurer()
    profiles = profile_codelets(
        find_suite_codelets(build_nr_suite()), m).profiles
    fm = FeatureMatrix.from_profiles(profiles, TABLE2_FEATURES)
    rows = fm.normalized()
    dendrogram = ward_linkage(rows)
    return m, profiles, rows, dendrogram


@pytest.fixture(scope="module")
def nas_setup():
    m = Measurer()
    profiles = profile_codelets(
        find_suite_codelets(build_nas_suite()), m).profiles
    fm = FeatureMatrix.from_profiles(profiles, TABLE2_FEATURES)
    rows = fm.normalized()
    dendrogram = ward_linkage(rows)
    return m, profiles, rows, dendrogram


class TestSelection:
    def test_one_representative_per_cluster(self, nr_setup):
        m, profiles, rows, dg = nr_setup
        sel = select_representatives(profiles, rows, dg.cut(14), m)
        assert sel.k == len(sel.representatives) == 14
        for i, cluster in enumerate(sel.clusters):
            assert sel.representatives[i] in cluster

    def test_representative_is_centroid_closest(self, nr_setup):
        m, profiles, rows, dg = nr_setup
        labels = dg.cut(14)
        sel = select_representatives(profiles, rows, dg.cut(14), m)
        names = [p.name for p in profiles]
        for rep in sel.representatives:
            # NR codelets are all well-behaved, so the rep must be the
            # actual centroid-closest member of its original cluster.
            orig = [i for i in range(len(profiles))
                    if labels[i] == labels[names.index(rep)]]
            centroid = rows[orig].mean(axis=0)
            dists = {names[i]: np.linalg.norm(rows[i] - centroid)
                     for i in orig}
            assert dists[rep] == pytest.approx(min(dists.values()),
                                               abs=1e-9)

    def test_every_codelet_assigned(self, nas_setup):
        m, profiles, rows, dg = nas_setup
        sel = select_representatives(profiles, rows, dg.cut(16), m)
        assert set(sel.assignments) == {p.name for p in profiles}

    def test_representatives_all_well_behaved(self, nas_setup):
        m, profiles, rows, dg = nas_setup
        sel = select_representatives(profiles, rows, dg.cut(16), m)
        by_name = {p.name: p for p in profiles}
        for rep in sel.representatives:
            assert not m.is_ill_behaved(by_name[rep].codelet, NEHALEM)

    def test_ill_behaved_never_representative(self, nas_setup):
        m, profiles, rows, dg = nas_setup
        sel = select_representatives(profiles, rows, dg.cut(16), m)
        assert not set(sel.representatives) & set(sel.ill_behaved)

    def test_cluster_destruction_rehomes_orphans(self, nas_setup):
        """At high K, all-MG clusters appear; they must be destroyed and
        their codelets re-homed, shrinking the final K."""
        m, profiles, rows, dg = nas_setup
        sel = select_representatives(profiles, rows, dg.cut(30), m)
        assert sel.destroyed_clusters >= 1
        assert sel.k < 30
        assert set(sel.assignments) == {p.name for p in profiles}

    def test_all_ill_behaved_raises(self, nas_setup):
        m, profiles, rows, dg = nas_setup
        mg_idx = [i for i, p in enumerate(profiles) if p.app == "mg"]
        mg_profiles = [profiles[i] for i in mg_idx]
        mg_rows = rows[mg_idx]
        with pytest.raises(ValueError):
            select_representatives(mg_profiles, mg_rows,
                                   np.zeros(len(mg_idx), dtype=int), m)


class TestPredictionModel:
    def test_matrix_shape_and_sparsity(self, nr_setup):
        m, profiles, rows, dg = nr_setup
        sel = select_representatives(profiles, rows, dg.cut(14), m)
        model = build_cluster_model(profiles, sel)
        mat = model.matrix()
        assert mat.shape == (28, 14)
        assert ((mat != 0).sum(axis=1) == 1).all()

    def test_representative_row_is_unit(self, nr_setup):
        m, profiles, rows, dg = nr_setup
        sel = select_representatives(profiles, rows, dg.cut(14), m)
        model = build_cluster_model(profiles, sel)
        mat = model.matrix()
        names = list(model.codelet_names)
        for k, rep in enumerate(model.representatives):
            assert mat[names.index(rep), k] == pytest.approx(1.0)

    def test_representatives_predicted_exactly(self, nr_setup):
        """Figure 2: representatives have 0% error by construction."""
        m, profiles, rows, dg = nr_setup
        sel = select_representatives(profiles, rows, dg.cut(14), m)
        model = build_cluster_model(profiles, sel)
        rep_times = {r: 42.0 + i for i, r in
                     enumerate(model.representatives)}
        predicted = model.predict(rep_times)
        for rep, t in rep_times.items():
            assert predicted[rep] == pytest.approx(t)

    def test_prediction_scales_by_ref_ratio(self, nr_setup):
        m, profiles, rows, dg = nr_setup
        sel = select_representatives(profiles, rows, dg.cut(14), m)
        model = build_cluster_model(profiles, sel)
        rep_times = {r: 1.0 for r in model.representatives}
        predicted = model.predict(rep_times)
        for name in model.codelet_names:
            k = sel.cluster_of(name)
            rep = model.representatives[k]
            expected = model.ref_times[name] / model.ref_times[rep]
            assert predicted[name] == pytest.approx(expected)


class TestErrorMetricsAndAggregation:
    def test_percent_error(self):
        assert percent_error(110.0, 100.0) == pytest.approx(10.0)
        assert percent_error(90.0, 100.0) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            percent_error(1.0, 0.0)

    def test_application_aggregation(self, nr_setup):
        m, profiles, rows, dg = nr_setup
        app_name = profiles[0].app
        predicted = {p.name: p.ref_seconds * 2 for p in profiles}
        real = {p.name: p.ref_seconds * 2 for p in profiles}
        agg = aggregate_application(app_name, profiles, predicted, real,
                                    coverage=0.92)
        assert agg.error_pct == pytest.approx(0.0)
        assert agg.real_speedup == pytest.approx(0.5)

    def test_coverage_scaling(self, nr_setup):
        m, profiles, rows, dg = nr_setup
        app_name = profiles[0].app
        predicted = {p.name: p.ref_seconds for p in profiles}
        full = aggregate_application(app_name, profiles, predicted,
                                     predicted, coverage=1.0)
        half = aggregate_application(app_name, profiles, predicted,
                                     predicted, coverage=0.5)
        assert half.ref_seconds == pytest.approx(2 * full.ref_seconds)

    def test_geometric_mean(self):
        from repro.core.prediction import ApplicationPrediction
        apps = [ApplicationPrediction("a", 4.0, 2.0, 2.0),
                ApplicationPrediction("b", 1.0, 2.0, 2.0)]
        g = geometric_mean_speedup(apps, predicted=False)
        assert g == pytest.approx(1.0)      # sqrt(2 * 0.5)

    def test_unknown_app_rejected(self, nr_setup):
        m, profiles, rows, dg = nr_setup
        with pytest.raises(ValueError):
            aggregate_application("nope", profiles, {}, {}, 0.9)
