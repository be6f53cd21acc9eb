"""The invariant registry: contents, green path and defect isolation."""

import pytest

from repro.verify import (BREAKAGES, REGISTRY, VerifyContext,
                          run_registry, run_verify)

pytestmark = pytest.mark.verify

EXPECTED_INVARIANTS = {
    "normalized-features",
    "permutation-invariance",
    "exact-when-k-equals-n",
    "variance-monotone",
    "representative-membership",
    "ill-behaved-never-representative",
    "cache-determinism",
    "lint-determinism",
    "ga-selection",
    "manifest-round-trip",
    "resilience-replay",
    "trace-replay",
    "clustering-equivalence",
    "incremental-recluster",
    "cache-sim-equivalence",
    "transform-equivalence",
    "transform-legality",
}


class TestRegistry:
    def test_has_at_least_six_invariants(self):
        assert len(REGISTRY) >= 6

    def test_expected_names_registered(self):
        assert EXPECTED_INVARIANTS <= set(REGISTRY)

    def test_every_invariant_documented(self):
        for inv in REGISTRY.values():
            assert inv.description, f"{inv.name} lacks a description"

    def test_unknown_invariant_name_rejected(self):
        ctx = VerifyContext(seed=0)
        with pytest.raises(KeyError, match="unknown invariants"):
            run_registry(ctx, ["not-a-real-invariant"])


class TestGreenPath:
    def test_all_invariants_pass_on_seeded_suite(self):
        results = run_registry(VerifyContext(seed=0))
        failed = [r for r in results if not r.passed]
        assert not failed, "\n".join(
            f"{r.name}: {r.detail}" for r in failed)

    def test_second_seed_also_passes(self):
        results = run_registry(VerifyContext(seed=4))
        assert all(r.passed for r in results)


class TestDefectInjection:
    def test_breakages_all_name_a_catching_invariant(self):
        for name, description in BREAKAGES.items():
            assert "caught by" in description, name

    def test_unknown_breakage_rejected(self):
        with pytest.raises(ValueError, match="unknown breakage"):
            VerifyContext(seed=0, breakage="desoldered-alu")

    def test_no_normalize_fails_only_the_matching_invariant(self):
        report = run_verify(seed=0, breakage="no-normalize",
                            skip_differential=True)
        assert not report.passed
        assert report.failed_names() == ["normalized-features"]
        failing = next(r for r in report.invariants if not r.passed)
        assert "normal" in failing.detail.lower()

    def test_drop_oob_check_fails_only_the_matching_invariant(self):
        report = run_verify(seed=0, breakage="drop-oob-check",
                            skip_differential=True)
        assert not report.passed
        assert report.failed_names() == ["lint-determinism"]
        failing = next(r for r in report.invariants if not r.passed)
        assert "canary_oob" in failing.detail

    def test_ga_unseeded_fails_only_the_matching_invariant(self):
        report = run_verify(seed=0, breakage="ga-unseeded",
                            skip_differential=True)
        assert not report.passed
        assert report.failed_names() == ["ga-selection"]
        failing = next(r for r in report.invariants if not r.passed)
        assert "disagree" in failing.detail

    def test_round_manifest_floats_fails_only_the_matching_invariant(self):
        report = run_verify(seed=0, breakage="round-manifest-floats",
                            skip_differential=True)
        assert not report.passed
        assert report.failed_names() == ["manifest-round-trip"]
        failing = next(r for r in report.invariants if not r.passed)
        assert "lossy" in failing.detail

    def test_trace_wall_clock_fails_only_the_matching_invariant(self):
        report = run_verify(seed=0, breakage="trace-wall-clock",
                            skip_differential=True)
        assert not report.passed
        assert report.failed_names() == ["trace-replay"]
        failing = next(r for r in report.invariants if not r.passed)
        assert "not a pure function" in failing.detail

    @pytest.mark.transform
    def test_interchange_ignores_direction_fails_only_transform(self):
        report = run_verify(seed=0,
                            breakage="interchange-ignores-direction",
                            skip_differential=True)
        assert not report.passed
        assert report.failed_names() == ["transform-equivalence",
                                         "transform-legality"]
        equiv, legality = (r for r in report.invariants if not r.passed)
        assert "skew-interchange" in equiv.detail
        assert "pinned ground truth" in legality.detail

    def test_sim_batch_skew_fails_only_the_matching_invariant(self):
        report = run_verify(seed=0, breakage="sim-batch-skew",
                            skip_differential=True)
        assert not report.passed
        assert report.failed_names() == ["cache-sim-equivalence"]
        failing = next(r for r in report.invariants if not r.passed)
        assert "fast-path profile diverges" in failing.detail

    def test_slow_path_skew_fails_only_the_clustering_invariants(self):
        report = run_verify(seed=0, breakage="slow-path-skew",
                            skip_differential=True)
        assert not report.passed
        assert report.failed_names() == ["clustering-equivalence",
                                         "incremental-recluster"]
        for failing in (r for r in report.invariants if not r.passed):
            assert "bit-identical" in failing.detail
