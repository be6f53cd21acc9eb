"""The differential oracle: structural diffs and paired-config cases."""

from dataclasses import replace

import numpy as np
import pytest

from repro.verify import (DIFFERENTIAL_CASES, VerifyContext,
                          diff_reduced, run_differential)

pytestmark = pytest.mark.verify


@pytest.fixture(scope="module")
def ctx():
    return VerifyContext(seed=0)


@pytest.fixture(scope="module")
def reduced(ctx):
    return ctx.reduced


class TestDiffReduced:
    def test_identical_runs_diff_empty(self, ctx, reduced):
        again = ctx.fresh_reducer().reduce("elbow")
        assert diff_reduced(reduced, again) == []

    def test_requested_k_excluded_by_design(self, reduced):
        other = replace(reduced, requested_k=reduced.elbow)
        assert diff_reduced(reduced, other) == []

    def test_elbow_mismatch_reported(self, reduced):
        other = replace(reduced, elbow=reduced.elbow + 1)
        fields = [d.field for d in diff_reduced(reduced, other)]
        assert "elbow" in fields

    def test_label_mismatch_reported_with_witness(self, reduced):
        labels = np.array(reduced.labels)
        labels[0] += 1
        other = replace(reduced, labels=labels)
        diffs = diff_reduced(reduced, other)
        assert any(d.field == "labels" and "entry 0" in d.detail
                   for d in diffs)

    def test_different_suites_diff_nonempty(self, reduced):
        other = VerifyContext(seed=1).reduced
        assert diff_reduced(reduced, other)


class TestDifferentialCases:
    def test_registered_cases(self):
        assert set(DIFFERENTIAL_CASES) == {
            "cached-vs-uncached", "elbow-vs-explicit-k"}

    def test_unknown_case_rejected(self, ctx):
        with pytest.raises(KeyError, match="unknown differential"):
            run_differential(ctx, ["quantum-vs-classical"])

    def test_elbow_vs_explicit_k_passes(self, ctx):
        (result,) = run_differential(ctx, ["elbow-vs-explicit-k"])
        assert result.passed, [str(d) for d in result.discrepancies]

    def test_cached_vs_uncached_passes(self, ctx):
        (result,) = run_differential(ctx, ["cached-vs-uncached"])
        assert result.passed, [str(d) for d in result.discrepancies]
