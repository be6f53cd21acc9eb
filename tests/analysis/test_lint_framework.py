"""Framework-level tests: registry, context, dependence, baseline,
report rendering and the canary kernels."""

import json

import pytest

from repro.analysis.lint import (CANARIES, Baseline, LintReport,
                                 PASS_REGISTRY, Severity, Suppression,
                                 apply_baseline, check_canaries,
                                 describe_passes, lint_kernel, lint_pass,
                                 prune_baseline, sort_diagnostics)
from repro.ir import DP, KernelBuilder
from repro.ir.dependence import AnalysisContext, Dependence
# Aliased: pytest would otherwise collect the imported name as a test.
from repro.ir.dependence import test_dependence as dependence_between

pytestmark = pytest.mark.lint

N = 16


def _recurrence():
    b = KernelBuilder("rec")
    u = b.array("u", (N,), DP)
    with b.loop(1, N) as i:
        b.assign(u[i], u[i - 1] * 0.5)
    return b.build()


def _oob():
    b = KernelBuilder("oob")
    x = b.array("x", (N,), DP)
    y = b.array("y", (N,), DP)
    with b.loop(0, N) as i:
        b.assign(y[i + 1], x[i])
    return b.build()


class TestRegistry:
    def test_six_passes_registered(self):
        assert list(PASS_REGISTRY) == ["deps", "overlap", "bounds",
                                       "uninit", "deadstore", "transform"]

    def test_code_families_match_passes(self):
        assert PASS_REGISTRY["deps"].codes == ("L101", "L102", "L103",
                                               "L104")
        assert PASS_REGISTRY["overlap"].codes == ("L201", "L202")
        assert PASS_REGISTRY["bounds"].codes == ("L301",)
        assert PASS_REGISTRY["uninit"].codes == ("L401",)
        assert PASS_REGISTRY["deadstore"].codes == ("L501",)
        assert PASS_REGISTRY["transform"].codes == (
            "L601", "L602", "L603", "L604", "L605", "L606")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="registered twice"):
            lint_pass("deps", ("L999",), "dup")(lambda ctx: [])

    def test_unknown_disabled_pass_rejected(self):
        with pytest.raises(KeyError, match="unknown lint passes"):
            lint_kernel(_recurrence(), disabled=("no-such-pass",))

    def test_disabling_a_pass_drops_its_codes(self):
        assert [d.code for d in lint_kernel(_oob())] == ["L301"]
        assert lint_kernel(_oob(), disabled=("bounds",)) == ()

    def test_scope_override(self):
        diags = lint_kernel(_recurrence(), scope="app/f.f:1-9")
        assert all(d.scope == "app/f.f:1-9" for d in diags)
        assert diags[0].key.startswith("app/f.f:1-9:L101:")

    def test_describe_passes_lists_everything(self):
        text = describe_passes()
        for pass_id in PASS_REGISTRY:
            assert pass_id in text


class TestContext:
    def test_loop_labels_in_walk_order(self):
        b = KernelBuilder("nest")
        m = b.array("m", (N, N), DP)
        with b.loop(0, N) as i:
            with b.loop(0, N) as j:
                b.assign(m[i, j], 1.0)
        ctx = AnalysisContext(b.build())
        assert [ctx.loop_label(lp) for lp in ctx.loops] == ["L0", "L1"]

    def test_site_ids_are_canonical(self):
        b = KernelBuilder("sites")
        x = b.array("x", (N,), DP)
        y = b.array("y", (N,), DP)
        with b.loop(0, N) as i:
            b.assign(y[i], x[i] + y[i])
        ctx = AnalysisContext(b.build())
        assert [s.site_id for s in ctx.sites] == ["S0.l0", "S0.l1", "S0"]
        assert ctx.store_sites[0].site_id == "S0"

    def test_var_ranges_triangular(self):
        b = KernelBuilder("tri")
        m = b.array("m", (N, N), DP)
        with b.loop(0, N) as i:
            with b.loop(0, i + 1) as j:
                b.assign(m[i, j], 0.0)
        ctx = AnalysisContext(b.build())
        (ilo, ihi), (jlo, jhi) = ctx.var_ranges.values()
        assert (ilo, ihi) == (0, N - 1)
        assert (jlo, jhi) == (0, N - 1)

    def test_reduction_store_detection(self, dot_kernel):
        ctx = AnalysisContext(dot_kernel)
        store, _ = ctx.stores[0]
        assert ctx.is_reduction_store(store)


class TestDependenceAPI:
    def test_recurrence_distance_resolved(self):
        ctx = AnalysisContext(_recurrence())
        store = ctx.store_sites[0]
        load = ctx.load_sites[0]
        dep = dependence_between(ctx, store, load)
        assert isinstance(dep, Dependence)
        assert dep.kind == "uniform"
        assert dep.distance == (1,)
        assert dep.carried and not dep.loop_independent

    def test_disjoint_ranges_proven_independent(self):
        b = KernelBuilder("halves")
        u = b.array("u", (2 * N,), DP)
        x = b.array("x", (2 * N,), DP)
        with b.loop(0, N) as i:
            b.assign(u[i], x[i + N])
        ctx = AnalysisContext(b.build())
        store, load = ctx.store_sites[0], ctx.load_sites[0]
        # Different arrays are trivially independent...
        assert dependence_between(ctx, store, load) is None
        # ...and so are same-array sites with disjoint spans.
        b2 = KernelBuilder("split")
        u2 = b2.array("u", (2 * N,), DP)
        with b2.loop(0, N) as i:
            b2.assign(u2[i], 2.0 * u2[i + N])
        ctx2 = AnalysisContext(b2.build())
        assert dependence_between(ctx2, ctx2.store_sites[0],
                               ctx2.load_sites[0]) is None


class TestBaseline:
    def test_round_trip(self, tmp_path):
        bl = Baseline((Suppression("a:L101:S0:u", "known recurrence"),))
        path = bl.save(str(tmp_path / "bl.json"))
        loaded = Baseline.load(path)
        assert loaded == bl
        assert "a:L101:S0:u" in loaded

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "suppressions": []}))
        with pytest.raises(ValueError, match="version"):
            Baseline.load(str(path))

    def test_apply_splits_active_and_suppressed(self):
        diags = lint_kernel(_recurrence(), scope="s")
        bl = Baseline.from_diagnostics(diags, reason="expected")
        active, suppressed, stale = apply_baseline(diags, bl)
        assert active == ()
        assert suppressed == diags
        assert stale == ()
        # An empty baseline suppresses nothing.
        active, suppressed, stale = apply_baseline(diags, Baseline())
        assert active == diags and suppressed == () and stale == ()

    def test_apply_reports_stale_keys(self):
        diags = lint_kernel(_recurrence(), scope="s")
        dead = Suppression("gone:L101:S0:u", "finding was fixed")
        bl = Baseline(Baseline.from_diagnostics(diags).suppressions
                      + (dead,))
        active, suppressed, stale = apply_baseline(diags, bl)
        assert active == ()
        assert suppressed == diags
        assert stale == ("gone:L101:S0:u",)

    def test_prune_drops_stale_and_keeps_reasons(self):
        diags = lint_kernel(_recurrence(), scope="s")
        keep = Baseline.from_diagnostics(diags, reason="known recurrence")
        dead = Suppression("gone:L101:S0:u", "finding was fixed")
        bl = Baseline(keep.suppressions + (dead,))
        pruned = prune_baseline(bl, diags, default_reason="new")
        assert "gone:L101:S0:u" not in pruned
        assert set(pruned.reasons.values()) == {"known recurrence"}
        # A finding absent from the old baseline gets the default reason.
        fresh = prune_baseline(Baseline(), diags, default_reason="new")
        assert set(fresh.reasons.values()) == {"new"}
        assert {s.key for s in fresh.suppressions} \
            == {d.key for d in diags}

    def test_from_diagnostics_dedupes_keys(self):
        diags = lint_kernel(_recurrence(), scope="s")
        bl = Baseline.from_diagnostics(tuple(diags) * 2)
        assert len(bl.suppressions) == len({d.key for d in diags})


class TestReport:
    def test_counts_and_exit_semantics(self):
        errors = lint_kernel(_oob(), scope="s")
        warns = lint_kernel(_recurrence(), scope="s")
        report = LintReport(title="t", diagnostics=errors + warns)
        assert report.n_errors == 1
        assert not report.ok
        assert report.count(Severity.WARNING) == 1
        clean = LintReport(title="t", diagnostics=warns)
        assert clean.ok   # warnings never fail the run

    def test_serialize_is_deterministic_across_builds(self):
        a = LintReport("t", lint_kernel(_recurrence(), scope="s"))
        b = LintReport("t", lint_kernel(_recurrence(), scope="s"))
        assert a.serialize() == b.serialize()

    def test_save_writes_text_and_json(self, tmp_path):
        report = LintReport("suite nas", lint_kernel(_oob(), scope="s"))
        txt, js = report.save(str(tmp_path))
        assert txt.endswith("lint_suite_nas.txt")
        with open(js) as fh:
            data = json.load(fh)
        assert data["counts"]["errors"] == 1
        assert data["ok"] is False

    def test_sorted_regardless_of_insertion_order(self):
        diags = lint_kernel(_oob(), scope="s") \
            + lint_kernel(_recurrence(), scope="a")
        report = LintReport("t", diagnostics=diags)
        assert list(report.diagnostics) == list(sort_diagnostics(diags))


class TestCanaries:
    def test_all_canaries_green(self):
        assert check_canaries() == []

    def test_canaries_cover_every_error_family(self):
        expected = {code for c in CANARIES for code in c.expected}
        assert {"L101", "L201", "L301", "L401", "L501"} <= expected

    def test_disabled_pass_trips_canaries(self):
        problems = check_canaries(disabled=("bounds",))
        assert problems
        assert any("canary_oob" in p for p in problems)
