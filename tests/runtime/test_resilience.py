"""Fault injection and the resilient executor.

The fault plan must be a pure function of (seed, stage, task, arch,
attempt) — replaying a plan injects byte-identical failures — and the
resilient executor must turn those failures into retries, recoveries
and quarantines without ever aborting a batch or reordering results.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.runtime import (CorruptResult, FaultPlan, FaultRule,
                           InjectedCrash, InjectedTimeout, QUARANTINED,
                           ResilientExecutor, RetryPolicy, RunHealth,
                           crash_plan)

pytestmark = [pytest.mark.runtime, pytest.mark.resilience]


def _double(x):
    return 2 * x


class TestFaultRule:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule(kind="gamma-ray")

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError, match="unknown fault stage"):
            FaultRule(kind="crash", stage="deploy")

    def test_probability_range_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule(kind="crash", probability=1.5)

    def test_typoed_stage_rejected_at_construction(self):
        # Regression: a typo like "reduec" must fail loudly here, not
        # silently produce a rule that never matches anything.
        with pytest.raises(ValueError, match="unknown fault stage"):
            FaultRule(kind="crash", stage="reduec")

    def test_typoed_stage_rejected_from_json(self):
        text = json.dumps(
            {"seed": 0, "rules": [{"kind": "crash", "stage": "reduec"}]})
        with pytest.raises(ValueError, match="unknown fault stage"):
            FaultPlan.from_json(text)

    def test_worker_kind_refuses_transport_stage(self):
        text = json.dumps(
            {"seed": 0, "rules": [{"kind": "crash",
                                   "stage": "transport"}]})
        with pytest.raises(ValueError, match="unknown fault stage"):
            FaultPlan.from_json(text)

    def test_network_kind_refuses_worker_stages(self):
        text = json.dumps({"seed": 0, "rules": [{"kind": "net-drop",
                                                 "stage": "profile"}]})
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.from_json(text)

    def test_network_plan_is_a_fault_plan_usage_error(self, tmp_path):
        plan = tmp_path / "net.json"
        plan.write_text(json.dumps(
            {"seed": 0, "rules": [{"kind": "net-garble",
                                   "stage": "transport"}]}))
        with pytest.raises(SystemExit,
                           match="--fault-plan: .*unknown fault kind"):
            main(["--fault-plan", str(plan), "suites"])

    def test_glob_matching(self):
        rule = FaultRule(kind="crash", match="app/*.f:*", arch="Atom")
        assert rule.matches("profile", "app/k1.f:1-9", "Atom", 0)
        assert not rule.matches("profile", "other/k1.f:1-9", "Atom", 0)
        assert not rule.matches("profile", "app/k1.f:1-9", "Core 2", 0)

    def test_stage_and_attempt_filters(self):
        rule = FaultRule(kind="crash", stage="profile", attempts=(0, 2))
        assert rule.matches("profile", "t", "A", 0)
        assert not rule.matches("bench", "t", "A", 0)
        assert not rule.matches("profile", "t", "A", 1)
        assert rule.matches("profile", "t", "A", 2)


class TestFaultPlan:
    def test_crash_plan_fires_every_attempt(self):
        plan = crash_plan("victim", stage="profile")
        for attempt in range(4):
            assert plan.faults_for("profile", "victim", "X",
                                   attempt) == ("crash",)
        assert plan.faults_for("profile", "survivor", "X", 0) == ()
        assert plan.faults_for("bench", "victim", "X", 0) == ()

    def test_probability_extremes(self):
        never = FaultPlan(rules=(
            FaultRule(kind="crash", probability=0.0),))
        always = FaultPlan(rules=(
            FaultRule(kind="crash", probability=1.0),))
        for task in ("a", "b", "c"):
            assert never.faults_for("profile", task, "X", 0) == ()
            assert always.faults_for("profile", task,
                                     "X", 0) == ("crash",)

    def test_probabilistic_draw_is_keyed_and_replayable(self):
        plan = FaultPlan(seed=3, rules=(
            FaultRule(kind="crash", probability=0.5),))
        grid = [(s, f"t{i}", a, n) for s in ("profile", "bench")
                for i in range(20) for a in ("X", "Y")
                for n in range(3)]
        first = [plan.faults_for(*key) for key in grid]
        again = [plan.faults_for(*key) for key in grid]
        assert first == again
        fired = sum(1 for f in first if f)
        assert 0 < fired < len(grid)     # thinned, not all-or-nothing
        # A different seed redraws.
        other = FaultPlan(seed=4, rules=plan.rules)
        assert [other.faults_for(*key) for key in grid] != first

    def test_json_round_trip(self):
        plan = FaultPlan(seed=9, rules=(
            FaultRule(kind="crash", match="a/*", stage="profile"),
            FaultRule(kind="timeout", arch="Atom", attempts=(1,),
                      probability=0.25),
            FaultRule(kind="cache-poison", match="b"),
        ))
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_save_load(self, tmp_path):
        path = str(tmp_path / "plan.json")
        plan = crash_plan("x*", stage="bench", seed=5)
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultPlan.from_json("{nope")
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.from_json("[1, 2]")
        with pytest.raises(ValueError, match="'kind'"):
            FaultPlan.from_json('{"rules": [{"match": "*"}]}')
        with pytest.raises(ValueError, match="unknown fields"):
            FaultPlan.from_json(
                '{"rules": [{"kind": "crash", "blast_radius": 3}]}')

    def test_poisons_cache(self):
        plan = FaultPlan(rules=(
            FaultRule(kind="cache-poison", match="victim"),))
        assert plan.poisons_cache("victim", "X")
        assert not plan.poisons_cache("other", "X")


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="retries"):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(backoff_s=-0.5)

    def test_attempts_and_backoff(self):
        policy = RetryPolicy(retries=3, backoff_s=0.1)
        assert policy.max_attempts == 4
        assert policy.delay_after(0) == pytest.approx(0.1)
        assert policy.delay_after(2) == pytest.approx(0.4)


class TestResilientExecutor:
    def test_clean_batch(self):
        ex = ResilientExecutor(RetryPolicy(retries=2))
        out = ex.map_tasks(_double, [1, 2, 3], ["a", "b", "c"],
                           stage="profile", arch="X")
        assert out == [2, 4, 6]
        assert all(t.outcome == "ok" for t in ex.health.tasks)
        assert ex.health.total_retries == 0
        assert not ex.health.degraded

    def test_transient_fault_recovers(self):
        plan = FaultPlan(rules=(
            FaultRule(kind="crash", match="b", attempts=(0,)),))
        ex = ResilientExecutor(RetryPolicy(retries=1), fault_plan=plan)
        out = ex.map_tasks(_double, [1, 2, 3], ["a", "b", "c"],
                           stage="profile", arch="X")
        assert out == [2, 4, 6]
        by_task = {t.task: t for t in ex.health.tasks}
        assert by_task["b"].outcome == "recovered"
        assert by_task["b"].attempts == 2
        assert by_task["a"].attempts == 1
        assert ex.health.recovered == ("profile:b",)

    def test_permanent_fault_quarantines(self):
        ex = ResilientExecutor(RetryPolicy(retries=2),
                               fault_plan=crash_plan("b"))
        out = ex.map_tasks(_double, [1, 2, 3], ["a", "b", "c"],
                           stage="profile", arch="X")
        assert out[0] == 2 and out[2] == 6
        assert out[1] is QUARANTINED
        record = next(t for t in ex.health.tasks if t.task == "b")
        assert record.outcome == "quarantined"
        assert record.attempts == 3
        assert len(record.failures) == 3
        assert ex.health.quarantined == ("profile:b",)
        assert ex.health.degraded

    def test_circuit_breaker_skips_later_batches(self):
        calls = []

        def tracked(x):
            calls.append(x)
            return x

        ex = ResilientExecutor(RetryPolicy(retries=0),
                               fault_plan=crash_plan("b"))
        ex.map_tasks(tracked, [1, 2], ["a", "b"],
                     stage="profile", arch="X")
        assert ex.is_quarantined("profile", "b")
        n_before = len(calls)
        out = ex.map_tasks(tracked, [1, 2], ["a", "b"],
                           stage="profile", arch="X")
        assert out == [1, QUARANTINED]
        # Only "a" ran again: the breaker short-circuited "b".
        assert len(calls) == n_before + 1
        skipped = [t for t in ex.health.tasks if t.outcome == "skipped"]
        assert [t.task for t in skipped] == ["b"]
        # Quarantine is per (stage, task): other stages still run "b".
        assert not ex.is_quarantined("bench", "b")

    def test_corrupt_result_classified(self):
        plan = FaultPlan(rules=(FaultRule(kind="corrupt", match="a"),))
        ex = ResilientExecutor(RetryPolicy(retries=0), fault_plan=plan)
        out = ex.map_tasks(_double, [1], ["a"],
                           stage="profile", arch="X")
        assert out == [QUARANTINED]
        assert "corrupt" in ex.health.tasks[0].failures[0]

    def test_injected_timeout_classified(self):
        plan = FaultPlan(rules=(FaultRule(kind="timeout", match="a"),))
        ex = ResilientExecutor(RetryPolicy(retries=0), fault_plan=plan)
        ex.map_tasks(_double, [1], ["a"], stage="bench", arch="X")
        assert "timeout" in ex.health.tasks[0].failures[0]

    def test_wall_clock_budget_enforced(self):
        import time

        ex = ResilientExecutor(RetryPolicy(retries=0, timeout_s=0.0))
        out = ex.map_tasks(lambda _: time.sleep(0.002), [None], ["slow"],
                           stage="bench", arch="X")
        assert out == [QUARANTINED]
        assert "timeout" in ex.health.tasks[0].failures[0]

    def test_organic_exception_detail_recorded(self):
        def boom(_):
            raise ZeroDivisionError("1/0")

        ex = ResilientExecutor(RetryPolicy(retries=0))
        out = ex.map_tasks(boom, [None], ["a"],
                           stage="profile", arch="X")
        assert out == [QUARANTINED]
        assert "ZeroDivisionError" in ex.health.tasks[0].failures[0]

    def test_none_result_is_not_quarantined(self):
        ex = ResilientExecutor(RetryPolicy(retries=0))
        [result] = ex.map_tasks(lambda _: None, [0], ["a"],
                                stage="profile", arch="X")
        assert result is None and result is not QUARANTINED

    def test_length_mismatch_rejected(self):
        ex = ResilientExecutor()
        with pytest.raises(ValueError, match="keys"):
            ex.map_tasks(_double, [1, 2], ["only-one"],
                         stage="profile", arch="X")

    def test_run_single_task(self):
        ex = ResilientExecutor(RetryPolicy(retries=1),
                               fault_plan=crash_plan("gone"))
        assert ex.run(lambda: 41 + 1, key="fine", stage="bench",
                      arch="X") == 42
        assert ex.run(lambda: 0, key="gone", stage="bench",
                      arch="X") is QUARANTINED

    def test_health_json_replayable(self):
        plan = FaultPlan(seed=2, rules=(
            FaultRule(kind="crash", match="t*", probability=0.5),))
        reports = []
        for _ in range(2):
            ex = ResilientExecutor(RetryPolicy(retries=2),
                                   fault_plan=plan)
            ex.map_tasks(_double, range(8),
                         [f"t{i}" for i in range(8)],
                         stage="profile", arch="X")
            reports.append(ex.health.to_json())
        assert reports[0] == reports[1]

    def test_format_mentions_failures(self):
        ex = ResilientExecutor(RetryPolicy(retries=0),
                               fault_plan=crash_plan("b"))
        ex.map_tasks(_double, [1, 2], ["a", "b"],
                     stage="profile", arch="X")
        text = ex.health.format()
        assert "quarantined" in text and "profile:b" in text

    def test_shared_health_spans_executors(self):
        health = RunHealth()
        first = ResilientExecutor(health=health)
        second = ResilientExecutor(health=health)
        first.map_tasks(_double, [1], ["a"], stage="profile", arch="X")
        second.map_tasks(_double, [2], ["b"], stage="bench", arch="X")
        assert [t.task for t in health.tasks] == ["a", "b"]


class TestInjectedExceptions:
    def test_hierarchy(self):
        from repro.runtime import InjectedFault

        for exc in (InjectedCrash, InjectedTimeout, CorruptResult):
            assert issubclass(exc, InjectedFault)
