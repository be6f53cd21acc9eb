"""Tests of the end-to-end benchmark itself.

Run from the repository root: ``python3 -m pytest -q e2ebench/tests``.
The smoke runs start one shortest-length run of every workload (one
round of ops each, untraced and traced), so the file takes about a
minute.
"""

import itertools
import json
import os
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
from tracing import LayerTracer, Span, covered, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- tail-percentile rule -----------------------------------------------------

def test_tail_reported_with_ten_samples_beyond():
    values = [float(v) for v in range(100)]
    p90 = run.tail_percentile(values)
    assert p90 == pytest.approx(89.1)
    assert sum(v > p90 for v in values) == 10


def test_tail_omitted_with_fewer_than_ten_beyond():
    assert run.tail_percentile([float(v) for v in range(90)]) is None
    assert run.tail_percentile([1.0]) is None
    assert run.tail_percentile([]) is None


def test_tail_counts_only_samples_strictly_beyond():
    # Ties at the percentile are not "beyond" it.
    assert run.tail_percentile([1.0] * 200) is None


# -- self-time arithmetic -----------------------------------------------------

def test_covered_merges_overlaps():
    assert covered([]) == 0.0
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0


def test_self_time_subtracts_direct_children_only():
    spans = [Span("op", 0.0, 10.0, -1, 0),
             Span("a", 1.0, 4.0, 0, 0),
             Span("b", 2.0, 3.0, 1, 0),      # grandchild of "op"
             Span("c", 5.0, 9.0, 0, 0),
             Span("d", 6.0, 8.0, 3, 0),
             Span("e", 7.0, 8.5, 3, 0)]      # overlaps its sibling
    assert self_times(spans) == [3.0, 2.0, 1.0, 1.5, 2.0, 1.5]


def test_tracer_nests_wrapped_calls():
    ticks = itertools.count()
    tracer = LayerTracer(clock=lambda: float(next(ticks)))
    inner = tracer.span("inner", lambda: "x")
    outer = tracer.span("outer", lambda: inner() + inner())
    assert outer() == "xx"              # not recording: no spans
    assert tracer.spans == []
    tracer.op, tracer.recording = 7, True
    assert outer() == "xx"
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        ("outer", -1, 7), ("inner", 0, 7), ("inner", 0, 7)]
    assert tracer.layer_self_s() == {"outer": 3.0, "inner": 2.0}
    assert tracer.root_s() == 5.0
    assert tracer.counts["inner_calls"] == 2


def test_uninstall_restores_every_call_site():
    from repro.core import ga, pipeline

    originals = (pipeline.ward_linkage, ga.ward_linkage,
                 ga.FeatureSelectionProblem.evaluate_mask)
    tracer = LayerTracer()
    tracer.install()
    try:
        assert pipeline.ward_linkage is not originals[0]
    finally:
        tracer.uninstall()
    assert (pipeline.ward_linkage, ga.ward_linkage,
            ga.FeatureSelectionProblem.evaluate_mask) == originals


# -- reference kernel and the closed loop -------------------------------------

def test_op_ref_divides_by_the_kernel_runs_around_each_op():
    loop = run.Loop()
    loop.times = [4.0, 9.0]
    loop.refs = [1.0, 3.0, 2.0, 4.0]
    loop.brackets = [(0, 1), (1, 3)]   # op 1 held one timer run
    assert loop.op_ref() == [2.0, 3.0]


class _Spin:
    """A stand-in workload whose op busy-waits ``op_s`` seconds."""

    def __init__(self, op_s, round_ops=1):
        self.op_s, self.round_ops = op_s, round_ops

    def op(self, i):
        end = time.perf_counter() + self.op_s
        while time.perf_counter() < end:
            pass
        return i

    def check(self, i, output):
        return None if output == i else "wrong"


def test_loop_runs_whole_rounds_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    loop = run.run_ops(_Spin(0.001, round_ops=3), 0.0)
    assert len(loop.times) == 3 and loop.errors == []
    assert len(loop.refs) == 4 and loop.brackets == [(0, 1), (1, 2), (2, 3)]
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_timer_runs_inside_a_long_op_are_taken_out_of_its_time():
    loop = run.run_ops(_Spin(3 * run.REF_INTERVAL), 0.0)
    first, last = loop.brackets[0]
    inside = loop.refs[first + 1:last]
    assert len(inside) >= 2
    # The spin ends on the wall clock, so the kernel runs the timer put
    # inside it are missing from the op's time.
    assert loop.times[0] == pytest.approx(
        3 * run.REF_INTERVAL - sum(inside), abs=0.02)


def test_traced_loop_takes_no_timer_runs():
    loop = run.run_ops(_Spin(3 * run.REF_INTERVAL), 0.0,
                       tracer=LayerTracer())
    assert loop.brackets == [(0, 1)]


# -- smoke runs ---------------------------------------------------------------

def _run(*args):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, universal_newlines=True,
        timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_prints_every_metric_with_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "2014", "--seconds",
                "0", "--trace", str(trace))
    assert done.returncode == 0, done.stdout
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"]
    assert result["attempted"] == WORKLOADS[workload].round_ops
    assert result["failed"] == 0
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
        # ...and the readable report names it with its unit too.
        assert any(line.split()[:1] == [metric["name"]]
                   and line.split()[-1] == metric["unit"]
                   for line in lines[:-1]), metric["name"]
    if not trace:
        report = "\n".join(lines[:-1])
        assert "op_s.p90" in report and "failed_ratio" in report


def test_planted_wrong_output_counts_as_failed(monkeypatch, capsys):
    import workloads

    real_op = workloads.PaperPredict.op

    def wrong_op(self, i):
        output = real_op(self, i)
        output["k"] += 1
        return output

    monkeypatch.setattr(workloads.PaperPredict, "op", wrong_op)
    code = run.main(["--workload", "paper_predict", "--seed", "2014",
                     "--seconds", "0", "--trace", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 1
    assert (result["correct"], result["attempted"], result["failed"]) \
        == (False, 1, 1)
    ratio = [line.split() for line in lines if "failed_ratio" in line]
    assert ratio == [["failed_ratio", "1", "1"]]


def test_missing_program_exits_nonzero_without_result(tmp_path):
    bench = tmp_path / "e2ebench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracing.py"):
        (bench / name).write_text(open(os.path.join(BENCH, name)).read())
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload",
         "paper_predict", "--seed", "1", "--seconds", "1", "--trace",
         "0"], cwd=tmp_path, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, universal_newlines=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
