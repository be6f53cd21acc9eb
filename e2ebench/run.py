"""End-to-end benchmark of the subsetting pipeline.

One workload per run, closed loop, one client, serial runtime::

    python3 e2ebench/run.py --workload paper_predict --seed 2014 \\
        --seconds 25 --trace 0

prints a readable report and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
gives the end-to-end metrics; ``--trace 1`` wraps every layer at its
call site and gives the per-layer metrics instead.  Op times are also
given in multiples of a fixed reference kernel timed next to every op
(``op_ref``), which cancels most of the host's speed drift.  ``--all`` runs
every workload untraced and traced, each in a fresh interpreter, prints
every metric by name and unit plus the tracing overhead, and exits
non-zero when any output check fails.  See ``e2ebench/README.md``.
"""

import time

#: ``setup_s`` counts from here: a fresh interpreter's first statement.
_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List, Optional, Sequence, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("paper_predict", "ga_select", "random_baseline",
                  "trace_reduce")
#: Seed each workload runs at when ``--seed`` is omitted: the noise
#: seed of the golden snapshot.  The held-out seed is in README.md.
DEFAULT_SEED = 2014
#: Set-up repetitions behind the reported ``setup_s`` median.
SETUP_REPEATS = 5
#: ``op_s.p90`` is reported only with this many samples beyond it.
TAIL_MIN_BEYOND = 10
#: Iterations of the reference kernel's loop (15-25 ms on a 2-vCPU Xeon VM).
REF_LOOP = 150000
#: Seconds between the reference kernel runs a timer adds inside ops.
REF_INTERVAL = 0.5


# -- statistics ---------------------------------------------------------------

def tail_percentile(values: Sequence[float]) -> Optional[float]:
    """The linearly interpolated 90th percentile, or ``None`` when fewer
    than ``TAIL_MIN_BEYOND`` samples lie beyond it (the tail would rest
    on too few samples)."""
    if len(values) < 2:
        return None
    p90 = statistics.quantiles(values, n=10, method="inclusive")[-1]
    beyond = sum(1 for v in values if v > p90)
    return p90 if beyond >= TAIL_MIN_BEYOND else None


# -- reference kernel ---------------------------------------------------------

def reference_kernel() -> float:
    """Run the benchmark's fixed reference work once; return its seconds.

    The host's speed drifts by tens of percent within seconds and
    minutes, and every piece of work slows with it.  Timed next to each
    op, this kernel gives the op's time in multiples of the kernel's
    (``op_ref``), which cancels most of that drift.  It is an
    interpreted loop with dict traffic: of the kernels tried, the one
    whose slowdowns followed the workloads' most closely.  It belongs to
    the benchmark, so no change to the program moves it.
    """
    start = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(REF_LOOP):
        table[i & 255] = table.get(i & 255, 0) + i * i
    return time.perf_counter() - start


# -- environment --------------------------------------------------------------

def _commit() -> str:
    """HEAD's commit id read from ``.git``, if the checkout has one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:])) as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def environment(seed: int) -> Dict[str, object]:
    import numpy

    blas = {var: os.environ[var] for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        if var in os.environ}
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": blas or "unset (BLAS default: one per core)",
            "commit": _commit(),
            "seed": seed}


# -- one workload -------------------------------------------------------------

def _import_program() -> float:
    """Import the program from the checkout; return the seconds
    ``import repro.cli`` took."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"error: no program sources at {src}/repro; run from a "
                 "full checkout of the repository")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    start = time.perf_counter()
    import repro.cli  # noqa: F401  (the import every CLI user pays)
    return time.perf_counter() - start


def _setup(workload: str, seed: int):
    import_s = _import_program()
    from workloads import WORKLOADS

    bench = WORKLOADS[workload](seed, ROOT)
    bench.setup()
    return bench, import_s, time.perf_counter() - _START


def _setup_repeats(args, count: int) -> List[float]:
    """Set-up seconds of ``count`` fresh interpreters."""
    values = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=120,
            universal_newlines=True)
        values.append(float(done.stdout.strip().splitlines()[-1]))
    return values


class Loop:
    """What one closed loop measured."""

    def __init__(self) -> None:
        self.times: List[float] = []   # seconds of each op, reference
        #                                kernel runs inside it left out
        self.refs: List[float] = []    # seconds of every reference
        #                                kernel run, in order
        self.brackets: List[Tuple[int, int]] = []  # per op: indices in
        #                                ``refs`` of the runs just
        #                                before and just after it
        self.errors: List[str] = []    # one reason per failed op
        self.wall = 0.0                # wall clock of the whole loop
        self._busy = False

    def reference(self) -> None:
        """Run the reference kernel once and record its time."""
        self._busy = True
        try:
            self.refs.append(reference_kernel())
        finally:
            self._busy = False

    def on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self.reference()

    def op_ref(self) -> List[float]:
        """Each op's time over the mean time of the reference kernel
        runs from just before it to just after it."""
        return [t / statistics.mean(self.refs[first:last + 1])
                for t, (first, last) in zip(self.times, self.brackets)]

    def ops_per_s(self) -> float:
        """Ops per second of the loop's wall clock, reference kernel
        runs left out."""
        return len(self.times) / (self.wall - sum(self.refs))


def run_ops(bench, seconds: float, tracer=None) -> Loop:
    """Closed loop of at least one round of ``bench.round_ops`` ops.
    Another round's op starts while its expected end (the last op's time
    is the estimate) is nearer to ``seconds`` than now is, so the loop
    lasts as close to ``seconds`` as whole rounds allow.  An op fails if
    it raises or its output check fails.

    The reference kernel runs before the first op and right after every
    op, before the op's output check.  Untraced, a timer also runs it
    every ``REF_INTERVAL`` seconds, inside long ops too, and its time
    is taken out of the op's.  Traced, the timer is off, so no span
    holds kernel time.
    """
    loop = Loop()
    sampling = tracer is None
    if sampling:
        previous = signal.signal(signal.SIGALRM, loop.on_alarm)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL, REF_INTERVAL)
    loop_start = time.perf_counter()
    try:
        loop.reference()
        i = 0
        while (not loop.times or i % bench.round_ops
               or time.perf_counter() - loop_start
               + loop.times[-1] / 2 <= seconds):
            if tracer is not None:
                tracer.op, tracer.recording = i, True
            first = len(loop.refs) - 1
            start = time.perf_counter()
            try:
                output = bench.op(i)
            except Exception as exc:  # an op that raises counts as failed
                output, error = None, f"op {i} raised {exc!r}"
            else:
                error = None
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.recording = False
            loop.reference()
            loop.times.append(elapsed - sum(loop.refs[first + 1:-1]))
            loop.brackets.append((first, len(loop.refs) - 1))
            if error is None:
                try:
                    error = bench.check(i, output)
                except Exception as exc:
                    error = f"op {i} check raised {exc!r}"
            if error is not None:
                loop.errors.append(error)
            i += 1
    finally:
        if sampling:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    loop.wall = time.perf_counter() - loop_start
    return loop


def end_to_end(loop: Loop, setup_s: float) -> Dict[str, Tuple[float, str]]:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"setup_s": (setup_s, "s"),
            "op_ref.p50": (statistics.median(loop.op_ref()), "ref"),
            "peak_rss_mb": (peak_kib / 1024.0, "MiB")}


def wall_report(loop: Loop) -> Dict[str, Tuple[float, str]]:
    """Raw wall-clock figures, printed beside the metrics: they carry
    the host's drift, so they are not gated."""
    return {"op_s.p50": (statistics.median(loop.times), "s"),
            "ops_per_s": (loop.ops_per_s(), "1/s"),
            "ref_kernel_s.p50": (statistics.median(loop.refs), "s")}


def per_layer(tracer, loop: Loop, import_s: float,
              health: Tuple[int, int]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of a traced run; times and counts per op."""
    from tracing import COUNT_METRICS, SPAN_NAMES

    times = loop.times
    ops = len(times)
    counts = tracer.counts
    self_s = tracer.layer_self_s()

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {"cli.import_s": (import_s, "s")}
    for name in SPAN_NAMES:
        metrics[name + "_s"] = (self_s.get(name, 0.0) / ops, "s")
    for name in COUNT_METRICS:
        metrics[name] = (counts[name] / ops, "count")
    metrics.update({
        "codelets.model_memo_hit_ratio": (ratio(
            counts["codelets.model_runs"]
            - counts["machine.model_run_calls"],
            counts["codelets.model_runs"]), "1"),
        "isa.lowering_memo_hit_ratio": (ratio(
            counts["isa.lowering_memo_hits"],
            counts["isa.compile_calls"]), "1"),
        "core.ga.memo_hit_ratio": (ratio(
            counts["core.ga.fitness_calls"]
            - counts["core.ga.fitness_evals"],
            counts["core.ga.fitness_calls"]), "1"),
        "machine.sim_accesses_per_s": (ratio(
            counts["machine.sim_accesses"],
            tracer.layer_total_s("machine.sim")), "1/s"),
        "machine.sim_stream_mb": (
            counts["machine.sim_stream_bytes"] / ops / 2 ** 20, "MiB"),
        "runtime.retries": (float(health[0]), "count"),
        "runtime.quarantined": (float(health[1]), "count"),
        "other_s": ((sum(times) - tracer.root_s()) / ops, "s"),
        "trace.op_s.p50": (statistics.median(times), "s"),
        "trace.op_ref.p50": (statistics.median(loop.op_ref()), "ref"),
    })
    return metrics


def _write_trace(tracer, args, env) -> str:
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir,
                        f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "environment": env,
                   **tracer.to_json()}, fh)
    return path


def _print_metrics(metrics: Dict[str, Tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")


def run_workload(args) -> int:
    bench, import_s, setup_main = _setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(setup_main))
        return 0
    env = environment(args.seed)
    tracer = None
    if args.trace:
        from tracing import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    try:
        loop = run_ops(bench, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    attempted, failed = len(loop.times), len(loop.errors)
    print(f"workload {args.workload}: {attempted} ops in {loop.wall:.2f} "
          f"s, {failed} failed, trace={'on' if tracer else 'off'}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for error in loop.errors[:5]:
        print(f"  check failed: {error}")
    if tracer is not None:
        metrics = per_layer(tracer, loop, import_s, bench.runtime_health())
        print(f"per-layer metrics (per op unless a ratio or total), "
              f"spans in {_write_trace(tracer, args, env)}:")
    else:
        setups = [setup_main] + _setup_repeats(args, SETUP_REPEATS - 1)
        metrics = end_to_end(loop, statistics.median(setups))
        print(f"end-to-end metrics (setup_s: median of {len(setups)} "
              f"fresh interpreters):")
    _print_metrics(metrics)
    if tracer is None:
        print("wall clock, not gated (carries the host's drift):")
        _print_metrics(wall_report(loop))
        tail = tail_percentile(loop.times)
        print(f"  {'op_s.p90':34s} "
              + (f"{tail:14.6g} s" if tail is not None else
                 f"{'omitted':>14s} (fewer than {TAIL_MIN_BEYOND} of "
                 f"{attempted} samples beyond it)"))
        print(f"  {'failed_ratio':34s} {failed / attempted:14.6g} 1")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1


# -- every workload -----------------------------------------------------------

def run_all(args) -> int:
    """Each workload untraced then traced, each in a fresh interpreter."""
    ok = True
    results = {}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, universal_newlines=True)
            sys.stdout.write(done.stdout)
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"{workload}: no result (exit {done.returncode})")
                ok = False
                continue
            results[workload, trace] = result
            ok = ok and done.returncode == 0 and result["correct"]
    print("\nsummary (median op time untraced vs traced):")
    for workload in WORKLOAD_NAMES:
        plain = results.get((workload, 0))
        traced = results.get((workload, 1))
        if plain is None or traced is None:
            continue
        base = plain["metrics"]["op_ref.p50"]["value"]
        with_trace = traced["metrics"]["trace.op_ref.p50"]["value"]
        print(f"  {workload:16s} failed_ratio "
              f"{plain['failed'] / plain['attempted']:.3g} 1, op_ref.p50 "
              f"{base:.4g} ref, traced {with_trace:.4g} ref, tracing "
              f"overhead {100 * (with_trace / base - 1):+.1f}%")
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload NAME or --all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
