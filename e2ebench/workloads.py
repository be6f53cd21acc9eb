"""The benchmark's four closed-loop workloads.

Each workload prepares its inputs from the workload seed (untimed,
counted in ``setup_s``), then runs one op at a time: ``op(i)`` returns
the op's output and ``check(i, output)`` returns ``None`` when the
output is right and a one-line reason when it is not.  Every call into
the program goes through a public API, and through a module attribute
(``pipeline.evaluate_on_target``, not a bound name) so a traced run can
wrap it at the call site.

The runtime stays serial: ``SubsettingConfig()`` carries the CLI's
defaults (``jobs=1``, no profile cache, ``retries=2``).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional, Tuple

import numpy as np

from repro import suites
from repro.codelets.measurement import Measurer
from repro.core import ga, pipeline, random_baseline
from repro.isa.compiler import clear_lowering_memo
from repro.machine import REFERENCE, TARGETS
from repro.machine.noise import NoiseModel

#: The noise seed the golden snapshot was taken at (``NoiseModel()``).
GOLDEN_SEED = 2014
GOLDEN_PATH = os.path.join("tests", "golden", "reduction_seed.json")

#: Figure 7 points the random-baseline workload cycles through.
FIGURE7_KS = (2, 4, 8, 12, 16, 20, 24)
#: ``repro table2`` defaults (the CLI's Table 2 GA configuration).
TABLE2_GA = dict(population=60, generations=15)


def derive_seed(seed: int, tag: str) -> int:
    """A 32-bit seed for one purpose, derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}|{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


class Workload:
    """Base: ``setup`` once, then ``op``/``check`` per op."""

    name = ""
    #: A run ends only after a whole number of rounds of this many ops,
    #: so every run times the same mix of ops.
    round_ops = 1

    def __init__(self, seed: int, root: str = "."):
        self.seed = seed
        self.root = root
        #: Retries and quarantined tasks summed over the ``RunHealth`` of
        #: every reducer the ops created, kept as counts so a long run
        #: does not pile up ``RunHealth`` objects.
        self.retries = 0
        self.quarantined = 0

    def record_health(self, health) -> None:
        self.retries += health.total_retries
        self.quarantined += len(health.quarantined)

    def runtime_health(self) -> Tuple[int, int]:
        """Retries and quarantined tasks of the whole run so far."""
        return self.retries, self.quarantined

    def setup(self) -> None:
        pass

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, output) -> Optional[str]:
        raise NotImplementedError


def _compare(expected: Dict, output: Dict) -> Optional[str]:
    """The first key on which ``output`` differs from ``expected``."""
    for key, want in expected.items():
        if output[key] != want:
            return f"{key}: got {output[key]!r}, expected {want!r}"
    return None


class PaperPredict(Workload):
    """Steps A-E on NAS at scale 1.0, elbow K, on all three targets,
    paying what one ``repro predict`` process pays."""

    name = "paper_predict"

    def setup(self) -> None:
        self.expected: Optional[Dict] = None
        if self.seed == GOLDEN_SEED:
            with open(os.path.join(self.root, GOLDEN_PATH)) as fh:
                golden = json.load(fh)["nas"]
            self.expected = {key: golden[key] for key in (
                "elbow", "k", "labels", "representatives",
                "median_error_pct")}

    def op(self, i: int) -> Dict:
        clear_lowering_memo()
        measurer = Measurer(noise=NoiseModel(seed=self.seed))
        reducer = pipeline.BenchmarkReducer(
            suites.build_nas_suite(1.0), measurer)
        reduced = reducer.reduce("elbow")
        errors = {}
        for target in TARGETS:
            evaluation = pipeline.evaluate_on_target(
                reduced, target, measurer, resilience=reducer.resilience)
            errors[target.name] = evaluation.median_error_pct
        self.record_health(reducer.health)
        return {"elbow": reduced.elbow, "k": reduced.k,
                "labels": [int(x) for x in reduced.labels],
                "representatives": list(reduced.representatives),
                "median_error_pct": errors}

    def check(self, i: int, output: Dict) -> Optional[str]:
        if self.expected is None:
            # Off the golden seed, every op must repeat the first.
            self.expected = output
            return None
        return _compare(self.expected, output)


class GASelect(Workload):
    """One Table 2 GA feature selection on the NR profiles."""

    name = "ga_select"

    def setup(self) -> None:
        self.measurer = Measurer()
        reducer = pipeline.BenchmarkReducer(suites.build_nr_suite(1.0),
                                            self.measurer)
        self.profiles = reducer.profiling().profiles
        self.record_health(reducer.health)
        # Warm the model memo for the training targets and for the
        # reference fidelity probes, so every op does the same work, as
        # later ops of a shared measurer do.
        ga.FeatureSelectionProblem(self.profiles, self.measurer)
        for profile in self.profiles:
            self.measurer.is_ill_behaved(profile.codelet, REFERENCE)
        self.config = ga.GAConfig(seed=derive_seed(self.seed, "ga"),
                                  **TABLE2_GA)
        self.first_mask: Optional[Tuple[bool, ...]] = None

    def op(self, i: int):
        return ga.select_features(self.profiles, self.measurer,
                                  self.config)

    def check(self, i: int, output) -> Optional[str]:
        result, problem = output
        all_features = problem.evaluate_mask(
            np.ones(problem.n_bits, dtype=bool))
        if not result.best_fitness <= all_features:
            return (f"best fitness {result.best_fitness!r} is worse than "
                    f"the all-features fitness {all_features!r}")
        if self.first_mask is None:
            self.first_mask = result.best_mask
        elif result.best_mask != self.first_mask:
            return "GA seed repeated but the selected mask changed"
        return None


class RandomBaseline(Workload):
    """Figure 7 points: guided reduce-at-K + Step E, then 200 random
    K-partitionings, cycling over K x target."""

    name = "random_baseline"
    samples = 200
    #: One round is every Figure 7 point once: op times differ by k.
    round_ops = len(FIGURE7_KS) * len(TARGETS)

    def setup(self) -> None:
        self.measurer = Measurer()
        self.reducer: Optional[pipeline.BenchmarkReducer] = None
        self.points = [(k, target) for k in FIGURE7_KS
                       for target in TARGETS]
        self.sample_seed = derive_seed(self.seed, "random_baseline")
        self.seen: Dict[Tuple[int, str], Tuple] = {}
        # One untimed pass over the targets profiles NAS and warms the
        # target model memo.
        for i in range(len(TARGETS)):
            error = self.check(i, self.op(i))
            if error is not None:
                raise RuntimeError(f"warm-up pass: {error}")

    def _start_round(self) -> None:
        # Each round is one Figure 7 sweep on a reducer of its own, as
        # ``repro fig7`` runs it.  A reducer kept across rounds records
        # spans and task health on every op, so peak memory would grow
        # with the number of ops a run holds.
        if self.reducer is not None:
            self.record_health(self.reducer.health)
        self.reducer = pipeline.BenchmarkReducer(
            suites.build_nas_suite(1.0), self.measurer)
        self.profiles = self.reducer.profiling().profiles

    def op(self, i: int) -> Tuple:
        if i % self.round_ops == 0:
            self._start_round()
        k, target = self.points[i % len(self.points)]
        reduced = self.reducer.reduce(k)
        evaluation = pipeline.evaluate_on_target(
            reduced, target, self.measurer,
            resilience=self.reducer.resilience)
        stats = random_baseline.random_clustering_errors(
            self.profiles, self.measurer, target, k,
            samples=self.samples, seed=self.sample_seed)
        return k, target.name, evaluation.median_error_pct, stats

    def runtime_health(self) -> Tuple[int, int]:
        health = self.reducer.health
        return (self.retries + health.total_retries,
                self.quarantined + len(health.quarantined))

    def check(self, i: int, output: Tuple) -> Optional[str]:
        k, target, guided, stats = output
        if not stats.best <= stats.median <= stats.worst:
            return f"k={k} {target}: random stats out of order {stats}"
        key = (k, target)
        if key not in self.seen:
            self.seen[key] = (guided, stats)
        elif self.seen[key] != (guided, stats):
            return (f"k={k} {target}: repeated point gave "
                    f"{(guided, stats)!r}, first {self.seen[key]!r}")
        return None


def simulated_accesses(measurer: Measurer) -> float:
    """Total measured accesses the trace backend simulated for the
    measurer's memoized model runs."""
    return sum(run.cache.accesses
               for run in measurer.runs_snapshot().values())


class TraceReduce(Workload):
    """Steps A-D on NR at scale 0.1 on the exact cache simulator."""

    name = "trace_reduce"

    def setup(self) -> None:
        self.first: Optional[Dict] = None

    def op(self, i: int) -> Dict:
        measurer = Measurer(noise=NoiseModel(seed=self.seed),
                            cache_backend="trace")
        reducer = pipeline.BenchmarkReducer(suites.build_nr_suite(0.1),
                                            measurer)
        reduced = reducer.reduce("elbow")
        self.record_health(reducer.health)
        return {"k": reduced.k,
                "representatives": list(reduced.representatives),
                "machine.sim_accesses": simulated_accesses(measurer)}

    def check(self, i: int, output: Dict) -> Optional[str]:
        if output["machine.sim_accesses"] <= 0:
            return "the trace backend simulated no accesses"
        if self.first is None:
            self.first = output
            return None
        return _compare(self.first, output)


WORKLOADS = {w.name: w for w in (PaperPredict, GASelect, RandomBaseline,
                                 TraceReduce)}
