"""Measurement layer: in-app probing and standalone microbenchmarking.

Two measurement modes exist, mirroring the paper's toolchain:

* **in-app** (Steps B and validation): the codelet runs inside its
  application — every dataset variant occurs, the rest of the program
  keeps pressure on the shared cache, and the probe overhead is paid per
  invocation;
* **standalone** (Steps D/E): the extracted microbenchmark replays only
  the first captured dataset, with no cache pressure, possibly compiled
  differently (fragile codelets), timed with the smallest invocation
  count that still measures well (≥ 1 ms and ≥ 10 invocations, median
  over invocations — Section 3.4).

The divergence between the two is precisely the ill-behaved-codelet
phenomenon the selection loop of Step D defends against.

A :class:`Measurer` memoizes model runs, since sweeps re-measure the
same (codelet, architecture) pairs many times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..machine.architecture import Architecture
from ..machine.counters import DynamicMetrics
from ..machine.noise import NoiseModel
from ..machine.platform import ANALYTICAL, MeasuredRun, run_kernel_model
from .codelet import Codelet

#: Step D invocation-reduction policy (Section 3.4).
MIN_BENCH_SECONDS = 1e-3
MIN_INVOCATIONS = 10
#: Upper bound on the invocation count: a degenerate codelet whose
#: standalone time is (near-)zero would otherwise ask for billions of
#: invocations to fill the 1 ms budget.
MAX_INVOCATIONS = 10 ** 6


@dataclass(frozen=True)
class StandaloneTiming:
    """A standalone microbenchmark measurement on one architecture."""

    codelet_name: str
    arch_name: str
    invocations: int
    per_invocation_s: float        # median over invocations
    total_bench_s: float           # wall time spent benchmarking

    @property
    def seconds(self) -> float:
        return self.per_invocation_s


def choose_invocations(estimated_seconds: float,
                       min_seconds: float = MIN_BENCH_SECONDS,
                       min_invocations: int = MIN_INVOCATIONS,
                       max_invocations: int = MAX_INVOCATIONS) -> int:
    """Fewest invocations so the run lasts ``min_seconds`` (≥ 10).

    Degenerate estimates — zero, negative, NaN or infinite — fall back
    to ``min_invocations``, and the count is capped at
    ``max_invocations`` so a near-zero standalone time (an empty or
    constant-folded codelet) can never demand an unbounded benchmark.
    """
    if not math.isfinite(estimated_seconds) or estimated_seconds <= 0:
        return min_invocations
    # The epsilon keeps exact ratios (1 ms / 10 us -> 100) from rounding
    # up on floating-point dust.
    needed = min_seconds / estimated_seconds - 1e-9
    if needed >= max_invocations:
        return max_invocations
    return max(min_invocations, int(math.ceil(needed)))


def average_metrics(parts: List[Tuple[DynamicMetrics, float]]) -> DynamicMetrics:
    """Invocation-weighted average of dynamic metric records."""
    if not parts:
        raise ValueError("no metrics to average")
    total_w = sum(w for _, w in parts)
    values: Dict[str, float] = {}
    for f in fields(DynamicMetrics):
        if f.name == "arch_name":
            continue
        values[f.name] = sum(getattr(m, f.name) * w
                             for m, w in parts) / total_w
    return DynamicMetrics(arch_name=parts[0][0].arch_name, **values)


class Measurer:
    """Memoizing facade over the machine model plus measurement noise."""

    def __init__(self, noise: Optional[NoiseModel] = None,
                 cache_backend: str = ANALYTICAL):
        self.noise = noise if noise is not None else NoiseModel()
        self.cache_backend = cache_backend
        self._runs: Dict[Tuple, MeasuredRun] = {}

    def runs_snapshot(self) -> Dict[Tuple, MeasuredRun]:
        """A copy of the memoized model runs."""
        return dict(self._runs)

    # -- raw model runs -------------------------------------------------------

    def model_run(self, codelet: Codelet, variant_idx: int,
                  arch: Architecture, standalone: bool) -> MeasuredRun:
        """Model one invocation of one dataset variant on ``arch``."""
        key = (codelet.name, variant_idx, arch.name, standalone,
               self.cache_backend)
        run = self._runs.get(key)
        if run is None:
            run = run_kernel_model(
                codelet.variants[variant_idx], arch,
                pressure_bytes=0.0 if standalone else codelet.pressure_bytes,
                warm=True,
                force_scalar=standalone and codelet.fragile_opt,
                cache_backend=self.cache_backend)
            self._runs[key] = run
        return run

    # -- noise-free truths ----------------------------------------------------

    def true_inapp_seconds(self, codelet: Codelet,
                           arch: Architecture) -> float:
        """True per-invocation time inside the application (all variants)."""
        return sum(
            self.model_run(codelet, i, arch, standalone=False).seconds_per_invocation * w
            for i, w in enumerate(codelet.variant_weights))

    def true_standalone_seconds(self, codelet: Codelet,
                                arch: Architecture) -> float:
        """True per-invocation time of the extracted microbenchmark."""
        return self.model_run(codelet, 0, arch,
                              standalone=True).seconds_per_invocation

    def inapp_metrics(self, codelet: Codelet,
                      arch: Architecture) -> DynamicMetrics:
        """Hardware-counter metrics over the in-app invocations."""
        parts = [(self.model_run(codelet, i, arch, standalone=False).metrics, w)
                 for i, w in enumerate(codelet.variant_weights)]
        return average_metrics(parts)

    def reference_cycles(self, codelet: Codelet,
                         arch: Architecture) -> float:
        """True cycles per invocation in-app (for the 1M-cycle filter)."""
        return sum(
            self.model_run(codelet, i, arch, standalone=False).cycles_per_invocation * w
            for i, w in enumerate(codelet.variant_weights))

    # -- noisy measurements ---------------------------------------------------

    def measure_inapp(self, codelet: Codelet, arch: Architecture,
                      run_id: int = 0) -> float:
        """One probed in-app measurement (per-invocation seconds)."""
        true = self.true_inapp_seconds(codelet, arch)
        key = f"inapp|{codelet.name}|{arch.name}|{run_id}"
        return self.noise.measure(true, key)

    def benchmark_standalone(self, codelet: Codelet, arch: Architecture,
                             run_id: int = 0) -> StandaloneTiming:
        """Time the extracted microbenchmark per Section 3.4.

        Picks the invocation count, measures each invocation with noise
        (constant probe overhead included), reports the median.
        """
        true = self.true_standalone_seconds(codelet, arch)
        n = choose_invocations(true)
        key = f"standalone|{codelet.name}|{arch.name}|{run_id}"
        samples = self.noise.measure_many(true, key, n)
        return StandaloneTiming(
            codelet_name=codelet.name,
            arch_name=arch.name,
            invocations=n,
            per_invocation_s=float(np.median(samples)),
            total_bench_s=float(np.sum(samples)),
        )

    # -- fidelity -------------------------------------------------------------

    def behavior_deviation(self, codelet: Codelet,
                           arch: Architecture) -> float:
        """Relative |standalone - in-app| / in-app deviation.

        A non-positive in-app time means the codelet does no measurable
        in-app work, so its standalone benchmark cannot represent
        anything: the deviation is infinite (ill-behaved), never the
        silently well-behaved 0.0 a naive guard would report.
        """
        inapp = self.true_inapp_seconds(codelet, arch)
        if inapp <= 0:
            return float("inf")
        standalone = self.true_standalone_seconds(codelet, arch)
        return abs(standalone - inapp) / inapp

    def is_ill_behaved(self, codelet: Codelet, arch: Architecture,
                       tolerance: float = 0.10) -> bool:
        """Step D criterion: standalone deviates > 10% from the original."""
        return self.behavior_deviation(codelet, arch) > tolerance
