"""Metamorphic & differential correctness harness for the pipeline.

The paper's claims rest on invariants no single example states: cluster
assignments must not depend on codelet labels or ordering, feature
normalisation must make clustering unit-invariant, extrapolation must
be exact at K = N, and every runtime knob (such as the profile cache)
must change wall-clock time only.  This package makes those
properties *executable*:

* :mod:`~repro.verify.strategies` — seeded synthetic suites/codelets
  plus Hypothesis strategies over the same space (promoted from the
  runtime test helpers so all layers share one generator);
* :mod:`~repro.verify.invariants` — the named invariant registry and
  the :class:`VerifyContext` it runs against, with deliberate-defect
  injection (``BREAKAGES``) to prove each invariant actually bites;
* :mod:`~repro.verify.oracle` — the differential oracle: paired
  configuration runs (serial/pool, cached/uncached, elbow/explicit K)
  structurally diffed field by field;
* :mod:`~repro.verify.report` / :mod:`~repro.verify.runner` — the
  pass/fail report and the ``repro verify`` entry point.

See ``docs/VERIFY.md`` for how to add an invariant.
"""

from .invariants import (BREAKAGES, REGISTRY, Invariant,
                         InvariantResult, InvariantViolation,
                         VerifyContext, invariant, reduce_codelets,
                         run_registry)
from .oracle import (DIFFERENTIAL_CASES, DifferentialCase,
                     DifferentialResult, Discrepancy, diff_reduced,
                     run_differential)
from .report import VerifyReport
from .runner import describe_registry, run_verify
from .strategies import (FEATURE_MATRIX_VARIANTS, KERNEL_SHAPES,
                         architecture_configs,
                         benchmark_suites, codelet_lists,
                         feature_matrices,
                         random_codelet, random_codelets,
                         synthetic_suite)

__all__ = [
    "Invariant", "InvariantResult", "InvariantViolation",
    "VerifyContext", "REGISTRY", "BREAKAGES", "invariant",
    "run_registry", "reduce_codelets",
    "Discrepancy", "DifferentialCase", "DifferentialResult",
    "DIFFERENTIAL_CASES", "diff_reduced", "run_differential",
    "VerifyReport", "run_verify", "describe_registry",
    "KERNEL_SHAPES", "random_codelet", "random_codelets",
    "synthetic_suite", "codelet_lists", "benchmark_suites",
    "architecture_configs", "feature_matrices",
    "FEATURE_MATRIX_VARIANTS",
]
