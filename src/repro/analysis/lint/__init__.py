"""Dataflow/dependence static-analysis (lint) framework over the IR.

The framework is a registry of composable passes sharing one cached
:class:`~repro.ir.dependence.AnalysisContext` per kernel (the context
and the dependence solver live in :mod:`repro.ir.dependence`, shared
with the compiler and the rewrites); each pass emits structured
:class:`Diagnostic` objects with stable codes (see
:mod:`.diagnostics` for the full table).  Entry points:

* :func:`lint_kernel` — run every pass over one kernel;
* :func:`lint_suite` / :func:`make_suite_report` — lint whole built-in
  suites the way ``repro lint`` does;
* :class:`Baseline` — checked-in suppressions for accepted findings;
* :data:`CANARIES` / :func:`check_canaries` — known-good/bad kernels
  replayed by the ``lint-determinism`` verification invariant.
"""

from .diagnostics import Diagnostic, Severity, sort_diagnostics
from .registry import (PASS_REGISTRY, LintPass, describe_passes,
                       lint_kernel, lint_pass, make_diagnostic)

# Pass modules self-register on import; this order is the registration
# (and therefore execution) order and must stay fixed — lint output is
# deterministic by construction.
from . import deps as _deps                # noqa: F401  (L101-L104)
from . import overlap as _overlap          # noqa: F401  (L201-L202)
from . import bounds as _bounds            # noqa: F401  (L301)
from . import uninit as _uninit            # noqa: F401  (L401)
from . import deadstore as _deadstore      # noqa: F401  (L501)
from . import transform as _transform      # noqa: F401  (L601-L606)

from .baseline import (Baseline, Suppression, apply_baseline,
                       prune_baseline, BASELINE_VERSION)
from .canary import CANARIES, Canary, check_canaries
from .report import LintReport
from .runner import lint_suite, make_suite_report

__all__ = [
    "Diagnostic", "Severity", "sort_diagnostics",
    "PASS_REGISTRY", "LintPass", "describe_passes", "lint_kernel",
    "lint_pass", "make_diagnostic",
    "Baseline", "Suppression", "apply_baseline", "prune_baseline",
    "BASELINE_VERSION",
    "CANARIES", "Canary", "check_canaries",
    "LintReport",
    "lint_suite", "make_suite_report",
]
