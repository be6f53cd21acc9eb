"""The lint pass registry and per-kernel driver.

A pass is a named function from :class:`AnalysisContext` to a list of
:class:`Diagnostic` objects, registered with :func:`lint_pass`.  The
driver (:func:`lint_kernel`) runs every registered pass (minus any
explicitly disabled ones) over one kernel and returns deterministically
sorted diagnostics.

Registration order is import order (see ``lint/__init__``), which is
fixed; combined with the diagnostic sort this makes lint output a pure
function of the kernel IR.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ...ir.dependence import AnalysisContext
from ...ir.kernel import Kernel
from .diagnostics import Diagnostic, Severity, sort_diagnostics

PassFn = Callable[[AnalysisContext], List[Diagnostic]]


@dataclass(frozen=True)
class LintPass:
    """A registered static-analysis pass."""

    pass_id: str
    codes: Tuple[str, ...]
    description: str
    run: PassFn


#: pass_id -> LintPass, in registration (import) order.
PASS_REGISTRY: Dict[str, LintPass] = {}


def lint_pass(pass_id: str, codes: Sequence[str], description: str):
    """Register a lint pass under ``pass_id``."""
    def register(fn: PassFn) -> PassFn:
        if pass_id in PASS_REGISTRY:
            raise ValueError(f"lint pass {pass_id!r} registered twice")
        PASS_REGISTRY[pass_id] = LintPass(pass_id, tuple(codes),
                                          description, fn)
        return fn
    return register


def make_diagnostic(ctx: AnalysisContext, *, code: str, pass_id: str,
                    severity: Severity, site: str, message: str,
                    array: Optional[str] = None,
                    scope: Optional[str] = None) -> Diagnostic:
    """Diagnostic constructor filling kernel/srcloc from the context."""
    return Diagnostic(scope=scope or ctx.kernel.name, code=code,
                      site=site, array=array, severity=severity,
                      pass_id=pass_id, kernel=ctx.kernel.name,
                      srcloc=ctx.srcloc, message=message)


def lint_kernel(kernel: Kernel, *, scope: Optional[str] = None,
                disabled: Iterable[str] = ()) -> Tuple[Diagnostic, ...]:
    """Run every registered pass over one kernel.

    ``scope`` overrides the diagnostic scope (the codelet name when
    linting suites); ``disabled`` names passes to skip — used by the
    verification harness to inject the ``drop-oob-check`` defect and by
    the CLI's ``--disable`` flag.
    """
    disabled = set(disabled)
    unknown = disabled - set(PASS_REGISTRY)
    if unknown:
        raise KeyError(f"unknown lint passes disabled: {sorted(unknown)}; "
                       f"registered: {sorted(PASS_REGISTRY)}")
    ctx = AnalysisContext(kernel)
    diags: List[Diagnostic] = []
    for p in PASS_REGISTRY.values():
        if p.pass_id in disabled:
            continue
        diags.extend(p.run(ctx))
    if scope is not None:
        diags = [replace(d, scope=scope) for d in diags]
    return sort_diagnostics(diags)


def describe_passes() -> str:
    """One line per registered pass, for ``repro lint --list-passes``."""
    lines = [f"lint passes ({len(PASS_REGISTRY)}):"]
    for p in PASS_REGISTRY.values():
        codes = ",".join(p.codes)
        lines.append(f"  {p.pass_id:10s} {codes:20s} {p.description}")
    return "\n".join(lines)
