"""Shared helpers for authoring the NAS-like application definitions."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from ...codelets.codelet import Application, CodeletRegion, Routine
from ...ir.kernel import Kernel, SourceLoc


def n_of(base: int, scale: float, floor: int = 48) -> int:
    """Scale a CLASS-B-like extent, keeping a testable floor."""
    return max(floor, int(base * scale))


def loc(file: str, first: int, last: int) -> SourceLoc:
    return SourceLoc(file, first, last)


def region(variants: Union[Kernel, Sequence[Kernel]], invocations: int, *,
           weights: Optional[Sequence[float]] = None,
           fragile: bool = False,
           pressure: float = 0.0,
           srcloc: Optional[SourceLoc] = None) -> CodeletRegion:
    """Build a codelet region from one kernel or dataset variants."""
    if isinstance(variants, Kernel):
        variants = (variants,)
    variants = tuple(variants)
    if weights is None:
        weights = tuple(1.0 / len(variants) for _ in variants)
    return CodeletRegion(
        variants=variants,
        variant_weights=tuple(weights),
        invocations=invocations,
        srcloc=srcloc or variants[0].srcloc,
        fragile_opt=fragile,
        pressure_bytes=pressure,
    )


def application(name: str, by_file: Dict[str, List[CodeletRegion]],
                coverage: float = 0.92) -> Application:
    """Assemble an application from regions grouped by source file."""
    routines = tuple(Routine(file, tuple(regions))
                     for file, regions in by_file.items())
    return Application(name, routines, codelet_coverage=coverage)
