"""Codelets, applications and benchmark suites.

A *codelet* (Section 3.1) is an outermost loop nest without side effects,
outlined from an application.  Our codelets carry what the paper's CF +
runtime observations provide:

* one or more **variants** — the datasets the codelet is invoked with
  over the application's lifetime.  Codelet Finder captures only the
  *first* invocation's memory; codelets whose later invocations differ
  are the paper's first category of ill-behaved codelets;
* ``fragile_opt`` — whether the surrounding code influences the
  compiler's optimization decisions, so that the standalone build loses
  them (second ill-behaved category);
* ``pressure_bytes`` — the LLC footprint of the rest of the application
  while the codelet runs in situ.  An extracted microbenchmark runs
  without that pressure, which is what made the paper's CG representative
  unfaithful on Atom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..ir.kernel import Kernel, SourceLoc


@dataclass(frozen=True)
class CodeletRegion:
    """A loop-nest region inside an application routine (pre-outlining).

    This is what the hotspot detector sees in the source; the finder
    turns accepted regions into :class:`Codelet` instances.
    """

    variants: Tuple[Kernel, ...]
    variant_weights: Tuple[float, ...]
    invocations: int
    srcloc: SourceLoc
    fragile_opt: bool = False
    pressure_bytes: float = 0.0

    def __post_init__(self):
        if not self.variants:
            raise ValueError("region needs at least one dataset variant")
        if len(self.variants) != len(self.variant_weights):
            raise ValueError("one weight per variant required")
        if abs(sum(self.variant_weights) - 1.0) > 1e-9:
            raise ValueError("variant weights must sum to 1")
        if self.invocations <= 0:
            raise ValueError("invocations must be positive")


@dataclass(frozen=True)
class Routine:
    """A source file/routine containing loop-nest regions."""

    file: str
    regions: Tuple[CodeletRegion, ...]


@dataclass(frozen=True)
class Codelet:
    """An outlined codelet (the unit everything downstream works on)."""

    name: str                       # "bt/rhs.f:266-311"
    app: str
    variants: Tuple[Kernel, ...]
    variant_weights: Tuple[float, ...]
    invocations: int
    fragile_opt: bool = False
    pressure_bytes: float = 0.0

    @property
    def kernel(self) -> Kernel:
        """The first-invocation dataset — all CF can capture."""
        return self.variants[0]

    @property
    def multi_context(self) -> bool:
        return len(self.variants) > 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Codelet({self.name}, x{self.invocations})"


@dataclass(frozen=True)
class Application:
    """A benchmark application: routines plus whole-app accounting.

    ``codelet_coverage`` is the fraction of application runtime spent in
    outlineable codelets (0.92 for the NAS suite per Akel et al.); the
    remaining time scales with the covered part during whole-application
    prediction (Section 4.4).
    """

    name: str
    routines: Tuple[Routine, ...]
    codelet_coverage: float = 0.92

    def __post_init__(self):
        if not 0.0 < self.codelet_coverage <= 1.0:
            raise ValueError("coverage must be in (0, 1]")

    def regions(self) -> List[Tuple[Routine, CodeletRegion]]:
        out = []
        for routine in self.routines:
            for region in routine.regions:
                out.append((routine, region))
        return out


@dataclass(frozen=True)
class BenchmarkSuite:
    """A named collection of applications (NR, NAS SER, ...)."""

    name: str
    applications: Tuple[Application, ...]

    def application(self, name: str) -> Application:
        for app in self.applications:
            if app.name == name:
                return app
        raise KeyError(name)

    @property
    def app_names(self) -> Tuple[str, ...]:
        return tuple(a.name for a in self.applications)
