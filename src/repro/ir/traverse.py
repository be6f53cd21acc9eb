"""Loop-nest access analysis shared by the compiler and cache models.

For every innermost loop we compute:

* the average trip count of each enclosing loop (exact for rectangular
  loops, midpoint-evaluated for triangular/affine bounds);
* every memory access site with its per-loop stride in elements/bytes;
* per-access footprints (distinct elements touched while a given set of
  loops iterates), which feed the analytical cache model.

These are the quantities MAQAO derives from the binary and the paper's
stride column of Table 3 reports (0, 1, -1, LDA, stencil...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .expr import AffineIndex, Array
from .kernel import Kernel
from .stmt import Loop, Store, walk_statements


@dataclass(frozen=True)
class Access:
    """One static memory access site inside an innermost loop body."""

    array: Array
    indices: Tuple[AffineIndex, ...]
    is_store: bool

    def stride_elems(self, var: str) -> int:
        """Elements skipped when loop variable ``var`` advances by one."""
        strides = self.array.strides_elems()
        return sum(idx.coefficient(var) * strides[d]
                   for d, idx in enumerate(self.indices))

    def stride_bytes(self, var: str) -> int:
        return self.stride_elems(var) * self.array.dtype.size

    def variables(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for idx in self.indices:
            for v in idx.variables:
                if v not in seen:
                    seen.append(v)
        return tuple(seen)

    def footprint_elems(self, trips: Dict[str, float]) -> float:
        """Distinct elements touched while the loops in ``trips`` iterate.

        ``trips`` maps loop-variable names to their (average) trip
        counts.  Per dimension the touched span of an affine index is
        ``sum(|coef_v| * (trip_v - 1)) + 1``, clamped to the dimension
        extent; the footprint is the product over dimensions.
        """
        total = 1.0
        for d, idx in enumerate(self.indices):
            span = 1.0
            for var, coef in idx.coefs:
                if var in trips:
                    span += abs(coef) * max(0.0, trips[var] - 1.0)
            total *= min(span, float(self.array.shape[d]))
        return total

    def footprint_bytes(self, trips: Dict[str, float]) -> float:
        return self.footprint_elems(trips) * self.array.dtype.size


@dataclass(frozen=True)
class NestAnalysis:
    """Static description of one innermost loop and its enclosing nest."""

    loops: Tuple[Loop, ...]          # outermost ... innermost
    avg_trips: Tuple[float, ...]     # average trip count per loop
    accesses: Tuple[Access, ...]     # body access sites, loads then stores

    @property
    def innermost(self) -> Loop:
        return self.loops[-1]

    @property
    def inner_var(self) -> str:
        return self.innermost.var.name

    @property
    def depth(self) -> int:
        return len(self.loops)

    @property
    def body_iterations(self) -> float:
        """Times the innermost body executes per kernel invocation."""
        total = 1.0
        for t in self.avg_trips:
            total *= t
        return total

    @property
    def inner_trip(self) -> float:
        return self.avg_trips[-1]

    @property
    def outer_iterations(self) -> float:
        total = 1.0
        for t in self.avg_trips[:-1]:
            total *= t
        return total

    def trips_for(self, nlevels: int) -> Dict[str, float]:
        """Trip counts of the ``nlevels`` innermost loops (for footprints)."""
        sel = self.loops[len(self.loops) - nlevels:]
        trips = self.avg_trips[len(self.loops) - nlevels:]
        return {lp.var.name: t for lp, t in zip(sel, trips)}

    def loads(self) -> Tuple[Access, ...]:
        return tuple(a for a in self.accesses if not a.is_store)

    def stores(self) -> Tuple[Access, ...]:
        return tuple(a for a in self.accesses if a.is_store)

    def stride_class(self, access: Access) -> str:
        """Classify an access by its innermost-loop stride, Table 3 style:
        ``0`` scalar/accumulator, ``1``/``-1`` contiguous, ``lda`` large
        constant stride, ``k`` small non-unit stride."""
        s = access.stride_elems(self.inner_var)
        if s == 0:
            return "0"
        if abs(s) == 1:
            return "1" if s > 0 else "-1"
        line_elems = 64 // access.array.dtype.size
        return "lda" if abs(s) >= line_elems else "k"


def average_trip_counts(stack: Sequence[Loop]) -> Tuple[float, ...]:
    """Average trip count of each loop in a nest, outermost first.

    Affine bounds are evaluated with enclosing variables bound to the
    midpoint of their ranges, which is exact for bounds linear in one
    outer variable (triangular loops).
    """
    env: Dict[str, float] = {}
    trips: List[float] = []
    for loop in stack:
        lo = loop.lower.evaluate(env)
        hi = loop.upper.evaluate(env)
        trip = max(0.0, float(hi) - float(lo))
        trips.append(trip)
        env[loop.var.name] = (float(lo) + float(hi) - 1.0) / 2.0
    return tuple(trips)


def analyze_nests(kernel: Kernel) -> List[NestAnalysis]:
    """Analyse every innermost loop of a kernel."""
    out: List[NestAnalysis] = []
    for stmt, stack in walk_statements(kernel.body):
        if not (isinstance(stmt, Loop) and stmt.is_innermost()):
            continue
        loops = stack + (stmt,)
        accesses: List[Access] = []
        for inner_stmt, _ in walk_statements(stmt):
            if isinstance(inner_stmt, Store):
                for ld in inner_stmt.loads():
                    accesses.append(Access(ld.array, ld.indices, False))
                accesses.append(
                    Access(inner_stmt.array, inner_stmt.indices, True))
        out.append(NestAnalysis(loops, average_trip_counts(loops),
                                tuple(accesses)))
    return out


def kernel_stride_summary(kernel: Kernel) -> str:
    """Human-readable stride summary ("0 & 1 & -1"), as in Table 3."""
    classes: List[str] = []
    for nest in analyze_nests(kernel):
        for acc in nest.accesses:
            c = nest.stride_class(acc)
            if c not in classes:
                classes.append(c)
    return " & ".join(sorted(classes))
