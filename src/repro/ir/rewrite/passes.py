"""The rewrite registry: interchange, strip-mine, tile, fuse, unroll.

Each pass is a named function ``(kernel, param, force,
ignore_directions) -> (kernel', records)`` registered with
:func:`rewrite_pass`.  A pass walks the kernel's outermost nests, asks
:mod:`~repro.ir.rewrite.legality` for a verdict per target, and applies
the rewrite only when the verdict is legal (or when ``force`` overrides
an *illegal* — never an *inapplicable* — verdict).  Every decision is
returned as a :class:`TransformRecord`, so refusals always name the
blocking dependence.

Deterministic by construction: targets are visited in statement walk
order and described with canonical loop/site labels, so two runs over
the same IR produce identical records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..dependence import AnalysisContext
from ..expr import as_affine
from ..kernel import Kernel
from ..stmt import Block, Loop, fresh_index
from .legality import (LegalityVerdict, fuse_verdict, inapplicable,
                       interchange_verdict, nest_label,
                       order_preserving_verdict, tile_verdict)
from .substitute import (constant_trip, perfect_chain, rebuild_chain,
                         replace_outer, scoping_ok, substitute_stmt)

#: applied | forced | refused | inapplicable
STATUSES = ("applied", "forced", "refused", "inapplicable")


@dataclass(frozen=True)
class TransformRecord:
    """One rewrite decision on one target of one kernel."""

    kernel: str
    pass_name: str
    target: str
    status: str
    verdict: LegalityVerdict

    @property
    def applied(self) -> bool:
        return self.status in ("applied", "forced")

    def to_json(self) -> dict:
        return {
            "kernel": self.kernel,
            "pass": self.pass_name,
            "target": self.target,
            "status": self.status,
            "verdict": self.verdict.to_json(),
        }

    def __str__(self) -> str:
        line = (f"{self.pass_name:11s} {self.kernel} {self.target}: "
                f"{self.status}")
        if self.verdict.reason:
            line += f" — {self.verdict.reason}"
        if self.verdict.blocking:
            line += f" [blocked by {self.verdict.blocking}]"
        return line


RunFn = Callable[[Kernel, Optional[int], bool, bool],
                 Tuple[Kernel, List[TransformRecord]]]


@dataclass(frozen=True)
class RewritePass:
    """A registered loop transformation."""

    name: str
    description: str
    parametric: bool
    run: RunFn


#: name -> RewritePass, in registration order.
REWRITE_REGISTRY: Dict[str, RewritePass] = {}


def rewrite_pass(name: str, description: str, parametric: bool = False):
    def register(fn: RunFn) -> RunFn:
        if name in REWRITE_REGISTRY:
            raise ValueError(f"rewrite pass {name!r} registered twice")
        REWRITE_REGISTRY[name] = RewritePass(name, description,
                                             parametric, fn)
        return fn
    return register


def _record(kernel: Kernel, pass_name: str,
            verdict: LegalityVerdict, force: bool):
    """Decide applied/forced/refused/inapplicable from a verdict."""
    if verdict.legal:
        status = "applied"
    elif not verdict.applicable:
        status = "inapplicable"
    elif force:
        status = "forced"
    else:
        status = "refused"
    return TransformRecord(kernel.name, pass_name, verdict.target,
                           status, verdict)


# -- interchange --------------------------------------------------------------


@rewrite_pass(
    "interchange",
    "swap the two outermost loops of each >=2-deep perfect nest "
    "(legal iff no dependence direction flips lexicographic sign)")
def run_interchange(kernel: Kernel, param: Optional[int], force: bool,
                    ignore_directions: bool):
    ctx = AnalysisContext(kernel)
    records: List[TransformRecord] = []
    out = kernel
    for outer in kernel.outer_loops:
        chain = perfect_chain(outer)
        label = nest_label(ctx, chain)
        if len(chain) < 2:
            records.append(_record(kernel, "interchange", inapplicable(
                "interchange", f"nest {label}",
                "nest is not a >=2-deep perfect nest"), force))
            continue
        swapped = list(chain)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        if not scoping_ok(swapped):
            records.append(_record(kernel, "interchange", inapplicable(
                "interchange", f"nest {label}",
                "triangular bounds: the swapped loop's bounds depend "
                "on the loop it would move inside"), force))
            continue
        verdict = interchange_verdict(
            ctx, chain, 0, 1, ignore_directions=ignore_directions)
        record = _record(kernel, "interchange", verdict, force)
        records.append(record)
        if record.applied:
            new_outer = rebuild_chain(swapped, chain[-1].body)
            out = replace_outer(out, outer, [new_outer])
    return out, records


# -- strip-mine ---------------------------------------------------------------


@rewrite_pass(
    "stripmine",
    "split each outermost loop into tile/point loops of the given "
    "width (always legal: iteration order is preserved)",
    parametric=True)
def run_stripmine(kernel: Kernel, param: Optional[int], force: bool,
                  ignore_directions: bool):
    width = param or 0
    ctx = AnalysisContext(kernel)
    records: List[TransformRecord] = []
    out = kernel
    for outer in kernel.outer_loops:
        label = f"loop {ctx.loop_label(outer)}"
        trip = constant_trip(outer)
        if trip is None or trip == 0:
            records.append(_record(kernel, "stripmine", inapplicable(
                "stripmine", label,
                "loop trip count is not a positive constant"), force))
            continue
        if width < 2 or trip % width != 0:
            records.append(_record(kernel, "stripmine", inapplicable(
                "stripmine", label,
                f"trip count {trip} is not divisible by the "
                f"strip width {width}"), force))
            continue
        verdict = order_preserving_verdict("stripmine", label)
        records.append(_record(kernel, "stripmine", verdict, force))
        tile_var = fresh_index("t")
        point_lower = outer.lower + as_affine(tile_var) * width
        point = Loop(outer.var, point_lower, point_lower + width,
                     outer.body)
        tiled = Loop(tile_var, as_affine(0), as_affine(trip // width),
                     Block((point,)))
        out = replace_outer(out, outer, [tiled])
    return out, records


# -- tile ---------------------------------------------------------------------


@rewrite_pass(
    "tile",
    "block each perfect rectangular nest with square tiles of the "
    "given width (legal iff the band is fully permutable)",
    parametric=True)
def run_tile(kernel: Kernel, param: Optional[int], force: bool,
             ignore_directions: bool):
    width = param or 0
    ctx = AnalysisContext(kernel)
    records: List[TransformRecord] = []
    out = kernel
    for outer in kernel.outer_loops:
        chain = perfect_chain(outer)
        label = f"band {nest_label(ctx, chain)}"
        trips = [constant_trip(lp) for lp in chain]
        if any(not (lp.lower.is_constant() and lp.upper.is_constant())
               for lp in chain):
            records.append(_record(kernel, "tile", inapplicable(
                "tile", label,
                "band is not rectangular with constant bounds"), force))
            continue
        if width < 2 or any(t is None or t == 0 or t % width != 0
                            for t in trips):
            records.append(_record(kernel, "tile", inapplicable(
                "tile", label,
                f"trip counts {tuple(trips)} are not all divisible "
                f"by the tile width {width}"), force))
            continue
        verdict = tile_verdict(ctx, chain)
        record = _record(kernel, "tile", verdict, force)
        records.append(record)
        if not record.applied:
            continue
        tile_loops: List[Loop] = []
        point_loops: List[Loop] = []
        for lp, trip in zip(chain, trips):
            tile_var = fresh_index("t")
            tile_loops.append(Loop(tile_var, as_affine(0),
                                   as_affine(trip // width),
                                   Block(())))
            point_lower = lp.lower + as_affine(tile_var) * width
            point_loops.append(Loop(lp.var, point_lower,
                                    point_lower + width, Block(())))
        new_outer = rebuild_chain(tile_loops + point_loops,
                                  chain[-1].body)
        out = replace_outer(out, outer, [new_outer])
    return out, records


# -- fuse ---------------------------------------------------------------------


@rewrite_pass(
    "fuse",
    "merge adjacent top-level loops with identical bounds (legal iff "
    "no fusion-preventing backward dependence)")
def run_fuse(kernel: Kernel, param: Optional[int], force: bool,
             ignore_directions: bool):
    ctx = AnalysisContext(kernel)
    records: List[TransformRecord] = []
    stmts = list(kernel.body)
    if sum(isinstance(s, Loop) for s in stmts) < 2:
        records.append(_record(kernel, "fuse", inapplicable(
            "fuse", "kernel body",
            "fewer than two top-level loops"), force))
        return kernel, records
    # Greedy left-to-right: try to fold each loop into the group built
    # so far; a verdict is recorded per attempted adjacent pair.
    merged: List[object] = []
    group: List[Loop] = []

    def flush():
        if not group:
            return
        if len(group) == 1:
            merged.append(group[0])
        else:
            head = group[0]
            body = list(head.body.stmts)
            for member in group[1:]:
                subst = {member.var.name: as_affine(head.var)}
                body.extend(substitute_stmt(s, subst)
                            for s in member.body)
            merged.append(Loop(head.var, head.lower, head.upper,
                               Block(tuple(body))))
        group.clear()

    for s in stmts:
        if not isinstance(s, Loop):
            flush()
            merged.append(s)
            continue
        if not group:
            group.append(s)
            continue
        verdicts = [fuse_verdict(ctx, member, s) for member in group]
        blocked = next((v for v in verdicts if not v.legal), None)
        verdict = blocked if blocked is not None else verdicts[0]
        record = _record(kernel, "fuse", verdict, force)
        records.append(record)
        if record.applied:
            group.append(s)
        else:
            flush()
            group.append(s)
    flush()
    if len(merged) == len(stmts):
        return kernel, records
    from dataclasses import replace as dc_replace
    return dc_replace(kernel, body=Block(tuple(merged))), records


# -- unroll -------------------------------------------------------------------


@rewrite_pass(
    "unroll",
    "unroll the innermost loop of each perfect nest by the given "
    "factor (always legal: iteration order is preserved)",
    parametric=True)
def run_unroll(kernel: Kernel, param: Optional[int], force: bool,
               ignore_directions: bool):
    factor = param or 0
    ctx = AnalysisContext(kernel)
    records: List[TransformRecord] = []
    out = kernel
    for outer in kernel.outer_loops:
        chain = perfect_chain(outer)
        inner = chain[-1]
        label = f"loop {ctx.loop_label(inner)}"
        trip = constant_trip(inner)
        if trip is None or trip == 0:
            records.append(_record(kernel, "unroll", inapplicable(
                "unroll", label,
                "innermost trip count is not a positive constant"),
                force))
            continue
        if factor < 2 or trip % factor != 0:
            records.append(_record(kernel, "unroll", inapplicable(
                "unroll", label,
                f"trip count {trip} is not divisible by the unroll "
                f"factor {factor}"), force))
            continue
        verdict = order_preserving_verdict("unroll", label)
        records.append(_record(kernel, "unroll", verdict, force))
        unroll_var = fresh_index("u")
        base = inner.lower + as_affine(unroll_var) * factor
        body = []
        for r in range(factor):
            subst = {inner.var.name: base + r}
            body.extend(substitute_stmt(s, subst) for s in inner.body)
        new_inner = Loop(unroll_var, as_affine(0),
                         as_affine(trip // factor), Block(tuple(body)))
        new_outer = rebuild_chain(chain[:-1], Block((new_inner,))) \
            if len(chain) > 1 else new_inner
        out = replace_outer(out, outer, [new_outer])
    return out, records


def describe_passes() -> str:
    """One line per registered rewrite, for ``--list-passes``."""
    lines = [f"rewrite passes ({len(REWRITE_REGISTRY)}):"]
    for p in REWRITE_REGISTRY.values():
        name = p.name + ("=N" if p.parametric else "")
        lines.append(f"  {name:12s} {p.description}")
    return "\n".join(lines)
