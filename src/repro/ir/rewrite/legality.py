"""Dependence-based legality analysis for loop rewrites.

Every verdict here is derived from the exact affine dependence solver
(:mod:`repro.ir.dependence`, shared with the compiler's vectorizer and
the lint passes) through the direction-vector matrices cached on
:class:`~repro.ir.dependence.AnalysisContext`.
The textbook rules, in the form implemented:

* **Permutation / interchange** — a reordering of a perfect nest is
  legal iff every dependence's direction vector keeps its lexicographic
  sign under the permutation.  For the classic two-loop case this is
  exactly "no dependence with direction ``(<, >)`` in the swapped
  pair".
* **Tiling** — legal iff the band is *fully permutable*: every
  dependence vector, normalised to lexicographically non-negative form,
  has only ``<``/``=`` entries across the band.
* **Fusion** — legal iff no *fusion-preventing* dependence: aligning
  the second loop's iteration space onto the first's, no dependence
  from a first-loop access to a second-loop access may run backwards
  (admit a lexicographically negative distance).

``*`` (unknown) direction entries are expanded to all three concrete
directions, so unresolved dependences are handled conservatively.

Verdicts are three-valued: ``legal``, ``illegal`` (dependence-blocked;
the blocking edge is cited, and ``--force-unsafe`` may override) and
``inapplicable`` (the IR cannot express the result — non-constant trip
counts, non-divisible factors, triangular bounds; never overridable).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

from ..dependence import (AccessSite, AnalysisContext, DependenceEdge,
                          concrete_lex_sign, direction_vector,
                          test_dependence)
from ..expr import as_affine
from ..stmt import Loop
from .substitute import substitute_affine

LEGAL = "legal"
ILLEGAL = "illegal"
INAPPLICABLE = "inapplicable"


@dataclass(frozen=True)
class LegalityVerdict:
    """Typed outcome of one legality query on one rewrite target.

    ``blocking`` cites the dependence that forbids an illegal rewrite
    (canonical site/loop labels only, so verdicts are deterministic
    across builds); it is ``None`` for legal/inapplicable verdicts.
    """

    rewrite: str
    target: str
    status: str
    reason: str = ""
    blocking: Optional[str] = None

    @property
    def legal(self) -> bool:
        return self.status == LEGAL

    @property
    def applicable(self) -> bool:
        return self.status != INAPPLICABLE

    def describe(self) -> str:
        body = f"{self.rewrite} on {self.target}: {self.status}"
        if self.reason:
            body += f" — {self.reason}"
        if self.blocking:
            body += f" (blocked by {self.blocking})"
        return body

    def to_json(self) -> dict:
        return {
            "rewrite": self.rewrite,
            "target": self.target,
            "status": self.status,
            "reason": self.reason,
            "blocking": self.blocking,
        }


def nest_label(ctx: AnalysisContext, chain: Sequence[Loop]) -> str:
    """Canonical ``(L0, L1)`` label of a loop chain."""
    return "(" + ", ".join(ctx.loop_label(lp) for lp in chain) + ")"


def _format_blocking(ctx: AnalysisContext, edge: DependenceEdge,
                     vector: Tuple[str, ...],
                     chain: Sequence[Loop]) -> str:
    labels = ", ".join(ctx.loop_label(lp) for lp in chain)
    return (f"{edge.kind} dependence {edge.pair_id} on "
            f"{edge.source.array.name!r}, directions "
            f"({', '.join(vector)}) over {labels}")


def _permutation_conflict(ctx: AnalysisContext, chain: Sequence[Loop],
                          perm: Sequence[int]):
    """First dependence whose lex sign flips under ``perm``, if any.

    Works over lex-non-negative normalised concrete vectors: a true
    dependence vector ``d`` survives the permutation iff ``perm(d)``
    stays lexicographically non-negative (it cannot become zero, and a
    negative result would run the dependence backwards)."""
    for edge, _ in ctx.direction_matrix(tuple(chain)):
        for conc in edge.concrete_vectors():
            if concrete_lex_sign(conc) == 0:
                continue                    # loop-independent: unaffected
            permuted = tuple(conc[p] for p in perm)
            if concrete_lex_sign(permuted) < 0:
                return edge, conc
    return None


def interchange_verdict(ctx: AnalysisContext, chain: Sequence[Loop],
                        i: int = 0, j: int = 1, *,
                        ignore_directions: bool = False) -> LegalityVerdict:
    """Legality of swapping ``chain[i]`` and ``chain[j]``.

    ``ignore_directions`` is the hook for the planted
    ``interchange-ignores-direction`` verify defect: it skips the
    direction-vector test entirely, declaring every structurally
    possible interchange legal.
    """
    chain = tuple(chain)
    target = (f"loops {ctx.loop_label(chain[i])}<->"
              f"{ctx.loop_label(chain[j])} of nest "
              f"{nest_label(ctx, chain)}")
    perm = list(range(len(chain)))
    perm[i], perm[j] = perm[j], perm[i]
    if not ignore_directions:
        conflict = _permutation_conflict(ctx, chain, perm)
        if conflict is not None:
            edge, vec = conflict
            pair = (f"({vec[i]}, {vec[j]}) in the swapped pair "
                    f"({ctx.loop_label(chain[i])}, "
                    f"{ctx.loop_label(chain[j])})")
            return LegalityVerdict(
                "interchange", target, ILLEGAL,
                reason=f"dependence direction {pair}",
                blocking=_format_blocking(ctx, edge, vec, chain))
    return LegalityVerdict(
        "interchange", target, LEGAL,
        reason="every dependence keeps its lexicographic sign")


def tile_verdict(ctx: AnalysisContext,
                 chain: Sequence[Loop]) -> LegalityVerdict:
    """Legality of tiling the whole chain: full permutability."""
    chain = tuple(chain)
    target = f"band {nest_label(ctx, chain)}"
    if len(chain) == 1:
        return LegalityVerdict(
            "tile", target, LEGAL,
            reason="single loop: strip-mining preserves iteration order")
    for edge, _ in ctx.direction_matrix(chain):
        for conc in edge.concrete_vectors():
            if any(d == ">" for d in conc):
                return LegalityVerdict(
                    "tile", target, ILLEGAL,
                    reason="band is not fully permutable",
                    blocking=_format_blocking(ctx, edge, conc, chain))
    return LegalityVerdict(
        "tile", target, LEGAL,
        reason="band is fully permutable")


def _aligned_site(site: AccessSite, from_loop: Loop,
                  to_loop: Loop) -> AccessSite:
    """Re-express a site of ``from_loop`` in ``to_loop``'s iteration
    space (variable renamed, loop stack spliced) for fusion testing."""
    subst = {from_loop.var.name: as_affine(to_loop.var)}
    indices = tuple(substitute_affine(idx, subst) for idx in site.indices)
    loops = tuple(to_loop if lp is from_loop else lp
                  for lp in site.loops)
    return replace(site, indices=indices, loops=loops)


def _may_run_backward(directions: Tuple[str, ...]) -> bool:
    """True when the direction vector admits a lexicographically
    negative concrete instance."""
    for d in directions:
        if d in (">", "*"):
            return True
        if d == "<":
            return False
    return False


def fuse_verdict(ctx: AnalysisContext, first: Loop, second: Loop,
                 target: Optional[str] = None) -> LegalityVerdict:
    """Legality of fusing ``second`` into ``first`` (same bounds).

    After alignment (``second``'s variable renamed to ``first``'s), a
    dependence from a first-loop access to a second-loop access that
    admits a negative distance is fusion-preventing: the fused loop
    would execute the sink before its source.
    """
    target = target or (f"loops {ctx.loop_label(first)}+"
                        f"{ctx.loop_label(second)}")
    if (first.lower, first.upper) != (second.lower, second.upper):
        return LegalityVerdict(
            "fuse", target, INAPPLICABLE,
            reason="loop bounds differ")
    first_sites = [s for s in ctx.sites if first in s.loops]
    second_sites = [s for s in ctx.sites if second in s.loops]
    for a in first_sites:
        for b in second_sites:
            if not (a.is_store or b.is_store):
                continue
            if a.array.name != b.array.name:
                continue
            aligned = _aligned_site(b, second, first)
            dep = test_dependence(ctx, a, aligned)
            if dep is None:
                continue
            directions = direction_vector(dep)
            if _may_run_backward(directions):
                labels = ", ".join(ctx.loop_label(lp)
                                   for lp in dep.loops)
                return LegalityVerdict(
                    "fuse", target, ILLEGAL,
                    reason="fusion-preventing backward dependence",
                    blocking=(f"dependence {a.site_id}/{b.site_id} on "
                              f"{a.array.name!r} would run backward, "
                              f"directions ({', '.join(directions)}) "
                              f"over {labels} after alignment"))
    return LegalityVerdict(
        "fuse", target, LEGAL,
        reason="no fusion-preventing backward dependence")


def order_preserving_verdict(rewrite: str, target: str) -> LegalityVerdict:
    """Strip-mining and unrolling enumerate the same iterations in the
    same order, so they are legal whenever they are expressible."""
    return LegalityVerdict(
        rewrite, target, LEGAL,
        reason="iteration order is preserved exactly")


def inapplicable(rewrite: str, target: str, reason: str) -> LegalityVerdict:
    return LegalityVerdict(rewrite, target, INAPPLICABLE, reason=reason)
