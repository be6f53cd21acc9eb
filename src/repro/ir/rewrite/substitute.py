"""Structural IR surgery shared by the rewrite passes.

Everything here is *mechanical*: affine substitution over expressions
and statements, perfect-nest detection, and nest rebuilding.  None of it
decides whether a transformation is semantically sound — that is the job
of :mod:`repro.ir.rewrite.legality`, which consults the dependence
solver.  Keeping the two separate means an unsafe rewrite can still be
forced (``--force-unsafe``) and then *disproven* by the interpreter,
which is exactly what the ``transform-equivalence`` verify invariant
does.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence

from ..expr import AffineIndex, BinOp, Call, Const, Expr, Load
from ..kernel import Kernel
from ..stmt import Block, Loop, Stmt, Store

#: Substitution: loop-variable name -> affine replacement expression.
AffineSubst = Dict[str, AffineIndex]


def substitute_affine(idx: AffineIndex, subst: AffineSubst) -> AffineIndex:
    """Apply a variable substitution to one affine index."""
    out = AffineIndex((), idx.offset)
    for var, coef in idx.coefs:
        if var in subst:
            out = out + subst[var] * coef
        else:
            out = out + AffineIndex(((var, coef),), 0)
    return out


def substitute_expr(expr: Expr, subst: AffineSubst) -> Expr:
    """Apply a variable substitution to every Load index of ``expr``."""
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Load):
        return Load(expr.array,
                    tuple(substitute_affine(i, subst) for i in expr.indices),
                    expr.dtype)
    if isinstance(expr, BinOp):
        return BinOp(expr.op, substitute_expr(expr.left, subst),
                     substitute_expr(expr.right, subst), expr.dtype)
    if isinstance(expr, Call):
        return Call(expr.fn,
                    tuple(substitute_expr(a, subst) for a in expr.args),
                    expr.dtype)
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def substitute_stmt(stmt: Stmt, subst: AffineSubst) -> Stmt:
    """Apply a variable substitution to a statement subtree."""
    if isinstance(stmt, Store):
        return Store(stmt.array,
                     tuple(substitute_affine(i, subst) for i in stmt.indices),
                     substitute_expr(stmt.value, subst))
    if isinstance(stmt, Block):
        return Block(tuple(substitute_stmt(s, subst) for s in stmt))
    if isinstance(stmt, Loop):
        return Loop(stmt.var, substitute_affine(stmt.lower, subst),
                    substitute_affine(stmt.upper, subst),
                    Block(tuple(substitute_stmt(s, subst) for s in stmt.body)))
    raise TypeError(f"unknown statement node {type(stmt).__name__}")


# -- nest structure -----------------------------------------------------------


def perfect_chain(loop: Loop) -> List[Loop]:
    """Maximal perfectly-nested spine starting at ``loop``.

    Descends while the body is exactly one loop; the returned chain's
    last element owns the (loop-free or imperfect) innermost body.
    """
    chain = [loop]
    while len(chain[-1].body) == 1 \
            and isinstance(chain[-1].body.stmts[0], Loop):
        chain.append(chain[-1].body.stmts[0])
    return chain


def rebuild_chain(order: Sequence[Loop], innermost_body: Block) -> Loop:
    """Nest the given loops (outer first) around ``innermost_body``,
    keeping each loop's variable and bounds."""
    current = innermost_body
    for lp in reversed(tuple(order)):
        current = Block((Loop(lp.var, lp.lower, lp.upper, current),))
    return current.stmts[0]


def scoping_ok(order: Sequence[Loop],
               enclosing_vars: Sequence[str] = ()) -> bool:
    """True when every loop's bounds only reference variables of loops
    that come *before* it in the (reordered) chain — i.e. the reordered
    nest is still well-scoped.  Triangular nests fail this for the
    permutations that would hoist the dependent bound."""
    visible = set(enclosing_vars)
    for lp in order:
        used = set(lp.lower.variables) | set(lp.upper.variables)
        if not used <= visible:
            return False
        visible.add(lp.var.name)
    return True


def constant_trip(loop: Loop):
    """Trip count when ``upper - lower`` is constant; ``None`` otherwise.

    A constant *span* is enough — the bounds themselves may reference
    enclosing variables (the point loops of a tiled nest do)."""
    span = loop.upper - loop.lower
    if not span.is_constant():
        return None
    return max(0, span.offset)


def replace_outer(kernel: Kernel, old: Loop,
                  new: Sequence[Stmt]) -> Kernel:
    """Rebuild ``kernel`` with top-level statement ``old`` replaced by
    ``new`` (one or more statements)."""
    stmts: List[Stmt] = []
    for s in kernel.body:
        if s is old:
            stmts.extend(new)
        else:
            stmts.append(s)
    return replace(kernel, body=Block(tuple(stmts)))
