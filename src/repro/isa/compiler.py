"""The compiler substrate: lowers IR kernels to abstract machine code.

This plays the role of ``icc -O3 [-xsse4.2]`` in the paper.  Per
innermost loop it

1. classifies the loop-carried dependences (:func:`analyze_dependences`,
   a query on the shared solver of :mod:`repro.ir.dependence`, one
   :class:`~repro.ir.dependence.AnalysisContext` per kernel):

   * **reductions** — a loop-invariant location updated through an
     associative operator (``s = s + x[i]``).  Vectorizable with
     partial sums (icc does this at ``-O3``), but the combining op
     forms a latency chain that in-order cores cannot hide;
   * **recurrences** — a location written at iteration ``i`` and read
     at iteration ``i + d`` (``x[i] = a * x[i-1] + b``, Table 3's
     "first order recurrence" rows).  Not vectorizable;

2. decides vectorization (legality from dependences, profitability from
   the access-stride mix and trip count — the heuristics responsible for
   the paper's "codelets compiled differently inside and outside the
   application" failure mode),
3. emits an abstract instruction body per (vector) iteration, with
   common-subexpression-eliminated loads, register-hoisted invariant
   accesses, scalarized strided accesses inside vector loops, intrinsic
   expansion, and unrolled loop overhead.

The result, :class:`CompiledKernel`, is what the MAQAO-substitute static
analyzer and the machine execution model consume.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.dependence import (FREE, AccessSite, AnalysisContext,
                             band_dependence, is_self_load)
from ..ir.expr import BinOp, Call, Expr, Load, walk_expr
from ..ir.fingerprint import kernel_fingerprint
from ..ir.kernel import Kernel
from ..ir.stmt import Loop, Store
from ..ir.traverse import Access, NestAnalysis, analyze_nests
from ..ir.types import DType, INT32
from .instructions import (BINOP_CLASS, INTRINSIC_EXPANSION, Instr, OpClass,
                           merge_instrs, sse_width, summarize)


@dataclass(frozen=True)
class TargetISA:
    """The instruction-set the compiler may emit.

    ``vec_bits == 0`` forbids SIMD entirely (pure scalar code).
    """

    name: str
    vec_bits: int


#: icc -O3 baseline on Core 2 / Atom in the paper.
SSE2 = TargetISA("sse2", 128)
#: icc -O3 -xsse4.2 on Nehalem / Sandy Bridge in the paper.
SSE42 = TargetISA("sse4.2", 128)
#: AVX, available for what-if experiments beyond the paper's setup.
AVX = TargetISA("avx", 256)
#: Scalar-only code generation (vectorizer disabled).
SCALAR = TargetISA("scalar", 0)


@dataclass(frozen=True)
class CompilerOptions:
    """Code-generation knobs.

    ``force_scalar`` models the extraction perturbation: a fragile codelet
    recompiled standalone can lose the vectorization it had inside the
    application (Section 3.4, ill-behaved category 2).
    """

    isa: TargetISA = SSE42
    unroll: int = 4
    allow_vectorize: bool = True
    reassoc_reductions: bool = True
    force_scalar: bool = False
    min_vector_trip_factor: int = 2      # need trip >= factor * VF
    unit_stride_profitability: float = 0.5


# ---------------------------------------------------------------------------
# Innermost-loop dependence classification
# ---------------------------------------------------------------------------

#: Operators through which a self-update can be reassociated into
#: partial accumulators.  ``sub`` qualifies when the accumulator is the
#: left operand (a running difference is a negated sum).
_ASSOCIATIVE = ("add", "sub", "mul", "min", "max")

Chain = Tuple[Tuple[OpClass, DType], ...]


@dataclass(frozen=True)
class Reduction:
    """A vectorizable self-accumulation."""

    array_name: str
    chain_ops: Chain                    # latency chain per update


@dataclass(frozen=True)
class Recurrence:
    """A loop-carried flow dependence that forbids vectorization."""

    array_name: str
    distance: int
    chain_ops: Chain                    # ops on the dep cycle


@dataclass(frozen=True)
class DepInfo:
    """Dependence summary of one innermost loop."""

    reductions: Tuple[Reduction, ...]
    recurrences: Tuple[Recurrence, ...]

    @property
    def vectorizable(self) -> bool:
        return not self.recurrences

    @property
    def has_reduction(self) -> bool:
        return bool(self.reductions)

    def chain_ops(self) -> Chain:
        """The longest (by op count) loop-carried latency chain."""
        chains = [r.chain_ops for r in self.recurrences]
        chains += [r.chain_ops for r in self.reductions]
        if not chains:
            return ()
        return max(chains, key=len)


def _op_class(node: Expr) -> Tuple[OpClass, DType]:
    """Latency-chain entry of one operator node."""
    if isinstance(node, BinOp):
        return BINOP_CLASS[node.op], node.dtype
    # A value passing through an intrinsic is not a simple
    # accumulation; approximate the chain with a multiply.
    return OpClass.FP_MUL, node.dtype


def _self_update_path(store: Store) -> Optional[Tuple[Expr, ...]]:
    """Operator nodes from the right-hand side's root down to its first
    (left-to-right) read of the stored element; None if it has none."""

    def search(expr: Expr) -> Optional[Tuple[Expr, ...]]:
        if isinstance(expr, Load):
            return () if is_self_load(store, expr) else None
        if isinstance(expr, BinOp):
            children = (expr.left, expr.right)
        elif isinstance(expr, Call):
            children = expr.args
        else:
            return None
        for child in children:
            below = search(child)
            if below is not None:
                return (expr,) + below
        return None

    return search(store.value)


def _expr_op_chain(expr: Expr) -> Chain:
    """All arithmetic ops of an expression (conservative cycle estimate)."""
    return tuple(_op_class(node) for node in walk_expr(expr)
                 if isinstance(node, (BinOp, Call)))


def analyze_dependences(ctx: AnalysisContext, inner: Loop) -> DepInfo:
    """Classify the loop-carried dependences of innermost loop ``inner``.

    A query on the shared solver: a store that is invariant in ``inner``
    and reads its own element (:meth:`AnalysisContext.is_reduction_store`)
    is a reduction when every operator on the path to that read
    reassociates, else a distance-1 recurrence.  Any other store is a
    recurrence with each same-array read whose distance over the band
    ``(inner,)`` alone — outer iterations fixed — is exact and positive.
    Pairs that are not uniformly generated never block
    (``docs/MODELING.md`` §2).
    """
    inner_var = inner.var.name
    sites = ctx.sites_in(inner)
    load_sites = [s for s in sites if not s.is_store]
    reductions: List[Reduction] = []
    recurrences: List[Recurrence] = []

    for site in sites:
        if not site.is_store:
            continue
        store, _ = ctx.stores[site.store_ordinal]
        invariant = all(idx.coefficient(inner_var) == 0
                        for idx in site.indices)
        if invariant and ctx.is_reduction_store(store):
            path = _self_update_path(store)
            chain = tuple(_op_class(node) for node in path)
            if all(isinstance(node, BinOp) and node.op in _ASSOCIATIVE
                   for node in path):
                reductions.append(Reduction(store.array.name, chain))
            else:
                recurrences.append(Recurrence(store.array.name, 1, chain))
            continue
        # Cross-iteration flow dependences against every read of the
        # stored array in the body.
        for load_site in load_sites:
            if load_site.array.name != site.array.name:
                continue
            dep = band_dependence(ctx, site, load_site, (inner,))
            if dep is None:
                continue
            distance, = dep.distance
            if distance is not FREE and distance > 0:
                reader, _ = ctx.stores[load_site.store_ordinal]
                recurrences.append(Recurrence(
                    store.array.name, distance,
                    _expr_op_chain(reader.value)))

    # Deduplicate recurrences by (array, distance).
    unique: Dict[Tuple[str, int], Recurrence] = {}
    for rec in recurrences:
        unique.setdefault((rec.array_name, rec.distance), rec)
    return DepInfo(tuple(reductions), tuple(unique.values()))


# ---------------------------------------------------------------------------
# Compiled form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledNest:
    """One innermost loop after code generation.

    ``body`` holds instructions per *vector iteration* (``vf`` source
    iterations); scalar loops have ``vf == 1``.  ``chain_ops`` is the
    loop-carried latency chain; ``chain_per_vector_iter`` tells whether
    the chain advances once per vector iteration (reassociated vector
    reduction) or once per source iteration (scalar reduction or true
    recurrence).
    """

    nest: NestAnalysis
    deps: DepInfo
    vectorized: bool
    vf: int
    body: Tuple[Instr, ...]
    chain_ops: Tuple[Tuple[OpClass, DType], ...]
    chain_per_vector_iter: bool
    dominant_dtype: DType

    @property
    def vector_iterations(self) -> float:
        """Vector iterations per kernel invocation."""
        return self.nest.body_iterations / self.vf

    def instrs_per_invocation(self) -> List[Instr]:
        return [i.scaled(self.vector_iterations) for i in self.body]

    @property
    def uops_per_vector_iter(self) -> float:
        return sum(i.count for i in self.body)

    def flops_per_invocation(self) -> float:
        return sum(i.flops for i in self.body) * self.vector_iterations


@dataclass(frozen=True)
class CompiledKernel:
    """A kernel lowered for one target ISA."""

    kernel: Kernel
    options: CompilerOptions
    nests: Tuple[CompiledNest, ...]

    def instrs_per_invocation(self) -> List[Instr]:
        out: List[Instr] = []
        for nest in self.nests:
            out.extend(nest.instrs_per_invocation())
        return merge_instrs(out)

    def flops_per_invocation(self) -> float:
        return sum(n.flops_per_invocation() for n in self.nests)

    def summary(self) -> Dict[str, float]:
        return summarize(self.instrs_per_invocation())


# ---------------------------------------------------------------------------
# Lowering helpers
# ---------------------------------------------------------------------------


def _dominant_dtype(inner_stores: List[Store]) -> DType:
    """Widest FP dtype in the body (DP beats SP); INT32 if no FP."""
    best: Optional[DType] = None
    for store in inner_stores:
        for expr in walk_expr(store.value):
            dt = expr.dtype
            if dt.is_float and (best is None or dt.size > best.size):
                best = dt
    if best is not None:
        return best
    return INT32


def _dedup_loads(sites: Sequence[AccessSite]) -> List[AccessSite]:
    """Load sites of the body after common-subexpression elimination."""
    seen = set()
    out: List[AccessSite] = []
    for site in sites:
        key = (site.array.name, site.indices)
        if not site.is_store and key not in seen:
            seen.add(key)
            out.append(site)
    return out


def _arith_instrs(expr: Expr, width: int) -> List[Instr]:
    """Arithmetic instructions of one expression tree."""
    out: List[Instr] = []
    for node in walk_expr(expr):
        if isinstance(node, BinOp):
            out.append(Instr(BINOP_CLASS[node.op], node.dtype, width))
        elif isinstance(node, Call):
            for opclass, count in INTRINSIC_EXPANSION[node.fn]:
                out.append(Instr(opclass, node.dtype, width, count))
    return out


def _unit_stride_fraction(accesses: List[Access], inner_var: str) -> float:
    """Fraction of moving accesses that are forward-contiguous — the
    profitability signal of the vectorizer.

    Only stride +1 counts: like icc, the model treats descending (-1)
    accesses as unprofitable to vectorize (they need reversing shuffles),
    which is why Table 3's "asc./desc. order" codelets stay scalar.
    """
    moving = [a for a in accesses if a.stride_elems(inner_var) != 0]
    if not moving:
        return 0.0
    unit = sum(1 for a in moving if a.stride_elems(inner_var) == 1)
    return unit / len(moving)


def _memory_instrs(load_sites: List[AccessSite],
                   store_sites: List[AccessSite],
                   inner_var: str, inner_trip: float, vf: int,
                   vectorized: bool) -> List[Instr]:
    """Loads/stores per vector iteration, modelling hoisting and
    scalarization of strided accesses inside vector loops."""
    out: List[Instr] = []

    def emit(array, indices, opclass: OpClass) -> None:
        stride = sum(
            idx.coefficient(inner_var) * array.strides_elems()[d]
            for d, idx in enumerate(indices))
        dtype = array.dtype
        if stride == 0:
            # Register-hoisted: touched once per inner-loop execution.
            count = vf / max(inner_trip, 1.0)
            out.append(Instr(opclass, dtype, 1, count))
        elif abs(stride) == 1 and vectorized:
            out.append(Instr(opclass, dtype, vf, 1.0))
        elif vectorized:
            # Scalarized access inside a vector loop: vf element moves
            # plus lane insert/extract shuffles.
            out.append(Instr(opclass, dtype, 1, float(vf)))
            out.append(Instr(OpClass.FP_MOVE, dtype, 1, float(vf - 1)))
        else:
            out.append(Instr(opclass, dtype, 1, 1.0))

    for load in load_sites:
        emit(load.array, load.indices, OpClass.LOAD)
    for store in store_sites:
        emit(store.array, store.indices, OpClass.STORE)
    return out


# ---------------------------------------------------------------------------
# Memoized lowering
# ---------------------------------------------------------------------------

#: Lowered kernels keyed by ``(kernel content fingerprint, options)``.
#: Structurally identical codelets — e.g. the same loop nest re-built
#: per dataset variant, or re-profiled across a K sweep — lower once
#: per process.  LRU-bounded so pathological suites cannot grow it
#: without limit.  Deliberately NOT wired into the per-run ``repro.obs``
#: metrics: the memo outlives a run, and a warm second run would then
#: report different counters, breaking the byte-identical trace-replay
#: guarantee.  Use :func:`lowering_memo_stats` for inspection instead.
_LOWERING_MEMO: "OrderedDict[Tuple[str, CompilerOptions], CompiledKernel]" \
    = OrderedDict()
_LOWERING_MEMO_LIMIT = 512
_memo_hits = 0
_memo_misses = 0


def lowering_memo_stats() -> Dict[str, int]:
    """Process-lifetime hit/miss/entry counts of the lowering memo."""
    return {"hits": _memo_hits, "misses": _memo_misses,
            "entries": len(_LOWERING_MEMO)}


def lowering_memo_keys() -> Tuple[Tuple[str, "CompilerOptions"], ...]:
    """Snapshot of the memo's ``(fingerprint, options)`` keys, LRU
    order.  Used by the transform-stability experiment to audit that
    structurally distinct kernel variants never collide on one memo
    entry."""
    return tuple(_LOWERING_MEMO)


def clear_lowering_memo() -> None:
    """Drop all memoized lowerings and reset the counters."""
    global _memo_hits, _memo_misses
    _LOWERING_MEMO.clear()
    _memo_hits = 0
    _memo_misses = 0


def compile_kernel(kernel: Kernel,
                   options: CompilerOptions = CompilerOptions()) -> CompiledKernel:
    """Lower ``kernel`` for one target ISA (memoized).

    Keyed by the kernel's content fingerprint
    (:func:`repro.ir.fingerprint.kernel_fingerprint`) plus the exact
    options, so a hit is guaranteed to describe a structurally
    identical kernel.  On a hit for a *different* kernel object the
    result is re-attached to the caller's kernel (nest analyses are
    content-determined, so they transfer)."""
    global _memo_hits, _memo_misses
    key = (kernel_fingerprint(kernel), options)
    hit = _LOWERING_MEMO.get(key)
    if hit is not None:
        _LOWERING_MEMO.move_to_end(key)
        _memo_hits += 1
        return hit if hit.kernel is kernel else replace(hit, kernel=kernel)
    _memo_misses += 1
    compiled = _lower(kernel, options)
    _LOWERING_MEMO[key] = compiled
    if len(_LOWERING_MEMO) > _LOWERING_MEMO_LIMIT:
        _LOWERING_MEMO.popitem(last=False)
    return compiled


def _lower(kernel: Kernel, options: CompilerOptions) -> CompiledKernel:
    """The actual lowering pipeline (un-memoized)."""
    nests = analyze_nests(kernel)
    ctx = AnalysisContext(kernel)
    compiled: List[CompiledNest] = []
    for nest in nests:
        inner = nest.innermost
        inner_var = nest.inner_var
        sites = ctx.sites_in(inner)
        store_sites = [s for s in sites if s.is_store]
        inner_stores = [ctx.stores[s.store_ordinal][0] for s in store_sites]
        deps = analyze_dependences(ctx, inner)
        dtype = _dominant_dtype(inner_stores)

        vf = sse_width(dtype, options.isa.vec_bits)
        legal = deps.vectorizable and (
            not deps.has_reduction or options.reassoc_reductions)
        profitable = (
            _unit_stride_fraction(list(nest.accesses), inner_var)
            > options.unit_stride_profitability)
        big_enough = nest.inner_trip >= options.min_vector_trip_factor * vf
        vectorized = (options.allow_vectorize and not options.force_scalar
                      and vf > 1 and legal and profitable and big_enough)
        if not vectorized:
            vf = 1

        width = vf if vectorized else 1
        body: List[Instr] = []
        loads = _dedup_loads(sites)
        body += _memory_instrs(loads, store_sites, inner_var,
                               nest.inner_trip, vf, vectorized)
        for store in inner_stores:
            body += _arith_instrs(store.value, width)
        # Unrolled loop control: induction update + compare/branch.
        body.append(Instr(OpClass.INT_ALU, INT32, 1, 2.0 / options.unroll))
        body.append(Instr(OpClass.BRANCH, INT32, 1, 1.0 / options.unroll))

        chain = deps.chain_ops()
        compiled.append(CompiledNest(
            nest=nest,
            deps=deps,
            vectorized=vectorized,
            vf=vf,
            body=tuple(merge_instrs(body)),
            chain_ops=chain,
            chain_per_vector_iter=vectorized and deps.has_reduction
            and not deps.recurrences,
            dominant_dtype=dtype,
        ))
    return CompiledKernel(kernel, options, tuple(compiled))


def recompile_scalar(compiled: CompiledKernel) -> CompiledKernel:
    """Recompile a kernel with vectorization disabled (extraction
    perturbation of fragile codelets)."""
    return compile_kernel(compiled.kernel,
                          replace(compiled.options, force_scalar=True))
