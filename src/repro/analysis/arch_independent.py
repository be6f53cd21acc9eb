"""Architecture-independent workload characterisation.

Section 5 of the paper notes that its feature set is partly
architecture-dependent (MAQAO analyses the reference binary, Likwid
reads the reference machine's counters) and that
microarchitecture-independent metrics in the style of Hoste & Eeckhout
could generalise the method to very different targets.  This module
implements that extension: a feature set computed *purely from the IR*
— no lowering, no machine model, no counters — covering

* operation mix (add/mul/div/transcendental/int fractions),
* data types and precision,
* instruction-level parallelism (expression tree work/depth ratio),
* memory behaviour (footprints, stride mix, spatial/temporal locality
  scores, reuse across loop levels),
* control structure (loop depth, trip counts) and dependence shape
  (reductions, recurrences, as the compiler's ISA-independent
  :func:`~repro.isa.compiler.analyze_dependences` classifies them).

The what-if experiment (:mod:`repro.experiments.whatif`) compares
clustering on these features against the reference-trained set when
predicting an architecture unlike anything used in training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, List, Tuple

from ..ir.dependence import AnalysisContext
from ..ir.expr import BinOp, Call, Expr, walk_expr
from ..ir.kernel import Kernel
from ..ir.stmt import Store, walk_statements
from ..ir.traverse import analyze_nests
from ..isa.compiler import analyze_dependences


@dataclass(frozen=True)
class ArchIndependentProfile:
    """Machine-neutral characterisation of one kernel.

    All fractions are in [0, 1]; footprints and trip counts are log10;
    per-iteration counts are per innermost source iteration.
    """

    # Operation mix (fractions of all scalar operations)
    frac_fp_add: float
    frac_fp_mul: float
    frac_fp_div: float
    frac_transcendental: float
    frac_int_ops: float
    frac_loads: float
    frac_stores: float
    ops_per_iteration: float
    flops_per_byte: float

    # Data types
    frac_sp_data: float
    frac_dp_data: float
    frac_int_data: float

    # Parallelism
    ilp_estimate: float             # expr work / critical depth
    vectorizable: float             # legality only: no recurrences
    has_reduction: float
    has_recurrence: float
    recurrence_distance: float

    # Memory behaviour
    log_footprint_bytes: float
    log_iterations: float
    spatial_locality: float         # expected within-line reuse
    temporal_locality: float        # fraction of inner-invariant accesses
    frac_unit_stride: float
    frac_small_stride: float
    frac_large_stride: float
    reuse_ratio: float              # inner-window / full footprint

    # Control structure
    loop_depth: float
    log_inner_trip: float
    statements_per_iteration: float

    def as_dict(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


ARCH_INDEPENDENT_FEATURE_NAMES: Tuple[str, ...] = tuple(
    f.name for f in fields(ArchIndependentProfile))

_TRANSCENDENTALS = ("exp", "log", "sin", "cos", "pow")


def _expr_depth(expr: Expr) -> int:
    if isinstance(expr, BinOp):
        return 1 + max(_expr_depth(expr.left), _expr_depth(expr.right))
    if isinstance(expr, Call):
        return 1 + max(_expr_depth(a) for a in expr.args)
    return 0


def _expr_ops(expr: Expr) -> int:
    return sum(1 for node in walk_expr(expr)
               if isinstance(node, (BinOp, Call)))


def analyze_arch_independent(kernel: Kernel) -> ArchIndependentProfile:
    """Compute the architecture-independent profile of a kernel."""
    nests = analyze_nests(kernel)
    if not nests:
        raise ValueError(f"kernel {kernel.name!r} has no loops")

    weights = [n.body_iterations for n in nests]
    total_iters = sum(weights)

    # --- operation mix over the whole kernel, weighted by iterations ---
    counts = {"add": 0.0, "mul": 0.0, "div": 0.0, "trans": 0.0,
              "int": 0.0, "load": 0.0, "store": 0.0}
    work = 0.0
    depth_sum = 0.0
    nstmt = 0.0
    sp_bytes = dp_bytes = int_bytes = 0.0
    bytes_moved = 0.0
    flops = 0.0

    for nest, w in zip(nests, weights):
        inner_stores: List[Store] = [
            s for s, _ in walk_statements(nest.innermost)
            if isinstance(s, Store)]
        seen_loads = set()
        for store in inner_stores:
            nstmt += w
            counts["store"] += w
            bytes_moved += w * store.array.dtype.size
            for load in store.loads():
                key = (load.array.name, load.indices)
                if key in seen_loads:
                    continue
                seen_loads.add(key)
                counts["load"] += w
                bytes_moved += w * load.array.dtype.size
            work += w * _expr_ops(store.value)
            depth_sum += w * max(1, _expr_depth(store.value))
            for node in walk_expr(store.value):
                if isinstance(node, BinOp):
                    is_fp = node.dtype.is_float
                    if node.op in ("add", "sub", "min", "max"):
                        counts["add" if is_fp else "int"] += w
                    elif node.op == "mul":
                        counts["mul" if is_fp else "int"] += w
                    elif node.op == "div":
                        counts["div" if is_fp else "int"] += w
                    if is_fp:
                        flops += w
                elif isinstance(node, Call):
                    if node.fn in _TRANSCENDENTALS:
                        counts["trans"] += w
                    else:
                        counts["mul"] += w      # sqrt/abs-like
                    flops += w

    total_ops = max(1e-12, sum(counts.values()))

    for arr in kernel.arrays:
        if arr.dtype.name == "f32":
            sp_bytes += arr.nbytes
        elif arr.dtype.name == "f64":
            dp_bytes += arr.nbytes
        else:
            int_bytes += arr.nbytes
    total_bytes = max(1.0, sp_bytes + dp_bytes + int_bytes)

    # --- dependence shape: the vectorizer's own classification, which
    # comes before any ISA choice (legality is architecture independent)
    reductions = recurrences = 0
    rec_distance = 0.0
    vectorizable_w = 0.0
    ctx = AnalysisContext(kernel)
    for nest, w in zip(nests, weights):
        deps = analyze_dependences(ctx, nest.innermost)
        if deps.reductions:
            reductions += 1
        if deps.recurrences:
            recurrences += 1
            rec_distance = max(rec_distance,
                               max(r.distance for r in deps.recurrences))
        if deps.vectorizable:
            vectorizable_w += w

    # --- memory locality ---
    spatial = 0.0
    temporal = 0.0
    unit = small = large = 0.0
    n_sites = 0.0
    window_fp = 0.0
    full_fp = 0.0
    for nest in nests:
        inner = nest.inner_var
        for acc in nest.accesses:
            n_sites += 1
            stride_b = abs(acc.stride_bytes(inner))
            if stride_b == 0:
                temporal += 1
                spatial += 1.0
            else:
                spatial += min(1.0, 64.0 / stride_b) \
                    if stride_b <= 64 else 0.0
                if stride_b <= acc.array.dtype.size:
                    unit += 1
                elif stride_b < 64:
                    small += 1
                else:
                    large += 1
            window_fp += acc.footprint_bytes(nest.trips_for(1))
            full_fp += acc.footprint_bytes(nest.trips_for(nest.depth))

    footprint = max(1.0, float(kernel.footprint_bytes()))
    max_depth = max(n.depth for n in nests)
    inner_trip = sum(n.inner_trip * w
                     for n, w in zip(nests, weights)) / total_iters

    return ArchIndependentProfile(
        frac_fp_add=counts["add"] / total_ops,
        frac_fp_mul=counts["mul"] / total_ops,
        frac_fp_div=counts["div"] / total_ops,
        frac_transcendental=counts["trans"] / total_ops,
        frac_int_ops=counts["int"] / total_ops,
        frac_loads=counts["load"] / total_ops,
        frac_stores=counts["store"] / total_ops,
        ops_per_iteration=total_ops / total_iters,
        flops_per_byte=min(64.0, flops / max(bytes_moved, 1.0)),
        frac_sp_data=sp_bytes / total_bytes,
        frac_dp_data=dp_bytes / total_bytes,
        frac_int_data=int_bytes / total_bytes,
        ilp_estimate=work / max(depth_sum, 1e-12),
        vectorizable=vectorizable_w / total_iters,
        has_reduction=float(reductions > 0),
        has_recurrence=float(recurrences > 0),
        recurrence_distance=rec_distance,
        log_footprint_bytes=math.log10(footprint),
        log_iterations=math.log10(max(1.0, total_iters)),
        spatial_locality=spatial / max(n_sites, 1.0),
        temporal_locality=temporal / max(n_sites, 1.0),
        frac_unit_stride=unit / max(n_sites, 1.0),
        frac_small_stride=small / max(n_sites, 1.0),
        frac_large_stride=large / max(n_sites, 1.0),
        reuse_ratio=window_fp / max(full_fp, 1.0),
        loop_depth=float(max_depth),
        log_inner_trip=math.log10(max(1.0, inner_trip)),
        statements_per_iteration=nstmt / total_iters,
    )


def arch_independent_matrix(profiles):
    """A :class:`~repro.core.features.FeatureMatrix` over the
    architecture-independent catalogue, aligned with Step B profiles."""
    import numpy as np

    from ..core.features import FeatureMatrix

    rows = []
    for p in profiles:
        vec = analyze_arch_independent(p.codelet.kernel).as_dict()
        rows.append([vec[name]
                     for name in ARCH_INDEPENDENT_FEATURE_NAMES])
    return FeatureMatrix(tuple(p.name for p in profiles),
                         ARCH_INDEPENDENT_FEATURE_NAMES,
                         np.asarray(rows, dtype=float))
