"""Compiler substrate: abstract ISA, dependence analysis and lowering.

Substitutes for ``icc 12.1`` in the paper's toolchain.  The compiled
form (:class:`~repro.isa.compiler.CompiledKernel`) feeds both the static
analyzer (:mod:`repro.analysis`, the MAQAO substitute) and the machine
execution model (:mod:`repro.machine`).
"""

from .compiler import (AVX, SCALAR, SSE2, SSE42, CompiledKernel,
                       CompiledNest, CompilerOptions, DepInfo, Recurrence,
                       Reduction, TargetISA, analyze_dependences,
                       clear_lowering_memo, compile_kernel,
                       lowering_memo_keys, lowering_memo_stats,
                       recompile_scalar)
from .instructions import (BINOP_CLASS, FP_ARITH, INTRINSIC_EXPANSION,
                           MEMORY_OPS, Instr, OpClass, merge_instrs,
                           sse_width, summarize)

__all__ = [
    "TargetISA", "SSE2", "SSE42", "AVX", "SCALAR",
    "CompilerOptions", "CompiledKernel", "CompiledNest", "compile_kernel",
    "recompile_scalar", "lowering_memo_stats", "lowering_memo_keys",
    "clear_lowering_memo",
    "DepInfo", "Reduction", "Recurrence", "analyze_dependences",
    "Instr", "OpClass", "FP_ARITH", "MEMORY_OPS", "BINOP_CLASS",
    "INTRINSIC_EXPANSION", "merge_instrs", "summarize", "sse_width",
]
