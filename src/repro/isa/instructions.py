"""Abstract instruction set emitted by the compiler substrate.

The paper's static features come from MAQAO's analysis of the x86 binary
(instruction mix, vector widths, dispatch-port pressure).  We model the
binary loop body as a list of :class:`Instr` — op class + scalar dtype +
SIMD width — which is exactly the granularity those metrics need, without
committing to any concrete encoding.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..ir.types import DType


class OpClass(enum.Enum):
    """Functional classes of machine operations.

    ``FP_DIV``/``FP_SQRT`` are separated because they execute on the
    (unpipelined) divider and drive the "Number of floating point DIV"
    feature and the Atom slowdown of the paper's cluster 10.
    """

    LOAD = "load"
    STORE = "store"
    FP_ADD = "fp_add"        # add, sub, min, max, compares
    FP_MUL = "fp_mul"
    FP_DIV = "fp_div"
    FP_SQRT = "fp_sqrt"
    FP_MOVE = "fp_move"      # register moves, abs/sign masks, inserts
    INT_ALU = "int_alu"      # integer arithmetic, address computation
    BRANCH = "branch"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


FP_ARITH = (OpClass.FP_ADD, OpClass.FP_MUL, OpClass.FP_DIV, OpClass.FP_SQRT)
MEMORY_OPS = (OpClass.LOAD, OpClass.STORE)


@dataclass(frozen=True)
class Instr:
    """One (possibly SIMD) machine operation.

    ``width`` is the number of scalar lanes: 1 for scalar code, 2 for
    ``pd`` on 128-bit SSE, 4 for ``ps``...  ``count`` aggregates repeated
    identical operations so a lowered loop body stays compact.
    """

    opclass: OpClass
    dtype: DType
    width: int = 1
    count: float = 1.0

    @property
    def is_vector(self) -> bool:
        return self.width > 1

    @property
    def is_fp(self) -> bool:
        return self.opclass in FP_ARITH

    @property
    def flops(self) -> float:
        """Scalar floating point operations represented."""
        if not self.is_fp or not self.dtype.is_float:
            return 0.0
        return self.count * self.width

    @property
    def bytes_moved(self) -> float:
        if self.opclass not in MEMORY_OPS:
            return 0.0
        return self.count * self.width * self.dtype.size

    def scaled(self, factor: float) -> "Instr":
        return Instr(self.opclass, self.dtype, self.width,
                     self.count * factor)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        simd = f"x{self.width}" if self.width > 1 else ""
        return f"{self.opclass.value}.{self.dtype.name}{simd}*{self.count:g}"


#: Microcode expansion of math intrinsics, in scalar operations.  Modern
#: libm/SVML implementations are polynomial evaluations plus range
#: reduction; the op mixes below follow the shape (heavy on multiply-add)
#: and put a division where the real code pays a long-latency step.
INTRINSIC_EXPANSION: Dict[str, Tuple[Tuple[OpClass, float], ...]] = {
    "sqrt": ((OpClass.FP_SQRT, 1),),
    "exp": ((OpClass.FP_MUL, 11), (OpClass.FP_ADD, 9),
            (OpClass.FP_MOVE, 2), (OpClass.INT_ALU, 2)),
    "log": ((OpClass.FP_MUL, 12), (OpClass.FP_ADD, 10),
            (OpClass.FP_DIV, 1), (OpClass.FP_MOVE, 2),
            (OpClass.INT_ALU, 2)),
    "sin": ((OpClass.FP_MUL, 9), (OpClass.FP_ADD, 8),
            (OpClass.FP_MOVE, 2), (OpClass.INT_ALU, 2)),
    "cos": ((OpClass.FP_MUL, 9), (OpClass.FP_ADD, 8),
            (OpClass.FP_MOVE, 2), (OpClass.INT_ALU, 2)),
    "abs": ((OpClass.FP_MOVE, 1),),
    "sign": ((OpClass.FP_MOVE, 2),),
    "pow": ((OpClass.FP_MUL, 23), (OpClass.FP_ADD, 19),
            (OpClass.FP_DIV, 1), (OpClass.FP_MOVE, 4),
            (OpClass.INT_ALU, 4)),
}

#: Map IR binary operators to op classes.  min/max execute on the FP add
#: unit on every modelled microarchitecture.
BINOP_CLASS: Dict[str, OpClass] = {
    "add": OpClass.FP_ADD,
    "sub": OpClass.FP_ADD,
    "mul": OpClass.FP_MUL,
    "div": OpClass.FP_DIV,
    "min": OpClass.FP_ADD,
    "max": OpClass.FP_ADD,
}


def merge_instrs(instrs: List[Instr]) -> List[Instr]:
    """Coalesce instructions with identical (opclass, dtype, width)."""
    acc: Dict[Tuple[OpClass, str, int], float] = {}
    order: List[Tuple[OpClass, DType, int]] = []
    for ins in instrs:
        key = (ins.opclass, ins.dtype.name, ins.width)
        if key not in acc:
            order.append((ins.opclass, ins.dtype, ins.width))
        acc[key] = acc.get(key, 0.0) + ins.count
    return [Instr(oc, dt, w, acc[(oc, dt.name, w)]) for oc, dt, w in order]


def summarize(instrs: List[Instr]) -> Dict[str, float]:
    """Aggregate counts useful in tests and reports."""
    out = {
        "uops": sum(i.count for i in instrs),
        "flops": sum(i.flops for i in instrs),
        "loads": sum(i.count for i in instrs if i.opclass is OpClass.LOAD),
        "stores": sum(i.count for i in instrs if i.opclass is OpClass.STORE),
        "fp_div": sum(i.count for i in instrs
                      if i.opclass in (OpClass.FP_DIV, OpClass.FP_SQRT)),
        "vector_uops": sum(i.count for i in instrs if i.is_vector),
    }
    out["bytes_loaded"] = sum(i.bytes_moved for i in instrs
                              if i.opclass is OpClass.LOAD)
    out["bytes_stored"] = sum(i.bytes_moved for i in instrs
                              if i.opclass is OpClass.STORE)
    return out


def sse_width(dtype: DType, vec_bits: int) -> int:
    """SIMD lanes for ``dtype`` in a ``vec_bits``-wide register."""
    return max(1, vec_bits // (8 * dtype.size))
