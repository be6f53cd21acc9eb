"""Machine models: the hardware + hardware-counter substitute.

Provides the four Table 1 architectures, an analytical and a trace-driven
cache model, a bounded-resource execution-time model, a Likwid-style
dynamic metric deriver, and the measurement-noise model.
"""

from .architecture import (ALL_ARCHITECTURES, ATOM, CORE2,
                           EXTENDED_ARCHITECTURES, HASWELL, NEHALEM,
                           REFERENCE, SANDY_BRIDGE, TARGETS, Architecture,
                           CacheLevel, architecture_by_name, table1_rows)
from .cache_model import (AccessGroup, CacheProfile, LevelStats,
                          analyze_cache, collect_groups, lines_touched)
from .cache_sim import (HierarchySim, SetAssociativeCache, generate_trace,
                        simulate_cache, simulate_cache_reference)
from .cache_sim_vec import (BatchedHierarchySim, CompiledTrace,
                            compile_address_stream, simulate_cache_fast)
from .counters import DynamicMetrics, derive_metrics
from .exec_model import (ExecutionEstimate, NestCycles, compute_cycles,
                         estimate_execution, memory_cycles)
from .noise import EXACT, NoiseModel
from .platform import (ANALYTICAL, TRACE, MeasuredRun, default_options,
                       run_kernel_model)

__all__ = [
    "Architecture", "CacheLevel", "NEHALEM", "ATOM", "CORE2",
    "SANDY_BRIDGE", "HASWELL", "REFERENCE", "TARGETS",
    "ALL_ARCHITECTURES", "EXTENDED_ARCHITECTURES",
    "architecture_by_name", "table1_rows",
    "CacheProfile", "LevelStats", "AccessGroup", "analyze_cache",
    "collect_groups", "lines_touched",
    "HierarchySim", "SetAssociativeCache", "generate_trace",
    "simulate_cache", "simulate_cache_reference",
    "BatchedHierarchySim", "CompiledTrace", "compile_address_stream",
    "simulate_cache_fast",
    "DynamicMetrics", "derive_metrics",
    "ExecutionEstimate", "NestCycles", "compute_cycles",
    "estimate_execution", "memory_cycles",
    "NoiseModel", "EXACT",
    "MeasuredRun", "run_kernel_model", "default_options", "ANALYTICAL",
    "TRACE",
]
