"""Codelet layer: detection (Step A), profiling (Step B), extraction and
measurement (Step D) — the Codelet Finder + probe substrate."""

from .codelet import (Application, BenchmarkSuite, Codelet, CodeletRegion,
                      Routine)
from .extractor import MemoryDump, Microbenchmark, capture_memory, extract
from .finder import DetectionReport, find_codelets, find_suite_codelets
from .measurement import (MIN_BENCH_SECONDS, MIN_INVOCATIONS, Measurer,
                          StandaloneTiming, average_metrics,
                          choose_invocations)
from .profiling import (MIN_TOTAL_CYCLES, CodeletProfile, ProfileOutcome,
                        ProfilingReport, profile_codelet, profile_codelets,
                        profile_outcome)

__all__ = [
    "Codelet", "CodeletRegion", "Routine", "Application", "BenchmarkSuite",
    "DetectionReport", "find_codelets", "find_suite_codelets",
    "MemoryDump", "Microbenchmark", "capture_memory", "extract",
    "Measurer", "StandaloneTiming", "choose_invocations",
    "average_metrics", "MIN_BENCH_SECONDS", "MIN_INVOCATIONS",
    "CodeletProfile", "ProfileOutcome", "ProfilingReport",
    "profile_codelet", "profile_codelets", "profile_outcome",
    "MIN_TOTAL_CYCLES",
]
