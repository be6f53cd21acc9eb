"""Synthetic suites, codelets and architectures for verification.

Promoted from the runtime test helpers (``tests/runtime/suitegen.py``)
so every test layer and the ``repro verify`` harness share one
generator.  Two styles coexist:

* **seeded generators** (:func:`random_codelets`,
  :func:`synthetic_suite`) — plain ``numpy`` RNG, no extra dependency,
  reproducible from a single integer seed.  Kernels span the shapes the
  pipeline cares about (streams, reductions, recurrences, stencils) and
  invocation counts straddle the 1M-cycle measurability filter so both
  kept and discarded outcomes are exercised;
* **Hypothesis strategies** (:func:`codelet_lists`,
  :func:`benchmark_suites`, :func:`architecture_configs`) — thin
  wrappers that let property tests shrink over the same generator
  space.  They require ``hypothesis`` and raise a clear error when it
  is absent, so the library itself keeps its numpy-only footprint.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

import numpy as np

from ..codelets.codelet import (Application, BenchmarkSuite, Codelet,
                                CodeletRegion, Routine)
from ..ir import DP, SP, KernelBuilder
from ..ir.kernel import SourceLoc
from ..machine.architecture import ALL_ARCHITECTURES, Architecture

try:                                    # optional test-time dependency
    from hypothesis import strategies as st
except ImportError:                     # pragma: no cover - CI has it
    st = None


def _require_hypothesis():
    if st is None:                      # pragma: no cover - CI has it
        raise RuntimeError(
            "repro.verify.strategies: the Hypothesis strategies need "
            "the 'hypothesis' package (pip install repro[test]); the "
            "seeded generators (random_codelets, synthetic_suite) work "
            "without it")


# ---------------------------------------------------------------------------
# Kernel shapes
# ---------------------------------------------------------------------------


def stream_kernel(name: str, n: int, dtype=DP,
                  loop_names: Sequence[str] = (None,)):
    """``y[i] += a * x[i]`` — a bandwidth-bound stream."""
    b = KernelBuilder(name)
    x = b.array("x", (n,), dtype)
    y = b.array("y", (n,), dtype)
    a = b.scalar("a", dtype, init=2.0)
    with b.loop(0, n, name=loop_names[0]) as i:
        b.assign(y[i], y[i] + a.value() * x[i])
    return b.build()


def reduction_kernel(name: str, n: int, dtype=DP,
                     loop_names: Sequence[str] = (None,)):
    """``s += x[i] * y[i]`` — a dot-product reduction."""
    b = KernelBuilder(name)
    x = b.array("x", (n,), dtype)
    y = b.array("y", (n,), dtype)
    s = b.scalar("s", dtype, init=0.0)
    with b.loop(0, n, name=loop_names[0]) as i:
        b.assign(s.value(), s.value() + x[i] * y[i])
    return b.build()


def recurrence_kernel(name: str, n: int, dtype=DP,
                      loop_names: Sequence[str] = (None,)):
    """``u[i] = r[i] - c * u[i-1]`` — a loop-carried recurrence."""
    b = KernelBuilder(name)
    u = b.array("u", (n,), dtype)
    r = b.array("r", (n,), dtype)
    c = b.scalar("c", dtype, init=0.5)
    with b.loop(1, n, name=loop_names[0]) as i:
        b.assign(u[i], r[i] - c.value() * u[i - 1])
    return b.build()


def stencil_kernel(name: str, n: int, dtype=DP,
                   loop_names: Sequence[str] = (None, None)):
    """A 4-point Jacobi sweep over an ``m × m`` interior."""
    b = KernelBuilder(name)
    m = max(8, int(n ** 0.5))
    u = b.array("u", (m, m), dtype)
    v = b.array("v", (m, m), dtype)
    with b.loop(1, m - 1, name=loop_names[0]) as i:
        with b.loop(1, m - 1, name=loop_names[1]) as j:
            b.assign(v[i, j], 0.25 * (u[i - 1, j] + u[i + 1, j]
                                      + u[i, j - 1] + u[i, j + 1]))
    return b.build()


#: name -> (builder, loop nest depth); the catalogue the generators
#: draw from and the fingerprint properties alpha-rename over.
KERNEL_SHAPES = {
    "stream": (stream_kernel, 1),
    "reduction": (reduction_kernel, 1),
    "recurrence": (recurrence_kernel, 1),
    "stencil": (stencil_kernel, 2),
}

_SHAPE_ORDER = tuple(KERNEL_SHAPES)


# ---------------------------------------------------------------------------
# Seeded codelet / suite generators
# ---------------------------------------------------------------------------


def random_codelet(rng: np.random.Generator, idx: int,
                   app: str = "rand", tame: bool = False) -> Codelet:
    """One random but reproducible codelet.

    With ``tame=True`` the codelet is guaranteed well-behaved and
    measurable: a single dataset variant, no fragile optimisations, no
    cache pressure (standalone replay is then bit-identical to the
    in-app run) and an invocation count safely above the 1M-cycle
    filter.  Invariants about exactness (K = N ⇒ zero extrapolation
    error) need that guarantee; everything else uses the wild default.
    """
    make, _ = KERNEL_SHAPES[_SHAPE_ORDER[int(rng.integers(
        len(_SHAPE_ORDER)))]]
    n = int(rng.integers(64, 768))
    dtype = DP if rng.random() < 0.7 else SP
    kernel = make(f"{app}_k{idx}", n, dtype)
    variants = (kernel,)
    weights = (1.0,)
    if not tame and rng.random() < 0.3:
        # A second dataset variant with a different working set.
        variants = (kernel, make(f"{app}_k{idx}b", max(64, n // 2), dtype))
        weights = (0.6, 0.4)
    return Codelet(
        name=f"{app}/k{idx}.f:{idx * 10}-{idx * 10 + 9}",
        app=app,
        variants=variants,
        variant_weights=weights,
        # Spans the 1M-cycle filter: small counts get discarded.
        invocations=int(rng.integers(5000, 50000)) if tame
        else int(rng.integers(1, 20000)),
        fragile_opt=False if tame else bool(rng.random() < 0.2),
        pressure_bytes=0.0 if tame
        else float(rng.choice([0.0, 2e6, 2e7])),
    )


def random_codelets(seed: int, count: int,
                    tame: bool = False) -> List[Codelet]:
    """``count`` reproducible codelets under one app (seeded RNG)."""
    rng = np.random.default_rng(seed)
    return [random_codelet(rng, i, tame=tame) for i in range(count)]


def synthetic_suite(seed: int, n_apps: int = 3,
                    codelets_per_app: int = 4,
                    name: Optional[str] = None) -> BenchmarkSuite:
    """A full :class:`BenchmarkSuite` the pipeline can run end to end.

    The generated regions go through Step A's Codelet Finder like the
    real suites do, so codelet naming, validation and suite traversal
    are exercised, not bypassed.
    """
    rng = np.random.default_rng(seed)
    apps = []
    idx = 0
    for a in range(n_apps):
        app_name = f"sy{a}"
        regions = []
        for _ in range(codelets_per_app):
            codelet = random_codelet(rng, idx, app=app_name)
            regions.append(CodeletRegion(
                variants=codelet.variants,
                variant_weights=codelet.variant_weights,
                invocations=codelet.invocations,
                srcloc=SourceLoc(f"k{idx}.f", idx * 10, idx * 10 + 9),
                fragile_opt=codelet.fragile_opt,
                pressure_bytes=codelet.pressure_bytes,
            ))
            idx += 1
        apps.append(Application(
            name=app_name,
            routines=(Routine(file=f"{app_name}.f",
                              regions=tuple(regions)),),
        ))
    return BenchmarkSuite(name or f"SYN-{seed}", tuple(apps))


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------


def codelet_lists(min_count: int = 2, max_count: int = 8,
                  tame: bool = False):
    """Strategy over lists of random codelets (shrinks seed and size)."""
    _require_hypothesis()
    return st.builds(random_codelets,
                     st.integers(min_value=0, max_value=2 ** 32 - 1),
                     st.integers(min_value=min_count,
                                 max_value=max_count),
                     st.just(tame))


def benchmark_suites(max_apps: int = 3, max_codelets_per_app: int = 4):
    """Strategy over whole synthetic benchmark suites."""
    _require_hypothesis()
    return st.builds(synthetic_suite,
                     st.integers(min_value=0, max_value=2 ** 32 - 1),
                     st.integers(min_value=1, max_value=max_apps),
                     st.integers(min_value=1,
                                 max_value=max_codelets_per_app))


def _feature_matrix(seed: int, rows: int, cols: int,
                    variant: str) -> np.ndarray:
    """One reproducible feature matrix for clustering properties.

    ``variant`` selects the tie structure: ``plain`` draws smooth
    gaussians, ``duplicates`` repeats rows (zero distances),
    ``quantized`` rounds to a coarse grid and ``lattice`` draws small
    integers — the latter three force exact distance ties, the regime
    where linkage tie-breaking contracts are actually exercised.
    """
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(rows, cols))
    if variant == "duplicates":
        src = rng.integers(rows, size=rows // 2)
        dst = rng.integers(rows, size=rows // 2)
        points[dst] = points[src]
    elif variant == "quantized":
        points = np.round(points * 2.0) / 2.0
    elif variant == "lattice":
        points = rng.integers(0, 3, size=(rows, cols)).astype(np.float64)
    return points


#: Tie-structure variants ``feature_matrices`` samples over.
FEATURE_MATRIX_VARIANTS = ("plain", "duplicates", "quantized", "lattice")


def feature_matrices(min_rows: int = 2, max_rows: int = 24,
                     max_cols: int = 6):
    """Strategy over float64 feature matrices (shrinks over seed,
    shape and tie-structure variant)."""
    _require_hypothesis()
    return st.builds(_feature_matrix,
                     st.integers(min_value=0, max_value=2 ** 32 - 1),
                     st.integers(min_value=min_rows, max_value=max_rows),
                     st.integers(min_value=1, max_value=max_cols),
                     st.sampled_from(FEATURE_MATRIX_VARIANTS))


def _scaled_architecture(arch: Architecture,
                         freq_scale: float) -> Architecture:
    if freq_scale == 1.0:
        return arch
    return replace(arch, name=f"{arch.name} x{freq_scale:g}",
                   freq_ghz=arch.freq_ghz * freq_scale)


def architecture_configs():
    """Strategy over architecture configurations: the four paper
    machines plus exact power-of-two frequency rescalings of each."""
    _require_hypothesis()
    return st.builds(_scaled_architecture,
                     st.sampled_from(ALL_ARCHITECTURES),
                     st.sampled_from([0.5, 1.0, 2.0]))
