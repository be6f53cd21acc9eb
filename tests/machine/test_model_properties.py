"""Property-based tests of machine-model invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import DP, SP, KernelBuilder
from repro.machine import (ALL_ARCHITECTURES, ATOM, NEHALEM,
                           analyze_cache, run_kernel_model)


@st.composite
def stream_kernels(draw):
    """Random unit-stride streaming kernels of varying size and arity."""
    n = draw(st.integers(64, 1 << 18))
    n_inputs = draw(st.integers(1, 3))
    dtype = draw(st.sampled_from([SP, DP]))
    b = KernelBuilder("prop_stream")
    xs = [b.array(f"x{i}", (n,), dtype) for i in range(n_inputs)]
    y = b.array("y", (n,), dtype)
    with b.loop(0, n) as i:
        expr = xs[0][i]
        for x in xs[1:]:
            expr = expr + x[i]
        b.assign(y[i], expr)
    return b.build(), n, n_inputs, dtype


class TestCacheModelProperties:
    @given(stream_kernels())
    @settings(max_examples=30, deadline=None)
    def test_misses_monotone_down_the_hierarchy(self, case):
        kernel, n, n_inputs, dtype = case
        for arch in (NEHALEM, ATOM):
            profile = analyze_cache(kernel, arch)
            misses = [lv.misses for lv in profile.levels]
            for shallow, deep in zip(misses, misses[1:]):
                assert deep <= shallow + 1e-9
            assert profile.mem_accesses <= misses[-1] + 1e-9

    @given(stream_kernels())
    @settings(max_examples=30, deadline=None)
    def test_misses_never_exceed_accesses(self, case):
        kernel, *_ = case
        profile = analyze_cache(kernel, NEHALEM)
        assert profile.levels[0].misses <= profile.accesses + 1e-9
        assert profile.levels[0].hits >= 0

    @given(stream_kernels(), st.floats(0.0, 8e6))
    @settings(max_examples=30, deadline=None)
    def test_pressure_never_reduces_misses(self, case, pressure):
        kernel, *_ = case
        clean = analyze_cache(kernel, ATOM, pressure_bytes=0.0)
        squeezed = analyze_cache(kernel, ATOM, pressure_bytes=pressure)
        assert squeezed.mem_accesses >= clean.mem_accesses - 1e-9

    @given(stream_kernels())
    @settings(max_examples=30, deadline=None)
    def test_cold_start_never_faster(self, case):
        kernel, *_ = case
        warm = analyze_cache(kernel, NEHALEM, warm=True)
        cold = analyze_cache(kernel, NEHALEM, warm=False)
        for w, c in zip(warm.levels, cold.levels):
            assert c.misses >= w.misses - 1e-9

    @given(st.integers(64, 1 << 16))
    @settings(max_examples=25, deadline=None)
    def test_traffic_scales_with_footprint(self, n):
        def stream(m):
            b = KernelBuilder("s")
            x = b.array("x", (m,), DP)
            y = b.array("y", (m,), DP)
            with b.loop(0, m) as i:
                b.assign(y[i], x[i])
            return b.build()

        small = analyze_cache(stream(n), ATOM, warm=False)
        big = analyze_cache(stream(2 * n), ATOM, warm=False)
        assert big.levels[0].misses >= small.levels[0].misses


class TestExecutionModelProperties:
    @given(stream_kernels())
    @settings(max_examples=20, deadline=None)
    def test_time_positive_and_finite(self, case):
        kernel, *_ = case
        for arch in ALL_ARCHITECTURES:
            run = run_kernel_model(kernel, arch)
            assert 0 < run.seconds_per_invocation < 1e4
            assert np.isfinite(run.metrics.mflops_rate)

    @given(st.integers(256, 1 << 14))
    @settings(max_examples=20, deadline=None)
    def test_more_work_takes_longer(self, n):
        def work(m):
            b = KernelBuilder("w")
            x = b.array("x", (m,), DP)
            with b.loop(0, m) as i:
                b.assign(x[i], x[i] * 1.5 + 0.5)
            return b.build()

        t1 = run_kernel_model(work(n), NEHALEM).seconds_per_invocation
        t2 = run_kernel_model(work(4 * n),
                              NEHALEM).seconds_per_invocation
        assert t2 > t1

    @given(stream_kernels())
    @settings(max_examples=20, deadline=None)
    def test_total_cycles_cover_both_phases(self, case):
        kernel, *_ = case
        est = run_kernel_model(kernel, NEHALEM).execution
        assert est.cycles >= est.compute_cycles - 1e-9
        assert est.cycles >= est.memory_cycles - 1e-9

    @given(stream_kernels())
    @settings(max_examples=15, deadline=None)
    def test_deterministic(self, case):
        kernel, *_ = case
        a = run_kernel_model(kernel, ATOM).seconds_per_invocation
        b = run_kernel_model(kernel, ATOM).seconds_per_invocation
        assert a == b
