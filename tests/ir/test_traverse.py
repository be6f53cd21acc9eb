"""Tests for loop-nest access analysis: strides, trips, footprints."""

import pytest

from repro.ir import (DP, SP, KernelBuilder, analyze_nests,
                      kernel_stride_summary)


class TestTripCounts:
    def test_rectangular(self, stencil_kernel):
        nest, = analyze_nests(stencil_kernel)
        assert nest.avg_trips == (46.0, 46.0)
        assert nest.body_iterations == 46.0 * 46.0

    def test_triangular_midpoint(self):
        b = KernelBuilder("tri")
        n = 32
        m = b.array("m", (n, n), DP)
        s = b.scalar("s", DP)
        with b.loop(0, n) as i:
            with b.loop(0, i) as j:
                b.assign(s.value(), s.value() + m[i, j])
        nest, = analyze_nests(b.build())
        # Midpoint rule: average inner trip is (n-1)/2.
        assert nest.avg_trips[0] == 32.0
        assert nest.avg_trips[1] == pytest.approx(15.5)

    def test_outer_iterations(self, stencil_kernel):
        nest, = analyze_nests(stencil_kernel)
        assert nest.outer_iterations == 46.0
        assert nest.inner_trip == 46.0


class TestStrides:
    def test_unit_and_scalar(self, dot_kernel):
        nest, = analyze_nests(dot_kernel)
        strides = sorted(a.stride_elems(nest.inner_var)
                         for a in nest.accesses)
        assert strides == [0, 0, 1, 1]       # s (load+store), x, y

    def test_row_major_outer_stride(self, stencil_kernel):
        nest, = analyze_nests(stencil_kernel)
        u_access = next(a for a in nest.accesses
                        if a.array.name == "u")
        outer_var = nest.loops[0].var.name
        assert u_access.stride_elems(outer_var) == 48
        assert u_access.stride_bytes(outer_var) == 48 * 8

    def test_strided_access(self):
        b = KernelBuilder("str4")
        x = b.array("x", (512,), SP)
        y = b.array("y", (128,), SP)
        with b.loop(0, 128) as i:
            b.assign(y[i], x[4 * i])
        nest, = analyze_nests(b.build())
        x_access = next(a for a in nest.accesses
                        if a.array.name == "x")
        assert x_access.stride_elems(nest.inner_var) == 4

    def test_stride_classes(self, stencil_kernel):
        nest, = analyze_nests(stencil_kernel)
        classes = {nest.stride_class(a) for a in nest.accesses}
        assert classes == {"1"}

    def test_lda_class(self):
        b = KernelBuilder("lda")
        m = b.array("m", (64, 64), DP)
        s = b.scalar("s", DP)
        with b.loop(0, 64) as i:
            b.assign(s.value(), s.value() + m[i, 3])
        nest, = analyze_nests(b.build())
        m_access = next(a for a in nest.accesses
                        if a.array.name == "m")
        assert nest.stride_class(m_access) == "lda"


class TestFootprints:
    def test_unit_stride_footprint(self, dot_kernel):
        nest, = analyze_nests(dot_kernel)
        x_access = next(a for a in nest.accesses
                        if a.array.name == "x")
        trips = nest.trips_for(1)
        assert x_access.footprint_elems(trips) == 512.0
        assert x_access.footprint_bytes(trips) == 512.0 * 8

    def test_footprint_clamped_by_shape(self):
        b = KernelBuilder("clamp")
        x = b.array("x", (8,), DP)
        with b.loop(0, 100) as i:
            b.assign(x[0], x[0] + 1.0)
        nest, = analyze_nests(b.build())
        acc = nest.accesses[0]
        assert acc.footprint_elems(nest.trips_for(1)) == 1.0

    def test_2d_footprint(self, stencil_kernel):
        nest, = analyze_nests(stencil_kernel)
        v_store = next(a for a in nest.accesses if a.is_store)
        fp = v_store.footprint_elems(nest.trips_for(2))
        assert fp == pytest.approx(46.0 * 46.0)


class TestStrideSummary:
    def test_summary_string(self, dot_kernel):
        assert kernel_stride_summary(dot_kernel) == "0 & 1"

    def test_multiple_nests(self):
        b = KernelBuilder("two")
        x = b.array("x", (128,), DP)
        with b.loop(0, 128) as i:
            b.assign(x[i], 0.0)
        with b.loop(0, 64) as i:
            b.assign(x[2 * i], 1.0)
        summary = kernel_stride_summary(b.build())
        assert "1" in summary and "k" in summary
