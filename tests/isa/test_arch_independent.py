"""Tests for the architecture-independent characterisation (the
Section 5 extension)."""

import math

import numpy as np

from repro.analysis import (ARCH_INDEPENDENT_FEATURE_NAMES,
                            analyze_arch_independent,
                            arch_independent_matrix)
from repro.ir import DP, SP
from repro.suites import patterns as P


class TestCatalogue:
    def test_names_match_dataclass(self):
        prof = analyze_arch_independent(P.saxpy("s", 256))
        assert set(prof.as_dict()) == set(ARCH_INDEPENDENT_FEATURE_NAMES)

    def test_all_finite_for_every_pattern(self):
        kernels = [P.saxpy("a", 128), P.dot_product("b", 128),
                   P.vector_divide("c", 128), P.exp_div_nest("d", 8),
                   P.stencil5_2d("e", 32), P.mg_restrict("f", 16),
                   P.first_order_recurrence("g", 128),
                   P.int_prefix_sum("h", 128),
                   P.triangular_dot("i", 24),
                   P.fft_butterfly("j", 64)]
        for k in kernels:
            prof = analyze_arch_independent(k)
            for name, value in prof.as_dict().items():
                assert math.isfinite(value), (k.name, name)

    def test_fractions_bounded(self):
        prof = analyze_arch_independent(P.exp_div_nest("e", 8))
        for name, value in prof.as_dict().items():
            if name.startswith("frac_") or name in (
                    "spatial_locality", "temporal_locality",
                    "vectorizable"):
                assert 0.0 <= value <= 1.0, name


class TestOperationMix:
    def test_divide_kernel_div_fraction(self):
        div = analyze_arch_independent(P.vector_divide("d", 256))
        copy = analyze_arch_independent(P.vector_copy("c", 256))
        assert div.frac_fp_div > 0.1
        assert copy.frac_fp_div == 0.0

    def test_transcendental_fraction(self):
        prof = analyze_arch_independent(P.exp_div_nest("e", 8))
        assert prof.frac_transcendental > 0.0

    def test_int_kernel_has_int_ops(self):
        prof = analyze_arch_independent(P.int_prefix_sum("p", 256))
        assert prof.frac_int_ops > 0.0
        assert prof.frac_int_data == 1.0
        assert prof.frac_dp_data == 0.0

    def test_precision_fractions(self):
        dp = analyze_arch_independent(P.saxpy("s", 256, DP))
        sp = analyze_arch_independent(P.saxpy("s", 256, SP))
        assert dp.frac_dp_data > 0.9
        assert sp.frac_sp_data > 0.9


class TestDependenceAndParallelism:
    def test_recurrence_flags(self):
        rec = analyze_arch_independent(
            P.first_order_recurrence("r", 256))
        assert rec.has_recurrence == 1.0
        assert rec.vectorizable == 0.0
        assert rec.recurrence_distance == 1.0

    def test_reduction_flag(self):
        red = analyze_arch_independent(P.dot_product("d", 256))
        assert red.has_reduction == 1.0
        assert red.vectorizable == 1.0

    def test_ilp_higher_for_wide_expressions(self):
        stencil = analyze_arch_independent(P.stencil5_2d("s", 32))
        chain = analyze_arch_independent(P.polynomial_eval("p", 256, 6))
        # A stencil sum tree has more ILP than a Horner chain.
        assert stencil.ilp_estimate > chain.ilp_estimate


class TestLocality:
    def test_unit_stride_high_spatial_locality(self):
        prof = analyze_arch_independent(P.vector_copy("c", 256))
        assert prof.spatial_locality > 0.9
        assert prof.frac_unit_stride > 0.9

    def test_large_stride_low_spatial_locality(self):
        prof = analyze_arch_independent(P.row_scale("r", 128, 2))
        assert prof.spatial_locality < 0.5
        assert prof.frac_large_stride > 0.3

    def test_accumulator_temporal_locality(self):
        prof = analyze_arch_independent(P.dot_product("d", 256))
        assert prof.temporal_locality > 0.0

    def test_footprint_monotone_in_size(self):
        small = analyze_arch_independent(P.vector_copy("s", 256))
        big = analyze_arch_independent(P.vector_copy("b", 1 << 18))
        assert big.log_footprint_bytes > small.log_footprint_bytes


class TestMachineIndependence:
    def test_no_machine_input_needed(self):
        """The whole point: the profile is a pure function of the IR."""
        k = P.saxpy("s", 1024)
        a = analyze_arch_independent(k).as_dict()
        b = analyze_arch_independent(k).as_dict()
        assert a == b

    def test_matrix_construction(self, nas_suite, measurer):
        from repro.codelets import find_suite_codelets, profile_codelets
        profiles = profile_codelets(
            find_suite_codelets(nas_suite), measurer).profiles[:10]
        fm = arch_independent_matrix(profiles)
        assert fm.values.shape == (10,
                                   len(ARCH_INDEPENDENT_FEATURE_NAMES))
        assert np.isfinite(fm.values).all()

    def test_discriminates_nas_codelets(self, nas_suite, measurer):
        from repro.codelets import find_suite_codelets, profile_codelets
        profiles = profile_codelets(
            find_suite_codelets(nas_suite), measurer).profiles
        fm = arch_independent_matrix(profiles)
        unique = np.unique(np.round(fm.values, 9), axis=0)
        assert unique.shape[0] >= 25
