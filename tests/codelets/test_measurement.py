"""Tests for the measurement layer: invocation reduction, in-app vs
standalone semantics, ill-behaved detection."""

import math

import pytest

from repro.codelets import (Codelet, Measurer, choose_invocations,
                            find_suite_codelets)
from repro.codelets.measurement import MAX_INVOCATIONS
from repro.machine import ATOM, NEHALEM
from repro.suites import patterns as P


def _codelet(kernel, variants=None, weights=None, **kw):
    variants = variants or (kernel,)
    weights = weights or tuple(1.0 / len(variants) for _ in variants)
    return Codelet(f"t/{kernel.name}", "t", tuple(variants),
                   tuple(weights), invocations=100, **kw)


class TestInvocationPolicy:
    def test_minimum_ten(self):
        assert choose_invocations(1.0) == 10
        assert choose_invocations(0.5e-3) == 10

    def test_one_millisecond_floor(self):
        assert choose_invocations(1e-5) == 100
        assert choose_invocations(1e-6) == 1000

    def test_degenerate_estimate(self):
        assert choose_invocations(0.0) == 10

    def test_non_finite_and_negative_estimates_fall_back(self):
        # Regression: NaN used to propagate into int(math.ceil(...))
        # and a negative estimate produced a bogus huge count.
        for bad in (float("nan"), float("inf"), float("-inf"), -1e-3):
            assert choose_invocations(bad) == 10

    def test_near_zero_estimate_is_capped(self):
        # Regression: a constant-folded codelet with ~0 standalone time
        # used to demand billions of invocations to fill the 1 ms
        # budget; the count is now capped.
        assert choose_invocations(5e-300) == MAX_INVOCATIONS
        assert choose_invocations(1e-10) == MAX_INVOCATIONS
        # Just under the cap still computes the exact count.
        assert choose_invocations(2e-9) == 500_000


class TestMeasurer:
    def test_memoization_returns_same_run(self, exact_measurer):
        c = _codelet(P.saxpy("s", 4096))
        r1 = exact_measurer.model_run(c, 0, NEHALEM, standalone=True)
        r2 = exact_measurer.model_run(c, 0, NEHALEM, standalone=True)
        assert r1 is r2

    def test_single_variant_well_behaved(self, exact_measurer):
        c = _codelet(P.saxpy("s", 4096))
        assert exact_measurer.behavior_deviation(c, NEHALEM) == \
            pytest.approx(0.0)
        assert not exact_measurer.is_ill_behaved(c, NEHALEM)

    def test_multi_variant_ill_behaved(self, exact_measurer):
        big = P.vector_copy("big", 1 << 20)
        small = P.vector_copy("small", 1 << 14)
        c = _codelet(big, variants=(big, small), weights=(0.5, 0.5))
        # Standalone replays only the big first variant.
        assert exact_measurer.is_ill_behaved(c, NEHALEM)
        standalone = exact_measurer.true_standalone_seconds(c, NEHALEM)
        inapp = exact_measurer.true_inapp_seconds(c, NEHALEM)
        assert standalone > inapp          # first variant is the big one

    def test_fragile_ill_behaved_on_compute_kernel(self, exact_measurer):
        c = _codelet(P.polynomial_eval("p", 8000, 4), fragile_opt=True)
        assert exact_measurer.is_ill_behaved(c, NEHALEM)
        # The standalone (scalar) build is slower than the in-app one.
        assert exact_measurer.true_standalone_seconds(c, NEHALEM) > \
            exact_measurer.true_inapp_seconds(c, NEHALEM)

    def test_pressure_ill_behaved_only_on_small_llc(self, exact_measurer,
                                                    nas_suite):
        cg_matvec = next(c for c in find_suite_codelets(nas_suite)
                         if c.name == "cg/cg.f:556-564")
        assert not exact_measurer.is_ill_behaved(cg_matvec, NEHALEM)
        assert exact_measurer.is_ill_behaved(cg_matvec, ATOM)

    def test_benchmark_standalone_policy(self, measurer):
        c = _codelet(P.saxpy("s", 4096))
        timing = measurer.benchmark_standalone(c, NEHALEM)
        assert timing.invocations >= 10
        assert timing.total_bench_s >= timing.per_invocation_s * 10 * 0.8
        true = measurer.true_standalone_seconds(c, NEHALEM)
        assert timing.per_invocation_s == pytest.approx(true, rel=0.2)

    def test_inapp_measurement_noisy_but_close(self, measurer):
        c = _codelet(P.vector_copy("c", 1 << 20))
        true = measurer.true_inapp_seconds(c, NEHALEM)
        measured = measurer.measure_inapp(c, NEHALEM)
        assert measured == pytest.approx(true, rel=0.15)

    def test_non_positive_inapp_time_is_ill_behaved(self, exact_measurer,
                                                    monkeypatch):
        # Regression: behavior_deviation returned 0.0 (perfectly
        # well-behaved!) for a codelet doing no measurable in-app work;
        # such a codelet must read as infinitely deviant instead.
        c = _codelet(P.saxpy("s", 4096))
        for degenerate in (0.0, -1e-9):
            monkeypatch.setattr(Measurer, "true_inapp_seconds",
                                lambda self, codelet, arch,
                                value=degenerate: value)
            deviation = exact_measurer.behavior_deviation(c, NEHALEM)
            assert math.isinf(deviation) and deviation > 0
            assert exact_measurer.is_ill_behaved(c, NEHALEM)

    def test_reference_cycles_weighted_over_variants(self, exact_measurer):
        big = P.vector_copy("big", 1 << 20)
        small = P.vector_copy("small", 1 << 16)
        c = _codelet(big, variants=(big, small), weights=(0.25, 0.75))
        cyc = exact_measurer.reference_cycles(c, NEHALEM)
        cb = exact_measurer.model_run(c, 0, NEHALEM,
                                      False).cycles_per_invocation
        cs = exact_measurer.model_run(c, 1, NEHALEM,
                                      False).cycles_per_invocation
        assert cyc == pytest.approx(0.25 * cb + 0.75 * cs)
