"""Tests for extraction (Step D memory capture) and profiling (Step B)."""

import numpy as np
import pytest

from repro.codelets import (Codelet, capture_memory, extract,
                            find_suite_codelets, profile_codelet,
                            profile_codelets)
from repro.ir import run_kernel
from repro.suites import patterns as P


def _codelet(kernel, invocations=100, **kw):
    return Codelet(f"t/{kernel.name}", "t", (kernel,), (1.0,),
                   invocations=invocations, **kw)


class TestExtractor:
    def test_memory_dump_captures_all_arrays(self, saxpy_kernel):
        c = _codelet(saxpy_kernel)
        dump = capture_memory(c)
        assert set(dump.arrays) == {"x", "y", "a"}
        assert dump.nbytes == saxpy_kernel.footprint_bytes()

    def test_dump_restore_is_fresh_copy(self, saxpy_kernel):
        dump = capture_memory(_codelet(saxpy_kernel))
        st1 = dump.restore()
        st1["x"][:] = 0
        st2 = dump.restore()
        assert not np.array_equal(st1["x"], st2["x"]) or \
            (st2["x"] == 0).all() is False

    def test_microbenchmark_runs_like_original(self, saxpy_kernel):
        c = _codelet(saxpy_kernel)
        micro = extract(c, capture=True, seed=9)
        result = micro.run_once()
        # Reference execution over the same dump.
        expected = micro.dump.restore()
        run_kernel(saxpy_kernel, expected)
        np.testing.assert_allclose(result["y"], expected["y"])

    def test_run_once_repeatable(self, dot_kernel):
        micro = extract(_codelet(dot_kernel), capture=True)
        first = micro.run_once()["s"]
        second = micro.run_once()["s"]
        assert float(first) == float(second)

    def test_extract_without_capture(self, saxpy_kernel):
        micro = extract(_codelet(saxpy_kernel))
        assert micro.dump is None
        with pytest.raises(ValueError):
            micro.run_once()

    def test_fragile_flag_recorded(self, saxpy_kernel):
        micro = extract(_codelet(saxpy_kernel, fragile_opt=True))
        assert micro.compiled_without_context


class TestProfiling:
    def test_profile_contains_static_and_dynamic(self, measurer):
        c = _codelet(P.dot_product("d", 65_536))
        p = profile_codelet(c, measurer)
        assert p.static.n_flops > 0
        assert p.dynamic.flops > 0
        assert p.ref_seconds > 0
        assert p.name == c.name

    def test_total_ref_seconds(self, measurer):
        c = _codelet(P.dot_product("d", 65_536), invocations=50)
        p = profile_codelet(c, measurer)
        assert p.total_ref_seconds == pytest.approx(50 * p.ref_seconds)

    def test_min_cycles_filter(self, measurer):
        tiny = _codelet(P.vector_copy("tiny", 64), invocations=1)
        big = _codelet(P.vector_copy("big", 1 << 20), invocations=100)
        report = profile_codelets([tiny, big], measurer)
        assert [p.name for p in report.profiles] == [big.name]
        assert report.discarded[0][0] == tiny.name
        assert report.discarded[0][1] < 1e6

    def test_filter_threshold_parameter(self, measurer):
        tiny = _codelet(P.vector_copy("tiny", 64), invocations=1)
        report = profile_codelets([tiny], measurer, min_total_cycles=1.0)
        assert len(report.profiles) == 1

    def test_nas_suite_all_measurable(self, nas_suite, measurer):
        codelets = find_suite_codelets(nas_suite)
        report = profile_codelets(codelets, measurer)
        assert len(report.profiles) == 67
        assert not report.discarded

    def test_profile_lookup(self, measurer):
        c = _codelet(P.dot_product("d", 65_536))
        report = profile_codelets([c], measurer)
        assert report.profile(c.name).codelet is c
        with pytest.raises(KeyError):
            report.profile("nope")

    def test_profile_lookup_index_is_invisible(self, measurer):
        """The lazy name index must not leak into dataclass equality."""
        c = _codelet(P.dot_product("d", 65_536))
        report = profile_codelets([c], measurer)
        fresh = profile_codelets([c], measurer)
        assert report.profile(c.name) is report.profile(c.name)
        assert report == fresh          # only one side built its index
