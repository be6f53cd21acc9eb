"""Fast-vs-reference cache simulator equivalence (the differential
matrix, the batched-LRU kernel property, and trace-prefix properties
behind the ``cache-sim-equivalence`` verify invariant)."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import DP, SP, KernelBuilder
from repro.machine import (ATOM, NEHALEM, SetAssociativeCache,
                           compile_address_stream, generate_trace,
                           simulate_cache, simulate_cache_fast,
                           simulate_cache_reference)
from repro.machine.cache_sim_vec import _lru_level
from repro.verify.strategies import (recurrence_kernel, reduction_kernel,
                                     stencil_kernel, stream_kernel)

HETERO = replace(NEHALEM, name="hetero-lines", caches=(
    replace(NEHALEM.caches[0], line_bytes=32),
    replace(NEHALEM.caches[1], line_bytes=64),
    replace(NEHALEM.caches[2], line_bytes=128),
))
TINY = replace(NEHALEM, name="tiny-lines", caches=(
    replace(NEHALEM.caches[0], size_bytes=1024, line_bytes=4, assoc=2),
    replace(NEHALEM.caches[1], size_bytes=8192, line_bytes=8, assoc=4),
))


def _strided(n, stride=8):
    b = KernelBuilder("strided")
    src = b.array("src", (stride * n + stride,), DP)
    dst = b.array("dst", (n,), DP)
    with b.loop(0, n) as i:
        b.assign(dst[i], src[stride * i])
    return b.build()


def _multi_statement(n):
    """Two sibling loop nests + a triangular nest — exercises the
    lexsort interleave, not just the single-leaf shortcut."""
    b = KernelBuilder("multi")
    x = b.array("x", (n,), DP)
    y = b.array("y", (n,), DP)
    z = b.array("z", (n, 8), SP)
    with b.loop(0, n) as i:
        b.assign(y[i], x[i] * 2.0)
    with b.loop(0, n) as i:
        b.assign(x[i], y[i] + 1.0)
    with b.loop(0, 8) as i:
        with b.loop(0, i + 1) as j:
            b.assign(z[i, j], x[j] * 0.5)
    return b.build()


KERNELS = [
    stream_kernel("eq_stream", 512),
    stream_kernel("eq_stream_big", 8192),
    reduction_kernel("eq_dot", 1024),
    recurrence_kernel("eq_rec", 700),
    stencil_kernel("eq_stencil", 2048),
    _strided(512),
    _multi_statement(256),
]
ARCHS = [NEHALEM, ATOM, HETERO, TINY]


class TestCompiledTraceMatchesGenerator:
    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
    def test_streams_identical(self, kernel):
        ref = list(generate_trace(kernel))
        compiled = compile_address_stream(kernel)
        assert len(compiled) == len(ref)
        assert np.array_equal(compiled.addresses,
                              [t[0] for t in ref])
        assert np.array_equal(compiled.sizes, [t[1] for t in ref])
        assert np.array_equal(compiled.stores, [t[2] for t in ref])


class TestDifferentialMatrix:
    @pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.name)
    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
    def test_profiles_bit_identical(self, kernel, arch):
        for warmup in (0, 1):
            for max_accesses in (None, 257):
                ref = simulate_cache_reference(
                    kernel, arch, warmup_invocations=warmup,
                    max_accesses_per_invocation=max_accesses)
                fast = simulate_cache_fast(
                    kernel, arch, warmup_invocations=warmup,
                    max_accesses_per_invocation=max_accesses)
                assert fast == ref, (warmup, max_accesses)

    def test_dispatcher_backends_agree(self):
        kernel = stream_kernel("disp", 640)
        auto = simulate_cache(kernel, ATOM)
        fast = simulate_cache_fast(kernel, ATOM)
        ref = simulate_cache_reference(kernel, ATOM)
        assert auto == fast == ref

    def test_batch_skew_diverges_under_pressure(self):
        # The planted defect must actually be observable: capacity
        # evictions + reuse on the tiny architecture expose the
        # replacement-policy difference.
        kernel = reduction_kernel("skewed", 1024)
        ref = simulate_cache_reference(kernel, TINY)
        skewed = simulate_cache_fast(kernel, TINY, batch_skew=True)
        assert skewed != ref


class TestBatchedLRUKernel:
    """The batched per-set LRU against the dict-based reference cache,
    on raw line streams (no kernel in the loop)."""

    @given(st.lists(st.integers(0, 63), min_size=1, max_size=400),
           st.sampled_from([(4, 1), (4, 2), (8, 4), (1, 8)]))
    @settings(max_examples=60, deadline=None)
    def test_hit_stream_matches_reference(self, lines, geometry):
        nsets, assoc = geometry
        line_bytes = 64
        ref = SetAssociativeCache(nsets * assoc * line_bytes,
                                  line_bytes, assoc)
        expect = np.array([ref.access(line) for line in lines])
        tags = np.full((nsets, assoc), -1, dtype=np.int64)
        got = _lru_level(tags, np.asarray(lines, dtype=np.int64),
                         nsets, assoc, batch_skew=False)
        assert np.array_equal(got, expect)
        assert int(got.sum()) == ref.hits
        assert len(lines) - int(got.sum()) == ref.misses

    @given(st.lists(st.lists(st.integers(0, 63), min_size=1,
                             max_size=80),
                    min_size=2, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_state_persists_across_batches(self, batches):
        nsets, assoc, line_bytes = 8, 2, 64
        ref = SetAssociativeCache(nsets * assoc * line_bytes,
                                  line_bytes, assoc)
        tags = np.full((nsets, assoc), -1, dtype=np.int64)
        for batch in batches:
            expect = np.array([ref.access(line) for line in batch])
            got = _lru_level(tags, np.asarray(batch, dtype=np.int64),
                             nsets, assoc, batch_skew=False)
            assert np.array_equal(got, expect)


@st.composite
def small_kernels(draw):
    shape = draw(st.sampled_from(["stream", "dot", "rec", "stencil",
                                  "strided"]))
    n = draw(st.integers(32, 600))
    if shape == "stream":
        return stream_kernel("h_stream", n,
                             dtype=draw(st.sampled_from([SP, DP])))
    if shape == "dot":
        return reduction_kernel("h_dot", n)
    if shape == "rec":
        return recurrence_kernel("h_rec", n)
    if shape == "stencil":
        return stencil_kernel("h_stencil", n)
    return _strided(n, stride=draw(st.integers(1, 12)))


class TestKernelEquivalenceProperties:
    @given(small_kernels(), st.sampled_from(ARCHS),
           st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_random_kernel_profiles_identical(self, kernel, arch,
                                              warmup):
        ref = simulate_cache_reference(kernel, arch,
                                       warmup_invocations=warmup)
        fast = simulate_cache_fast(kernel, arch,
                                   warmup_invocations=warmup)
        assert fast == ref

    @given(small_kernels(), st.integers(1, 2000))
    @settings(max_examples=40, deadline=None)
    def test_truncation_is_strict_prefix(self, kernel, max_accesses):
        full = list(generate_trace(kernel))
        truncated = list(generate_trace(kernel,
                                        max_accesses=max_accesses))
        assert truncated == full[:max_accesses]
        compiled = compile_address_stream(kernel)
        addrs, sizes, stores = compiled.truncated(max_accesses)
        cut = min(max_accesses, len(full))
        assert addrs.shape[0] == cut
        assert np.array_equal(addrs, compiled.addresses[:cut])
        assert np.array_equal(sizes, compiled.sizes[:cut])
        assert np.array_equal(stores, compiled.stores[:cut])
