"""The exact dependence solver: distance/direction vectors, the
non-uniform fallback, negative strides and edge normalisation."""

import pytest

from repro.ir import DP, KernelBuilder
from repro.ir.dependence import (DIRECTIONS, AnalysisContext,
                                 compute_dependence_edges,
                                 direction_vector, expand_directions,
                                 format_directions)
from repro.ir.dependence import test_dependence as dependence_between

pytestmark = pytest.mark.lint

N = 8


def _ctx(build):
    return AnalysisContext(build())


def _matmul():
    b = KernelBuilder("matmul")
    a = b.array("a", (N, N), DP)
    bb = b.array("b", (N, N), DP)
    c = b.array("c", (N, N), DP)
    with b.loop(0, N) as i:
        with b.loop(0, N) as j:
            with b.loop(0, N) as k:
                b.assign(c[i, j], c[i, j] + a[i, k] * bb[k, j])
    return b.build()


def _skewed_stencil():
    b = KernelBuilder("skew")
    u = b.array("u", (N, N), DP)
    with b.loop(1, N) as i:
        with b.loop(0, N - 1) as j:
            b.assign(u[i, j], u[i - 1, j + 1] * 0.5)
    return b.build()


def _reduction():
    b = KernelBuilder("red")
    x = b.array("x", (N,), DP)
    s = b.array("s", (1,), DP)
    with b.loop(0, N) as i:
        b.assign(s[0], s[0] + x[i])
    return b.build()


class TestDirectionVectors:
    def test_directions_alphabet(self):
        assert DIRECTIONS == ("<", "=", ">", "*")

    def test_matmul_reduction_is_free_on_k(self):
        # c[i,j] depends on c[i,j] at every k distance: (=, =, *).
        ctx = _ctx(_matmul)
        store = ctx.store_sites[0]
        load = next(s for s in ctx.load_sites if s.array.name == "c")
        dep = dependence_between(ctx, store, load)
        assert dep.kind == "uniform"
        assert dep.distance == (0, 0, None)
        assert direction_vector(dep) == ("=", "=", "*")

    def test_skewed_stencil_has_lt_gt_vector(self):
        # u[i,j] reads u[i-1,j+1]: distance (+1, -1), direction (<, >).
        ctx = _ctx(_skewed_stencil)
        store = ctx.store_sites[0]
        load = ctx.load_sites[0]
        dep = dependence_between(ctx, load, store)
        assert dep.kind == "uniform"
        assert sorted(dep.distance) in ([-1, 1],)
        assert set(direction_vector(dep)) == {"<", ">"}

    def test_scalar_reduction_is_fully_free(self):
        ctx = _ctx(_reduction)
        store = ctx.store_sites[0]
        load = next(s for s in ctx.load_sites if s.array.name == "s")
        dep = dependence_between(ctx, store, load)
        assert dep.distance == (None,)
        assert direction_vector(dep) == ("*",)

    def test_expand_directions_is_cartesian(self):
        got = expand_directions(("*", "="))
        assert set(got) == {("<", "="), ("=", "="), (">", "=")}
        assert expand_directions(("<",)) == (("<",),)


class TestNonUniformFallback:
    def test_coupled_subscripts_fall_back_to_overlap(self):
        # x[2*i] vs x[i+1]: unequal coefficient maps, ranges overlap.
        b = KernelBuilder("nonuni")
        x = b.array("x", (2 * N,), DP)
        with b.loop(0, N) as i:
            b.assign(x[2 * i], x[i + 1] * 0.5)
        ctx = AnalysisContext(b.build())
        dep = dependence_between(ctx, ctx.store_sites[0],
                                 ctx.load_sites[0])
        assert dep.kind == "overlap"
        assert dep.carried
        assert direction_vector(dep) == ("*",)

    def test_disjoint_ranges_prove_independence(self):
        # x[2*i] over [0, N) vs x[i + 2N]: intervals cannot intersect.
        b = KernelBuilder("disjoint")
        x = b.array("x", (3 * N,), DP)
        with b.loop(0, N) as i:
            b.assign(x[2 * i], x[i + 2 * N] * 0.5)
        ctx = AnalysisContext(b.build())
        assert dependence_between(ctx, ctx.store_sites[0],
                                  ctx.load_sites[0]) is None


class TestNegativeStrides:
    def test_descending_access_exact_distance(self):
        # u[N-1-i] written, u[N-i] read: delta solves to an exact
        # constant even with coefficient -1 on the loop variable.
        b = KernelBuilder("desc")
        u = b.array("u", (N + 1,), DP)
        with b.loop(0, N) as i:
            b.assign(u[N - 1 - i], u[N - i] * 0.5)
        ctx = AnalysisContext(b.build())
        dep = dependence_between(ctx, ctx.store_sites[0],
                                 ctx.load_sites[0])
        assert dep.kind == "uniform"
        assert dep.distance in ((1,), (-1,))
        assert direction_vector(dep) in (("<",), (">",))

    def test_negative_stride_independence(self):
        # u[N-1-i] vs u[i] collide only where N-1-i == j has integer
        # solutions — uniform pairs with equal coef maps required, so
        # this is the overlap fallback; shifted far enough apart the
        # ranges are disjoint.
        b = KernelBuilder("desc2")
        u = b.array("u", (4 * N,), DP)
        with b.loop(0, N) as i:
            b.assign(u[N - 1 - i], u[i + 3 * N] * 0.5)
        ctx = AnalysisContext(b.build())
        assert dependence_between(ctx, ctx.store_sites[0],
                                  ctx.load_sites[0]) is None


class TestDependenceEdges:
    def test_edges_are_normalised_source_first(self):
        # Every exact edge runs forward: no concrete direction vector
        # may be lexicographically negative after normalisation.
        for build in (_matmul, _skewed_stencil, _reduction):
            ctx = _ctx(build)
            for edge in compute_dependence_edges(ctx):
                for conc in edge.concrete_vectors():
                    signs = [d for d in conc if d != "="]
                    assert not signs or signs[0] == "<", (
                        build.__name__, edge.pair_id, conc)

    def test_matmul_edge_kinds(self):
        # The c[i,j] accumulation yields a read/write pair (kept in
        # statement order because (=, =, *) is lex-ambiguous) and a
        # carried output self-dependence on the store.
        ctx = _ctx(_matmul)
        kinds = {(e.kind, e.source.array.name)
                 for e in ctx.dependence_edges}
        assert ("anti", "c") in kinds
        assert ("output", "c") in kinds

    def test_direction_matrix_aligns_to_requested_loops(self):
        ctx = _ctx(_skewed_stencil)
        loops = ctx.loops
        rows = ctx.direction_matrix(loops)
        assert rows
        for edge, vector in rows:
            assert len(vector) == len(loops)
            assert set(vector) <= set(DIRECTIONS)
        assert any(vector == ("<", ">") for _, vector in rows)

    def test_format_directions_uses_canonical_labels(self):
        ctx = _ctx(_skewed_stencil)
        edge = next(e for e in ctx.dependence_edges
                    if "<" in e.directions)
        text = format_directions(ctx, edge)
        assert "L0" in text and "L1" in text
        assert "(<, >)" in text

    def test_edge_cache_is_shared(self):
        ctx = _ctx(_matmul)
        assert ctx.dependence_edges is ctx.dependence_edges
        a, b = ctx.store_sites[0], ctx.load_sites[0]
        assert ctx.dependence_between(a, b) \
            is ctx.dependence_between(a, b)
