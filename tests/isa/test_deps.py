"""Tests for the compiler's innermost-loop dependence classification."""

from repro.ir import DP, KernelBuilder, fabs, fmax
from repro.ir.dependence import AnalysisContext, direction_vector
from repro.isa import OpClass, analyze_dependences


def _deps(kernel):
    """Classify the first innermost loop, as the compiler does."""
    loop = kernel.outer_loops[0]
    while not loop.is_innermost():
        loop = loop.inner_loops()[0]
    return analyze_dependences(AnalysisContext(kernel), loop)


class TestReductions:
    def test_sum_reduction_detected(self, dot_kernel):
        deps = _deps(dot_kernel)
        assert deps.has_reduction
        assert deps.vectorizable
        assert deps.reductions[0].array_name == "s"
        assert deps.reductions[0].chain_ops[0][0] is OpClass.FP_ADD

    def test_max_reduction_detected(self):
        b = KernelBuilder("maxred")
        x = b.array("x", (64,), DP)
        m = b.scalar("m", DP)
        with b.loop(0, 64) as i:
            b.assign(m.value(), fmax(m.value(), fabs(x[i])))
        deps = _deps(b.build())
        assert deps.has_reduction
        assert deps.vectorizable

    def test_division_update_is_not_reduction(self):
        b = KernelBuilder("divacc")
        x = b.array("x", (64,), DP)
        s = b.scalar("s", DP)
        with b.loop(0, 64) as i:
            b.assign(s.value(), s.value() / x[i])
        deps = _deps(b.build())
        assert not deps.has_reduction
        assert not deps.vectorizable

    def test_two_simultaneous_reductions(self):
        b = KernelBuilder("two")
        x = b.array("x", (64,), DP)
        s0 = b.scalar("s0", DP)
        s1 = b.scalar("s1", DP)
        with b.loop(0, 64) as i:
            b.assign(s0.value(), s0.value() + x[i])
            b.assign(s1.value(), s1.value() + x[i] * x[i])
        deps = _deps(b.build())
        assert len(deps.reductions) == 2
        assert deps.vectorizable


class TestRecurrences:
    def test_first_order_recurrence(self, recurrence_kernel):
        deps = _deps(recurrence_kernel)
        assert not deps.vectorizable
        rec, = deps.recurrences
        assert rec.array_name == "u"
        assert rec.distance == 1

    def test_distance_two(self):
        b = KernelBuilder("dist2")
        x = b.array("x", (64,), DP)
        with b.loop(2, 64) as i:
            b.assign(x[i], x[i - 2] * 0.5)
        deps = _deps(b.build())
        rec, = deps.recurrences
        assert rec.distance == 2

    def test_forward_offset_is_not_carried(self):
        # x[i] = x[i+1] reads values not yet written: no flow recurrence.
        b = KernelBuilder("fwd")
        x = b.array("x", (64,), DP)
        with b.loop(0, 63) as i:
            b.assign(x[i], x[i + 1])
        deps = _deps(b.build())
        assert deps.vectorizable

    def test_independent_arrays(self, saxpy_kernel):
        deps = _deps(saxpy_kernel)
        assert deps.vectorizable
        assert not deps.recurrences

    def test_outer_carried_dep_does_not_block_inner(self, stencil_kernel):
        # The 5-point stencil writes v and reads u: no inner-loop dep.
        deps = _deps(stencil_kernel)
        assert deps.vectorizable

    def test_chain_ops_reported(self):
        b = KernelBuilder("chain")
        x = b.array("x", (64,), DP)
        r = b.array("r", (64,), DP)
        d = b.array("d", (64,), DP)
        with b.loop(1, 64) as i:
            b.assign(x[i], (r[i] - x[i - 1]) / d[i])
        deps = _deps(b.build())
        classes = {oc for oc, _ in deps.chain_ops()}
        assert OpClass.FP_DIV in classes

    def test_deduplication(self):
        b = KernelBuilder("dup")
        x = b.array("x", (64,), DP)
        with b.loop(1, 64) as i:
            b.assign(x[i], x[i - 1] + x[i - 1] * 2.0)
        deps = _deps(b.build())
        assert len(deps.recurrences) == 1


class TestSolverQuery:
    """The classification is a query on the shared solver of
    ``repro.ir.dependence``; these pin where it differs from the
    full-nest edges."""

    def test_coupled_subscript_resolved_over_innermost_band(self):
        # a[i+j] = f(a[i+j-1]): over the whole nest the distance is
        # unconstrained, (*, *); with i fixed it is exactly 1 in j.
        b = KernelBuilder("coupled")
        a = b.array("a", (128,), DP)
        with b.loop(0, 32) as i:
            with b.loop(1, 32) as j:
                b.assign(a[i + j], a[i + j - 1] * 0.5)
        kernel = b.build()
        ctx = AnalysisContext(kernel)
        load, store = ctx.sites
        assert direction_vector(ctx.dependence_between(store, load)) \
            == ("*", "*")
        rec, = _deps(kernel).recurrences
        assert rec.array_name == "a"
        assert rec.distance == 1

    def test_non_uniform_overlap_does_not_block(self):
        # x[2i] = x[i] + 1 is not uniformly generated: the solver can
        # only say "may overlap", which the vectorizer does not treat
        # as a recurrence (docs/MODELING.md §2).
        b = KernelBuilder("nonuniform")
        x = b.array("x", (128,), DP)
        with b.loop(0, 64) as i:
            b.assign(x[2 * i], x[i] + 1.0)
        kernel = b.build()
        kinds = {e.dep.kind for e in AnalysisContext(kernel).dependence_edges}
        assert "overlap" in kinds
        assert _deps(kernel).vectorizable
