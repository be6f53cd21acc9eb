"""Tests for IR expressions, affine indices and arrays."""

import pytest

from repro.ir import (DP, SP, Array, BinOp, Call, Const, IndexVar, IRError,
                      Load, as_affine, exp, fabs, fmax, fmin, sqrt, walk_expr)


class TestAffineIndex:
    def test_var_plus_constant(self):
        i = IndexVar("i")
        idx = i + 3
        assert idx.coefficient("i") == 1
        assert idx.offset == 3

    def test_scaling(self):
        i = IndexVar("i")
        idx = 2 * i - 1
        assert idx.coefficient("i") == 2
        assert idx.offset == -1

    def test_two_variables(self):
        i, j = IndexVar("i"), IndexVar("j")
        idx = 4 * i + j + 5
        assert idx.coefficient("i") == 4
        assert idx.coefficient("j") == 1
        assert idx.offset == 5

    def test_cancellation_removes_variable(self):
        i = IndexVar("i")
        idx = (i + 2) - i
        assert idx.is_constant()
        assert idx.offset == 2

    def test_negation(self):
        i = IndexVar("i")
        idx = 10 - i
        assert idx.coefficient("i") == -1
        assert idx.offset == 10

    def test_evaluate(self):
        i, j = IndexVar("i"), IndexVar("j")
        idx = 3 * i + 2 * j + 1
        assert idx.evaluate({"i": 4, "j": 5}) == 23

    def test_evaluate_unbound_raises(self):
        i = IndexVar("i")
        with pytest.raises(IRError):
            (i + 1).evaluate({})

    def test_non_integer_scale_rejected(self):
        i = IndexVar("i")
        with pytest.raises(IRError):
            i * 1.5

    def test_as_affine_coercions(self):
        assert as_affine(7).offset == 7
        assert as_affine(IndexVar("k")).coefficient("k") == 1
        idx = as_affine(as_affine(2))
        assert idx.is_constant()


class TestExpressions:
    def setup_method(self):
        self.x = Array("x", (16,), DP)
        self.i = IndexVar("i")

    def test_load_dtype_from_array(self):
        assert self.x[self.i].dtype is DP

    def test_binop_promotion(self):
        y = Array("y", (16,), SP)
        expr = self.x[self.i] + y[self.i]
        assert expr.dtype is DP

    def test_literal_adopts_partner_dtype(self):
        y = Array("y", (16,), SP)
        expr = y[self.i] * 2.0
        assert expr.dtype is SP

    def test_operator_sugar(self):
        e = (self.x[self.i] + 1.0) * self.x[self.i + 1] / 2.0
        ops = [n.op for n in walk_expr(e) if isinstance(n, BinOp)]
        assert ops == ["div", "mul", "add"]

    def test_neg(self):
        e = -self.x[self.i]
        assert isinstance(e, BinOp) and e.op == "sub"

    def test_intrinsics(self):
        for fn, node in ((sqrt, "sqrt"), (exp, "exp"), (fabs, "abs")):
            e = fn(self.x[self.i])
            assert isinstance(e, Call) and e.fn == node

    def test_min_max(self):
        e = fmin(self.x[self.i], 0.0)
        assert e.op == "min"
        e = fmax(self.x[self.i], self.x[self.i + 1])
        assert e.op == "max"

    def test_unknown_binop_rejected(self):
        with pytest.raises(IRError):
            BinOp("xor", self.x[self.i], self.x[self.i])

    def test_rank_mismatch_rejected(self):
        m = Array("m", (4, 4), DP)
        with pytest.raises(IRError):
            Load(m, (as_affine(0),))

    def test_walk_expr_counts(self):
        e = self.x[self.i] * self.x[self.i] + Const(1.0)
        kinds = [type(n).__name__ for n in walk_expr(e)]
        assert kinds.count("Load") == 2
        assert kinds.count("BinOp") == 2
        assert kinds.count("Const") == 1


class TestArray:
    def test_row_major_strides(self):
        m = Array("m", (3, 5, 7), DP)
        assert m.strides_elems() == (35, 7, 1)

    def test_nbytes(self):
        m = Array("m", (10, 10), SP)
        assert m.nbytes == 400

    def test_scalar_value(self):
        s = Array("s", (), DP)
        load = s.value()
        assert load.indices == ()

    def test_value_on_nonscalar_rejected(self):
        with pytest.raises(IRError):
            Array("v", (4,), DP).value()

    def test_bad_name_rejected(self):
        with pytest.raises(IRError):
            Array("bad name", (4,), DP)

    def test_nonpositive_extent_rejected(self):
        with pytest.raises(IRError):
            Array("z", (0,), DP)
