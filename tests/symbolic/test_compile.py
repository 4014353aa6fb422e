import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import SymbolicError
from repro.symbolic import (ExprBuilder, Poly, Rational, SymbolSpace,
                            compile_exprs, compile_rationals)

from .conftest import points, polys

SP = SymbolSpace(["x", "y", "z"])


class TestQuotientInProduct:
    def test_quotient_factor_keeps_its_grouping(self):
        """``x*(a/b)`` must evaluate as written, not as ``(x*a)/b``: the
        program, its tape and the DAG agree bit for bit."""
        from repro.symbolic.expr import Expr

        eb = ExprBuilder()
        x, a, b = eb.sym("x"), eb.sym("y"), eb.sym("z")
        # built directly so the quotient is the product's second factor
        root = Expr("mul", None, (x, eb.div(a, b)))
        fn = compile_exprs(SP, [root])
        rng = np.random.default_rng(5)
        for vals in rng.uniform(-10.0, 10.0, (1000, 3)).tolist():
            (program,) = fn.eval_raw(*vals)
            (tape,) = fn.tape.evaluate(vals)
            dag = root.evaluate(dict(zip(("x", "y", "z"), vals)))
            assert program.hex() == tape.hex() == dag.hex()


class TestCompileExprs:
    def test_simple(self):
        eb = ExprBuilder()
        e = eb.add(eb.mul(eb.sym("x"), eb.sym("y")), eb.const(1.0))
        fn = compile_exprs(SP, [e], output_names=["val"])
        (out,) = fn({"x": 2.0, "y": 3.0, "z": 0.0})
        assert out == pytest.approx(7.0)

    def test_positional_and_mapping_agree(self):
        eb = ExprBuilder()
        e = eb.mul(eb.sym("x"), eb.add(eb.sym("y"), eb.sym("z")))
        fn = compile_exprs(SP, [e])
        assert fn([2.0, 3.0, 4.0]) == fn({"x": 2.0, "y": 3.0, "z": 4.0})

    def test_multiple_outputs_share_subexpressions(self):
        eb = ExprBuilder()
        shared = eb.mul(eb.sym("x"), eb.sym("y"))
        e1 = eb.add(shared, eb.const(1.0))
        e2 = eb.mul(shared, eb.const(2.0))
        fn = compile_exprs(SP, [e1, e2])
        assert "t0" in fn.source  # the shared product became a temp
        a, b = fn([3.0, 4.0, 0.0])
        assert (a, b) == (13.0, 24.0)

    def test_vectorized_sweep(self):
        eb = ExprBuilder()
        e = eb.add(eb.pow(eb.sym("x"), 2), eb.sym("y"))
        fn = compile_exprs(SP, [e])
        xs = np.linspace(0, 3, 7)
        (out,) = fn([xs, 1.0, 0.0])
        np.testing.assert_allclose(out, xs ** 2 + 1.0)

    def test_complex_safe_sqrt_in_compiled_code(self):
        eb = ExprBuilder()
        fn = compile_exprs(SP, [eb.sqrt(eb.sym("x"))])
        (out,) = fn([-4.0, 0.0, 0.0])
        assert out == pytest.approx(2j)

    def test_symbol_outside_space_raises(self):
        eb = ExprBuilder()
        e = eb.sym("not_in_space")
        with pytest.raises(SymbolicError):
            compile_exprs(SP, [e])

    def test_empty_raises(self):
        with pytest.raises(SymbolicError):
            compile_exprs(SP, [])

    def test_missing_value_raises(self):
        eb = ExprBuilder()
        fn = compile_exprs(SP, [eb.sym("x")])
        with pytest.raises(SymbolicError):
            fn({"x": 1.0, "y": 2.0})  # z missing, no nominal


class TestCompileRationals:
    def test_poly_and_rational_mix(self):
        p = Poly.symbol(SP, "x") + 1
        r = Rational(Poly.symbol(SP, "y"), Poly.symbol(SP, "z") + 2)
        fn = compile_rationals(SP, [p, r], output_names=["p", "r"])
        vp, vr = fn({"x": 1.0, "y": 6.0, "z": 1.0})
        assert vp == pytest.approx(2.0)
        assert vr == pytest.approx(2.0)

    @given(polys(SP), points(SP))
    @settings(max_examples=40)
    def test_compiled_matches_direct_evaluation(self, p, pt):
        fn = compile_rationals(SP, [p])
        (out,) = fn(list(pt))
        expected = p.evaluate(pt)
        assert out == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_op_count_reported(self):
        p = (Poly.symbol(SP, "x") + 1) * (Poly.symbol(SP, "y") + 2)
        fn = compile_rationals(SP, [p])
        assert fn.n_ops > 0

    def test_nominal_fallback(self):
        space = SymbolSpace([type(SP.symbols[0])("g", nominal=5.0)])
        p = Poly.symbol(space, "g") * 2
        fn = compile_rationals(space, [p])
        (out,) = fn({})
        assert out == pytest.approx(10.0)
