"""Vectorization edge cases for the compiled straight-line programs.

The batched runtime feeds whole grid columns through ``CompiledFunction``;
these tests pin the behaviors it relies on: scalar/array argument mixing,
complex branch switching in ``_safe_sqrt``/``_safe_log`` on arrays with
mixed signs, empty and singleton axes, and dtype discipline (no needless
complex promotion on all-real data).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.symbolic import (ExprBuilder, Poly, Rational, SymbolSpace,
                            compile_exprs, compile_rationals)
from repro.symbolic.compile import _safe_log, _safe_sqrt

SP = SymbolSpace(["x", "y", "z"])


def _build(make):
    eb = ExprBuilder()
    return compile_exprs(SP, [make(eb)])


class TestSafeHelpers:
    def test_sqrt_positive_array_stays_real(self):
        out = _safe_sqrt(np.array([0.0, 1.0, 4.0]))
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, [0.0, 1.0, 2.0])

    def test_sqrt_mixed_sign_array_goes_complex(self):
        out = _safe_sqrt(np.array([4.0, -4.0, 0.0]))
        assert out.dtype == np.complex128
        np.testing.assert_allclose(out, [2.0, 2.0j, 0.0])

    def test_sqrt_complex_input_passthrough(self):
        out = _safe_sqrt(np.array([-1.0 + 0j]))
        assert out.dtype == np.complex128
        np.testing.assert_allclose(out, [1.0j])

    def test_sqrt_negative_scalar(self):
        assert _safe_sqrt(-9.0) == pytest.approx(3.0j)

    def test_log_positive_array_stays_real(self):
        out = _safe_log(np.array([1.0, np.e]))
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, [0.0, 1.0])

    def test_log_mixed_sign_array_goes_complex(self):
        out = _safe_log(np.array([np.e, -1.0]))
        assert out.dtype == np.complex128
        np.testing.assert_allclose(out, [1.0, 1j * np.pi])

    def test_log_negative_scalar(self):
        assert _safe_log(-1.0) == pytest.approx(1j * np.pi)


class TestMixedScalarArray:
    def test_scalar_and_array_arguments_broadcast(self):
        fn = _build(lambda eb: eb.add(eb.mul(eb.sym("x"), eb.sym("y")),
                                      eb.sym("z")))
        xs = np.linspace(-2.0, 2.0, 9)
        (out,) = fn([xs, 3.0, 0.5])
        assert out.shape == xs.shape
        np.testing.assert_allclose(out, xs * 3.0 + 0.5)

    def test_two_grid_columns_broadcast_together(self):
        fn = _build(lambda eb: eb.div(eb.sym("x"), eb.add(eb.sym("y"),
                                                          eb.const(1.0))))
        xg, yg = np.meshgrid(np.linspace(1.0, 4.0, 4),
                             np.linspace(0.0, 2.0, 3), indexing="ij")
        (out,) = fn([xg, yg, 0.0])
        assert out.shape == (4, 3)
        np.testing.assert_allclose(out, xg / (yg + 1.0))

    def test_array_matches_scalar_loop(self):
        """The vectorized contract: one array call == many scalar calls."""
        fn = _build(lambda eb: eb.sqrt(eb.sub(eb.pow(eb.sym("x"), 2),
                                              eb.sym("y"))))
        xs = np.linspace(0.0, 3.0, 11)
        (vec,) = fn([xs, 4.0, 0.0])
        scalars = [fn([float(x), 4.0, 0.0])[0] for x in xs]
        np.testing.assert_allclose(vec, scalars)

    def test_eval_raw_accepts_arrays(self):
        fn = _build(lambda eb: eb.mul(eb.sym("x"), eb.sym("z")))
        xs = np.array([1.0, 2.0])
        (out,) = fn.eval_raw(xs, 0.0, 5.0)
        np.testing.assert_allclose(out, [5.0, 10.0])


class TestComplexBranchOnGrids:
    def test_discriminant_crossing_zero(self):
        """A second-order-style discriminant sqrt(x^2 - y): over-damped
        points stay real, under-damped ones come back complex, in the same
        array — no per-point dispatch."""
        fn = _build(lambda eb: eb.sqrt(eb.sub(eb.pow(eb.sym("x"), 2),
                                              eb.sym("y"))))
        xs = np.array([0.0, 1.0, 2.0, 3.0])
        (out,) = fn([xs, 4.0, 0.0])
        assert out.dtype == np.complex128
        np.testing.assert_allclose(out, np.sqrt((xs ** 2 - 4.0)
                                                .astype(complex)))
        assert out[3].imag == 0.0 and out[0].imag == pytest.approx(2.0)

    def test_all_real_grid_stays_float(self):
        fn = _build(lambda eb: eb.sqrt(eb.add(eb.pow(eb.sym("x"), 2),
                                              eb.sym("y"))))
        (out,) = fn([np.linspace(-2, 2, 5), 1.0, 0.0])
        assert out.dtype == np.float64

    def test_log_branch_inside_larger_program(self):
        fn = _build(lambda eb: eb.add(eb.log(eb.sym("x")), eb.sym("y")))
        xs = np.array([1.0, -1.0])
        (out,) = fn([xs, 2.0, 0.0])
        np.testing.assert_allclose(out, [2.0, 2.0 + 1j * np.pi])


class TestDegenerateAxes:
    def test_empty_array_input(self):
        fn = _build(lambda eb: eb.add(eb.mul(eb.sym("x"), eb.sym("y")),
                                      eb.const(1.0)))
        (out,) = fn([np.array([]), 2.0, 0.0])
        assert out.shape == (0,)

    def test_empty_array_through_safe_sqrt(self):
        fn = _build(lambda eb: eb.sqrt(eb.sym("x")))
        (out,) = fn([np.array([]), 0.0, 0.0])
        assert out.shape == (0,)
        # np.all([]) is True, so the empty array takes the real branch
        assert out.dtype == np.float64

    def test_singleton_array(self):
        fn = _build(lambda eb: eb.pow(eb.sym("x"), 3))
        (out,) = fn([np.array([2.0]), 0.0, 0.0])
        assert out.shape == (1,)
        np.testing.assert_allclose(out, [8.0])

    def test_singleton_broadcasts_against_grid(self):
        fn = _build(lambda eb: eb.mul(eb.sym("x"), eb.sym("y")))
        (out,) = fn([np.array([[2.0]]), np.linspace(1, 3, 3)[None, :], 0.0])
        assert out.shape == (1, 3)
        np.testing.assert_allclose(out, [[2.0, 4.0, 6.0]])


class TestCompileRationalsVectorized:
    def test_rational_grid_matches_poly_evaluate(self):
        num = (Poly.symbol(SP, "x") + 2) * Poly.symbol(SP, "y")
        den = Poly.symbol(SP, "y") + 1
        fn = compile_rationals(SP, [Rational(num, den)])
        xg, yg = np.meshgrid(np.linspace(-1, 1, 5),
                             np.linspace(0.5, 2.0, 4), indexing="ij")
        (out,) = fn([xg, yg, 0.0])
        expected = np.array(
            [[num.evaluate((x, y, 0.0)) / den.evaluate((x, y, 0.0))
              for y in yg[0]] for x in xg[:, 0]])
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_constant_output_broadcasts_from_scalar(self):
        """A constant-only output comes back as a Python scalar even when
        the other outputs are arrays — callers must broadcast themselves
        (the batched runtime does, via np.broadcast_to)."""
        fn = compile_rationals(SP, [Poly.constant(SP, 7.0),
                                    Poly.symbol(SP, "x")])
        const, lin = fn([np.linspace(0, 1, 4), 0.0, 0.0])
        assert np.shape(const) == ()
        assert np.shape(lin) == (4,)
        np.testing.assert_allclose(np.broadcast_to(const, lin.shape), 7.0)
