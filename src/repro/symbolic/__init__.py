"""Symbolic engine: sparse multivariate polynomials, rational functions,
division-free linear algebra, expression DAGs and compilation to fast
Python callables.

This is the substrate the paper delegated to Mathematica.  The public
surface is:

* :class:`~repro.symbolic.symbols.Symbol` / :class:`~repro.symbolic.symbols.SymbolSpace`
* :class:`~repro.symbolic.poly.Poly` — sparse multivariate polynomial
* :class:`~repro.symbolic.rational.Rational` — quotient of two polynomials
* :class:`~repro.symbolic.expr.Expr` — hash-consed expression DAG (adds
  ``sqrt`` / division on top of the polynomial ring, used for closed-form
  second-order poles)
* :func:`~repro.symbolic.compile.compile_exprs` /
  :func:`~repro.symbolic.compile.compile_rationals` — code generation with
  common-subexpression elimination
* :class:`~repro.symbolic.matrix.PolyMatrix` — small dense symbolic
  matrices with division-free determinant / adjugate / Cramer solve
* :class:`~repro.symbolic.tape.OpTape` — the op tape every compiled
  program is generated from, which is also its portable, versioned,
  integrity-hashed artifact (save/load, cross-process wire format,
  native-kernel input); the model over a tape,
  :class:`~repro.core.compiled_model.TapeModel`, stays importable from
  here
"""

from .symbols import Symbol, SymbolSpace
from .poly import Poly
from .rational import Rational
from .expr import Expr, ExprBuilder
from .matrix import PolyMatrix, SymbolicLinearSolver
from .compile import CompiledFunction, compile_exprs, compile_rationals
from .tape import (OpTape, load_tape, tape_for, tape_from_json,
                   tape_from_model)

__all__ = [
    "Symbol",
    "SymbolSpace",
    "Poly",
    "Rational",
    "Expr",
    "ExprBuilder",
    "PolyMatrix",
    "SymbolicLinearSolver",
    "CompiledFunction",
    "compile_exprs",
    "compile_rationals",
    "OpTape",
    "TapeModel",
    "load_tape",
    "tape_for",
    "tape_from_json",
    "tape_from_model",
]


def __getattr__(name: str):
    if name == "TapeModel":  # lives in repro.core.compiled_model
        from ..core.compiled_model import TapeModel
        return TapeModel
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
