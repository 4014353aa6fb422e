"""Compile expression DAGs to flat Python functions.

This is the paper's punchline: once the symbolic moments / poles / metrics
are known, evaluating the model at new symbol values should cost a *reduced
set of operations* — a straight-line program — rather than a fresh circuit
analysis.  :func:`lower_exprs` / :func:`lower_rationals` lower the
post-CSE DAG (hash-consing already did the CSE) to an op tape
(:mod:`repro.symbolic.tape`), the same tape in every process, and
:meth:`~repro.symbolic.tape.OpTape.build_function` ``exec``-compiles the
program generated from it; :func:`compile_exprs` /
:func:`compile_rationals` do both.  The moment program lowers, appends
its unscaling ladder and execs once.  The op tape is the only lowering:
the scalar program, the in-place ufunc kernels, the native C kernel and
the profiler's instrumented program are all generated from the tape, so
they agree bit for bit by construction.

Generated functions accept positional symbol values aligned with the
:class:`~repro.symbolic.symbols.SymbolSpace` and are numpy-vectorized: pass
arrays to sweep a whole grid in one call.  ``sqrt``/``log`` switch to complex
arithmetic when their argument goes negative, so second-order pole formulas
remain valid across over/under-damped regions of the sweep.
"""

from __future__ import annotations

import cmath
import math
import time
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..errors import SymbolicError
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .expr import Expr, ExprBuilder
from .poly import Poly
from .rational import Rational
from .symbols import SymbolSpace

if TYPE_CHECKING:  # tape builds on this module
    from .tape import OpTape


def _safe_sqrt(x):
    """Complex-safe square root for scalars and arrays.

    Python scalars take a numpy-free fast path (the per-point hot loop);
    arrays decide the real/complex branch with a single ``min`` reduction
    instead of materializing a boolean mask.
    """
    if type(x) is float or type(x) is int:
        return math.sqrt(x) if x >= 0.0 else cmath.sqrt(complex(x))
    arr = np.asarray(x)
    if np.iscomplexobj(arr):
        return np.sqrt(arr)
    # np.min on the empty array would raise; np.all([] >= 0) was True, so
    # the empty array keeps taking the real branch
    if arr.size == 0 or np.min(arr) >= 0:
        return np.sqrt(arr)
    return np.sqrt(arr.astype(complex))


def _safe_log(x):
    if type(x) is float or type(x) is int:
        if x > 0.0:
            return math.log(x)
        if x == 0.0:  # cmath.log(0) raises; np.log(0j) is -inf+0j
            return complex(float("-inf"), 0.0)
        return cmath.log(complex(x))
    arr = np.asarray(x)
    if np.iscomplexobj(arr):
        return np.log(arr)
    if arr.size == 0 or np.min(arr) > 0:
        return np.log(arr)
    return np.log(arr.astype(complex))


def _guarded_sqrt():
    """Sticky per-program variant of :func:`_safe_sqrt`.

    Once a program's sqrt has seen a negative array it stops re-scanning:
    later array calls go straight to the complex branch.  Values are
    unchanged (a real result merely arrives with a zero imaginary part);
    only the dtype can widen, which every consumer of these programs
    already accepts.  Scalar calls never consult or set the sticky flag.
    """
    sticky_complex = False

    def _sqrt(x):
        nonlocal sticky_complex
        if type(x) is float or type(x) is int:
            return math.sqrt(x) if x >= 0.0 else cmath.sqrt(complex(x))
        arr = np.asarray(x)
        if np.iscomplexobj(arr):
            return np.sqrt(arr)
        if not sticky_complex and (arr.size == 0 or np.min(arr) >= 0):
            return np.sqrt(arr)
        sticky_complex = True
        return np.sqrt(arr.astype(complex))

    return _sqrt


def _guarded_log():
    sticky_complex = False

    def _log(x):
        nonlocal sticky_complex
        if type(x) is float or type(x) is int:
            if x > 0.0:
                return math.log(x)
            if x == 0.0:
                return complex(float("-inf"), 0.0)
            return cmath.log(complex(x))
        arr = np.asarray(x)
        if np.iscomplexobj(arr):
            return np.log(arr)
        if not sticky_complex and (arr.size == 0 or np.min(arr) > 0):
            return np.log(arr)
        sticky_complex = True
        return np.log(arr.astype(complex))

    return _log


def runtime_namespace() -> dict:
    """Fresh ``exec`` namespace for one compiled program.

    Each program gets its own sqrt/log guards so the real/complex branch
    decision is cached *per program* (sticky after the first negative
    array) instead of re-scanned on every call.
    """
    return {
        "_sqrt": _guarded_sqrt(),
        "_log": _guarded_log(),
        "_exp": np.exp,
        "_abs": np.abs,
        "__builtins__": {},
    }


def vector_namespace() -> dict:
    """Namespace for the in-place ufunc kernels of ``OpTape.kernel_source``."""
    ns = runtime_namespace()
    ns.update({
        "_empty": np.empty,
        "_np_add": np.add,
        "_np_mul": np.multiply,
        "_np_div": np.divide,
        "_np_pow": np.power,
    })
    return ns


#: largest integer exponent lowered to a repeated-multiplication chain
#: (``x**3`` becomes ``x*x*x``: multiplies are far cheaper than the pow
#: numpy falls back to for exponents other than 2).  The chain is also
#: what keeps every evaluation path bit-identical: numpy's SIMD ``pow``
#: is not bit-compatible with libm ``pow``, so any exponent left as
#: ``**`` disqualifies the program from the native C kernel.
#: Moment programs stay well inside this bound.
_POW_UNROLL_MAX = 12


def _pow_unrolls(exponent) -> bool:
    return isinstance(exponent, int) and 2 <= exponent <= _POW_UNROLL_MAX


class CompiledFunction:
    """A compiled straight-line evaluator for one or more expressions.

    Every compiled function is generated from its op tape: the scalar
    program here, and on demand the in-place ufunc kernels, the native
    kernel and the profiler's instrumented program.

    Attributes:
        space: symbol space defining the positional argument order.
        tape: the :class:`~repro.symbolic.tape.OpTape` the program was
            generated from.
        source: the generated Python source (useful for inspection/tests).
        n_ops: arithmetic operation count of the straight-line program.
        output_names: labels for the outputs, parallel to the return tuple.
    """

    def __init__(self, space: SymbolSpace, tape, source: str, fn) -> None:
        self.space = space
        self.tape = tape
        self.source = source
        self._fn = fn
        self.n_ops = tape.n_ops
        self.output_names = tape.output_names
        self._instrumented = None
        # vectorized in-place kernels, keyed by array-argument mask
        self._kernels: dict[tuple[bool, ...], object] = {}
        # native (C) kernels by mask, bound by the background builder;
        # masks that failed to build are remembered so later batches go
        # straight to the ufunc kernel without asking again
        self._native_kernels: dict[tuple[bool, ...], object] = {}
        self._native_failed: set[tuple[bool, ...]] = set()
        self._native_off_warned = False

    def __call__(self, values: Mapping | Sequence[float]) -> tuple:
        """Evaluate at ``values`` (mapping by symbol/name, or aligned sequence).

        Values may be numpy arrays for vectorized sweeps; outputs broadcast.
        """
        if isinstance(values, Mapping):
            vec = []
            by_name = {}
            for key, val in values.items():
                name = key if isinstance(key, str) else key.name
                by_name[name] = val
            for sym in self.space.symbols:
                if sym.name in by_name:
                    vec.append(by_name[sym.name])
                elif sym.nominal is not None:
                    vec.append(sym.nominal)
                else:
                    raise SymbolicError(f"no value for symbol {sym.name!r}")
        else:
            vec = list(values)
            if len(vec) != len(self.space):
                raise SymbolicError(
                    f"expected {len(self.space)} values, got {len(vec)}")
        return self._fn(*vec)

    def eval_raw(self, *args):
        """Positional fast path with no argument normalization."""
        return self._fn(*args)

    def eval_batch(self, args: Sequence, n_points: int):
        """Evaluate a batch of ``n_points``, choosing the evaluator.

        ``args`` is positional like :meth:`eval_raw`, where each entry is
        either a scalar or a flat float64 column of length ``n_points``.

        * A 1-point or all-scalar batch runs the scalar program on numpy
          float64 scalars (IEEE inf/NaN where Python floats would raise
          ``ZeroDivisionError``); outputs come back as scalars, which
          broadcast over the batch.
        * Otherwise the native C kernel of this program and
          array-argument mask runs once it is bound.  The first batch
          of a mask asks the background builder for it
          (:func:`repro.runtime.native.request_kernel`) and never waits
          on the compiler.  The kernel returns its ``(n_outputs,
          n_points)`` float64 slab as one array, which iterates as the
          outputs.
        * Meanwhile — while the kernel builds, under
          ``REPRO_NATIVE=off``, or when none builds (no compiler, an
          ineligible program, a failed probe; one logged warning per
          program) — the batch runs the liveness-buffered ufunc kernel
          generated once per mask from the tape
          (:meth:`~repro.symbolic.tape.OpTape.kernel_source`).
        * Anything the kernels cannot specialize on (complex columns,
          odd shapes) falls back to :meth:`eval_raw`.

        Every route is value-identical: the native kernel is probed
        against :meth:`eval_raw` byte for byte before it is bound.
        """
        mask = tuple(
            isinstance(a, np.ndarray) and a.ndim == 1
            and a.shape[0] == n_points and a.dtype == np.float64
            for a in args)
        if any(isinstance(a, np.ndarray) and not m
               for a, m in zip(args, mask)):
            return self._fn(*args)
        if n_points == 1 or not any(mask):
            return self._fn(*(np.float64(a[0] if m else a)
                              for a, m in zip(args, mask)))
        from ..runtime import native as _native  # lazy: runtime imports us
        if _native.disabled():
            # checked per batch, so the switch also stops bound kernels;
            # it only skips them, as it may be flipped back on
            if not self._native_off_warned:
                self._native_off_warned = True
                _native.warn_unavailable("disabled via REPRO_NATIVE=off")
        else:
            kernel = self._native_kernels.get(mask)
            if kernel is not None:
                return kernel(args, n_points)
            if mask not in self._native_failed:
                _native.request_kernel(self, mask)
        vec = self._kernels.get(mask)
        if vec is None:
            source, _n_ops, _n_buffers = self.tape.kernel_source(mask)
            namespace = vector_namespace()
            exec(compile(source, "<awesymbolic-vector>", "exec"), namespace)
            vec = self._kernels[mask] = namespace["_vector"]
        return vec(*args, _n=n_points)

    def instrumented(self):
        """Exploded per-op variant for the profiler (built once, cached).

        Returns ``(callable, labels)``: the callable computes the same
        outputs as :meth:`eval_raw` with every tape op as its own
        assignment, recording ``time.perf_counter()`` into the ``_rec``
        keyword list after each one; ``labels[i]`` describes op ``i``
        (``{"kind", "expr", "ops"}``).  Consumed by
        :func:`repro.obs.profile.profile_program`.
        """
        if self._instrumented is None:
            source, labels = self.tape.instrumented_source()
            namespace = dict(runtime_namespace(), _t=time.perf_counter)
            exec(compile(source, "<awesymbolic-profiled>", "exec"), namespace)
            self._instrumented = (namespace["_profiled"], labels)
        return self._instrumented

    def __repr__(self) -> str:
        return (f"CompiledFunction({len(self.output_names)} outputs, "
                f"{self.n_ops} ops, space={list(self.space.names)})")


def lower_exprs(space: SymbolSpace, roots: Sequence[Expr],
                output_names: Sequence[str] | None = None) -> OpTape:
    """Lower expression DAG roots, post-CSE, to the op tape of one
    program (:func:`~repro.symbolic.tape.tape_from_roots`)."""
    from .tape import tape_from_roots  # tape builds on this module

    roots = list(roots)
    if not roots:
        raise SymbolicError("nothing to compile")
    names = tuple(output_names) if output_names is not None else tuple(
        f"out{i}" for i in range(len(roots)))
    if len(names) != len(roots):
        raise SymbolicError("output_names length does not match roots")
    with _trace.span("compile.codegen", n_roots=len(roots)) as sp:
        tape = tape_from_roots(space, roots, names)
        sp.set(n_ops=tape.n_ops)
    reg = _metrics.registry()
    reg.counter("repro_compile_programs_total",
                "straight-line programs compiled").inc()
    reg.gauge("repro_compile_ops_post_cse",
              "arithmetic ops of the last compiled program").set(tape.n_ops)
    return tape


def compile_exprs(space: SymbolSpace, roots: Sequence[Expr],
                  output_names: Sequence[str] | None = None) -> CompiledFunction:
    """Compile expression DAG roots into one callable returning a tuple:
    :func:`lower_exprs`, then the program generated from the tape."""
    return lower_exprs(space, roots, output_names).build_function(space)


def lower_rationals(space: SymbolSpace, rationals: Sequence[Rational | Poly],
                    output_names: Sequence[str] | None = None) -> OpTape:
    """Lower polynomials / rational functions sharing one builder (full
    CSE) to the op tape of one program.

    Polynomials lower in expanded form (sum of monomials, maximal term
    sharing across outputs).  The same polynomials give the same tape in
    every process.
    """
    builder = ExprBuilder()
    roots = [builder.from_poly(item) if isinstance(item, Poly)
             else builder.from_rational(item) for item in rationals]
    return lower_exprs(space, roots, output_names)


def compile_rationals(space: SymbolSpace, rationals: Sequence[Rational | Poly],
                      output_names: Sequence[str] | None = None,
                      ) -> CompiledFunction:
    """Compile polynomials / rational functions into one callable:
    :func:`lower_rationals`, then the program generated from the tape."""
    return lower_rationals(space, rationals,
                           output_names).build_function(space)
