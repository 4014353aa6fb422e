"""The in-place vector kernel: bit-identity, buffer reuse, pow lowering.

`OpTape.kernel_source` re-expresses the program's op tape as explicit
ufunc calls writing into a liveness-recycled buffer pool.  The contract
is strict: for any array-argument pattern and batch size the kernel
computes **bit-identically** to `eval_raw` (same pairwise operation
order), while allocating far fewer temporaries than one-fresh-array-per-op.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro.symbolic.compile import (_POW_UNROLL_MAX, _safe_log, _safe_sqrt,
                                    compile_exprs, compile_rationals,
                                    runtime_namespace)
from repro.symbolic.expr import ExprBuilder
from repro.symbolic.poly import Poly
from repro.symbolic.symbols import Symbol, SymbolSpace


@pytest.fixture
def space2():
    return SymbolSpace([Symbol("x", nominal=1.0), Symbol("y", nominal=2.0)])


def build_rational_like(space2):
    """A moment-program-shaped DAG: shared polynomial over a determinant."""
    b = ExprBuilder()
    x, y = b.sym("x"), b.sym("y")
    num = b.add(b.mul(b.const(3.0), b.pow(x, 3)), b.mul(x, y), b.const(1.0))
    den = b.add(b.pow(y, 2), b.mul(b.const(-2.0), x), b.const(0.5))
    return [b.div(num, den), b.mul(num, num), b.div(b.pow(num, 2), den)]


def assert_batch_identical(fn, args, n):
    raw = fn.eval_raw(*args)
    bat = fn.eval_batch(list(args), n)
    assert len(raw) == len(bat)
    for a, c in zip(raw, bat):
        assert_array_equal(np.broadcast_to(np.asarray(a), (n,)),
                           np.broadcast_to(np.asarray(c), (n,)))


class TestBitIdentity:
    def test_rational_grid(self, space2):
        fn = compile_exprs(space2, build_rational_like(space2))
        xs = np.linspace(-3.0, 3.0, 257)
        ys = np.linspace(-2.0, 5.0, 257)
        with np.errstate(all="ignore"):
            assert_batch_identical(fn, (xs, ys), 257)

    def test_mixed_scalar_array(self, space2):
        fn = compile_exprs(space2, build_rational_like(space2))
        ys = np.linspace(-2.0, 5.0, 64)
        with np.errstate(all="ignore"):
            assert_batch_identical(fn, (0.75, ys), 64)
            assert_batch_identical(fn, (np.linspace(0, 1, 64), 1.5), 64)

    def test_sqrt_discriminant_goes_complex(self, space2):
        b = ExprBuilder()
        x, y = b.sym("x"), b.sym("y")
        disc = b.add(b.pow(x, 2), b.mul(b.const(-4.0), y))
        fn = compile_exprs(space2, [b.sqrt(disc), b.div(b.sqrt(disc), y)])
        xs = np.linspace(-2.0, 2.0, 101)
        ys = np.linspace(-1.0, 3.0, 101)  # disc changes sign across the grid
        with np.errstate(all="ignore"):
            assert_batch_identical(fn, (xs, ys), 101)

    def test_log_and_exp(self, space2):
        b = ExprBuilder()
        x, y = b.sym("x"), b.sym("y")
        fn = compile_exprs(space2, [b.mul(b.log(x), y), b.exp(b.mul(x, y))])
        xs = np.linspace(0.1, 4.0, 33)
        ys = np.linspace(-1.0, 1.0, 33)
        assert_batch_identical(fn, (xs, ys), 33)

    def test_every_unrolled_pow_exponent(self, space2):
        b = ExprBuilder()
        x, y = b.sym("x"), b.sym("y")
        roots = [b.pow(b.add(x, y), e) for e in range(2, _POW_UNROLL_MAX + 2)]
        fn = compile_exprs(space2, roots)
        xs = np.linspace(-2.0, 2.0, 51)
        assert_batch_identical(fn, (xs, 0.3), 51)

    def test_real_moment_program(self, space2):
        """Compile an actual polynomial system the way moments are."""
        px = Poly.symbol(space2, "x")
        py = Poly.symbol(space2, "y")
        one = Poly.one(space2)
        n0 = px * py + one
        n1 = px * px * py - py * 2.0
        det = px * py * py + px * 3.0 + one
        fn = compile_rationals(space2, [n0, n1, det],
                               output_names=["n0", "n1", "det"])
        xs = np.linspace(-1.0, 1.0, 77)
        ys = np.linspace(0.5, 2.0, 77)
        assert_batch_identical(fn, (xs, ys), 77)

    def test_single_point_array(self, space2):
        fn = compile_exprs(space2, build_rational_like(space2))
        with np.errstate(all="ignore"):
            assert_batch_identical(fn, (np.array([2.0]), np.array([3.0])), 1)

    def test_nonconforming_arrays_fall_back(self, space2):
        """2-D or wrong-length arrays skip the kernel but stay correct."""
        fn = compile_exprs(space2, build_rational_like(space2))
        xs = np.linspace(0.1, 1.0, 6).reshape(2, 3)
        with np.errstate(all="ignore"):
            raw = fn.eval_raw(xs, 2.0)
            bat = fn.eval_batch([xs, 2.0], 6)
        for a, c in zip(raw, bat):
            assert_array_equal(np.asarray(a), np.asarray(c))
        assert not fn._kernels  # nothing was specialized

    def test_all_scalars_fall_back(self, space2):
        fn = compile_exprs(space2, build_rational_like(space2))
        assert fn.eval_batch([2.0, 3.0], 1) == fn.eval_raw(2.0, 3.0)
        assert not fn._kernels


class TestCodegen:
    def test_pow_lowered_to_multiplication(self, space2):
        b = ExprBuilder()
        x = b.sym("x")
        fn = compile_exprs(space2, [b.pow(x, 3)])
        assert "**" not in fn.source
        assert "x0*x0*x0" in fn.source
        assert fn.n_ops == 2

    def test_large_pow_stays_pow(self, space2):
        b = ExprBuilder()
        x = b.sym("x")
        fn = compile_exprs(space2, [b.pow(x, _POW_UNROLL_MAX + 1)])
        assert f"**{_POW_UNROLL_MAX + 1}" in fn.source
        assert fn.n_ops == 1

    def test_lowered_pow_chain_is_parenthesized(self, space2):
        """Inlining x*x*x into a consumer product must keep its grouping."""
        b = ExprBuilder()
        x, y = b.sym("x"), b.sym("y")
        source = compile_exprs(space2, [b.mul(y, b.pow(x, 3))]).source
        # the chain is the product's right factor (parenthesized) or its
        # left one (which left association already groups)
        assert "x1*(x0*x0*x0)" in source or "x0*x0*x0*x1" in source

    def test_kernel_emits_inplace_ufuncs(self, space2):
        tape = compile_exprs(space2, build_rational_like(space2)).tape
        source, n_ops, n_buffers = tape.kernel_source((True, True))
        assert "out=b" in source
        assert "_empty(_n)" in source
        assert "**" not in source  # every pow in this DAG unrolls

    def test_buffer_pool_smaller_than_op_count(self, space2):
        tape = compile_exprs(space2, build_rational_like(space2)).tape
        source, n_ops, n_buffers = tape.kernel_source((True, True))
        # liveness recycling: far fewer buffers than one-per-op
        assert 0 < n_buffers < n_ops

    def test_moment_program_buffer_reuse(self):
        """On the real 741-sized program the pool stays small."""
        from repro import awesymbolic
        from repro.circuits.library import fig1_circuit
        res = awesymbolic(fig1_circuit(), "out", symbols=["C1", "C2"],
                          order=2)
        fn = res.model.compiled_moments.fn
        source, n_ops, n_buffers = fn.tape.kernel_source((True, True))
        assert n_buffers < n_ops / 2

    def test_scalar_subtrees_stay_scalar(self, space2):
        """A subtree of only scalar args must not burn a vector buffer."""
        b = ExprBuilder()
        x, y = b.sym("x"), b.sym("y")
        scalar_part = b.mul(b.add(y, b.const(2.0)), y)
        root = b.mul(x, scalar_part)
        tape = compile_exprs(space2, [root]).tape
        source, _, n_buffers = tape.kernel_source((True, False))
        assert n_buffers == 1

    def test_sqrt_subtree_not_buffered(self, space2):
        """Complex-capable values cannot live in float64 buffers."""
        b = ExprBuilder()
        x, y = b.sym("x"), b.sym("y")
        root = b.mul(b.sqrt(x), y)
        tape = compile_exprs(space2, [root]).tape
        source, _, _ = tape.kernel_source((True, True))
        assert "r0 = _sqrt(x0)" in source
        assert "_sqrt(x0, out=" not in source

    def test_bad_mask_length_rejected(self, space2):
        from repro.errors import SymbolicError
        b = ExprBuilder()
        tape = compile_exprs(space2, [b.sym("x")]).tape
        with pytest.raises(SymbolicError, match="mask"):
            tape.kernel_source((True,))

    def test_aliasing_writes_into_dying_operand(self, space2):
        """The kernel writes an op into the buffer of an operand that
        dies at it."""
        tape = compile_exprs(space2, build_rational_like(space2)).tape

        def aliased(source):
            lines = [ln.strip() for ln in source.splitlines()]
            return [ln for ln in lines if ln.startswith("_np_")
                    and ln.split("out=")[1].rstrip(")") in
                    ln[ln.index("(") + 1:ln.index("out=")].split(", ")]

        alias_src, _, _ = tape.kernel_source((True, True))
        assert aliased(alias_src)

    def test_instrumented_matches_lowered_ops(self, space2):
        """The profiler's op labels still map 1:1 onto DAG nodes."""
        fn = compile_exprs(space2, build_rational_like(space2))
        profiled, labels = fn.instrumented()
        assert sum(lab["ops"] for lab in labels) == fn.n_ops
        with np.errstate(all="ignore"):
            rec = [0.0] * (len(labels) + 1)
            out = profiled(1.5, 2.5, _rec=rec)
            assert out == fn.eval_raw(1.5, 2.5)


@pytest.fixture(scope="module")
def moment_programs():
    """Per circuit, the tapes of the plain lowering of the moment
    numerators and determinant (``False``) and of the model's fused
    moment program (``True``)."""
    from repro import awesymbolic
    from repro.circuits.library import fig1_circuit, small_signal_741
    from repro.symbolic import compile_rationals
    fig1 = awesymbolic(fig1_circuit(), "out", symbols=["C1", "C2"], order=2)
    amp = awesymbolic(small_signal_741().circuit, "out",
                      symbols=["go_Q14", "Ccomp"], order=2)
    programs = {}
    for name, res in (("fig1", fig1), ("741", amp)):
        sm = res.moments
        programs[name] = {
            False: compile_rationals(sm.space,
                                     [*sm.numerators, sm.det]).tape,
            True: res.model.compiled_moments.fn.tape}
    return programs


class TestKernelBySize:
    """The evaluator is chosen by batch size — the ufunc kernel from 2
    points up, the scalar program on numpy scalars at 1 — and either one
    equals ``eval_raw`` bit for bit.  ``REPRO_NATIVE=off`` pins the
    ufunc kernel, which a bound native kernel would otherwise replace."""

    @pytest.fixture(autouse=True)
    def _ufunc_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "off")

    @pytest.mark.parametrize("name", ["fig1", "741"])
    @pytest.mark.parametrize("n", [1, 2, 4096])
    @pytest.mark.parametrize("columns", ["all", "mixed"])
    @pytest.mark.parametrize("fused", [False, True])
    def test_ufunc_kernel_equals_eval_raw(self, moment_programs, name, n,
                                          columns, fused):
        # a fresh function from the tape: no kernel cached yet
        fn = moment_programs[name][fused].build_function()
        rng = np.random.default_rng(n)
        args = []
        for pos, sym in enumerate(fn.space.symbols):
            scale = float(sym.nominal) * rng.uniform(0.3, 3.0, n)
            args.append(scale if columns == "all" or pos == 0
                        else float(sym.nominal) * 1.3)
        mask = tuple(isinstance(a, np.ndarray) for a in args)
        with np.errstate(all="ignore"):
            want = fn.eval_raw(*args)
            got = fn.eval_batch(args, n)
        assert len(want) == len(got)
        for w, g in zip(want, got):
            w = np.broadcast_to(np.asarray(w, dtype=np.float64), (n,))
            g = np.broadcast_to(np.asarray(g, dtype=np.float64), (n,))
            assert w.tobytes() == g.tobytes()
        # a 1-point batch specializes no ufunc kernel
        assert list(fn._kernels) == ([mask] if n > 1 else [])


class TestAllocations:
    @pytest.fixture(autouse=True)
    def _ufunc_kernel(self, monkeypatch):
        """The subject is the ufunc kernel: keep the native one out."""
        monkeypatch.setenv("REPRO_NATIVE", "off")

    def test_kernel_peak_tracks_buffer_pool_not_op_count(self):
        """tracemalloc: buffer reuse caps the kernel's peak allocation.

        A one-temp-per-op vectorized program would hold ``n_ops`` arrays
        live at once; the liveness-recycled pool holds ``n_buffers``
        (outputs included — root buffers are never recycled).  The peak
        must track the pool, with only per-call slack on top.
        """
        from repro import awesymbolic
        from repro.circuits.library import fig1_circuit
        res = awesymbolic(fig1_circuit(), "out", symbols=["C1", "C2"],
                          order=2)
        fn = res.model.compiled_moments.fn
        n = 4096
        c1 = np.linspace(0.5e-12, 5e-12, n)
        c2 = np.linspace(0.1e-12, 3e-12, n)
        cols = [c1 if s.name == "C1" else c2 if s.name == "C2"
                else float(s.nominal) for s in fn.space.symbols]
        _, n_ops, n_buffers = fn.tape.kernel_source((True, True))
        assert n_buffers < n_ops / 2
        fn.eval_batch(cols, n)  # build + install the kernel up front

        tracemalloc.start()
        fn.eval_batch(cols, n)
        _, peak_batch = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        point = n * 8  # one float64 column
        assert peak_batch < (n_ops / 2) * point      # beats one-per-op
        assert peak_batch < (n_buffers + 4) * point  # tracks the pool

    def test_kernel_reused_across_calls(self, space2):
        fn = compile_exprs(space2, build_rational_like(space2))
        xs = np.linspace(0.1, 1.0, 16)
        with np.errstate(all="ignore"):
            fn.eval_batch([xs, 2.0], 16)
            kernel = fn._kernels[(True, False)]
            fn.eval_batch([xs, 3.0], 16)
        assert fn._kernels[(True, False)] is kernel
        assert len(fn._kernels) == 1


class TestSafeGuards:
    def test_scalar_fast_path_types(self):
        assert _safe_sqrt(4.0) == 2.0
        assert isinstance(_safe_sqrt(4.0), float)
        assert _safe_sqrt(-4.0) == pytest.approx(2j)
        assert _safe_log(math.e) == pytest.approx(1.0)
        assert isinstance(_safe_log(2.0), float)
        assert _safe_log(-1.0) == pytest.approx(complex(0.0, math.pi))

    def test_scalar_log_zero_matches_numpy(self):
        value = _safe_log(0.0)
        with np.errstate(all="ignore"):
            expect = np.log(np.complex128(0.0))
        assert value.real == expect.real == float("-inf")
        assert value.imag == expect.imag == 0.0

    def test_array_single_reduction(self):
        arr = np.linspace(0.0, 4.0, 11)
        with np.errstate(all="ignore"):
            assert _safe_sqrt(arr).dtype == np.float64
            assert _safe_sqrt(arr - 2.0).dtype == np.complex128
            assert _safe_log(arr + 1.0).dtype == np.float64
            assert _safe_log(arr - 2.0).dtype == np.complex128

    def test_empty_array(self):
        assert _safe_sqrt(np.array([])).dtype == np.float64
        assert _safe_log(np.array([])).dtype == np.float64

    def test_sticky_guard_per_program(self):
        """After one negative array, a program's sqrt skips the re-scan and
        goes straight to complex — values unchanged, dtype widened."""
        ns = runtime_namespace()
        sqrt = ns["_sqrt"]
        pos = np.array([1.0, 4.0])
        assert sqrt(pos).dtype == np.float64          # scan says real
        assert sqrt(np.array([-1.0])).dtype == np.complex128
        out = sqrt(pos)                                # sticky: now complex
        assert out.dtype == np.complex128
        assert_array_equal(out.real, np.array([1.0, 2.0]))
        assert_array_equal(out.imag, np.zeros(2))

    def test_sticky_does_not_leak_between_programs(self):
        ns1 = runtime_namespace()
        ns1["_sqrt"](np.array([-1.0]))
        ns2 = runtime_namespace()
        assert ns2["_sqrt"](np.array([1.0])).dtype == np.float64

    def test_sticky_ignores_scalars(self):
        ns = runtime_namespace()
        sqrt = ns["_sqrt"]
        assert sqrt(-4.0) == pytest.approx(2j)         # scalar negative
        assert sqrt(np.array([1.0])).dtype == np.float64  # arrays unaffected
