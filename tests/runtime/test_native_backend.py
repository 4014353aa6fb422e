"""Native op-tape kernel: differential identity and graceful degradation.

The native backend's contract has two halves, both pinned here:

* **when a native kernel builds** (numba or a C toolchain), its output
  is *byte-identical* to the ufunc kernel — the build-time probe refuses
  any kernel that differs by even one ULP, so the sweep's `backend=`
  argument can never change results;
* **when nothing builds** (no numba, no compiler, or
  ``REPRO_NATIVE=off``) the sweep degrades to the ufunc kernel with a
  single logged warning — never an error, never different values.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro import awesymbolic
from repro.circuits.library import fig1_circuit, small_signal_741
from repro.core import metrics
from repro.runtime.native import (NativeUnavailable, build_native_kernel,
                                  native_kernel_for)
from repro.symbolic.tape import tape_for


@pytest.fixture(scope="module")
def model_741():
    ss = small_signal_741()
    return awesymbolic(ss.circuit, "out", symbols=["go_Q14", "Ccomp"],
                       order=2)


def _kernel_or_skip(fn, mask):
    try:
        return native_kernel_for(fn, mask)
    except NativeUnavailable as exc:
        pytest.skip(f"no native toolchain here: {exc}")


def _columns(fn, n, vary=None):
    cols = []
    for pos, sym in enumerate(fn.space.symbols):
        nominal = float(sym.nominal)
        if vary is None or pos in vary:
            cols.append(nominal * (0.75 + 0.4 * np.arange(n) / max(n, 1)))
        else:
            cols.append(nominal)
    return cols


class TestKernelIdentity:
    """Direct kernel-level byte comparison, no sweep machinery."""

    @pytest.mark.parametrize("n", [1, 7, 128, 1024])
    def test_741_all_varying(self, model_741, n, monkeypatch):
        fn = model_741.model.compiled_moments.fn
        mask = (True,) * len(fn.space)
        kernel = _kernel_or_skip(fn, mask)
        cols = _columns(fn, n)
        monkeypatch.setenv("REPRO_NATIVE", "off")  # want: the ufunc kernel
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            want = [np.broadcast_to(np.asarray(v, dtype=float), (n,))
                    for v in fn.eval_batch([np.asarray(c).copy()
                                            if isinstance(c, np.ndarray)
                                            else c for c in cols], n)]
            got = kernel(cols, n)
        for w, g in zip(want, got):
            assert w.tobytes() == np.asarray(g).tobytes()

    def test_mixed_mask(self, model_741, monkeypatch):
        """Scalar + array arguments: scalar subexpressions hoist."""
        fn = model_741.model.compiled_moments.fn
        n = 64
        cols = _columns(fn, n, vary={1})
        mask = tuple(isinstance(c, np.ndarray) for c in cols)
        kernel = _kernel_or_skip(fn, mask)
        monkeypatch.setenv("REPRO_NATIVE", "off")  # want: the ufunc kernel
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            want = [np.broadcast_to(np.asarray(v, dtype=float), (n,))
                    for v in fn.eval_batch(list(cols), n)]
            got = kernel(cols, n)
        for w, g in zip(want, got):
            assert w.tobytes() == np.asarray(g).tobytes()

    def test_kernel_reports_flavor_and_source(self, model_741):
        fn = model_741.model.compiled_moments.fn
        mask = (True,) * len(fn.space)
        kernel = _kernel_or_skip(fn, mask)
        assert kernel.flavor in ("numba", "c")
        assert "repro_tape_kernel" in kernel.source or "def " in kernel.source


class TestSweepIdentity:
    def test_native_sweep_matches_serial(self, model_741):
        go_nom = model_741.partition.symbolic[0].symbol.nominal
        grids = {"go_Q14": np.linspace(0.5, 4.0, 16) * go_nom,
                 "Ccomp": np.linspace(10e-12, 60e-12, 16)}
        base = model_741.model.sweep(grids, metrics.dominant_pole_hz,
                                     backend="serial")
        other = model_741.model.sweep(grids, metrics.dominant_pole_hz,
                                      backend="native")
        assert_array_equal(np.asarray(base), np.asarray(other))

    def test_native_sweep_matches_serial_fig1(self, fig1_model):
        grids = {"C1": np.linspace(0.5e-12, 5e-12, 11),
                 "C2": np.linspace(0.1e-12, 3e-12, 11)}
        base = fig1_model.model.sweep(grids, metrics.dominant_pole_hz,
                                      backend="serial")
        other = fig1_model.model.sweep(grids, metrics.dominant_pole_hz,
                                       backend="native")
        assert_array_equal(np.asarray(base), np.asarray(other))

    def test_native_sweep_matches_serial_ota(self, ota_model):
        grids = {"Cc": np.linspace(1e-12, 10e-12, 10),
                 "gds_M6": np.linspace(1e-6, 1e-4, 10)}
        base = ota_model.model.sweep(grids, metrics.dominant_pole_hz,
                                     backend="serial")
        other = ota_model.model.sweep(grids, metrics.dominant_pole_hz,
                                      backend="native")
        assert_array_equal(np.asarray(base), np.asarray(other))


class TestDegradation:
    def test_off_switch_falls_back_with_warning(self, monkeypatch, caplog):
        """REPRO_NATIVE=off: ufunc fallback, one warning, same values."""
        monkeypatch.setenv("REPRO_NATIVE", "off")
        # a one-symbol recipe: a fresh program, not the fixture's fn
        # (identical recipes share one CompiledFunction process-wide,
        # and the off-warning fires once per program)
        res = awesymbolic(fig1_circuit(), "out", symbols=["C1"], order=2)
        grids = {"C1": np.linspace(0.5e-12, 5e-12, 6)}
        base = res.model.sweep(grids, metrics.dominant_pole_hz,
                               backend="serial")
        with caplog.at_level(logging.WARNING, logger="repro.symbolic"):
            other = res.model.sweep(grids, metrics.dominant_pole_hz,
                                    backend="native")
        assert_array_equal(np.asarray(base), np.asarray(other))
        warnings = [r for r in caplog.records
                    if "native kernel unavailable" in r.message]
        assert len(warnings) == 1

    def test_failed_mask_warns_once(self, monkeypatch, caplog):
        """The second native sweep of a failed mask stays silent."""
        monkeypatch.setenv("REPRO_NATIVE", "off")
        res = awesymbolic(fig1_circuit(), "out", symbols=["C2"], order=2)
        grids = {"C2": np.linspace(0.1e-12, 3e-12, 5)}
        with caplog.at_level(logging.WARNING, logger="repro.symbolic"):
            res.model.sweep(grids, metrics.dominant_pole_hz,
                            backend="native")
            res.model.sweep(grids, metrics.dominant_pole_hz,
                            backend="native")
        warnings = [r for r in caplog.records
                    if "native kernel unavailable" in r.message]
        assert len(warnings) == 1

    def test_off_switch_raises_at_build_level(self, monkeypatch, model_741):
        monkeypatch.setenv("REPRO_NATIVE", "off")
        fn = model_741.model.compiled_moments.fn
        tape = tape_for(fn)
        with pytest.raises(NativeUnavailable):
            build_native_kernel(tape, (True,) * len(fn.space))


class TestThreadedKernel:
    """REPRO_NATIVE_THREADS > 1 builds the parallel flavor.

    The threaded kernel splits the point range into disjoint slices of
    the same output slab, so results must be invariant to the thread
    count *and* to the 2048-point threshold below which the kernel runs
    the calling thread only.
    """

    @pytest.fixture()
    def threaded(self, model_741, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "3")
        fn = model_741.model.compiled_moments.fn
        mask = (True,) * len(fn.space)
        return fn, _kernel_or_skip(fn, mask)

    def test_parallel_flavor_built(self, threaded):
        _, kernel = threaded
        assert kernel.parallel
        assert kernel.threads == 3

    @pytest.mark.parametrize("n", [1, 7, 2047, 2048, 4096, 10001])
    def test_byte_identical_across_thread_threshold(self, threaded, n,
                                                    monkeypatch):
        fn, kernel = threaded
        cols = _columns(fn, n)
        monkeypatch.setenv("REPRO_NATIVE", "off")  # want: the ufunc kernel
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            want = [np.broadcast_to(np.asarray(v, dtype=float), (n,))
                    for v in fn.eval_batch([np.asarray(c).copy()
                                            if isinstance(c, np.ndarray)
                                            else c for c in cols], n)]
            got = kernel(cols, n)
        for w, g in zip(want, got):
            assert w.tobytes() == np.asarray(g).tobytes()

    def test_single_thread_env_stays_serial(self, model_741, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "1")
        fn = model_741.model.compiled_moments.fn
        kernel = _kernel_or_skip(fn, (True,) * len(fn.space))
        assert not kernel.parallel
        assert kernel.threads == 1

    def test_threaded_native_sweep_matches_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "2")
        res = awesymbolic(fig1_circuit(), "out", symbols=["C1", "C2"],
                          order=1)
        grids = {"C1": np.linspace(0.5e-12, 5e-12, 48),
                 "C2": np.linspace(0.1e-12, 3e-12, 48)}
        base = res.model.sweep(grids, metrics.dominant_pole_hz,
                               backend="serial")
        other = res.model.sweep(grids, metrics.dominant_pole_hz,
                                backend="native")
        assert_array_equal(np.asarray(base), np.asarray(other))


class TestFusedKernel:
    """A schema-2 fused tape lowers to one native pass over the whole
    moment slab, byte-identical to the fused ufunc evaluation."""

    def test_fused_tape_kernel_byte_identical(self, model_741, monkeypatch):
        from repro.symbolic.tape import fuse_moments

        fn = model_741.model.compiled_moments.fn
        fused = fuse_moments(tape_for(fn))
        fused_fn = fused.build_function()
        mask = (True,) * len(fn.space)
        try:
            kernel = build_native_kernel(fused, mask)
        except NativeUnavailable as exc:
            pytest.skip(f"no native toolchain here: {exc}")
        n = 4096
        cols = _columns(fn, n)
        monkeypatch.setenv("REPRO_NATIVE", "off")  # want: the ufunc kernel
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            want = [np.broadcast_to(np.asarray(v, dtype=float), (n,))
                    for v in fused_fn.eval_batch([np.asarray(c).copy()
                                                  for c in cols], n)]
            got = kernel(cols, n)
        assert len(got) == len(fused.outputs)
        for w, g in zip(want, got):
            assert w.tobytes() == np.asarray(g).tobytes()
