"""Native op-tape kernel: differential identity and graceful degradation.

The native kernel's contract has two halves, both pinned here:

* **when a native kernel builds** (a C toolchain), its output is
  *byte-identical* to the ufunc kernel — the build-time probe refuses
  any kernel that differs by even one ULP, so which kernel a sweep runs
  can never change results;
* **when nothing builds** (no compiler, or ``REPRO_NATIVE=off``) the
  sweep degrades to the ufunc kernel with a single logged warning —
  never an error, never different values.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro import awesymbolic
from repro.circuits.library import fig1_circuit, small_signal_741
from repro.core import metrics
from repro.runtime import RuntimeStats
from repro.runtime.native import (NativeUnavailable, build_native_kernel,
                                  disabled, native_kernel_for,
                                  wait_for_builds)
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
        assert "repro_tape_kernel" in kernel.source


class TestSweepIdentity:
    """Shards are the one way a sweep uses more CPUs: two shard threads,
    each running the native kernel (once bound) on its own slice, equal
    the serial sweep on the ufunc kernel bit for bit."""

    @staticmethod
    def _check(model, grids, monkeypatch):
        model.sweep(grids, metrics.dominant_pole_hz)  # asks for the kernel
        assert wait_for_builds(timeout=120)
        fn = model.compiled_moments.fn
        bound = ((True,) * len(fn.space) in fn._native_kernels
                 and not disabled())
        with monkeypatch.context() as m:
            m.setenv("REPRO_NATIVE", "off")  # base: the ufunc kernel
            base = model.sweep(grids, metrics.dominant_pole_hz,
                               backend="serial")
        stats = RuntimeStats()
        other = model.sweep(grids, metrics.dominant_pole_hz, shards=2,
                            max_workers=2, stats=stats)
        assert (stats.backend, stats.workers) == ("thread", 2)
        assert stats.points == base.size
        assert stats.native_points == (stats.points if bound else 0)
        assert_array_equal(np.asarray(base), np.asarray(other))

    def test_native_sweep_matches_serial(self, model_741, monkeypatch):
        go_nom = model_741.partition.symbolic[0].symbol.nominal
        grids = {"go_Q14": np.linspace(0.5, 4.0, 16) * go_nom,
                 "Ccomp": np.linspace(10e-12, 60e-12, 16)}
        self._check(model_741.model, grids, monkeypatch)

    def test_native_sweep_matches_serial_fig1(self, fig1_model, monkeypatch):
        grids = {"C1": np.linspace(0.5e-12, 5e-12, 11),
                 "C2": np.linspace(0.1e-12, 3e-12, 11)}
        self._check(fig1_model.model, grids, monkeypatch)

    def test_native_sweep_matches_serial_ota(self, ota_model, monkeypatch):
        grids = {"Cc": np.linspace(1e-12, 10e-12, 10),
                 "gds_M6": np.linspace(1e-6, 1e-4, 10)}
        self._check(ota_model.model, grids, monkeypatch)


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
            other = res.model.sweep(grids, metrics.dominant_pole_hz)
        assert_array_equal(np.asarray(base), np.asarray(other))
        warnings = [r for r in caplog.records
                    if "native kernel unavailable" in r.message]
        assert len(warnings) == 1

    def test_failed_mask_warns_once(self, monkeypatch, caplog):
        """The second sweep of a failed mask stays silent."""
        monkeypatch.setenv("REPRO_NATIVE", "off")
        res = awesymbolic(fig1_circuit(), "out", symbols=["C2"], order=2)
        grids = {"C2": np.linspace(0.1e-12, 3e-12, 5)}
        with caplog.at_level(logging.WARNING, logger="repro.symbolic"):
            res.model.sweep(grids, metrics.dominant_pole_hz)
            res.model.sweep(grids, metrics.dominant_pole_hz)
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
    """One call evaluates the whole batch on the caller's thread,
    byte-identical to the ufunc kernel at every size, from one point to
    more than two default sweep chunks."""

    @pytest.mark.parametrize("n", [1, 7, 2047, 2048, 4096, 10001])
    def test_byte_identical_across_thread_threshold(self, model_741, n,
                                                    monkeypatch):
        fn = model_741.model.compiled_moments.fn
        kernel = _kernel_or_skip(fn, (True,) * len(fn.space))
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
