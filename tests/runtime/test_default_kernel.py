"""The default moment kernel: native once built, never waited on.

Every chunk of more than ``SCALAR_LANES`` points asks for the native
kernel of its (program, array-mask) and runs the ufunc kernel until the
background builder has bound one.  Pinned here with fake compilers on
``PATH`` (a slow one that sleeps before running the real ``cc``, and
one that fails):

* a sweep never waits on the compiler, and returns the ufunc kernel's
  values bit for bit while the kernel builds;
* once the build lands, the next sweep runs the native kernel on every
  point (``RuntimeStats.native_points``) with the same values;
* a failed build logs one warning, is never retried, and changes no
  value;
* however many threads ask, one (program, mask) runs one compiler;
* the kernel runs on its caller's thread: a sweep leaves no thread
  behind, and the shards of a parallel sweep each run their own;
* a build runs in the environment it was asked for in (kernel store,
  compiler), and one that ``REPRO_NATIVE=off`` finds still queued is
  dropped without recording a failure;
* a process exiting mid-build waits for the build in flight only, so no
  compiler outlives it;
* 1- and 4-point sweeps (the scalar lane) start no build;
* on fig1, the 741, the OTA and the coupled lines at orders 1-4 the
  native kernel's sweeps equal ``REPRO_NATIVE=off`` bit for bit.
"""

from __future__ import annotations

import logging
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import awesymbolic
from repro.circuits.library import (fig1_circuit, paper_coupled_lines,
                                    small_signal_741, small_signal_ota)
from repro.circuits.library.coupled_lines import victim_output
from repro.core import metrics
from repro.core.compiled_model import TapeModel
from repro.runtime import RuntimeStats, batched_sweep, native
from repro.runtime.batched import SCALAR_LANES, VECTOR_METRICS

pytestmark = pytest.mark.skipif(
    native._find_cc() is None or native.disabled(),
    reason="no native kernel build on this host")

SRC = Path(__file__).resolve().parents[2] / "src"
REAL_CC = native._find_cc()
WARNING = "native kernel unavailable"


@pytest.fixture(scope="module")
def amp():
    return awesymbolic(small_signal_741().circuit, "out",
                       symbols=["go_Q14", "Ccomp"], order=2)


@pytest.fixture
def cold_model(amp):
    """A fresh program (no kernel bound) over the 741's tape."""
    return TapeModel(amp.model.tape)


def amp_grids(amp, n: int = 64) -> dict:
    go = amp.partition.symbolic[0].symbol.nominal
    return {"go_Q14": np.linspace(0.5, 4.0, n) * go,
            "Ccomp": np.linspace(10e-12, 60e-12, n)}


@pytest.fixture
def builder(tmp_path, monkeypatch):
    """An idle builder over an empty kernel store; every build this test
    queues has landed before the next test."""
    native.wait_for_builds()
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "store"))
    yield
    assert native.wait_for_builds(timeout=120)


def fake_cc(tmp_path: Path, monkeypatch, body: str) -> Path:
    """Put a ``cc`` running ``body`` first on ``PATH``; its invocations
    append to the returned log."""
    bindir = tmp_path / "bin"
    bindir.mkdir()
    log = tmp_path / "cc.log"
    script = bindir / "cc"
    script.write_text("#!/bin/sh\n"
                      f"echo start >> '{log}'\n"
                      + body.format(real=REAL_CC, log=log))
    script.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bindir}{os.pathsep}{os.environ['PATH']}")
    return log


def slow_cc(delay: float) -> str:
    """A compiler that sleeps ``delay`` seconds, then compiles."""
    return (f"sleep {delay}\n"
            "'{real}' \"$@\"\n"
            "status=$?\n"
            "echo end >> '{log}'\n"
            "exit $status\n")


def log_lines(log: Path) -> list[str]:
    return log.read_text().split() if log.exists() else []


def ufunc_sweep(model, grids, monkeypatch, **kwargs):
    """The sweep under ``REPRO_NATIVE=off``: the ufunc kernel's values."""
    with monkeypatch.context() as m:
        m.setenv("REPRO_NATIVE", "off")
        return model.sweep(grids, metrics.dominant_pole_hz, **kwargs)


def test_sweep_returns_before_the_compiler_ends(amp, cold_model, builder,
                                                tmp_path, monkeypatch):
    grids = amp_grids(amp)
    want = ufunc_sweep(cold_model, grids, monkeypatch)
    log = fake_cc(tmp_path, monkeypatch, slow_cc(2.0))
    stats = RuntimeStats()
    got = cold_model.sweep(grids, metrics.dominant_pole_hz, stats=stats)
    assert "end" not in log_lines(log)  # the compiler is still running
    assert stats.native_points == 0
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    assert native.wait_for_builds(timeout=120)
    assert log_lines(log) == ["start", "end"]
    stats = RuntimeStats()
    got = cold_model.sweep(grids, metrics.dominant_pole_hz, stats=stats)
    assert stats.native_points == stats.points == 64 * 64
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_failed_build_warns_once_and_is_not_retried(amp, cold_model, builder,
                                                    tmp_path, monkeypatch,
                                                    caplog):
    grids = amp_grids(amp)
    want = ufunc_sweep(cold_model, grids, monkeypatch)
    log = fake_cc(tmp_path, monkeypatch, "exit 1\n")
    caplog.clear()  # the off switch's own warning
    with caplog.at_level(logging.WARNING):
        for _ in range(3):
            stats = RuntimeStats()
            got = cold_model.sweep(grids, metrics.dominant_pole_hz,
                                   stats=stats)
            assert native.wait_for_builds(timeout=120)
            assert stats.native_points == 0
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert log_lines(log) == ["start"]
    warnings = [r for r in caplog.records if WARNING in r.getMessage()]
    assert len(warnings) == 1


def test_eight_threads_run_one_compiler(amp, cold_model, builder, tmp_path,
                                        monkeypatch):
    grids = amp_grids(amp)
    want = ufunc_sweep(cold_model, grids, monkeypatch)
    log = fake_cc(tmp_path, monkeypatch, slow_cc(0.5))
    start = threading.Barrier(8)
    results = [None] * 8

    def sweep(i: int) -> None:
        start.wait()
        results[i] = cold_model.sweep(grids, metrics.dominant_pole_hz)

    threads = [threading.Thread(target=sweep, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the requests finely
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert native.wait_for_builds(timeout=120)
    assert log_lines(log) == ["start", "end"]
    for got in results:
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def wait_for_compiler_start(log: Path) -> None:
    deadline = time.monotonic() + 60
    while "start" not in log_lines(log):
        assert time.monotonic() < deadline, "the compiler never started"
        time.sleep(0.01)


def test_build_switched_off_while_queued_is_dropped(amp, cold_model, builder,
                                                    tmp_path, monkeypatch,
                                                    caplog):
    grids = amp_grids(amp)
    one_axis = {"Ccomp": grids["Ccomp"]}  # go_Q14 at its nominal value
    want = ufunc_sweep(cold_model, one_axis, monkeypatch)
    log = fake_cc(tmp_path, monkeypatch, slow_cc(1.0))
    fn = cold_model.compiled_moments.fn
    cold_model.sweep(grids, metrics.dominant_pole_hz)     # asks for mask A
    cold_model.sweep(one_axis, metrics.dominant_pole_hz)  # B: queued
    wait_for_compiler_start(log)                          # A: in flight
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        monkeypatch.setenv("REPRO_NATIVE", "off")
        assert native.wait_for_builds(timeout=120)
        monkeypatch.delenv("REPRO_NATIVE")
    assert log_lines(log) == ["start", "end"]  # B never ran the compiler
    assert (True, True) in fn._native_kernels
    assert fn._native_failed == set()
    assert not [r for r in caplog.records if WARNING in r.getMessage()]

    cold_model.sweep(one_axis, metrics.dominant_pole_hz)  # asks again
    assert native.wait_for_builds(timeout=120)
    stats = RuntimeStats()
    got = cold_model.sweep(one_axis, metrics.dominant_pole_hz, stats=stats)
    assert stats.native_points == stats.points == 64
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_build_runs_in_the_environment_it_was_asked_in(amp, cold_model,
                                                       builder, tmp_path,
                                                       monkeypatch):
    grids = amp_grids(amp)
    one_axis = {"Ccomp": grids["Ccomp"]}
    path = os.environ["PATH"]
    asked_store = Path(os.environ["REPRO_NATIVE_CACHE"])
    log = fake_cc(tmp_path, monkeypatch, slow_cc(0.5))
    fn = cold_model.compiled_moments.fn
    cold_model.sweep(grids, metrics.dominant_pole_hz)  # A: keeps it busy
    cold_model.sweep(one_axis, metrics.dominant_pole_hz)  # B: queued
    # B runs after both change
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "other"))
    monkeypatch.setenv("PATH", path)  # the real compiler first
    assert native.wait_for_builds(timeout=120)
    assert log_lines(log) == ["start", "end", "start", "end"]
    assert len(list(asked_store.glob("tape-*.so"))) == 2
    assert not (tmp_path / "other").exists()
    assert (False, True) in fn._native_kernels


def test_a_sweep_leaves_no_thread_behind(amp, cold_model, builder):
    grids = amp_grids(amp)  # 4096 points: one chunk
    cold_model.sweep(grids, metrics.dominant_pole_hz)  # asks for the kernel
    assert native.wait_for_builds(timeout=120)
    before = set(threading.enumerate())
    stats = RuntimeStats()
    cold_model.sweep(grids, metrics.dominant_pole_hz, stats=stats)
    assert stats.native_points == 64 * 64
    assert set(threading.enumerate()) - before == set()


def test_parallel_shards_run_their_kernel_on_their_own_thread(
        amp, cold_model, builder):
    grids = amp_grids(amp)  # 4096 points: one chunk, or 2048 per shard
    cold_model.sweep(grids, metrics.dominant_pole_hz)  # asks for the kernel
    assert native.wait_for_builds(timeout=120)
    want = cold_model.sweep(grids, metrics.dominant_pole_hz)

    stats = RuntimeStats()
    got = cold_model.sweep(grids, metrics.dominant_pole_hz, shards=2,
                           max_workers=2, stats=stats)
    assert (stats.backend, stats.workers) == ("thread", 2)
    assert stats.native_points == 64 * 64
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


CHILD = textwrap.dedent("""\
    import sys, time
    from pathlib import Path
    import numpy as np
    from repro.core import metrics
    from repro.core.compiled_model import TapeModel
    from repro.symbolic.tape import load_tape

    model = TapeModel(load_tape(sys.argv[1]))
    log = Path(sys.argv[2])
    go = float(sys.argv[3])
    n = 32
    axes = {"go_Q14": np.linspace(0.5, 4.0, n) * go,
            "Ccomp": np.linspace(10e-12, 60e-12, n)}
    # two cold masks: both columns, and one column over a nominal
    model.sweep(axes, metrics.dominant_pole_hz)
    model.sweep({"Ccomp": axes["Ccomp"]}, metrics.dominant_pole_hz)
    deadline = time.monotonic() + 20.0
    while not log.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    print("exiting mid-build" if log.exists() else "no build started")
""")


def test_exit_waits_for_the_build_in_flight_only(amp, builder, tmp_path,
                                                 monkeypatch):
    tape = tmp_path / "741.tape"
    amp.model.tape.save(tape)
    log = fake_cc(tmp_path, monkeypatch, slow_cc(1.0))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    go = amp.partition.symbolic[0].symbol.nominal
    out = subprocess.run([sys.executable, "-c", CHILD, str(tape), str(log),
                          repr(go)],
                         env=env, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[0] == "exiting mid-build"
    # the compiler had ended when the process did, and the second
    # (queued) build never started
    assert log_lines(log) == ["start", "end"]


@pytest.mark.parametrize("n", [1, SCALAR_LANES])
def test_small_sweeps_start_no_build(amp, cold_model, builder, monkeypatch,
                                     n):
    asked = []
    monkeypatch.setattr(native, "request_kernel",
                        lambda fn, mask: asked.append(mask))
    go_q14 = amp_grids(amp, n)["go_Q14"]
    stats = RuntimeStats()
    cold_model.sweep({"go_Q14": go_q14, "Ccomp": np.array([30e-12])},
                     metrics.dominant_pole_hz, stats=stats)
    batched_sweep(cold_model, {"go_Q14": go_q14,
                               "Ccomp": np.full(n, 30e-12)},
                  metrics.dominant_pole_hz, paired=True, stats=stats)
    assert stats.points == 2 * n
    assert stats.native_points == 0
    assert asked == []
    assert cold_model.compiled_moments.fn._kernels == {}


@pytest.fixture(scope="module")
def circuits(amp):
    """fig1 (``G2`` swept through 0: a singular row), the 741, the OTA
    and the coupled lines, compiled for order 4."""
    go = amp.partition.symbolic[0].symbol.nominal
    return {
        "fig1": (awesymbolic(fig1_circuit(), "out", symbols=["G2", "C2"],
                             order=4),
                 {"G2": np.linspace(0.0, 4.0, 9),
                  "C2": np.linspace(0.5, 3.0, 7)}),
        "741": (awesymbolic(small_signal_741().circuit, "out",
                            symbols=["go_Q14", "Ccomp"], order=4),
                {"go_Q14": np.linspace(0.5, 4.0, 9) * go,
                 "Ccomp": np.linspace(10e-12, 60e-12, 7)}),
        "ota": (awesymbolic(small_signal_ota().circuit, "out",
                            symbols=["Cc", "gds_M6"], order=4),
                {"Cc": np.linspace(1e-12, 10e-12, 9),
                 "gds_M6": np.linspace(1e-6, 40e-6, 7)}),
        "lines": (awesymbolic(paper_coupled_lines(n_segments=6),
                              victim_output(6),
                              symbols=["Rdrv1", "Cload2"], order=4),
                  {"Rdrv1": np.linspace(10.0, 400.0, 9),
                   "Cload2": np.linspace(10e-15, 1e-12, 7)}),
    }


@pytest.mark.parametrize("name", ["fig1", "741", "ota", "lines"])
def test_native_sweeps_equal_the_ufunc_kernel(circuits, name, builder,
                                              monkeypatch):
    result, grids = circuits[name]
    model = TapeModel(result.model.tape)
    model.sweep(grids, metrics.dominant_pole_hz)  # asks for the kernel
    assert native.wait_for_builds(timeout=120)
    for order in (1, 2, 3, 4):
        for metric in VECTOR_METRICS:
            with monkeypatch.context() as m:
                m.setenv("REPRO_NATIVE", "off")
                want = model.sweep(grids, metric, order=order)
            stats = RuntimeStats()
            got = model.sweep(grids, metric, order=order, stats=stats)
            assert stats.native_points == stats.points == 63
            assert got.dtype == want.dtype
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            assert [(p.index, p.stage, p.message)
                    for p in got.diagnostics.quarantined] == \
                [(p.index, p.stage, p.message)
                 for p in want.diagnostics.quarantined]
            assert got.diagnostics.dropped_orders == \
                want.diagnostics.dropped_orders
