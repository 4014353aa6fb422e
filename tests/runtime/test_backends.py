"""Cross-backend differential tests: serial / thread / process.

The backend only decides *where* a shard attempt runs; every backend
must produce bit-identical sweep values (NaN placement included),
identical quarantine records, and identical diagnostics — on clean
grids, on grids with degenerate regions, and under injected shard
faults.  Process-backend runs go through the full shipping path:
op-tape artifact rebuild in spawned workers, inline or shared-memory
column transport, warm per-process program cache.  Every backend's
chunks run the same moment kernel choice (the compiled tape kernel once
built, else the ufunc kernel — bit-identical either way).
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro import awesymbolic
from repro.circuits.library import small_signal_741
from repro.core import metrics
from repro.errors import ApproximationError
from repro.obs import trace as obs_trace
from repro.runtime import BACKENDS, RuntimeStats, resolve_backend
from repro.runtime.batched import _resolve_sharding, batched_sweep
from repro.testing.faults import FaultInjector

BACKEND_NAMES = ["serial", "thread", "process"]


@pytest.fixture(scope="module")
def model_741():
    """The paper's §3.1 transistor-level 741 workload."""
    ss = small_signal_741()
    return awesymbolic(ss.circuit, "out", symbols=["go_Q14", "Ccomp"],
                       order=2)


@pytest.fixture(scope="module")
def grids_741(model_741):
    go_nom = model_741.partition.symbolic[0].symbol.nominal
    return {"go_Q14": np.linspace(0.5, 4.0, 12) * go_nom,
            "Ccomp": np.linspace(10e-12, 60e-12, 12)}


def sweep_with(model, grids, metric, backend, **kwargs):
    stats = RuntimeStats()
    result = model.sweep(grids, metric, shards=kwargs.pop("shards", 4),
                         max_workers=kwargs.pop("max_workers", 2),
                         stats=stats, backend=backend, **kwargs)
    return result, stats


def quarantine_key(diag):
    return [(p.index, p.stage, p.error) for p in diag.quarantined]


class TestBitIdentity:
    def test_741_all_backends_identical(self, model_741, grids_741):
        base, base_stats = sweep_with(model_741.model, grids_741,
                                      metrics.dominant_pole_hz, "serial")
        for backend in ("thread", "process"):
            other, stats = sweep_with(model_741.model, grids_741,
                                      metrics.dominant_pole_hz, backend)
            assert_array_equal(np.asarray(base), np.asarray(other))
            assert stats.backend == backend
            assert stats.points == np.asarray(base).size

    def test_rc_all_backends_identical(self, fig1_model):
        grids = {"C1": np.linspace(0.5e-12, 5e-12, 9),
                 "C2": np.linspace(0.1e-12, 3e-12, 9)}
        base, _ = sweep_with(fig1_model.model, grids, metrics.dc_gain,
                             "serial")
        for backend in ("thread", "process"):
            other, _ = sweep_with(fig1_model.model, grids, metrics.dc_gain,
                                  backend)
            assert_array_equal(np.asarray(base), np.asarray(other))

    def test_complex_pole_region_identical(self, rlc_model):
        """Underdamped RLC: the sqrt goes complex across the grid."""
        grids = {"C1": np.linspace(0.2e-12, 8e-12, 10),
                 "Rsrc": np.linspace(5.0, 500.0, 10)}
        base, _ = sweep_with(rlc_model.model, grids,
                             metrics.dominant_pole_hz, "serial")
        for backend in ("thread", "process"):
            other, _ = sweep_with(rlc_model.model, grids,
                                  metrics.dominant_pole_hz, backend)
            assert_array_equal(np.asarray(base), np.asarray(other))

    def test_nan_placement_identical(self, fig1_model):
        """A grid that includes degenerate (C = 0) points: NaN masks and
        quarantine records must agree bit-for-bit across backends."""
        grids = {"C1": np.linspace(0.0, 5e-12, 8),
                 "C2": np.linspace(0.0, 3e-12, 8)}
        base, _ = sweep_with(fig1_model.model, grids,
                             metrics.dominant_pole_hz, "serial")
        base_arr = np.asarray(base)
        for backend in ("thread", "process"):
            other, _ = sweep_with(fig1_model.model, grids,
                                  metrics.dominant_pole_hz, backend)
            other_arr = np.asarray(other)
            assert_array_equal(np.isnan(base_arr), np.isnan(other_arr))
            assert_array_equal(base_arr, other_arr)
            assert quarantine_key(other.diagnostics) == \
                quarantine_key(base.diagnostics)

    def test_diagnostics_identical(self, fig1_model):
        grids = {"C1": np.linspace(0.0, 5e-12, 8),
                 "C2": np.linspace(0.1e-12, 3e-12, 8)}
        reports = {}
        for backend in BACKEND_NAMES:
            result, _ = sweep_with(fig1_model.model, grids,
                                   metrics.dominant_pole_hz, backend)
            diag = result.diagnostics
            reports[backend] = (diag.points, diag.nan_points,
                                quarantine_key(diag))
        assert reports["thread"] == reports["serial"]
        assert reports["process"] == reports["serial"]

    def test_per_point_fallback_metric_identical(self, fig1_model):
        """A metric with no vectorized implementation exercises the
        per-point path inside the workers."""
        grids = {"C1": np.linspace(0.5e-12, 5e-12, 7),
                 "C2": np.linspace(0.1e-12, 3e-12, 7)}
        base, _ = sweep_with(fig1_model.model, grids, metrics.bandwidth_3db,
                             "serial")
        for backend in ("thread", "process"):
            other, _ = sweep_with(fig1_model.model, grids,
                                  metrics.bandwidth_3db, backend)
            assert_array_equal(np.asarray(base), np.asarray(other))


class TestFaults:
    def test_injected_shard_faults_identical(self, model_741, grids_741):
        base, _ = sweep_with(model_741.model, grids_741,
                             metrics.dominant_pole_hz, "serial")
        for backend in ("thread", "process"):
            injector = FaultInjector()
            injector.raises("sweep.shard", times=2,
                            when=lambda p: p["attempt"] == 0)
            with injector.armed():
                faulty, _ = sweep_with(model_741.model, grids_741,
                                       metrics.dominant_pole_hz, backend)
            assert injector.fired("sweep.shard") == 2
            assert_array_equal(np.asarray(base), np.asarray(faulty))
            resolutions = {f.resolution
                           for f in faulty.diagnostics.shard_failures}
            assert resolutions == {"retried"}

    def test_serial_fallback_identical(self, fig1_model):
        """Every pooled attempt fails -> in-process fallback, same values."""
        grids = {"C1": np.linspace(0.5e-12, 5e-12, 8),
                 "C2": np.linspace(0.1e-12, 3e-12, 8)}
        base, _ = sweep_with(fig1_model.model, grids,
                             metrics.dominant_pole_hz, "serial")
        for backend in ("thread", "process"):
            injector = FaultInjector()
            injector.raises("sweep.shard", times=None,
                            when=lambda p: p["attempt"] >= 0)
            with injector.armed():
                result, _ = sweep_with(fig1_model.model, grids,
                                       metrics.dominant_pole_hz, backend,
                                       shards=2)
            assert_array_equal(np.asarray(base), np.asarray(result))
            assert {f.resolution
                    for f in result.diagnostics.shard_failures} == {"serial"}

    def test_strict_mode_raises_across_backends(self, fig1_model):
        """A singular point (C1 = C2 = 0) must fail fast on every backend."""
        grids = {"C1": np.array([0.0, 1e-12]),
                 "C2": np.array([0.0, 1e-12])}
        for backend in BACKEND_NAMES:
            with pytest.raises(Exception) as excinfo:
                sweep_with(fig1_model.model, grids,
                           metrics.dominant_pole_hz, backend, strict=True)
            assert type(excinfo.value).__name__ in ("PartitionError",
                                                    "ApproximationError")


class TestProcessBackendEdges:
    def test_unpicklable_metric_rejected(self, fig1_model):
        grids = {"C1": np.linspace(0.5e-12, 5e-12, 4)}
        with pytest.raises(ApproximationError, match="picklable"):
            fig1_model.model.sweep(grids, lambda rom: 1.0, shards=2,
                                   max_workers=2, backend="process")

    def test_unpicklable_metric_fine_on_thread(self, fig1_model):
        grids = {"C1": np.linspace(0.5e-12, 5e-12, 4)}
        result = fig1_model.model.sweep(grids, lambda rom: 1.0, shards=2,
                                        max_workers=2, backend="thread")
        assert_array_equal(np.asarray(result), np.ones(4))

    def test_warm_pool_spawn_amortized(self, fig1_model):
        grids = {"C1": np.linspace(0.5e-12, 5e-12, 6)}
        _, first = sweep_with(fig1_model.model, grids, metrics.dc_gain,
                              "process", shards=2)
        _, second = sweep_with(fig1_model.model, grids, metrics.dc_gain,
                               "process", shards=2)
        # the pool is cached per worker count: a warm sweep pays no spawn
        assert second.spawn_seconds == 0.0

    def test_worker_busy_recorded(self, fig1_model):
        grids = {"C1": np.linspace(0.5e-12, 5e-12, 8)}
        _, stats = sweep_with(fig1_model.model, grids, metrics.dc_gain,
                              "process", shards=2)
        assert stats.worker_busy
        assert all(key.startswith("pid-") for key in stats.worker_busy)
        assert all(busy >= 0.0 for busy in stats.worker_busy.values())

    def test_traced_worker_spans_are_adopted_under_the_sweep(
            self, fig1_model):
        """``Tracer.adopt`` end to end: each worker process records its
        shard's spans and the parent grafts them under ``sweep.total``."""
        grids = {"C1": np.linspace(0.5e-12, 5e-12, 8)}
        with obs_trace.tracing() as tracer:
            sweep_with(fig1_model.model, grids, metrics.dc_gain, "process",
                       shards=2)
        spans = tracer.snapshot()
        by_id = {span["span_id"]: span for span in spans}
        adopted = [span for span in spans
                   if span["name"] == "sweep.shard" and span["tid"] < 0]
        assert adopted  # synthetic lanes: recorded in another process
        for shard in adopted:
            assert shard["attrs"]["pid"] not in (None, os.getpid())
            parent, chain = shard["parent_id"], []
            while parent is not None:
                chain.append(by_id[parent]["name"])
                parent = by_id[parent]["parent_id"]
            assert chain[-1] == "sweep.total"

    def test_serialized_model_process_sweep(self, fig1_model, tmp_path):
        """A model loaded from its saved tape sweeps identically on the
        process backend (the spec is built from the reloaded program)."""
        from repro.core.compiled_model import TapeModel
        from repro.symbolic.tape import load_tape
        path = tmp_path / "fig1.tape"
        fig1_model.model.tape.save(path)
        loaded = TapeModel(load_tape(path))
        grids = {"C1": np.linspace(0.5e-12, 5e-12, 6),
                 "C2": np.linspace(0.1e-12, 3e-12, 6)}
        base = loaded.sweep(grids, metrics.dominant_pole_hz, shards=2,
                            max_workers=2, backend="serial")
        other = loaded.sweep(grids, metrics.dominant_pole_hz, shards=2,
                             max_workers=2, backend="process")
        assert_array_equal(np.asarray(base), np.asarray(other))


class TestResolution:
    def test_backend_names(self):
        assert BACKENDS == ("auto", "serial", "thread", "process")

    def test_auto_resolution(self):
        assert resolve_backend(None, 1) == "serial"
        assert resolve_backend("auto", 1) == "serial"
        assert resolve_backend(None, 4) == "thread"
        assert resolve_backend("thread", 1) == "serial"
        assert resolve_backend("thread", 2) == "thread"
        assert resolve_backend("process", 1) == "process"
        assert resolve_backend("serial", 8) == "serial"

    def test_unknown_backend_rejected(self):
        for name in ("gpu", "native"):
            with pytest.raises(ApproximationError,
                               match="unknown sweep backend"):
                resolve_backend(name, 4)

    def test_workers_default_follows_shards(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.batched.available_cpus",
                            lambda: 8)
        n_shards, workers = _resolve_sharding(1000, 4, None)
        assert (n_shards, workers) == (4, 4)
        # capped by the CPUs the process may run on
        monkeypatch.setattr("repro.runtime.batched.available_cpus",
                            lambda: 2)
        n_shards, workers = _resolve_sharding(1000, 6, None)
        assert (n_shards, workers) == (6, 2)
        # explicit worker count still wins
        n_shards, workers = _resolve_sharding(1000, 6, 3)
        assert (n_shards, workers) == (6, 3)
        # unsharded sweeps stay serial
        n_shards, workers = _resolve_sharding(1000, None, None)
        assert (n_shards, workers) == (1, 1)

    def test_cpu_count_follows_the_affinity_mask(self, monkeypatch):
        """``taskset``/cpusets cap the default shard workers;
        ``os.cpu_count()`` only stands in where the OS has no affinity
        mask."""
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7},
                            raising=False)
        assert _resolve_sharding(1000, 8, None) == (8, 3)
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _resolve_sharding(1000, 8, None) == (8, 8)

    def test_serial_backend_forces_one_worker(self, fig1_model):
        grids = {"C1": np.linspace(0.5e-12, 5e-12, 6)}
        _, stats = sweep_with(fig1_model.model, grids, metrics.dc_gain,
                              "serial", max_workers=4)
        assert stats.workers == 1
        assert stats.backend == "serial"

    def test_backend_in_stats_dict(self, fig1_model):
        grids = {"C1": np.linspace(0.5e-12, 5e-12, 6)}
        _, stats = sweep_with(fig1_model.model, grids, metrics.dc_gain,
                              "process", shards=2)
        payload = stats.to_dict()
        assert payload["backend"] == "process"
        assert isinstance(payload["spawn_seconds"], float)
        assert isinstance(payload["worker_busy"], dict)
        back = RuntimeStats.from_dict(payload)
        assert back == stats
