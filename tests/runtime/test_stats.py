"""RuntimeStats accounting: stage timers, shard merge, reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import metrics
from repro.runtime import RuntimeStats


class TestStages:
    def test_stage_accumulates(self):
        stats = RuntimeStats()
        with stats.stage("evaluate"):
            pass
        first = stats.evaluate_seconds
        assert first >= 0.0
        with stats.stage("evaluate"):
            sum(range(1000))
        assert stats.evaluate_seconds > first

    def test_stage_records_on_exception(self):
        stats = RuntimeStats()
        with pytest.raises(RuntimeError):
            with stats.stage("pade"):
                raise RuntimeError("boom")
        assert stats.pade_seconds > 0.0

    def test_traced_stage_opens_a_span(self):
        from repro.obs import trace

        stats = RuntimeStats()
        with trace.tracing() as tracer:
            with stats.stage("health") as entered:
                assert entered is stats
        assert [s["name"] for s in tracer.snapshot()] == ["sweep.health"]
        assert stats.health_seconds > 0.0


class TestMerge:
    def test_counters_add_and_maxima_kept(self):
        total = RuntimeStats(points=10, vectorized_points=8,
                             fallback_points=2, workers=4, n_ops=100,
                             evaluate_seconds=1.0, total_seconds=5.0)
        shard = RuntimeStats(points=6, vectorized_points=6, workers=1,
                             n_ops=100, evaluate_seconds=0.5,
                             total_seconds=2.0)
        total.merge(shard)
        assert total.points == 16
        assert total.vectorized_points == 14
        assert total.fallback_points == 2
        assert total.evaluate_seconds == pytest.approx(1.5)
        # whole-sweep quantities keep the maximum, they don't add
        assert total.workers == 4
        assert total.n_ops == 100
        assert total.total_seconds == 5.0

    def test_merge_returns_self(self):
        stats = RuntimeStats()
        assert stats.merge(RuntimeStats()) is stats


class TestReporting:
    def test_points_per_second(self):
        assert RuntimeStats().points_per_second == 0.0
        stats = RuntimeStats(points=500, total_seconds=2.0)
        assert stats.points_per_second == pytest.approx(250.0)

    def test_summary_mentions_key_numbers(self):
        stats = RuntimeStats(points=42, vectorized_points=40,
                             fallback_points=2, nan_points=1, shards=3,
                             workers=2, n_ops=99, compile_seconds=0.25,
                             total_seconds=1.0)
        text = stats.summary()
        for token in ("42 points", "40 vectorized", "2 fallback", "1 NaN",
                      "3 shard", "2 worker", "99 ops", "compile", "columns",
                      "evaluate", "health", "pade", "metric", "finalize"):
            assert token in text, token


class TestDerived:
    def test_parallel_efficiency_zero_without_total(self):
        assert RuntimeStats().parallel_efficiency == 0.0

    def test_parallel_efficiency_serial(self):
        stats = RuntimeStats(workers=1, total_seconds=2.0,
                             evaluate_seconds=0.5, pade_seconds=0.3,
                             metric_seconds=0.2)
        assert stats.parallel_efficiency == pytest.approx(0.5)

    def test_parallel_efficiency_normalizes_by_workers(self):
        stats = RuntimeStats(workers=4, total_seconds=1.0,
                             evaluate_seconds=2.0)
        assert stats.parallel_efficiency == pytest.approx(0.5)

    def test_parallel_efficiency_counts_health_as_shard_work(self):
        stats = RuntimeStats(workers=1, total_seconds=2.0,
                             evaluate_seconds=0.5, health_seconds=0.5,
                             columns_seconds=0.5, finalize_seconds=0.5)
        assert stats.parallel_efficiency == pytest.approx(0.5)

    def test_parallel_efficiency_clamped_to_one(self):
        stats = RuntimeStats(workers=1, total_seconds=1.0,
                             evaluate_seconds=5.0)
        assert stats.parallel_efficiency == 1.0

    def test_summary_mentions_parallel_efficiency(self):
        stats = RuntimeStats(points=10, workers=2, total_seconds=1.0,
                             evaluate_seconds=1.0)
        assert "parallel efficiency" in stats.summary()


class TestSerialization:
    def test_to_dict_has_every_field_plus_derived(self):
        stats = RuntimeStats(points=7, total_seconds=2.0)
        d = stats.to_dict()
        from dataclasses import fields
        for f in fields(RuntimeStats):
            assert f.name in d
        assert d["points_per_second"] == pytest.approx(3.5)
        assert "parallel_efficiency" in d

    def test_round_trip(self):
        stats = RuntimeStats(points=256, vectorized_points=250,
                             fallback_points=6, nan_points=1,
                             quarantined_points=1, shards=4, workers=2,
                             n_ops=53, compile_seconds=0.01,
                             columns_seconds=0.005, evaluate_seconds=0.02,
                             health_seconds=0.006, pade_seconds=0.03,
                             metric_seconds=0.04, finalize_seconds=0.007,
                             total_seconds=0.1)
        back = RuntimeStats.from_dict(stats.to_dict())
        assert back == stats

    def test_to_dict_is_json_native(self):
        import json

        stats = RuntimeStats()
        stats.points += np.int64(5)  # shard bounds arrive as numpy ints
        payload = json.dumps(stats.to_dict())
        assert json.loads(payload)["points"] == 5
        assert type(json.loads(payload)["points"]) is int

    def test_from_dict_ignores_derived_and_unknown_keys(self):
        back = RuntimeStats.from_dict({"points": 3, "points_per_second": 99,
                                       "mystery": True})
        assert back.points == 3

    def test_publish_fills_registry(self):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        stats = RuntimeStats(points=100, vectorized_points=90,
                             fallback_points=10, workers=2,
                             total_seconds=1.0, evaluate_seconds=0.5)
        stats.publish(registry=reg)
        assert reg.get("repro_sweep_points_total").value == 100
        assert reg.get("repro_sweep_runs_total").value == 1
        for stage in ("columns", "evaluate", "health", "pade", "metric",
                      "finalize", "total"):
            assert reg.get(f"repro_sweep_{stage}_seconds").count == 1
        stats.publish(registry=reg)
        assert reg.get("repro_sweep_points_total").value == 200

    def test_publish_rebinds_after_reset(self):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        RuntimeStats(points=5).publish(registry=reg)
        reg.reset()
        RuntimeStats(points=7).publish(registry=reg)
        assert reg.get("repro_sweep_points_total").value == 7
        assert reg.get("repro_sweep_runs_total").value == 1

    def test_compile_cost_is_one_gauge_not_a_per_sweep_sample(
            self, fig1_model):
        """The model's one-time compile cost is published as a gauge of
        the swept model: three sweeps of one model read one compile."""
        from repro.obs import metrics as obs_metrics
        from repro.obs.export import prometheus_text

        reg = obs_metrics.MetricsRegistry()
        previous = obs_metrics.set_registry(reg)
        try:
            for _ in range(3):
                fig1_model.model.sweep(
                    {"C1": np.linspace(0.5e-12, 5e-12, 3)}, metrics.dc_gain)
        finally:
            obs_metrics.set_registry(previous)
        assert reg.get("repro_sweep_runs_total").value == 3
        assert reg.get("repro_sweep_total_seconds").count == 3
        assert reg.get("repro_sweep_compile_seconds") is None
        gauge = reg.get("repro_sweep_model_compile_seconds")
        assert gauge.value == fig1_model.model.compile_seconds
        lines = [line for line in prometheus_text(reg).splitlines()
                 if "compile_seconds" in line and not line.startswith("#")]
        assert len(lines) == 1


class TestFilledBySweep:
    def test_compile_and_evaluate_reported_separately(self, fig1_model):
        stats = RuntimeStats()
        grids = {"C1": np.linspace(0.5e-12, 5e-12, 9),
                 "C2": np.linspace(0.1e-12, 3e-12, 7)}
        fig1_model.model.sweep(grids, metrics.dominant_pole_hz, stats=stats)
        assert stats.points == 63
        assert stats.vectorized_points + stats.fallback_points == 63
        assert stats.compile_seconds > 0.0
        assert stats.evaluate_seconds > 0.0
        assert stats.total_seconds > 0.0
        assert stats.compile_seconds == fig1_model.model.compile_seconds
        assert stats.n_ops == fig1_model.model.n_ops
        assert stats.points_per_second > 0.0

    def test_shard_accounting(self, fig1_model):
        stats = RuntimeStats()
        grids = {"C1": np.linspace(0.5e-12, 5e-12, 10)}
        fig1_model.model.sweep(grids, metrics.dc_gain, shards=4,
                               max_workers=2, stats=stats)
        assert stats.shards == 4
        assert stats.workers == 2
        assert stats.points == 10

    def test_nan_points_counted(self, fig1_model):
        stats = RuntimeStats()
        grids = {"C1": np.linspace(0.5e-12, 5e-12, 6)}
        fig1_model.model.sweep(grids, metrics.unity_gain_frequency,
                               stats=stats)
        assert stats.nan_points == 6  # passive stage: |H| never reaches 1
