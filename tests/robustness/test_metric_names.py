"""Metric names from outside resolve only to metrics.

A metric named by a request, a CLI flag or a scenario resolves through
one table, :data:`repro.core.metrics.METRICS`.  Other public names of
that module — the batched crossing routine, classes, the resolver
itself — used to pass validation, then fail inside every shard: NaN
answers, shard retries, and finally an open breaker.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.circuits.library import fig1_circuit
from repro.cli import main
from repro.core import metrics
from repro.core.awesymbolic import awesymbolic
from repro.core.serialize import model_to_json
from repro.errors import ApproximationError
from repro.obs import metrics as obs_metrics
from repro.runtime import ProgramCache
from repro.service import (AWEService, BreakerConfig, InvalidRequest,
                           ModelRegistry, ServiceConfig)
from repro.service.policies import CLOSED

#: module attributes that are callables but not one-argument metrics
NOT_METRICS = ["gain_crossings", "ReducedOrderModel", "ApproximationError",
               "resolve_metric", "_transfer", "group_delay"]

CACHE = ProgramCache()


def make_service() -> AWEService:
    breaker = BreakerConfig(failure_threshold=0.5, window=4, min_samples=2,
                            cooldown_s=5.0, half_open_probes=1)
    config = ServiceConfig(breaker=breaker)
    registry = ModelRegistry(cache=CACHE, breaker_config=breaker)
    registry.register("fig1", fig1_circuit(), "out",
                      symbols=["G1", "C2"], order=2)
    return AWEService(config, registry=registry)


def test_table_holds_the_one_argument_metrics():
    assert list(metrics.METRICS) == [
        "dc_gain", "dominant_pole_hz", "unity_gain_frequency",
        "phase_margin", "bandwidth_3db", "gain_bandwidth_product",
        "overshoot", "settling_time"]
    for name, fn in metrics.METRICS.items():
        assert metrics.resolve_metric(name) is fn is getattr(metrics, name)


@pytest.mark.parametrize("name", NOT_METRICS)
def test_other_names_are_unknown(name):
    with pytest.raises(ApproximationError, match="unknown metric"):
        metrics.resolve_metric(name)


def test_callables_pass_through():
    assert metrics.resolve_metric(metrics.gain_crossings) \
        is metrics.gain_crossings


@pytest.mark.parametrize("name", NOT_METRICS)
def test_service_rejects_as_invalid_request(name):
    async def scenario():
        service = make_service()
        try:
            with pytest.raises(InvalidRequest, match="unknown metric"):
                await service.handle_eval({"model": "fig1", "metric": name})
        finally:
            await service.drain()

    asyncio.run(scenario())


def test_rejected_names_leave_breaker_closed_and_retry_nothing():
    retries = obs_metrics.registry().counter("repro_shard_retries_total")

    async def scenario():
        service = make_service()
        try:
            before = retries.value
            for _ in range(5):
                with pytest.raises(InvalidRequest):
                    await service.handle_eval(
                        {"model": "fig1", "metric": "gain_crossings"})
            entry = await service.registry.ensure("fig1")
            state = entry.breaker.state
            after_retries = retries.value
            good = await service.handle_eval(
                {"model": "fig1", "metric": "dc_gain"})
        finally:
            await service.drain()
        return before, after_retries, state, good

    before, after, state, good = asyncio.run(scenario())
    assert after == before
    assert state == CLOSED
    assert good["order"] == 2 and not good.get("degraded", False)


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    res = awesymbolic(fig1_circuit(), "out", symbols=["C1", "C2"], order=2)
    path = tmp_path_factory.mktemp("model") / "model.json"
    path.write_text(model_to_json(res))
    return path


@pytest.mark.parametrize("name", ["_transfer", "ReducedOrderModel",
                                  "gain_crossings"])
@pytest.mark.parametrize("command", ["evaluate", "doctor"])
def test_cli_sweep_rejects_non_metric(saved_model, capsys, command, name):
    rc = main([command, str(saved_model), "--sweep", "C1=0.5:5:4",
               "--metric", name])
    assert rc == 1
    assert "unknown metric" in capsys.readouterr().err


def test_cli_error_lists_the_metrics(saved_model, capsys):
    main(["evaluate", str(saved_model), "--sweep", "C1=0.5:5:4",
          "--metric", "nope"])
    err = capsys.readouterr().err
    assert all(name in err for name in metrics.METRICS), err
