"""The fixed costs a served request pays on top of its sweep.

Four properties of the serving hot path (`docs/serving.md`):

* the coalescer flushes a bucket at the end of the current loop turn,
  so a lone request waits for nothing and requests of one turn share
  one batch;
* served batches and degraded answers are computed on the event loop's
  thread, with no executor round trip;
* the registry keys a model once, at registration, from a private
  snapshot of its circuit, so no request hashes the circuit and editing
  the caller's circuit afterwards changes nothing served until the name
  is registered again;
* every request served at full order leaves a five-phase ledger
  (``repro_serve_phase_seconds_<phase>``) that sums to its latency.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.circuits.library import fig1_circuit
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime import ProgramCache
from repro.runtime import cache as runtime_cache
from repro.service import AWEService, ModelRegistry, ServiceConfig
from repro.service.policies import OPEN
from repro.service.server import PHASES
from repro.testing import FaultInjector

#: one compile per circuit for the whole module
CACHE = ProgramCache()

#: a quota that never binds: these tests send many sequential requests
UNBOUND_QUOTA = dict(tenant_rate=1e9, tenant_burst=1e9)


def make_service(circuit=None, **overrides) -> AWEService:
    config = ServiceConfig(**{**UNBOUND_QUOTA, **overrides})
    registry = ModelRegistry(cache=CACHE, breaker_config=config.breaker)
    registry.register("fig1", circuit if circuit is not None
                      else fig1_circuit(), "out",
                      symbols=["G1", "C2"], order=2)
    return AWEService(config, registry=registry)


def pole_request(g1: float = 1.0, **extra) -> dict:
    return {"model": "fig1", "metric": "dominant_pole_hz",
            "values": {"G1": g1}, **extra}


def recording_threads(site: str) -> tuple[FaultInjector, list]:
    """An injector that records the thread each ``site`` fires on."""
    threads: list[int] = []
    injector = FaultInjector()
    injector.on(site, lambda p: threads.append(threading.get_ident()),
                times=None)
    return injector, threads


class TestFlushWhenIdle:
    def test_lone_request_on_idle_service_waits_for_nothing(self):
        async def scenario():
            service = make_service()
            try:
                await service.registry.ensure("fig1")
                t0 = time.perf_counter()
                resp = await service.handle_eval(pole_request())
                return resp, time.perf_counter() - t0
            finally:
                await service.drain()

        resp, wall = asyncio.run(scenario())
        assert resp["batch_size"] == 1
        assert resp["queue_s"] < 0.05
        assert wall < 0.25

    def test_same_turn_requests_share_one_batch(self):
        async def scenario():
            service = make_service()
            try:
                await service.registry.ensure("fig1")
                return await asyncio.gather(
                    *[service.handle_eval(pole_request(1.0 + i))
                      for i in range(3)])
            finally:
                await service.drain()

        responses = asyncio.run(scenario())
        assert [r["batch_size"] for r in responses] == [3, 3, 3]
        assert all(r["queue_s"] < 0.05 for r in responses)


class TestColdBurst:
    def test_compile_followers_join_the_winners_batch(self):
        """Requests that waited for one cold compile wake in one loop
        turn and share one batch; cancelling one of them leaves the
        compile and the others alone."""
        async def scenario():
            service = make_service()
            injector = FaultInjector().sleeps("service.compile", 0.2)
            try:
                with injector.armed():
                    tasks = [asyncio.ensure_future(
                        service.handle_eval(pole_request(1.0 + i)))
                        for i in range(4)]
                    await asyncio.sleep(0.05)  # all four are waiting
                    tasks[2].cancel()
                    results = await asyncio.gather(*tasks,
                                                   return_exceptions=True)
                return results, injector.fired("service.compile")
            finally:
                await service.drain()

        results, compiles = asyncio.run(scenario())
        assert compiles == 1
        assert isinstance(results[2], asyncio.CancelledError)
        served = [r for i, r in enumerate(results) if i != 2]
        assert [r["batch_size"] for r in served] == [3, 3, 3]
        assert all(r["queue_s"] < 0.05 for r in served)


class TestOnTheLoop:
    def test_batches_and_degraded_answers_run_on_the_loop_thread(self):
        """No executor hop: a served batch's chunk and an order-1
        degraded answer are both computed on the event loop's thread."""
        batch_hook, batch_threads = recording_threads("sweep.moments")
        degraded_hook, degraded_threads = recording_threads("pade.fast")

        async def scenario():
            service = make_service()
            try:
                entry = await service.registry.ensure("fig1")
                with batch_hook.armed():
                    served = await service.handle_eval(pole_request())
                for _ in range(entry.breaker.config.min_samples):
                    entry.breaker.record(False)
                assert entry.breaker.state == OPEN
                with degraded_hook.armed():
                    degraded = await service.handle_eval(pole_request())
                return threading.get_ident(), served, degraded
            finally:
                await service.drain()

        loop_thread, served, degraded = asyncio.run(scenario())
        assert served["degraded"] is False
        assert degraded["degraded"] is True and degraded["order"] == 1
        assert batch_threads and set(batch_threads) == {loop_thread}
        assert degraded_threads and set(degraded_threads) == {loop_thread}


class TestKeyedOnce:
    def test_warm_requests_and_describe_never_hash_the_circuit(
            self, monkeypatch):
        calls = []
        real = runtime_cache.circuit_fingerprint

        def counting(circuit):
            calls.append(circuit)
            return real(circuit)

        async def scenario():
            service = make_service()
            try:
                await service.handle_eval(pole_request())  # warm
                monkeypatch.setattr(runtime_cache, "circuit_fingerprint",
                                    counting)
                for i in range(50):
                    await service.handle_eval(pole_request(1.0 + i / 50))
                service.registry.describe()
            finally:
                await service.drain()

        asyncio.run(scenario())
        assert calls == []

    def test_registration_is_a_snapshot(self):
        def served(service) -> float:
            async def scenario():
                try:
                    return (await service.handle_eval(pole_request()))[
                        "value"]
                finally:
                    await service.drain()
            return asyncio.run(scenario())

        edited = fig1_circuit()
        edited.replace_value("C1", 3.0)  # not a symbol of the model
        want_original = served(make_service())
        want_edited = served(make_service(edited))
        assert want_edited != want_original

        circuit = fig1_circuit()
        service = make_service(circuit)
        circuit.replace_value("C1", 3.0)  # before the first (cold) compile
        assert served(service) == want_original

        # registering the name again takes a new snapshot
        service = make_service(circuit)
        assert served(service) == want_edited


class TestPhaseLedger:
    N = 20

    def test_phases_partition_each_request_latency(self):
        reg = obs_metrics.MetricsRegistry()
        previous = obs_metrics.set_registry(reg)

        def histograms():
            latency = reg.histogram("repro_serve_latency_seconds")
            phases = [reg.histogram(f"repro_serve_phase_seconds_{p}")
                      for p in PHASES]
            return ((latency.count, latency.sum),
                    [(h.count, h.sum, h.vmin) for h in phases])

        async def scenario():
            service = make_service()
            try:
                await service.handle_eval(pole_request())  # warm
                before = histograms()
                for i in range(self.N):
                    await service.handle_eval(pole_request(1.0 + i))
                return before, histograms()
            finally:
                await service.drain()

        try:
            before, after = asyncio.run(scenario())
        finally:
            obs_metrics.set_registry(previous)
        (count0, latency0), phases0 = before
        (count1, latency1), phases1 = after
        assert count1 - count0 == self.N
        phase_sum = 0.0
        for (c0, s0, _), (c1, s1, vmin) in zip(phases0, phases1):
            assert c1 - c0 == self.N
            assert vmin >= 0.0
            phase_sum += s1 - s0
        assert phase_sum == pytest.approx(latency1 - latency0, rel=1e-9)

    def test_traced_request_span_carries_the_phases(self):
        async def scenario():
            service = make_service()
            try:
                await service.registry.ensure("fig1")
                return await service.handle_eval(pole_request())
            finally:
                await service.drain()

        with obs_trace.tracing() as tracer:
            asyncio.run(scenario())
        (span,) = [s for s in tracer.snapshot()
                   if s["name"] == "serve.request"]
        phases = [span["attrs"][f"phase_{p}_s"] for p in PHASES]
        assert all(seconds >= 0.0 for seconds in phases)
        assert sum(phases) > 0.0
