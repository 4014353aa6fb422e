"""Chaos suite for the serving layer.

The contract under test (`docs/serving.md`): under injected faults the
service never crashes — **every** request resolves as a success, an
explicit *degraded* success, or a typed rejection — and a
deadline-exceeded batch stops consuming CPU within one shard-chunk.

All tests run real asyncio pipelines via ``asyncio.run()`` (the
container has no pytest-asyncio) against the paper's Figure-1 circuit,
with faults injected at the named sites in
:mod:`repro.testing.faults`.  The compiled program is shared through
one module-level :class:`~repro.runtime.ProgramCache`, so only the
first test pays the symbolic compile.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading

import pytest

from repro.circuits.library import fig1_circuit
from repro.errors import ReproError
from repro.obs.recorder import DUMP_DIR_ENV
from repro.runtime import ProgramCache
from repro.service import (AWEService, BreakerConfig, BulkheadFull,
                           DeadlineExceeded, Draining, EvalRequest,
                           InvalidRequest, ModelRegistry, QuotaExceeded,
                           ServiceConfig, ServiceRejection, ShedError,
                           UnknownModel)
from repro.service.policies import CLOSED, OPEN
from repro.testing import FaultInjector, InjectedFault

#: one compile for the whole module — every service below shares it
CACHE = ProgramCache()

FAST_BREAKER = BreakerConfig(failure_threshold=0.5, window=4, min_samples=2,
                             cooldown_s=5.0, half_open_probes=1)


def make_service(clock=None, cache: ProgramCache | None = None,
                 **overrides) -> AWEService:
    config = ServiceConfig(**{**dict(breaker=FAST_BREAKER), **overrides})
    kwargs = {} if clock is None else {"clock": clock}
    registry = ModelRegistry(cache=cache if cache is not None else CACHE,
                             breaker_config=config.breaker, **kwargs)
    registry.register("fig1", fig1_circuit(), "out",
                      symbols=["G1", "C2"], order=2)
    return AWEService(config, registry=registry, **kwargs)


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestHappyPath:
    def test_eval_resolves_with_full_order(self):
        async def scenario():
            service = make_service()
            try:
                resp = await service.handle_eval({"model": "fig1"})
            finally:
                await service.drain()
            return resp

        resp = asyncio.run(scenario())
        assert math.isfinite(resp["value"])
        assert resp["degraded"] is False
        assert resp["rung"] == "nominal"
        assert resp["order"] == 2

    def test_unknown_model_is_typed(self):
        async def scenario():
            service = make_service()
            try:
                with pytest.raises(UnknownModel):
                    await service.handle_eval({"model": "nope"})
            finally:
                await service.drain()

        asyncio.run(scenario())

    def test_coalescing_matches_solo_answers(self):
        """Batched (paired-column) answers == one-at-a-time answers."""
        g1_values = [0.5, 1.0, 2.0, 3.0, 4.0]
        metric = "dominant_pole_hz"  # G1-sensitive (dc gain is not)

        async def scenario():
            service = make_service(max_batch=len(g1_values))
            try:
                batched = await asyncio.gather(*[
                    service.handle_eval({"model": "fig1", "metric": metric,
                                         "values": {"G1": g}})
                    for g in g1_values])
                solo = [await service.handle_eval(
                    {"model": "fig1", "metric": metric, "values": {"G1": g}})
                    for g in g1_values]
            finally:
                await service.drain()
            return batched, solo

        batched, solo = asyncio.run(scenario())
        assert max(r["batch_size"] for r in batched) > 1
        for b, s in zip(batched, solo):
            assert b["value"] == pytest.approx(s["value"], rel=1e-12)
        # distinct G1 must give distinct answers (not one smeared batch)
        assert len({round(r["value"], 9) for r in batched}) == len(g1_values)


class TestConfiguration:
    @pytest.mark.parametrize("backend", ["gpu", "native"])
    def test_unknown_backend_fails_at_construction(self, backend):
        """The service runs every batch serially on its event loop and
        has no sweep backend to choose: naming one fails when the
        configuration is built, not at every batch, where the breaker
        would soon turn the failures into degraded answers."""
        with pytest.raises(TypeError, match="backend"):
            make_service(backend=backend)


class TestInvalidRequests:
    """The batch-poisoning regression: an unvalidated metric or element
    name used to raise inside the shared batch task *before* any
    rejection path, stranding every member future and leaking their
    admission + bulkhead slots forever."""

    def test_unknown_metric_is_typed_and_leaks_no_slots(self):
        async def scenario():
            # tiny budgets: a few leaked slots would brick the service
            service = make_service(max_inflight=2, max_queue=0)
            try:
                for _ in range(5):
                    with pytest.raises(InvalidRequest):
                        await service.handle_eval(
                            {"model": "fig1", "metric": "no_such_metric"})
                assert service.admission.inflight == 0
                after = await service.handle_eval({"model": "fig1"})
            finally:
                await service.drain()
            return after

        after = asyncio.run(scenario())
        assert math.isfinite(after["value"])

    def test_unknown_element_spares_batch_neighbours(self):
        """Bad request coalesced with a good one: the bad one gets its
        typed 400 at the front door, the good one still resolves."""
        async def scenario():
            service = make_service(max_batch=2)
            try:
                results = await asyncio.gather(
                    service.handle_eval({"model": "fig1",
                                         "values": {"NOPE": 1.0}}),
                    service.handle_eval({"model": "fig1",
                                         "values": {"G1": 1.0}}),
                    return_exceptions=True)
            finally:
                await service.drain()
            return results

        bad, good = asyncio.run(scenario())
        assert isinstance(bad, InvalidRequest)
        assert isinstance(good, dict) and math.isfinite(good["value"])

    @pytest.mark.parametrize("payload", [
        {"model": "fig1", "order": 0},
        {"model": "fig1", "order": 99},
        {"model": "fig1", "order": "lots"},
        {"model": "fig1", "values": {"G1": "tall"}},
        {"model": "fig1", "values": {"G1": None}},
        {"model": "fig1", "timeout_s": "soon"},
    ])
    def test_malformed_payloads_are_typed(self, payload):
        async def scenario():
            service = make_service()
            try:
                with pytest.raises(InvalidRequest):
                    await service.handle_eval(payload)
            finally:
                await service.drain()

        asyncio.run(scenario())

    def test_batch_internal_error_rejects_instead_of_stranding(
            self, tmp_path, monkeypatch):
        """Defense in depth: even a request poisoned *past* the front
        door (submitted straight to the coalescer) must reject every
        member future, never kill the batch task and strand them.  The
        coalescer's flight-recorder dump lands in ``tmp_path``, not in
        the system temp dir."""
        monkeypatch.setenv(DUMP_DIR_ENV, str(tmp_path))

        async def scenario():
            service = make_service()
            try:
                entry = await service.registry.ensure("fig1")
                poisoned = EvalRequest(entry=entry, metric="no_such_metric",
                                       order=2, values={}, deadline=None)
                fut = service.coalescer.submit(poisoned)
                with pytest.raises(Exception):
                    # a stranded future would hang; wait_for guards it
                    await asyncio.wait_for(fut, timeout=10.0)
            finally:
                await service.drain()

        asyncio.run(scenario())
        reasons = [json.loads(path.read_text().splitlines()[0])["reason"]
                   for path in tmp_path.glob("flightrec-*.jsonl")]
        assert reasons.count("batch-internal-error") == 1


class TestTenantState:
    def test_tenant_state_is_lru_bounded(self):
        async def scenario():
            service = make_service(max_tenants=4)
            try:
                for i in range(12):
                    await service.handle_eval({"model": "fig1",
                                               "tenant": f"t{i}"})
                return dict(service._tenants)
            finally:
                await service.drain()

        tenants = asyncio.run(scenario())
        assert len(tenants) <= 4
        assert "t0" not in tenants   # oldest idle entries evicted …
        assert "t11" in tenants      # … newest kept


class TestAdmissionUnderLoad:
    def test_shed_is_typed_and_bounded(self):
        """A burst over both budgets sheds the excess, crashes nothing."""
        async def scenario():
            service = make_service(max_inflight=2, max_queue=1,
                                   max_batch=4)
            injector = FaultInjector()
            injector.sleeps("sweep.shard", 0.05, times=None)
            try:
                with injector.armed():
                    results = await asyncio.gather(
                        *[service.handle_eval({"model": "fig1"})
                          for _ in range(10)],
                        return_exceptions=True)
            finally:
                await service.drain()
            return results

        results = asyncio.run(scenario())
        assert len(results) == 10
        served = [r for r in results if isinstance(r, dict)]
        shed = [r for r in results if isinstance(r, ShedError)]
        # everything resolved as success or typed rejection
        assert len(served) + len(shed) == 10
        assert served and shed

    def test_tenant_quota_is_typed(self):
        async def scenario():
            service = make_service(tenant_rate=0.0, tenant_burst=1.0)
            try:
                first = await service.handle_eval(
                    {"model": "fig1", "tenant": "t1"})
                with pytest.raises(QuotaExceeded):
                    await service.handle_eval(
                        {"model": "fig1", "tenant": "t1"})
                # another tenant has its own bucket
                other = await service.handle_eval(
                    {"model": "fig1", "tenant": "t2"})
            finally:
                await service.drain()
            return first, other

        first, other = asyncio.run(scenario())
        assert math.isfinite(first["value"])
        assert math.isfinite(other["value"])

    def test_bulkhead_caps_one_tenant(self):
        async def scenario():
            service = make_service(bulkhead_limit=1, max_batch=1)
            injector = FaultInjector()
            injector.sleeps("sweep.shard", 0.1, times=None)
            try:
                with injector.armed():
                    results = await asyncio.gather(
                        service.handle_eval({"model": "fig1",
                                             "tenant": "hog"}),
                        service.handle_eval({"model": "fig1",
                                             "tenant": "hog"}),
                        return_exceptions=True)
            finally:
                await service.drain()
            return results

        results = asyncio.run(scenario())
        served = [r for r in results if isinstance(r, dict)]
        capped = [r for r in results if isinstance(r, BulkheadFull)]
        assert len(served) == 1 and len(capped) == 1


class TestDeadlines:
    def test_expired_in_queue_is_rejected_before_eval(self):
        """Queue wait behind a batch that holds the loop ate the budget:
        typed rejection, zero CPU spent."""
        async def scenario():
            service = make_service(max_batch=8)
            await service.registry.ensure("fig1")
            injector = FaultInjector()
            chunks: list[int] = []
            injector.on("sweep.moments",
                        lambda p: chunks.append(p["offset"]), times=None)
            # the first batch stalls past the next request's deadline
            injector.sleeps("sweep.moments", 0.3, times=1)
            try:
                with injector.armed():
                    # one turn, two buckets: the dc_gain batch runs on
                    # the loop after the stalled dominant_pole_hz batch
                    results = await asyncio.gather(
                        service.handle_eval(
                            {"model": "fig1", "metric": "dominant_pole_hz"}),
                        service.handle_eval(
                            {"model": "fig1", "metric": "dc_gain",
                             "timeout_s": 0.005}),
                        return_exceptions=True)
            finally:
                await service.drain()
            return results, chunks

        (busy, expired), chunks = asyncio.run(scenario())
        assert isinstance(busy, dict) and math.isfinite(busy["value"])
        assert isinstance(expired, DeadlineExceeded)
        assert chunks == [0]  # the stalled batch's chunk; never evaluated

    def test_mid_batch_deadline_stops_within_one_chunk(self):
        """The acceptance criterion: once every member's deadline has
        passed, compute stops within one shard-chunk — the remaining
        chunks are never evaluated."""
        n = 4

        async def scenario():
            service = make_service(max_batch=n)
            service.coalescer.chunk_points = 1  # 1 request = 1 chunk
            injector = FaultInjector()
            chunks: list[int] = []
            injector.on("sweep.moments",
                        lambda p: chunks.append(p["offset"]), times=None)
            # the first chunk stalls past every member's deadline
            injector.sleeps("sweep.moments", 0.6, times=1)
            try:
                with injector.armed():
                    results = await asyncio.gather(
                        *[service.handle_eval(
                            {"model": "fig1", "timeout_s": 0.2,
                             "values": {"G1": 1.0 + i}})
                          for i in range(n)],
                        return_exceptions=True)
            finally:
                await service.drain()
            return results, chunks

        results, chunks = asyncio.run(scenario())
        # every member resolved, all with the typed deadline rejection
        assert all(isinstance(r, DeadlineExceeded) for r in results)
        # CPU stopped within one chunk: chunk 0 was in flight when the
        # deadline fired; chunks 1..3 were never evaluated
        assert len(chunks) < n

    def test_mixed_deadlines_keep_the_batch_alive(self):
        """A deadline-less member keeps the batch uncancellable; the
        expired member still gets its typed rejection afterwards."""
        async def scenario():
            service = make_service(max_batch=2)
            injector = FaultInjector()
            injector.sleeps("sweep.shard", 0.15, times=None)
            try:
                with injector.armed():
                    results = await asyncio.gather(
                        service.handle_eval({"model": "fig1",
                                             "timeout_s": 0.05}),
                        service.handle_eval({"model": "fig1",
                                             "timeout_s": 30.0}),
                        return_exceptions=True)
            finally:
                await service.drain()
            return results

        expired, patient = asyncio.run(scenario())
        assert isinstance(expired, DeadlineExceeded)
        assert isinstance(patient, dict) and math.isfinite(patient["value"])


class TestBreakerAndDegradation:
    def test_breaker_opens_then_serves_degraded(self):
        """Persistent shard faults trip the per-model breaker; the
        service answers with the order-1 ROM, flagged and toleranced."""
        async def scenario():
            clock = FakeClock()
            service = make_service(clock=clock)
            injector = FaultInjector()
            injector.raises("sweep.shard", times=None)
            try:
                healthy = await service.handle_eval({"model": "fig1"})
                entry = await service.registry.ensure("fig1")
                with injector.armed():
                    # the batch drains to NaN -> a resolved (not crashed)
                    # NaN answer, and the breaker records the failure;
                    # with the healthy outcome the window is [ok, fail]
                    # = 50%, which trips FAST_BREAKER
                    sick = await service.handle_eval({"model": "fig1"})
                    state_after = entry.breaker.state
                    degraded = await service.handle_eval({"model": "fig1"})
            finally:
                await service.drain()
            return healthy, sick, state_after, degraded, service

        healthy, sick, state, degraded, service = asyncio.run(scenario())
        # the sick batch resolved (NaN value, never a crash)
        assert isinstance(sick, dict)
        assert math.isnan(sick["value"])
        assert state == OPEN
        # the degraded answer is explicit and within the loosest rung
        assert degraded["degraded"] is True
        assert degraded["rung"] == "degraded"
        assert degraded["order"] == 1
        assert degraded["rtol"] == service.ladder.degraded
        assert degraded["value"] == pytest.approx(
            healthy["value"], rel=service.ladder.degraded)

    def test_breaker_recloses_after_cooldown(self):
        async def scenario():
            clock = FakeClock()
            service = make_service(clock=clock)
            injector = FaultInjector()
            injector.raises("sweep.shard", times=None)
            try:
                entry = await service.registry.ensure("fig1")
                with injector.armed():
                    for _ in range(2):
                        await service.handle_eval({"model": "fig1"})
                assert entry.breaker.state == OPEN
                clock.advance(FAST_BREAKER.cooldown_s + 0.1)
                # faults gone: the half-open probe succeeds and closes
                probe = await service.handle_eval({"model": "fig1"})
                state = entry.breaker.state
            finally:
                await service.drain()
            return probe, state

        probe, state = asyncio.run(scenario())
        assert probe["degraded"] is False
        assert math.isfinite(probe["value"])
        assert state == CLOSED

    def test_breaker_open_without_degradation_is_typed(self):
        from repro.service import BreakerOpen

        async def scenario():
            clock = FakeClock()
            service = make_service(clock=clock, degrade=False)
            injector = FaultInjector()
            injector.raises("sweep.shard", times=None)
            try:
                with injector.armed():
                    for _ in range(2):
                        await service.handle_eval({"model": "fig1"})
                    with pytest.raises(BreakerOpen):
                        await service.handle_eval({"model": "fig1"})
            finally:
                await service.drain()

        asyncio.run(scenario())


class TestCompilePath:
    def test_single_flight_compile(self):
        """N concurrent requests for a cold model -> exactly 1 compile."""
        async def scenario():
            service = make_service(cache=ProgramCache())  # cold cache
            injector = FaultInjector()
            injector.on("service.compile", lambda p: None, times=None)
            try:
                with injector.armed():
                    results = await asyncio.gather(
                        *[service.handle_eval({"model": "fig1"})
                          for _ in range(5)])
            finally:
                await service.drain()
            return results, injector.fired("service.compile")

        results, compiles = asyncio.run(scenario())
        assert compiles == 1
        assert all(math.isfinite(r["value"]) for r in results)

    def test_compile_failure_clears_the_single_flight_slot(self):
        async def scenario():
            service = make_service(cache=ProgramCache())
            injector = FaultInjector()
            injector.raises("service.compile", times=1)
            try:
                with injector.armed():
                    with pytest.raises(InjectedFault):
                        await service.handle_eval({"model": "fig1"})
                    # next request retries the compile and succeeds
                    retry = await service.handle_eval({"model": "fig1"})
            finally:
                await service.drain()
            return retry

        retry = asyncio.run(scenario())
        assert math.isfinite(retry["value"])


class TestDrain:
    def test_drain_rejects_new_and_leaks_nothing(self):
        async def scenario():
            service = make_service()
            await service.handle_eval({"model": "fig1"})
            await service.drain()
            ready, report = service.readyz()
            with pytest.raises(Draining):
                await service.handle_eval({"model": "fig1"})
            return ready, report

        ready, report = asyncio.run(scenario())
        assert ready is False
        assert report["checks"]["lifecycle"] == "draining"
        # the service's executor threads are gone
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("repro-serve")]

    def test_drain_is_idempotent(self):
        async def scenario():
            service = make_service()
            await service.drain()
            await service.drain()
            await service.wait_drained()

        asyncio.run(scenario())


class TestContractUnderStorm:
    def test_fault_storm_never_crashes(self):
        """The headline guarantee: mixed faults + load -> every single
        request resolves as success, degraded success, or a typed
        rejection; nothing raises anything else, nothing hangs."""
        async def scenario():
            service = make_service(max_inflight=4, max_queue=2,
                                   tenant_rate=1000.0, tenant_burst=20.0,
                                   max_batch=4)
            injector = FaultInjector()
            injector.raises("sweep.shard", times=3)
            injector.sleeps("sweep.shard", 0.05, times=3)
            injector.raises("pade.hankel", times=2)
            try:
                with injector.armed():
                    results = await asyncio.gather(
                        *[service.handle_eval(
                            {"model": "fig1",
                             "timeout_s": 0.5 if i % 3 else 0.02,
                             "values": {"G1": 0.5 + i % 5}})
                          for i in range(16)],
                        return_exceptions=True)
            finally:
                await service.drain()
            return results

        results = asyncio.run(scenario())
        assert len(results) == 16
        for r in results:
            assert isinstance(r, (dict, ServiceRejection, ReproError)), \
                f"untyped escape: {r!r}"
