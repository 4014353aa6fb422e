"""End-to-end request observability through the serving pipeline.

The acceptance path for the tracing layer: a single traced
``POST /v1/eval`` against a live socket must produce one connected span
tree — HTTP front → serve.request → serve.batch → sweep.total → kernel
stages — exportable as valid Chrome trace JSON.  (The cross-process
half, worker spans adopted under their sweep, is tested on a process
sweep in ``tests/runtime/test_backends.py``.)  Plus: ``traceparent``
continuation/echo, the flight recorder debug endpoint, the extended
``/metrics`` exposition, trace well-formedness under concurrent
multi-tenant fault-injected load, and the overhead guard-rails that let
the recorder stay always-on.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time

from repro.circuits.library import fig1_circuit
from repro.obs import context as obs_context
from repro.obs import recorder as obs_recorder
from repro.obs import trace as obs_trace
from repro.obs.export import chrome_trace_events
from repro.runtime import ProgramCache
from repro.service import AWEService, ModelRegistry, ServiceConfig
from repro.service.errors import ServiceRejection
from repro.testing.faults import FaultInjector

CACHE = ProgramCache()


def make_service(**overrides) -> AWEService:
    config = ServiceConfig(**{**dict(port=0), **overrides})
    registry = ModelRegistry(cache=CACHE)
    registry.register("fig1", fig1_circuit(), "out",
                      symbols=["G1", "C2"], order=2)
    return AWEService(config, registry=registry)


async def raw_roundtrip(port: int, payload: bytes,
                        timeout: float = 30.0) -> bytes:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(payload)
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        return await asyncio.wait_for(reader.read(), timeout=timeout)
    finally:
        writer.close()


def post_eval(body: dict, headers: dict | None = None) -> bytes:
    raw = json.dumps(body).encode()
    lines = [b"POST /v1/eval HTTP/1.1",
             b"Content-Length: " + str(len(raw)).encode()]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}".encode())
    return b"\r\n".join(lines) + b"\r\n\r\n" + raw


def get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\n\r\n".encode()


def split_response(response: bytes) -> tuple[int, dict, bytes]:
    head, body = response.split(b"\r\n\r\n", 1)
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body


def assert_well_formed(spans: list[dict]) -> None:
    """Every span unique, every parent link resolvable."""
    ids = [s["span_id"] for s in spans]
    assert len(ids) == len(set(ids)), "duplicate span ids"
    known = set(ids)
    for span in spans:
        parent = span["parent_id"]
        assert parent is None or parent in known, \
            f"span {span['name']!r} has unresolvable parent {parent!r}"


def ancestry(spans: list[dict], span: dict) -> list[str]:
    by_id = {s["span_id"]: s for s in spans}
    chain, current = [], span
    while current is not None:
        chain.append(current["name"])
        parent = current["parent_id"]
        current = by_id.get(parent) if parent is not None else None
    return chain


class TestTracedEvalEndToEnd:
    """The acceptance criterion: one connected span tree."""

    TRACEPARENT = ("00-0af7651916cd43dd8448eb211c80319c-"
                   "b7ad6b7169203331-01")

    def test_http_to_sweep_span_tree(self, tmp_path):
        service = make_service()

        async def scenario():
            await service.start(install_signals=False)
            try:
                return await raw_roundtrip(
                    service.port,
                    post_eval({"model": "fig1", "tenant": "acme"},
                              {"traceparent": self.TRACEPARENT}))
            finally:
                await service.drain()

        with obs_trace.tracing() as tracer:
            response = asyncio.run(scenario())
        status, headers, body = split_response(response)
        assert status == 200
        assert json.loads(body)["degraded"] is False

        # -- the caller's trace continues and is echoed ---------------
        echoed = obs_context.parse_traceparent(headers["traceparent"])
        assert echoed is not None
        assert echoed.trace_id == "0af7651916cd43dd8448eb211c80319c"
        assert echoed.span_id != "b7ad6b7169203331"  # a fresh hop

        # -- one connected tree, front door to kernel stage -----------
        spans = tracer.snapshot()
        assert_well_formed(spans)
        by_name: dict[str, list[dict]] = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        for name in ("http.request", "serve.request", "serve.batch",
                     "sweep.total", "sweep.evaluate"):
            assert name in by_name, f"missing {name} span"

        # the batch's sweep stage walks all the way up to the front
        chain = ancestry(spans, by_name["sweep.evaluate"][0])
        assert chain[-1] == "http.request"
        assert (chain.index("sweep.total") < chain.index("serve.batch")
                < chain.index("serve.request"))

        # request identity is attached along the tree
        request = by_name["serve.request"][0]
        assert request["attrs"]["trace_id"] == echoed.trace_id
        assert request["attrs"]["tenant"] == "acme"
        batch = by_name["serve.batch"][0]
        assert echoed.trace_id in batch["attrs"]["member_traces"]

        # -- exports as valid Chrome trace JSON -----------------------
        events = chrome_trace_events(tracer)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"traceEvents": events}))
        loaded = json.loads(path.read_text())["traceEvents"]
        phases = {e["ph"] for e in loaded}
        assert {"B", "E", "b", "e"} <= phases  # sync + async flavors
        for ph in ("B", "b"):
            opens = sum(1 for e in loaded if e["ph"] == ph)
            closes = sum(1 for e in loaded
                         if e["ph"] == {"B": "E", "b": "e"}[ph])
            assert opens == closes

    def test_malformed_traceparent_starts_fresh_trace(self):
        service = make_service()

        async def scenario():
            await service.start(install_signals=False)
            try:
                return await raw_roundtrip(
                    service.port,
                    post_eval({"model": "fig1"},
                              {"traceparent": "zz-not-a-trace-00"}))
            finally:
                await service.drain()

        status, headers, _ = split_response(asyncio.run(scenario()))
        assert status == 200
        fresh = obs_context.parse_traceparent(headers["traceparent"])
        assert fresh is not None  # echoed and well-formed regardless

    def test_rejections_still_echo_traceparent(self):
        service = make_service()

        async def scenario():
            await service.start(install_signals=False)
            try:
                return await raw_roundtrip(
                    service.port,
                    post_eval({"model": "no-such-model"},
                              {"traceparent": self.TRACEPARENT}))
            finally:
                await service.drain()

        status, headers, _ = split_response(asyncio.run(scenario()))
        assert status == 404
        echoed = obs_context.parse_traceparent(headers["traceparent"])
        assert echoed is not None
        assert echoed.trace_id == "0af7651916cd43dd8448eb211c80319c"


class TestDebugAndMetricsEndpoints:
    def test_flightrec_endpoint_returns_ring_jsonl(self):
        previous = obs_recorder.set_recorder(
            obs_recorder.FlightRecorder(capacity=256))
        try:
            service = make_service()

            async def scenario():
                await service.start(install_signals=False)
                try:
                    await raw_roundtrip(service.port,
                                        post_eval({"model": "fig1"}))
                    return await raw_roundtrip(
                        service.port, get("/v1/debug/flightrec"))
                finally:
                    await service.drain()

            status, _, body = split_response(asyncio.run(scenario()))
        finally:
            obs_recorder.set_recorder(previous)
        assert status == 200
        lines = [json.loads(l) for l in
                 body.decode().strip().split("\n")]
        assert lines[0]["kind"] == "flightrec"
        assert lines[0]["reason"] == "endpoint"
        kinds = {e["kind"] for e in lines[1:]}
        assert "admit" in kinds  # the eval left its wake in the ring

    def test_metrics_exposes_policy_slo_and_build_series(self):
        service = make_service()

        async def scenario():
            await service.start(install_signals=False)
            try:
                await raw_roundtrip(
                    service.port,
                    post_eval({"model": "fig1", "tenant": "acme"}))
                return await raw_roundtrip(service.port, get("/metrics"))
            finally:
                await service.drain()

        status, headers, body = split_response(asyncio.run(scenario()))
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        text = body.decode()
        assert "repro_service_shed_total" in text
        assert "repro_service_admission_inflight" in text
        assert "repro_service_admission_capacity" in text
        assert 'repro_service_breaker_state{model="fig1"} 0' in text
        assert 'repro_service_bulkhead_active{tenant="acme"}' in text
        assert 'repro_service_tokens_available{tenant="acme"}' in text
        assert "repro_service_flightrec_events" in text
        assert 'repro_slo_latency_seconds_bucket{tenant="acme"' in text
        assert 'repro_slo_requests_total{tenant="acme",outcome="ok"}' \
            in text
        assert "repro_slo_burn_rate{" in text
        assert "repro_build_info{" in text

    def test_readyz_gates_on_fast_burn_when_configured(self):
        service = make_service(readyz_gate_on_burn=True)
        service.started = True
        ready, report = service.readyz()
        assert ready and "slo" in report["checks"]
        for _ in range(20):
            service.slo.observe("acme", "fig1", 0.01, "error")
        ready, report = service.readyz()
        assert not ready
        assert "fast burn" in report["checks"]["slo"]
        # the same burn is invisible without the opt-in gate
        ungated = make_service()
        ungated.started = True
        for _ in range(20):
            ungated.slo.observe("acme", "fig1", 0.01, "error")
        assert ungated.readyz()[0]


class TestConcurrentTraceWellFormedness:
    """Satellite (d): multi-tenant fault-injected storm, traces stay
    coherent — every span resolvable, no identity bleed across requests.
    """

    def test_storm_traces_are_well_formed(self):
        service = make_service(tenant_rate=10_000.0, tenant_burst=10_000.0)
        # first attempts of the first two batches fail; retries succeed
        injector = FaultInjector().raises(
            "sweep.shard", times=2,
            when=lambda payload: payload["attempt"] == 0)
        issued: dict[str, str] = {}  # trace_id -> tenant
        outcomes: list[str] = []

        async def one_request(i: int) -> None:
            tenant = f"tenant-{i % 3}"
            ctx = obs_context.new_context(tenant=tenant)
            issued[ctx.trace_id] = tenant
            with obs_context.use(ctx):
                try:
                    result = await service.handle_eval(
                        {"model": "fig1", "tenant": tenant,
                         "values": {"C2": 1e-12 * (1 + i)}})
                    outcomes.append("degraded" if result["degraded"]
                                    else "ok")
                except ServiceRejection as exc:
                    outcomes.append(f"rejected:{exc.code}")

        async def scenario() -> None:
            await asyncio.gather(*(one_request(i) for i in range(24)))
            await service.coalescer.drain()

        with obs_trace.tracing() as tracer:
            with injector.armed():
                asyncio.run(scenario())
        service.executor.shutdown(wait=True)

        assert len(outcomes) == 24  # every request resolved, no crash
        assert injector.fired("sweep.shard") > 0

        spans = tracer.snapshot()
        assert_well_formed(spans)
        requests = [s for s in spans if s["name"] == "serve.request"]
        assert len(requests) == 24
        # no cross-request leaks: each serve.request carries exactly the
        # identity its issuer bound, and no two share a trace
        seen = [s["attrs"]["trace_id"] for s in requests]
        assert len(set(seen)) == 24
        for span in requests:
            assert issued[span["attrs"]["trace_id"]] == \
                span["attrs"]["tenant"]
        # batch fan-in links point only at traces that exist
        for span in spans:
            if span["name"] == "serve.batch":
                assert set(span["attrs"]["member_traces"]) <= set(issued)
        json.dumps(chrome_trace_events(tracer))  # exportable

        # SLO accounting saw every resolution under its tenant
        snap = service.slo.snapshot()
        assert snap["totals"]["requests"] == 24
        assert set(snap["tenants"]) == {"tenant-0", "tenant-1",
                                        "tenant-2"}


class TestServingOverheadGuardRails:
    """Tracing off (the default) and the always-on recorder must cost
    within the repo's standing guard-rail on the serving hot path."""

    REL_TOL = 0.05
    ABS_SLACK_S = 0.030
    N_REQUESTS = 40

    def _serve_n(self, service) -> None:
        async def scenario():
            for i in range(self.N_REQUESTS):
                await service.handle_eval(
                    {"model": "fig1", "values": {"C2": 1e-12 * (1 + i)}})
            await service.coalescer.drain()

        asyncio.run(scenario())

    def test_untraced_serving_overhead_within_guard_rail(self, monkeypatch):
        assert not obs_trace.enabled()
        # 11 rounds of sequential requests from one tenant: a quota that
        # never binds, as in perfbench
        service = make_service(tenant_rate=1e9, tenant_burst=1e9)
        try:
            self._serve_n(service)  # warm: compile + cache before timing

            def timed(stubbed: bool) -> float:
                if stubbed:
                    # baseline: same pipeline with every obs touch point
                    # stubbed out
                    monkeypatch.setattr(obs_recorder, "record",
                                        lambda *a, **k: None)
                    monkeypatch.setattr(type(service.slo), "observe",
                                        lambda *a, **k: None)
                    monkeypatch.setattr(obs_context, "current",
                                        lambda: None)
                try:
                    t0 = time.perf_counter()
                    self._serve_n(service)
                    return time.perf_counter() - t0
                finally:
                    monkeypatch.undo()

            # interleaved rounds, alternating which side runs first, so a
            # slow moment of the host lands on both sides instead of one
            walls: dict[bool, list[float]] = {False: [], True: []}
            for i in range(5):
                for stubbed in ((False, True) if i % 2 == 0
                                else (True, False)):
                    walls[stubbed].append(timed(stubbed))
            measured = statistics.median(walls[False])
            baseline = statistics.median(walls[True])

            budget = baseline * (1 + self.REL_TOL) + self.ABS_SLACK_S
            assert measured <= budget, (
                f"serving with observability on took {measured:.4f}s vs "
                f"stubbed baseline {baseline:.4f}s (budget {budget:.4f}s)")
        finally:
            service.executor.shutdown(wait=True)
