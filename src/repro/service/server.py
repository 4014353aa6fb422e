"""The AWE serving pipeline: admission → quota → bulkhead → breaker →
coalesced evaluation → typed response.

:class:`AWEService` composes the policy primitives
(:mod:`repro.service.policies`), the single-flight model registry
(:mod:`repro.service.registry`) and the request coalescer
(:mod:`repro.service.coalescer`) into one asyncio pipeline with a
defended front door.  The contract under load and injected faults:
**every** request resolves as a success, an explicit *degraded*
success, or a typed rejection — never a crash, never an unbounded wait.

Graceful degradation: when a model's circuit breaker is open, the
service does not go dark — it serves the **order-1 reduced-order
model** from the already-compiled program (two moments, closed-form,
numerically the most robust reduction) with ``degraded: true`` and the
tolerance ladder's loosest rung (see :class:`~repro.testing.
differential.ToleranceLadder`), so callers get a bounded-accuracy
answer plus an honest label instead of a 503.

Threads: batches and degraded answers are evaluated on the event
loop's thread (evaluation holds the GIL, so another thread would add a
round trip and no concurrency); only cold compiles run on the
service's small thread pool, so a compile never stalls the loop.

Lifecycle: SIGINT/SIGTERM flips the service into *draining* — ``/readyz``
goes 503, new requests get a typed ``draining`` rejection, in-flight
requests finish (bounded by ``drain_grace_s``), diagnostics and metrics
flush, the compile pool shuts down — then the loop exits cleanly.
"""

from __future__ import annotations

import asyncio
import dataclasses
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..buildinfo import publish_build_info
from ..obs import context as obs_context
from ..obs import metrics as _metrics
from ..obs import recorder as _recorder
from ..obs import trace as _trace
from ..obs.export import prometheus_text
from ..obs.slo import SLOConfig, SLOTracker
from ..runtime.resilience import DEFAULT_RESILIENCE
from ..testing.differential import ToleranceLadder
from .coalescer import Coalescer, EvalRequest
from .errors import (BreakerOpen, BulkheadFull, Draining, InvalidRequest,
                     QuotaExceeded, ServiceRejection, ShedError)
from .policies import (AdmissionController, BreakerConfig, Bulkhead,
                       RetryBudget, TokenBucket)
from .registry import ModelRegistry

__all__ = ["AWEService", "PHASES", "ServiceConfig"]

#: the consecutive phases of a request served at full order, published
#: as ``repro_serve_phase_seconds_<phase>``; they sum to its
#: ``repro_serve_latency_seconds`` observation
PHASES = ("admit", "lookup", "queue", "eval", "respond")


class _RequestInstruments:
    """The instruments :meth:`AWEService.handle_eval` updates, looked up
    once per registry (:meth:`~repro.obs.metrics.MetricsRegistry.bind`)."""

    __slots__ = ("requests", "ok", "latency", "phases")

    def __init__(self, reg) -> None:
        self.requests = reg.counter("repro_serve_requests_total",
                                    "eval requests")
        self.ok = reg.counter("repro_serve_requests_total_ok",
                              "requests served at full order")
        self.latency = reg.histogram("repro_serve_latency_seconds",
                                     "end-to-end request latency")
        self.phases = tuple(
            reg.histogram(f"repro_serve_phase_seconds_{phase}",
                          f"full-order request latency spent in {phase}")
            for phase in PHASES)


@dataclass
class ServiceConfig:
    """Tunables for one :class:`AWEService`."""

    host: str = "127.0.0.1"
    port: int = 8471
    # coalescing
    max_batch: int = 64
    # admission
    max_inflight: int = 64
    max_queue: int = 128
    # per-tenant quotas
    tenant_rate: float = 200.0       #: requests/second sustained
    tenant_burst: float = 50.0
    bulkhead_limit: int = 16         #: concurrent requests per tenant
    max_tenants: int = 1024          #: LRU cap on per-tenant state
    # shared retry budget (feeds ResilienceConfig.retry_budget)
    retry_rate: float = 2.0
    retry_burst: float = 10.0
    # deadlines
    default_deadline_s: float = 2.0
    max_deadline_s: float = 30.0
    # degradation + breaker
    degrade: bool = True             #: serve order-1 ROM when breaker opens
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    # lifecycle
    drain_grace_s: float = 10.0
    metrics_path: Path | None = None  #: Prometheus textfile on shutdown
    # compilation
    #: threads for cold compiles (``registry.ensure``) only; batches
    #: and degraded answers run on the event loop
    executor_workers: int = 4
    # observability
    slo: SLOConfig = field(default_factory=SLOConfig)
    #: when True, /readyz also goes unready while the fast-window SLO
    #: burn rate exceeds its threshold (the service is up but eating
    #: its error budget at page-worthy speed)
    readyz_gate_on_burn: bool = False
    flightrec_capacity: int = 2048
    flightrec_dir: Path | None = None  #: dump dir (else env / tempdir)


class AWEService:
    """The serving pipeline over a set of registered models.

    Args:
        config: tunables (defaults are sane for tests and small rigs).
        registry: model registry; a fresh one is built when omitted.
        clock: injectable monotonic clock shared with every policy
            object, so chaos tests can march time deterministically.
    """

    def __init__(self, config: ServiceConfig | None = None,
                 registry: ModelRegistry | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.config = config if config is not None else ServiceConfig()
        self._clock = clock
        self.registry = registry if registry is not None else ModelRegistry(
            breaker_config=self.config.breaker, clock=clock)
        self.executor = ThreadPoolExecutor(
            max_workers=self.config.executor_workers,
            thread_name_prefix="repro-serve")
        self.retry_budget = RetryBudget(self.config.retry_rate,
                                        self.config.retry_burst, clock=clock)
        self.resilience = dataclasses.replace(
            DEFAULT_RESILIENCE, retry_budget=self.retry_budget.spend)
        self.coalescer = Coalescer(
            max_batch=self.config.max_batch, resilience=self.resilience,
            clock=clock)
        self.admission = AdmissionController(self.config.max_inflight,
                                             self.config.max_queue)
        self.ladder = ToleranceLadder()
        self.slo = SLOTracker(self.config.slo, clock=clock)
        if (self.config.flightrec_capacity != _recorder.DEFAULT_CAPACITY
                or self.config.flightrec_dir is not None):
            _recorder.set_recorder(_recorder.FlightRecorder(
                self.config.flightrec_capacity,
                dump_dir=(str(self.config.flightrec_dir)
                          if self.config.flightrec_dir else None)))
        publish_build_info()
        #: tenant -> (quota bucket, bulkhead); insertion order is LRU
        self._tenants: dict[str, tuple[TokenBucket, Bulkhead]] = {}
        self.draining = False
        self.started = False
        self._drained = asyncio.Event()
        self._server: asyncio.AbstractServer | None = None

    # ------------------------------------------------------------------
    # the request pipeline
    # ------------------------------------------------------------------
    async def handle_eval(self, payload: dict) -> dict:
        """Serve one eval request end to end; returns the response body.

        ``payload`` keys: ``model`` (registered name, required),
        ``metric`` (name in :mod:`repro.core.metrics`, default
        ``dc_gain``), ``order`` (default: the model's compiled order),
        ``values`` (element overrides), ``timeout_s``, ``tenant``.

        Raises :class:`~repro.service.errors.ServiceRejection`
        subclasses for every typed refusal; the HTTP front maps them to
        status codes, in-process callers catch them directly.
        """
        m = _metrics.registry().bind(_RequestInstruments)
        m.requests.inc()
        t0 = self._clock()
        # admit, lookup, queue and eval seconds, filled at full order
        ledger: list[float] = []
        tenant = str(payload.get("tenant", "default"))
        ctx = obs_context.current()
        if ctx is None:  # in-process caller: start a fresh trace
            ctx = obs_context.new_context(tenant=tenant)
        tracer = _trace.current_tracer()
        span = None
        if tracer is not None:
            span = tracer.detached(
                "serve.request", ctx.local_parent,
                trace_id=ctx.trace_id, tenant=tenant,
                model=str(payload.get("model", ""))).start()
            ctx = ctx.with_parent(span.span_id)
        outcome = "error"
        try:
            with obs_context.use(ctx):
                if self.draining:
                    self._count_reject("draining")
                    raise Draining("service is draining")
                if not self.admission.try_admit():
                    self._count_reject("shed")
                    raise ShedError(
                        f"at capacity ({self.admission.max_inflight} "
                        f"inflight + {self.admission.max_queue} queued)")
                _recorder.record("admit", tenant=tenant,
                                 trace_id=ctx.trace_id,
                                 inflight=self.admission.inflight)
                try:
                    result = await self._admitted(payload, tenant, t0,
                                                  ledger)
                    outcome = ("degraded" if result.get("degraded")
                               else "ok")
                    return result
                finally:
                    self.admission.release()
        except ServiceRejection as exc:
            outcome = f"rejected:{exc.code}"
            raise
        finally:
            latency = self._clock() - t0
            m.latency.observe(latency)
            if ledger:  # served at full order
                m.ok.inc()
                ledger.append(max(0.0, latency - sum(ledger)))  # respond
                for histogram, seconds in zip(m.phases, ledger):
                    histogram.observe(seconds)
            self.slo.observe(tenant, str(payload.get("model", "")) or None,
                             latency, outcome, trace_id=ctx.trace_id)
            if span is not None:
                span.set(outcome=outcome,
                         **{f"phase_{phase}_s": seconds
                            for phase, seconds in zip(PHASES, ledger)})
                span.finish()

    async def _admitted(self, payload: dict, tenant: str, t0: float,
                        ledger: list[float]) -> dict:
        bucket, bulkhead = self._tenant_state(tenant)
        if not bucket.try_acquire():
            self._count_reject("quota")
            raise QuotaExceeded(f"tenant {tenant!r} rate quota exhausted")
        if not bulkhead.try_enter():
            self._count_reject("bulkhead_full")
            raise BulkheadFull(
                f"tenant {tenant!r} already has {bulkhead.limit} "
                f"requests in flight")
        try:
            return await self._evaluate(payload, tenant, t0, ledger)
        finally:
            bulkhead.exit()

    def _tenant_state(self, tenant: str) -> tuple[TokenBucket, Bulkhead]:
        """Per-tenant quota state, LRU-bounded at ``max_tenants``.

        Tenant names are client-controlled and unauthenticated, so the
        map must not grow without bound.  Beyond the cap the
        least-recently-seen *idle* entries are dropped: a bucket at
        rest refills toward full burst anyway, so evicting one forgets
        at most a partial throttle, and a bulkhead with requests in
        flight is never evicted (its ``exit()`` calls must keep
        balancing the live object).
        """
        state = self._tenants.pop(tenant, None)
        if state is None:
            state = (TokenBucket(self.config.tenant_rate,
                                 self.config.tenant_burst,
                                 clock=self._clock),
                     Bulkhead(self.config.bulkhead_limit))
        self._tenants[tenant] = state  # (re)insert at the MRU end
        while len(self._tenants) > self.config.max_tenants:
            victim = next((name for name, (_, bh) in self._tenants.items()
                           if name != tenant and bh.active == 0), None)
            if victim is None:
                break  # everyone else is mid-request; briefly over cap
            del self._tenants[victim]
        return state

    async def _evaluate(self, payload: dict, tenant: str, t0: float,
                        ledger: list[float]) -> dict:
        admitted = self._clock()
        entry = await self.registry.ensure(str(payload["model"]),
                                           executor=self.executor)
        metric, order, values, timeout = self._validate(payload, entry)
        deadline = t0 + timeout

        if not entry.breaker.allow():
            if self.config.degrade and order > 1:
                return self._degraded(entry, metric, values)
            self._count_reject("breaker_open")
            raise BreakerOpen(
                f"model {entry.recipe.name!r} breaker is "
                f"{entry.breaker.state} and degradation is unavailable")

        ctx = obs_context.current()
        request = EvalRequest(
            entry=entry, metric=metric, order=order, values=values,
            deadline=deadline, tenant=tenant,
            trace_id=ctx.trace_id if ctx is not None else None,
            parent_span=ctx.local_parent if ctx is not None else None)
        outcome = await self.coalescer.submit(request)
        # lookup ends where the coalescer's queue wait begins
        ledger.extend((admitted - t0, request.enqueued - admitted,
                       outcome.queue_s, outcome.eval_s))
        rung, rtol = "nominal", self.ladder.nominal
        return {
            "model": entry.recipe.name,
            "metric": metric,
            "order": order,
            "value": outcome.value,
            "degraded": False,
            "rung": rung,
            "rtol": rtol,
            "batch_size": outcome.batch_size,
            "queue_s": round(outcome.queue_s, 6),
            "eval_s": round(outcome.eval_s, 6),
        }

    def _validate(self, payload: dict, entry) -> tuple[str, int, dict, float]:
        """Reject malformed payloads *before* they reach the coalescer.

        An unknown metric or element name raising inside the shared
        batch task would poison every coalesced neighbour (and strand
        their futures), so the front door checks everything the batch
        will later dereference: metric name, element names against the
        model's symbolic slots, numeric values/order/timeout.
        """
        from ..core.metrics import resolve_metric
        metric = str(payload.get("metric", "dc_gain"))
        try:
            resolve_metric(metric)
        except Exception as exc:
            self._count_reject("invalid_request")
            raise InvalidRequest(f"unknown metric {metric!r}") from exc
        try:
            order = int(payload.get("order", entry.recipe.order))
            values = {str(k): float(v)
                      for k, v in dict(payload.get("values") or {}).items()}
            timeout = float(payload.get("timeout_s",
                                        self.config.default_deadline_s))
        except (TypeError, ValueError) as exc:
            self._count_reject("invalid_request")
            raise InvalidRequest(
                f"malformed order/values/timeout_s: {exc}") from exc
        if not 1 <= order <= entry.recipe.order:
            self._count_reject("invalid_request")
            raise InvalidRequest(
                f"order must be in [1, {entry.recipe.order}] for model "
                f"{entry.recipe.name!r}, got {order}")
        unknown = sorted(set(values) - set(entry.model.element_slots))
        if unknown:
            self._count_reject("invalid_request")
            raise InvalidRequest(
                f"unknown element(s) {unknown} for model "
                f"{entry.recipe.name!r}; symbolic elements: "
                f"{sorted(entry.model.element_slots)}")
        return metric, order, values, min(timeout, self.config.max_deadline_s)

    def _degraded(self, entry, metric: str, values: dict) -> dict:
        """Order-1 fallback from the already-compiled program.

        Two moments, closed-form pole/residue, no batching — the answer
        is loose (tolerance ladder's ``degraded`` rung) but bounded,
        explicit, and nearly free, so it is computed on the loop.
        """
        from ..core.metrics import resolve_metric
        rom = entry.model.rom(values or None, order=1, require_stable=False)
        value = float(resolve_metric(metric)(rom))
        entry.served += 1
        _metrics.registry().counter(
            "repro_serve_requests_total_degraded",
            "requests served by the order-1 degraded fallback").inc()
        return {
            "model": entry.recipe.name,
            "metric": metric,
            "order": 1,
            "value": value,
            "degraded": True,
            "rung": "degraded",
            "rtol": self.ladder.degraded,
            "batch_size": 1,
        }

    @staticmethod
    def _count_reject(code: str, **fields) -> None:
        _metrics.registry().counter(
            f"repro_serve_rejected_total_{code}",
            f"requests rejected with code {code}").inc()
        ctx = obs_context.current()
        if ctx is not None:
            fields.setdefault("trace_id", ctx.trace_id)
            fields.setdefault("tenant", ctx.tenant)
        _recorder.record("reject", code=code, **fields)

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        """Liveness: the process is up and the loop is turning."""
        return {"status": "ok", "draining": self.draining,
                "inflight": self.admission.inflight,
                "models": self.registry.names}

    def readyz(self) -> tuple[bool, dict]:
        """Readiness: not draining, and the doctor-style cache checks
        pass (no corrupt/wrong-schema entries on disk)."""
        checks: dict[str, str] = {}
        ready = self.started and not self.draining
        checks["lifecycle"] = ("draining" if self.draining
                               else "ok" if self.started else "starting")
        cache = self.registry.cache
        health = cache.health()
        checks["program_cache"] = (
            f"{health['disk_entries']} entries, {health['disk_bytes']} bytes")
        if cache.disk_dir is not None:
            bad = [r for r in cache.scan_disk()
                   if r["status"] not in ("ok", "orphan-tmp")]
            if bad:
                ready = False
                checks["program_cache"] = (
                    f"{len(bad)} corrupt/stale entries (run repro doctor)")
        if self.config.readyz_gate_on_burn:
            fast = self.slo.burn_rate(self.config.slo.fast_window_s)
            if fast >= self.config.slo.fast_burn_threshold:
                ready = False
                checks["slo"] = (
                    f"fast burn {fast:.1f}x >= "
                    f"{self.config.slo.fast_burn_threshold:g}x")
            else:
                checks["slo"] = f"fast burn {fast:.2f}x"
        return ready, {"ready": ready, "checks": checks,
                       "retry_budget": round(self.retry_budget.available, 2)}

    # ------------------------------------------------------------------
    # metrics exposition
    # ------------------------------------------------------------------
    def metrics_text(self) -> str:
        """``/metrics`` body: registry + live policy state + SLO series.

        The plain registry exposition has no label support (identity
        lives in metric-name suffixes there), so the label-bearing
        policy and SLO series are generated here at scrape time from
        the live objects — breaker state per model, bulkhead occupancy
        and token-bucket level per tenant, admission pressure.
        """
        reg = _metrics.registry()
        shed = reg.get("repro_serve_shed_total")
        lines = [prometheus_text(reg).rstrip("\n")]
        lines += [
            "# HELP repro_service_shed_total requests shed by admission "
            "control",
            "# TYPE repro_service_shed_total counter",
            f"repro_service_shed_total "
            f"{int(shed.value) if shed is not None else 0}",
            "# HELP repro_service_admission_inflight admitted requests "
            "in flight",
            "# TYPE repro_service_admission_inflight gauge",
            f"repro_service_admission_inflight {self.admission.inflight}",
            "# HELP repro_service_admission_capacity admission budget "
            "(inflight + queue)",
            "# TYPE repro_service_admission_capacity gauge",
            f"repro_service_admission_capacity {self.admission.capacity}",
            "# HELP repro_service_breaker_state per-model breaker "
            "(0 closed, 1 half-open, 2 open)",
            "# TYPE repro_service_breaker_state gauge",
        ]
        state_code = {"closed": 0, "half_open": 1, "open": 2}
        for item in self.registry.describe():
            if item["breaker"] is not None:
                lines.append(
                    f'repro_service_breaker_state{{model="{item["name"]}"'
                    f'}} {state_code.get(item["breaker"], -1)}')
        lines.append("# HELP repro_service_bulkhead_active concurrent "
                     "requests per tenant")
        lines.append("# TYPE repro_service_bulkhead_active gauge")
        tenants = list(self._tenants.items())
        for tenant, (_, bulkhead) in tenants:
            lines.append(f'repro_service_bulkhead_active{{tenant='
                         f'"{tenant}"}} {bulkhead.active}')
        lines.append("# HELP repro_service_tokens_available per-tenant "
                     "token-bucket level")
        lines.append("# TYPE repro_service_tokens_available gauge")
        for tenant, (bucket, _) in tenants:
            lines.append(f'repro_service_tokens_available{{tenant='
                         f'"{tenant}"}} {bucket.available:.2f}')
        lines.append("# HELP repro_service_flightrec_events events in "
                     "the flight-recorder ring")
        lines.append("# TYPE repro_service_flightrec_events gauge")
        lines.append(f"repro_service_flightrec_events "
                     f"{len(_recorder.recorder().snapshot())}")
        lines += self.slo.prometheus_lines()
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, install_signals: bool = True) -> None:
        """Start the HTTP front and (optionally) signal-driven drain."""
        from .http import serve_http
        self._server = await serve_http(self, self.config.host,
                                        self.config.port)
        self.started = True
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(
                        sig, lambda s=sig: asyncio.ensure_future(
                            self.drain(signal_name=s.name)))
                except (NotImplementedError, RuntimeError):
                    pass  # platform without loop signal support
            if hasattr(signal, "SIGUSR2"):
                try:
                    loop.add_signal_handler(
                        signal.SIGUSR2,
                        lambda: _recorder.recorder().dump(
                            reason="SIGUSR2"))
                except (NotImplementedError, RuntimeError):
                    pass

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        if self._server is None:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    async def drain(self, signal_name: str = "") -> None:
        """Stop accepting, finish in-flight work, flush, tear down."""
        if self.draining:
            return
        self.draining = True
        reg = _metrics.registry()
        reg.counter("repro_serve_drains_total",
                    "drain sequences initiated").inc()
        _recorder.record("drain", signal=signal_name or None,
                         inflight=self.admission.inflight)
        # wait (bounded) for admitted requests to resolve
        grace_until = self._clock() + self.config.drain_grace_s
        while self.admission.inflight > 0 and self._clock() < grace_until:
            await asyncio.sleep(0.01)
        await self.coalescer.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.started = False
        self._flush()
        self.executor.shutdown(wait=True, cancel_futures=True)
        self._drained.set()

    def _flush(self) -> None:
        """Persist metrics on the way out (diagnostics live in them)."""
        if self.config.metrics_path is not None:
            from ..obs.export import write_prometheus
            try:
                write_prometheus(self.config.metrics_path,
                                 _metrics.registry())
            except OSError:
                pass

    async def wait_drained(self) -> None:
        await self._drained.wait()

    async def close(self) -> None:
        """Immediate teardown (tests); :meth:`drain` for production."""
        if not self._drained.is_set():
            await self.drain()
