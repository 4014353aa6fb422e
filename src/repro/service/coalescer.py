"""Request coalescing: many small evals → one vectorized batch.

The compiled moment programs are numpy-vectorized — evaluating 64
points costs barely more than evaluating one.  A serving layer that
pushes each request through its own ``batched_sweep`` call wastes that;
the coalescer groups requests by ``(model key, metric, Padé order)`` and
evaluates each group as **one paired-column sweep**: each request
contributes one joint sample row (its element overrides, nominals
elsewhere), exactly the Monte Carlo evaluation shape.

Batches run on the event loop's thread.  Evaluation holds the GIL, so a
thread hop would buy no concurrency, only its round trip; and since no
request can reach the coalescer while a batch runs, a bucket flushes
either at ``max_batch`` members or at the end of the current event-loop
turn: requests submitted in one turn share a batch, and a lone request
waits for nothing.  A batch holds the loop while it runs (on one
pinned CPU, a 64-request 741 batch took 0.29 ms for ``dominant_pole_hz``
and 0.34 ms for ``phase_margin`` at order 2, and 1.7–3.0 ms at order 4).

Deadline propagation is end-to-end and cooperative:

* requests already past their deadline when the batch fires are
  rejected *before* evaluation (queue wait ate their budget — no CPU
  spent);
* the batch runs under a :class:`~repro.runtime.cancel.CancelToken`
  armed to fire at the **latest** live member's deadline, threaded down
  into the chunked evaluation loop — once every member's deadline has
  passed, compute stops within one chunk;
* members whose deadline passes while the batch is in flight get a
  typed :class:`~repro.service.errors.DeadlineExceeded` even when the
  batch itself completes (their answer is late, and late is wrong).
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.metrics import resolve_metric
from ..obs import metrics as _metrics
from ..obs import recorder as _recorder
from ..obs import trace as _trace
from ..runtime.cancel import CancelToken, Deadline
from .errors import DeadlineExceeded
from .registry import ModelEntry

__all__ = ["Coalescer", "EvalRequest", "element_nominal"]

#: shard-chunk size for service batches — small enough that a fired
#: deadline stops compute promptly, large enough to stay vectorized
SERVICE_CHUNK_POINTS = 256


def element_nominal(model, name: str) -> float:
    """The nominal *element* value for a symbolic element.

    Both registered element→symbol transforms (identity for most
    elements, ``1/v`` for resistors) are involutions, so applying the
    transform to the symbol nominal recovers the element nominal.
    """
    pos, transform = model.element_slots[name]
    return float(transform(float(model.space.symbols[pos].nominal)))


@dataclass
class EvalRequest:
    """One coalescable evaluation request."""

    entry: ModelEntry
    metric: str
    order: int
    values: dict  #: element name -> float override (nominal elsewhere)
    deadline: float | None  #: absolute monotonic seconds, or None
    tenant: str = "default"
    future: asyncio.Future = field(default=None, repr=False)  # type: ignore
    enqueued: float = 0.0
    #: trace linkage (None when tracing is off): the member's trace id
    #: and the local span id its batch span should link back to
    trace_id: str | None = None
    parent_span: int | None = None

    @property
    def bucket(self) -> tuple:
        return (self.entry.key, self.metric, self.order)


@dataclass
class EvalOutcome:
    """What a resolved request's future carries."""

    value: float
    degraded: bool
    rung: str
    rtol: float
    batch_size: int
    queue_s: float
    eval_s: float
    diagnostics: object = None


class Coalescer:
    """Batches eval requests per (model, metric, order) bucket.

    Args:
        max_batch: flush a bucket as soon as it holds this many.
        resilience: optional :class:`~repro.runtime.resilience.
            ResilienceConfig` threaded into ``batched_sweep`` (the
            server wires its shared retry budget through this).
        clock: injectable monotonic clock.
    """

    def __init__(self, max_batch: int = 64, resilience=None,
                 chunk_points: int = SERVICE_CHUNK_POINTS,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if max_batch < 1:
            raise ValueError("need max_batch >= 1")
        self.max_batch = max_batch
        self.resilience = resilience
        self.chunk_points = chunk_points
        self._clock = clock
        self._buckets: dict[tuple, list[EvalRequest]] = {}
        #: per bucket: its end-of-turn flush
        self._timers: dict[tuple, asyncio.Handle] = {}

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------
    def submit(self, request: EvalRequest) -> asyncio.Future:
        """Enqueue; returns the future resolved with an
        :class:`EvalOutcome` or a typed rejection."""
        loop = asyncio.get_running_loop()
        request.future = loop.create_future()
        request.enqueued = self._clock()
        key = request.bucket
        bucket = self._buckets.setdefault(key, [])
        bucket.append(request)
        if len(bucket) >= self.max_batch:
            self._flush(key)
        elif key not in self._timers:
            self._timers[key] = loop.call_soon(self._flush, key)
        return request.future

    def _flush(self, key: tuple) -> None:
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        requests = self._buckets.pop(key, [])
        if requests:
            self._run_batch(requests)

    async def drain(self) -> None:
        """Evaluate every waiting bucket now."""
        for key in list(self._buckets):
            self._flush(key)

    @property
    def pending(self) -> int:
        return sum(len(b) for b in self._buckets.values())

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _run_batch(self, requests: list[EvalRequest]) -> None:
        """Outermost batch guard: **every** member future resolves.

        A stranded future would hold its caller's admission and
        bulkhead slots forever (their release lives in a ``finally``
        around the await), so any exception escaping the batch body —
        including bugs in our own bucketing/sampling code — rejects
        every still-pending member instead of escaping into the loop.
        """
        try:
            self._run_batch_inner(requests)
        except Exception as exc:
            _metrics.registry().counter(
                "repro_serve_batch_internal_error_total",
                "batches that failed outside evaluation").inc()
            _recorder.record("batch_error", error=type(exc).__name__,
                             detail=str(exc)[:200],
                             members=len(requests))
            _recorder.recorder().dump(reason="batch-internal-error")
            for req in requests:
                self._reject(req, exc)

    def _run_batch_inner(self, requests: list[EvalRequest]) -> None:
        reg = _metrics.registry()
        now = self._clock()
        live: list[EvalRequest] = []
        for req in requests:
            if req.deadline is not None and now >= req.deadline:
                self._reject(req, DeadlineExceeded(
                    f"deadline passed after {now - req.enqueued:.3f}s in "
                    f"queue"))
                reg.counter("repro_serve_deadline_preflight_total",
                            "requests expired before evaluation").inc()
                _recorder.record("cancel", why="deadline_preflight",
                                 tenant=req.tenant, trace_id=req.trace_id,
                                 queued_s=round(now - req.enqueued, 4))
            else:
                live.append(req)
        if not live:
            return
        reg.histogram("repro_serve_batch_size",
                      "coalesced batch sizes").observe(len(live))

        entry = live[0].entry
        metric = resolve_metric(live[0].metric)
        order = live[0].order
        samples = self._sample_columns(entry.model, live)

        # the batch may run until the *latest* member still wants it
        deadlines = [r.deadline for r in live if r.deadline is not None]
        deadline_at = max(deadlines) if len(deadlines) == len(live) else None
        budget = (None if deadline_at is None
                  else max(0.0, deadline_at - self._clock()))

        # the coalescer's fan-in, recorded explicitly: one batch span
        # linked to every member request span, so a slow shared batch
        # is attributable to (and from) each of its members
        tracer = _trace.current_tracer()
        batch_span = None
        if tracer is not None:
            parents = [r.parent_span for r in live
                       if r.parent_span is not None]
            batch_span = tracer.detached(
                "serve.batch", parents[0] if parents else None,
                model=entry.recipe.name, metric=live[0].metric,
                order=order, batch_size=len(live),
                members=[r.parent_span for r in live],
                member_traces=[r.trace_id for r in live]).start()

        t0 = self._clock()
        try:
            values, diagnostics = self._sweep(
                entry, samples, metric, order, budget,
                batch_span.span_id if batch_span is not None else None)
        except Exception as exc:  # library error: reject the whole batch
            entry.breaker.record(False)
            if batch_span is not None:
                batch_span.set(error=type(exc).__name__)
            for req in live:
                self._reject(req, exc)
            return
        finally:
            if batch_span is not None:
                batch_span.finish()
        eval_s = self._clock() - t0
        entry.breaker.observe(diagnostics)
        entry.served += len(live)
        if diagnostics is not None and getattr(diagnostics, "nan_points", 0):
            _recorder.record(
                "quarantine", model=entry.recipe.name,
                nan_points=int(diagnostics.nan_points),
                points=int(getattr(diagnostics, "points", 0) or 0))

        now = self._clock()
        for i, req in enumerate(live):
            if req.deadline is not None and now >= req.deadline:
                self._reject(req, DeadlineExceeded(
                    "deadline passed during evaluation"))
                _recorder.record("cancel", why="deadline_inflight",
                                 tenant=req.tenant, trace_id=req.trace_id)
                continue
            if (diagnostics is not None
                    and getattr(diagnostics, "cancelled", False)
                    and not np.isfinite(values[i])):
                self._reject(req, DeadlineExceeded(
                    "batch drained before this sample evaluated"))
                _recorder.record("cancel", why="batch_drained",
                                 tenant=req.tenant, trace_id=req.trace_id)
                continue
            self._resolve(req, EvalOutcome(
                value=float(values[i]), degraded=False, rung="nominal",
                rtol=0.0, batch_size=len(live),
                queue_s=t0 - req.enqueued, eval_s=eval_s,
                diagnostics=diagnostics))

    def _sweep(self, entry: ModelEntry, samples, metric, order,
               budget_s: float | None, batch_span_id: int | None = None):
        """The batch's paired-column sweep, serial on the calling thread.

        ``batch_span_id`` re-parents the sweep's span tree under the
        batch span: the loop thread opens no span of its own (request
        and batch spans are detached), so the sweep adopts it as its
        inherited parent and ``sweep.total`` nests under the batch.
        """
        cancel = CancelToken()
        deadline = None
        if budget_s is not None:
            deadline = Deadline.after(budget_s)
            cancel = CancelToken(parent=deadline.token)
        from ..runtime.batched import batched_sweep  # lazy: import cycle
        tracer = _trace.current_tracer()
        try:
            with (tracer.attach(batch_span_id) if tracer is not None
                  else contextlib.nullcontext()):
                result = batched_sweep(
                    entry.model, samples, metric, order=order,
                    resilience=self.resilience, paired=True, cancel=cancel,
                    chunk_points=self.chunk_points)
            return np.asarray(result).reshape(-1), result.diagnostics
        finally:
            if deadline is not None:
                deadline.close()

    def _sample_columns(self, model, live: list[EvalRequest]) -> dict:
        """Union of overridden elements → one joint sample per request."""
        names = sorted({n for r in live for n in r.values})
        if not names:
            # nothing overridden anywhere: nominal point, one per request
            names = [next(iter(model.element_slots))]
        return {
            name: np.array([
                float(r.values.get(name, element_nominal(model, name)))
                for r in live])
            for name in names
        }

    # ------------------------------------------------------------------
    @staticmethod
    def _resolve(req: EvalRequest, outcome: EvalOutcome) -> None:
        if not req.future.done():
            req.future.set_result(outcome)

    @staticmethod
    def _reject(req: EvalRequest, exc: Exception) -> None:
        if not req.future.done():
            req.future.set_exception(exc)
