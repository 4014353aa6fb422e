"""Resilient serving layer for compiled AWE models.

The compile-once / evaluate-many economics of AWEsymbolic (Table 1 of
the paper) naturally want a *service*: pay the symbolic derivation once
per circuit, keep the compiled program warm, and answer parameter-point
queries at batch speed.  This package is that service, built stdlib-only
on asyncio:

* :mod:`~repro.service.registry` — content-addressed model registry on
  :class:`~repro.runtime.cache.ProgramCache` keys with single-flight
  compilation and warm-entry LRU;
* :mod:`~repro.service.coalescer` — batches concurrent small requests
  into one vectorized paired-column sweep, evaluated on the event loop,
  with end-to-end cooperative deadline propagation (down to chunk
  granularity);
* :mod:`~repro.service.policies` — admission control with load
  shedding, per-tenant token-bucket quotas and bulkheads, a shared
  retry budget, and per-model circuit breakers keyed on sweep
  diagnostics;
* :mod:`~repro.service.server` — the pipeline plus graceful
  degradation (order-1 ROM with an explicit ``degraded`` flag) and
  SIGINT/SIGTERM drain-then-exit;
* :mod:`~repro.service.http` — a dependency-free HTTP front
  (``/healthz``, ``/readyz``, ``/metrics``, ``/v1/eval``,
  ``/v1/models``), started by the ``repro serve`` CLI verb.

The robustness contract (chaos-tested in ``tests/robustness/``): under
injected faults every request resolves as success, explicit degraded
success, or typed rejection — the service never crashes and never
leaks threads, processes, or temp files across a drain.  See
``docs/serving.md``.
"""

from .coalescer import Coalescer, EvalOutcome, EvalRequest
from .errors import (BreakerOpen, BulkheadFull, DeadlineExceeded, Draining,
                     InvalidRequest, QuotaExceeded, ServiceRejection,
                     ShedError, UnknownModel)
from .policies import (AdmissionController, BreakerConfig, Bulkhead,
                       CircuitBreaker, RetryBudget, TokenBucket)
from .registry import ModelEntry, ModelRegistry, RegisteredRecipe
from .server import AWEService, ServiceConfig

__all__ = [
    "AWEService",
    "AdmissionController",
    "BreakerConfig",
    "BreakerOpen",
    "Bulkhead",
    "BulkheadFull",
    "CircuitBreaker",
    "Coalescer",
    "DeadlineExceeded",
    "Draining",
    "EvalOutcome",
    "EvalRequest",
    "InvalidRequest",
    "ModelEntry",
    "ModelRegistry",
    "QuotaExceeded",
    "RegisteredRecipe",
    "RetryBudget",
    "ServiceConfig",
    "ServiceRejection",
    "ShedError",
    "TokenBucket",
    "UnknownModel",
]
