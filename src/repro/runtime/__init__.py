"""Batched sweep runtime: vectorized, sharded evaluation of compiled models.

The compiled straight-line moment programs are numpy-vectorized, so a
whole parameter grid can flow through them in one call.  This package
provides:

* :func:`batched_sweep` — array-in/array-out grid sweeps with vectorized
  closed-form order-1/2 Padé and an exact per-point fallback;
* :class:`RuntimeStats` — per-stage timers and point counters separating
  one-time compile cost from per-sweep evaluate cost (Table 1's split);
* :class:`ProgramCache` / :func:`cached_awesymbolic` — keyed LRU +
  crash-safe on-disk caching of derived symbolic programs;
* :class:`ResilienceConfig` / :func:`run_shards` — the fault-tolerance
  layer: point quarantine policy, shard retry/timeout/backoff, serial
  fallback (see ``docs/robustness.md``);
* :data:`BACKENDS` / :func:`resolve_backend` — pluggable shard execution
  (``serial`` / ``thread`` / ``process``); the process backend ships
  compiled programs as content-addressed op-tape artifacts to spawned
  workers (inline pickles for small sweeps, shared memory for bulk
  ones).  On every backend each shard evaluates moments on its own
  thread through a compiled C kernel generated from the same tape
  (:mod:`repro.runtime.native`), falling back to the ufunc kernel when
  no toolchain is available (see ``docs/runtime.md`` and
  ``docs/artifacts.md``).

``repro.core`` imports lazily from here (never the reverse at module
scope) to keep the dependency direction acyclic.
"""

from .backends import (BACKENDS, INLINE_MAX_POINTS, resolve_backend,
                       shutdown_pools)
from .native import NativeUnavailable, build_native_kernel, native_kernel_for
from .batched import (CANCEL_CHUNK_POINTS, VECTOR_METRICS, batched_sweep,
                      grid_columns, vector_metric, vector_poles_residues)
from .cache import (CACHE_SCHEMA, CacheStats, CondensationCache,
                    ProgramCache, cached_awesymbolic, circuit_fingerprint,
                    default_cache)
from .cancel import CancelToken, Deadline
from .resilience import DEFAULT_RESILIENCE, ResilienceConfig, run_shards
from .stats import RuntimeStats

__all__ = [
    "BACKENDS",
    "CACHE_SCHEMA",
    "INLINE_MAX_POINTS",
    "NativeUnavailable",
    "CANCEL_CHUNK_POINTS",
    "DEFAULT_RESILIENCE",
    "VECTOR_METRICS",
    "CacheStats",
    "CancelToken",
    "CondensationCache",
    "Deadline",
    "ProgramCache",
    "ResilienceConfig",
    "RuntimeStats",
    "batched_sweep",
    "build_native_kernel",
    "native_kernel_for",
    "resolve_backend",
    "shutdown_pools",
    "cached_awesymbolic",
    "circuit_fingerprint",
    "default_cache",
    "grid_columns",
    "run_shards",
    "vector_metric",
    "vector_poles_residues",
]
