"""Fault-tolerant shard execution for the batched sweep runtime.

The batched sweep splits a flattened grid into contiguous shards and
splices the per-shard results back in order.  This module keeps that
splice guarantee when shards misbehave:

* **bounded retry** — a shard whose attempt dies with an infrastructure
  error (anything that is *not* a :class:`~repro.errors.ReproError`) is
  re-submitted up to :attr:`ResilienceConfig.shard_retries` times, with
  exponential backoff and deterministic jitter between attempts;
* **per-attempt timeout with cooperative cancellation** — under pooled
  execution, an attempt that does not finish within
  :attr:`ResilienceConfig.shard_timeout` seconds is *cancelled*: every
  pooled attempt gets a child :class:`~repro.runtime.cancel.CancelToken`,
  and the batched shard loop checks it between chunk evaluations, so a
  timed-out attempt stops computing within one chunk instead of leaking
  a thread that runs to the end of its range.  The shard is then retried
  on a fresh worker;
* **caller cancellation** — a ``cancel`` token passed to
  :func:`run_shards` drains the sweep: shards not yet finished resolve
  to ``None`` with resolution ``"cancelled"`` (no retries, no fallback),
  finished shards keep their results, and the splice completes.  This is
  how service deadlines and the CLI's SIGINT/SIGTERM path stop a sweep;
* **shared retry budget** — an optional
  :attr:`ResilienceConfig.retry_budget` callable gates every re-attempt,
  letting a serving layer cap *total* retries across concurrent sweeps
  (a shard denied a retry skips straight to fallback/abandon) instead of
  multiplying per-shard retries under load;
* **serial in-process fallback** — when pooled retries are exhausted the
  shard runs once more directly on the calling thread (attempt index
  ``-1``), isolating the work from the pool entirely;
* **order-preserving splice** — results come back in shard order no
  matter which attempt produced them, so sharded output equals serial
  output on all surviving points.  A shard that fails every attempt
  resolves to ``None`` (lenient mode): the caller NaN-fills its slice and
  the incident is recorded as an ``"abandoned"``
  :class:`~repro.diagnostics.ShardFailure`.

Library errors (:class:`~repro.errors.ReproError`) are deterministic —
the same moments produce the same singular Hankel system on every retry —
so they propagate immediately instead of burning retries; point-level
degradation for those lives in the quarantine path of
:mod:`repro.runtime.batched`, not here.
"""

from __future__ import annotations

import dataclasses
import inspect
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Callable, Sequence

from ..diagnostics import ShardFailure, SweepDiagnostics
from ..errors import CancelledSweep, ReproError
from ..obs import metrics as _metrics
from ..obs import recorder as _recorder
from .cancel import CancelToken

__all__ = [
    "DEFAULT_RESILIENCE",
    "ResilienceConfig",
    "run_shards",
]

#: attempt index passed to the shard function for the serial fallback
SERIAL_ATTEMPT = -1


@dataclass(frozen=True)
class ResilienceConfig:
    """Degradation policy for one sweep.

    Attributes:
        strict: raise on the first quarantined point / abandoned shard
            instead of degrading to NaN (lenient, the default).
        shard_retries: pooled re-attempts after the first try.
        shard_timeout: seconds before a pooled attempt is abandoned and
            retried (``None`` disables; timeouts need pooled execution —
            a serial sweep cannot preempt itself).  The budget covers
            queueing, so size it for ``shards / workers`` waves.
        backoff_seconds: base sleep before retry ``k`` (doubled each
            retry).
        backoff_jitter: fraction of the backoff added/subtracted
            deterministically per (shard, attempt) — decorrelates retry
            storms without a global RNG.
        serial_fallback: run the shard in-process after pooled retries
            are exhausted.
        retry_budget: optional ``() -> bool`` consulted before every
            re-attempt (pooled retry or serial fallback); returning
            False denies the retry — the shard skips to the next
            recovery stage and the denial is counted.  Shared across
            sweeps by the serving layer to stop retry storms under load.
    """

    strict: bool = False
    shard_retries: int = 2
    shard_timeout: float | None = None
    backoff_seconds: float = 0.02
    backoff_jitter: float = 0.5
    serial_fallback: bool = True
    retry_budget: Callable[[], bool] | None = None

    def with_strict(self, strict: bool) -> "ResilienceConfig":
        if strict == self.strict:
            return self
        return dataclasses.replace(self, strict=strict)


DEFAULT_RESILIENCE = ResilienceConfig()


def backoff_delay(config: ResilienceConfig, shard: int, attempt: int) -> float:
    """Backoff before re-running ``shard`` after failed ``attempt``.

    Exponential in the attempt index with deterministic jitter derived
    from ``(shard, attempt)`` — reproducible runs, decorrelated shards.
    """
    base = config.backoff_seconds * (2.0 ** attempt)
    # CPython hashes small ints to themselves and tuples deterministically
    u = (hash((shard, attempt)) % 1009) / 1008.0
    return max(0.0, base * (1.0 + config.backoff_jitter * (2.0 * u - 1.0)))


def _record(diagnostics: SweepDiagnostics | None, failure: ShardFailure,
            ) -> None:
    if diagnostics is not None:
        diagnostics.shard_failures.append(failure)


#: ``_accepts_cancel`` answers per code object: a sweep's shard closures
#: are fresh function objects on every call but share one code object,
#: and ``inspect.signature`` costs ~30 µs — a visible share of a
#: 1-point sweep
_CANCEL_BY_CODE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _accepts_cancel(fn: Callable) -> bool:
    """Whether ``fn`` takes a ``cancel`` keyword (tokens are opt-in so
    pre-existing shard functions keep working unchanged)."""
    # a signature set by a decorator (``__wrapped__``/``__signature__``)
    # is not a property of the code object, so it is never cached
    code = getattr(getattr(fn, "__func__", fn), "__code__", None)
    if code is not None and (hasattr(fn, "__wrapped__")
                             or hasattr(fn, "__signature__")):
        code = None
    if code is not None:
        cached = _CANCEL_BY_CODE.get(code)
        if cached is not None:
            return cached
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False
    accepts = "cancel" in params or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values())
    if code is not None:
        _CANCEL_BY_CODE[code] = accepts
    return accepts


def run_shards(run_shard: Callable, bounds: Sequence[int], *,
               workers: int = 1,
               config: ResilienceConfig | None = None,
               diagnostics: SweepDiagnostics | None = None,
               executor=None,
               submit: Callable | None = None,
               cancel: CancelToken | None = None) -> list:
    """Execute every shard ``[bounds[i], bounds[i+1])`` fault-tolerantly.

    Args:
        run_shard: ``run_shard(lo, hi, shard, attempt)`` returning the
            shard's result; ``attempt`` counts pooled attempts from 0,
            with :data:`SERIAL_ATTEMPT` marking the in-process fallback.
        bounds: ``len(shards) + 1`` monotone flat-index boundaries.
        workers: thread-pool width; 1 runs shards serially in-process
            (retry still applies, timeout cannot).
        config: degradation policy (default :data:`DEFAULT_RESILIENCE`).
        diagnostics: report to record shard incidents into.
        executor: externally-owned pool (e.g. the process backend's
            warm ``ProcessPoolExecutor``) used instead of creating a
            thread pool; it is **not** shut down here.  Forces pooled
            execution even with ``workers == 1``.
        submit: ``submit(lo, hi, shard, attempt) -> Future`` replacing
            ``pool.submit(run_shard, ...)`` for pooled attempts — how the
            process backend routes attempts to out-of-process workers
            while the serial fallback still calls ``run_shard``
            in-process.
        cancel: cooperative cancellation token.  Once fired, unfinished
            shards drain: no retries, no fallback, resolution
            ``"cancelled"`` and a ``None`` result; shards that already
            finished keep their results.  When ``run_shard`` (or
            ``submit``) accepts a ``cancel`` keyword, every attempt also
            receives a per-attempt child token that fires on timeout, so
            a timed-out attempt stops computing instead of leaking.

    Returns:
        One entry per shard, in shard order: the ``run_shard`` result
        (or whatever ``submit``'s futures resolve to), or ``None`` for a
        shard abandoned or cancelled in lenient mode.

    Raises:
        ReproError: immediately, from any attempt (deterministic library
            failure — strict-mode point errors travel this way).
        Exception: the last infrastructure error, when retries and the
            serial fallback are exhausted and ``config.strict`` is set.
    """
    config = config if config is not None else DEFAULT_RESILIENCE
    jobs = list(zip(bounds[:-1], bounds[1:]))
    if not jobs:
        return []
    owns_pool = executor is None and workers > 1
    pool = executor if executor is not None else (
        ThreadPoolExecutor(max_workers=workers) if owns_pool else None)
    run_takes_cancel = _accepts_cancel(run_shard)
    if pool is not None and submit is None:
        if run_takes_cancel:
            def submit(lo, hi, shard, attempt, cancel=None):
                return pool.submit(run_shard, lo, hi, shard, attempt,
                                   cancel=cancel)
        else:
            def submit(lo, hi, shard, attempt):
                return pool.submit(run_shard, lo, hi, shard, attempt)
    submit_takes_cancel = submit is not None and _accepts_cancel(submit)

    def submit_attempt(lo, hi, shard, attempt):
        """Dispatch one pooled attempt with its own cancellable token."""
        token = (CancelToken(parent=cancel) if submit_takes_cancel else None)
        if token is not None:
            return submit(lo, hi, shard, attempt, cancel=token), token
        return submit(lo, hi, shard, attempt), None

    try:
        first = {}
        if pool is not None:
            for i, (lo, hi) in enumerate(jobs):
                first[i] = submit_attempt(lo, hi, i, 0)
        return [_run_one(run_shard, i, lo, hi, first.get(i),
                         submit_attempt if pool is not None else None,
                         config, diagnostics, cancel,
                         run_takes_cancel)
                for i, (lo, hi) in enumerate(jobs)]
    finally:
        if owns_pool:
            # don't block on cancelled/hung attempts; completed shards
            # have already delivered their results through their futures
            pool.shutdown(wait=False, cancel_futures=True)


def _drain(shard: int, lo: int, hi: int, attempts: int,
           diagnostics: SweepDiagnostics | None,
           cancel: CancelToken) -> None:
    """Resolve a shard as cancelled (drain semantics: no retries)."""
    _metrics.registry().counter(
        "repro_shard_cancelled_total",
        "shards drained by a cancellation token").inc()
    _recorder.record("cancel", why="shard_drain", shard=shard,
                     attempts=attempts, reason=cancel.reason)
    _record(diagnostics, ShardFailure(
        shard=shard, lo=lo, hi=hi, attempts=attempts,
        error="CancelledSweep", message=cancel.reason,
        resolution="cancelled"))
    return None


def _spend_retry(config: ResilienceConfig) -> bool:
    """Consult the shared retry budget (missing budget = always allowed)."""
    if config.retry_budget is None:
        return True
    if config.retry_budget():
        return True
    _metrics.registry().counter(
        "repro_shard_retry_denied_total",
        "shard retries denied by the shared retry budget").inc()
    _recorder.record("reject", code="retry_budget")
    return False


def _run_one(run_shard: Callable, shard: int, lo: int, hi: int,
             first, submit, config: ResilienceConfig,
             diagnostics: SweepDiagnostics | None,
             cancel: CancelToken | None, run_takes_cancel: bool):
    """Drive one shard through attempts / retries / fallback / drain."""
    attempts = 0
    last_exc: BaseException | None = None
    for attempt in range(config.shard_retries + 1):
        if cancel is not None and cancel.cancelled:
            if attempt == 0 and first is not None:
                fut, token = first
                fut.cancel()
                if token is not None:
                    token.cancel(cancel.reason)
            return _drain(shard, lo, hi, attempts, diagnostics, cancel)
        if attempt > 0:
            if not _spend_retry(config):
                break
            time.sleep(backoff_delay(config, shard, attempt - 1))
            if cancel is not None and cancel.cancelled:
                return _drain(shard, lo, hi, attempts, diagnostics, cancel)
        attempts += 1
        token = None
        try:
            if submit is not None:
                if attempt == 0 and first is not None:
                    fut, token = first
                else:
                    fut, token = submit(lo, hi, shard, attempt)
                result = fut.result(timeout=config.shard_timeout)
            elif run_takes_cancel:
                result = run_shard(lo, hi, shard, attempt, cancel=cancel)
            else:
                result = run_shard(lo, hi, shard, attempt)
        except CancelledSweep:
            # the attempt observed the caller's token mid-chunk: drain
            return _drain(shard, lo, hi, attempts, diagnostics,
                          cancel if cancel is not None else CancelToken())
        except ReproError:
            raise  # deterministic model failure: retrying cannot help
        except FutureTimeoutError:
            # stop the still-running attempt at its next chunk check
            # (pre-token attempts leak until the end of their range)
            if token is not None:
                token.cancel("shard timeout")
            last_exc = TimeoutError(
                f"shard attempt exceeded {config.shard_timeout}s")
            _metrics.registry().counter(
                "repro_shard_retries_total",
                "failed shard attempts that triggered a retry").inc()
            continue
        except Exception as exc:
            last_exc = exc
            _metrics.registry().counter(
                "repro_shard_retries_total",
                "failed shard attempts that triggered a retry").inc()
            continue
        if attempts > 1:
            _record(diagnostics, ShardFailure(
                shard=shard, lo=lo, hi=hi, attempts=attempts,
                error=type(last_exc).__name__, message=str(last_exc),
                resolution="retried"))
        return result

    if cancel is not None and cancel.cancelled:
        return _drain(shard, lo, hi, attempts, diagnostics, cancel)
    if config.serial_fallback and (last_exc is None or _spend_retry(config)):
        attempts += 1
        _metrics.registry().counter(
            "repro_shard_serial_fallback_total",
            "shards recovered via the in-process serial fallback").inc()
        _recorder.record("fallback", shard=shard, attempts=attempts,
                         error=type(last_exc).__name__ if last_exc else None)
        try:
            if run_takes_cancel:
                result = run_shard(lo, hi, shard, SERIAL_ATTEMPT,
                                   cancel=cancel)
            else:
                result = run_shard(lo, hi, shard, SERIAL_ATTEMPT)
        except CancelledSweep:
            return _drain(shard, lo, hi, attempts, diagnostics,
                          cancel if cancel is not None else CancelToken())
        except ReproError:
            raise
        except Exception as exc:
            last_exc = exc
        else:
            _record(diagnostics, ShardFailure(
                shard=shard, lo=lo, hi=hi, attempts=attempts,
                error=type(last_exc).__name__, message=str(last_exc),
                resolution="serial"))
            return result

    if config.strict:
        raise last_exc
    _metrics.registry().counter(
        "repro_shard_abandoned_total",
        "shards NaN-filled after every attempt failed").inc()
    _recorder.record("abandon", shard=shard, attempts=attempts,
                     error=type(last_exc).__name__)
    _record(diagnostics, ShardFailure(
        shard=shard, lo=lo, hi=hi, attempts=attempts,
        error=type(last_exc).__name__, message=str(last_exc),
        resolution="abandoned"))
    return None
