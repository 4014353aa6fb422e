"""Pluggable execution backends for the batched sweep runtime.

The sweep's shard loop is backend-agnostic (``repro.runtime.resilience``
drives retries the same way everywhere); what varies is *where* a shard
attempt runs:

* ``serial`` — the calling thread, no pool;
* ``thread`` — a ``ThreadPoolExecutor`` (numpy releases the GIL inside
  array kernels, so this overlaps the heavy ufunc work);
* ``process`` — a warm, process-wide ``ProcessPoolExecutor`` of spawned
  workers, for when the Python-level part of the program dominates and
  the GIL serializes threads.

The backend picks where shards run, not how moments are computed:
every chunk, in-process or in a worker, runs the compiled C op-tape
kernel (:mod:`repro.runtime.native`) once it has been built in the
background, and the ufunc kernel until then, under
``REPRO_NATIVE=off``, or when no kernel builds.  The kernel runs on its
shard's thread, so shards are the only way a sweep uses more than one
CPU.

``auto`` picks ``thread`` when more than one worker is requested and
``serial`` otherwise — exactly the pre-backend behavior; ``process`` is
opt-in (it pays a one-time spawn cost).

The process backend never pickles the compiled function or bulk arrays:
the program travels as a ~200-byte :class:`ProgramSpec` pointing at a
content-addressed **op-tape artifact** spooled on local disk — published
through an :class:`~repro.runtime.store.ArtifactStore` in a per-process
temp directory (atomic, with a digest sidecar, no budget) — loaded and
integrity-verified once per worker process (see
:mod:`repro.runtime.procworker`).  Small sweeps ship their grid-column
slices inline in the job pickle and get values back the same way; bulk
sweeps stack columns into a shared-memory input slab and splice results
out of a shared output slab.  Pools are cached per worker count and
reused across sweeps, so the spawn cost amortizes away; a sweep that
reuses a warm pool reports ``spawn_seconds == 0``.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import pickle
import shutil
import tempfile
import time
import weakref
from concurrent.futures import Future, ProcessPoolExecutor
from multiprocessing import shared_memory
from typing import Callable, Sequence

import numpy as np

from ..errors import ApproximationError
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..testing import faults as _faults
from .procworker import (ProgramSpec, ShardJob, run_worker_shard,
                         run_worker_shards)
from .store import ArtifactStore

__all__ = [
    "BACKENDS",
    "INLINE_MAX_POINTS",
    "ProcessShardRunner",
    "available_cpus",
    "process_pool",
    "resolve_backend",
    "shutdown_pools",
]

#: accepted values for the ``backend`` sweep argument / ``--backend`` flag
BACKENDS = ("auto", "serial", "thread", "process")

#: sweeps at or below this size skip shared memory entirely: per-shard
#: column slices ride in the job pickle and values come back the same
#: way (two shm segment create/copy/unlink cycles cost more than a few
#: KB of pickling at typical sweep sizes)
INLINE_MAX_POINTS = 16384


def available_cpus() -> int:
    """CPUs this process may run on: the affinity mask where the OS
    has one (``taskset``, cpusets), else ``os.cpu_count()``."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        return max(1, len(getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def resolve_backend(backend: str | None, workers: int) -> str:
    """Map a requested backend name to the one the sweep will run.

    ``None``/``"auto"`` resolve to ``"thread"`` when more than one worker
    is in play and ``"serial"`` otherwise; an explicit ``"thread"`` with
    one worker also degrades to ``"serial"`` (a one-thread pool buys
    nothing).  ``"process"`` is honored even for one worker — the work
    still leaves the calling process.  The moment kernel is the same on
    every backend
    (:meth:`~repro.symbolic.compile.CompiledFunction.eval_batch` chooses
    it).

    Raises:
        ApproximationError: ``backend`` is not one of :data:`BACKENDS`.
    """
    name = (backend or "auto").lower()
    if name not in BACKENDS:
        raise ApproximationError(
            f"unknown sweep backend {backend!r} "
            f"(choose from {', '.join(BACKENDS)})")
    if name in ("auto", "thread"):
        return "thread" if workers > 1 else "serial"
    return name


# ----------------------------------------------------------------------
# warm process pools
# ----------------------------------------------------------------------
_POOLS: dict[int, ProcessPoolExecutor] = {}


def _noop() -> None:
    return None


def process_pool(workers: int) -> tuple[ProcessPoolExecutor, float]:
    """A warm spawned pool of ``workers`` processes, plus its spawn cost.

    Pools are cached per worker count for the life of the process (torn
    down atexit), so only the first sweep at a given width pays the
    spawn; reuse returns ``spawn_seconds == 0``.  A pool broken by a
    dead worker is replaced transparently.
    """
    pool = _POOLS.get(workers)
    if pool is not None and not getattr(pool, "_broken", False):
        return pool, 0.0
    with _trace.span("backend.spawn", workers=workers):
        t0 = time.perf_counter()
        pool = ProcessPoolExecutor(max_workers=workers,
                                   mp_context=mp.get_context("spawn"))
        # force at least one worker through interpreter start + imports
        # so spawn_seconds measures real cost, not lazy deferral
        pool.submit(_noop).result()
        spawn_seconds = time.perf_counter() - t0
    _POOLS[workers] = pool
    _metrics.registry().counter(
        "repro_backend_pools_spawned_total",
        "process pools stood up by the process sweep backend").inc()
    return pool, spawn_seconds


def shutdown_pools() -> None:
    """Tear down every cached process pool (registered atexit)."""
    pools = list(_POOLS.values())
    _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_pools)


# ----------------------------------------------------------------------
# op-tape spool: the cross-process wire format
# ----------------------------------------------------------------------
_SPOOL: ArtifactStore | None = None
_SPOOLED: dict[str, str] = {}


def _spool_tape(tape) -> str | None:
    """Publish ``tape`` once into the parent's spool store.

    Content-addressed, so every sweep of the same program reuses one
    file; the store's directory lives for the parent process (no
    budget) and is removed atexit.  Returns ``None`` when the filesystem
    refuses (the spec then inlines the tape JSON instead).
    """
    global _SPOOL
    path = _SPOOLED.get(tape.content_hash)
    if path is not None:
        return path
    try:
        if _SPOOL is None:
            directory = tempfile.mkdtemp(prefix="repro-tapes-")
            atexit.register(shutil.rmtree, directory, ignore_errors=True)
            _SPOOL = ArtifactStore(directory, "", ".tape")
        path = str(_SPOOL.publish(tape.content_hash,
                                  tape.to_json().encode()))
    except OSError:
        return None
    _SPOOLED[tape.content_hash] = path
    return path


#: metrics that already passed the pickle probe — re-probing every sweep
#: costs more than the probe saves (the probe exists only to fail fast
#: with a clear message instead of deep inside a worker)
_PICKLABLE_METRICS: "weakref.WeakSet" = weakref.WeakSet()


def _check_metric_picklable(metric: Callable) -> None:
    try:
        if metric in _PICKLABLE_METRICS:
            return
    except TypeError:
        pass  # unhashable: probe every time
    try:
        pickle.dumps(metric)
    except Exception as exc:
        raise ApproximationError(
            f"metric {getattr(metric, '__name__', metric)!r} is not "
            "picklable, so the process backend cannot ship it to "
            "worker processes; use backend='thread' for lambdas and "
            "closures") from exc
    try:
        _PICKLABLE_METRICS.add(metric)
    except TypeError:
        pass


# ----------------------------------------------------------------------
# the process backend's per-sweep state
# ----------------------------------------------------------------------
class ProcessShardRunner:
    """Per-sweep harness for the process backend.

    Owns the shared-memory slabs and the picklable
    :class:`~repro.runtime.procworker.ProgramSpec`; exposes
    :meth:`submit` (plugged into
    :func:`repro.runtime.resilience.run_shards`) and :meth:`normalize`
    (turns a worker's shm marker back into the ordinary
    ``(values, stats, diag)`` shard result).  Call :meth:`close` when
    the sweep is done — the parent owns slab cleanup.
    """

    def __init__(self, model, columns: Sequence, n_points: int,
                 metric: Callable, order: int, require_stable: bool,
                 strict: bool, workers: int,
                 n_shards: int | None = None,
                 chunk_points: int | None = None) -> None:
        _check_metric_picklable(metric)
        self._workers = max(1, int(workers))
        # first-attempt batching: run_shards submits every shard's
        # attempt 0 before collecting any result, so submit() can queue
        # those jobs and flush them as one pool task per worker once the
        # last one arrives — `workers` executor round-trips per sweep
        # instead of `n_shards`.  Retries go out individually.
        self._batch_expected = n_shards if n_shards and n_shards > 1 else None
        self._batch_seen = 0
        self._batch_pending: list[tuple[ShardJob, Future]] = []
        self._metric = metric
        self._order = int(order)
        self._require_stable = bool(require_stable)
        self._strict = bool(strict)
        self._n_points = int(n_points)
        self._chunk_points = chunk_points

        cm = model.compiled_moments
        fn = cm.fn
        # spec construction is warm-path free: the moment program carries
        # its (fused) tape, spooled once per content hash, and the
        # resulting ~200-byte spec is cached on the function — repeat
        # sweeps ship a pointer, not the program
        spec = getattr(fn, "_proc_spec", None)
        if spec is None or spec.order != cm.order:
            from ..symbolic.tape import tape_for
            tape = tape_for(fn)
            path = _spool_tape(tape)
            spec = ProgramSpec(
                key=f"{tape.content_hash}:{cm.order}",
                tape_path=path,
                tape_json=None if path is not None else tape.to_json(),
                order=cm.order)
            fn._proc_spec = spec
        self._spec = spec

        # acquire the pool before creating any shm slab: a failed spawn
        # must not leak segments (nothing would close/unlink them)
        self.pool, self.spawn_seconds = process_pool(max(1, int(workers)))

        self._array_positions = tuple(
            i for i, c in enumerate(columns) if isinstance(c, np.ndarray))
        self._scalars = tuple(
            None if isinstance(c, np.ndarray) else float(c)
            for c in columns)
        self._columns = tuple(columns)
        self._inline = n_points <= INLINE_MAX_POINTS
        self._shm_in = None
        self._shm_out = None
        self._out = None
        if not self._inline:
            if self._array_positions and n_points:
                self._shm_in = shared_memory.SharedMemory(
                    create=True,
                    size=len(self._array_positions) * n_points * 8)
                slab = np.ndarray((len(self._array_positions), n_points),
                                  dtype=np.float64, buffer=self._shm_in.buf)
                for row, pos in enumerate(self._array_positions):
                    slab[row] = columns[pos]
                del slab
            self._shm_out = shared_memory.SharedMemory(
                create=True, size=max(1, n_points) * 16)
            self._out = np.ndarray((n_points,), dtype=np.complex128,
                                   buffer=self._shm_out.buf)

    def submit(self, lo: int, hi: int, shard: int, attempt: int) -> Future:
        """Pooled-attempt hook for :func:`run_shards`.

        Shard faults are injected *parent-side* (the injector's armed
        state does not cross process boundaries); an injected error is
        delivered through the returned future so retry semantics match
        the thread backend exactly.

        First attempts are batched: the job is queued behind a manual
        future, and when the sweep's last first-attempt lands the queue
        is flushed as one pool task per worker
        (:func:`~repro.runtime.procworker.run_worker_shards`).  Retries
        bypass the batcher — by then the batch has long been flushed and
        a straggler must not wait on anything.
        """
        batching = self._batch_expected is not None and attempt == 0
        if batching:
            self._batch_seen += 1
        if _faults.ACTIVE is not None:
            try:
                _faults.fault_point("sweep.shard", shard=shard,
                                    attempt=attempt, lo=int(lo), hi=int(hi))
            except BaseException as exc:
                failed: Future = Future()
                failed.set_exception(exc)
                if batching and self._batch_seen == self._batch_expected:
                    self._flush_batch()
                return failed
        inline_arrays = None
        if self._inline:
            inline_arrays = tuple(
                np.ascontiguousarray(self._columns[pos][lo:hi])
                for pos in self._array_positions)
        job = ShardJob(
            spec=self._spec,
            shm_in=None if self._shm_in is None else self._shm_in.name,
            shm_out=None if self._shm_out is None else self._shm_out.name,
            n_points=self._n_points,
            array_positions=self._array_positions,
            scalars=self._scalars,
            lo=int(lo), hi=int(hi), shard=int(shard), attempt=int(attempt),
            metric=self._metric, order=self._order,
            require_stable=self._require_stable, strict=self._strict,
            obs={"trace": True} if _trace.enabled() else None,
            inline_arrays=inline_arrays, chunk_points=self._chunk_points)
        _metrics.registry().counter(
            "repro_backend_worker_shards_total",
            "shard attempts dispatched to worker processes").inc()
        if batching:
            fut: Future = Future()
            self._batch_pending.append((job, fut))
            if self._batch_seen == self._batch_expected:
                self._flush_batch()
            return fut
        return self.pool.submit(run_worker_shard, job)

    def _flush_batch(self) -> None:
        """Ship the queued first attempts, one pool task per worker."""
        pending, self._batch_pending = self._batch_pending, []
        self._batch_expected = None  # one flush per sweep
        if not pending:
            return
        n_groups = min(self._workers, len(pending))
        base, extra = divmod(len(pending), n_groups)
        start = 0
        for group_index in range(n_groups):
            size = base + (1 if group_index < extra else 0)
            group = pending[start:start + size]
            start += size
            jobs = tuple(job for job, _ in group)
            futures = [fut for _, fut in group]
            batch = self.pool.submit(run_worker_shards, jobs)
            batch.add_done_callback(
                lambda bf, futs=futures: self._deliver_batch(futs, bf))

    @staticmethod
    def _deliver_batch(futures: list, batch: Future) -> None:
        """Resolve each shard's future from its batch slot."""
        try:
            results = batch.result()
        except BaseException as exc:  # noqa: BLE001 — pool/worker death
            for fut in futures:
                if not fut.done():
                    fut.set_exception(exc)
            return
        for fut, (tag, payload) in zip(futures, results):
            if fut.done():
                continue  # cancelled while in flight; drop the result
            if tag == "ok":
                fut.set_result(payload)
            else:
                fut.set_exception(payload)
        for fut in futures[len(results):]:
            if not fut.done():
                fut.set_exception(RuntimeError(
                    "worker batch returned fewer results than jobs"))

    @staticmethod
    def _adopt_spans(obs) -> None:
        tracer = _trace.current_tracer()
        if tracer is not None and obs:
            tracer.adopt(obs.get("spans") or [],
                         obs.get("epoch_wall", tracer.epoch_wall),
                         parent_id=tracer.context())

    def normalize(self, result):
        """Turn a worker marker back into an ordinary shard result.

        ``("shm", ...)`` markers copy the slice out of the output slab;
        ``("vals", ...)`` markers (inline path) carry the values
        themselves.  Serial-fallback results (already ``(values, stats,
        diag)``) and abandoned shards (``None``) pass through untouched.
        A traced worker result carries a trailing element with the
        worker-local spans; they are grafted into the parent tracer
        under the calling thread's active span (the sweep that shipped
        the shard) so a single exported trace shows the cross-process
        tree.
        """
        if not (isinstance(result, tuple) and len(result) >= 5
                and isinstance(result[0], str)):
            return result
        if result[0] == "shm" and len(result) in (5, 6):
            _, lo, hi, stats, diag = result[:5]
            if len(result) == 6:
                self._adopt_spans(result[5])
            return np.array(self._out[lo:hi]), stats, diag
        if result[0] == "vals" and len(result) in (6, 7):
            _, _lo, _hi, stats, diag, values = result[:6]
            if len(result) == 7:
                self._adopt_spans(result[6])
            return np.asarray(values), stats, diag
        return result

    def close(self) -> None:
        """Release both slabs (idempotent).  The pool stays warm."""
        self._out = None
        self._columns = ()
        for attr in ("_shm_in", "_shm_out"):
            shm = getattr(self, attr)
            if shm is not None:
                setattr(self, attr, None)
                shm.close()
                shm.unlink()
