"""Spawn-safe worker side of the process sweep backend.

This module is what a spawned worker imports; it deliberately keeps its
heavy imports (``repro.runtime.batched`` and friends) inside the job
function so pool startup stays cheap.  The contract with
:mod:`repro.runtime.backends`:

* the parent ships a :class:`ProgramSpec` — a ~200-byte pointer to a
  content-addressed **op tape** spooled on local disk (with the tape
  JSON inlined only when spooling is impossible), never a pickled
  function and never per-sweep program source.  The tape is the
  model's one (fused) moment program: the worker loads,
  integrity-verifies and execs it once per process into
  :data:`_PROGRAMS`, keyed by the spec's content hash; repeat shards of
  the same sweep (and later sweeps of the same model) hit the warm
  cache without touching the filesystem.  Vector kernels regenerate on
  demand from the tape itself (every evaluator is generated from
  ``fn.tape``), so no kernel source travels either; a worker's chunks
  choose their kernel as in-process ones do (the native kernel once
  its background build lands, usually a kernel-store hit) and run it on
  the worker's one thread;
* **small sweeps ship inline**: the parent slices each shard's grid
  columns into the job pickle and the worker returns its values in a
  ``("vals", lo, hi, stats, diag, values)`` marker — a couple of KB
  each way, with zero shared-memory setup cost;
* **large sweeps use shared memory**: grid columns live in an input
  slab of shape ``(n_arrays, n_points)`` float64, results go into a
  shared ``(n_points,)`` complex128 output slab each worker writes in
  place for its own ``[lo, hi)`` slice, and the worker returns a
  ``("shm", lo, hi, stats, diag)`` marker.

Shm slabs are created, closed, and unlinked by the parent; workers
attach by name, drop every numpy view before closing, and unregister
the segments from their resource tracker (the parent owns cleanup).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

__all__ = ["ProgramSpec", "ShardJob", "run_worker_shard",
           "run_worker_shards"]

#: per-process cache of rebuilt programs, keyed by ``ProgramSpec.key``
_PROGRAMS: dict[str, object] = {}


@dataclass(frozen=True)
class ProgramSpec:
    """Pointer to one compiled moment program as an op-tape artifact.

    Attributes:
        key: tape content hash + moment order — the warm-cache key
            across shards, sweeps, and models.
        tape_path: local path of the spooled ``.tape`` artifact
            (content-addressed; written once per parent process).
        tape_json: the tape artifact inlined, only when no spool
            directory could be created (e.g. read-only tmp).
        order: the compiled moment order (``CompiledMoments.order``).
    """

    key: str
    tape_path: str | None
    tape_json: str | None
    order: int


@dataclass(frozen=True)
class ShardJob:
    """One shard's work order (small and cheap to pickle)."""

    spec: ProgramSpec
    shm_in: str | None
    shm_out: str | None
    n_points: int
    array_positions: tuple
    scalars: tuple
    lo: int
    hi: int
    shard: int
    attempt: int
    metric: object
    order: int
    require_stable: bool
    strict: bool
    #: observability request, e.g. ``{"trace": True}`` — the worker then
    #: records spans locally and ships them back as a trailing element
    obs: dict | None = None
    #: pre-sliced ``[lo, hi)`` grid columns for the inline (no-shm) path,
    #: parallel to ``array_positions``
    inline_arrays: tuple | None = None
    #: the sweep's ``chunk_points`` (``None``: the runtime default)
    chunk_points: int | None = None


class _WorkerModel:
    """Minimal stand-in for a compiled model inside a worker: the batched
    chunk evaluator only touches ``model.compiled_moments``."""

    __slots__ = ("compiled_moments",)

    def __init__(self, compiled_moments) -> None:
        self.compiled_moments = compiled_moments


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to a parent-owned segment without adopting its cleanup.

    ``SharedMemory(name=...)`` unconditionally registers the segment
    with the resource tracker, which the parent and every worker share —
    concurrent register/unregister pairs for the same name race inside
    the tracker (cpython #82300).  Suppressing registration for the
    duration of the attach keeps worker-side segments entirely off the
    tracker's books; the parent owns close + unlink.
    """
    from multiprocessing import resource_tracker
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _program(spec: ProgramSpec) -> _WorkerModel:
    """Load (or fetch) the compiled program for ``spec`` in this process.

    The tape is integrity-verified on load (schema + sha256) — a worker
    never executes a corrupted artifact.
    """
    cached = _PROGRAMS.get(spec.key)
    if cached is not None:
        return cached
    from ..partition.composite import CompiledMoments
    from ..symbolic.tape import load_tape, tape_from_json

    if spec.tape_path is not None:
        tape = load_tape(spec.tape_path)
    else:
        tape = tape_from_json(spec.tape_json)
    fn = tape.build_function()
    model = _WorkerModel(CompiledMoments(fn=fn, order=spec.order))
    _PROGRAMS[spec.key] = model
    return model


def run_worker_shard(job: ShardJob) -> tuple:
    """Evaluate one shard inside a worker process.

    Returns ``("shm", lo, hi, stats, diag)`` with the values already
    written into the shared output slab, or — on the inline path —
    ``("vals", lo, hi, stats, diag, values)`` with the values in the
    marker itself.  When the job carries ``obs={"trace": True}`` a
    worker-local tracer wraps the work in a ``sweep.shard`` span (the
    kernel-stage spans nest inside it) and a trailing element
    ``{"spans": ..., "epoch_wall": ...}`` ships the recorded spans back
    for :meth:`~repro.obs.trace.Tracer.adopt` on the parent side.
    """
    if not (job.obs or {}).get("trace"):
        return _evaluate_shard(job)
    from ..obs import trace as _trace
    with _trace.tracing() as tracer:
        with _trace.span("sweep.shard", pid=os.getpid(), shard=job.shard,
                         lo=job.lo, hi=job.hi, attempt=job.attempt):
            result = _evaluate_shard(job)
    return result + ({"spans": tracer.snapshot(),
                      "epoch_wall": tracer.epoch_wall},)


def run_worker_shards(jobs: tuple) -> list:
    """Evaluate a batch of shards sequentially in one pool task.

    The parent groups a sweep's first-attempt shards into one task per
    worker so a sweep pays ``workers`` pool round-trips instead of
    ``n_shards`` (the executor round-trip, not the evaluation, dominates
    small sweeps).  Each entry of the returned list is ``("ok", result)``
    or ``("err", exc)`` — a failing shard must not take its batchmates'
    results down with it; the parent re-raises per shard so retry
    semantics stay per-shard.
    """
    results = []
    for job in jobs:
        try:
            results.append(("ok", run_worker_shard(job)))
        except BaseException as exc:  # noqa: BLE001 — travels to the parent
            results.append(("err", exc))
    return results


def _evaluate_shard(job: ShardJob) -> tuple:
    """The untraced shard evaluation: inline or shm columns streamed
    through the sweep's chunk loop."""
    from .batched import _stream_shard

    t0 = time.perf_counter()
    model = _program(job.spec)

    def stream(columns, out=None):
        return _stream_shard(
            model, columns, job.hi - job.lo, job.metric, job.order,
            job.require_stable, offset=job.lo, strict=job.strict,
            chunk_points=job.chunk_points, shard=job.shard, out=out)

    if job.shm_out is None:
        # inline path: columns arrived pre-sliced in the job itself
        columns = list(job.scalars)
        for row, pos in enumerate(job.array_positions):
            columns[pos] = job.inline_arrays[row]
        values, stats, diag = stream(columns)
        stats.worker_busy[f"pid-{os.getpid()}"] = time.perf_counter() - t0
        return ("vals", job.lo, job.hi, stats, diag, values)

    shm_in = _attach(job.shm_in) if job.shm_in is not None else None
    shm_out = _attach(job.shm_out)
    try:
        columns = list(job.scalars)
        slab = None
        if shm_in is not None:
            slab = np.ndarray((len(job.array_positions), job.n_points),
                              dtype=np.float64, buffer=shm_in.buf)
            for row, pos in enumerate(job.array_positions):
                columns[pos] = slab[row, job.lo:job.hi]
        out = np.ndarray((job.n_points,), dtype=np.complex128,
                         buffer=shm_out.buf)
        try:
            # chunks write straight into this shard's slice of the slab;
            # keep no reference to the returned view (see finally)
            stats, diag = stream(columns, out=out[job.lo:job.hi])[1:]
        finally:
            # every view of the shm buffers must be gone before close()
            del out, columns
            slab = None
    finally:
        if shm_in is not None:
            shm_in.close()
        shm_out.close()
    stats.worker_busy[f"pid-{os.getpid()}"] = time.perf_counter() - t0
    return ("shm", job.lo, job.hi, stats, diag)
