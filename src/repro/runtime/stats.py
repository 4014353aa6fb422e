"""Lightweight instrumentation for the batched sweep runtime.

The paper's evaluation (Table 1) hinges on separating the *setup* cost
(symbolic derivation + compilation, paid once) from the *per-iteration*
cost (the compiled straight-line program).  :class:`RuntimeStats` keeps
that accounting honest for batched sweeps: per-stage wall times, point
counters splitting the vectorized fast path from the per-point fallback,
and the op count of the compiled program, so benchmarks can report
compile-vs-evaluate cost instead of one opaque total.

Its bookkeeping costs a fixed handful of calls per sweep, because a
1-point sweep is the paper's per-iteration operation: a stage is a
slotted timer, :meth:`RuntimeStats.merge` walks a field tuple computed
once, and :meth:`RuntimeStats.publish` updates instruments it looked up
once per metrics registry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

from ..obs import metrics as _metrics
from ..obs import trace as _trace


@dataclass
class RuntimeStats:
    """Counters and per-stage timers for one batched sweep.

    Attributes:
        points: total grid points evaluated.
        vectorized_points: points fully served by array ops (moments,
            the order-1/2 closed forms or the order > 2 stable-order
            ladder, and the metric).
        fallback_points: points routed through the per-point numeric
            Padé / stability fallback (degenerate or unstable fast Padé,
            or no order of the ladder settled).
        nan_points: points that ended up NaN (degenerate Padé).
        quarantined_points: points removed by the resilience layer (see
            the sweep's ``diagnostics`` report for the per-point records).
        shards: number of grid shards the sweep was split into.
        workers: worker threads/processes used (1 = serial).
        backend: execution backend the sweep resolved to
            (``"serial"``, ``"thread"``, or ``"process"``).
        spawn_seconds: one-time cost of standing up the process pool
            (0 for serial/thread backends and for warm pool reuse) —
            the amortized overhead the process backend pays once.
        worker_busy: wall seconds each worker spent inside shard
            evaluation, keyed by worker identity (``"main"``,
            ``"thread-<ident>"``, or ``"pid-<pid>"``) — the raw data
            behind :attr:`parallel_efficiency` for multi-worker runs.
        n_ops: arithmetic op count of the compiled moment program.
        compile_seconds: time spent compiling the symbolic model
            (amortized setup, not per-sweep; copied from the model, and
            published as a gauge of the swept model, not per sweep).
        columns_seconds: building the flattened argument columns from
            the grids (meshgrid + element→symbol transforms).
        evaluate_seconds: evaluating the compiled moment program over the
            grid (the paper's "reduced set of operations").
        health_seconds: per-chunk health summaries (determinant, moment
            decay, Hankel condition) for the diagnostics report.
        pade_seconds: vectorized pole/residue extraction.
        metric_seconds: metric evaluation plus per-point fallback work.
        finalize_seconds: splicing shard results, the NaN count, the
            complex→float collapse and the diagnostics finalize.
        total_seconds: wall-clock for the whole sweep call.  The named
            stages above partition it, up to dispatch glue.  Per-shard
            stage times (evaluate, health, pade, metric) are summed
            across shards, so with parallel workers their sum can exceed
            ``total_seconds``; :attr:`parallel_efficiency` normalizes
            that sum into a utilization figure.
    """

    points: int = 0
    vectorized_points: int = 0
    fallback_points: int = 0
    nan_points: int = 0
    quarantined_points: int = 0
    shards: int = 0
    workers: int = 1
    n_ops: int = 0
    compile_seconds: float = 0.0
    columns_seconds: float = 0.0
    evaluate_seconds: float = 0.0
    health_seconds: float = 0.0
    pade_seconds: float = 0.0
    metric_seconds: float = 0.0
    finalize_seconds: float = 0.0
    total_seconds: float = 0.0
    backend: str = "serial"
    spawn_seconds: float = 0.0
    worker_busy: dict = field(default_factory=dict)

    def stage(self, name: str) -> "_Stage":
        """Accumulate wall time of the enclosed block into ``<name>_seconds``.

        Also opens an obs span ``sweep.<name>`` so traced runs see every
        stage (including per-shard ``sweep.evaluate`` / ``sweep.pade`` /
        ``sweep.metric`` on worker threads); when tracing is disabled the
        span is a shared no-op.
        """
        return _Stage(self, name)

    def merge(self, other: "RuntimeStats") -> "RuntimeStats":
        """Fold a shard's partial stats into this one (counters and stage
        times add; ``workers``/``n_ops``/``total_seconds`` are whole-sweep
        quantities and keep the maximum; ``backend`` is whole-sweep and
        keeps this sweep's value; ``worker_busy`` adds per worker)."""
        for name in _ADDED_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name in _MAX_FIELDS:
            setattr(self, name, max(getattr(self, name), getattr(other, name)))
        for key, busy in other.worker_busy.items():
            self.worker_busy[key] = self.worker_busy.get(key, 0.0) + busy
        return self

    @property
    def points_per_second(self) -> float:
        """Throughput over the whole sweep (0 when nothing was timed)."""
        if self.total_seconds <= 0.0:
            return 0.0
        return self.points / self.total_seconds

    @property
    def parallel_efficiency(self) -> float:
        """Stage busy-time over available worker-time, in ``[0, 1]``.

        Shard stage times (``evaluate + health + pade + metric``) are
        summed across shards, so with parallel workers their sum can
        exceed ``total_seconds``; dividing by ``workers * total_seconds``
        normalizes that into a utilization figure (1.0 = every worker
        busy in measured stages for the whole sweep; serial sweeps
        report the fraction of the wall spent inside shard stages).
        """
        if self.total_seconds <= 0.0:
            return 0.0
        busy = (self.evaluate_seconds + self.health_seconds
                + self.pade_seconds + self.metric_seconds)
        return min(1.0, busy / (max(1, self.workers) * self.total_seconds))

    # ------------------------------------------------------------------
    # serialization (the --stats JSON schema) and metrics emission
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Schema-stable JSON payload: every field plus derived rates.

        Round-trips through :meth:`from_dict` (derived keys are
        recomputed, not stored state).
        """
        # coerce to builtin types: counters accumulate numpy ints when the
        # shard bounds come from np.linspace, and the schema is JSON
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float":
                out[f.name] = float(value)
            elif f.type == "int":
                out[f.name] = int(value)
            elif f.name == "worker_busy":
                out[f.name] = {str(k): float(v) for k, v in value.items()}
            else:
                out[f.name] = str(value)
        out["points_per_second"] = self.points_per_second
        out["parallel_efficiency"] = self.parallel_efficiency
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RuntimeStats":
        """Rebuild from :meth:`to_dict` output (ignores derived keys)."""
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})

    def publish(self, registry=None) -> None:
        """Emit this sweep's accounting into the metrics registry.

        Called once per sweep by the batched runtime — RuntimeStats is
        the per-sweep struct, the registry is the process-wide rollup.
        The model's one-time compile cost is a gauge of the swept model,
        not a per-sweep observation: N sweeps of one model report one
        compile.
        """
        reg = registry if registry is not None else _metrics.registry()
        m = reg.bind(_SweepInstruments)
        m.runs.inc()
        m.points.inc(self.points)
        m.vectorized.inc(self.vectorized_points)
        m.fallback.inc(self.fallback_points)
        m.nan.inc(self.nan_points)
        for histogram, attr in m.stages:
            histogram.observe(getattr(self, attr))
        if self.spawn_seconds > 0.0:
            reg.histogram("repro_sweep_spawn_seconds",
                          "process-pool spawn cost paid by this sweep"
                          ).observe(self.spawn_seconds)
        m.compile.set(self.compile_seconds)
        m.ops.set(self.n_ops)
        m.efficiency.set(self.parallel_efficiency)

    def summary(self) -> str:
        """One-paragraph human-readable accounting."""
        lines = [
            f"runtime stats: {self.points} points "
            f"({self.vectorized_points} vectorized, "
            f"{self.fallback_points} fallback, {self.nan_points} NaN, "
            f"{self.quarantined_points} quarantined) "
            f"in {self.shards} shard(s) / {self.workers} worker(s) "
            f"[{self.backend}]",
            f"  compile  {self.compile_seconds * 1e3:9.3f} ms "
            f"(one-time, {self.n_ops} ops/point program)",
            f"  columns  {self.columns_seconds * 1e3:9.3f} ms   "
            f"evaluate {self.evaluate_seconds * 1e3:9.3f} ms   "
            f"health {self.health_seconds * 1e3:9.3f} ms",
            f"  pade     {self.pade_seconds * 1e3:9.3f} ms   "
            f"metric   {self.metric_seconds * 1e3:9.3f} ms   "
            f"finalize {self.finalize_seconds * 1e3:9.3f} ms",
            f"  total    {self.total_seconds * 1e3:9.3f} ms "
            f"({self.points_per_second:,.0f} points/s, "
            f"{self.parallel_efficiency * 100.0:.0f}% parallel efficiency)",
        ]
        return "\n".join(lines)


#: fields :meth:`RuntimeStats.merge` keeps the maximum of; every other
#: field but ``backend`` and ``worker_busy`` adds
_MAX_FIELDS = ("workers", "n_ops", "total_seconds")
_ADDED_FIELDS = tuple(f.name for f in fields(RuntimeStats)
                      if f.name not in _MAX_FIELDS + ("backend",
                                                      "worker_busy"))
#: the per-sweep stages :meth:`RuntimeStats.publish` observes
_STAGES = ("columns", "evaluate", "health", "pade", "metric", "finalize",
           "total")


class _Stage:
    """The context manager :meth:`RuntimeStats.stage` returns: a slotted
    timer around the stage's span, adding the block's wall time to one
    ``<stage>_seconds`` field."""

    __slots__ = ("stats", "attr", "span", "t0")

    def __init__(self, stats: RuntimeStats, name: str) -> None:
        self.stats = stats
        self.attr = name + "_seconds"
        self.span = _trace.span("sweep." + name)

    def __enter__(self) -> RuntimeStats:
        self.t0 = time.perf_counter()
        self.span.__enter__()
        return self.stats

    def __exit__(self, *exc_info) -> None:
        self.span.__exit__(*exc_info)
        stats, attr = self.stats, self.attr
        setattr(stats, attr,
                getattr(stats, attr) + time.perf_counter() - self.t0)


class _SweepInstruments:
    """The instruments :meth:`RuntimeStats.publish` updates, looked up
    once per registry (:meth:`~repro.obs.metrics.MetricsRegistry.bind`)."""

    __slots__ = ("runs", "points", "vectorized", "fallback", "nan",
                 "stages", "compile", "ops", "efficiency")

    def __init__(self, reg) -> None:
        self.runs = reg.counter("repro_sweep_runs_total",
                                "batched sweeps executed")
        self.points = reg.counter("repro_sweep_points_total",
                                  "grid points evaluated")
        self.vectorized = reg.counter(
            "repro_sweep_vectorized_points_total",
            "points served by the vectorized closed form")
        self.fallback = reg.counter(
            "repro_sweep_fallback_points_total",
            "points routed through the per-point fallback")
        self.nan = reg.counter("repro_sweep_nan_points_total", "NaN results")
        self.stages = tuple(
            (reg.histogram(f"repro_sweep_{name}_seconds",
                           f"per-sweep {name} stage wall time"),
             f"{name}_seconds") for name in _STAGES)
        self.compile = reg.gauge(
            "repro_sweep_model_compile_seconds",
            "one-time compile cost of the last swept model")
        self.ops = reg.gauge("repro_sweep_program_ops",
                             "ops/point of the last swept program")
        self.efficiency = reg.gauge(
            "repro_sweep_parallel_efficiency",
            "stage busy-time over worker-time of the last sweep")
