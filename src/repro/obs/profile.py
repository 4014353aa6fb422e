"""Op-level profiler for compiled straight-line moment programs.

The paper's per-iteration cost is a short compiled op sequence; this
module answers *which ops* that cost goes to.  Given a compiled function
exposing ``instrumented()`` (see
:meth:`repro.symbolic.compile.CompiledFunction.instrumented` — the
program's op tape exploded into one statement per tape op, each followed
by a timestamp), :func:`profile_program` samples the program over
grid-batch arguments and aggregates per-op wall time, keeping each op's
symbolic provenance (the expression it computes) for the hot-op report.
Every compiled program carries its tape, so any program profiles —
freshly compiled, or loaded from a ``.tape`` artifact or a program-cache
entry.

The profiler stays dependency-free: it only needs the duck-typed
``instrumented()`` / ``eval_raw()`` surface, so :mod:`repro.obs` never
imports the symbolic layer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["OpCost", "OpProfile", "profile_program"]


@dataclass
class OpCost:
    """Aggregated cost of one program op across all sampled batches.

    Attributes:
        index: position in the straight-line program.
        kind: op kind (``add``/``mul``/``div``/``pow``/``sqrt``/...).
        expr: symbolic provenance — the (truncated) expression this op
            computes, rendered over the model's symbol names.
        ops: arithmetic operation count of the op (1 for a tape op, so
            the entries' ops sum to the program's ``n_ops``).
        seconds: total wall time attributed to this op.
        fraction: ``seconds`` over the total attributed time.
    """

    index: int
    kind: str
    expr: str
    ops: int
    seconds: float
    fraction: float = 0.0

    def to_dict(self) -> dict:
        return {"index": self.index, "kind": self.kind, "expr": self.expr,
                "ops": self.ops, "seconds": self.seconds,
                "fraction": self.fraction}


@dataclass
class OpProfile:
    """Result of one :func:`profile_program` run.

    Attributes:
        entries: per-op costs, sorted hottest first.
        measured_seconds: wall time of the instrumented program across
            all repeats (the window the per-op times partition).
        plain_seconds: wall time of the *uninstrumented* program across
            the same number of repeats (the honest evaluate cost; the
            difference is timer overhead).
        n_points: grid points per batch (max broadcast argument size).
        repeats: batches sampled.
    """

    entries: list[OpCost] = field(default_factory=list)
    measured_seconds: float = 0.0
    plain_seconds: float = 0.0
    n_points: int = 0
    repeats: int = 0

    @property
    def attributed_seconds(self) -> float:
        return sum(e.seconds for e in self.entries)

    @property
    def coverage(self) -> float:
        """Fraction of the measured evaluate window attributed to ops."""
        if self.measured_seconds <= 0.0:
            return 0.0
        return self.attributed_seconds / self.measured_seconds

    def top(self, k: int = 10) -> list[OpCost]:
        return self.entries[:k]

    def table(self, k: int = 10) -> str:
        """Human-readable top-k hot-op table."""
        lines = [
            f"op profile: {len(self.entries)} program ops, "
            f"{self.n_points} points/batch x {self.repeats} batches",
            f"  measured {self.measured_seconds * 1e3:.3f} ms instrumented "
            f"({self.plain_seconds * 1e3:.3f} ms plain), "
            f"{self.coverage * 100.0:.1f}% attributed to ops",
            f"  {'rank':>4} {'%':>6} {'cum%':>6} {'ms':>9} "
            f"{'kind':<5} expression",
        ]
        cum = 0.0
        for rank, e in enumerate(self.top(k), start=1):
            cum += e.fraction
            lines.append(
                f"  {rank:>4} {e.fraction * 100.0:>6.1f} {cum * 100.0:>6.1f} "
                f"{e.seconds * 1e3:>9.4f} {e.kind:<5} {e.expr}")
        return "\n".join(lines)

    def to_dict(self, k: int | None = None) -> dict:
        entries = self.entries if k is None else self.top(k)
        return {
            "measured_seconds": self.measured_seconds,
            "plain_seconds": self.plain_seconds,
            "attributed_seconds": self.attributed_seconds,
            "coverage": self.coverage,
            "n_points": self.n_points,
            "repeats": self.repeats,
            "n_entries": len(self.entries),
            "entries": [e.to_dict() for e in entries],
        }


def _batch_size(args) -> int:
    size = 1
    for a in args:
        n = getattr(a, "size", None)
        if n is not None and n > size:
            size = int(n)
    return size


def profile_program(fn, args, repeats: int = 5) -> OpProfile:
    """Sample per-op timings of ``fn`` over one argument batch.

    Args:
        fn: a compiled function exposing ``instrumented()`` (returning
            ``(callable, labels)``) and ``eval_raw(*args)``.
        args: positional arguments — typically flattened grid columns
            from :func:`repro.runtime.grid_columns`, so each op runs
            vectorized over the whole batch and per-op numpy time
            dominates the timer overhead.
        repeats: batches to sample (per-op times accumulate).

    Returns:
        An :class:`OpProfile` with entries sorted hottest-first.
    """
    instrumented, labels = fn.instrumented()
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    n_slots = len(labels)
    totals = [0.0] * n_slots
    rec = [0.0] * (n_slots + 1)
    measured = 0.0
    plain = 0.0
    perf = time.perf_counter
    # unrecorded warm-up: the first call pays allocator/cache effects that
    # would otherwise be booked against whichever op runs first
    fn.eval_raw(*args)
    instrumented(*args, _rec=rec)
    for _ in range(repeats):
        t0 = perf()
        fn.eval_raw(*args)
        plain += perf() - t0
        instrumented(*args, _rec=rec)
        measured += rec[n_slots] - rec[0]
        for i in range(n_slots):
            totals[i] += rec[i + 1] - rec[i]
    entries = [
        OpCost(index=i, kind=label["kind"], expr=label["expr"],
               ops=label["ops"], seconds=totals[i])
        for i, label in enumerate(labels)
    ]
    attributed = sum(totals) or 1.0
    for e in entries:
        e.fraction = e.seconds / attributed
    entries.sort(key=lambda e: e.seconds, reverse=True)
    return OpProfile(entries=entries, measured_seconds=measured,
                     plain_seconds=plain, n_points=_batch_size(args),
                     repeats=repeats)
