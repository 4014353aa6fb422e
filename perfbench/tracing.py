"""In-memory span recorder for the traced benchmark run (stdlib only).

The traced run wraps the library's exported entry points (the table in
``LAYER_ENTRY_POINTS``) for its own duration, so every call the benchmark
makes -- and every call those calls make into another listed entry point
-- records one span: layer name, start, end, parent, thread, and the id
of the sweep, iteration or request it belongs to.  Nothing under ``src/``
is modified; an entry point that no longer exists is reported as absent.

Self time is exclusive time: at every instant of a thread's timeline the
time goes to the innermost open span (deepest, then latest started).
Overlapping sibling spans -- concurrent requests on the event loop --
share the instant instead of counting it twice, so on the main thread the
per-layer self times plus the root's own self time (the unattributed
remainder) add up exactly to the root span, which covers the whole run.
"""

from __future__ import annotations

import contextlib
import heapq
import importlib
import itertools
import json
import math
import threading
import time
from collections import defaultdict

#: (module, attribute path, layer) for every wrapped entry point.  Two
#: bindings of one function (``repro.core.awesymbolic.partition`` and the
#: package attribute the cache's disk-rebuild path imports) share a layer.
LAYER_ENTRY_POINTS = (
    ("repro.core.awesymbolic", "partition", "partition.partition"),
    ("repro.partition", "partition", "partition.partition"),
    ("repro.core.awesymbolic", "condense_blocks", "partition.condense"),
    ("repro.partition.composite", "MomentRecursion.__init__",
     "partition.recursion"),
    ("repro.partition.composite", "MomentRecursion.extend",
     "partition.recursion"),
    ("repro.partition.composite", "MomentRecursion.moments",
     "partition.recursion"),
    ("repro.core.symbolic_pade", "SymbolicFirstOrder.from_moments",
     "core.closed_forms"),
    ("repro.core.symbolic_pade", "SymbolicSecondOrder.from_moments",
     "core.closed_forms"),
    ("repro.core.compiled_model", "CompiledAWEModel.__init__",
     "symbolic.codegen"),
    ("repro.symbolic.tape", "OpTape.build_function", "symbolic.codegen"),
    ("repro.symbolic.tape", "tape_for", "symbolic.tape"),
    ("repro.symbolic.tape", "fuse_moments", "symbolic.tape"),
    ("repro.symbolic.tape", "tape_from_model", "symbolic.tape"),
    ("repro.runtime.cache", "ProgramCache.get_or_build", "runtime.cache"),
    ("repro.runtime.batched", "batched_sweep", "runtime.batched_sweep"),
    ("repro.runtime.batched", "grid_columns", "runtime.columns"),
    ("repro.runtime.batched", "sample_columns", "runtime.columns"),
    ("repro.symbolic.compile", "CompiledFunction.eval_batch",
     "runtime.moments"),
    ("repro.runtime.batched", "vector_poles_residues", "runtime.pade"),
    ("repro.runtime.batched", "vector_poles_residues_general",
     "runtime.pade"),
    ("repro.runtime.batched", "VECTOR_METRICS[*]", "runtime.metric"),
    ("repro.runtime.batched", "rom_from_moments", "runtime.fallback"),
    ("repro.partition.composite", "CompiledMoments.scalars", "awe.scalars"),
    ("repro.core.compiled_model", "rom_from_moments", "awe.rom"),
)

#: layer of the root and section spans: their self time is the remainder
#: no listed layer accounts for
REMAINDER = "benchmark"

# span record layout (lists, so ``end`` and ``n`` can be filled in place)
LAYER, CTX, START, END, TID, DEPTH, OP, ID, PARENT, N = range(10)


class Recorder:
    """Collects spans in memory; one per-thread stack gives nesting."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.absent: set[str] = set()
        self.main_tid = threading.get_ident()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, layer: str, ctx: str | None = None,
              op: int | None = None, start: float | None = None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None:
            ctx = parent[CTX] if ctx is None else ctx
            op = parent[OP] if op is None else op
        span = [layer, ctx, time.perf_counter() if start is None else start,
                None, threading.get_ident(), len(stack), op, next(self._ids),
                parent[ID] if parent is not None else 0, 0]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # pragma: no cover - a wrapped call escaped LIFO order
            stack.remove(span)
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, layer: str, ctx: str | None = None, op: int | None = None):
        sp = self.begin(layer, ctx, op)
        try:
            yield sp
        finally:
            self.end(sp)

    def interval(self, layer: str, start: float, end: float, parent: list,
                 ctx: str | None = None, op: int | None = None) -> None:
        """A span timed by the caller (one asyncio request among many
        overlapping ones), nested under ``parent`` on this thread."""
        self.spans.append([layer, ctx or parent[CTX], start, end,
                           threading.get_ident(), parent[DEPTH] + 1, op,
                           next(self._ids), parent[ID], 0])

    # ------------------------------------------------------------------
    def wrap(self, fn, layer: str):
        rec = self

        def traced(*args, **kwargs):
            sp = rec.begin(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end(sp)

        traced.__wrapped__ = fn
        for attr in ("__name__", "__qualname__", "__doc__"):
            try:
                setattr(traced, attr, getattr(fn, attr))
            except (AttributeError, TypeError):
                pass
        return traced

    def wrap_sweep(self, fn):
        """``batched_sweep`` wrapper: also records the point count, so
        stage times can be reported per point of their sweep."""
        rec = self

        def traced(model, grids, *args, **kwargs):
            sp = rec.begin("runtime.batched_sweep")
            try:
                sizes = [len(v) for v in grids.values()]
                if kwargs.get("paired"):
                    sp[N] = sizes[0] if sizes else 0
                else:
                    n = 1
                    for s in sizes:
                        n *= s
                    sp[N] = n
                return fn(model, grids, *args, **kwargs)
            finally:
                rec.end(sp)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list:
        """Wrap every entry point; returns undo records for
        :meth:`uninstall`.  Missing entry points mark their layer absent
        unless another binding of the same layer was found."""
        undo: list = []
        found: set[str] = set()
        missing: set[str] = set()
        for module, path, layer in LAYER_ENTRY_POINTS:
            try:
                owner = importlib.import_module(module)
                parts = path.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                name = parts[-1]
                if name == "VECTOR_METRICS[*]":
                    table = owner.VECTOR_METRICS
                    saved = dict(table)
                    for key, fn in saved.items():
                        table[key] = self.wrap(fn, layer)
                    undo.append(("dict", table, saved))
                    found.add(layer)
                    continue
                raw = (owner.__dict__[name] if isinstance(owner, type)
                       else getattr(owner, name))
            except (ImportError, AttributeError, KeyError):
                missing.add(layer)
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, layer))
            elif layer == "runtime.batched_sweep":
                new = self.wrap_sweep(raw)
            else:
                new = self.wrap(raw, layer)
            setattr(owner, name, new)
            undo.append(("attr", owner, name, raw))
            found.add(layer)
        self.absent = missing - found
        return undo

    @staticmethod
    def uninstall(undo: list) -> None:
        for record in reversed(undo):
            if record[0] == "dict":
                record[1].clear()
                record[1].update(record[2])
            else:
                setattr(record[1], record[2], record[3])

    # ------------------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Exclusive time of every span, by span id (see module doc)."""
        by_thread: dict[int, list] = defaultdict(list)
        for sp in self.spans:
            if sp[END] is not None:
                by_thread[sp[TID]].append(sp)
        out: dict[int, float] = {}
        for spans in by_thread.values():
            events = []
            for sp in spans:
                events.append((sp[START], 1, sp))
                events.append((sp[END], 0, sp))
            events.sort(key=lambda e: (e[0], e[1]))
            heap: list = []
            open_ids: set[int] = set()
            prev = None
            for t, kind, sp in events:
                while heap and heap[0][2] not in open_ids:
                    heapq.heappop(heap)
                if heap and prev is not None:
                    top = heap[0][2]
                    out[top] = out.get(top, 0.0) + (t - prev)
                prev = t
                if kind:
                    open_ids.add(sp[ID])
                    heapq.heappush(heap, (-sp[DEPTH], -sp[START], sp[ID]))
                else:
                    open_ids.discard(sp[ID])
        return out

    def write_chrome(self, path) -> None:
        """Chrome trace-event JSON (open in chrome://tracing/Perfetto)."""
        t0 = min((sp[START] for sp in self.spans), default=0.0)
        tids: dict[int, int] = {}
        events = []
        for sp in self.spans:
            tid = tids.setdefault(sp[TID], len(tids))
            events.append({
                "name": sp[LAYER], "cat": sp[CTX] or "", "ph": "X",
                "ts": round((sp[START] - t0) * 1e6, 3),
                "dur": round((sp[END] - sp[START]) * 1e6, 3),
                "pid": 1, "tid": tid,
                "args": {"id": sp[ID], "parent": sp[PARENT], "op": sp[OP],
                         "n": sp[N]},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"absent": sorted(self.absent)}}, fh)


def span_overhead_s(calls: int = 20000) -> float:
    """Mean cost one wrapped call adds, measured on a no-op function."""
    rec = Recorder()

    def noop():
        return None

    traced = rec.wrap(noop, "calibrate")
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        best = min(best, (time.perf_counter() - t0 - plain) / calls)
        rec.spans.clear()
    return max(best, 0.0)


def pct(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method); NaN for
    no values."""
    if not values:
        return float("nan")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return pct(values, 50)
