"""Process-wide metrics registry: counters, gauges, log-bucket histograms.

The registry replaces bespoke parallel accounting structs as the *sink*:
:class:`~repro.runtime.stats.RuntimeStats`,
:class:`~repro.diagnostics.SweepDiagnostics`, and
:class:`~repro.runtime.cache.ProgramCache` keep their user-facing APIs
but publish their counts here, so one Prometheus-style scrape (or JSONL
dump) sees the whole pipeline.  Metric names follow Prometheus
conventions (``repro_<component>_<what>_total`` for counters,
``*_seconds`` histograms for durations).

Instruments are cheap (one lock acquisition per update) and always on;
registration is idempotent, so call sites just do
``registry().counter("repro_cache_hits_total").inc()``.
"""

from __future__ import annotations

import bisect
import math
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "set_registry",
]

#: fixed log-scale histogram bucket upper bounds: half-decade steps from
#: 100 ns to ~31.6 ks, wide enough for per-op times and whole-run walls.
LOG_BUCKETS: tuple[float, ...] = tuple(
    10.0 ** (e / 2.0) for e in range(-14, 10))


class Counter:
    """Monotone counter."""

    __slots__ = ("name", "help", "value", "_lock")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self.value += amount

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-written value, with optional constant labels.

    Labels are for identity-style gauges (``repro_build_info``) whose
    value is 1 and whose information lives in the label set; ordinary
    gauges leave ``labels`` as ``None`` and the exposition renders the
    bare name.
    """

    __slots__ = ("name", "help", "value", "labels", "_lock")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = math.nan
        self.labels: dict[str, str] | None = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def set_labels(self, labels: dict[str, str]) -> "Gauge":
        with self._lock:
            self.labels = {str(k): str(v) for k, v in labels.items()}
        return self

    def to_dict(self) -> dict:
        record = {"type": "gauge", "value": self.value}
        if self.labels:
            record["labels"] = dict(self.labels)
        return record


class Histogram:
    """Histogram over fixed log-scale buckets (:data:`LOG_BUCKETS`).

    Cumulative bucket counts plus sum/count/min/max — mergeable across
    processes by addition, exactly what the Prometheus textfile format
    wants.
    """

    __slots__ = ("name", "help", "buckets", "counts", "sum", "count",
                 "vmin", "vmax", "_lock")

    def __init__(self, name: str, help: str = "",
                 buckets: tuple[float, ...] = LOG_BUCKETS) -> None:
        self.name = name
        self.help = help
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0
        self.vmin = math.inf
        self.vmax = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self.counts[idx] += 1
            self.sum += value
            self.count += 1
            if value < self.vmin:
                self.vmin = value
            if value > self.vmax:
                self.vmax = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    @contextmanager
    def time(self) -> Iterator[None]:
        """Observe the wall time of the enclosed block."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - t0)

    def to_dict(self) -> dict:
        return {
            "type": "histogram",
            "sum": self.sum,
            "count": self.count,
            "min": self.vmin if self.count else None,
            "max": self.vmax if self.count else None,
            "buckets": {
                **{repr(b): c for b, c in zip(self.buckets, self.counts)
                   if c},
                **({"+Inf": self.counts[-1]} if self.counts[-1] else {}),
            },
        }


class MetricsRegistry:
    """Name-keyed collection of instruments.

    ``counter`` / ``gauge`` / ``histogram`` create on first use and
    return the existing instrument after (registering a name as two
    different kinds is an error).
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._bound: dict = {}
        self._generation = 0  # bumped by reset(), which drops _bound
        self._lock = threading.Lock()

    def _get_or_make(self, cls, name: str, help: str):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = self._instruments[name] = cls(name, help)
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(inst).__name__}, not {cls.__name__}")
            return inst

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_make(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_make(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get_or_make(Histogram, name, help)

    def bind(self, build: Callable[["MetricsRegistry"], object]):
        """``build(self)``, built once per registry (and again after
        :meth:`reset`): an emitter that runs per sweep or per request
        looks its instruments up once, not once per update."""
        bound = self._bound.get(build)
        if bound is None:
            generation = self._generation
            bound = build(self)
            with self._lock:
                # a reset() while building orphaned what was built
                if generation == self._generation:
                    bound = self._bound.setdefault(build, bound)
        return bound

    @contextmanager
    def time(self, name: str, help: str = "") -> Iterator[None]:
        """Observe the enclosed block's wall time into histogram ``name``."""
        with self.histogram(name, help).time():
            yield

    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def get(self, name: str):
        with self._lock:
            return self._instruments.get(name)

    def snapshot(self) -> dict[str, dict]:
        """All instruments as plain dicts, sorted by name."""
        with self._lock:
            items = sorted(self._instruments.items())
        return {name: inst.to_dict() for name, inst in items}

    def reset(self) -> None:
        with self._lock:
            self._instruments.clear()
            self._bound.clear()
            self._generation += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide default registry every emitter publishes into."""
    return _REGISTRY


def set_registry(reg: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry (tests; returns the previous one)."""
    global _REGISTRY
    previous, _REGISTRY = _REGISTRY, reg
    return previous
