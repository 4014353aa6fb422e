"""Deterministic fault injection at named sites.

AWE's failure modes are numerical and environmental — singular Hankel
systems, NaN moments, dead or hung shard workers, a process killed
mid-cache-write.  Reproducing them on demand is what this module is for:
production code calls :func:`fault_point` at *named sites*, which costs a
single module-attribute check unless a :class:`FaultInjector` is armed.
Tests arm an injector with per-site plans — an exception to raise, a
payload mutation, a sleep — plus exact trigger conditions (fire counts
and payload predicates), so every chaos test is reproducible down to the
grid point or shard index that fails.

Known sites (kept in sync with their call sites):

===================  ===================================================
site                 fires
===================  ===================================================
``pade.hankel``      before the order-q Hankel solve in
                     :func:`repro.awe.pade.pade_coefficients`
                     (payload: ``order``) — the scalar path only: the
                     batched runtime's stacked order > 2 attempts do not
                     pass it, its per-point fallback does
``pade.fast``        on entry of
                     :func:`repro.awe.pade.fast_poles_residues`
                     (payload: ``order``)
``sweep.moments``    after the compiled moment program evaluated a chunk
                     in the batched runtime (payload: ``moments`` —
                     mutable ``(n_moments, n_points)`` array — and
                     ``offset``, the chunk's global flat-index base)
``sweep.shard``      on entry of every shard execution attempt (payload:
                     ``shard``, ``attempt`` — ``-1`` for the serial
                     in-process fallback — ``lo``, ``hi``)
``cache.write``      midway through an atomic cache write, after the
                     first half of the payload hit the temp file
                     (payload: ``path``, ``tmp``)
``service.compile``  at the start of a serving-layer model compile in
                     :meth:`repro.service.registry.ModelRegistry.ensure`
                     (payload: ``name`` — the registered model name)
===================  ===================================================

Example::

    injector = FaultInjector()
    injector.raises("sweep.shard", RuntimeError("worker died"),
                    when=lambda p: p["shard"] == 1 and p["attempt"] == 0)
    with injector.armed():
        surface = model.sweep(grids, metric, shards=4, max_workers=2)
    assert injector.fired("sweep.shard") == 1
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

__all__ = [
    "ACTIVE",
    "FaultInjector",
    "InjectedFault",
    "fault_point",
    "no_active_injector",
]


class InjectedFault(Exception):
    """Default exception raised by armed fault sites.

    Deliberately *not* a :class:`~repro.errors.ReproError`: the resilience
    layer treats library errors as deterministic (never retried) and
    everything else as infrastructure failures (retried), and injected
    crashes model the latter.
    """


@dataclass
class _FaultPlan:
    """One armed behavior at one site."""

    site: str
    handler: Callable[[dict], Any]
    times: int | None = 1  #: max fires; ``None`` = unlimited
    when: Callable[[dict], bool] | None = None  #: payload predicate
    fired: int = 0

    def matches(self, payload: dict) -> bool:
        if self.times is not None and self.fired >= self.times:
            return False
        if self.when is not None and not self.when(payload):
            return False
        return True


@dataclass
class FaultInjector:
    """A set of armed fault plans plus a log of everything that fired.

    Thread-safe: shard workers fire sites concurrently, and plan
    bookkeeping (fire counts, the log) is guarded by a lock.  Determinism
    comes from payload predicates (``when=``), which select faults by
    stable coordinates (shard index, attempt number) rather than by
    nondeterministic arrival order.
    """

    _plans: dict[str, list[_FaultPlan]] = field(default_factory=dict)
    log: list[tuple[str, dict]] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def on(self, site: str, handler: Callable[[dict], Any], *,
           times: int | None = 1,
           when: Callable[[dict], bool] | None = None) -> "FaultInjector":
        """Arm ``handler(payload)`` at ``site``; chainable."""
        self._plans.setdefault(site, []).append(
            _FaultPlan(site=site, handler=handler, times=times, when=when))
        return self

    def raises(self, site: str, exc: BaseException | None = None, *,
               times: int | None = 1,
               when: Callable[[dict], bool] | None = None) -> "FaultInjector":
        """Arm ``site`` to raise ``exc`` (default :class:`InjectedFault`)."""
        error = exc if exc is not None else InjectedFault(
            f"injected fault at {site!r}")

        def handler(payload: dict):
            raise error

        return self.on(site, handler, times=times, when=when)

    def sleeps(self, site: str, seconds: float, *,
               times: int | None = 1,
               when: Callable[[dict], bool] | None = None) -> "FaultInjector":
        """Arm ``site`` to stall for ``seconds`` (slow / hung worker)."""
        return self.on(site, lambda payload: time.sleep(seconds),
                       times=times, when=when)

    def nan_moments(self, indices) -> "FaultInjector":
        """Arm ``sweep.moments`` to overwrite the given *global* flat grid
        indices with NaN — the "moment evaluation went numerically bad"
        failure, placed deterministically regardless of sharding."""
        targets = sorted(int(i) for i in indices)

        def handler(payload: dict):
            moments = payload["moments"]
            offset = int(payload.get("offset", 0))
            n = moments.shape[1]
            local = [i - offset for i in targets if offset <= i < offset + n]
            if local:
                moments[:, local] = float("nan")

        # fire on every chunk (sharding decides which chunk holds a target)
        return self.on("sweep.moments", handler, times=None)

    # ------------------------------------------------------------------
    # firing
    # ------------------------------------------------------------------
    def fire(self, site: str, payload: dict) -> None:
        """Run every matching plan at ``site`` (called via
        :func:`fault_point`; handlers may raise or mutate the payload)."""
        plans = self._plans.get(site)
        if not plans:
            return
        to_run = []
        with self._lock:
            for plan in plans:
                if plan.matches(payload):
                    plan.fired += 1
                    self.log.append(
                        (site, {k: v for k, v in payload.items()
                                if isinstance(v, (int, float, str, bool))}))
                    to_run.append(plan)
        for plan in to_run:
            plan.handler(payload)

    def fired(self, site: str) -> int:
        """Total fires recorded at ``site``."""
        with self._lock:
            return sum(p.fired for p in self._plans.get(site, []))

    # ------------------------------------------------------------------
    # activation
    # ------------------------------------------------------------------
    def armed(self) -> "_Armed":
        """Context manager installing this injector as the process-wide
        active one (sites are no-ops outside the ``with`` block)."""
        return _Armed(self)


class _Armed:
    def __init__(self, injector: FaultInjector) -> None:
        self.injector = injector
        self._previous: FaultInjector | None = None

    def __enter__(self) -> FaultInjector:
        global ACTIVE
        self._previous = ACTIVE
        ACTIVE = self.injector
        return self.injector

    def __exit__(self, *exc_info) -> None:
        global ACTIVE
        ACTIVE = self._previous


#: the currently armed injector (``None`` = all sites are no-ops).  Hot
#: call sites may check this attribute directly instead of paying a
#: :func:`fault_point` call.
ACTIVE: FaultInjector | None = None


def fault_point(site: str, **payload) -> None:
    """Fire ``site`` on the armed injector, if any.

    The production-code hook: a no-op (one global check) when no injector
    is armed.  Payload values are site-specific; mutable entries (e.g. a
    moments array) may be modified in place by handlers.
    """
    injector = ACTIVE
    if injector is not None:
        injector.fire(site, payload)


def no_active_injector() -> bool:
    """True when every fault site is a no-op (the production state)."""
    return ACTIVE is None
