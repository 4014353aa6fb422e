"""Content-addressed model registry with single-flight compilation.

The registry is the serving layer's warm-model pool.  Models are
*registered* by name with a recipe (circuit + output + symbols + Padé
order); they are *compiled* lazily on first use through the process-wide
:class:`~repro.runtime.cache.ProgramCache`, so the cache key —
``ProgramCache.key_for`` over the circuit content fingerprint, output,
symbol set, order and schema — is the registry's identity too: two
names registering byte-identical recipes share one compiled program.

Registration is a **snapshot**: :meth:`ModelRegistry.register` copies
the circuit (elements are immutable, so the copy is one dict) and keys
the copy once, so no request hashes the circuit again, and editing the
caller's circuit afterwards changes nothing that is served until the
name is registered again.

Compilation is **single-flight**: N concurrent requests for a cold
model trigger exactly one compile (the first caller compiles; each
follower awaits a future of its own that the compile resolves).
Compiles run in the server's thread-pool executor, the only work the
service moves off the event loop (batches run on it), so a cold
compile never stalls the requests being served.

Each entry carries its own :class:`~repro.service.policies.
CircuitBreaker` and a pre-built **degraded fallback**: the same
compiled program evaluated at Padé order 1.  Order 1 needs only the
first two moments — always present — and is the cheapest, most
numerically robust reduction, so it is the thing the service can still
serve when the full-order path trips the breaker (flagged ``degraded``,
accuracy bounded by the tolerance ladder's loosest rung).
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..circuits import Circuit
from ..core.awesymbolic import AWESymbolicResult
from ..obs import metrics as _metrics
from ..obs import recorder as _recorder
from ..runtime.cache import ProgramCache, default_cache
from .errors import UnknownModel
from .policies import BreakerConfig, CircuitBreaker

__all__ = ["ModelEntry", "ModelRegistry", "RegisteredRecipe"]


@dataclass(frozen=True)
class RegisteredRecipe:
    """Everything needed to (re)compile one served model, and its
    registry key, computed once at registration."""

    name: str
    circuit: Circuit | None  #: a private snapshot; None for a tape
    output: str
    symbols: tuple[str, ...] | None
    order: int
    key: str
    options: dict = field(default_factory=dict)


@dataclass
class ModelEntry:
    """One warm model: compiled program + health machinery."""

    key: str
    recipe: RegisteredRecipe
    result: AWESymbolicResult  #: compiled, or loaded from a tape
    breaker: CircuitBreaker
    compiled_at: float = field(default_factory=time.monotonic)
    last_used: float = field(default_factory=time.monotonic)
    served: int = 0

    @property
    def model(self):
        """The evaluatable model (drives ``batched_sweep``)."""
        return self.result.model


class ModelRegistry:
    """Named models over a content-addressed compile cache.

    Args:
        cache: program cache supplying keys and compiled results
            (defaults to the process-wide cache).
        breaker_config: thresholds for each entry's circuit breaker.
        max_warm: LRU budget for warm entries; eviction drops only the
            registry's warm handle — the program cache keeps the
            compiled artifact, so re-warming is a cache hit, not a
            recompile.
        clock: injectable monotonic clock (breaker cooldowns in tests).
    """

    def __init__(self, cache: ProgramCache | None = None,
                 breaker_config: BreakerConfig | None = None,
                 max_warm: int = 8,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if max_warm < 1:
            raise ValueError(f"max_warm must be >= 1, got {max_warm}")
        self.cache = cache if cache is not None else default_cache()
        self.breaker_config = breaker_config
        self.max_warm = max_warm
        self._clock = clock
        self._recipes: dict[str, RegisteredRecipe] = {}
        self._entries: dict[str, ModelEntry] = {}   # cache key -> entry
        # cache key -> futures of the callers waiting on its compile
        self._compiling: dict[str, list[asyncio.Future]] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, name: str, circuit: Circuit, output: str,
                 symbols: Sequence[str] | None = None, order: int = 2,
                 **options) -> str:
        """Register a snapshot of the recipe under ``name``; returns its
        cache key.  Later edits to ``circuit`` are not served until
        ``name`` is registered again."""
        circuit = circuit.copy()
        symbols = tuple(symbols) if symbols is not None else None
        recipe = RegisteredRecipe(
            name=name, circuit=circuit, output=output, symbols=symbols,
            order=order, options=dict(options),
            key=self.cache.key_for(circuit, output, symbols, order,
                                   **options))
        self._recipes[name] = recipe
        return recipe.key

    def register_tape(self, path: str, name: str | None = None) -> str:
        """Register a preloaded **op-tape artifact** and warm it now.

        The tape (see :mod:`repro.symbolic.tape`) is loaded and
        integrity-verified immediately — a corrupt artifact is refused at
        registration, not at first request — and its loaded result
        (:meth:`~repro.core.awesymbolic.AWESymbolicResult.from_tape`, the
        same a program-cache disk hit returns) goes straight into the
        warm pool: loading *is* the compile, so the first request pays
        nothing.  The entry's identity is the tape content hash; if the
        warm handle is later evicted, :meth:`ensure` re-loads from
        ``path``.  Returns the registry key.
        """
        from ..symbolic.tape import load_tape

        tape = load_tape(path)
        result = AWESymbolicResult.from_tape(tape)
        model = result.model
        if name is None:
            name = (os.path.splitext(os.path.basename(path))[0]
                    or model.title)
        key = f"tape:{tape.content_hash[:32]}:{model.order}"
        recipe = RegisteredRecipe(
            name=name, circuit=None, output=model.output,
            symbols=tuple(s.name for s in model.space.symbols),
            order=model.order, key=key,
            options={"tape_path": str(path)})
        self._recipes[name] = recipe
        entry = ModelEntry(
            key=key, recipe=recipe, result=result,
            breaker=CircuitBreaker(self.breaker_config,
                                   clock=self._clock, name=name))
        self._store(key, entry)
        return key

    @staticmethod
    def key_of(recipe: RegisteredRecipe) -> str:
        """The recipe's registry key (stored at registration)."""
        return recipe.key

    @property
    def names(self) -> list[str]:
        return sorted(self._recipes)

    def recipe(self, name: str) -> RegisteredRecipe:
        try:
            return self._recipes[name]
        except KeyError:
            raise UnknownModel(
                f"model {name!r} is not registered "
                f"(have: {self.names})") from None

    def describe(self) -> list[dict]:
        """Inventory for ``GET /v1/models``."""
        out = []
        for name in self.names:
            recipe = self._recipes[name]
            entry = self._entries.get(recipe.key)
            out.append({
                "name": name,
                "key": recipe.key[:16],
                "output": recipe.output,
                "order": recipe.order,
                "warm": entry is not None,
                "breaker": entry.breaker.state if entry else None,
                "served": entry.served if entry else 0,
            })
        return out

    # ------------------------------------------------------------------
    # single-flight compile
    # ------------------------------------------------------------------
    async def ensure(self, name: str,
                     executor=None) -> ModelEntry:
        """The warm entry for ``name``, compiling at most once.

        Concurrent callers for the same cold key wait for one compile:
        the winner runs ``cache.get_or_build`` in ``executor`` (or the
        loop's default) and resolves each follower's own future before
        its own request goes on, so the whole cold burst wakes in one
        loop turn and coalesces into one batch (cancelling a follower
        leaves the compile and the others alone).  A failed compile
        rejects every waiter and clears the single-flight slot so the
        next request retries.
        """
        recipe = self.recipe(name)
        key = recipe.key
        entry = self._entries.get(key)
        if entry is not None:
            entry.last_used = self._clock()
            return entry

        loop = asyncio.get_running_loop()
        waiters = self._compiling.get(key)
        if waiters is not None:
            _metrics.registry().counter(
                "repro_serve_compile_coalesced_total",
                "compile requests satisfied by an in-flight compile").inc()
            waiter = loop.create_future()
            waiters.append(waiter)
            return await waiter

        waiters = self._compiling[key] = []
        try:
            result = await loop.run_in_executor(
                executor, self._compile_sync, recipe)
            entry = ModelEntry(
                key=key, recipe=recipe, result=result,
                breaker=CircuitBreaker(self.breaker_config,
                                       clock=self._clock, name=name))
            self._store(key, entry)
        except BaseException as exc:
            for waiter in waiters:
                if not waiter.done():
                    waiter.set_exception(exc)
            raise
        finally:
            self._compiling.pop(key, None)
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(entry)
        return entry

    def _compile_sync(self, recipe: RegisteredRecipe):
        _metrics.registry().counter(
            "repro_serve_compile_total", "model compiles started").inc()
        _recorder.record("compile", model=recipe.name,
                         order=recipe.order)
        from ..testing.faults import fault_point
        fault_point("service.compile", name=recipe.name)
        tape_path = recipe.options.get("tape_path")
        if tape_path is not None:
            # tape-backed entry evicted from the warm pool: re-warming is
            # a load + integrity check, never a compile
            from ..symbolic.tape import load_tape
            return AWESymbolicResult.from_tape(load_tape(tape_path))
        return self.cache.get_or_build(
            recipe.circuit, recipe.output, symbols=recipe.symbols,
            order=recipe.order, **recipe.options)

    def _store(self, key: str, entry: ModelEntry) -> None:
        self._entries[key] = entry
        while len(self._entries) > self.max_warm:
            coldest = min(self._entries,
                          key=lambda k: self._entries[k].last_used)
            if coldest == key and len(self._entries) == 1:
                break
            del self._entries[coldest]
        _metrics.registry().gauge(
            "repro_serve_warm_models", "models warm in the registry"
        ).set(len(self._entries))

    # ------------------------------------------------------------------
    def drop(self, name: str) -> bool:
        """Forget a recipe and its warm entry (compiled artifact stays
        in the program cache)."""
        recipe = self._recipes.pop(name, None)
        if recipe is None:
            return False
        self._entries.pop(recipe.key, None)
        return True
