"""Keyed cache of compiled AWEsymbolic programs.

Deriving a symbolic model is the expensive part of the paper's pipeline
(partitioning, numeric block condensation, the symbolic moment recursion);
evaluating it is microseconds.  The :class:`ProgramCache` memoizes the
derivation so repeated ``analyze`` / ``evaluate`` / benchmark invocations
skip straight to evaluation:

* **in-memory LRU** keyed on ``(circuit fingerprint, symbol set, output,
  order, extra options)`` — hits return the live
  :class:`~repro.core.awesymbolic.AWESymbolicResult`;
* **optional on-disk layer** storing the model tape
  (:mod:`repro.symbolic.tape`, the same artifact ``repro compile
  --emit-tape`` writes) under the key of the recipe that built it.  A
  disk hit verifies the tape and loads it — no partition, no symbolic
  solve, no lowering — into a *loaded* result
  (:meth:`~repro.core.awesymbolic.AWESymbolicResult.from_tape`), which
  has the model but no partition, polynomials or closed forms.  Entries
  record the key they were saved under; a stale, foreign or tampered
  entry is rejected and the model is rebuilt.

Both disk layers are typed wrappers over one
:class:`~repro.runtime.store.ArtifactStore` (atomic publish, sha256
digest, quarantine, LRU byte budget, ``repro doctor`` scan).  They add a
JSON envelope — the layer's schema (:data:`CACHE_SCHEMA` for program
entries, :data:`CONDENSE_SCHEMA` for condensations) and the key the entry
was saved under — and check it before the store checks the digest, so a
bad entry is quarantined as ``schema``, ``stale`` or ``corrupt``.

Keys are content hashes: the circuit fingerprint covers every element's
type, name, terminals and value, so *any* circuit edit invalidates the
cached program.

Two further layers serve the fast compile path:

* :class:`CondensationCache` persists the numeric block condensations
  (the Maclaurin port-admittance arrays ``Y0..Yq``) under content hashes
  of the block itself, so editing the symbol set or one block re-condenses
  only what changed — across processes, when the caller passes a
  disk-backed instance as the ``condense_cache`` option.
* :class:`ProgramCache` keeps a small LRU of live
  :class:`~repro.core.awesymbolic.CompileSession` objects keyed on
  everything *except* the Padé order, so an order-change miss extends the
  previous moment recursion incrementally instead of recompiling cold.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ..circuits.circuit import Circuit
from ..core.awesymbolic import (AWESymbolicResult, CompileSession,
                                awesymbolic)
from ..core.compiled_model import model_slots
from ..errors import TapeError
from ..obs import metrics as _metrics
from ..obs import recorder as _recorder
from ..obs import trace as _trace
from ..partition.ports import NumericBlockExpansion
from ..symbolic.tape import OpTape, tape_from_dict
from .store import ArtifactStore, BadEntry

__all__ = [
    "CACHE_SCHEMA",
    "CONDENSE_SCHEMA",
    "CacheStats",
    "CondensationCache",
    "ProgramCache",
    "cached_awesymbolic",
    "circuit_fingerprint",
    "default_cache",
]

#: on-disk schema of a program entry; bumped whenever its payload
#: changes (3: every entry carries a sha256 digest sidecar; 4: the entry
#: is a model tape).  Entries with any other value (including
#: pre-versioning files that have none) are quarantined and rebuilt.
CACHE_SCHEMA = 4

#: on-disk schema of a condensation entry, versioned apart from the
#: program entries' so a change to one format keeps the other's entries.
#: Its payload last changed with the digest sidecar (program schema 3);
#: it is 4 because both formats shared :data:`CACHE_SCHEMA` until then,
#: so the entries written under that value stay hits.
CONDENSE_SCHEMA = 4


def circuit_fingerprint(circuit: Circuit) -> str:
    """Content hash of a circuit: every element's type, name, terminals and
    values, independent of insertion order.  Any edit changes the hash."""
    h = hashlib.sha256()
    h.update(b"repro-circuit-v1\n")
    for element in sorted(circuit, key=lambda e: e.name):
        desc = [type(element).__name__]
        for f in dataclasses.fields(element):
            desc.append(f"{f.name}={getattr(element, f.name)!r}")
        h.update(("|".join(desc) + "\n").encode())
    return h.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`ProgramCache`.

    ``stale_rejects`` counts every disk entry that failed validation;
    ``quarantined`` counts the subset whose file was moved into the
    quarantine sidecar (the rest vanished before the move).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    stale_rejects: int = 0
    quarantined: int = 0
    build_seconds: float = 0.0

    def summary(self) -> str:
        return (f"program cache: {self.hits} hits / {self.misses} misses "
                f"({self.evictions} evicted), disk {self.disk_hits} hits / "
                f"{self.disk_misses} misses ({self.stale_rejects} stale, "
                f"{self.quarantined} quarantined), "
                f"{self.build_seconds * 1e3:.1f} ms building")


class _StoreCache:
    """A memory LRU over an optional :class:`ArtifactStore` of JSON
    envelopes ``<prefix><key32>.json`` in ``disk_dir``.

    Args:
        maxsize: in-memory entry budget (LRU beyond it).
        disk_dir: directory for persisted entries; ``None`` keeps the
            cache memory-only.
        max_disk_bytes: byte budget for this cache's entries, evicted
            LRU by mtime (refreshed on hit) after every save; ``None``
            leaves growth unbounded.
    """

    _PREFIX = ""

    def __init__(self, maxsize: int, disk_dir: Path | str | None,
                 max_disk_bytes: int | None) -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        if max_disk_bytes is not None and max_disk_bytes < 0:
            raise ValueError(
                f"max_disk_bytes must be >= 0, got {max_disk_bytes}")
        self.maxsize = maxsize
        self.max_disk_bytes = max_disk_bytes
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.stats = CacheStats()
        self._entries: OrderedDict = OrderedDict()
        self._store = None if self.disk_dir is None else ArtifactStore(
            self.disk_dir, self._PREFIX, ".json", max_disk_bytes, self.stats)

    def __len__(self) -> int:
        return len(self._entries)

    def _remember(self, key: str, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def _schema(self) -> int:
        """The schema this layer writes, keys and accepts."""
        raise NotImplementedError

    def _disk_path(self, key: str) -> Path | None:
        return None if self._store is None else self._store.path(key)

    def _publish(self, key: str, body: dict) -> Path | None:
        if self._store is None:
            return None
        envelope = {"schema": self._schema(), "cache_key": key,
                    "saved_at": time.time(), **body}
        return self._store.publish(key, json.dumps(envelope).encode())

    def _read(self, key: str):
        if self._store is None:
            return None
        return self._store.load(key, lambda data: self._decode(data, key))

    def _decode(self, data: bytes, key: str | None):
        """The store's validator: the envelope, then :meth:`_payload`."""
        payload = json.loads(data)
        if not isinstance(payload, dict):
            raise BadEntry("corrupt", "entry is not a JSON object")
        schema = self._schema()
        if payload.get("schema") != schema:
            # written by another code version: the envelope may not
            # mean what we think it means
            raise BadEntry("schema", f"schema {payload.get('schema')!r}, "
                                     f"expected {schema}")
        if key is not None and payload.get("cache_key") != key:
            # stale or foreign entry (e.g. copied over): never trust it
            raise BadEntry("stale", "saved under another key")
        return self._payload(payload)

    def scan_disk(self, fix: bool = False) -> list[dict]:
        """``repro doctor``'s scan: one ``{"file", "status", "detail"}``
        record per entry (``ok`` / ``corrupt`` / ``schema``) and per
        orphaned temp file (``orphan-tmp``); ``fix`` quarantines bad
        entries and deletes temp files."""
        if self._store is None:
            return []
        return self._store.scan(fix, lambda data: self._decode(data, None))

    def health(self) -> dict:
        """Summary for ``repro doctor``: size, budget, schema, hit rate."""
        disk = (self._store.health() if self._store is not None else
                {"disk_entries": 0, "disk_bytes": 0,
                 "max_disk_bytes": self.max_disk_bytes})
        lookups = self.stats.hits + self.stats.misses
        return {
            "schema": self._schema(),
            "memory_entries": len(self._entries),
            **disk,
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "hit_rate": (self.stats.hits / lookups) if lookups else None,
            "stale_rejects": self.stats.stale_rejects,
            "quarantined": self.stats.quarantined,
        }


class ProgramCache(_StoreCache):
    """LRU cache of compiled AWEsymbolic results, with an optional disk
    layer of ``awesym-<key32>.json`` entries, each a model tape in the
    envelope (arguments as :class:`_StoreCache`)."""

    _PREFIX = "awesym-"

    def __init__(self, maxsize: int = 16, disk_dir: Path | str | None = None,
                 max_disk_bytes: int | None = None) -> None:
        super().__init__(maxsize, disk_dir, max_disk_bytes)
        # live CompileSessions keyed on everything *except* the Padé
        # order: an order-change miss extends the previous recursion
        # incrementally instead of rebuilding cold (explicit symbol sets
        # only — automatic selection can change with the order)
        self._sessions: OrderedDict[str, CompileSession] = OrderedDict()
        self.session_maxsize = 4

    def _schema(self) -> int:
        return CACHE_SCHEMA

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------
    #: keyword options that change *how* a model is built but never *what*
    #: it contains; excluded from cache keys so passing a live cache object
    #: does not fragment (or destabilize) the key space.
    _NON_SEMANTIC_OPTIONS = frozenset({"condense_cache"})

    def key_for(self, circuit: Circuit, output: str,
                symbols: Sequence[str] | None, order: int,
                **options) -> str:
        """Cache key for one ``awesymbolic`` invocation.

        The key covers everything that changes the compiled program: the
        on-disk :data:`CACHE_SCHEMA`, the circuit content fingerprint,
        the output node, the symbol set and the **Padé order** — bumping
        the order (or the schema, on upgrade) is a guaranteed cache miss
        rather than a wrong-order model reuse (regression-tested).
        Performance-only options (:data:`_NON_SEMANTIC_OPTIONS`) are
        ignored.

        ``symbols=None`` (automatic selection) keys on the selection
        parameters instead of the element list; the circuit fingerprint
        makes the selection deterministic per key.
        """
        options = {k: v for k, v in options.items()
                   if k not in self._NON_SEMANTIC_OPTIONS}
        sym_part = ("symbols=" + ",".join(symbols) if symbols is not None
                    else f"auto={options.get('n_symbols', 2)}")
        parts = [
            f"schema={self._schema()}",
            f"circuit={circuit_fingerprint(circuit)}",
            f"output={output}",
            sym_part,
            f"order={order}",
            "options=" + repr(sorted(options.items())),
        ]
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()

    # ------------------------------------------------------------------
    # in-memory layer
    # ------------------------------------------------------------------
    def get(self, key: str) -> AWESymbolicResult | None:
        """Look up ``key``, refreshing its LRU position."""
        result = self._entries.get(key)
        if result is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return result

    def put(self, key: str, result: AWESymbolicResult) -> None:
        """Insert ``key``, evicting the least-recently-used beyond maxsize."""
        self._remember(key, result)

    def invalidate(self, key: str) -> bool:
        """Drop ``key`` from memory and disk; True if anything was removed."""
        removed = self._entries.pop(key, None) is not None
        if self._store is not None and self._store.remove(key):
            removed = True
        return removed

    def clear(self) -> None:
        self._entries.clear()
        self._sessions.clear()

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    # ------------------------------------------------------------------
    # disk layer
    # ------------------------------------------------------------------
    def save_disk(self, key: str, result: AWESymbolicResult) -> Path | None:
        """Store ``result``'s model tape under ``key``."""
        return self._publish(key, {"tape": result.model.tape.to_dict()})

    def load_disk(self, key: str) -> OpTape | None:
        """Verified model tape for ``key`` (None on a miss; an entry
        that fails validation is quarantined, so it cannot shadow the
        rebuilt one)."""
        return self._read(key)

    def _payload(self, payload: dict) -> OpTape:
        """The entry's model tape: schema, structure, integrity hash and
        model meta checked, nothing executed."""
        try:
            tape = tape_from_dict(payload.get("tape"))
            model_slots(tape)
        except TapeError as exc:
            raise BadEntry("corrupt", str(exc)) from None
        return tape

    # ------------------------------------------------------------------
    # the main entry point
    # ------------------------------------------------------------------
    def _session_for(self, circuit: Circuit, output: str,
                     symbols: Sequence[str], **kwargs) -> CompileSession:
        """Live compile session for this (circuit, output, symbol set).

        Keyed like :meth:`key_for` but with the order pinned, so compiles
        of the *same* problem at *different* Padé orders share one
        session and its moment-recursion state.
        """
        skey = self.key_for(circuit, output, symbols, order=-1, **kwargs)
        session = self._sessions.get(skey)
        if session is None:
            init_kw = {k: kwargs[k] for k in ("n_symbols", "extra_ports",
                                              "condense_cache")
                       if k in kwargs}
            session = CompileSession(circuit, output, symbols=list(symbols),
                                     **init_kw)
            self._sessions[skey] = session
        else:
            _metrics.registry().counter(
                "repro_cache_session_reuse_total",
                "compiles that reused a live session's recursion").inc()
        self._sessions.move_to_end(skey)
        while len(self._sessions) > self.session_maxsize:
            self._sessions.popitem(last=False)
        return session

    def get_or_build(self, circuit: Circuit, output: str,
                     symbols: Sequence[str] | None = None, order: int = 2,
                     **kwargs) -> AWESymbolicResult:
        """Cached :func:`~repro.core.awesymbolic.awesymbolic`.

        Memory hit: the stored result.  Disk hit: the loaded result of
        the stored model tape.  Otherwise a fresh build — incremental
        when a live session for the same problem at another Padé order
        exists — stored in both layers.
        """
        reg = _metrics.registry()
        key = self.key_for(circuit, output, symbols, order, **kwargs)
        with _trace.span("cache.lookup", key=key[:16]) as lookup:
            result = self.get(key)
            if result is not None:
                lookup.set(outcome="memory-hit")
                reg.counter("repro_cache_hits_total",
                            "program cache memory hits").inc()
                _recorder.record("cache", outcome="memory-hit",
                                 key=key[:16])
                return result
            rejects = self.stats.stale_rejects
            tape = self.load_disk(key)
            if tape is not None:
                result = AWESymbolicResult.from_tape(tape)
                lookup.set(outcome="disk-hit")
                reg.counter("repro_cache_disk_hits_total",
                            "program cache disk hits").inc()
                _recorder.record("cache", outcome="disk-hit", key=key[:16])
                self.put(key, result)
                return result
            if self.stats.stale_rejects > rejects:
                reg.counter("repro_cache_stale_rejects_total",
                            "disk entries rejected as stale/corrupt").inc()
            lookup.set(outcome="miss")
            reg.counter("repro_cache_misses_total",
                        "program cache misses (full builds)").inc()
            _recorder.record("cache", outcome="miss", key=key[:16])
        with _trace.span("cache.build", key=key[:16]) as build:
            t0 = time.perf_counter()
            if symbols is not None:
                session = self._session_for(circuit, output, symbols,
                                            **kwargs)
                compile_kw = {k: kwargs[k]
                              for k in ("extra_moments", "build_closed_forms")
                              if k in kwargs}
                result = session.compile(order, **compile_kw)
            else:
                result = awesymbolic(circuit, output, symbols=None,
                                     order=order, **kwargs)
            self.stats.build_seconds += time.perf_counter() - t0
            build.set(seconds=time.perf_counter() - t0)
        reg.histogram("repro_cache_build_seconds",
                      "full symbolic build wall time"
                      ).observe(time.perf_counter() - t0)
        self.put(key, result)
        self.save_disk(key, result)
        return result


class CondensationCache(_StoreCache):
    """Content-addressed cache of numeric block condensations.

    Condensing a numeric block (clamping its ports and reading the
    Maclaurin port-admittance coefficients ``Y0..Yq`` off repeated sparse
    LU solves) depends only on the block's elements, its port list and
    the expansion order — so the result is cached under a content hash of
    exactly those, in memory (LRU) and optionally on disk beside the
    program cache's entries (``condense-<key32>.json``, same store
    protocol; arguments as :class:`_StoreCache`).

    Entries store the *highest* order condensed so far; a request for a
    lower order is served by truncating ``Y[:order + 1]`` (the Maclaurin
    prefix is order-independent), a request for a higher order is a miss
    and its :meth:`put` upgrades the entry.  Floats round-trip through
    JSON exactly, so a disk hit reproduces bit-identical compiled moments
    (enforced by tests).
    """

    _PREFIX = "condense-"

    def __init__(self, maxsize: int = 64,
                 disk_dir: Path | str | None = None,
                 max_disk_bytes: int | None = None) -> None:
        super().__init__(maxsize, disk_dir, max_disk_bytes)

    def _schema(self) -> int:
        return CONDENSE_SCHEMA

    def key_for(self, block: Circuit, ports: Sequence[str]) -> str:
        """Content key of one condensation problem (block + port list).

        The expansion order is deliberately *not* part of the key — one
        entry per block holds the highest order computed so far and
        serves every lower order by truncation.  :data:`CONDENSE_SCHEMA`
        is keyed so a bump of it cold-starts cleanly; a bump of the
        program entries' :data:`CACHE_SCHEMA` keeps these entries.
        """
        parts = [
            "condense-v1",
            f"schema={self._schema()}",
            f"block={circuit_fingerprint(block)}",
            "ports=" + ",".join(ports),
        ]
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------
    def get(self, block: Circuit, ports: Sequence[str],
            order: int) -> NumericBlockExpansion | None:
        """Cached expansion of at least ``order``, truncated to it exactly.

        Returns None when the block was never condensed, the stored entry
        does not reach ``order``, or the disk entry failed validation
        (corrupt / wrong schema / foreign key — quarantined, never
        trusted)."""
        key = self.key_for(block, ports)
        exp = self._entries.get(key)
        if exp is None:
            exp = self._read(key)
            if exp is not None:
                self._remember(key, exp)
        else:
            self._entries.move_to_end(key)
        if exp is None or exp.order < order:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        if exp.order == order:
            return exp
        return NumericBlockExpansion(ports=exp.ports,
                                     Y=exp.Y[:order + 1].copy())

    def put(self, block: Circuit, ports: Sequence[str],
            expansion: NumericBlockExpansion) -> None:
        """Store ``expansion`` unless a higher-order entry already exists."""
        key = self.key_for(block, ports)
        current = self._entries.get(key)
        if current is not None and current.order >= expansion.order:
            return
        self._remember(key, expansion)
        self._publish(key, {
            "ports": list(expansion.ports),
            "order": expansion.order,
            "y": np.asarray(expansion.Y, dtype=float).tolist(),
        })

    def _payload(self, payload: dict) -> NumericBlockExpansion:
        try:
            ports = tuple(payload["ports"])
            y = np.asarray(payload["y"], dtype=float)
            order = int(payload["order"])
        except (KeyError, TypeError, ValueError) as exc:
            raise BadEntry("corrupt", f"malformed condensation: {exc}")
        n = len(ports)
        if y.ndim != 3 or y.shape[1:] != (n, n) or y.shape[0] != order + 1:
            raise BadEntry("corrupt", f"shape {y.shape} inconsistent with "
                                      f"{n} ports, order {order}")
        return NumericBlockExpansion(ports=ports, Y=y)


_DEFAULT_CACHE: ProgramCache | None = None


def default_cache() -> ProgramCache:
    """The process-wide cache used by :func:`cached_awesymbolic`."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = ProgramCache()
    return _DEFAULT_CACHE


def cached_awesymbolic(circuit: Circuit, output: str,
                       symbols: Sequence[str] | None = None, order: int = 2,
                       cache: ProgramCache | None = None,
                       **kwargs) -> AWESymbolicResult:
    """Drop-in cached variant of :func:`repro.core.awesymbolic.awesymbolic`."""
    cache = cache if cache is not None else default_cache()
    return cache.get_or_build(circuit, output, symbols=symbols, order=order,
                              **kwargs)
