"""Keyed cache of compiled AWEsymbolic programs.

Deriving a symbolic model is the expensive part of the paper's pipeline
(partitioning, numeric block condensation, the symbolic moment recursion);
evaluating it is microseconds.  The :class:`ProgramCache` memoizes the
derivation so repeated ``analyze`` / ``evaluate`` / benchmark invocations
skip straight to evaluation:

* **in-memory LRU** keyed on ``(circuit fingerprint, symbol set, output,
  order, extra options)`` — hits return the live
  :class:`~repro.core.awesymbolic.AWESymbolicResult`;
* **optional on-disk layer** storing the serialized evaluatable core via
  :func:`~repro.core.serialize.model_to_dict`.  A disk hit rebuilds the
  compiled model from the saved polynomials (re-partitioning the circuit,
  which is cheap, but skipping the symbolic solve).  Entries record the
  key they were saved under; any mismatch — a stale file, a changed
  partition, a tampered entry — is rejected and the model is rebuilt.

The disk layer is crash-safe: entries are written to a temp file and
published with ``os.replace`` (a reader never observes a half-written
entry, even if the writer dies mid-write), carry a schema version
(:data:`CACHE_SCHEMA`), and any entry that fails validation — truncated
JSON, wrong key, old schema — is moved into a ``quarantine/`` sidecar
directory for post-mortem instead of being silently trusted or deleted.

Keys are content hashes: the circuit fingerprint covers every element's
type, name, terminals and value, so *any* circuit edit invalidates the
cached program.

Two further layers serve the fast compile path:

* :class:`CondensationCache` persists the numeric block condensations
  (the Maclaurin port-admittance arrays ``Y0..Yq``) under content hashes
  of the block itself, so editing the symbol set or one block re-condenses
  only what changed — across processes, since the layer is disk-backed
  with the same atomic-write/quarantine machinery as the program cache.
* :class:`ProgramCache` keeps a small LRU of live
  :class:`~repro.core.awesymbolic.CompileSession` objects keyed on
  everything *except* the Padé order, so an order-change miss extends the
  previous moment recursion incrementally instead of recompiling cold.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ..circuits.circuit import Circuit
from ..core.awesymbolic import (AWESymbolicResult, CompileSession,
                                awesymbolic)
from ..core.compiled_model import CompiledAWEModel, TapeModel
from ..partition.ports import NumericBlockExpansion
from ..core.serialize import FORMAT_VERSION, model_from_dict, model_to_dict
from ..errors import SymbolicError
from ..obs import metrics as _metrics
from ..obs import recorder as _recorder
from ..obs import trace as _trace
from ..testing import faults as _faults

__all__ = [
    "CACHE_SCHEMA",
    "CacheStats",
    "CondensationCache",
    "ProgramCache",
    "cached_awesymbolic",
    "circuit_fingerprint",
    "default_cache",
]

#: on-disk payload schema; bumped whenever the payload envelope changes.
#: Entries with any other value (including pre-versioning files that have
#: none) are quarantined and rebuilt.
CACHE_SCHEMA = 2


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    A reader either sees the previous entry or the complete new one,
    never a torn write.  The temp file lives in the same directory so the
    replace stays on one filesystem; it is removed if the write dies.
    The ``cache.write`` fault site sits between two half-writes so tests
    can kill the writer with the temp file truncated on disk.
    """
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        half = len(text) // 2
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text[:half])
            fh.flush()
            _faults.fault_point("cache.write", path=path, tmp=tmp)
            fh.write(text[half:])
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _evict_disk_lru(disk_dir: Path, pattern: str, max_bytes: int,
                    ) -> tuple[int, int]:
    """Evict oldest entries matching ``pattern`` until the layer fits.

    LRU by mtime — disk hits refresh their entry's mtime, so recency
    survives across processes.  Only files matching the cache's own
    ``pattern`` are candidates (the quarantine sidecar, the other
    cache's entries, and foreign files are never touched), and each
    eviction is a single ``unlink`` — atomic with respect to the
    atomic-write publish protocol, so a concurrent reader sees either
    the whole entry or a plain miss.

    Returns ``(files_removed, bytes_removed)``.
    """
    entries = []
    total = 0
    for path in disk_dir.glob(pattern):
        try:
            st = path.stat()
        except OSError:
            continue
        entries.append((st.st_mtime, st.st_size, path))
        total += st.st_size
    if total <= max_bytes:
        return 0, 0
    removed = freed = 0
    for _, size, path in sorted(entries):
        if total <= max_bytes:
            break
        try:
            path.unlink()
        except OSError:
            continue
        total -= size
        freed += size
        removed += 1
    if removed:
        reg = _metrics.registry()
        reg.counter("repro_cache_evicted_files_total",
                    "disk cache entries evicted by the max_bytes LRU"
                    ).inc(removed)
        reg.counter("repro_cache_evicted_bytes_total",
                    "bytes reclaimed by the disk cache LRU").inc(freed)
    return removed, freed


def _touch(path: Path) -> None:
    """Refresh a disk entry's mtime (its LRU recency) on a hit."""
    try:
        os.utime(path)
    except OSError:
        pass


def _quarantine_path(disk_dir: Path, path: Path, reason: str) -> Path | None:
    """Move ``path`` into ``disk_dir/quarantine``, suffixed with ``reason``.

    Returns the destination, or None if the move failed (e.g. the file
    vanished under us; callers must keep working regardless).
    """
    qdir = disk_dir / "quarantine"
    try:
        qdir.mkdir(parents=True, exist_ok=True)
        dest = qdir / f"{path.name}.{reason}"
        n = 0
        while dest.exists():
            n += 1
            dest = qdir / f"{path.name}.{reason}.{n}"
        os.replace(path, dest)
    except OSError:
        return None
    return dest


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
    quarantine sidecar (rejects can also come from payloads that parse
    but no longer match the live circuit, which leave no file to move).
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


class ProgramCache:
    """LRU cache of compiled AWEsymbolic results, with an optional disk layer.

    Args:
        maxsize: in-memory entry budget; least-recently-used entries are
            evicted beyond it.
        disk_dir: directory for serialized models (created on demand);
            ``None`` disables the disk layer.
        max_disk_bytes: disk-layer byte budget; after every save, the
            oldest entries (LRU by mtime, refreshed on hit) are evicted
            until the layer's own ``awesym-*.json`` files fit.  ``None``
            (the default) leaves growth unbounded.
    """

    def __init__(self, maxsize: int = 16, disk_dir: Path | str | None = None,
                 max_disk_bytes: int | None = None) -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        if max_disk_bytes is not None and max_disk_bytes < 0:
            raise ValueError(
                f"max_disk_bytes must be >= 0, got {max_disk_bytes}")
        self.maxsize = maxsize
        self.max_disk_bytes = max_disk_bytes
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self._entries: OrderedDict[str, AWESymbolicResult] = OrderedDict()
        # live CompileSessions keyed on everything *except* the Padé
        # order: an order-change miss extends the previous recursion
        # incrementally instead of rebuilding cold (explicit symbol sets
        # only — automatic selection can change with the order)
        self._sessions: OrderedDict[str, CompileSession] = OrderedDict()
        self.session_maxsize = 4
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------
    #: keyword options that change *how* a model is built but never *what*
    #: it contains; excluded from cache keys so passing a live cache object
    #: or a worker count does not fragment (or destabilize) the key space.
    _NON_SEMANTIC_OPTIONS = frozenset({"condense_cache", "condense_workers"})

    def key_for(self, circuit: Circuit, output: str,
                symbols: Sequence[str] | None, order: int,
                **options) -> str:
        """Cache key for one ``awesymbolic`` invocation.

        The key covers everything that changes the compiled program: the
        serialization format, the on-disk :data:`CACHE_SCHEMA`, the
        circuit content fingerprint, the output node, the symbol set and
        the **Padé order** — bumping the order (or the schema, on
        upgrade) is a guaranteed cache miss rather than a wrong-order
        model reuse (regression-tested).  Performance-only options
        (:data:`_NON_SEMANTIC_OPTIONS`) are ignored.

        ``symbols=None`` (automatic selection) keys on the selection
        parameters instead of the element list; the circuit fingerprint
        makes the selection deterministic per key.
        """
        options = {k: v for k, v in options.items()
                   if k not in self._NON_SEMANTIC_OPTIONS}
        sym_part = ("symbols=" + ",".join(symbols) if symbols is not None
                    else f"auto={options.get('n_symbols', 2)}")
        parts = [
            f"format={FORMAT_VERSION}",
            f"schema={CACHE_SCHEMA}",
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
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def invalidate(self, key: str) -> bool:
        """Drop ``key`` from memory and disk; True if anything was removed."""
        removed = self._entries.pop(key, None) is not None
        path = self._disk_path(key)
        if path is not None and path.exists():
            path.unlink()
            removed = True
        return removed

    def clear(self) -> None:
        self._entries.clear()
        self._sessions.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    # ------------------------------------------------------------------
    # disk layer
    # ------------------------------------------------------------------
    def _disk_path(self, key: str) -> Path | None:
        if self.disk_dir is None:
            return None
        return self.disk_dir / f"awesym-{key[:32]}.json"

    def _quarantine_file(self, path: Path, reason: str) -> Path | None:
        """Move a failed-validation entry into the quarantine sidecar.

        The file is preserved for post-mortem (suffixed with the reason),
        and its absence lets the next build publish a clean replacement.
        Returns the quarantine path, or None if the move itself failed
        (e.g. the file vanished; the cache must keep working regardless).
        """
        if self.disk_dir is None:
            return None
        dest = _quarantine_path(self.disk_dir, path, reason)
        if dest is None:
            return None
        self.stats.quarantined += 1
        _metrics.registry().counter(
            "repro_cache_quarantined_total",
            "disk entries moved to the quarantine sidecar").inc()
        return dest

    def save_disk(self, key: str, result: AWESymbolicResult) -> Path | None:
        """Serialize ``result``'s evaluatable core under ``key``.

        The entry is published atomically — a crash mid-save leaves at
        worst an orphaned ``*.tmp.<pid>`` file, never a torn entry under
        the real name.
        """
        path = self._disk_path(key)
        if path is None:
            return None
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"schema": CACHE_SCHEMA, "cache_key": key,
                   "saved_at": time.time(), "model": model_to_dict(result)}
        _atomic_write_text(path, json.dumps(payload))
        if self.max_disk_bytes is not None:
            _evict_disk_lru(self.disk_dir, "awesym-*.json",
                            self.max_disk_bytes)
        return path

    def load_disk(self, key: str) -> dict | None:
        """Validated raw disk payload for ``key`` (None on miss/stale).

        Entries that fail validation — unreadable JSON, unknown schema,
        mismatched key — are rejected *and* moved to the quarantine
        sidecar, so a poisoned file cannot shadow the rebuilt entry."""
        path = self._disk_path(key)
        if path is None or not path.exists():
            if path is not None:
                self.stats.disk_misses += 1
            return None
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            self.stats.stale_rejects += 1
            self._quarantine_file(path, "corrupt")
            return None
        if payload.get("schema") != CACHE_SCHEMA:
            # written by a different (usually older) code version; the
            # envelope may not mean what we think it means
            self.stats.stale_rejects += 1
            self._quarantine_file(path, "schema")
            return None
        if payload.get("cache_key") != key:
            # stale or foreign entry (e.g. the partition changed but the
            # file was copied over): never trust it
            self.stats.stale_rejects += 1
            self._quarantine_file(path, "stale")
            return None
        self.stats.disk_hits += 1
        _touch(path)
        return payload

    def health(self) -> dict:
        """Summary for ``repro doctor``: size, budget, schema, hit rate."""
        disk_entries = 0
        disk_bytes = 0
        if self.disk_dir is not None and self.disk_dir.exists():
            for path in self.disk_dir.glob("awesym-*.json"):
                try:
                    disk_bytes += path.stat().st_size
                except OSError:
                    continue
                disk_entries += 1
        lookups = self.stats.hits + self.stats.misses
        return {
            "schema": CACHE_SCHEMA,
            "memory_entries": len(self._entries),
            "disk_entries": disk_entries,
            "disk_bytes": disk_bytes,
            "max_disk_bytes": self.max_disk_bytes,
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "hit_rate": (self.stats.hits / lookups) if lookups else None,
            "stale_rejects": self.stats.stale_rejects,
            "quarantined": self.stats.quarantined,
        }

    def scan_disk(self, fix: bool = False) -> list[dict]:
        """Health-check every entry in the disk layer (``doctor`` backend).

        Returns one record per ``awesym-*.json`` file plus any orphaned
        temp files from crashed writers: ``{"file", "status", "detail"}``
        with status ``ok`` / ``corrupt`` / ``schema`` / ``orphan-tmp``.
        With ``fix=True``, bad entries are moved to the quarantine
        sidecar and orphaned temp files are deleted.
        """
        report: list[dict] = []
        if self.disk_dir is None or not self.disk_dir.exists():
            return report
        for path in sorted(self.disk_dir.glob("awesym-*.json.tmp.*")):
            report.append({"file": path.name, "status": "orphan-tmp",
                           "detail": "temp file from an interrupted write"})
            if fix:
                path.unlink(missing_ok=True)
        for path in sorted(self.disk_dir.glob("awesym-*.json")):
            status, detail = "ok", ""
            try:
                payload = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                status, detail = "corrupt", str(exc)
            else:
                if payload.get("schema") != CACHE_SCHEMA:
                    status = "schema"
                    detail = (f"schema {payload.get('schema')!r}, "
                              f"expected {CACHE_SCHEMA}")
                elif not isinstance(payload.get("model"), dict):
                    status, detail = "corrupt", "missing model payload"
            report.append({"file": path.name, "status": status,
                           "detail": detail})
            if fix and status != "ok":
                self._quarantine_file(path, status)
        return report

    def load_model(self, key: str) -> TapeModel | None:
        """Circuit-free evaluatable model from the disk layer (None on miss):
        the saved polynomials compiled once into a
        :class:`~repro.core.compiled_model.TapeModel`."""
        payload = self.load_disk(key)
        if payload is None:
            return None
        try:
            return model_from_dict(payload["model"])
        except (KeyError, SymbolicError):
            self.stats.stale_rejects += 1
            self.stats.disk_hits -= 1
            return None

    def _rebuild_from_disk(self, circuit: Circuit, output: str, order: int,
                           payload: dict) -> AWESymbolicResult | None:
        """Reassemble a live result from a disk payload.

        Re-partitions the circuit (cheap) and reloads the symbolic moment
        polynomials (skipping the expensive symbolic solve).  The
        closed-form order-1/2 models are not persisted, so a rebuilt
        result carries ``first_order = second_order = None``.
        """
        from ..partition import partition as make_partition
        from ..partition.composite import SymbolicMoments
        from ..core.serialize import _poly_from_jsonable

        model_dict = payload.get("model", {})
        if model_dict.get("format") != FORMAT_VERSION:
            return None
        element_names = [e["element"] for e in model_dict.get("elements", [])]
        if not element_names or int(model_dict.get("order", -1)) != order:
            return None
        part = make_partition(circuit, element_names, output=output)
        saved_names = [s["name"] for s in model_dict["symbols"]]
        if list(part.space.names) != saved_names:
            return None
        sm = SymbolicMoments(
            space=part.space, output=output,
            numerators=tuple(_poly_from_jsonable(part.space, n)
                             for n in model_dict["numerators"]),
            det=_poly_from_jsonable(part.space, model_dict["det"]),
            partition=part)
        model = CompiledAWEModel(part, sm, order)
        return AWESymbolicResult(partition=part, moments=sm, model=model,
                                 first_order=None, second_order=None,
                                 selected_automatically=False)

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
                                              "condense_cache",
                                              "condense_workers")
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

        Memory hit: the stored result.  Disk hit: the compiled model
        rebuilt from the saved polynomials.  Otherwise a fresh build —
        incremental when a live session for the same problem at another
        Padé order exists — stored in both layers.
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
            payload = self.load_disk(key)
            if payload is not None:
                rebuilt = self._rebuild_from_disk(circuit, output, order,
                                                  payload)
                if rebuilt is not None:
                    lookup.set(outcome="disk-hit")
                    reg.counter("repro_cache_disk_hits_total",
                                "program cache disk hits").inc()
                    _recorder.record("cache", outcome="disk-hit",
                                     key=key[:16])
                    self.put(key, rebuilt)
                    return rebuilt
                self.stats.stale_rejects += 1
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
        if self.disk_dir is not None:
            self.save_disk(key, result)
        return result


class CondensationCache:
    """Content-addressed cache of numeric block condensations.

    Condensing a numeric block (clamping its ports and reading the
    Maclaurin port-admittance coefficients ``Y0..Yq`` off repeated sparse
    LU solves) depends only on the block's elements, its port list and
    the expansion order — so the result is cached under a content hash of
    exactly those, in memory (LRU) and optionally on disk beside the
    program cache's entries (``condense-<key>.json``), reusing the same
    atomic-write, schema-version and quarantine machinery.

    Entries store the *highest* order condensed so far; a request for a
    lower order is served by truncating ``Y[:order + 1]`` (the Maclaurin
    prefix is order-independent), a request for a higher order is a miss
    and its :meth:`put` upgrades the entry.  Floats round-trip through
    JSON exactly, so a disk hit reproduces bit-identical compiled moments
    (enforced by tests).

    Args:
        maxsize: in-memory entry budget (LRU beyond it).
        disk_dir: directory for persisted entries; ``None`` keeps the
            cache memory-only.
        max_disk_bytes: byte budget for the ``condense-*.json`` layer —
            LRU-evicted (by mtime, refreshed on hit) after every save;
            ``None`` leaves growth unbounded.
    """

    def __init__(self, maxsize: int = 64,
                 disk_dir: Path | str | None = None,
                 max_disk_bytes: int | None = None) -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        if max_disk_bytes is not None and max_disk_bytes < 0:
            raise ValueError(
                f"max_disk_bytes must be >= 0, got {max_disk_bytes}")
        self.maxsize = maxsize
        self.max_disk_bytes = max_disk_bytes
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self._entries: OrderedDict[str, NumericBlockExpansion] = OrderedDict()
        self.stats = CacheStats()

    def key_for(self, block: Circuit, ports: Sequence[str]) -> str:
        """Content key of one condensation problem (block + port list).

        The expansion order is deliberately *not* part of the key — one
        entry per block holds the highest order computed so far and
        serves every lower order by truncation.  :data:`CACHE_SCHEMA` is
        keyed so a schema bump cold-starts cleanly.
        """
        parts = [
            "condense-v1",
            f"schema={CACHE_SCHEMA}",
            f"block={circuit_fingerprint(block)}",
            "ports=" + ",".join(ports),
        ]
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()

    def __len__(self) -> int:
        return len(self._entries)

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
            exp = self._load_disk(key)
            if exp is not None:
                self._store_memory(key, exp)
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
        self._store_memory(key, expansion)
        self._save_disk(key, expansion)

    def _store_memory(self, key: str, exp: NumericBlockExpansion) -> None:
        self._entries[key] = exp
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    # ------------------------------------------------------------------
    # disk layer
    # ------------------------------------------------------------------
    def _disk_path(self, key: str) -> Path | None:
        if self.disk_dir is None:
            return None
        return self.disk_dir / f"condense-{key[:32]}.json"

    def _quarantine_file(self, path: Path, reason: str) -> None:
        if self.disk_dir is None:
            return
        if _quarantine_path(self.disk_dir, path, reason) is not None:
            self.stats.quarantined += 1
            _metrics.registry().counter(
                "repro_cache_quarantined_total",
                "disk entries moved to the quarantine sidecar").inc()

    def _save_disk(self, key: str, exp: NumericBlockExpansion) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": CACHE_SCHEMA,
            "cache_key": key,
            "saved_at": time.time(),
            "ports": list(exp.ports),
            "order": exp.order,
            "y": np.asarray(exp.Y, dtype=float).tolist(),
        }
        _atomic_write_text(path, json.dumps(payload))
        if self.max_disk_bytes is not None:
            _evict_disk_lru(self.disk_dir, "condense-*.json",
                            self.max_disk_bytes)

    def _load_disk(self, key: str) -> NumericBlockExpansion | None:
        path = self._disk_path(key)
        if path is None or not path.exists():
            if path is not None:
                self.stats.disk_misses += 1
            return None
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            self.stats.stale_rejects += 1
            self._quarantine_file(path, "corrupt")
            return None
        if payload.get("schema") != CACHE_SCHEMA:
            self.stats.stale_rejects += 1
            self._quarantine_file(path, "schema")
            return None
        if payload.get("cache_key") != key:
            self.stats.stale_rejects += 1
            self._quarantine_file(path, "stale")
            return None
        try:
            ports = tuple(payload["ports"])
            y = np.asarray(payload["y"], dtype=float)
            n = len(ports)
            if y.ndim != 3 or y.shape[1:] != (n, n) \
                    or y.shape[0] != int(payload["order"]) + 1:
                raise ValueError(f"shape {y.shape} inconsistent with "
                                 f"{n} ports, order {payload.get('order')}")
        except (KeyError, TypeError, ValueError):
            self.stats.stale_rejects += 1
            self._quarantine_file(path, "corrupt")
            return None
        self.stats.disk_hits += 1
        _touch(path)
        return NumericBlockExpansion(ports=ports, Y=y)

    # ------------------------------------------------------------------
    # health (``repro doctor``)
    # ------------------------------------------------------------------
    def scan_disk(self, fix: bool = False) -> list[dict]:
        """Health-check every persisted condensation (``doctor`` backend).

        Same report shape as :meth:`ProgramCache.scan_disk`: one record
        per ``condense-*.json`` plus orphaned temp files, with status
        ``ok`` / ``corrupt`` / ``schema`` / ``orphan-tmp``.
        """
        report: list[dict] = []
        if self.disk_dir is None or not self.disk_dir.exists():
            return report
        for path in sorted(self.disk_dir.glob("condense-*.json.tmp.*")):
            report.append({"file": path.name, "status": "orphan-tmp",
                           "detail": "temp file from an interrupted write"})
            if fix:
                path.unlink(missing_ok=True)
        for path in sorted(self.disk_dir.glob("condense-*.json")):
            status, detail = "ok", ""
            try:
                payload = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                status, detail = "corrupt", str(exc)
            else:
                if payload.get("schema") != CACHE_SCHEMA:
                    status = "schema"
                    detail = (f"schema {payload.get('schema')!r}, "
                              f"expected {CACHE_SCHEMA}")
                elif not isinstance(payload.get("y"), list):
                    status, detail = "corrupt", "missing Y payload"
            report.append({"file": path.name, "status": status,
                           "detail": detail})
            if fix and status != "ok":
                self._quarantine_file(path, status)
        return report

    def health(self) -> dict:
        """Summary for ``repro doctor``: size, schema and hit rate."""
        disk_entries = 0
        disk_bytes = 0
        if self.disk_dir is not None and self.disk_dir.exists():
            for path in self.disk_dir.glob("condense-*.json"):
                try:
                    disk_bytes += path.stat().st_size
                except OSError:
                    continue
                disk_entries += 1
        lookups = self.stats.hits + self.stats.misses
        return {
            "schema": CACHE_SCHEMA,
            "memory_entries": len(self._entries),
            "disk_entries": disk_entries,
            "disk_bytes": disk_bytes,
            "max_disk_bytes": self.max_disk_bytes,
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "hit_rate": (self.stats.hits / lookups) if lookups else None,
            "stale_rejects": self.stats.stale_rejects,
            "quarantined": self.stats.quarantined,
        }


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
