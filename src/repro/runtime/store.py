"""One artifact store: the disk protocol of every persisted artifact.

Program entries, condensations (:mod:`repro.runtime.cache`), native
kernels (:mod:`repro.runtime.native`) and spooled tapes
(:mod:`repro.runtime.backends`) each map a content key to a file
``<prefix><key32><suffix>`` in an :class:`ArtifactStore`.  Publish is a
temp file, fsync and ``os.replace`` (the ``cache.write`` fault site sits
mid-write).  The entry's sha256 goes into a ``<entry>.sha256`` sidecar,
published first so a new entry is never visible without it, and is
checked before the entry is used, after the caller's validator.  A
rejected entry moves to ``quarantine/<name>.<reason>[.n]``; entries are
mtime-LRU evicted under ``max_bytes`` (sidecars never count).  Writers
racing on one key can hand a reader mismatched halves: it quarantines
and rebuilds, never uses them.  Imports only the stdlib,
:mod:`repro.testing.faults` and :mod:`repro.obs.metrics`, so the native
and backend modules use it without importing the compiler.
"""

from __future__ import annotations

import hashlib
import os
import threading
from pathlib import Path
from typing import Callable

from ..obs import metrics as _metrics
from ..testing import faults as _faults

__all__ = ["ArtifactStore", "BadEntry"]

def _digest(path: Path) -> Path:
    """The sidecar holding ``path``'s sha256."""
    return path.with_name(path.name + ".sha256")


class BadEntry(ValueError):
    """A validator's verdict that an entry must not be used; ``reason``
    (``corrupt``, ``schema``, ``stale`` ...) is its quarantine suffix."""

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(detail or reason)
        self.reason = reason


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(
        f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data[:len(data) // 2])
            fh.flush()
            _faults.fault_point("cache.write", path=path, tmp=tmp)
            fh.write(data[len(data) // 2:])
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _unlink(path: Path) -> bool:
    try:
        path.unlink()
    except OSError:
        return False
    return True


def _evict_disk_lru(directory: Path, pattern: str, max_bytes: int,
                    ) -> tuple[int, int]:
    """Unlink the oldest-mtime ``pattern`` entries (and their digests)
    until the rest fit ``max_bytes``; ``(files, bytes)`` removed.  The
    quarantine directory and foreign files are never candidates."""
    entries, total = [], 0
    for path in directory.glob(pattern):
        try:
            st = path.stat()
        except OSError:
            continue
        entries.append((st.st_mtime, st.st_size, path))
        total += st.st_size
    removed = freed = 0
    for _, size, path in sorted(entries):
        if total <= max_bytes:
            break
        if _unlink(path):
            _unlink(_digest(path))
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


class ArtifactStore:
    """Entries ``<prefix><key32><suffix>`` in ``directory`` under a
    ``max_bytes`` budget (``None``: unbounded).  ``stats``, when given
    (a :class:`~repro.runtime.cache.CacheStats`), gets its
    ``disk_hits`` / ``disk_misses`` / ``stale_rejects`` /
    ``quarantined`` counters bumped."""

    def __init__(self, directory, prefix: str, suffix: str,
                 max_bytes: int | None = None, stats=None) -> None:
        self.directory = Path(directory)
        self.prefix, self.suffix = prefix, suffix
        self.max_bytes = max_bytes
        self.stats = stats
        self.pattern = f"{prefix}*{suffix}"

    def path(self, key: str) -> Path:
        return self.directory / f"{self.prefix}{key[:32]}{self.suffix}"

    def _count(self, field: str) -> None:
        if self.stats is not None:
            setattr(self.stats, field, getattr(self.stats, field) + 1)

    def publish(self, key: str, data: bytes) -> Path:
        """Store ``data`` under ``key``, then evict down to the budget."""
        path = self.path(key)
        digest = _digest(path)
        self.directory.mkdir(parents=True, exist_ok=True)
        _write_atomic(digest, hashlib.sha256(data).hexdigest().encode())
        try:
            _write_atomic(path, data)
        except BaseException:
            _unlink(digest)
            raise
        if self.max_bytes is not None:
            _evict_disk_lru(self.directory, self.pattern, self.max_bytes)
        return path

    def _check(self, path: Path, validate: Callable | None) -> tuple:
        """``(status, detail, value)``: status ``ok``, ``missing`` or the
        reason to quarantine; ``value`` is ``validate(data)`` (default:
        the bytes), checked before the digest."""
        try:
            data = path.read_bytes()
            value = validate(data) if validate is not None else data
        except FileNotFoundError:
            return "missing", "", None
        except (OSError, ValueError) as exc:
            reason = exc.reason if isinstance(exc, BadEntry) else "corrupt"
            return reason, str(exc), None
        try:
            recorded = _digest(path).read_text()
        except OSError:
            return "corrupt", "no digest recorded", None
        if recorded.strip() != hashlib.sha256(data).hexdigest():
            return "corrupt", "sha256 does not match its digest", None
        return "ok", "", value

    def load(self, key: str, validate: Callable | None = None):
        """The verified entry for ``key`` (None on a miss or a reject,
        which is quarantined).  ``validate(data)`` returns the value or
        raises :class:`BadEntry` / ``ValueError``."""
        path = self.path(key)
        status, _, value = self._check(path, validate)
        if status == "missing":
            self._count("disk_misses")
            return None
        if status != "ok":
            self._count("stale_rejects")
            self.quarantine(path, status)
            return None
        self._count("disk_hits")
        try:
            os.utime(path)  # LRU recency survives across processes
        except OSError:
            pass
        return value

    def remove(self, key: str) -> bool:
        """Delete ``key``'s entry and digest; True if the entry existed."""
        path = self.path(key)
        _unlink(_digest(path))
        return _unlink(path)

    def quarantine(self, path: Path, reason: str) -> Path | None:
        """Move ``path`` to ``quarantine/<name>.<reason>[.n]``; None if
        the move failed (the file vanished: callers carry on)."""
        qdir = self.directory / "quarantine"
        try:
            qdir.mkdir(exist_ok=True)
            dest, n = qdir / f"{path.name}.{reason}", 0
            while dest.exists():
                n += 1
                dest = qdir / f"{path.name}.{reason}.{n}"
            os.replace(path, dest)
        except OSError:
            return None
        _unlink(_digest(path))
        self._count("quarantined")
        _metrics.registry().counter(
            "repro_cache_quarantined_total",
            "disk entries moved to the quarantine sidecar").inc()
        return dest

    def health(self) -> dict:
        """Entry count, entry bytes and the budget."""
        sizes = []
        for path in self.directory.glob(self.pattern):
            try:
                sizes.append(path.stat().st_size)
            except OSError:
                continue
        return {"disk_entries": len(sizes), "disk_bytes": sum(sizes),
                "max_disk_bytes": self.max_bytes}

    def scan(self, fix: bool = False,
             validate: Callable | None = None) -> list[dict]:
        """``{"file", "status", "detail"}`` per entry (``ok`` or the
        reason :meth:`load` would reject it with) and per temp file of
        an interrupted write (``orphan-tmp``).  ``fix`` quarantines bad
        entries and deletes temp files."""
        report = []
        for path in sorted(self.directory.glob(
                f"{self.pattern}*.tmp.*")):
            report.append({"file": path.name, "status": "orphan-tmp",
                           "detail": "temp file from an interrupted write"})
            if fix:
                _unlink(path)
        for path in sorted(self.directory.glob(self.pattern)):
            status, detail, _ = self._check(path, validate)
            if status == "missing":
                continue  # evicted or replaced since the glob
            report.append({"file": path.name, "status": status,
                           "detail": detail})
            if fix and status != "ok":
                self.quarantine(path, status)
        return report
