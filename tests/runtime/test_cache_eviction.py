"""Disk-cache LRU eviction: bounded growth under a byte budget.

The regression of record: long-running rigs fill the cache directory
without bound — every new circuit/order writes a file, nothing ever
deletes one.  ``max_disk_bytes`` turns the disk layer into an LRU (by
mtime, refreshed on hit): after every save the oldest entries are
evicted until the layer fits the budget.  Eviction is schema-aware —
it only ever touches the layer's own ``awesym-*`` / ``condense-*``
pattern, never the quarantine sidecar or foreign files.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.circuits.library import fig1_circuit
from repro.partition import condense_blocks, partition
from repro.runtime import CondensationCache, ProgramCache
from repro.runtime.store import _evict_disk_lru


def _stale_entries(d: Path, stem: str, n: int, size: int = 100) -> list:
    """``n`` files named ``<stem><i>.json`` with ancient, increasing mtimes."""
    paths = []
    for i in range(n):
        p = d / f"{stem}{i:032d}.json"
        p.write_text("x" * size)
        os.utime(p, (1000.0 + i, 1000.0 + i))
        paths.append(p)
    return paths


class TestEvictionHelper:
    def test_oldest_evicted_first(self, tmp_path):
        _stale_entries(tmp_path, "awesym-", 5)
        n, freed = _evict_disk_lru(tmp_path, "awesym-*.json", 300)
        assert (n, freed) == (2, 200)
        left = sorted(p.name for p in tmp_path.glob("awesym-*.json"))
        assert left == [f"awesym-{i:032d}.json" for i in (2, 3, 4)]

    def test_under_budget_is_a_noop(self, tmp_path):
        _stale_entries(tmp_path, "awesym-", 3)
        assert _evict_disk_lru(tmp_path, "awesym-*.json", 10_000) == (0, 0)
        assert len(list(tmp_path.glob("awesym-*.json"))) == 3

    def test_quarantine_and_foreign_files_untouched(self, tmp_path):
        _stale_entries(tmp_path, "awesym-", 4)
        q = tmp_path / "quarantine"
        q.mkdir()
        (q / "awesym-bad.json").write_text("y" * 500)
        foreign = tmp_path / "condense-0.json"
        foreign.write_text("z" * 500)
        os.utime(foreign, (1.0, 1.0))  # older than everything
        _evict_disk_lru(tmp_path, "awesym-*.json", 100)
        assert (q / "awesym-bad.json").exists()
        assert foreign.exists()
        assert len(list(tmp_path.glob("awesym-*.json"))) == 1

    def test_zero_budget_clears_the_layer(self, tmp_path):
        _stale_entries(tmp_path, "awesym-", 3)
        n, _ = _evict_disk_lru(tmp_path, "awesym-*.json", 0)
        assert n == 3
        assert not list(tmp_path.glob("awesym-*.json"))


class TestProgramCacheBudget:
    def test_validates_budget(self, tmp_path):
        with pytest.raises(ValueError):
            ProgramCache(disk_dir=tmp_path, max_disk_bytes=-1)

    def test_save_evicts_stale_entries(self, tmp_path):
        probe = ProgramCache(disk_dir=tmp_path)
        result = probe.get_or_build(fig1_circuit(), "out",
                                    symbols=["C1", "C2"], order=2)
        real_size = sum(p.stat().st_size
                        for p in tmp_path.glob("awesym-*.json"))
        _stale_entries(tmp_path, "awesym-", 3, size=real_size)

        bounded = ProgramCache(disk_dir=tmp_path,
                               max_disk_bytes=real_size * 2)
        key = bounded.key_for(fig1_circuit(), "out", ["C1", "C2"], 2)
        bounded.save_disk(key, result)  # triggers eviction of the decoys
        total = sum(p.stat().st_size for p in tmp_path.glob("awesym-*.json"))
        assert total <= real_size * 2
        # the just-written (newest) entry survived
        assert bounded.load_disk(key) is not None

    def test_hit_refreshes_lru_position(self, tmp_path):
        cache = ProgramCache(disk_dir=tmp_path, max_disk_bytes=None)
        cache.get_or_build(fig1_circuit(), "out",
                           symbols=["C1", "C2"], order=2)
        key = cache.key_for(fig1_circuit(), "out", ["C1", "C2"], 2)
        path = next(tmp_path.glob("awesym-*.json"))
        os.utime(path, (1000.0, 1000.0))
        old = path.stat().st_mtime
        assert cache.load_disk(key) is not None
        assert path.stat().st_mtime > old  # touched on hit

    def test_health_reports_size_and_budget(self, tmp_path):
        cache = ProgramCache(disk_dir=tmp_path, max_disk_bytes=1 << 20)
        cache.get_or_build(fig1_circuit(), "out", symbols=["C1"], order=1)
        health = cache.health()
        assert health["disk_entries"] == 1
        assert health["disk_bytes"] > 0
        assert health["max_disk_bytes"] == 1 << 20
        assert health["schema"] is not None


class TestCondensationCacheBudget:
    def test_validates_budget(self, tmp_path):
        with pytest.raises(ValueError):
            CondensationCache(disk_dir=tmp_path, max_disk_bytes=-5)

    def test_budget_bounds_the_layer(self, tmp_path):
        part = partition(fig1_circuit(), ["C1", "C2"], output="out")
        _stale_entries(tmp_path, "condense-", 4, size=5000)
        cache = CondensationCache(disk_dir=tmp_path, max_disk_bytes=6000)
        condense_blocks(part, 2, cache=cache)  # real puts evict the decoys
        total = sum(p.stat().st_size
                    for p in tmp_path.glob("condense-*.json"))
        assert total <= 6000
        # the fresh (real) entries are the survivors: a cold reader hits
        reader = CondensationCache(disk_dir=tmp_path)
        condense_blocks(part, 2, cache=reader)
        assert reader.stats.disk_hits == len(part.numeric_blocks)

    def test_health_includes_budget(self, tmp_path):
        cache = CondensationCache(disk_dir=tmp_path, max_disk_bytes=4096)
        assert cache.health()["max_disk_bytes"] == 4096


class TestDoctorReportsSize:
    def test_doctor_prints_cache_sizes(self, tmp_path, capsys):
        from repro.cli import main

        cache = ProgramCache(disk_dir=tmp_path)
        cache.get_or_build(fig1_circuit(), "out", symbols=["C1"], order=1)
        rc = main(["doctor", "--cache-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "program cache: 1 entries" in out
        assert "condensation cache: 0 entries" in out
        assert "unbounded" in out
