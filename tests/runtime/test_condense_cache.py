"""CondensationCache semantics: content keys, order truncation, disk layer.

The contract under test: a cache hit must hand back *exactly* the floats
a fresh condensation would compute (JSON round-trips float64 exactly),
entries upgrade to the highest order seen, and the key covers the block
content and port list but never the order.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.circuits.library import fig1_circuit
from repro.core.awesymbolic import awesymbolic
from repro.partition import condense_blocks, partition
import repro.runtime.cache as cache_mod
from repro.runtime import CONDENSE_SCHEMA, CondensationCache

from ..digest import compiled_digest


@pytest.fixture()
def part():
    return partition(fig1_circuit(), ["C1", "C2"], output="out")


def first_block(part):
    return part.numeric_blocks[0]


class TestKeying:
    def test_key_ignores_order(self, part):
        blk = first_block(part)
        cache = CondensationCache()
        assert cache.key_for(blk.circuit, blk.ports) == \
            cache.key_for(blk.circuit, blk.ports)

    def test_key_covers_ports(self, part):
        blk = first_block(part)
        cache = CondensationCache()
        assert cache.key_for(blk.circuit, blk.ports) != \
            cache.key_for(blk.circuit, tuple(reversed(blk.ports)))

    def test_key_covers_block_content(self):
        a = partition(fig1_circuit(), ["C1", "C2"], output="out")
        edited_circuit = fig1_circuit()
        edited_circuit.replace_value("G1", 123.0)
        b = partition(edited_circuit, ["C1", "C2"], output="out")
        cache = CondensationCache()
        assert cache.key_for(first_block(a).circuit, first_block(a).ports) \
            != cache.key_for(first_block(b).circuit, first_block(b).ports)


class TestMemorySemantics:
    def test_miss_then_hit(self, part):
        cache = CondensationCache()
        exps = condense_blocks(part, 3, cache=cache)
        assert cache.stats.misses == len(part.numeric_blocks)
        again = condense_blocks(part, 3, cache=cache)
        assert cache.stats.hits == len(part.numeric_blocks)
        for a, b in zip(exps, again):
            assert np.array_equal(a.Y, b.Y)  # exact, not approx

    def test_lower_order_served_by_truncation(self, part):
        cache = CondensationCache()
        full = condense_blocks(part, 4, cache=cache)
        truncated = condense_blocks(part, 2, cache=cache)
        assert cache.stats.misses == len(part.numeric_blocks)
        for f, t in zip(full, truncated):
            assert t.order == 2
            assert np.array_equal(t.Y, f.Y[:3])

    def test_higher_order_is_miss_and_upgrades(self, part):
        cache = CondensationCache()
        condense_blocks(part, 2, cache=cache)
        condense_blocks(part, 5, cache=cache)
        # after the upgrade, order 5 is a hit
        condense_blocks(part, 5, cache=cache)
        assert cache.stats.hits == len(part.numeric_blocks)

    def test_put_never_downgrades(self, part):
        blk = first_block(part)
        cache = CondensationCache()
        high = condense_blocks(part, 5, cache=cache)[0]
        low_Y = high.Y[:2].copy()
        cache.put(blk.circuit, blk.ports,
                  type(high)(ports=high.ports, Y=low_Y))
        got = cache.get(blk.circuit, blk.ports, 5)
        assert got is not None and got.order == 5


class TestDiskLayer:
    def test_roundtrip_is_bit_exact(self, part, tmp_path):
        writer = CondensationCache(disk_dir=tmp_path)
        original = condense_blocks(part, 3, cache=writer)
        reader = CondensationCache(disk_dir=tmp_path)
        reloaded = condense_blocks(part, 3, cache=reader)
        assert reader.stats.disk_hits == len(part.numeric_blocks)
        for a, b in zip(original, reloaded):
            assert a.ports == b.ports
            assert np.array_equal(a.Y, b.Y)
            assert a.Y.dtype == b.Y.dtype

    def test_entries_carry_schema(self, part, tmp_path):
        cache = CondensationCache(disk_dir=tmp_path)
        condense_blocks(part, 2, cache=cache)
        files = list(tmp_path.glob("condense-*.json"))
        assert files
        assert all(json.loads(f.read_text())["schema"] == CONDENSE_SCHEMA
                   for f in files)

    def test_health_reports_entries_and_hit_rate(self, part, tmp_path):
        cache = CondensationCache(disk_dir=tmp_path)
        condense_blocks(part, 2, cache=cache)
        condense_blocks(part, 2, cache=cache)
        h = cache.health()
        assert h["schema"] == CONDENSE_SCHEMA
        assert h["disk_entries"] == len(part.numeric_blocks)
        assert h["disk_bytes"] > 0
        assert h["hit_rate"] == pytest.approx(0.5)

    def test_program_schema_bump_keeps_condensation_entries(
            self, part, tmp_path, monkeypatch):
        """Each disk layer versions its own format: a bump of the program
        entries' schema leaves a condensation entry written before it a
        disk hit, graded ``ok`` by the scan."""
        condense_blocks(part, 3, cache=CondensationCache(disk_dir=tmp_path))
        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA",
                            cache_mod.CACHE_SCHEMA + 1)
        reader = CondensationCache(disk_dir=tmp_path)
        report = reader.scan_disk()
        assert len(report) == len(part.numeric_blocks)
        assert all(r["status"] == "ok" for r in report)
        condense_blocks(part, 3, cache=reader)
        assert reader.stats.disk_hits == len(part.numeric_blocks)
        assert reader.health()["schema"] == CONDENSE_SCHEMA


class TestEndToEnd:
    def test_cached_condensation_compiles_identical_model(self, tmp_path):
        circuit = fig1_circuit()
        ref = compiled_digest(
            awesymbolic(circuit, "out", symbols=["C1", "C2"], order=3))
        cache = CondensationCache(disk_dir=tmp_path)
        for _ in range(2):  # cold fill, then pure-hit compile
            got = compiled_digest(
                awesymbolic(circuit, "out", symbols=["C1", "C2"], order=3,
                            condense_cache=cache))
            assert got == ref
        assert cache.stats.hits > 0
