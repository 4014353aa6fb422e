"""Chaos suite for the condensation cache (S5).

A damaged ``condense-*.json`` must never crash a compile or change its
result: the entry is quarantined, the block is re-condensed cold, and the
compiled moments stay byte-identical to a cache-free build.  Torn writes
(killed via the ``cache.write`` fault site shared with the program cache)
must leave no partial entry visible under the real name.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.circuits.library import fig1_circuit
from repro.core.awesymbolic import awesymbolic
from repro.partition import condense_blocks, partition
from repro.runtime import CondensationCache
from repro.testing import FaultInjector, InjectedFault

from ..digest import compiled_digest


@pytest.fixture()
def part():
    return partition(fig1_circuit(), ["C1", "C2"], output="out")


def fill(tmp_path, part, order=3):
    """Seed a disk-backed cache and return the persisted entry paths."""
    cache = CondensationCache(disk_dir=tmp_path)
    condense_blocks(part, order, cache=cache)
    files = sorted(tmp_path.glob("condense-*.json"))
    assert files, "seeding the cache must persist at least one entry"
    return files


class TestCorruptEntries:
    def test_corrupt_entry_falls_back_cold(self, tmp_path, part):
        files = fill(tmp_path, part)
        reference = condense_blocks(part, 3)
        files[0].write_text("{ not json at all")

        reader = CondensationCache(disk_dir=tmp_path)
        got = condense_blocks(part, 3, cache=reader)
        assert reader.stats.stale_rejects == 1
        assert reader.stats.quarantined == 1
        for a, b in zip(got, reference):
            assert np.array_equal(a.Y, b.Y)  # cold fallback, exact
        # the bad bytes were moved aside and a valid entry re-published
        assert list((tmp_path / "quarantine").glob("*.corrupt"))
        assert json.loads(files[0].read_text())["cache_key"]

    def test_truncated_entry_falls_back_cold(self, tmp_path, part):
        files = fill(tmp_path, part)
        text = files[0].read_text()
        files[0].write_text(text[: len(text) // 2])

        reader = CondensationCache(disk_dir=tmp_path)
        got = condense_blocks(part, 3, cache=reader)
        assert reader.stats.stale_rejects == 1
        assert len(got) == len(part.numeric_blocks)

    def test_wrong_shape_payload_is_rejected(self, tmp_path, part):
        files = fill(tmp_path, part)
        payload = json.loads(files[0].read_text())
        payload["y"] = [[[1.0]]]  # valid JSON, inconsistent with ports
        files[0].write_text(json.dumps(payload))

        reader = CondensationCache(disk_dir=tmp_path)
        condense_blocks(part, 3, cache=reader)
        assert reader.stats.stale_rejects == 1

    def test_schema_drift_is_quarantined_as_schema(self, tmp_path, part):
        files = fill(tmp_path, part)
        payload = json.loads(files[0].read_text())
        payload["schema"] = 999
        files[0].write_text(json.dumps(payload))

        reader = CondensationCache(disk_dir=tmp_path)
        condense_blocks(part, 3, cache=reader)
        assert reader.stats.stale_rejects == 1
        assert list((tmp_path / "quarantine").glob("*.schema"))

    def test_compile_through_damaged_cache_is_bit_identical(self, tmp_path):
        circuit = fig1_circuit()
        ref = compiled_digest(
            awesymbolic(circuit, "out", symbols=["C1", "C2"], order=3))
        cache = CondensationCache(disk_dir=tmp_path)
        awesymbolic(circuit, "out", symbols=["C1", "C2"], order=3,
                    condense_cache=cache)
        for path in tmp_path.glob("condense-*.json"):
            path.write_text("garbage")
        fresh = CondensationCache(disk_dir=tmp_path)
        got = compiled_digest(
            awesymbolic(circuit, "out", symbols=["C1", "C2"], order=3,
                        condense_cache=fresh))
        assert got == ref


class TestTornWrites:
    def test_killed_mid_write_leaves_no_entry(self, tmp_path, part):
        cache = CondensationCache(disk_dir=tmp_path)
        injector = FaultInjector().raises("cache.write")
        with injector.armed(), pytest.raises(InjectedFault):
            condense_blocks(part, 3, cache=cache)
        assert injector.fired("cache.write") == 1
        assert not list(tmp_path.glob("condense-*.json"))  # no torn entry
        assert not list(tmp_path.glob("*.tmp.*"))          # no litter

        # a fresh cache simply recomputes
        reader = CondensationCache(disk_dir=tmp_path)
        got = condense_blocks(part, 3, cache=reader)
        assert reader.stats.stale_rejects == 0
        assert len(got) == len(part.numeric_blocks)

    def test_killed_overwrite_keeps_previous_entry(self, tmp_path, part):
        files = fill(tmp_path, part, order=2)
        before = {f: f.read_text() for f in files}

        upgrader = CondensationCache(disk_dir=tmp_path)
        injector = FaultInjector().raises("cache.write")
        with injector.armed(), pytest.raises(InjectedFault):
            condense_blocks(part, 5, cache=upgrader)  # upgrade rewrites
        for f, text in before.items():
            assert f.read_text() == text  # order-2 entries intact

        reader = CondensationCache(disk_dir=tmp_path)
        condense_blocks(part, 2, cache=reader)
        assert reader.stats.disk_hits == len(part.numeric_blocks)


class TestScanDisk:
    def test_scan_reports_and_fix_quarantines(self, tmp_path, part):
        files = fill(tmp_path, part)
        files[0].write_text("broken")
        (tmp_path / "condense-deadbeef.json.tmp.123").write_text("partial")

        cache = CondensationCache(disk_dir=tmp_path)
        report = cache.scan_disk()
        by_status = {}
        for rec in report:
            by_status.setdefault(rec["status"], []).append(rec["file"])
        assert files[0].name in by_status["corrupt"]
        assert by_status["orphan-tmp"] == ["condense-deadbeef.json.tmp.123"]
        assert len(by_status.get("ok", [])) == len(files) - 1

        cache.scan_disk(fix=True)
        assert not files[0].exists()
        assert not (tmp_path / "condense-deadbeef.json.tmp.123").exists()
        assert all(rec["status"] == "ok" for rec in cache.scan_disk())
