"""Program-cache behavior: keys, LRU, the disk layer, stale rejection."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.circuits.library import fig1_circuit
from repro.core import metrics
from repro.runtime import ProgramCache, circuit_fingerprint


def build(cache, circuit=None, symbols=("C1", "C2"), order=2, **kw):
    return cache.get_or_build(circuit if circuit is not None
                              else fig1_circuit(), "out",
                              symbols=list(symbols), order=order, **kw)


class TestFingerprint:
    def test_deterministic_across_builds(self):
        assert circuit_fingerprint(fig1_circuit()) == \
            circuit_fingerprint(fig1_circuit())

    def test_value_change_changes_fingerprint(self):
        base = fig1_circuit()
        edited = fig1_circuit()
        edited.replace_value("C1", 2e-12)
        assert circuit_fingerprint(base) != circuit_fingerprint(edited)

    def test_element_order_irrelevant(self):
        # same elements, same hash — the fingerprint sorts by name
        a, b = fig1_circuit(), fig1_circuit()
        assert circuit_fingerprint(a) == circuit_fingerprint(b)


class TestMemoryLayer:
    def test_hit_returns_same_object(self):
        cache = ProgramCache()
        first = build(cache)
        second = build(cache)
        assert first is second
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_key_varies_with_inputs(self):
        cache = ProgramCache()
        base = cache.key_for(fig1_circuit(), "out", ["C1", "C2"], 2)
        assert cache.key_for(fig1_circuit(), "out", ["C1"], 2) != base
        assert cache.key_for(fig1_circuit(), "out", ["C1", "C2"], 1) != base
        assert cache.key_for(fig1_circuit(), "n1", ["C1", "C2"], 2) != base
        edited = fig1_circuit()
        edited.replace_value("G1", 2e-3)
        assert cache.key_for(edited, "out", ["C1", "C2"], 2) != base

    def test_circuit_edit_is_a_miss(self):
        cache = ProgramCache()
        build(cache)
        edited = fig1_circuit()
        edited.replace_value("C2", 7e-12)
        build(cache, circuit=edited)
        assert cache.stats.misses == 2 and cache.stats.hits == 0

    def test_lru_eviction(self):
        cache = ProgramCache(maxsize=2)
        build(cache, order=1)
        build(cache, order=2)
        build(cache, symbols=("C1",))   # evicts the order-1 entry
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        build(cache, order=1)           # miss: rebuilt
        assert cache.stats.misses == 4

    def test_lru_refresh_on_hit(self):
        cache = ProgramCache(maxsize=2)
        build(cache, order=1)
        build(cache, order=2)
        build(cache, order=1)           # refresh order-1 to most-recent
        build(cache, symbols=("C1",))   # should evict order-2, not order-1
        build(cache, order=1)
        assert cache.stats.hits == 2    # both order-1 re-uses were hits

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            ProgramCache(maxsize=0)


class TestDiskLayer:
    def test_roundtrip_without_rebuilding(self, tmp_path):
        writer = ProgramCache(disk_dir=tmp_path)
        original = build(writer)
        assert writer.stats.build_seconds > 0.0

        reader = ProgramCache(disk_dir=tmp_path)
        reloaded = build(reader)
        assert reader.stats.disk_hits == 1
        assert reader.stats.build_seconds == 0.0  # no symbolic solve
        # rebuilt model evaluates identically
        grids = {"C1": np.linspace(0.5e-12, 5e-12, 7),
                 "C2": np.linspace(0.1e-12, 3e-12, 5)}
        np.testing.assert_array_equal(
            reloaded.model.sweep(grids, metrics.dominant_pole_hz),
            original.model.sweep(grids, metrics.dominant_pole_hz))

    def test_stale_key_rejected(self, tmp_path):
        cache = ProgramCache(disk_dir=tmp_path)
        build(cache)
        key = cache.key_for(fig1_circuit(), "out", ["C1", "C2"], 2)
        path = cache._disk_path(key)
        payload = json.loads(path.read_text())
        payload["cache_key"] = "0" * 64  # simulate a foreign/stale entry
        path.write_text(json.dumps(payload))

        reader = ProgramCache(disk_dir=tmp_path)
        build(reader)
        assert reader.stats.stale_rejects == 1
        assert reader.stats.disk_hits == 0
        assert reader.stats.build_seconds > 0.0  # forced a fresh build

    def test_corrupt_file_rejected(self, tmp_path):
        cache = ProgramCache(disk_dir=tmp_path)
        build(cache)
        key = cache.key_for(fig1_circuit(), "out", ["C1", "C2"], 2)
        cache._disk_path(key).write_text("{not json")
        reader = ProgramCache(disk_dir=tmp_path)
        build(reader)
        assert reader.stats.stale_rejects == 1
        assert reader.stats.disk_hits == 0

    def test_invalidate_removes_both_layers(self, tmp_path):
        cache = ProgramCache(disk_dir=tmp_path)
        build(cache)
        key = cache.key_for(fig1_circuit(), "out", ["C1", "C2"], 2)
        assert key in cache and cache._disk_path(key).exists()
        assert cache.invalidate(key)
        assert key not in cache and not cache._disk_path(key).exists()
        assert not cache.invalidate(key)  # second call: nothing left

    def test_no_disk_dir_disables_layer(self):
        cache = ProgramCache()
        build(cache)
        key = cache.key_for(fig1_circuit(), "out", ["C1", "C2"], 2)
        assert cache._disk_path(key) is None
        assert cache.load_disk(key) is None
        assert cache.stats.disk_misses == 0  # not even counted


def test_cached_awesymbolic_uses_default_cache():
    from repro.runtime import cached_awesymbolic, default_cache

    cache = ProgramCache()
    a = cached_awesymbolic(fig1_circuit(), "out", symbols=["C1", "C2"],
                           cache=cache)
    b = cached_awesymbolic(fig1_circuit(), "out", symbols=["C1", "C2"],
                           cache=cache)
    assert a is b
    assert default_cache() is default_cache()  # process-wide singleton
