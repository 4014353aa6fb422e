"""A warm start is a load: a program-cache disk hit reads the stored
model tape and builds its evaluator, with no partition, no symbolic
solve and no lowering.

A disk hit and a registered ``.tape`` give the same *loaded* result:
the model, and no partition, polynomials or closed forms.  Validating
an entry (a lookup, ``repro doctor``, ``/readyz``) executes nothing.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

import repro.partition
import repro.partition.composite
import repro.symbolic.compile
from repro.circuits.library import fig1_circuit
from repro.core import metrics
from repro.core.compiled_model import TapeModel
from repro.runtime import ProgramCache
from repro.symbolic.tape import OpTape, tape_from_dict

SYMBOLS = ["C1", "C2"]
GRIDS = {"C1": np.linspace(0.5e-12, 5e-12, 7),
         "C2": np.linspace(0.1e-12, 3e-12, 5)}


def build(cache: ProgramCache, order: int = 2):
    return cache.get_or_build(fig1_circuit(), "out", symbols=SYMBOLS,
                              order=order)


def forbid(monkeypatch, target, name: str) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError(f"a disk hit called {name}")
    monkeypatch.setattr(target, name, refuse)


class TestDiskHitIsALoad:
    @pytest.mark.parametrize("order", [2, 4])
    def test_disk_hit_runs_no_partition_and_no_lowering(self, tmp_path,
                                                        monkeypatch, order):
        compiled = build(ProgramCache(disk_dir=tmp_path), order)
        forbid(monkeypatch, repro.partition, "partition")
        forbid(monkeypatch, repro.partition.composite.SymbolicMoments,
               "compile")
        forbid(monkeypatch, repro.partition.composite, "lower_rationals")
        forbid(monkeypatch, repro.symbolic.compile, "lower_rationals")

        reader = ProgramCache(disk_dir=tmp_path)
        loaded = build(reader, order)
        assert reader.stats.disk_hits == 1
        assert reader.stats.build_seconds == 0.0
        assert loaded.model.tape.content_hash == \
            compiled.model.tape.content_hash
        for metric in (metrics.dominant_pole_hz, metrics.phase_margin):
            assert np.asarray(loaded.model.sweep(GRIDS, metric)).tobytes() \
                == np.asarray(compiled.model.sweep(GRIDS, metric)).tobytes()

    def test_disk_hit_is_a_loaded_result(self, tmp_path):
        compiled = build(ProgramCache(disk_dir=tmp_path))
        loaded = build(ProgramCache(disk_dir=tmp_path))
        assert type(loaded.model) is TapeModel
        assert loaded.partition is None and loaded.moments is None
        assert loaded.first_order is None and loaded.second_order is None
        assert loaded.symbols == compiled.symbols == SYMBOLS
        assert loaded.rom({"C1": 2e-12}).poles.tobytes() == \
            compiled.rom({"C1": 2e-12}).poles.tobytes()

    def test_entry_embeds_the_model_tape(self, tmp_path):
        cache = ProgramCache(disk_dir=tmp_path)
        compiled = build(cache)
        key = cache.key_for(fig1_circuit(), "out", SYMBOLS, 2)
        entry = json.loads(cache._disk_path(key).read_text())
        assert entry["tape"] == compiled.model.tape.to_dict()
        assert entry["tape"]["integrity"] == \
            f"sha256:{compiled.model.tape.content_hash}"


class TestValidationExecutesNothing:
    def test_lookup_and_scan_build_no_program_until_the_hit(
            self, tmp_path, monkeypatch):
        build(ProgramCache(disk_dir=tmp_path))
        forbid(monkeypatch, OpTape, "build_function")
        cache = ProgramCache(disk_dir=tmp_path)
        (record,) = cache.scan_disk()
        assert record["status"] == "ok"
        key = cache.key_for(fig1_circuit(), "out", SYMBOLS, 2)
        assert isinstance(cache.load_disk(key), OpTape)

    @pytest.mark.parametrize("damage", ["consts", "bare-program"])
    def test_damaged_tape_is_quarantined_as_corrupt(self, tmp_path,
                                                    damage):
        cache = ProgramCache(disk_dir=tmp_path)
        build(cache)
        key = cache.key_for(fig1_circuit(), "out", SYMBOLS, 2)
        path = cache._disk_path(key)
        entry = json.loads(path.read_text())
        if damage == "consts":
            entry["tape"]["consts"][0] *= 1.5  # integrity mismatch
        else:
            # a well-formed, correctly hashed tape with no model meta
            tape = entry["tape"]
            tape["meta"] = {}
            del tape["integrity"]
            tape["integrity"] = f"sha256:{tape_from_dict(tape).content_hash}"
        data = json.dumps(entry).encode()
        path.write_bytes(data)
        path.with_name(path.name + ".sha256").write_text(
            hashlib.sha256(data).hexdigest())  # the digest agrees

        (record,) = ProgramCache(disk_dir=tmp_path).scan_disk()
        assert record["status"] == "corrupt"
        reader = ProgramCache(disk_dir=tmp_path)
        build(reader)
        assert reader.stats.disk_hits == 0 and reader.stats.quarantined == 1
        assert list((tmp_path / "quarantine").glob("*.corrupt"))
