"""The artifact store: a damaged entry is never used.

Every persisted artifact — program entries, condensations, native
kernels, spooled tapes — goes through one
:class:`~repro.runtime.store.ArtifactStore`: atomic publish, a sha256
digest checked before use, quarantine, and an LRU byte budget.  The
damage cases here were all served (or crashed the loader) before the
store: an edited program coefficient came back as a disk hit with
wrong poles, a half-truncated ``.so`` killed the loading process with
SIGBUS, and a 100-byte ``.so`` disabled the native kernel for good.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.circuits.library import fig1_circuit, small_signal_741
from repro.core.awesymbolic import awesymbolic
from repro.runtime import ProgramCache, native
from repro.runtime.store import ArtifactStore
from repro.symbolic.tape import load_tape, tape_for
from repro.testing import FaultInjector, InjectedFault

SRC = Path(__file__).resolve().parents[2] / "src"

#: loads the kernel for a saved tape in a fresh process (argv[1])
LOADER = """
import sys
from repro.runtime.native import native_kernel_for
from repro.symbolic.tape import load_tape
fn = load_tape(sys.argv[1]).build_function()
native_kernel_for(fn, (True,) * len(fn.space))
"""


class TestStoreProtocol:
    def test_publish_load_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path, "blob-", ".bin")
        path = store.publish("ab" * 32, b"payload")
        assert path.name == "blob-" + "ab" * 16 + ".bin"
        assert store.load("ab" * 32) == b"payload"
        assert store.health()["disk_entries"] == 1  # the digest is no entry
        assert [r["status"] for r in store.scan()] == ["ok"]

    def test_fault_mid_publish_leaves_nothing(self, tmp_path):
        store = ArtifactStore(tmp_path, "blob-", ".bin")
        injector = FaultInjector().raises("cache.write")
        with injector.armed(), pytest.raises(InjectedFault):
            store.publish("cd" * 32, b"x" * 1000)
        assert injector.fired("cache.write") == 1
        assert list(tmp_path.iterdir()) == []
        assert store.load("cd" * 32) is None

    def test_entry_without_digest_is_corrupt(self, tmp_path):
        store = ArtifactStore(tmp_path, "blob-", ".bin")
        store.path("ef" * 32).write_bytes(b"written by hand")
        assert store.load("ef" * 32) is None
        assert list((tmp_path / "quarantine").glob("*.corrupt"))

    def test_undecodable_entry_is_corrupt(self, tmp_path):
        store = ArtifactStore(tmp_path, "blob-", ".json")
        store.publish("01" * 32, b"\xff\xfe not utf-8")
        assert store.load("01" * 32, json.loads) is None
        assert [p.name for p in (tmp_path / "quarantine").iterdir()] == [
            store.path("01" * 32).name + ".corrupt"]


    def test_racing_writers_never_hand_out_a_wrong_value(self, tmp_path):
        """Threads overwrite one key while others read it: a reader may
        see mismatched halves and quarantine them, but every value it
        returns is one a writer published in full."""
        store = ArtifactStore(tmp_path, "blob-", ".bin")
        payloads = [bytes([i]) * (4096 + i) for i in range(4)]
        wrong: list[bytes] = []
        stop = threading.Event()

        def writer(data: bytes) -> None:
            while not stop.is_set():
                store.publish("aa" * 32, data)

        def reader() -> None:
            while not stop.is_set():
                got = store.load("aa" * 32)
                if got is not None and got not in payloads:
                    wrong.append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer, args=(d,))
                       for d in payloads]
            threads += [threading.Thread(target=reader) for _ in range(4)]
            for t in threads:
                t.start()
            time.sleep(1.0)
            stop.set()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        # the race may end on mismatched halves (a reader then rebuilds);
        # the next publish makes the key consistent again
        store.publish("aa" * 32, payloads[0])
        assert store.load("aa" * 32) == payloads[0]


class TestProgramEntries:
    def test_edited_coefficient_is_quarantined_and_rebuilt(self, tmp_path):
        circuit = fig1_circuit()
        cold = ProgramCache().get_or_build(circuit, "out",
                                           symbols=["C1", "C2"], order=2)
        writer = ProgramCache(disk_dir=tmp_path)
        writer.get_or_build(circuit, "out", symbols=["C1", "C2"], order=2)
        path = writer._disk_path(writer.key_for(circuit, "out",
                                                ["C1", "C2"], 2))
        payload = json.loads(path.read_text())
        payload["tape"]["consts"][0] *= 1.5  # one constant, 1.5x
        path.write_text(json.dumps(payload))  # still valid JSON

        reader = ProgramCache(disk_dir=tmp_path)
        got = reader.get_or_build(circuit, "out", symbols=["C1", "C2"],
                                  order=2)
        assert reader.stats.disk_hits == 0
        assert reader.stats.quarantined == 1
        assert list((tmp_path / "quarantine").glob("*.corrupt"))
        np.testing.assert_array_equal(got.rom({}).poles, cold.rom({}).poles)


# ----------------------------------------------------------------------
# native kernels
# ----------------------------------------------------------------------
@pytest.fixture()
def native_dir(tmp_path, monkeypatch):
    if native._find_cc() is None:
        pytest.skip("no C compiler (cc/gcc/clang) on PATH")
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    directory = tmp_path / "native"
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(directory))
    return directory


@pytest.fixture(scope="module")
def fig1_tape_file(tmp_path_factory):
    res = awesymbolic(fig1_circuit(), "out", symbols=["C1", "C2"], order=2)
    path = tmp_path_factory.mktemp("tape") / "fig1.tape"
    tape_for(res.model.compiled_moments.fn).save(path)
    return path


def _load_in_subprocess(tape_path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", LOADER, str(tape_path)],
                          env=env, capture_output=True, text=True,
                          timeout=300)


def _kernel_entries(directory: Path) -> list[Path]:
    return sorted(directory.glob("tape-*.so"))


class TestNativeStore:
    @pytest.mark.parametrize("cut", ["half", "100"])
    def test_truncated_kernel_is_rebuilt_never_loaded(self, native_dir,
                                                      fig1_tape_file, cut):
        built = _load_in_subprocess(fig1_tape_file)
        assert built.returncode == 0, built.stderr
        (entry,) = _kernel_entries(native_dir)
        data = entry.read_bytes()
        entry.write_bytes(data[:len(data) // 2] if cut == "half"
                          else data[:100])

        # before the store, "half" died with SIGBUS in dlopen and "100"
        # left the file in place with the kernel disabled
        again = _load_in_subprocess(fig1_tape_file)
        assert again.returncode == 0, again.stderr
        assert entry.stat().st_size > len(data) // 2  # rebuilt in place
        (moved,) = (native_dir / "quarantine").glob("*.corrupt")
        assert moved.stat().st_size < len(data)
        assert [r["status"] for r in native.native_store().scan()] == ["ok"]

    def test_build_leaves_no_source_or_temp_files(self, native_dir,
                                                  fig1_tape_file, tmp_path,
                                                  monkeypatch):
        fn = load_tape(fig1_tape_file).build_function()
        mask = (True,) * len(fn.space)
        native.native_kernel_for(fn, mask)
        names = {p.name for p in native_dir.iterdir()}
        assert {n.rsplit(".", 1)[-1] for n in names} == {"so", "sha256"}

        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        fake = bin_dir / "cc"
        fake.write_text("#!/bin/sh\necho 'fake cc: no' >&2\nexit 1\n")
        fake.chmod(0o755)
        monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}"
                                   f"{os.environ.get('PATH', '')}")
        with pytest.raises(native.NativeUnavailable, match="fake cc"):
            native.native_kernel_for(fn, mask)
        assert {p.name for p in native_dir.iterdir()} == names

    def test_doctor_fix_sweeps_pre_store_files(self, native_dir,
                                               fig1_tape_file, tmp_path,
                                               capsys):
        """Kernel builds from before the store left ``tape-*.c`` sources
        and digest-less ``.so`` files; ``doctor --fix`` removes the
        sources, quarantines the kernels and keeps the published one."""
        from repro.cli import main

        built = _load_in_subprocess(fig1_tape_file)
        assert built.returncode == 0, built.stderr
        (published,) = _kernel_entries(native_dir)
        data = published.read_bytes()
        legacy = native_dir / ("tape-" + "0" * 32 + ".so")
        legacy.write_bytes(b"\x7fELF from before the store")
        source = native_dir / ("tape-" + "0" * 32 + ".c")
        source.write_text("/* generated kernel source */\n")

        rc = main(["doctor", "--cache-dir", str(tmp_path / "cache"),
                   "--fix"])
        assert rc == 0  # the kernel store never grades the exit status
        out = capsys.readouterr().out
        assert "1 kernels quarantined" in out
        assert "1 C sources removed" in out
        assert not source.exists() and not legacy.exists()
        (moved,) = (native_dir / "quarantine").iterdir()
        assert moved.name == legacy.name + ".corrupt"

        again = _load_in_subprocess(fig1_tape_file)
        assert again.returncode == 0, again.stderr
        assert _kernel_entries(native_dir) == [published]
        assert published.read_bytes() == data
        assert list((native_dir / "quarantine").iterdir()) == [moved]
        assert [r["status"] for r in native.native_store().scan()] == ["ok"]

    def test_budget_keeps_the_newest_kernel(self, native_dir, monkeypatch):
        ss = small_signal_741()
        res = awesymbolic(ss.circuit, "out", symbols=["go_Q14", "Ccomp"],
                          order=2)
        fn = res.model.compiled_moments.fn
        seen: set[str] = set()
        newest = None
        for i, mask in enumerate([(True, True), (True, False),
                                  (False, True)]):
            native.native_kernel_for(fn, mask)
            names = {p.name for p in _kernel_entries(native_dir)}
            (newest,) = names - seen
            seen |= names
            if i == 0:
                budget = int((native_dir / newest).stat().st_size * 1.5)
                monkeypatch.setattr(native, "_STORE_MAX_BYTES", budget)
        entries = _kernel_entries(native_dir)
        assert sum(p.stat().st_size for p in entries) <= budget
        assert [p.name for p in entries] == [newest]
        assert sorted(p.name for p in native_dir.glob("tape-*.so.sha256")) \
            == [newest + ".sha256"]
