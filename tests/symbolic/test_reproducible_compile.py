"""One circuit, one moment program, in every process.

The expression builder orders ``add``/``mul`` operands by a key computed
from their content (:func:`repro.symbolic.expr.content_key`), so the
program a circuit compiles to — its op tape, the native kernel keyed by
that tape, and every value the program computes — depends on neither
memory addresses nor ``PYTHONHASHSEED``.  Each case runs fresh
interpreters under different hash seeds and compares what they produce.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import awesymbolic
from repro.circuits.library import small_signal_741
from repro.runtime import native

SRC = Path(repro.__file__).resolve().parents[1]
FIG1_NETLIST = (Path(__file__).resolve().parents[2] / "examples"
                / "netlists" / "fig1.sp")
SEEDS = ("0", "1", "2")
CIRCUITS = ("fig1", "741", "ota", "lines")
ORDERS = (2, 4)

#: compiles every circuit at orders 2 and 4 and sweeps the 741's 32x32
#: order-4 dominant-pole grid (perfbench's q4 grid); prints one JSON line
COMPILE_AND_SWEEP = """
import hashlib, json
import numpy as np
from repro import awesymbolic
from repro.circuits.library import (fig1_circuit, paper_coupled_lines,
                                    small_signal_741, small_signal_ota)
from repro.circuits.library.coupled_lines import victim_output
from repro.core.metrics import dominant_pole_hz

circuits = {
    "fig1": (fig1_circuit(), "out", ["C1", "C2"]),
    "741": (small_signal_741().circuit, "out", ["go_Q14", "Ccomp"]),
    "ota": (small_signal_ota().circuit, "out", ["Cc", "gds_M6"]),
    "lines": (paper_coupled_lines(n_segments=6), victim_output(6),
              ["Rdrv1", "Cload2"]),
}
hashes = {}
for name, (circuit, output, symbols) in circuits.items():
    for order in (2, 4):
        res = awesymbolic(circuit, output, symbols=symbols, order=order)
        hashes[f"{name}@{order}"] = res.model.tape.content_hash
        if name == "741" and order == 4:
            go = res.partition.symbolic[0].symbol.nominal
            z = np.asarray(res.model.sweep(
                {"go_Q14": np.linspace(0.5, 4.0, 32) * go,
                 "Ccomp": np.linspace(10e-12, 60e-12, 32)},
                dominant_pole_hz, order=4))
            sweep = {"sha256": hashlib.sha256(z.tobytes()).hexdigest(),
                     "finite": int(np.isfinite(z).sum())}
print(json.dumps({"hashes": hashes, "sweep": sweep}))
"""

#: builds (or loads) the native kernel of the 741's order-2 program and
#: prints how many times the C compiler ran
NATIVE_KERNEL = """
import subprocess
from repro import awesymbolic
from repro.circuits.library import small_signal_741
from repro.runtime.native import native_kernel_for

runs = []
real_run = subprocess.run
def counting_run(cmd, *args, **kwargs):
    runs.append(cmd)
    return real_run(cmd, *args, **kwargs)
subprocess.run = counting_run

res = awesymbolic(small_signal_741().circuit, "out",
                  symbols=["go_Q14", "Ccomp"], order=2)
fn = res.model.compiled_moments.fn
native_kernel_for(fn, (True,) * len(fn.space))
print(len(runs), fn.tape.content_hash)
"""


def run_python(args: list[str], seed: str, **env) -> str:
    """stdout of a fresh interpreter under ``PYTHONHASHSEED=seed``."""
    full_env = dict(os.environ, PYTHONHASHSEED=seed, **env)
    full_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, *args], env=full_env,
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.fixture(scope="module")
def per_seed():
    """What each of three fresh processes compiled and swept."""
    return {seed: json.loads(run_python(["-c", COMPILE_AND_SWEEP],
                                        seed).splitlines()[-1])
            for seed in SEEDS}


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("circuit", CIRCUITS)
def test_one_tape_hash_across_hash_seeds(per_seed, circuit, order):
    hashes = {out["hashes"][f"{circuit}@{order}"]
              for out in per_seed.values()}
    assert len(hashes) == 1, hashes


def test_order4_surface_is_bit_identical_across_processes(per_seed):
    sweeps = [out["sweep"] for out in per_seed.values()]
    assert sweeps[0]["finite"] > 0
    assert all(s == sweeps[0] for s in sweeps), sweeps


def test_second_process_reuses_the_native_kernel(tmp_path):
    """The kernel store is keyed by tape hash, so a process with another
    hash seed loads the first one's kernel and never runs ``cc``."""
    if native._find_cc() is None or native.disabled():
        pytest.skip("no native kernel build on this host")
    store = str(tmp_path / "native")
    first = run_python(["-c", NATIVE_KERNEL], "0",
                       REPRO_NATIVE_CACHE=store).split()
    second = run_python(["-c", NATIVE_KERNEL], "1",
                        REPRO_NATIVE_CACHE=store).split()
    assert first[1] == second[1]
    assert first[0] == "1"
    assert second[0] == "0"


def test_emit_tape_is_byte_identical(tmp_path):
    paths = []
    for seed in ("1", "2"):
        path = tmp_path / f"fig1-{seed}.tape"
        run_python(["-m", "repro", "compile", str(FIG1_NETLIST), "-o", "out",
                    "-s", "C1,C2", "--emit-tape", str(path)], seed)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_recompile_in_one_process_gives_the_same_tape():
    """No program memo: two compiles build two programs, and the
    canonical operand order makes them the same tape."""
    circuit = small_signal_741().circuit
    first, second = (awesymbolic(circuit, "out", symbols=["go_Q14", "Ccomp"],
                                 order=4) for _ in range(2))
    assert first.model.compiled_moments.fn \
        is not second.model.compiled_moments.fn
    assert first.model.tape.content_hash == second.model.tape.content_hash
