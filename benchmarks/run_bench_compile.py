"""CI benchmark: compile-path timings -> BENCH_compile.json.

Measures the three compile regimes this repo's fast compile path
provides, per circuit, on the paper's workloads:

* **cold** — a from-scratch :func:`repro.awesymbolic` call (partition,
  condensation, adjugate, moment recursion, CSE/codegen); the compiler
  keeps no process-wide memo, so nothing is reused;
* **warm** — the same compile served by a :class:`ProgramCache` disk hit
  (a fresh cache instance on a populated directory, i.e. the
  cross-process restart case), which loads the stored model tape;
* **incremental** — a Padé-order bump inside a live
  :class:`~repro.core.awesymbolic.CompileSession`, which extends the
  previous moment recursion instead of restarting (741 only: the
  q=4 -> q=5 bump on the paper's ``go_Q14``/``Ccomp`` workload).

Each regime reports the best of ``--repeats`` runs (the noise on a busy
CI box is one-sided).  Every timed compile lowers and execs its moment
program itself: the compiler keeps no process-wide program memo that an
earlier run could hand it.

Every workload is also checked **bit-identical** across regimes:
the cold and incremental compiles against the reference (kernel-free)
implementation by a digest of their moment polynomials, and the warm
load against the cold compile by its model tape's content hash (a disk
hit carries no polynomials); ``identical`` must be true in the payload
or the regression gate fails.

``benchmarks/check_compile_regression.py`` compares this payload against
the committed baseline and fails CI on a >25 % cold-compile regression
or a broken warm/incremental speedup floor.

Usage (what the CI bench-compile job runs)::

    python benchmarks/run_bench_compile.py --out BENCH_compile.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.circuits.library import (fig1_circuit, small_signal_741,
                                    small_signal_ota)
from repro.core.awesymbolic import CompileSession, awesymbolic
from repro.runtime.cache import CondensationCache, ProgramCache
from repro.symbolic import polykernel

REPEATS = 3

#: (name, circuit factory, explicit symbols, target order, incremental-from)
WORKLOADS = (
    ("741", lambda: small_signal_741().circuit,
     ["go_Q14", "Ccomp"], 5, 4),
    ("rc_fig1", lambda: fig1_circuit(), None, 3, None),
    ("cmos_ota", lambda: small_signal_ota().circuit, None, 3, None),
)


def _terms(poly) -> list:
    return [[list(exps), coeff] for exps, coeff in poly.sorted_terms()]


def _dump(result) -> str:
    """Canonical JSON of a compile's symbols, elements and moment
    polynomials (floats round-trip exactly)."""
    sm = result.moments
    return json.dumps({
        "title": result.partition.circuit.title,
        "output": sm.output,
        "order": result.model.order,
        "symbols": [[s.name, s.nominal] for s in sm.space.symbols],
        "elements": [[se.name, se.symbol.name, se.transform]
                     for se in result.partition.symbolic],
        "numerators": [_terms(n) for n in sm.numerators],
        "det": _terms(sm.det),
    }, sort_keys=True)


def bench_cold(circuit, symbols, order,
               repeats: int) -> tuple[float, str, str]:
    """Best-of-N cold compile; its polynomial digest and tape hash."""
    best = float("inf")
    digest = tape_hash = ""
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = awesymbolic(circuit, "out", symbols=symbols, order=order)
        best = min(best, time.perf_counter() - t0)
        digest, tape_hash = _dump(res), res.model.tape.content_hash
    return best, digest, tape_hash


def bench_warm(circuit, symbols, order, repeats: int,
               tmpdir: Path) -> tuple[float, str]:
    """Disk-hit load: fresh ProgramCache instances on a populated dir;
    the loaded model's tape hash."""
    seed = ProgramCache(disk_dir=tmpdir)
    seed.get_or_build(circuit, "out", symbols=symbols, order=order)
    best = float("inf")
    tape_hash = ""
    for _ in range(repeats):
        cache = ProgramCache(disk_dir=tmpdir)  # empty memory, warm disk
        t0 = time.perf_counter()
        res = cache.get_or_build(circuit, "out", symbols=symbols,
                                 order=order)
        best = min(best, time.perf_counter() - t0)
        if cache.stats.disk_hits != 1:
            raise AssertionError("warm measurement was not a disk hit")
        tape_hash = res.model.tape.content_hash
    return best, tape_hash


def bench_incremental(circuit, symbols, order_from, order_to,
                      repeats: int) -> tuple[float, str]:
    """Best-of-N q-bump extension inside a live CompileSession."""
    best = float("inf")
    digest = ""
    for _ in range(repeats):
        session = CompileSession(circuit, "out", symbols=symbols)
        session.compile(order_from)
        t0 = time.perf_counter()
        res = session.compile(order_to)
        best = min(best, time.perf_counter() - t0)
        digest = _dump(res)
    return best, digest


def bench_condensation(circuit, symbols, order, tmpdir: Path) -> dict:
    """Cold vs cached numeric block condensation, for the record."""
    cache = CondensationCache(disk_dir=tmpdir)
    t0 = time.perf_counter()
    awesymbolic(circuit, "out", symbols=symbols, order=order,
                condense_cache=cache)
    cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    awesymbolic(circuit, "out", symbols=symbols, order=order,
                condense_cache=cache)
    warm = time.perf_counter() - t0
    return {"cold_seconds": cold, "warm_seconds": warm,
            "hits": cache.stats.hits, "misses": cache.stats.misses}


def run(repeats: int = REPEATS) -> dict:
    circuits = {}
    for name, factory, symbols, order, order_from in WORKLOADS:
        circuit = factory()
        # reference digest with the polynomial kernels disabled: every
        # regime below must match it bit for bit
        with polykernel.disabled():
            reference = _dump(awesymbolic(circuit, "out", symbols=symbols,
                                          order=order))
        cold_s, cold_digest, cold_hash = bench_cold(circuit, symbols, order,
                                                    repeats)
        with tempfile.TemporaryDirectory() as td:
            warm_s, warm_hash = bench_warm(circuit, symbols, order,
                                           repeats, Path(td))
        with tempfile.TemporaryDirectory() as td:
            condense = bench_condensation(circuit, symbols, order, Path(td))

        entry = {
            "symbols": symbols,
            "order": order,
            "cold_seconds": cold_s,
            "warm_seconds": warm_s,
            "warm_speedup": cold_s / warm_s,
            "condensation": condense,
            "identical": cold_digest == reference
            and warm_hash == cold_hash,
        }
        if order_from is not None and symbols is not None:
            inc_s, inc_digest = bench_incremental(circuit, symbols,
                                                  order_from, order,
                                                  repeats)
            entry["incremental_from_order"] = order_from
            entry["incremental_seconds"] = inc_s
            entry["incremental_speedup"] = cold_s / inc_s
            entry["identical"] = entry["identical"] \
                and inc_digest == reference
        circuits[name] = entry
    return {
        "workload": "AWEsymbolic compile path: cold vs warm vs incremental",
        "repeats": repeats,
        "circuits": circuits,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("BENCH_compile.json"))
    ap.add_argument("--repeats", type=int, default=REPEATS,
                    help=f"timed runs per regime, best kept "
                         f"(default {REPEATS})")
    args = ap.parse_args(argv)

    payload = run(repeats=args.repeats)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    for name, c in payload["circuits"].items():
        line = (f"  {name:<10} cold {c['cold_seconds'] * 1e3:7.1f} ms   "
                f"warm {c['warm_seconds'] * 1e3:7.1f} ms "
                f"({c['warm_speedup']:.1f}x)")
        if "incremental_seconds" in c:
            line += (f"   incremental {c['incremental_seconds'] * 1e3:7.1f}"
                     f" ms ({c['incremental_speedup']:.1f}x)")
        line += "   identical" if c["identical"] else "   MISMATCH"
        print(line)
    if not all(c["identical"] for c in payload["circuits"].values()):
        print("FAIL: compiled moments diverged between regimes",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
