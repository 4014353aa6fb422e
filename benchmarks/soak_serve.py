"""Soak smoke for the serving layer: sustained load + injected faults,
then an exit-time audit for leaks.

Runs the full HTTP service (741 model) in-process for ``--seconds``,
hammered by concurrent HTTP clients over real sockets while a fault
injector intermittently kills and stalls shard attempts and Hankel
solves.  The pass criteria are the serving layer's headline contract:

* every single response is a success (200), an explicit degraded
  success, or a **typed** rejection (4xx/5xx with an ``error`` code) —
  a malformed or connection-dropped response fails the soak;
* after the drain, an exit-time audit finds **zero leaked threads**
  beyond the pre-service baseline, zero child processes, and zero
  orphaned ``*.tmp*`` cache files.

Usage (CI runs 60 s; locally anything >= 5 s is meaningful)::

    python benchmarks/soak_serve.py --seconds 60
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import sys
import threading
import time
from collections import Counter
from pathlib import Path

from repro.circuits.library import small_signal_741
from repro.runtime import ProgramCache
from repro.service import AWEService, ModelRegistry, ServiceConfig
from repro.testing import FaultInjector


def make_service(cache_dir: Path) -> AWEService:
    config = ServiceConfig(
        host="127.0.0.1", port=0,
        max_batch=32,
        max_inflight=16, max_queue=16,
        tenant_rate=1e6, tenant_burst=1e6, bulkhead_limit=64,
        default_deadline_s=1.0, drain_grace_s=10.0)
    registry = ModelRegistry(cache=ProgramCache(disk_dir=cache_dir),
                             breaker_config=config.breaker)
    registry.register("741", small_signal_741().circuit, "out",
                      symbols=["go_Q14", "Ccomp"], order=2)
    return AWEService(config, registry=registry)


def storm_injector() -> FaultInjector:
    """Intermittent faults for the whole soak: every Nth shard attempt
    dies, every Mth stalls, the occasional Hankel solve explodes."""
    counters = Counter()

    def every(name: str, n: int):
        def predicate(payload: dict) -> bool:
            counters[name] += 1
            return counters[name] % n == 0
        return predicate

    injector = FaultInjector()
    injector.raises("sweep.shard", times=None, when=every("kill", 11))
    injector.sleeps("sweep.shard", 0.05, times=None, when=every("stall", 17))
    injector.raises("pade.hankel", times=None, when=every("hankel", 23))
    return injector


async def http_eval(port: int, body: dict) -> tuple[int, dict | None]:
    """One POST /v1/eval over a real socket; (status, parsed body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        payload = json.dumps(body).encode()
        writer.write(
            b"POST /v1/eval HTTP/1.1\r\nHost: soak\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(payload)}\r\n\r\n".encode() + payload)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=30.0)
    finally:
        writer.close()
    head, _, rest = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    try:
        parsed = json.loads(rest)
    except (json.JSONDecodeError, UnicodeDecodeError):
        parsed = None
    return status, parsed


async def client(port: int, worker: int, deadline: float,
                 tally: Counter, failures: list) -> None:
    i = 0
    while time.monotonic() < deadline:
        i += 1
        body = {"model": "741", "metric": "dominant_pole_hz",
                "timeout_s": 0.02 if (worker + i) % 9 == 0 else 1.0,
                "tenant": f"t{worker % 3}",
                "values": {"Ccomp": 30e-12 * (0.8 + 0.01 * (i % 40))}}
        try:
            status, parsed = await http_eval(port, body)
        except Exception as exc:  # connection-level failure = soak failure
            failures.append(f"transport: {exc!r}")
            tally["transport_error"] += 1
            continue
        if status == 200 and parsed is not None:
            tally["degraded" if parsed.get("degraded") else "ok"] += 1
        elif parsed is not None and "error" in parsed:
            tally[f"rejected:{parsed['error']}"] += 1
        else:
            failures.append(f"untyped response: {status} {parsed!r}")
            tally["untyped"] += 1


def audit(baseline_threads: set[int], cache_dir: Path) -> list[str]:
    problems = []
    time.sleep(1.0)  # let abandoned-timer/daemon threads settle
    leaked = [t for t in threading.enumerate()
              if t.ident not in baseline_threads and t.is_alive()]
    if leaked:
        problems.append(
            "leaked threads: " + ", ".join(t.name for t in leaked))
    children = multiprocessing.active_children()
    if children:
        problems.append(f"leaked processes: {children}")
    tmp = list(cache_dir.rglob("*.tmp*"))
    if tmp:
        problems.append(f"orphaned temp files: {[p.name for p in tmp]}")
    return problems


async def run(seconds: float, concurrency: int, cache_dir: Path) -> dict:
    service = make_service(cache_dir)
    await service.start(install_signals=False)
    port = service.port
    tally: Counter = Counter()
    failures: list[str] = []
    deadline = time.monotonic() + seconds
    injector = storm_injector()
    with injector.armed():
        await asyncio.gather(*[
            client(port, w, deadline, tally, failures)
            for w in range(concurrency)])
    await service.drain()
    await service.wait_drained()
    return {"tally": dict(tally), "failures": failures,
            "shard_kills": injector.fired("sweep.shard")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="disk cache dir (default: a fresh temp dir)")
    args = parser.parse_args(argv)

    import tempfile
    cache_dir = args.cache_dir or Path(tempfile.mkdtemp(prefix="soak-cache-"))
    baseline = {t.ident for t in threading.enumerate()}

    report = asyncio.run(run(args.seconds, args.concurrency, cache_dir))
    problems = audit(baseline, cache_dir)

    total = sum(report["tally"].values())
    print(f"soak: {total} requests over {args.seconds:.0f}s "
          f"({args.concurrency} clients, {report['shard_kills']} "
          f"shard faults fired)")
    for kind, n in sorted(report["tally"].items()):
        print(f"  {kind}: {n}")
    untyped = report["tally"].get("untyped", 0) \
        + report["tally"].get("transport_error", 0)
    for f in report["failures"][:10]:
        print(f"  FAILURE: {f}")
    for p in problems:
        print(f"  AUDIT: {p}")
    if untyped or problems or total == 0:
        print("soak: FAIL")
        return 1
    print("soak: PASS (all responses typed, no leaks)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
