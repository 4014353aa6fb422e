"""CI benchmark: serving-layer throughput and latency -> BENCH_serve.json.

Drives the in-process serving pipeline (admission -> quota -> coalescer
-> paired-column batched sweep) on the paper's 741 workload:

1. **coalesced throughput** — waves of concurrent ``/v1/eval``-shaped
   requests with distinct ``Ccomp`` overrides, coalesced into
   paired-column batches; reported as requests/second end-to-end
   (admission, quota, batching and diagnostics included in the cost);
2. **sequential latency** — one request at a time (every batch is a
   singleton on an idle service, which flushes it at once, so the
   measured time is the full per-request overhead); reported as p50/p99
   milliseconds, with ``phases_ms``: the mean of each phase of the
   service's per-request ledger (``repro_serve_phase_seconds_<phase>``)
   over the same requests, which sum to their mean latency.

The payload carries the generic ``throughputs`` mapping that
``benchmarks/check_bench_regression.py`` folds into the same >25 %
regression gate the other benchmarks use::

    python benchmarks/run_bench_serve.py --out BENCH_serve.json
    python benchmarks/check_bench_regression.py \
        --baseline BENCH_serve.json --current BENCH_serve_current.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from pathlib import Path

from repro.circuits.library import small_signal_741
from repro.obs import metrics
from repro.runtime import ProgramCache
from repro.service import AWEService, ModelRegistry, ServiceConfig
from repro.service.server import PHASES

N_REQUESTS = 2048
WAVE = 256
SEQUENTIAL = 200


def make_service() -> AWEService:
    config = ServiceConfig(
        max_batch=64,
        max_inflight=WAVE, max_queue=WAVE,
        tenant_rate=1e9, tenant_burst=1e9, bulkhead_limit=WAVE,
        default_deadline_s=30.0)
    registry = ModelRegistry(cache=ProgramCache(),
                             breaker_config=config.breaker)
    registry.register("741", small_signal_741().circuit, "out",
                      symbols=["go_Q14", "Ccomp"], order=2)
    return AWEService(config, registry=registry)


def request(i: int) -> dict:
    # a spread of Ccomp values so every batch is a real paired sweep
    return {"model": "741", "metric": "dominant_pole_hz",
            "values": {"Ccomp": 30e-12 * (0.8 + 0.4 * (i % 64) / 64.0)}}


async def bench_coalesced(service: AWEService, n: int, wave: int) -> dict:
    await service.handle_eval(request(0))  # compile + warm
    served = 0
    batch_sizes: list[int] = []
    t0 = time.perf_counter()
    for base in range(0, n, wave):
        responses = await asyncio.gather(
            *[service.handle_eval(request(base + i))
              for i in range(min(wave, n - base))])
        served += len(responses)
        batch_sizes.extend(r["batch_size"] for r in responses)
    seconds = time.perf_counter() - t0
    return {
        "requests": served,
        "seconds": seconds,
        "requests_per_second": served / seconds,
        "mean_batch_size": sum(batch_sizes) / len(batch_sizes),
        "max_batch_size": max(batch_sizes),
    }


def ledger() -> dict:
    """(count, sum) of the latency histogram and of each phase's."""
    reg = metrics.registry()
    names = ["repro_serve_latency_seconds"] + [
        f"repro_serve_phase_seconds_{phase}" for phase in PHASES]
    return {name: (reg.histogram(name).count, reg.histogram(name).sum)
            for name in names}


async def bench_latency(service: AWEService, n: int) -> dict:
    latencies = []
    before = ledger()
    for i in range(n):
        t0 = time.perf_counter()
        await service.handle_eval(request(i))
        latencies.append(time.perf_counter() - t0)
    after = ledger()
    mean_ms = {name: 1e3 * (after[name][1] - before[name][1])
               / (after[name][0] - before[name][0]) for name in after}
    latencies.sort()
    return {
        "sequential_requests": n,
        "p50_ms": 1e3 * latencies[n // 2],
        "p99_ms": 1e3 * latencies[min(n - 1, int(n * 0.99))],
        "mean_ms": mean_ms.pop("repro_serve_latency_seconds"),
        "phases_ms": {phase: mean_ms[f"repro_serve_phase_seconds_{phase}"]
                      for phase in PHASES},
    }


async def run() -> dict:
    service = make_service()
    try:
        coalesced = await bench_coalesced(service, N_REQUESTS, WAVE)
        latency = await bench_latency(service, SEQUENTIAL)
    finally:
        await service.drain()
    return {
        "workload": "741 serving layer (coalesced paired-column eval)",
        "cpu_count": os.cpu_count(),
        "throughputs": {
            "serve_requests_per_second": coalesced["requests_per_second"],
            # latency enters the generic higher-is-better gate as its
            # inverse: a >25 % p50/p99 regression trips the same check
            "serve_inverse_p50_latency": 1e3 / latency["p50_ms"],
            "serve_inverse_p99_latency": 1e3 / latency["p99_ms"],
        },
        "coalesced": coalesced,
        "latency": latency,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON payload here")
    args = parser.parse_args(argv)
    payload = asyncio.run(run())
    text = json.dumps(payload, indent=2) + "\n"
    if args.out is not None:
        args.out.write_text(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
