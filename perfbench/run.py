"""Benchmark of the compile -> sweep -> serve pipeline on the paper's 741.

Run from the repository root::

    python3 perfbench/run.py --workload surface --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --smoke     # self-test of the benchmark itself

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
separate traced run reports the per-layer ones and writes a Chrome trace
to ``.perfbench-out/``.  Everything goes through the library's public API
with users' default settings (no backend or shard arguments).

Sections.  Every run measures every end-to-end metric, in three sections
in each of ``PROCESSES`` worker processes.  Their steps (a sweep, about
half a second of calls, a second of traffic) interleave over the whole
run, so every metric samples the host's speed all through it:

* ``surface`` (paper section 3.1, Figs. 4-7): ``dominant_pole_hz`` at
  Pade order 2 on a 512x512 (``go_Q14``, ``Ccomp``) grid -- bound by the
  moment kernel, working set far beyond the CPU caches; ``phase_margin``
  on 128x128 -- bound by the gain-crossing metric; order-4
  ``dominant_pole_hz`` on 32x32 -- every point takes the per-point
  stable-order fallback.
* ``iterate`` (Table 1): one caller alternating ``result.rom(values)``
  plus the scalar ``dominant_pole_hz`` and ``dc_gain`` with a 1-point
  ``model.sweep``, at seeded points: almost no per-point work, so it
  isolates the cost of a call.
* ``serve`` (``repro serve``): requests through ``AWEService.handle_eval``
  from 16 tenants, mostly ``dominant_pole_hz`` with a seeded minority of
  ``dc_gain`` and ``phase_margin`` (three coalescing buckets).  Phase 1
  is an open loop of Poisson arrivals at 50 req/s, each latency timed
  from the request's due time; phase 2 a closed loop with 64 requests in
  flight.

Workloads differ in how the program is set up and in which sections get
the largest share of the measured time (``SHARES`` in ``worker.py``):

* ``surface``: cold start -- compile at order 2, then bump the same
  compile session to order 4, over fresh cache directories.
* ``serve``: warm restart -- the model is registered over a
  ``ProgramCache`` directory an untimed earlier process filled (one per
  measuring process), so set-up runs the cache-load path instead of the
  compiler.

End-to-end metrics: ``setup_s`` (process start, ``import repro``
included, to the first correct answer; median over the processes),
``peak_rss_mb``, ``ok_frac`` (operations that neither raised, were
rejected nor missed the oracle, over those attempted), the three sweep
rates, the scalar and 1-point latencies, open-loop p50/p75 (a rejected
request counts as the service's default deadline) and closed-loop
throughput.  Samples are pooled over the processes.  Timings other than
the open-loop latencies are reported at a reference host speed (see
``end_to_end``); the summary line before the result has them as
measured.

Correctness.  A seeded sample of every section's outputs is compared with
numeric AWE on a copy of the circuit with the values replaced: metric
values within ``ToleranceLadder.exact`` at order <= 2, the compiled
moments on the order-4 sweep (its dominant pole is ill-conditioned),
degraded serve answers at the degraded rung.  A run is not ``correct``
when an output misses, a cold setup sees a cache hit, the warm setup
sees a miss, program op counts differ between its processes, the open
loop's generator ran late, or the trace does not add up.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import pct
from worker import CONTEXTS, REJECT_CODES, SHARES, SWEEPS, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = tuple(SHARES)
#: processes per untraced run: each sets up the program and measures
#: for an equal share of ``--seconds``; samples are pooled over them and
#: ``setup_s`` is their median (one compiled program per process, and
#: programs differ between processes in op order and speed)
PROCESSES = 3
#: the whole run, all processes included, ends within this
DEADLINE_S = 170.0
SMOKE_SECONDS = 3.0
#: the calibrations' times at the reference host speed: the fast phase
#: of the 2-vCPU reference VM (see end_to_end), for ``worker.calibrate``
#: and ``worker.calibrate_objects``
CAL_REF_S = 1.4e-3
CAL_REF_OBJECTS_S = 1.1e-3

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "pole_pts_per_s": "pts/s",
    "margin_pts_per_s": "pts/s",
    "q4_pts_per_s": "pts/s",
    "rom_p50_us": "us",
    "rom_p90_us": "us",
    "point_p50_us": "us",
    "point_p90_us": "us",
    "serve_p50_ms": "ms",
    "serve_p75_ms": "ms",
    "serve_rps": "req/s",
}


def _per_layer() -> dict[str, str]:
    units = {name: "s" for name in (
        "repro.import_s", "circuits.build_s", "partition.partition_s",
        "partition.condense_s", "partition.recursion_s",
        "core.closed_forms_s", "symbolic.codegen_s", "symbolic.tape_s")}
    units.update({"symbolic.ops": "count", "symbolic.tape_ops": "count",
                  "symbolic.fused_ops": "count",
                  "runtime.cache_load_s": "s", "runtime.cache_hits": "count",
                  "runtime.cache_misses": "count",
                  "runtime.native_build_s": "s"})
    for key in SWEEPS:
        units[f"runtime.native_ns_per_pt.{key}"] = "ns"
    for ctx in CONTEXTS:
        for stage in ("columns", "moments", "pade", "metric"):
            units[f"runtime.{stage}_ns_per_pt.{ctx}"] = "ns"
        units[f"runtime.fixed_us.{ctx}"] = "us"
    for key in SWEEPS:
        units[f"runtime.fallback_frac.{key}"] = "frac"
    units.update({"runtime.fallback_us_per_pt.q4": "us",
                  "runtime.quarantined": "count",
                  "awe.scalars_us": "us", "awe.rom_us": "us",
                  "core.metric_us": "us",
                  "service.queue_ms": "ms", "service.eval_ms": "ms",
                  "service.other_ms": "ms",
                  "service.batch_size.open": "req",
                  "service.batch_size.closed": "req"})
    for code in REJECT_CODES:
        units[f"service.rejected.{code}"] = "count"
    units.update({"service.degraded": "count", "loadgen.late_ms": "ms",
                  "trace.overhead_frac": "frac",
                  "trace.unattributed_frac": "frac"})
    return units


PER_LAYER = _per_layer()


class BenchError(RuntimeError):
    """The run cannot produce a result (no program, a worker died)."""


def spawn(mode: str, workload: str, seed: int, seconds: float, trace: int,
          cache_dir: Path, work: Path, deadline: float, *, index: int = 0,
          smoke: bool = False, perturb: bool = False,
          trace_out: Path | None = None) -> dict:
    """Run one ``worker.py`` process to completion; its JSON report."""
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), TMPDIR=str(work / "tmp"),
               REPRO_NATIVE_CACHE=str(cache_dir / "native"),
               REPRO_FLIGHTREC_DIR=str(work / "flightrec"))
    for d in (work / "tmp", cache_dir / "native"):
        d.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--cache-dir", str(cache_dir), "--index", str(index)]
    if smoke:
        cmd.append("--smoke")
    if perturb:
        cmd.append("--perturb")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    remaining = deadline - time.perf_counter()
    if remaining <= 1.0:
        raise BenchError(f"no time left for the {mode} process")
    # the host's speed as the process starts; the worker calibrates
    # again once set up, and ``setup_s`` is scaled by their mean
    cal = calibrate()
    cmd += ["--t0", repr(time.perf_counter())]
    try:
        proc = subprocess.run(cmd, cwd=str(ROOT), env=env,
                              capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process exceeded the run's deadline")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited with {proc.returncode}")
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise BenchError(f"{mode} process printed no report")
    if "setup_cal" in report:
        report["setup_cal"] = (cal + report["setup_cal"]) / 2
    return report


def pin_one_cpu() -> None:
    """Run this process and its workers on one CPU.

    With two vCPUs the service's event loop and executor threads migrate
    between them and the serve figures turn bimodal with the host's load
    (five seeds: ``serve_p50_ms`` spread 0.27 unpinned, 0.06 pinned); one
    CPU is also the hardware the repository's throughput targets assume.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


#: a busy loop that yields the CPU to anything else (``SCHED_IDLE``) and
#: ends by itself when the process that started it is gone
IDLE_LOOP = """\
import os
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent = os.getppid()
while os.getppid() == parent:
    for _ in range(100_000):
        pass
"""


@contextlib.contextmanager
def keep_cpu_busy():
    """Keep the measuring CPU from idling while the run's processes run.

    An idle vCPU halts, and on a shared host the wake-up that follows --
    a coalescer timer, a finished batch -- waits for the host to run the
    vCPU again, a delay that swings with the host's load.  The open loop
    idles most of its time, so its latencies carried that delay: over
    twenty alternating 1 s steps, p75 12.2 ms idle vs 11.0 ms with this
    loop, and its spread between steps 1.9 ms vs 0.8 ms.  The loop runs
    only when nothing of the run wants the CPU, and a waking worker
    preempts it at once.
    """
    if not hasattr(os, "SCHED_IDLE"):
        yield
        return
    proc = subprocess.Popen([sys.executable, "-c", IDLE_LOOP])
    try:
        yield
    finally:
        proc.kill()
        proc.wait()


def measure(workload: str, seed: int, seconds: float, trace: int, *,
            smoke: bool = False, perturb: bool = False) -> dict:
    """One benchmark run: set-up processes, then the measuring one."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'repro'} "
                         "is missing")
    pin_one_cpu()
    deadline = time.perf_counter() + DEADLINE_S
    work = ROOT / ".perfbench-work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trace_out = None
    if trace:
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        trace_out = out_dir / f"trace-{workload}-seed{seed}.json"
    n_proc = 1 if trace else PROCESSES
    reports = []
    try:
        with keep_cpu_busy():
            for k in range(n_proc):
                if workload == "serve":
                    # the untimed earlier process whose cache the restart
                    # reads: one per measuring process, as each compile
                    # emits its own program
                    cache_dir = work / f"primed{k}"
                    spawn("prime", workload, seed, seconds, 0, cache_dir,
                          work, deadline, smoke=smoke)
                else:
                    cache_dir = work / f"cold{k}"
                reports.append(spawn(
                    "main", workload, seed, seconds / n_proc, trace,
                    cache_dir, work, deadline, index=k, smoke=smoke,
                    perturb=perturb and k == 0, trace_out=trace_out))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()

    main = reports[0]
    invalid = [msg for r in reports for msg in r["invalid"]]
    idents = {(r["identity"]["ops"], r["identity"]["tape_ops"],
               r["identity"]["fused_ops"]) for r in reports}
    if len(idents) > 1:
        invalid.append(f"op counts differ between processes: "
                       f"{sorted(idents)}")
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    wrong = sum(r["wrong"] for r in reports)
    if trace:
        values, units = main["per_layer"], PER_LAYER
    else:
        values = end_to_end(reports)
        values["ok_frac"] = (attempted - failed) / attempted
        units = END_TO_END
    missing = [n for n in units
               if not isinstance(values.get(n), (int, float))
               or not math.isfinite(values[n])]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    summary = {
        "identity": main["identity"], "cache": main["cache"],
        "setup_s": [round(r["setup_s"], 4) for r in reports],
        "checks": sum(r["checks"] for r in reports),
        "notes": [r["notes"] for r in reports],
        "failures": [f for r in reports for f in r["failures"]][:10],
        "invalid": invalid,
    }
    if not trace:
        # the host's speed while this run measured, and the figures the
        # scaled metrics had as measured
        blocks = [b for r in reports for b in r["samples"]["iterate"]]
        timed = {key: [t for r in reports for t in r["samples"][key]]
                 for key in SWEEPS}
        closed = [c for r in reports for c in r["samples"]["closed"]]
        summary["host_loop_ms"] = 1e3 * statistics.median(
            t[2] for key in SWEEPS for t in timed[key])
        summary["host_objects_ms"] = 1e3 * statistics.median(
            [b[0] for b in blocks] + [c[2] for c in closed])
        summary["unscaled"] = {
            f"{key}_pts_per_s": sum(t[0] for t in timed[key])
            / sum(t[1] for t in timed[key]) for key in SWEEPS}
        summary["unscaled"].update(
            rom_p50_us=1e6 * statistics.median(
                t for b in blocks for t in b[1]),
            point_p50_us=1e6 * statistics.median(
                t for b in blocks for t in b[2]),
            serve_rps=sum(c[0] for c in closed) / sum(c[1] for c in closed))
    if trace:
        summary["layer_self_s"] = main["layer_self_s"]
        summary["trace"] = str(trace_out.relative_to(ROOT))
    return {
        "summary": summary,
        "result": {
            "correct": wrong == 0 and not invalid,
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": values[n], "unit": u}
                        for n, u in units.items()},
        },
    }


def end_to_end(reports: list[dict]) -> dict[str, float]:
    """End-to-end metrics from the samples pooled over processes.

    The reference VM's CPU speed swings by ~1.5x within seconds and drifts
    for minutes (``worker.calibrate`` took 1.2-2.5 ms over one hour), so
    raw timings of the same code moved by 20-40 % between runs.  Every
    timing a metric is made of is therefore reported at a reference host
    speed: scaled by a calibration's reference time over its time measured
    right next to the timing -- ``worker.calibrate`` (an integer loop)
    around each sweep and around set-up, ``worker.calibrate_objects``
    (object-heavy code, which the slow phases hurt as much as they hurt the
    service and the scalar path) around each block of ``iterate`` calls and
    all through each closed-loop step.  A change to the program moves the
    scaled figures as it moves the raw ones.  Open-loop latencies are
    reported as measured: about half of each is the coalescer's fixed wait,
    which the host's speed does not change.  Sweep rates and ``serve_rps``
    are total work over total scaled seconds, and a call's p50 and p90 are
    the means of its blocks' p50 and p90, so one block scaled by a stray
    calibration cannot take over the tail.
    """
    def pooled(key):
        return [x for r in reports for x in r["samples"][key]]

    def rate(key):
        timed = pooled(key)
        seconds = sum(dt * CAL_REF_S / cal for _, dt, cal in timed)
        return sum(n for n, _, _ in timed) / seconds

    blocks = pooled("iterate")

    def latencies(col):
        return [[t * CAL_REF_OBJECTS_S / b[0] for t in b[col]]
                for b in blocks]

    def per_block(col, q):
        return statistics.fmean(pct(xs, q) for xs in latencies(col) if xs)

    served = pooled("open")
    closed = pooled("closed")
    return {
        "setup_s": statistics.median(r["setup_s"] * CAL_REF_S / r["setup_cal"]
                                     for r in reports),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reports),
        "pole_pts_per_s": rate("pole"),
        "margin_pts_per_s": rate("margin"),
        "q4_pts_per_s": rate("q4"),
        "rom_p50_us": 1e6 * per_block(1, 50),
        "rom_p90_us": 1e6 * per_block(1, 90),
        "point_p50_us": 1e6 * per_block(2, 50),
        "point_p90_us": 1e6 * per_block(2, 90),
        "serve_p50_ms": 1e3 * pct(served, 50),
        "serve_p75_ms": 1e3 * pct(served, 75),
        "serve_rps": sum(c[0] for c in closed) / sum(
            c[1] * CAL_REF_OBJECTS_S / c[2] for c in closed),
    }


def smoke() -> int:
    """Tiny runs of every workload in both modes: every metric
    BENCHMARK.json names appears with its unit, and a perturbed output
    is reported as a failed operation."""
    problems = []
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        named = {m["name"]: m["unit"] for m in spec[key]}
        if named != table:
            problems.append(f"BENCHMARK.json {key} differs from the "
                            f"program: {sorted(set(named) ^ set(table))} "
                            f"{[n for n in named if table.get(n) != named[n]]}")
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = measure(workload, 1, SMOKE_SECONDS, trace, smoke=True)
            res = out["result"]
            table = PER_LAYER if trace else END_TO_END
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            if got != table:
                problems.append(f"{workload} trace={trace}: metrics differ")
            if not res["correct"] or res["failed"]:
                problems.append(f"{workload} trace={trace}: correct="
                                f"{res['correct']} failed={res['failed']} "
                                f"{out['summary']}")
            print(f"smoke {workload} trace={trace}: {res['attempted']} ops, "
                  f"{out['summary']['checks']} checked", flush=True)
    out = measure("surface", 1, SMOKE_SECONDS, 0, smoke=True, perturb=True)
    res = out["result"]
    if res["correct"] or res["failed"] < 1:
        problems.append(f"a perturbed output was not caught: {res}")
    else:
        print(f"smoke perturbed output caught: "
              f"{out['summary']['failures'][0]}")
    for p in problems:
        print("SMOKE FAILURE:", p)
    print("smoke:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="self-test at tiny sizes (ignores other options)")
    args = ap.parse_args(argv)
    # terminated, the run still stops and waits for the processes it
    # started (``subprocess.run`` kills its child on the way out)
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        out = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out["summary"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
