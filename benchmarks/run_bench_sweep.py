"""CI benchmark: traced 741 sweep -> BENCH_sweep.json (+ Perfetto trace).

Runs the paper's §3.1 workload end to end under the observability layer:

1. compile the 741 small-signal circuit with the paper's symbols
   (``go_Q14``, ``Ccomp``) through :func:`repro.awesymbolic`;
2. sweep ``dominant_pole_hz`` over a ``(go_Q14, Ccomp)`` grid with the
   batched sharded runtime, collecting :class:`RuntimeStats`, and time a
   serial 512x512 sweep of the same surface — 64 chunks of the sweep's
   chunked streaming, where the 64x64 grid is a single chunk, so only
   this figure sees cache effects — a serial 128x128 ``phase_margin``
   sweep (Fig. 7's surface), whose metric stage is the gain-crossing
   root solve, and a serial 32x32 order-4 ``dominant_pole_hz`` sweep of
   an order-4 compile, whose Padé stage is the stable-order ladder —
   and serial 1-point sweeps (the paper's Table 1 iteration through
   ``sweep``: the per-sweep fixed cost and the scalar lane);
3. time the same sweep once per execution backend (serial / thread /
   process / native), after an unmeasured warm-up pass so pool spawn,
   the per-worker program cache, and the native kernel build are
   amortized the way a real sweep sees them (the build runs in the
   background: the timed passes run whichever kernel is bound by then),
   and cross-check every backend against the serial values
   bit-for-bit;
4. time the raw moment-program kernels (the ufunc kernel, under
   ``REPRO_NATIVE=off``, vs the native one, of the model's one program,
   the fused tape every sweep runs) on the full grid batch — end-to-end
   gains are bounded by the Padé/metric stages, so the kernel-level
   figures are recorded separately;
5. op-profile that moment program over the same grid batch;
6. write ``BENCH_sweep.json`` — points/sec overall, per backend and on
   the 512x512, margin and order-4 grids (each with a per-stage
   breakdown), 1-point sweeps per second, the host-speed calibration
   the regression gate scales by, and
   per kernel, compile and evaluate seconds, the top-3 hot ops with symbolic
   provenance, and the full stats/metrics snapshots — and, with
   ``--trace``, a Chrome/Perfetto trace of the whole run.

``benchmarks/check_bench_regression.py`` compares this payload against
the committed baseline and fails CI on a >25 % throughput regression,
after scaling by the two payloads' host-speed calibrations.

Usage (what the CI bench-sweep job runs)::

    python benchmarks/run_bench_sweep.py --trace trace_741.json \
        --out BENCH_sweep.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro import awesymbolic
from repro.circuits.library import small_signal_741
from repro.core.metrics import dominant_pole_hz, phase_margin
from repro.obs import export as obs_export
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.profile import profile_program
from repro.runtime import RuntimeStats
from repro.runtime.batched import grid_columns

GRID_N = 64
LARGE_GRID_N = 512
MARGIN_GRID_N = 128
Q4_GRID_N = 32
SHARDS = 8
#: 1-point sweeps per timed batch, and batches (the figure is the best)
POINT_SWEEPS = 200
POINT_BATCHES = 5
BACKENDS = ("serial", "thread", "process", "native")
STAGES = (("columns", "columns_seconds"), ("moments", "evaluate_seconds"),
          ("health", "health_seconds"), ("pade", "pade_seconds"),
          ("metric", "metric_seconds"), ("finalize", "finalize_seconds"))


def calibrate() -> float:
    """Seconds for a fixed 20 000-iteration integer loop: the host's speed
    right now for arithmetic-bound interpreted code (the loop
    ``perfbench/worker.py``'s ``calibrate`` times)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i
    return time.perf_counter() - t0


def host_calibration(samples: int = 9) -> float:
    """The calibration loop's best of ``samples`` runs: the host's speed
    at its fastest right now, as the best-of figures measure it."""
    return min(calibrate() for _ in range(samples))


def stage_breakdown(stats: RuntimeStats) -> dict:
    """Per-stage seconds and throughput for one measured sweep.

    The stages partition the sweep up to dispatch glue: column
    building, moment-program evaluation, the health summaries, the
    (batched) Padé solve, the metric reduction plus any per-point
    fallback work, and the splice/finalize step; ``coverage`` is their
    share of ``total_seconds``.  Shard stage seconds are summed across
    shards, so per-stage points/s is the *aggregate* rate the stage
    sustained, comparable across backends with equal worker counts.
    """
    out = {}
    named = 0.0
    for name, attr in STAGES:
        seconds = getattr(stats, attr)
        named += seconds
        out[name] = {
            "seconds": seconds,
            "points_per_second": (stats.points / seconds) if seconds else None,
        }
    out["coverage"] = named / stats.total_seconds if stats.total_seconds \
        else None
    return out


def bench_backends(model, grids, reference, shards: int,
                   backends=BACKENDS, repeats: int = 3) -> dict:
    """Time sweeps per backend (best of ``repeats``), warm-up excluded.

    The warm-up run amortizes what a long sweep amortizes anyway —
    thread/process pool spawn and the per-worker program cache — so the
    measured passes reflect steady-state throughput; keeping the best
    pass damps scheduler noise on sweeps that finish in milliseconds.
    Each backend's values are also checked bit-identical against
    ``reference``.
    """
    out = {}
    for backend in backends:
        warm = RuntimeStats()
        model.sweep(grids, dominant_pole_hz, shards=shards,
                    backend=backend, stats=warm)
        stats = None
        for _ in range(repeats):
            trial = RuntimeStats()
            z = model.sweep(grids, dominant_pole_hz, shards=shards,
                            backend=backend, stats=trial)
            if not np.array_equal(np.asarray(z), np.asarray(reference),
                                  equal_nan=True):
                raise AssertionError(
                    f"backend {backend!r} diverged from serial values")
            if stats is None or (trial.points_per_second
                                 > stats.points_per_second):
                stats = trial
        out[backend] = {
            "points_per_second": stats.points_per_second,
            "evaluate_seconds": stats.evaluate_seconds,
            "workers": stats.workers,
            "parallel_efficiency": stats.parallel_efficiency,
            "cold_spawn_seconds": warm.spawn_seconds,
            "stages": stage_breakdown(stats),
        }
    return out


def bench_serial_grid(model, grids, metric=dominant_pole_hz,
                      repeats: int = 3) -> dict:
    """Serial sweep of a grid of several chunks (best of ``repeats``).

    The 64x64 workload is exactly one chunk, so the per-backend figures
    cannot see whether chunks stay cache-resident; on the 512x512 grid,
    sweeping without chunks would stream the whole-grid working set
    through L3/DRAM.
    """
    model.sweep(grids, metric, backend="serial")  # warm-up
    stats = None
    for _ in range(repeats):
        trial = RuntimeStats()
        model.sweep(grids, metric, backend="serial", stats=trial)
        if stats is None or trial.points_per_second > stats.points_per_second:
            stats = trial
    return {
        "points": stats.points,
        "points_per_second": stats.points_per_second,
        "total_seconds": stats.total_seconds,
        "stages": stage_breakdown(stats),
    }


def bench_one_point(model, go_nom: float, sweeps: int = POINT_SWEEPS,
                    batches: int = POINT_BATCHES) -> dict:
    """Serial 1-point ``dominant_pole_hz`` sweeps at random points, best
    of ``batches`` batches: the paper's per-iteration cost through the
    public ``sweep`` API, where the per-sweep fixed cost is nearly all of
    it."""
    rng = np.random.default_rng(0)
    grids = [{"go_Q14": np.array([go_nom * rng.uniform(0.5, 4.0)]),
              "Ccomp": np.array([rng.uniform(10e-12, 60e-12)])}
             for _ in range(sweeps)]
    for g in grids[:20]:  # warm-up
        model.sweep(g, dominant_pole_hz)
    best = float("inf")
    for _ in range(batches):
        t0 = time.perf_counter()
        for g in grids:
            model.sweep(g, dominant_pole_hz)
        best = min(best, time.perf_counter() - t0)
    return {"sweeps": sweeps, "batches": batches,
            "sweeps_per_second": sweeps / best,
            "us_per_sweep": 1e6 * best / sweeps}


def bench_kernels(model, grids, repeats: int = 5) -> dict:
    """Raw kernel throughput on the full grid batch, no sweep layer.

    The per-backend numbers above include the Padé solve and the metric
    reduction, which are identical across backends — Amdahl's law caps
    the visible end-to-end native gain well below the kernel speedup.
    Timing the kernels alone (best of ``repeats``) records what the
    compiled kernel actually buys, on the model's one moment program
    (the fused tape every sweep runs): the ufunc kernel is
    ``eval_batch`` under ``REPRO_NATIVE=off`` (it would otherwise pick
    the native kernel), the native one the probed kernel itself.  A
    missing toolchain records a reason instead of failing the
    benchmark.
    """
    fn = model.compiled_moments.fn
    _, _, cols = grid_columns(model, grids)
    n = next(int(c.size) for c in cols if isinstance(c, np.ndarray))
    mask = tuple(isinstance(c, np.ndarray) for c in cols)

    def best_of(call):
        call()  # warm-up: ufunc caches / native kernel build
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - t0)
        return best

    previous = os.environ.get("REPRO_NATIVE")
    os.environ["REPRO_NATIVE"] = "off"
    try:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ufunc_seconds = best_of(lambda: fn.eval_batch(list(cols), n))
    finally:
        if previous is None:
            del os.environ["REPRO_NATIVE"]
        else:
            os.environ["REPRO_NATIVE"] = previous
    out = {
        "points": n,
        "ufunc": {"points_per_second": n / ufunc_seconds},
    }
    try:
        from repro.runtime.native import native_kernel_for
        kernel = native_kernel_for(fn, mask)
    except Exception as exc:  # NativeUnavailable, or no toolchain at all
        out["native"] = {"available": False, "reason": str(exc)}
        return out
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        native_seconds = best_of(lambda: kernel(list(cols), n))
    out["native"] = {
        "available": True,
        "flavor": kernel.flavor,
        "parallel": bool(getattr(kernel, "parallel", False)),
        "threads": int(getattr(kernel, "threads", 1)),
        "points_per_second": n / native_seconds,
        "speedup_vs_ufunc": ufunc_seconds / native_seconds,
    }
    return out


def surface_grids(go_nom: float, grid_n: int) -> dict:
    return {
        "go_Q14": np.linspace(0.5, 4.0, grid_n) * go_nom,
        "Ccomp": np.linspace(10e-12, 60e-12, grid_n),
    }


def run(grid_n: int = GRID_N, shards: int = SHARDS) -> dict:
    calibrations = [host_calibration()]
    ss = small_signal_741()
    res = awesymbolic(ss.circuit, "out", symbols=["go_Q14", "Ccomp"],
                      order=2)
    model = res.model

    go_nom = res.partition.symbolic[0].symbol.nominal
    grids = surface_grids(go_nom, grid_n)

    stats = RuntimeStats()
    z = model.sweep(grids, dominant_pole_hz, shards=shards, stats=stats)
    finite = int(np.isfinite(np.asarray(z)).sum())

    backends = bench_backends(model, grids, z, shards)
    calibrations.append(host_calibration())
    large = bench_serial_grid(model, surface_grids(go_nom, LARGE_GRID_N))
    margin = bench_serial_grid(model, surface_grids(go_nom, MARGIN_GRID_N),
                               metric=phase_margin)
    calibrations.append(host_calibration())
    res4 = awesymbolic(ss.circuit, "out", symbols=["go_Q14", "Ccomp"],
                       order=4)
    q4 = bench_serial_grid(res4.model, surface_grids(go_nom, Q4_GRID_N))
    point = bench_one_point(model, go_nom)
    calibrations.append(host_calibration())
    kernels = bench_kernels(model, grids)
    calibrations.append(host_calibration())
    throughputs = {
        f"grid{LARGE_GRID_N}:serial": large["points_per_second"],
        f"margin{MARGIN_GRID_N}:serial": margin["points_per_second"],
        f"q4grid{Q4_GRID_N}:serial": q4["points_per_second"],
        "point1:serial": point["sweeps_per_second"],
        "kernel:ufunc": kernels["ufunc"]["points_per_second"],
    }
    if kernels["native"].get("available"):
        throughputs["kernel:native"] = (
            kernels["native"]["points_per_second"])

    _, _, cols = grid_columns(model, grids)
    prof = profile_program(model.compiled_moments.fn, cols, repeats=5)

    return {
        "workload": "741 dominant_pole_hz sweep (paper section 3.1)",
        "grid": {"go_Q14": grid_n, "Ccomp": grid_n},
        "points": int(z.size),
        "finite_points": finite,
        "shards": shards,
        "cpu_count": os.cpu_count(),
        "backends": backends,
        "large_grid": {"grid": {"go_Q14": LARGE_GRID_N,
                                "Ccomp": LARGE_GRID_N}, **large},
        "margin_grid": {"metric": "phase_margin",
                        "grid": {"go_Q14": MARGIN_GRID_N,
                                 "Ccomp": MARGIN_GRID_N}, **margin},
        "q4_grid": {"metric": "dominant_pole_hz", "order": 4,
                    "grid": {"go_Q14": Q4_GRID_N, "Ccomp": Q4_GRID_N},
                    **q4},
        "one_point": {"metric": "dominant_pole_hz", **point},
        "kernels": kernels,
        # median of best-of-9 calibration loops taken through the run
        "host_calibration_s": statistics.median(calibrations),
        "throughputs": throughputs,
        "n_ops": model.n_ops,
        "points_per_second": stats.points_per_second,
        "compile_seconds": stats.compile_seconds,
        "evaluate_seconds": stats.evaluate_seconds,
        "stages": stage_breakdown(stats),
        "total_seconds": stats.total_seconds,
        "parallel_efficiency": stats.parallel_efficiency,
        "top_ops": [
            {"kind": e.kind, "expr": e.expr, "ops": e.ops,
             "fraction": e.fraction, "seconds": e.seconds}
            for e in prof.top(3)
        ],
        "profile_coverage": prof.coverage,
        "stats": stats.to_dict(),
        "metrics": obs_metrics.registry().snapshot(),
    }


def stage_text(stages: dict) -> str:
    text = " ".join(f"{s}={e['seconds']:.3f}s" for s, e in stages.items()
                    if s != "coverage")
    return f"{text} (coverage {stages['coverage'] * 100.0:.0f}%)"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("BENCH_sweep.json"))
    ap.add_argument("--trace", type=Path, default=None, metavar="FILE",
                    help="write a Chrome/Perfetto trace of the run")
    ap.add_argument("--grid", type=int, default=GRID_N,
                    help=f"points per sweep axis (default {GRID_N})")
    ap.add_argument("--shards", type=int, default=SHARDS)
    args = ap.parse_args(argv)

    tracer = obs_trace.start_tracing() if args.trace is not None else None
    try:
        payload = run(grid_n=args.grid, shards=args.shards)
    finally:
        if tracer is not None:
            obs_trace.stop_tracing()
            obs_export.write_chrome_trace(args.trace, tracer)
            print(f"wrote {args.trace} ({len(tracer.snapshot())} spans)")

    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    print(f"  {payload['points']} points "
          f"({payload['finite_points']} finite), "
          f"{payload['points_per_second']:.0f} points/s, "
          f"compile {payload['compile_seconds']:.3f} s, "
          f"evaluate {payload['evaluate_seconds']:.3f} s")
    for name, b in payload["backends"].items():
        print(f"  backend {name:<8} {b['points_per_second']:>12.0f} points/s"
              f"  ({b['workers']} workers)  {stage_text(b['stages'])}")
    for key, label in (("large_grid", "grid"), ("margin_grid", "margin"),
                       ("q4_grid", "q4grid")):
        entry = payload[key]
        print(f"  {label} {entry['grid']['go_Q14']}^2 serial "
              f"{entry['points_per_second']:>10.0f} points/s"
              f"  {stage_text(entry['stages'])}")
    point = payload["one_point"]
    print(f"  point1 serial {point['sweeps_per_second']:>10.0f} sweeps/s"
          f"  ({point['us_per_sweep']:.1f} us per 1-point sweep)")
    print(f"  host calibration {payload['host_calibration_s'] * 1e3:.3f} ms")
    kernels = payload["kernels"]
    print(f"  kernel  ufunc    "
          f"{kernels['ufunc']['points_per_second']:>12.0f} points/s")
    entry = kernels["native"]
    if entry.get("available"):
        threads = (f", {entry['threads']} threads"
                   if entry.get("parallel") else "")
        print(f"  kernel  native   "
              f"{entry['points_per_second']:>12.0f} points/s"
              f"  ({entry['flavor']}{threads}, "
              f"{entry['speedup_vs_ufunc']:.1f}x ufunc)")
    else:
        print(f"  kernel  native   unavailable ({entry['reason']})")
    for i, op in enumerate(payload["top_ops"], start=1):
        print(f"  hot op {i}: {op['fraction'] * 100.0:5.1f}%  "
              f"{op['kind']:<5} {op['expr']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
