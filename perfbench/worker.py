"""One benchmark process: set up a workload, run the sections, check outputs.

Started by ``perfbench/run.py``, which documents the workloads and
metrics.  Modes:

* ``prime`` -- compile the 741 into the given cache directories: the
  untimed earlier process the ``serve`` workload restarts from;
* ``main`` -- import, set up, produce and check the first answer (that
  is ``setup_s``), then the measured sections; their raw samples go to
  ``run.py``, which pools them over the run's processes.

Only the standard library is imported before ``import repro`` is timed.
The last line of standard output is a JSON report for ``run.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import itertools
import json
import math
import random
import resource
import statistics
import sys
import time
import types
from pathlib import Path

from tracing import CTX, END, ID, LAYER, N, REMAINDER, START, Recorder, \
    median, pct, span_overhead_s

SYMBOLS = ("go_Q14", "Ccomp")
OUTPUT = "out"
MODEL_NAME = "741"

#: sweep kind -> (metric name, Padé order, points per grid axis)
SWEEPS = {
    "pole": ("dominant_pole_hz", 2, 512),
    "margin": ("phase_margin", 2, 128),
    "q4": ("dominant_pole_hz", 4, 32),
}
SMOKE_AXIS = {"pole": 16, "margin": 8, "q4": 4}
#: order of the surface section's sweeps: the order-4 sweep, the most
#: variable one, runs twice per cycle (the first three cover every kind)
SWEEP_CYCLE = ("pole", "q4", "margin", "q4")

#: share of ``--seconds`` each section measures, per workload: every run
#: measures every end-to-end metric, and the workload's own sections get
#: the largest share.  ``open`` and ``closed`` are the serve section's
#: two phases.
SHARES = {
    "surface": {"surface": 0.45, "iterate": 0.15, "open": 0.2, "closed": 0.2},
    "serve": {"surface": 0.35, "iterate": 0.15, "open": 0.25, "closed": 0.25},
}
#: seconds one step of a section measures before the scheduler moves on
#: to the section furthest behind its share (a surface step is one
#: sweep).  Steps interleave the sections over the whole run, so each
#: metric samples the host's speed -- which on the reference VM swings
#: by ~1.5x within seconds -- all through the run instead of in one block
STEP_S = {"iterate": 0.5, "open": 1.0, "closed": 1.0}
SMOKE_STEP_S = 0.2
#: seconds between host-speed calibrations during a closed-loop step.
#: The host's speed swings within a step, and the median of calibrations
#: taken all through it tracks the step's throughput far better than
#: calibrations at its ends (thirty 1 s steps: correlation 0.87 vs 0.58).
#: The median, because a calibration the service's executor threads
#: interrupt for the GIL reads slow.
CLOSED_CAL_EVERY_S = 0.1
#: iterations between host-speed calibrations in the iterate section
ITERATE_BLOCK = 64
#: open-loop arrival rate (requests/s).  On one CPU a batch of one or two
#: requests costs ~4-5 ms, so 100 req/s ran at half the capacity and the
#: host's slow phases pushed it into queueing (five seeds: p90 spread
#: 0.30 at 100 req/s, 0.17 at 50 req/s)
RATE = 50.0
#: closed-loop clients, and tenants requests are spread over
CLIENTS = 64
TENANTS = 16
#: share of requests that ask for dominant_pole_hz; the rest split
#: evenly between dc_gain and phase_margin
POLE_SHARE = 0.8
#: the open loop is invalid when the generator runs systematically late:
#: its median lateness exceeds this.  Single host stalls (tens of ms on
#: the reference VM) delay a few arrivals and show in ``loadgen.late_ms``
LATE_LIMIT_MS = 10.0
#: a seeded sample of this share of operations is checked against
#: numeric AWE (the first operation of every kind always is)
CHECK_SHARE = {"iterate": 1 / 256, "open": 1 / 16, "closed": 1 / 64}
#: grid points checked per surface sweep
CHECK_POINTS = 2
REJECT_CODES = ("shed", "quota", "bulkhead_full", "breaker_open",
                "deadline", "draining", "unknown_model", "invalid_request",
                "other")
CONTEXTS = ("pole", "margin", "q4", "point", "serve")
#: per-layer metrics that lose their meaning when a layer is absent,
#: beyond those named after the layer itself
ABSENT_ALSO = {
    "runtime.batched_sweep": ("runtime.columns_", "runtime.moments_",
                              "runtime.pade_", "runtime.metric_",
                              "runtime.fixed_", "runtime.fallback_"),
}


class Run:
    """State of one worker process."""

    def __init__(self, args) -> None:
        self.args = args
        self.rec = Recorder() if args.trace else None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.invalid: list[str] = []
        self.perturb = bool(args.perturb)
        self.wrong = 0
        self.checks = 0
        self.ops = 0
        self.layer_self: dict[str, float] = {}
        self.notes: dict = {}

    # -- tracing helpers ---------------------------------------------
    def span(self, layer, ctx=None, op=None):
        if self.rec is None:
            return contextlib.nullcontext()
        return self.rec.span(layer, ctx, op)

    def next_op(self) -> int:
        self.ops += 1
        return self.ops

    # -- outcome bookkeeping -----------------------------------------
    def fail(self, what: str, wrong: bool = False) -> None:
        """Count a failed operation; ``wrong`` marks a wrong output (as
        opposed to a raise or a rejection)."""
        self.failed += 1
        self.wrong += bool(wrong)
        if len(self.failures) < 20:
            self.failures.append(what)


def rel_err(got: float, ref: float) -> float:
    if got == ref:
        return 0.0
    return abs(got - ref) / max(abs(ref), 1e-300)


# ----------------------------------------------------------------------
# the library, imported inside the timed import span
# ----------------------------------------------------------------------
def load_library():
    import repro  # noqa: F401  (the timed import)
    import numpy as np
    from repro import awe
    from repro.circuits.library import small_signal_741
    from repro.core import metrics
    from repro.runtime import cache as runtime_cache
    from repro.service import AWEService, ModelRegistry, ServiceConfig, \
        ServiceRejection
    from repro.testing.differential import ToleranceLadder

    return types.SimpleNamespace(
        np=np, awe=awe, small_signal_741=small_signal_741, metrics=metrics,
        ProgramCache=runtime_cache.ProgramCache,
        CondensationCache=runtime_cache.CondensationCache,
        AWEService=AWEService, ModelRegistry=ModelRegistry,
        ServiceConfig=ServiceConfig, ServiceRejection=ServiceRejection,
        ladder=ToleranceLadder())


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
class Inputs:
    """Everything the program is given, generated from the seed."""

    def __init__(self, seed: int, go_nom: float) -> None:
        rng = random.Random(seed)
        self.go_nom = go_nom
        self.go_lo = rng.uniform(0.45, 0.55)
        self.go_hi = rng.uniform(3.8, 4.2)
        self.c_lo = rng.uniform(9.5e-12, 10.5e-12)
        self.c_hi = rng.uniform(58e-12, 62e-12)
        self.points = [self.point(rng) for _ in range(4096)]
        self.first = self.points[0]
        self.seed = seed

    def point(self, rng: random.Random) -> dict:
        return {"go_Q14": self.go_nom * rng.uniform(self.go_lo, self.go_hi),
                "Ccomp": rng.uniform(self.c_lo, self.c_hi)}

    def grid(self, np, n: int) -> dict:
        return {"go_Q14": np.linspace(self.go_lo, self.go_hi, n) * self.go_nom,
                "Ccomp": np.linspace(self.c_lo, self.c_hi, n)}

    def request(self, rng: random.Random, tenant: int | None = None) -> dict:
        u = rng.random()
        if u < POLE_SHARE:
            metric = "dominant_pole_hz"
        elif u < POLE_SHARE + (1 - POLE_SHARE) / 2:
            metric = "dc_gain"
        else:
            metric = "phase_margin"
        return {"model": MODEL_NAME, "metric": metric,
                "tenant": f"t{rng.randrange(TENANTS) if tenant is None else tenant}",
                "values": self.point(rng)}


# ----------------------------------------------------------------------
# the oracle: numeric AWE on a copy of the circuit
# ----------------------------------------------------------------------
class Oracle:
    def __init__(self, run: Run, lib, circuit) -> None:
        self.run = run
        self.lib = lib
        self.circuit = circuit

    def _awe(self, values: dict, order: int, extra: int = 0):
        c = self.circuit.copy()
        for name, value in values.items():
            c.replace_value(name, float(value))
        return self.lib.awe(c, OUTPUT, order=order, extra_moments=extra)

    def _perturbed(self, got: float) -> float:
        if self.run.perturb:
            self.run.perturb = False
            return got * (1.0 + 1e-2)
        return got

    def metric(self, what: str, metric: str, values: dict, got: float,
               order: int = 2, rtol: float | None = None) -> bool:
        """``got`` is ``metric`` of the order-``order`` model at
        ``values``, within ``rtol`` (default: the ladder's exact rung)."""
        with self.run.span("oracle"):
            self.run.checks += 1
            got = self._perturbed(float(got))
            ref = getattr(self.lib.metrics, metric)(
                self._awe(values, order).model)
            rtol = self.lib.ladder.exact if rtol is None else rtol
            err = rel_err(got, ref)
            if not err <= rtol:
                self.run.fail(f"{what}: {metric}={got!r} vs numeric AWE "
                              f"{ref!r} (rel err {err:.3g} > {rtol:g})",
                              wrong=True)
                return False
            return True

    def moments(self, what: str, model, values: dict) -> bool:
        """The compiled moments at ``values`` equal numeric AWE's."""
        with self.run.span("oracle"):
            self.run.checks += 1
            got = [self._perturbed(float(m)) for m in model.moments_at(values)]
            q = model.order
            ref = self._awe(values, q, extra=len(got) - (2 * q - 1)).moments
            worst = max(rel_err(g, float(r)) for g, r in zip(got, ref))
            if not worst <= self.lib.ladder.exact:
                self.run.fail(f"{what}: moments differ from numeric AWE by "
                              f"{worst:.3g}", wrong=True)
                return False
            return True


# ----------------------------------------------------------------------
# setup: from process start to the first correct answer
# ----------------------------------------------------------------------
def start_service(lib, st: dict) -> None:
    """An ``AWEService`` with the 741 registered over the run's cache.
    ``ServiceConfig`` keeps its defaults except tenant quota and bulkhead,
    sized so they never bind."""
    config = lib.ServiceConfig(tenant_rate=1e9, tenant_burst=1e9,
                               bulkhead_limit=CLIENTS)
    registry = lib.ModelRegistry(cache=st["cache"],
                                 breaker_config=config.breaker)
    registry.register(MODEL_NAME, st["circuit"], OUTPUT,
                      symbols=list(SYMBOLS), order=2, **st["options"])
    st["service"] = lib.AWEService(config, registry=registry)
    st["loop"] = asyncio.new_event_loop()


def set_up(run: Run, lib):
    args = run.args
    work = Path(args.cache_dir)
    with run.span("circuits.build"):
        circuit = lib.small_signal_741().circuit
    inputs = Inputs(args.seed, float(circuit["go_Q14"].value))
    cache = lib.ProgramCache(disk_dir=work / "programs")
    ccache = lib.CondensationCache(disk_dir=work / "condense")
    options = {"condense_cache": ccache}
    st = {"circuit": circuit, "inputs": inputs, "cache": cache,
          "ccache": ccache, "options": options, "loop": None,
          "service": None, "r2": None, "r4": None}
    np = lib.np
    first = inputs.first
    one = {k: np.array([v]) for k, v in first.items()}

    if args.mode == "prime":
        for order in (2, 4):
            cache.get_or_build(circuit, OUTPUT, symbols=list(SYMBOLS),
                               order=order, **options)
        return st, None

    if args.workload == "serve":
        start_service(lib, st)
        service, loop = st["service"], st["loop"]
        req = {"model": MODEL_NAME, "metric": "dominant_pole_hz",
               "values": first}
        with run.span("service", op=run.next_op()):
            resp = loop.run_until_complete(service.handle_eval(req))
        t_first = time.perf_counter()
        what, value = "serve first request", resp["value"]
        entry = loop.run_until_complete(service.registry.ensure(MODEL_NAME))
        st["r2"] = entry.result
    else:
        # cold compile at order 2, then the same session bumped to order 4
        for order in (2, 4):
            st[f"r{order}"] = cache.get_or_build(
                circuit, OUTPUT, symbols=list(SYMBOLS), order=order,
                **options)
        values = []
        for res in (st["r2"], st["r4"]):
            with run.span("core.sweep", ctx="first", op=run.next_op()):
                z = res.model.sweep(one, lib.metrics.dominant_pole_hz)
            values.append(float(np.asarray(z).reshape(-1)[0]))
        t_first = time.perf_counter()
        what, value = "surface first sweep", values[0]
        run.attempted += 1
        if not math.isfinite(values[1]):
            run.fail("surface first q4 sweep: non-finite value", wrong=True)

    oracle = st["oracle"] = Oracle(run, lib, circuit)
    run.attempted += 1
    oracle.metric(what, "dominant_pole_hz", first, value)
    if st["r4"] is not None:
        oracle.moments("surface first q4 sweep", st["r4"].model, first)
    return st, t_first - args.t0


def cache_report(st: dict, workload: str) -> tuple[dict, str | None]:
    """Cache counters after setup, and the reason the cache state is
    wrong for this workload (None when it is right)."""
    ps, cs = st["cache"].stats, st["ccache"].stats
    builds = ps.misses - ps.disk_hits
    report = {"hits": ps.hits + ps.disk_hits, "misses": builds,
              "condense_hits": cs.hits, "condense_disk_hits": cs.disk_hits}
    if workload == "serve":
        if builds or not ps.disk_hits:
            return report, (f"warm setup built {builds} program(s) and "
                            f"loaded {ps.disk_hits} from disk")
    elif ps.hits or ps.disk_hits or cs.disk_hits:
        return report, (f"cold setup saw cache hits: program "
                        f"{ps.hits}+{ps.disk_hits} disk, condensation "
                        f"{cs.disk_hits} disk")
    return report, None


def identity(run: Run, st: dict) -> dict:
    """Program identity: post-CSE and tape op counts, fused tape hash
    (op counts -1 and no hash when the tape lowering is gone)."""
    model = st["r2"].model
    out = {"ops": int(model.n_ops), "tape_ops": -1, "fused_ops": -1,
           "hash": None}
    try:
        from repro.symbolic.tape import tape_from_model
    except ImportError:
        return out
    with run.span("symbolic.tape"):
        tape = tape_from_model(model)
        fused = tape_from_model(model, fused=True)
    out.update(tape_ops=int(tape.n_ops), fused_ops=int(fused.n_ops),
               hash=fused.content_hash)
    return out


# ----------------------------------------------------------------------
# sections
# ----------------------------------------------------------------------
def calibrate() -> float:
    """Seconds for a fixed 20 000-iteration integer loop: the host's speed
    right now for arithmetic-bound interpreted code (see ``run.py`` on
    how the figures use it)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i
    return time.perf_counter() - t0


class _Node:
    def __init__(self, key, value) -> None:
        self.key = key
        self.value = value
        self.kids: list = []

    def add(self, node):
        self.kids.append(node)
        return node


def calibrate_objects() -> float:
    """Seconds for a fixed piece of object-heavy interpreted work --
    allocation, attribute and dict access, method calls: the host's speed
    right now for code like the service's request path and the scalar
    ``rom`` call.  The reference VM's slow phases hurt that code more
    than the integer loop: against :func:`calibrate` the closed loop's
    throughput moved with elasticity ~1.6, against this one ~0.9."""
    t0 = time.perf_counter()
    root = _Node(0, 0.0)
    table: dict = {}
    for i in range(1500):
        node = root.add(_Node(i, 0.5 * i)) if i % 8 == 0 else _Node(i, 1.0 * i)
        table[(i & 127, "k")] = node
        hit = table.get((i & 63, "k"))
        if hit is not None:
            hit.value += node.value
    return time.perf_counter() - t0


class Surface:
    """Timed sweeps, one per step, cycling through ``SWEEP_CYCLE``."""

    def __init__(self, run: Run, lib, st: dict) -> None:
        np = lib.np
        if st["r4"] is None:  # warm restart: the order-4 model from the cache
            st["r4"] = st["cache"].get_or_build(
                st["circuit"], OUTPUT, symbols=list(SYMBOLS), order=4,
                **st["options"])
        self.run, self.lib, self.st = run, lib, st
        inputs = st["inputs"]
        self.rng = random.Random(inputs.seed * 7 + 1)
        self.axes = (SMOKE_AXIS if run.args.smoke
                     else {k: v[2] for k, v in SWEEPS.items()})
        self.grids = st["grids"] = {k: inputs.grid(np, self.axes[k])
                                    for k in SWEEPS}
        # untimed warm-up: a model's first sweep builds its fused tape and
        # batch kernel, and the first large one grows the allocator's
        # pools, which a process pays once
        one = {k: np.array([v]) for k, v in inputs.first.items()}
        with run.span("core.sweep", ctx="first"):
            st["r4"].model.sweep(one, lib.metrics.dominant_pole_hz)
            st["r2"].model.sweep(self.grids["pole"],
                                 lib.metrics.dominant_pole_hz)
        #: per sweep kind: [points, seconds, calibration] of every timed sweep
        self.timed: dict[str, list[list]] = {k: [] for k in SWEEPS}
        self.kinds = itertools.cycle(SWEEP_CYCLE)
        st["quarantined"] = 0

    def step(self, seconds: float) -> None:
        run, lib, st = self.run, self.lib, self.st
        np = lib.np
        key = next(self.kinds)
        metric_name, order, _ = SWEEPS[key]
        model = (st["r2"] if order == 2 else st["r4"]).model
        metric = getattr(lib.metrics, metric_name)
        grid = self.grids[key]
        n = self.axes[key] ** 2
        run.attempted += 1
        op = run.next_op()
        cal = calibrate()
        try:
            t0 = time.perf_counter()
            with run.span("core.sweep", ctx=key, op=op):
                z = model.sweep(grid, metric)
            dt = time.perf_counter() - t0
        except Exception as exc:  # a raising sweep is a failed operation
            run.fail(f"{key} sweep raised {type(exc).__name__}: {exc}")
            return
        self.timed[key].append([n, dt, (cal + calibrate()) / 2])
        q = len(z.diagnostics.quarantined)
        st["quarantined"] += q
        values = np.asarray(z)
        if q or not np.isfinite(values).all():
            run.fail(f"{key} sweep: {q} quarantined, "
                     f"{int((~np.isfinite(values)).sum())} non-finite",
                     wrong=True)
            return
        for _ in range(CHECK_POINTS):
            i, j = self.rng.randrange(self.axes[key]), \
                self.rng.randrange(self.axes[key])
            point = {"go_Q14": float(grid["go_Q14"][i]),
                     "Ccomp": float(grid["Ccomp"][j])}
            if order == 2:
                st["oracle"].metric(f"{key} sweep", metric_name, point,
                                    float(values[i, j]))
            else:
                st["oracle"].moments(f"{key} sweep", model, point)

    def samples(self) -> dict:
        return self.timed


class Iterate:
    """One caller alternating ``result.rom`` plus scalar metrics with a
    1-point sweep; a step is whole blocks of ``ITERATE_BLOCK`` calls."""

    def __init__(self, run: Run, lib, st: dict) -> None:
        self.run, self.lib, self.st = run, lib, st
        inputs = st["inputs"]
        self.rng = random.Random(inputs.seed * 7 + 2)
        self.points = inputs.points[run.args.index * 1024:] + inputs.points
        #: [calibration, rom latencies, 1-point sweep latencies] per block
        self.blocks: list[list] = []
        self.i = 0

    def step(self, seconds: float) -> None:
        stop = time.perf_counter() + seconds
        while True:
            cal = calibrate_objects()
            rom_lat, pt_lat = self.block()
            self.blocks.append([(cal + calibrate_objects()) / 2, rom_lat,
                                pt_lat])
            if time.perf_counter() >= stop:
                return

    def block(self) -> tuple[list, list]:
        run, np, oracle = self.run, self.lib.np, self.st["oracle"]
        result = self.st["r2"]
        dominant = self.lib.metrics.dominant_pole_hz
        dc_gain = self.lib.metrics.dc_gain
        rom_lat: list[float] = []
        pt_lat: list[float] = []
        for _ in range(ITERATE_BLOCK):
            i = self.i
            self.i += 1
            values = self.points[i % len(self.points)]
            check = i < 2 or self.rng.random() < CHECK_SHARE["iterate"]
            run.attempted += 1
            op = run.next_op()
            try:
                if i % 2 == 0:
                    t0 = time.perf_counter()
                    with run.span("core.rom", ctx="rom", op=op):
                        rom = result.rom(values)
                    with run.span("core.metric", ctx="rom", op=op):
                        pole = dominant(rom)
                        gain = dc_gain(rom)
                    rom_lat.append(time.perf_counter() - t0)
                    if check:
                        oracle.metric("iterate rom", "dominant_pole_hz",
                                      values, pole)
                        oracle.metric("iterate rom", "dc_gain", values, gain)
                else:
                    grid = {k: np.array([v]) for k, v in values.items()}
                    t0 = time.perf_counter()
                    with run.span("core.sweep", ctx="point", op=op):
                        z = result.model.sweep(grid, dominant)
                    pt_lat.append(time.perf_counter() - t0)
                    value = float(np.asarray(z).reshape(-1)[0])
                    if not math.isfinite(value):
                        run.fail("1-point sweep: non-finite value", wrong=True)
                    elif check:
                        oracle.metric("iterate 1-point sweep",
                                      "dominant_pole_hz", values, value)
            except Exception as exc:
                run.fail(f"iteration raised {type(exc).__name__}: {exc}")
        return rom_lat, pt_lat

    def samples(self) -> dict:
        return {"iterate": self.blocks}


class Serve:
    """Requests through ``AWEService.handle_eval``: open-loop steps of
    Poisson arrivals at ``RATE``, closed-loop steps of ``CLIENTS``
    callers."""

    def __init__(self, run: Run, lib, st: dict) -> None:
        if st["service"] is None:
            start_service(lib, st)
            # untimed warm-up: the registry entry and every metric's bucket
            for metric in ("dominant_pole_hz", "dc_gain", "phase_margin"):
                st["loop"].run_until_complete(st["service"].handle_eval(
                    {"model": MODEL_NAME, "metric": metric,
                     "values": st["inputs"].first}))
        self.run, self.lib, self.st = run, lib, st
        self.service, self.loop = st["service"], st["loop"]
        self.inputs = inputs = st["inputs"]
        self.reject = float(self.service.config.default_deadline_s)
        self.stats = st["serve_stats"] = {
            "late": [], "queue": [], "eval": [], "other": [],
            "batch_open": [], "batch_closed": [],
            "rejected": {code: 0 for code in REJECT_CODES},
            "degraded": 0, "checks": []}
        index = run.args.index
        self.rng = random.Random(inputs.seed * 7 + 3 + 1000 * index)
        self.clients = [random.Random((inputs.seed * 10 + index) * 1000 + k)
                        for k in range(CLIENTS)]
        #: open-loop latencies, pooled over the steps
        self.open: list[float] = []
        #: [requests served, seconds, calibration] per closed-loop step
        self.closed: list[list] = []
        self.n_open = 0

    async def call(self, req, phase, parent, check, latencies=None, due=None):
        run, stats = self.run, self.stats
        run.attempted += 1
        op = run.next_op()
        start = time.perf_counter()
        try:
            resp = await self.service.handle_eval(req)
        except self.lib.ServiceRejection as exc:
            run.fail(f"{phase} request rejected: {exc.code}")
            code = exc.code if exc.code in stats["rejected"] else "other"
            stats["rejected"][code] += 1
            if due is not None:
                latencies.append(self.reject)
            return False
        except Exception as exc:
            run.fail(f"{phase} request raised {type(exc).__name__}: {exc}")
            if due is not None:
                latencies.append(self.reject)
            return False
        done = time.perf_counter()
        if run.rec is not None:
            run.rec.interval("service", start, done, parent, ctx=phase, op=op)
        if resp.get("degraded"):
            stats["degraded"] += 1
        stats["batch_" + phase].append(resp.get("batch_size", 1))
        if due is not None:
            latencies.append(done - due)
            q, e = resp.get("queue_s", 0.0), resp.get("eval_s", 0.0)
            stats["queue"].append(q)
            stats["eval"].append(e)
            stats["other"].append(done - start - q - e)
        if check:
            stats["checks"].append((req, resp))
        return True

    def open_step(self, seconds: float) -> None:
        schedule = []
        t = 0.0
        while True:
            t += self.rng.expovariate(RATE)
            if t >= seconds and schedule:
                break
            schedule.append((t, self.inputs.request(self.rng),
                             self.rng.random() < CHECK_SHARE["open"]))
        self.n_open += len(schedule)
        latencies: list[float] = []

        async def open_loop(parent):
            tasks = []
            base = time.perf_counter() + 0.005
            for offset, req, check in schedule:
                due = base + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                self.stats["late"].append(time.perf_counter() - due)
                tasks.append(asyncio.ensure_future(self.call(
                    req, "open", parent, check, latencies, due=due)))
            await asyncio.gather(*tasks)

        with self.run.span("loadgen", ctx="open") as parent:
            self.loop.run_until_complete(open_loop(parent))
        self.open.extend(latencies)

    def closed_step(self, seconds: float) -> None:
        served = [0]

        async def client(crng, k, parent, stop):
            while time.perf_counter() < stop:
                check = crng.random() < CHECK_SHARE["closed"]
                ok = await self.call(
                    self.inputs.request(crng, tenant=k % TENANTS),
                    "closed", parent, check)
                served[0] += ok

        cals = [calibrate_objects()]

        async def sampler(stop):
            while time.perf_counter() < stop:
                await asyncio.sleep(CLOSED_CAL_EVERY_S)
                cals.append(calibrate_objects())

        async def closed_loop(parent):
            stop = time.perf_counter() + seconds
            await asyncio.gather(sampler(stop), *(
                client(crng, k, parent, stop)
                for k, crng in enumerate(self.clients)))

        t0 = time.perf_counter()
        with self.run.span("loadgen", ctx="closed") as parent:
            self.loop.run_until_complete(closed_loop(parent))
        dt = time.perf_counter() - t0
        cals.append(calibrate_objects())
        self.closed.append([served[0], dt, statistics.median(cals)])

    def finish(self) -> None:
        """Check the sampled answers; judge the open loop's validity."""
        run, stats, oracle = self.run, self.stats, self.st["oracle"]
        for req, resp in stats["checks"]:
            if resp.get("degraded"):
                oracle.metric("degraded serve answer", req["metric"],
                              req["values"], resp["value"], order=1,
                              rtol=self.lib.ladder.degraded)
            else:
                oracle.metric("serve answer", req["metric"], req["values"],
                              resp["value"])
        late_p50 = 1e3 * median(stats["late"])
        if late_p50 > LATE_LIMIT_MS:
            run.invalid.append(f"open loop invalid: generator median "
                               f"lateness {late_p50:.1f} ms > "
                               f"{LATE_LIMIT_MS} ms")
        run.notes["late_p99_ms"] = 1e3 * pct(stats["late"], 99)
        run.notes["open_requests"] = self.n_open
        run.notes["closed_requests"] = sum(c[0] for c in self.closed)

    def samples(self) -> dict:
        return {"open": self.open, "closed": self.closed}


def measure_sections(run: Run, lib, st: dict) -> dict:
    """Interleave the sections' steps for ``--seconds``, each section
    getting its workload's share; every section runs at least once
    (every sweep kind, for the surface section).
    Returns the raw samples."""
    shares = SHARES[run.args.workload]
    with run.span(REMAINDER, ctx="surface"):
        surface = Surface(run, lib, st)
    with run.span(REMAINDER, ctx="iterate"):
        iterate = Iterate(run, lib, st)
    with run.span(REMAINDER, ctx="serve"):
        serve = Serve(run, lib, st)
    steps = {"surface": (surface.step, "surface"),
             "iterate": (iterate.step, "iterate"),
             "open": (serve.open_step, "serve"),
             "closed": (serve.closed_step, "serve")}
    spent = dict.fromkeys(shares, 0.0)
    count = dict.fromkeys(shares, 0)
    deadline = time.perf_counter() + run.args.seconds
    while True:
        fresh = [k for k in shares
                 if count[k] < (len(SWEEPS) if k == "surface" else 1)]
        if not fresh and time.perf_counter() >= deadline:
            break
        key = fresh[0] if fresh else min(
            shares, key=lambda k: spent[k] / shares[k])
        fn, ctx = steps[key]
        seconds = SMOKE_STEP_S if run.args.smoke else STEP_S.get(key, 0.0)
        t0 = time.perf_counter()
        with run.span(REMAINDER, ctx=ctx):
            fn(seconds)
        spent[key] += time.perf_counter() - t0
        count[key] += 1
    with run.span(REMAINDER, ctx="serve"):
        serve.finish()
    run.notes["section_s"] = {k: round(v, 3) for k, v in spent.items()}
    return {**surface.samples(), **iterate.samples(), **serve.samples()}


# ----------------------------------------------------------------------
# per-layer figures from the trace
# ----------------------------------------------------------------------
def native_probe(run: Run, lib, st: dict) -> dict:
    """Build the fused native kernel for each sweep's program and time it
    on that sweep's batch (not the default kernel: probed separately)."""
    out = {}
    try:
        from repro.runtime.batched import grid_columns
        from repro.runtime.native import NativeUnavailable, build_native_kernel
        from repro.symbolic import tape as tape_mod
    except ImportError:
        run.rec.absent.add("runtime.native")
        return out
    np = lib.np
    build_s = 0.0
    kernels = {}
    for key, (_, order, _) in SWEEPS.items():
        model = (st["r2"] if order == 2 else st["r4"]).model
        with run.span(REMAINDER, ctx="probe." + key):
            _, _, cols = grid_columns(model, st["grids"][key])
        n = next(int(c.size) for c in cols if isinstance(c, np.ndarray))
        mask = tuple(isinstance(c, np.ndarray) for c in cols)
        kernel = kernels.get((order, mask))
        if kernel is None:
            t0 = time.perf_counter()
            try:
                with run.span("runtime.native_build", ctx="probe." + key):
                    fused = tape_mod.fuse_moments(
                        tape_mod.tape_for(model.compiled_moments.fn))
                    kernel = build_native_kernel(fused, mask)
            except NativeUnavailable:
                run.rec.absent.add("runtime.native")
                return {}
            build_s += time.perf_counter() - t0
            kernels[(order, mask)] = kernel
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            with run.span("runtime.native", ctx="probe." + key):
                kernel(list(cols), n)
            times.append(time.perf_counter() - t0)
        out[f"runtime.native_ns_per_pt.{key}"] = 1e9 * median(times) / n
    out["runtime.native_build_s"] = build_s
    return out


def layer_figures(run: Run, st: dict, root, overhead: float,
                  setup_end: float) -> dict:
    rec = run.rec
    self_t = rec.self_times()
    spans = [sp for sp in rec.spans if sp[END] is not None]
    main = [sp for sp in spans if sp[4] == rec.main_tid]
    total = root[END] - root[START]
    by_layer: dict[str, float] = {}
    for sp in main:
        by_layer[sp[LAYER]] = by_layer.get(sp[LAYER], 0.0) + self_t.get(sp[ID], 0.0)
    attributed = sum(by_layer.values())
    if abs(attributed - total) > 1e-6 * total + 1e-6:
        run.invalid.append(f"trace does not add up: layers {attributed:.6f} s "
                           f"vs run {total:.6f} s")
    out: dict[str, float] = {}

    def self_sum(layer):
        return sum(self_t.get(sp[ID], 0.0) for sp in spans
                   if sp[LAYER] == layer)

    def calls(layer, ctx=None):
        return [sp for sp in spans if sp[LAYER] == layer
                and (ctx is None or sp[CTX] == ctx)]

    imp = calls("repro.import")
    out["repro.import_s"] = imp[0][END] - imp[0][START] if imp else -1.0
    out["circuits.build_s"] = self_sum("circuits.build")
    for name, layer in (("partition.partition_s", "partition.partition"),
                        ("partition.condense_s", "partition.condense"),
                        ("partition.recursion_s", "partition.recursion"),
                        ("core.closed_forms_s", "core.closed_forms"),
                        ("symbolic.codegen_s", "symbolic.codegen"),
                        ("symbolic.tape_s", "symbolic.tape")):
        out[name] = self_sum(layer)
    ident = st["identity"]
    out["symbolic.ops"] = ident["ops"]
    out["symbolic.tape_ops"] = ident["tape_ops"]
    out["symbolic.fused_ops"] = ident["fused_ops"]
    cache_spans = [sp for sp in calls("runtime.cache") if sp[START] < setup_end]
    out["runtime.cache_load_s"] = (
        sum(sp[END] - sp[START] for sp in cache_spans)
        if st["cache_report"]["misses"] == 0 else 0.0)
    out["runtime.cache_hits"] = st["cache_report"]["hits"]
    out["runtime.cache_misses"] = st["cache_report"]["misses"]
    out.update(st.get("native", {}))

    for ctx in CONTEXTS:
        # stage spans inherit their sweep's context; coalesced serve
        # batches run on executor threads with no enclosing span
        mine = [sp for sp in spans if sp[CTX] == ctx
                or (ctx == "serve" and sp[CTX] is None)]
        sweeps = [sp for sp in mine if sp[LAYER] == "runtime.batched_sweep"]
        points = sum(sp[N] for sp in sweeps)
        stage = {}
        for layer in ("runtime.columns", "runtime.moments", "runtime.pade",
                      "runtime.metric", "runtime.fallback"):
            stage[layer] = sum(self_t.get(sp[ID], 0.0) for sp in mine
                               if sp[LAYER] == layer)
        for name in ("columns", "moments", "pade", "metric"):
            out[f"runtime.{name}_ns_per_pt.{ctx}"] = (
                1e9 * stage["runtime." + name] / points if points else 0.0)
        out[f"runtime.fixed_us.{ctx}"] = (
            1e6 * sum(self_t.get(sp[ID], 0.0) for sp in sweeps) / len(sweeps)
            if sweeps else 0.0)
        n_fallback = sum(1 for sp in mine if sp[LAYER] == "runtime.fallback")
        if ctx in ("pole", "margin", "q4"):
            out[f"runtime.fallback_frac.{ctx}"] = (
                n_fallback / points if points else 0.0)
        if ctx == "q4":
            out["runtime.fallback_us_per_pt.q4"] = (
                1e6 * stage["runtime.fallback"] / n_fallback
                if n_fallback else 0.0)
    out["runtime.quarantined"] = st.get("quarantined", 0)

    for name, layer in (("awe.scalars_us", "awe.scalars"),
                        ("awe.rom_us", "awe.rom")):
        mine = calls(layer, "rom")
        out[name] = (1e6 * sum(self_t.get(sp[ID], 0.0) for sp in mine)
                     / len(mine) if mine else 0.0)
    mine = calls("core.metric", "rom")
    out["core.metric_us"] = (1e6 * sum(self_t.get(sp[ID], 0.0) for sp in mine)
                             / len(mine) if mine else 0.0)

    ss = st.get("serve_stats")
    if ss is not None:
        out["service.queue_ms"] = 1e3 * median(ss["queue"])
        out["service.eval_ms"] = 1e3 * median(ss["eval"])
        out["service.other_ms"] = 1e3 * median(ss["other"])
        for phase in ("open", "closed"):
            sizes = ss["batch_" + phase]
            out["service.batch_size." + phase] = (
                statistics.fmean(sizes) if sizes else 0.0)
        for code in REJECT_CODES:
            out[f"service.rejected.{code}"] = ss["rejected"].get(code, 0)
        out["service.degraded"] = ss["degraded"]
        out["loadgen.late_ms"] = 1e3 * pct(ss["late"], 99)
    out["trace.overhead_frac"] = overhead * len(spans) / total
    out["trace.unattributed_frac"] = by_layer.get(REMAINDER, 0.0) / total

    for layer in rec.absent:
        prefixes = (layer + "_", layer + ".") + ABSENT_ALSO.get(layer, ())
        for name in out:
            if name.startswith(prefixes):
                out[name] = -1.0
    run.layer_self = dict(sorted(by_layer.items(), key=lambda kv: -kv[1]))
    return out


# ----------------------------------------------------------------------
def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("prime", "main"), required=True)
    ap.add_argument("--index", type=int, default=0,
                    help="which of the run's measuring processes this is")
    ap.add_argument("--workload", required=True, choices=tuple(SHARES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="perf_counter() of the parent just before spawn")
    ap.add_argument("--cache-dir", required=True)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--perturb", action="store_true")
    args = ap.parse_args()

    run = Run(args)
    rec = run.rec
    root = rec.begin(REMAINDER, start=args.t0) if rec is not None else None
    with run.span("repro.import"):
        lib = load_library()
    undo = rec.install() if rec is not None else []

    st, setup_s = set_up(run, lib)
    setup_cal = calibrate()
    report = {"mode": args.mode}
    if args.mode == "prime":
        print(json.dumps(report))
        return 0
    setup_end = time.perf_counter()
    st["cache_report"], cache_problem = cache_report(st, args.workload)
    if cache_problem:
        run.invalid.append(cache_problem)
    st["identity"] = identity(run, st)
    report.update(setup_s=setup_s, setup_cal=setup_cal,
                  identity=st["identity"],
                  cache=st["cache_report"])

    report["samples"] = measure_sections(run, lib, st)
    if rec is not None:
        st["native"] = native_probe(run, lib, st)
    st.pop("grids", None)

    if st["service"] is not None:
        st["loop"].run_until_complete(st["service"].drain())
        st["loop"].close()
    if rec is not None:
        rec.end(root)
        Recorder.uninstall(undo)
        report["per_layer"] = layer_figures(
            run, st, root, span_overhead_s(), setup_end)
        report["layer_self_s"] = run.layer_self
        if args.trace_out:
            rec.write_chrome(args.trace_out)
    report.update(rss_mb=resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=run.attempted, failed=run.failed, wrong=run.wrong,
        checks=run.checks, notes=run.notes,
        failures=run.failures, invalid=run.invalid)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
