"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``analyze`` — run AWE / AWEsymbolic on a netlist file and print the
  reduced-order model, metrics, and (with symbols) the symbolic forms.
* ``evaluate`` — evaluate or sweep a saved model tape; ``--strict``
  fails on the first degenerate grid point, the default (``--lenient``)
  quarantines it to NaN and reports it.
* ``sweep`` — end-to-end netlist → compiled model → batched metric
  sweep in one invocation (routed through the program cache).
* ``trace`` — run the compile pipeline (and optionally a sweep) under
  the tracer and write a Chrome/Perfetto trace JSON.
* ``profile`` — op-level profile of a saved model tape's compiled
  moment program: top-k hot ops with symbolic provenance.
* ``doctor`` — health-check a sweep (quarantine list, conditioning
  summaries) and/or a program-cache directory.  Exit status encodes
  severity: 0 healthy, 1 warnings, 2 corrupt cache entries.
* ``tran`` — closed-form transient (analytic convolution of the
  compiled poles/residues; step/ramp/pulse/PWL inputs, ``--verify``
  checks against the trapezoidal time-stepper).
* ``mc`` — Monte Carlo a metric over sampled element values through the
  batched sweep runtime (percentile/yield report, ``--verify`` replays
  every sample through the per-point oracle).
* ``figures`` — regenerate the paper's figure/table data as CSV
  (delegates to :mod:`repro.reporting.figures`).
* ``serve`` — run the resilient asyncio serving layer: warm compiled
  models behind ``/v1/eval`` with request coalescing, deadlines,
  admission control, circuit breakers, and graceful degradation
  (see ``docs/serving.md``).
* ``slo`` — render the SLO report (per-tenant latency quantiles,
  availability, degradation ratio, burn rates vs declared objectives)
  from a recorded service run's ``slo.json`` snapshot; exit 1 when an
  objective is breached so CI can gate on it.

``sweep``, ``mc``, and ``tran`` handle SIGINT/SIGTERM gracefully: the
first signal cancels the run cooperatively (in-flight shards finish
their current chunk, partial results and diagnostics are kept and
reported) and the command exits with a distinct code — 130 for SIGINT,
143 for SIGTERM; a second signal kills immediately.

Every command accepts ``--trace FILE`` (write a Chrome/Perfetto trace of
the whole run) and ``--metrics-dir DIR`` (write ``metrics.prom`` +
``events.jsonl`` on exit) — the observability layer of
:mod:`repro.obs`, see ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal as _signal
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ReproError

#: distinct exit codes for signal-drained runs (128 + signal number,
#: the shell convention)
EXIT_SIGINT = 130
EXIT_SIGTERM = 143


@contextlib.contextmanager
def _graceful_cancel():
    """SIGINT/SIGTERM → cooperative sweep drain instead of a stack trace.

    The first signal cancels the yielded
    :class:`~repro.runtime.cancel.CancelToken`: in-flight shards finish
    their current chunk, results computed so far are kept, diagnostics
    flush, and the command exits with a distinct code (130 for SIGINT,
    143 for SIGTERM).  A *second* signal restores the default handler
    and re-raises it — the escape hatch when draining itself hangs.
    """
    from .runtime.cancel import CancelToken

    token = CancelToken()
    seen: set[int] = set()

    def handler(signum, frame):
        if signum in seen:
            _signal.signal(signum, _signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        seen.add(signum)
        name = _signal.Signals(signum).name
        token.cancel(name)
        print(f"\n{name}: draining (signal again to kill immediately)",
              file=sys.stderr)

    previous = {}
    for sig in (_signal.SIGINT, _signal.SIGTERM):
        try:
            previous[sig] = _signal.signal(sig, handler)
        except ValueError:  # not the main thread (embedded use)
            pass
    try:
        yield token
    finally:
        for sig, old in previous.items():
            _signal.signal(sig, old)


def _drain_exit_code(token) -> int | None:
    """Exit code for a signal-drained run, or None when no signal fired."""
    if not token.cancelled:
        return None
    return EXIT_SIGTERM if token.reason == "SIGTERM" else EXIT_SIGINT


def _obs_parent() -> argparse.ArgumentParser:
    """Shared observability flags, attached to every subcommand."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--trace", type=Path, default=None, metavar="FILE",
                        help="write a Chrome/Perfetto trace of this run "
                             "(load at https://ui.perfetto.dev)")
    parent.add_argument("--metrics-dir", type=Path, default=None,
                        metavar="DIR",
                        help="write metrics.prom (Prometheus textfile) and "
                             "events.jsonl here on exit")
    return parent


def _add_sweep_args(p: argparse.ArgumentParser) -> None:
    """Grid/metric/sharding options shared by evaluate, sweep, trace."""
    from .runtime.backends import BACKENDS

    p.add_argument("--sweep", action="append", default=[],
                   metavar="NAME=START:STOP:N",
                   help="sweep an element over a linear grid "
                        "(repeatable; grids combine cartesian)")
    p.add_argument("--metric", default="dominant_pole_hz",
                   help="metric for --sweep (a name in "
                        "repro.core.metrics.METRICS; default "
                        "dominant_pole_hz)")
    p.add_argument("--shards", type=int, default=None,
                   help="split the sweep grid into N chunks")
    p.add_argument("--workers", type=int, default=None,
                   help="worker-pool width for sweep shards (default: "
                        "min(shards, cpu count) when --shards > 1)")
    p.add_argument("--backend", default=None, choices=BACKENDS,
                   help="shard execution backend (default auto: threads "
                        "when more than one worker; process spawns "
                        "workers and shares arrays via shared memory)")
    p.add_argument("--stats", action="store_true",
                   help="print runtime statistics for the sweep")
    p.add_argument("--stats-json", type=Path, default=None, metavar="FILE",
                   help="write the runtime statistics as JSON "
                        "(schema-stable, see RuntimeStats.to_dict)")
    p.add_argument("--csv", type=Path, default=None, metavar="FILE",
                   help="write sweep results as CSV")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--strict", action="store_true",
                      help="fail on the first degenerate sweep point")
    mode.add_argument("--lenient", action="store_false", dest="strict",
                      help="quarantine degenerate points to NaN and keep "
                           "going (default)")
    p.add_argument("--diagnostics", type=Path, default=None, metavar="FILE",
                   help="write the sweep diagnostics report as JSON")


def _add_model_build_args(p: argparse.ArgumentParser,
                          tape_input: bool = False) -> None:
    """Netlist → symbolic model options shared by sweep and trace.

    With ``tape_input`` the netlist becomes optional and ``--tape``
    accepts a saved op-tape artifact instead (no compile at all).
    """
    if tape_input:
        p.add_argument("netlist", type=Path, nargs="?", default=None,
                       help="netlist file (optional with --tape)")
        p.add_argument("--tape", type=Path, default=None, metavar="FILE",
                       help="evaluate a saved op-tape artifact instead of "
                            "compiling a netlist (see `repro compile "
                            "--emit-tape`)")
        p.add_argument("--output", "-o", default=None,
                       help="observed node name (required with a netlist)")
    else:
        p.add_argument("netlist", type=Path, help="netlist file")
        p.add_argument("--output", "-o", required=True,
                       help="observed node name")
    p.add_argument("--order", type=int, default=2,
                   help="Padé order (default 2)")
    p.add_argument("--symbols", "-s", default=None,
                   help="comma-separated symbolic element names")
    p.add_argument("--auto-symbols", type=int, default=0, metavar="K",
                   help="pick the K most sensitive elements as symbols")
    p.add_argument("--devices", action="store_true",
                   help="netlist contains D/Q/M cards: solve the DC "
                        "operating point and linearize first")
    p.add_argument("--cache-dir", type=Path, default=None, metavar="DIR",
                   help="cache derived symbolic programs here; "
                        "repeat runs skip the symbolic solve")
    p.add_argument("--max-cache-bytes", type=int, default=None,
                   metavar="BYTES",
                   help="LRU-evict the --cache-dir program layer beyond "
                        "this byte budget (default: unbounded)")


def build_parser() -> argparse.ArgumentParser:
    from .runtime.backends import BACKENDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="AWEsymbolic: compiled symbolic circuit analysis "
                    "(Lee & Rohrer, DAC 1992)")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    obs_parent = _obs_parent()
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", parents=[obs_parent],
                             help="analyze a netlist with AWE / AWEsymbolic")
    analyze.add_argument("netlist", type=Path, help="netlist file")
    analyze.add_argument("--output", "-o", required=True,
                         help="observed node name")
    analyze.add_argument("--order", type=int, default=2,
                         help="Padé order (default 2)")
    analyze.add_argument("--symbols", "-s", default=None,
                         help="comma-separated symbolic element names")
    analyze.add_argument("--auto-symbols", type=int, default=0, metavar="K",
                         help="pick the K most sensitive elements as symbols")
    analyze.add_argument("--devices", action="store_true",
                         help="netlist contains D/Q/M cards: solve the DC "
                              "operating point and linearize first")
    analyze.add_argument("--at", action="append", default=[],
                         metavar="NAME=VALUE",
                         help="re-evaluate the compiled model at an "
                              "off-nominal element value (repeatable)")
    analyze.add_argument("--save", type=Path, default=None, metavar="FILE",
                         help="save the compiled model as a .tape "
                              "artifact (the file `repro compile "
                              "--emit-tape` writes)")
    analyze.add_argument("--cache-dir", type=Path, default=None, metavar="DIR",
                         help="cache derived symbolic programs here; "
                              "repeat runs skip the symbolic solve")

    evaluate = sub.add_parser("evaluate", parents=[obs_parent],
                              help="evaluate a saved model tape "
                                   "(no circuit needed)")
    evaluate.add_argument("model", type=Path, help=".tape artifact")
    evaluate.add_argument("--at", action="append", default=[],
                          metavar="NAME=VALUE",
                          help="element value override (repeatable)")
    _add_sweep_args(evaluate)

    compile_p = sub.add_parser(
        "compile", parents=[obs_parent],
        help="compile a netlist and emit a portable op-tape artifact")
    _add_model_build_args(compile_p)
    compile_p.add_argument("--emit-tape", type=Path, default=None,
                           metavar="FILE",
                           help="write the compiled moment program as a "
                                "versioned, integrity-hashed .tape "
                                "artifact (load with `repro sweep "
                                "--tape` or `repro serve --library`)")

    sweep = sub.add_parser("sweep", parents=[obs_parent],
                           help="netlist -> compiled model -> batched "
                                "metric sweep, in one run")
    _add_model_build_args(sweep, tape_input=True)
    _add_sweep_args(sweep)

    trace = sub.add_parser("trace", parents=[obs_parent],
                           help="run the compile pipeline (and optionally "
                                "a sweep) under the tracer")
    _add_model_build_args(trace)
    _add_sweep_args(trace)
    trace.add_argument("--out", type=Path, default=Path("trace.json"),
                       metavar="FILE",
                       help="Chrome/Perfetto trace output "
                            "(default: trace.json)")

    profile = sub.add_parser("profile", parents=[obs_parent],
                             help="op-level profile of a saved model "
                                  "tape's compiled moment program")
    profile.add_argument("model", type=Path, help=".tape artifact")
    profile.add_argument("--sweep", action="append", default=[],
                         metavar="NAME=START:STOP:N",
                         help="grid batch to profile over (repeatable)")
    profile.add_argument("--top", type=int, default=10,
                         help="hot ops to list (default 10)")
    profile.add_argument("--repeats", type=int, default=5,
                         help="batches to sample (default 5)")
    profile.add_argument("--json", type=Path, default=None, metavar="FILE",
                         help="write the full profile as JSON")

    doctor = sub.add_parser("doctor", parents=[obs_parent],
                            help="health-check a sweep and/or a program "
                                 "cache directory")
    doctor.add_argument("model", type=Path, nargs="?", default=None,
                        help=".tape artifact to sweep-check")
    doctor.add_argument("--sweep", action="append", default=[],
                        metavar="NAME=START:STOP:N",
                        help="grid to exercise the model over (repeatable)")
    doctor.add_argument("--metric", default="dominant_pole_hz",
                        help="metric for the check sweep")
    doctor.add_argument("--shards", type=int, default=None,
                        help="split the check sweep into N chunks")
    doctor.add_argument("--workers", type=int, default=None,
                        help="worker-pool width for the check sweep")
    doctor.add_argument("--backend", default=None, choices=BACKENDS,
                        help="shard execution backend for the check sweep")
    doctor.add_argument("--json", type=Path, default=None, metavar="FILE",
                        help="write the diagnostics report as JSON")
    doctor.add_argument("--cache-dir", type=Path, default=None, metavar="DIR",
                        help="scan this program-cache directory for "
                             "corrupt/stale entries and orphaned temp files")
    doctor.add_argument("--fix", action="store_true",
                        help="move unhealthy cache entries to quarantine/ "
                             "and delete orphaned temp files (in the "
                             "native kernel store too, with its stale "
                             "tape-*.c sources)")

    tran = sub.add_parser("tran", parents=[obs_parent],
                          help="closed-form transient of a compiled model "
                               "(analytic convolution, no time-stepping)")
    _add_model_build_args(tran)
    tran.add_argument("--input", default="step", metavar="SPEC",
                      help="input waveform: step[:AMP[,DELAY]] | "
                           "ramp:RISE[,AMP] | pulse:V1,V2,TD,TR,PW,TF | "
                           "pwl:T=V,T=V,... (default: unit step)")
    tran.add_argument("--t-stop", default=None, metavar="TIME",
                      help="simulation horizon (default: model settle-time "
                           "hint plus the waveform's last breakpoint)")
    tran.add_argument("--points", type=int, default=501,
                      help="time points (default 501)")
    tran.add_argument("--at", action="append", default=[],
                      metavar="NAME=VALUE",
                      help="off-nominal element value (repeatable)")
    tran.add_argument("--csv", type=Path, default=None, metavar="FILE",
                      help="write the waveform as t,y CSV")
    tran.add_argument("--verify", action="store_true",
                      help="differentially verify against the trapezoidal "
                           "time-stepper (exit 1 on mismatch)")

    mc = sub.add_parser("mc", parents=[obs_parent],
                        help="Monte Carlo a metric over sampled element "
                             "values (batched through the sweep runtime)")
    _add_model_build_args(mc)
    mc.add_argument("--param", action="append", default=[],
                    metavar="NAME=DIST",
                    help="sampled element: NAME=normal:MEAN,SIGMA | "
                         "NAME=normal%%:MEAN,RELSIGMA | "
                         "NAME=uniform:LO,HI (repeatable, required)")
    mc.add_argument("--metric", default="dominant_pole_hz",
                    help="metric to sample (a name in "
                         "repro.core.metrics.METRICS; default "
                         "dominant_pole_hz)")
    mc.add_argument("--samples", type=int, default=1000,
                    help="sample count (default 1000)")
    mc.add_argument("--seed", type=int, default=0,
                    help="RNG seed (default 0; deterministic)")
    mc.add_argument("--percentiles", default=None, metavar="Q,Q,...",
                    help="percentiles to report (default 1,5,25,50,75,95,99)")
    mc.add_argument("--spec-lo", type=float, default=None,
                    help="lower spec limit for yield reporting")
    mc.add_argument("--spec-hi", type=float, default=None,
                    help="upper spec limit for yield reporting")
    mc.add_argument("--shards", type=int, default=None,
                    help="split the sample batch into N chunks")
    mc.add_argument("--workers", type=int, default=None,
                    help="worker-pool width for sample shards")
    mc.add_argument("--backend", default=None, choices=BACKENDS,
                    help="shard execution backend")
    mode = mc.add_mutually_exclusive_group()
    mode.add_argument("--strict", action="store_true",
                      help="fail on the first degenerate sample")
    mode.add_argument("--lenient", action="store_false", dest="strict",
                      help="quarantine degenerate samples to NaN (default)")
    mc.add_argument("--stats", action="store_true",
                    help="print runtime statistics")
    mc.add_argument("--csv", type=Path, default=None, metavar="FILE",
                    help="write per-sample parameter/metric CSV")
    mc.add_argument("--json", type=Path, default=None, metavar="FILE",
                    help="write the full report (percentiles, quarantine) "
                         "as JSON")
    mc.add_argument("--verify", action="store_true",
                    help="replay every sample through the per-point oracle "
                         "and compare (exit 1 on mismatch)")

    figures = sub.add_parser("figures", parents=[obs_parent],
                             help="regenerate the paper's figure data (CSV)")
    figures.add_argument("outdir", nargs="?", default="paper_figures",
                         help="output directory (default: paper_figures)")

    serve = sub.add_parser("serve", parents=[obs_parent],
                           help="serve compiled models over HTTP "
                                "(asyncio; /v1/eval, /healthz, /readyz, "
                                "/metrics — see docs/serving.md)")
    serve.add_argument("netlist", type=Path, nargs="?", default=None,
                       help="netlist file to serve (optional when "
                            "--library is given)")
    serve.add_argument("--output", "-o", default=None,
                       help="observed node name (required with a netlist)")
    serve.add_argument("--order", type=int, default=2,
                       help="Padé order (default 2)")
    serve.add_argument("--symbols", "-s", default=None,
                       help="comma-separated symbolic element names")
    serve.add_argument("--devices", action="store_true",
                       help="netlist contains D/Q/M cards: linearize first")
    serve.add_argument("--name", default=None,
                       help="model name to register (default: netlist stem)")
    serve.add_argument("--library", action="append", default=[],
                       metavar="NAME|FILE",
                       help="also serve a built-in library circuit "
                            "(fig1 | 741) or a saved op-tape artifact "
                            "(path to a .tape file; repeatable)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8471,
                       help="listen port (0 = ephemeral; default 8471)")
    serve.add_argument("--cache-dir", type=Path, default=None, metavar="DIR",
                       help="persist compiled programs here")
    serve.add_argument("--max-cache-bytes", type=int, default=None,
                       metavar="BYTES",
                       help="LRU-evict the cache dir beyond this budget")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="coalescer batch cap (default 64)")
    serve.add_argument("--deadline-s", type=float, default=2.0,
                       help="default per-request deadline (default 2s)")
    serve.add_argument("--no-degrade", action="store_true",
                       help="disable the order-1 degraded fallback "
                            "(breaker-open requests get a typed 503)")
    serve.add_argument("--warm", action="store_true",
                       help="compile every registered model before binding")
    serve.add_argument("--slo-availability", type=float, default=None,
                       metavar="FRAC",
                       help="availability objective (default 0.999)")
    serve.add_argument("--slo-latency-ms", type=float, default=None,
                       metavar="MS",
                       help="latency objective in ms (default 250)")
    serve.add_argument("--slo-degraded-ratio", type=float, default=None,
                       metavar="FRAC",
                       help="degraded-answer ratio objective "
                            "(default 0.05)")
    serve.add_argument("--readyz-burn-gate", action="store_true",
                       help="report unready on /readyz while the fast "
                            "error-budget burn rate is page-worthy")
    serve.add_argument("--flightrec-capacity", type=int, default=2048,
                       metavar="N",
                       help="flight-recorder ring size (default 2048)")
    serve.add_argument("--flightrec-dir", type=Path, default=None,
                       metavar="DIR",
                       help="directory for flight-recorder dumps "
                            "(default: $REPRO_FLIGHTREC_DIR or the "
                            "system temp dir)")

    slo = sub.add_parser("slo", parents=[obs_parent],
                         help="render the SLO report from a recorded "
                              "service run (slo.json snapshot)")
    slo.add_argument("snapshot", type=Path,
                     help="SLO snapshot JSON — `repro serve "
                          "--metrics-dir DIR` writes DIR/slo.json when "
                          "it drains")
    slo.add_argument("--json", action="store_true",
                     help="print the raw snapshot JSON instead of the "
                          "report table")
    return parser


def _load_circuit(args):
    text = args.netlist.read_text()
    if args.devices:
        from .analysis import operating_point
        from .circuits.device_netlist import parse_device_netlist
        from .circuits.linearize import small_signal_circuit

        nc = parse_device_netlist(text, title=args.netlist.stem)
        op = operating_point(nc)
        print(f"DC operating point: {op.iterations} Newton iterations")
        for name, state in sorted(op.device_state.items()):
            current = state.get("ic", state.get("id", state.get("i", 0.0)))
            print(f"  {name:10s} current {current * 1e6:10.3f} uA")
        return small_signal_circuit(nc, op)
    from .circuits import parse_netlist

    return parse_netlist(text, title=args.netlist.stem)


def cmd_analyze(args) -> int:
    from .awe import awe
    from .core.metrics import (bandwidth_3db, phase_margin,
                               unity_gain_frequency)

    circuit = _load_circuit(args)
    stats = circuit.stats()
    print(f"circuit: {stats['elements']} elements, {stats['nodes']} nodes, "
          f"{stats['storage']} storage")

    symbols = None
    if args.symbols:
        symbols = [s.strip() for s in args.symbols.split(",") if s.strip()]
    if symbols is None and args.auto_symbols <= 0:
        result = awe(circuit, args.output, order=args.order)
        _print_model(result.model)
        return 0

    if args.cache_dir is not None:
        from .runtime import ProgramCache

        cache = ProgramCache(disk_dir=args.cache_dir)
        res = cache.get_or_build(circuit, args.output, symbols=symbols,
                                 n_symbols=max(args.auto_symbols, 1),
                                 order=args.order)
        print(cache.stats.summary())
    else:
        from . import awesymbolic

        res = awesymbolic(circuit, args.output, symbols=symbols,
                          n_symbols=max(args.auto_symbols, 1),
                          order=args.order)
    _print_partition(res)
    print(f"compiled model: {res.model.n_ops} ops per evaluation")
    if res.first_order is not None:
        print(f"symbolic first-order pole: {res.first_order.pole.cancel()}")
    _print_model(res.rom({}), label="nominal model")
    for spec in args.at:
        _print_model(res.rom(_parse_at(spec)), label=f"at {spec}")
    if args.save is not None:
        res.model.tape.save(args.save)
        print(f"saved compiled model to {args.save}")
    return 0


def _print_partition(res) -> None:
    """The partition summary of a compiled result (a loaded one, from
    a program-cache disk hit, has none)."""
    if res.partition is not None:
        print(res.partition.summary())


def _load_model(path):
    """A saved model tape, verified and loaded."""
    from .core.compiled_model import TapeModel
    from .symbolic.tape import load_tape

    return TapeModel(load_tape(path))


def _parse_at(spec: str) -> dict:
    from .units import parse_value

    name, _, value = spec.partition("=")
    if not value:
        raise ReproError(f"--at needs NAME=VALUE, got {spec!r}")
    return {name.strip(): parse_value(value)}


def _parse_sweep(spec: str):
    from .units import parse_value

    name, _, rng = spec.partition("=")
    parts = rng.split(":")
    if len(parts) != 3:
        raise ReproError(f"--sweep needs NAME=START:STOP:N, got {spec!r}")
    try:
        n = int(parts[2])
    except ValueError:
        raise ReproError(f"--sweep point count must be an integer, "
                         f"got {parts[2]!r}") from None
    return name.strip(), np.linspace(parse_value(parts[0]),
                                     parse_value(parts[1]), n)


def _run_sweep(loaded, args) -> int:
    from .core.metrics import resolve_metric
    from .runtime import RuntimeStats

    metric = resolve_metric(args.metric)
    grids = dict(_parse_sweep(s) for s in args.sweep)
    stats = RuntimeStats()
    with _graceful_cancel() as token:
        z = loaded.sweep(grids, metric, shards=args.shards,
                         max_workers=args.workers, stats=stats,
                         strict=getattr(args, "strict", False),
                         backend=getattr(args, "backend", None),
                         cancel=token)
    names = list(grids)
    axes = " x ".join(f"{n}[{len(grids[n])}]" for n in names)
    finite = np.isfinite(z.real if np.iscomplexobj(z) else z)
    print(f"sweep {args.metric} over {axes}: {z.size} points, "
          f"{int((~finite).sum())} NaN")
    diag = getattr(z, "diagnostics", None)
    if diag is not None and not diag.ok:
        print(f"  {len(diag.quarantined)} point(s) quarantined, "
              f"{len(diag.shard_failures)} shard incident(s) "
              f"(run `repro doctor` for the full report)")
    if getattr(args, "diagnostics", None) is not None and diag is not None:
        args.diagnostics.write_text(diag.to_json(indent=2) + "\n")
        print(f"wrote {args.diagnostics}")
    if finite.any():
        vals = z[finite]
        if np.iscomplexobj(vals):
            print(f"  |min| {np.abs(vals).min():.6g}   "
                  f"|max| {np.abs(vals).max():.6g}")
        else:
            print(f"  min {vals.min():.6g}   max {vals.max():.6g}")
    if args.csv is not None:
        mesh = np.meshgrid(*[grids[n] for n in names], indexing="ij")
        flat = [m.reshape(-1) for m in mesh]
        lines = [",".join(names + [args.metric])]
        cast = complex if np.iscomplexobj(z) else float
        for i, v in enumerate(z.reshape(-1)):
            lines.append(",".join([repr(float(c[i])) for c in flat]
                                  + [repr(cast(v))]))
        args.csv.write_text("\n".join(lines) + "\n")
        print(f"wrote {args.csv}")
    if args.stats:
        print(stats.summary())
    if getattr(args, "stats_json", None) is not None:
        args.stats_json.write_text(
            json.dumps(stats.to_dict(), indent=2) + "\n")
        print(f"wrote {args.stats_json}")
    code = _drain_exit_code(token)
    if code is not None:
        done = int(finite.sum())
        print(f"drained by {token.reason}: {done}/{z.size} points "
              f"completed, partial results and diagnostics kept")
        return code
    return 0


def _build_cached_model(args):
    """Netlist → AWESymbolicResult through the program cache.

    Always routed through a :class:`~repro.runtime.ProgramCache` (purely
    in-memory without ``--cache-dir``) so cache behaviour — and its
    ``cache.lookup`` / ``cache.build`` spans — is uniform across runs.
    """
    from .runtime import ProgramCache

    circuit = _load_circuit(args)
    symbols = None
    if args.symbols:
        symbols = [s.strip() for s in args.symbols.split(",") if s.strip()]
    if symbols is None and args.auto_symbols <= 0:
        raise ReproError("need --symbols or --auto-symbols to pick the "
                         "symbolic elements")
    cache = ProgramCache(disk_dir=args.cache_dir,
                         max_disk_bytes=getattr(args, "max_cache_bytes",
                                                None))
    res = cache.get_or_build(circuit, args.output, symbols=symbols,
                             n_symbols=max(args.auto_symbols, 1),
                             order=args.order)
    if args.cache_dir is not None:
        print(cache.stats.summary())
    return res


def cmd_compile(args) -> int:
    res = _build_cached_model(args)
    _print_partition(res)
    # the model's one program: fused (schema 2), one register-machine
    # pass yields every moment (docs/artifacts.md)
    tape = res.model.tape
    print(f"op tape: {tape.n_ops} ops, {len(tape.symbols)} inputs, "
          f"{len(tape.consts)} consts (fused, schema 2)")
    print(f"  sha256:{tape.content_hash[:32]}")
    if args.emit_tape is not None:
        tape.save(args.emit_tape)
        print(f"wrote {args.emit_tape}")
    return 0


def cmd_sweep(args) -> int:
    if not args.sweep:
        raise ReproError("sweep needs at least one --sweep NAME=START:STOP:N")
    if args.tape is not None:
        model = _load_model(args.tape)
        print(f"tape model: {model.title!r}, output {model.output!r}, "
              f"{model.n_ops} ops per evaluation")
        return _run_sweep(model, args)
    if args.netlist is None or args.output is None:
        raise ReproError("sweep needs a netlist and --output "
                         "(or --tape FILE)")
    res = _build_cached_model(args)
    _print_partition(res)
    print(f"compiled model: {res.model.n_ops} ops per evaluation")
    return _run_sweep(res.model, args)


def cmd_trace(args) -> int:
    # the tracer itself is installed by main() (--out aliases --trace);
    # this command just drives the pipeline under it
    res = _build_cached_model(args)
    print(f"compiled model: {res.model.n_ops} ops per evaluation")
    if args.sweep:
        return _run_sweep(res.model, args)
    return 0


def cmd_profile(args) -> int:
    from .obs.profile import profile_program
    from .runtime.batched import grid_columns

    if not args.sweep:
        raise ReproError("profile needs at least one --sweep "
                         "NAME=START:STOP:N to form the grid batch")
    loaded = _load_model(args.model)
    grids = dict(_parse_sweep(s) for s in args.sweep)
    _, shape, cols = grid_columns(loaded, grids)
    prof = profile_program(loaded.compiled_moments.fn, cols,
                           repeats=args.repeats)
    print(prof.table(args.top))
    if args.json is not None:
        args.json.write_text(json.dumps(prof.to_dict(args.top), indent=2)
                             + "\n")
        print(f"wrote {args.json}")
    return 0


def cmd_evaluate(args) -> int:
    loaded = _load_model(args.model)
    print(f"saved model: {loaded.title!r}, output {loaded.output!r}, "
          f"symbols {list(loaded.element_slots)}")
    if args.sweep:
        return _run_sweep(loaded, args)
    _print_model(loaded.rom({}), label="nominal model")
    for spec in args.at:
        _print_model(loaded.rom(_parse_at(spec)), label=f"at {spec}")
    return 0


def _print_model(model, label: str = "reduced-order model") -> None:
    from .core.metrics import phase_margin, unity_gain_frequency

    print(f"{label}:")
    print(f"  order {model.order}, stable={model.stable}")
    for p, r in zip(model.poles, model.residues):
        print(f"  pole {p:.6g}   residue {r:.6g}")
    zeros = model.zeros()
    for z in zeros:
        print(f"  zero {z:.6g}")
    print(f"  dc gain     {model.dc_gain():.6g}")
    wu = unity_gain_frequency(model)
    if np.isfinite(wu):
        print(f"  unity gain  {wu / 2 / np.pi:.6g} Hz")
        print(f"  phase marg. {phase_margin(model):.1f} deg")
    print(f"  50% delay   {model.delay_50():.6g} s")


def cmd_doctor(args) -> int:
    """Health-check backend: lenient sweep diagnostics + cache scan.

    Exit status encodes severity so CI can gate on it:

    * ``0`` — everything checked out;
    * ``1`` — warnings: quarantined sweep points, shard incidents, or
      orphaned temp files from interrupted cache writes;
    * ``2`` — corrupt or wrong-schema cache entries (data that cannot be
      trusted, as opposed to merely untidy).
    """
    worst = 0
    checked = False
    if args.model is not None:
        if not args.sweep:
            raise ReproError("doctor needs at least one --sweep range to "
                             "exercise the model")
        from .core.metrics import resolve_metric

        metric = resolve_metric(args.metric)
        loaded = _load_model(args.model)
        grids = dict(_parse_sweep(s) for s in args.sweep)
        z = loaded.sweep(grids, metric, shards=args.shards,
                         max_workers=args.workers,
                         backend=getattr(args, "backend", None))
        diag = z.diagnostics
        print(diag.summary())
        if args.json is not None:
            args.json.write_text(diag.to_json(indent=2) + "\n")
            print(f"wrote {args.json}")
        if not diag.ok:
            worst = max(worst, 1)
        checked = True
    if args.cache_dir is not None:
        from .runtime import CondensationCache, ProgramCache
        from .runtime.native import native_store

        layers = (("program cache", ProgramCache(disk_dir=args.cache_dir)),
                  ("condensation cache",
                   CondensationCache(disk_dir=args.cache_dir)))
        reports = [layer.scan_disk(fix=args.fix) for _, layer in layers]
        bad = [r for report in reports for r in report
               if r["status"] != "ok"]
        print(f"cache {args.cache_dir}: {len(reports[0])} program entries, "
              f"{len(reports[1])} condensation entries, "
              f"{len(bad)} unhealthy")
        for label, layer in layers:
            health = layer.health()
            rate = health["hit_rate"]
            budget = health.get("max_disk_bytes")
            budget_s = "unbounded" if budget is None else f"{budget} budget"
            print(f"  {label}: {health['disk_entries']} entries, "
                  f"{health['disk_bytes']} bytes ({budget_s}), "
                  f"schema {health['schema']}, hit rate "
                  f"{'n/a' if rate is None else f'{rate:.0%}'} this process")
        # the per-user kernel store lives outside --cache-dir and
        # rebuilds a bad kernel at load: never graded; --fix quarantines
        # its unverified kernels and deletes the tape-*.c sources that
        # builds from before the store left beside them
        native = native_store()
        health = native.health()
        native_report = native.scan(fix=args.fix)
        print(f"  native kernel store {native.directory}: "
              f"{health['disk_entries']} entries, {health['disk_bytes']} "
              f"bytes ({health['max_disk_bytes']} budget), "
              f"{sum(r['status'] != 'ok' for r in native_report)} "
              f"unverified")
        if args.fix:
            statuses = [r["status"] for r in native_report]
            temps = statuses.count("orphan-tmp")
            sources = 0
            for source in native.directory.glob("tape-*.c"):
                with contextlib.suppress(OSError):
                    source.unlink()
                    sources += 1
            print(f"  native kernel store --fix: "
                  f"{len(statuses) - statuses.count('ok') - temps} kernels "
                  f"quarantined, {temps} temp files and {sources} C "
                  f"sources removed")
        for r in bad:
            line = f"  {r['file']}: {r['status']}"
            if r["detail"]:
                line += f" ({r['detail']})"
            if args.fix:
                line += " -> quarantined" if r["status"] != "orphan-tmp" \
                    else " -> removed"
            print(line)
        if any(r["status"] in ("corrupt", "schema") for r in bad):
            worst = 2
        elif bad:
            worst = max(worst, 1)
        checked = True
    if not checked:
        raise ReproError("doctor needs a saved model tape (with --sweep) "
                         "and/or --cache-dir")
    return worst


def _parse_waveform(spec: str):
    """``--input`` spec → :class:`~repro.scenarios.Waveform`."""
    from .scenarios import waveforms as wf
    from .units import parse_value

    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "pwl":
        points = []
        for part in rest.split(","):
            t, _, v = part.partition("=")
            if not v:
                raise ReproError(f"pwl point needs T=V, got {part!r}")
            points.append((parse_value(t), parse_value(v)))
        return wf.pwl(points)
    nums = [parse_value(p) for p in rest.split(",") if p.strip()] \
        if rest.strip() else []
    if kind == "step":
        if len(nums) > 2:
            raise ReproError("step takes at most AMP,DELAY")
        return wf.step(*(nums or [1.0]))
    if kind == "ramp":
        if not 1 <= len(nums) <= 2:
            raise ReproError("ramp needs RISE[,AMP]")
        return wf.ramp(nums[0], *nums[1:])
    if kind == "pulse":
        if len(nums) != 6:
            raise ReproError("pulse needs V1,V2,TD,TR,PW,TF")
        return wf.pulse(*nums)
    raise ReproError(f"unknown input waveform kind {kind!r} "
                     "(step | ramp | pulse | pwl)")


def cmd_tran(args) -> int:
    from .reporting.scenarios import transient_csv, transient_table
    from .scenarios import compiled_transient
    from .units import parse_value

    with _graceful_cancel() as token:
        res = _build_cached_model(args)
        waveform = _parse_waveform(args.input)
        overrides = {}
        for spec in args.at:
            overrides.update(_parse_at(spec))
        t_stop = parse_value(args.t_stop) if args.t_stop is not None else None
        code = _drain_exit_code(token)
        if code is not None:
            print(f"drained by {token.reason} before the transient ran")
            return code
        scenario = compiled_transient(res.model, waveform=waveform,
                                      t_stop=t_stop, n_points=args.points,
                                      element_values=overrides,
                                      order=args.order)
        print(transient_table(scenario))
        if args.csv is not None:
            args.csv.write_text(transient_csv(scenario))
            print(f"wrote {args.csv}")
        code = _drain_exit_code(token)
        if code is not None:
            print(f"drained by {token.reason}: transient written, "
                  f"verification skipped")
            return code
        if args.verify:
            if overrides:
                raise ReproError("--verify compares against the nominal "
                                 "netlist; drop --at or edit the netlist")
            from .mna import assemble
            from .testing.differential import compare_transient

            system = assemble(_load_circuit(args))
            cmp = compare_transient(res.model, system, args.output, waveform,
                                    t_stop=t_stop, n_points=args.points,
                                    order=args.order)
            print(cmp.describe())
            if not cmp.passed:
                return 1
    return 0


def _parse_distribution(spec: str):
    """``--param`` spec → (name, Distribution)."""
    from .scenarios import montecarlo as mc_mod
    from .units import parse_value

    name, _, dist = spec.partition("=")
    kind, _, rest = dist.partition(":")
    nums = [parse_value(p) for p in rest.split(",") if p.strip()]
    kind = kind.strip().lower()
    if not name.strip() or len(nums) != 2:
        raise ReproError(f"--param needs NAME=normal:MEAN,SIGMA | "
                         f"NAME=normal%:MEAN,RELSIGMA | NAME=uniform:LO,HI, "
                         f"got {spec!r}")
    if kind == "normal":
        return name.strip(), mc_mod.normal(nums[0], sigma=nums[1])
    if kind == "normal%":
        return name.strip(), mc_mod.normal(nums[0], rel_sigma=nums[1])
    if kind == "uniform":
        return name.strip(), mc_mod.uniform(nums[0], nums[1])
    raise ReproError(f"unknown distribution {kind!r} "
                     "(normal | normal% | uniform)")


def cmd_mc(args) -> int:
    from .core.metrics import resolve_metric
    from .reporting.scenarios import mc_csv, mc_table
    from .runtime import RuntimeStats
    from .scenarios import monte_carlo

    if not args.param:
        raise ReproError("mc needs at least one --param NAME=DIST")
    res = _build_cached_model(args)
    distributions = dict(_parse_distribution(s) for s in args.param)
    metric = resolve_metric(args.metric)
    stats = RuntimeStats()
    with _graceful_cancel() as token:
        result = monte_carlo(res.model, distributions, metric,
                             n=args.samples, seed=args.seed, order=args.order,
                             shards=args.shards, max_workers=args.workers,
                             backend=args.backend, strict=args.strict,
                             stats=stats, cancel=token)
    qs = None
    if args.percentiles:
        qs = [float(q) for q in args.percentiles.split(",") if q.strip()]
    print(mc_table(result, qs=qs))
    if result.n_quarantined:
        print(f"{result.n_quarantined} sample(s) quarantined "
              f"(run with --json for the full report)")
    if args.spec_lo is not None or args.spec_hi is not None:
        y = result.yield_fraction(args.spec_lo, args.spec_hi)
        print(f"yield within spec: {y:.2%}")
    if args.csv is not None:
        args.csv.write_text(mc_csv(result))
        print(f"wrote {args.csv}")
    if args.json is not None:
        payload = result.to_dict(qs) if qs else result.to_dict()
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    if args.stats:
        print(stats.summary())
    code = _drain_exit_code(token)
    if code is not None:
        print(f"drained by {token.reason}: partial Monte Carlo report "
              f"above covers completed samples only")
        return code
    if args.verify:
        from .testing.differential import compare_monte_carlo

        cmp = compare_monte_carlo(res.model, result, metric=metric)
        print(cmp.describe())
        if not cmp.passed:
            return 1
    return 0


def cmd_figures(args) -> int:
    from .reporting.figures import main as figures_main

    return figures_main([args.outdir])


def _serve_recipe(name: str):
    """Built-in serving recipe: ``(circuit, output, symbols)``."""
    from .circuits import library

    if name == "fig1":
        return library.fig1_circuit(), "out", ["G1", "C2"]
    if name == "741":
        return library.small_signal_741().circuit, "out", ["go_Q14", "Ccomp"]
    raise ReproError(f"unknown library circuit {name!r}")


def cmd_serve(args) -> int:
    """Run the asyncio serving layer until SIGINT/SIGTERM drains it."""
    import asyncio

    from .obs.slo import SLOConfig
    from .runtime import ProgramCache
    from .service import AWEService, ModelRegistry, ServiceConfig

    cache = ProgramCache(disk_dir=args.cache_dir,
                         max_disk_bytes=args.max_cache_bytes)
    slo_kwargs = {}
    if args.slo_availability is not None:
        slo_kwargs["availability_objective"] = args.slo_availability
    if args.slo_latency_ms is not None:
        slo_kwargs["latency_objective_s"] = args.slo_latency_ms / 1000.0
    if args.slo_degraded_ratio is not None:
        slo_kwargs["degraded_ratio_objective"] = args.slo_degraded_ratio
    config = ServiceConfig(
        host=args.host, port=args.port, max_batch=args.max_batch,
        default_deadline_s=args.deadline_s, degrade=not args.no_degrade,
        slo=SLOConfig(**slo_kwargs),
        readyz_gate_on_burn=args.readyz_burn_gate,
        flightrec_capacity=args.flightrec_capacity,
        flightrec_dir=args.flightrec_dir,
        metrics_path=(args.metrics_dir / "metrics.prom"
                      if args.metrics_dir is not None else None))
    registry = ModelRegistry(cache=cache)
    service = AWEService(config, registry=registry)

    if args.netlist is not None:
        if args.output is None:
            raise ReproError("serving a netlist needs --output")
        if not args.symbols:
            raise ReproError("serving a netlist needs --symbols")
        circuit = _load_circuit(args)
        name = args.name or args.netlist.stem
        symbols = [s.strip() for s in args.symbols.split(",") if s.strip()]
        registry.register(name, circuit, args.output, symbols=symbols,
                          order=args.order)
    for lib in args.library:
        if lib.endswith(".tape") or os.path.isfile(lib):
            # a preloaded op-tape artifact: loading is the compile, so
            # the model is warm before the server even binds
            key = registry.register_tape(lib)
            print(f"loaded tape {lib} ({key[:21]})")
            continue
        circuit, output, symbols = _serve_recipe(lib)
        registry.register(lib, circuit, output, symbols=symbols,
                          order=args.order)
    if not registry.names:
        raise ReproError("nothing to serve: give a netlist and/or --library")

    async def run() -> None:
        if args.warm:
            for name in registry.names:
                entry = await service.registry.ensure(
                    name, executor=service.executor)
                print(f"warm: {name} ({entry.key[:16]}, "
                      f"order {entry.recipe.order})")
        await service.start()
        print(f"serving {registry.names} on "
              f"http://{config.host}:{service.port} "
              f"(SIGINT/SIGTERM to drain)")
        await service.wait_drained()
        print("drained, exiting")
        if args.metrics_dir is not None:
            args.metrics_dir.mkdir(parents=True, exist_ok=True)
            path = args.metrics_dir / "slo.json"
            path.write_text(json.dumps(service.slo.snapshot(), indent=2)
                            + "\n")
            print(f"wrote {path}")

    asyncio.run(run())
    return 0


def cmd_slo(args) -> int:
    """Render the SLO report from a recorded run's snapshot JSON."""
    snap = json.loads(args.snapshot.read_text())
    if args.json:
        print(json.dumps(snap, indent=2))
        return 0
    obj = snap.get("objectives", {})
    totals = snap.get("totals", {})
    burn = snap.get("burn_rate", {})
    print(f"SLO report: {totals.get('requests', 0)} requests, "
          f"{totals.get('served', 0)} served, "
          f"{totals.get('degraded', 0)} degraded")
    print(f"  objectives: availability {obj.get('availability', 0):.2%}, "
          f"degraded <= {obj.get('degraded_ratio', 0):.1%}, "
          f"latency {obj.get('latency_s', 0) * 1e3:g} ms")
    availability = snap.get("availability", 1.0)
    print(f"  availability {availability:.4%}   "
          f"degraded ratio {snap.get('degraded_ratio', 0.0):.2%}")
    fast, slow = burn.get("fast", 0.0), burn.get("slow", 0.0)
    threshold = obj.get("fast_burn_threshold", 14.0)
    verdict = "FAST BURN" if fast >= threshold else "ok"
    print(f"  burn rate: fast({burn.get('fast_window_s', 0):g}s) "
          f"{fast:.2f}x, slow({burn.get('slow_window_s', 0):g}s) "
          f"{slow:.2f}x  [{verdict}; page at {threshold:g}x]")

    def _ms(v) -> str:
        return "     n/a" if v is None or v != v else f"{v * 1e3:8.2f}"

    tenants = snap.get("tenants", {})
    if tenants:
        print(f"  {'tenant':<16} {'requests':>8} {'avail':>8} {'degr':>6} "
              f"{'p50ms':>8} {'p95ms':>8} {'p99ms':>8}")
        for tenant in sorted(tenants):
            t = tenants[tenant]
            n = sum(t.get("outcomes", {}).values()) or t.get("count", 0)
            print(f"  {tenant:<16} {n:>8} "
                  f"{t.get('availability', 1.0):>8.2%} "
                  f"{t.get('degraded_ratio', 0.0):>6.1%} "
                  f"{_ms(t.get('p50'))} {_ms(t.get('p95'))} "
                  f"{_ms(t.get('p99'))}")
    models = snap.get("models", {})
    for model in sorted(models):
        m = models[model]
        print(f"  model {model}: {m.get('count', 0)} evals, "
              f"p50/p95/p99 {_ms(m.get('p50')).strip()}/"
              f"{_ms(m.get('p95')).strip()}/"
              f"{_ms(m.get('p99')).strip()} ms")
    breached = (availability < obj.get("availability", 0.0)
                or fast >= threshold)
    if breached:
        print("  OBJECTIVE BREACHED")
    return 1 if breached else 0


def _finalize_obs(tracer, trace_path: Path | None,
                  metrics_dir: Path | None) -> None:
    """Stop the tracer and write the requested exports."""
    from .obs import export as obs_export
    from .obs import metrics as obs_metrics
    from .obs import trace as obs_trace

    obs_trace.stop_tracing()
    if trace_path is not None:
        obs_export.write_chrome_trace(trace_path, tracer)
        print(f"wrote {trace_path} "
              f"({len(tracer.snapshot())} spans; load at "
              f"https://ui.perfetto.dev)")
    if metrics_dir is not None:
        from .buildinfo import publish_build_info

        publish_build_info()
        metrics_dir.mkdir(parents=True, exist_ok=True)
        obs_export.write_prometheus(metrics_dir / "metrics.prom",
                                    obs_metrics.registry())
        obs_export.write_jsonl(metrics_dir / "events.jsonl", tracer,
                               obs_metrics.registry())
        print(f"wrote {metrics_dir / 'metrics.prom'} and "
              f"{metrics_dir / 'events.jsonl'}")


_COMMANDS = {
    "analyze": cmd_analyze,
    "compile": cmd_compile,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "trace": cmd_trace,
    "profile": cmd_profile,
    "doctor": cmd_doctor,
    "tran": cmd_tran,
    "mc": cmd_mc,
    "figures": cmd_figures,
    "serve": cmd_serve,
    "slo": cmd_slo,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    if args.command == "trace" and trace_path is None:
        trace_path = args.out
    metrics_dir = getattr(args, "metrics_dir", None)
    tracer = None
    if trace_path is not None or metrics_dir is not None:
        from .obs import trace as obs_trace
        tracer = obs_trace.start_tracing()
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            _finalize_obs(tracer, trace_path, metrics_dir)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
