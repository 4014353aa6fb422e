"""Gate CI on sweep-throughput regressions.

Compares a freshly measured ``run_bench_sweep.py`` payload against the
committed ``BENCH_sweep.json`` baseline and exits non-zero when any
tracked ``points_per_second`` figure — the overall sweep or any
per-backend entry present in both files — drops by more than the
tolerance (default 25 %).

Only *regressions* fail: faster-than-baseline runs, and backends that
exist on one side only (baselines recorded before a backend landed, or
measured on a machine that skips one), are reported but never fatal.
CI machines are slower than whatever produced the baseline more often
than not, which is exactly why the gate is a wide ratio rather than an
absolute floor.

When both payloads carry a host-speed calibration
(``host_calibration_s``: seconds for a fixed integer loop, recorded by
``run_bench_sweep.py``), the current figures are first scaled by the
current calibration over the baseline's, so a host running at half
speed is held to half the baseline.  Payloads without one (older
baselines, BENCH_serve, BENCH_scenarios) compare uncalibrated.

Legs that want a hard guarantee can add repeatable ``--floor
LABEL=VALUE`` options: an absolute points/s minimum for one tracked
figure, which fails when the figure is below the floor *or missing*
(the CI use case is proving a specific path — e.g. the batched
Padé/metric stage with native kernels disabled — clears a known bar).

Usage::

    python benchmarks/check_bench_regression.py \
        --baseline BENCH_sweep.json --current BENCH_current.json \
        --floor backend:serial=238000
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_TOLERANCE = 0.25


def iter_throughputs(payload: dict):
    """Yield ``(label, points_per_second)`` for every tracked figure.

    Three shapes are recognized: the top-level ``points_per_second``
    figure, the per-backend entries of the sweep benchmark, and a
    generic ``throughputs`` label->value mapping (used by
    ``run_bench_scenarios.py``) so new benchmarks join the gate without
    touching this file.
    """
    pps = payload.get("points_per_second")
    if pps:
        yield "overall", float(pps)
    for name, entry in (payload.get("backends") or {}).items():
        pps = entry.get("points_per_second")
        if pps:
            yield f"backend:{name}", float(pps)
    for label, value in (payload.get("throughputs") or {}).items():
        if value:
            yield str(label), float(value)


def parse_floor(spec: str) -> tuple[str, float]:
    """Parse one ``LABEL=VALUE`` absolute-floor spec."""
    label, sep, value = spec.partition("=")
    if not sep or not label:
        raise argparse.ArgumentTypeError(
            f"floor {spec!r} is not LABEL=VALUE")
    try:
        return label, float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"floor {spec!r} has a non-numeric value") from None


def check_floors(current: dict, floors: dict[str, float]) -> list[str]:
    """Absolute points/s floors: unlike the baseline ratio, a floor
    fails when its label is missing — a leg that asks for a floor wants
    proof the figure exists, not silence."""
    cur = dict(iter_throughputs(current))
    failures = []
    for label in sorted(floors):
        want = floors[label]
        got = cur.get(label)
        if got is None:
            failures.append(f"{label}: required floor {want:.0f} points/s "
                            "but the figure is missing from the current run")
            continue
        status = "OK" if got >= want else "BELOW FLOOR"
        print(f"  {label:<18} floor {want:>12.0f}, "
              f"measured {got:>12.0f} points/s  {status}")
        if got < want:
            failures.append(f"{label}: {got:.0f} points/s is below the "
                            f"absolute floor {want:.0f}")
    return failures


def host_slowdown(baseline: dict, current: dict) -> float | None:
    """How many times slower the current host ran than the baseline's:
    the ratio of the payloads' calibration times (None when either
    payload has no calibration)."""
    base = baseline.get("host_calibration_s")
    cur = current.get("host_calibration_s")
    if not base or not cur:
        return None
    return float(cur) / float(base)


def compare(baseline: dict, current: dict,
            tolerance: float = DEFAULT_TOLERANCE) -> list[str]:
    """Return a list of regression messages (empty means the gate passes).

    Each current figure is scaled by :func:`host_slowdown` when both
    payloads are calibrated; the raw ratio is printed beside it.
    """
    base = dict(iter_throughputs(baseline))
    cur = dict(iter_throughputs(current))
    slowdown = host_slowdown(baseline, current)
    if slowdown is None:
        print("  no host-speed calibration on both sides: raw ratios")
    else:
        print(f"  host {slowdown:.2f}x slower than the baseline's: "
              "figures scaled by it")
    failures = []
    for label in sorted(base):
        if label not in cur:
            print(f"  {label:<18} missing from current run (skipped)")
            continue
        raw = cur[label] / base[label]
        ratio = raw if slowdown is None else raw * slowdown
        status = "OK"
        if ratio < 1.0 - tolerance:
            status = "REGRESSION"
            failures.append(
                f"{label}: {cur[label]:.0f} points/s is "
                f"{(1.0 - ratio) * 100.0:.1f}% below baseline "
                f"{base[label]:.0f}"
                + ("" if slowdown is None else " at equal host speed")
                + f" (tolerance {tolerance * 100.0:.0f}%)")
        shown = (f"{raw:5.2f}x" if slowdown is None
                 else f"raw {raw:5.2f}x, calibrated {ratio:5.2f}x")
        print(f"  {label:<18} {base[label]:>12.0f} -> {cur[label]:>12.0f} "
              f"points/s  ({shown})  {status}")
    for label in sorted(set(cur) - set(base)):
        print(f"  {label:<18} new (no baseline): "
              f"{cur[label]:.0f} points/s")
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", type=Path,
                    default=Path("BENCH_sweep.json"))
    ap.add_argument("--current", type=Path, required=True)
    ap.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                    help="fractional drop that fails the gate "
                         f"(default {DEFAULT_TOLERANCE})")
    ap.add_argument("--floor", type=parse_floor, action="append",
                    default=[], metavar="LABEL=VALUE",
                    help="absolute points/s floor for one tracked figure "
                         "(repeatable); fails if the figure is below VALUE "
                         "or missing")
    args = ap.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    current = json.loads(args.current.read_text())
    print(f"throughput gate: {args.current} vs {args.baseline} "
          f"(tolerance {args.tolerance * 100.0:.0f}%)")
    failures = compare(baseline, current, tolerance=args.tolerance)
    failures += check_floors(current, dict(args.floor))
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
