"""The sweep-throughput regression gate (``benchmarks/
check_bench_regression.py``): figures scale by the payloads' host-speed
calibrations before the tolerance check; absolute floors do not."""

from __future__ import annotations

from benchmarks.check_bench_regression import (check_floors, compare,
                                               host_slowdown)

BASE = 1_000_000.0


def payload(points_per_second: float, calibration: float | None = None,
            ) -> dict:
    out = {"throughputs": {"grid512:serial": points_per_second}}
    if calibration is not None:
        out["host_calibration_s"] = calibration
    return out


def test_slower_at_equal_calibration_fails():
    failures = compare(payload(BASE, 1e-3), payload(0.7 * BASE, 1e-3))
    assert len(failures) == 1 and "grid512:serial" in failures[0]


def test_half_as_fast_on_a_half_speed_host_passes():
    assert host_slowdown(payload(BASE, 1e-3), payload(0.5 * BASE, 2e-3)) \
        == 2.0
    assert compare(payload(BASE, 1e-3), payload(0.5 * BASE, 2e-3)) == []


def test_a_faster_host_raises_the_bar():
    assert compare(payload(BASE, 2e-3), payload(BASE, 1e-3))


def test_uncalibrated_side_compares_raw():
    for base, cur in ((payload(BASE), payload(0.5 * BASE, 2e-3)),
                      (payload(BASE, 1e-3), payload(0.5 * BASE))):
        assert host_slowdown(base, cur) is None
        assert compare(base, cur)
    assert compare(payload(BASE), payload(0.8 * BASE)) == []


def test_floors_stay_absolute():
    cur = payload(0.5 * BASE, 2e-3)
    assert check_floors(cur, {"grid512:serial": 0.6 * BASE})
    assert check_floors(cur, {"grid512:serial": 0.4 * BASE}) == []
