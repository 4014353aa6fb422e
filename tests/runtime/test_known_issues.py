"""Pinned known issues — tracked regressions against committed baselines.

These tests read the *committed* benchmark baselines, so they are
deterministic: they pin the shape of a known problem rather than
re-measuring it on whatever machine runs the suite.  A live regression
carries an ``xfail``; when the underlying issue is fixed and a new
baseline is committed, the test body is promoted to a hard assertion so
the fix cannot silently regress (the process-backend throughput pin
below went through exactly that cycle).
"""

import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_SWEEP = REPO_ROOT / "BENCH_sweep.json"


@pytest.fixture(scope="module")
def sweep_baseline():
    if not BENCH_SWEEP.exists():
        pytest.skip("no committed BENCH_sweep.json baseline")
    return json.loads(BENCH_SWEEP.read_text())


class TestProcessBackendThroughput:
    """ROADMAP item 5 (fixed): process backend vs serial throughput.

    Spawn/IPC overhead used to dominate the process pool on the
    1024-point 741 sweep workload (~0.32x serial in the old baseline).
    Shipping the op tape as the wire format, caching the program per
    worker, and batching first-attempt shards into one pool task per
    worker brought the committed baseline to ~0.9x serial, so the pin
    is now a hard assertion: a new baseline that falls back below
    0.5x serial fails the suite.
    """

    def test_process_backend_within_2x_of_serial(self, sweep_baseline):
        backends = sweep_baseline["backends"]
        serial = backends["serial"]["points_per_second"]
        process = backends["process"]["points_per_second"]
        assert process >= 0.5 * serial, (
            f"process backend at {process:.0f} pts/s is "
            f"{process / serial:.2f}x serial ({serial:.0f} pts/s)")

    def test_baseline_records_all_backends(self, sweep_baseline):
        """The fix stays *visible*: the committed baseline must keep
        per-backend throughput so the assertion above has data."""
        backends = sweep_baseline["backends"]
        assert {"serial", "thread", "process"} <= set(backends)
        for payload in backends.values():
            assert payload["points_per_second"] > 0

    def test_thread_backend_has_no_such_regression(self, sweep_baseline):
        """Contrast pin: the thread backend shares memory, so it must
        stay within the same ballpark as serial on this workload."""
        backends = sweep_baseline["backends"]
        serial = backends["serial"]["points_per_second"]
        thread = backends["thread"]["points_per_second"]
        assert thread >= 0.5 * serial
