"""Cooperative cancellation: tokens, deadlines, drain semantics, and the
shard-timeout thread-leak fix.

The regression of record: a timed-out shard attempt used to be
*abandoned* — the pool thread kept evaluating to the end of its range
(leaked CPU, leaked thread occupancy).  Now the timeout cancels the
attempt's token and the shard loop, which checks the token between
chunk evaluations, stops within one chunk.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import awesymbolic
from repro.circuits.library import fig1_circuit
from repro.errors import CancelledSweep
from repro.runtime import (CANCEL_CHUNK_POINTS, CancelToken, Deadline,
                          ResilienceConfig)
from repro.runtime.resilience import run_shards
from repro.testing import FaultInjector


@pytest.fixture(scope="module")
def model():
    return awesymbolic(fig1_circuit(), "out", symbols=["G2", "C2"],
                       order=2).model


def grids(n: int = 40) -> dict[str, np.ndarray]:
    return {"G2": np.linspace(0.5, 4.0, n),
            "C2": np.linspace(0.5, 3.0, n)}


def metric(rom) -> float:
    return rom.dc_gain()


class TestCancelToken:
    def test_starts_clear_and_latches(self):
        token = CancelToken()
        assert not token.cancelled
        token.cancel("because")
        assert token.cancelled
        assert token.reason == "because"
        token.cancel("second")  # idempotent: first reason wins
        assert token.reason == "because"

    def test_parent_cancel_reaches_children(self):
        parent = CancelToken()
        child = parent.child()
        grandchild = child.child()
        parent.cancel("upstream")
        assert child.cancelled and grandchild.cancelled
        assert grandchild.reason == "upstream"

    def test_child_cancel_spares_parent_and_siblings(self):
        parent = CancelToken()
        a, b = parent.child(), parent.child()
        a.cancel()
        assert a.cancelled
        assert not parent.cancelled and not b.cancelled

    def test_raise_if_cancelled(self):
        token = CancelToken()
        token.raise_if_cancelled()  # no-op while clear
        token.cancel("deadline exceeded")
        with pytest.raises(CancelledSweep, match="deadline exceeded"):
            token.raise_if_cancelled("shard")


class TestDeadline:
    def test_remaining_counts_down(self):
        deadline = Deadline.after(10.0)
        assert 9.0 < deadline.remaining() <= 10.0
        assert not deadline.expired

    def test_expired_deadline_token_fires_immediately(self):
        deadline = Deadline.after(-1.0)
        assert deadline.expired
        assert deadline.token.cancelled

    def test_timer_fires_token(self):
        with Deadline.after(0.05) as deadline:
            token = deadline.token
            assert not token.cancelled
            time.sleep(0.15)
            assert token.cancelled
            assert token.reason == "deadline exceeded"

    def test_close_stops_the_timer(self):
        deadline = Deadline.after(0.05)
        token = deadline.token
        deadline.close()
        time.sleep(0.15)
        assert not token.cancelled

    def test_child_of_deadline_token_fires_on_read(self):
        deadline = Deadline.after(0.05)
        child = deadline.token.child()
        assert not child.cancelled
        time.sleep(0.1)
        assert child.cancelled
        assert child.reason == "deadline exceeded"

    def test_served_request_starts_no_timer_thread(self, monkeypatch):
        """Every served request carries a deadline
        (``ServiceConfig.default_deadline_s``); its token fires on read,
        so a served batch starts and cancels no timer thread."""
        import asyncio

        from repro.service import AWEService, ModelRegistry, ServiceConfig

        started = []
        real_start = threading.Timer.start

        def start(timer):
            started.append(timer)
            real_start(timer)

        monkeypatch.setattr(threading.Timer, "start", start)

        async def scenario():
            registry = ModelRegistry()
            registry.register("fig1", fig1_circuit(), "out",
                              symbols=["G1", "C2"], order=2)
            service = AWEService(ServiceConfig(), registry=registry)
            try:
                return await service.handle_eval(
                    {"model": "fig1", "values": {"G1": 1.5}})
            finally:
                await service.drain()

        assert np.isfinite(asyncio.run(scenario())["value"])
        assert started == []


class TestDrainSemantics:
    def test_no_token_is_bit_identical(self, model):
        z_plain = np.asarray(model.sweep(grids(), metric))
        z_token = np.asarray(model.sweep(grids(), metric,
                                         cancel=CancelToken()))
        np.testing.assert_array_equal(z_plain, z_token)

    def test_pre_cancelled_token_drains_everything(self, model):
        token = CancelToken()
        token.cancel("never started")
        z = model.sweep(grids(), metric, shards=4, cancel=token)
        assert np.isnan(np.asarray(z)).all()
        diag = z.diagnostics
        assert diag.cancelled
        assert all(f.resolution == "cancelled" for f in diag.shard_failures)

    def test_mid_sweep_cancel_keeps_finished_chunks(self, model):
        token = CancelToken()
        n_calls = {"count": 0}
        injector = FaultInjector()

        def cancel_after_two(payload):
            n_calls["count"] += 1
            if n_calls["count"] == 2:
                token.cancel("test")

        injector.on("sweep.moments", cancel_after_two, times=None)
        with injector.armed():
            z = model.sweep(grids(), metric, cancel=token, chunk_points=100)
        flat = np.asarray(z).reshape(-1)
        # the first chunks completed before the token fired …
        assert np.isfinite(flat[:100]).all()
        # … and the tail drained to NaN
        assert np.isnan(flat[-100:]).all()
        assert z.diagnostics.cancelled

    def test_cancelled_flag_false_on_clean_sweep(self, model):
        z = model.sweep(grids(8), metric, cancel=CancelToken())
        assert z.diagnostics.cancelled is False

    def test_empty_grid_sweep_returns_empty(self, model):
        """Regression: with no token, eval_range used ``step = hi - lo``,
        so an empty shard range called ``range(lo, hi, 0)`` and raised
        instead of returning the empty result it prepares for."""
        z = model.sweep({"G2": np.empty(0), "C2": np.empty(0)}, metric)
        assert np.asarray(z).size == 0

    def test_empty_grid_sweep_with_token(self, model):
        z = model.sweep({"G2": np.empty(0), "C2": np.empty(0)}, metric,
                        cancel=CancelToken())
        assert np.asarray(z).size == 0
        assert z.diagnostics.cancelled is False
        assert "cancelled" not in z.diagnostics.summary()

    def test_cancelled_in_dict_roundtrip(self, model):
        token = CancelToken()
        token.cancel()
        z = model.sweep(grids(8), metric, cancel=token)
        d = z.diagnostics.to_dict()
        assert d["cancelled"] is True
        assert "cancelled" in z.diagnostics.summary()


class TestTimeoutThreadLeak:
    def test_timed_out_attempt_stops_within_a_chunk(self, model):
        """The leak regression: after a shard timeout the abandoned
        thread must stop at its next chunk check, not run to the end."""
        injector = FaultInjector()
        # first attempt of shard 0 stalls well past the timeout
        injector.sleeps("sweep.shard", 0.4,
                        when=lambda p: p["shard"] == 0 and p["attempt"] == 0)
        config = ResilienceConfig(shard_timeout=0.1, shard_retries=1,
                                  backoff_seconds=0.0)
        before = threading.active_count()
        with injector.armed():
            z = model.sweep(grids(), metric, shards=4, max_workers=2,
                            resilience=config, chunk_points=50,
                            cancel=CancelToken())
        # the sweep itself recovered (retry or serial fallback)
        assert np.isfinite(np.asarray(z)).all()
        # … and the stalled thread exits promptly instead of computing
        # its whole range: wait for the sleep to end plus one chunk
        time.sleep(0.6)
        assert threading.active_count() <= before + 1

    def test_timeout_without_token_still_recovers(self, model):
        """Legacy path (no cancel token): timeout still abandons and
        retries; behavior is unchanged."""
        injector = FaultInjector()
        injector.sleeps("sweep.shard", 0.3,
                        when=lambda p: p["shard"] == 1 and p["attempt"] == 0)
        config = ResilienceConfig(shard_timeout=0.05, shard_retries=1,
                                  backoff_seconds=0.0)
        with injector.armed():
            z = model.sweep(grids(12), metric, shards=4, max_workers=2,
                            resilience=config)
        assert np.isfinite(np.asarray(z)).all()


class TestRetryBudget:
    def test_denied_budget_blocks_retries(self, model):
        injector = FaultInjector()
        injector.raises("sweep.shard", times=None,
                        when=lambda p: p["shard"] == 0 and p["attempt"] >= 0
                        and p["attempt"] != -1)
        config = ResilienceConfig(shard_retries=3, backoff_seconds=0.0,
                                  serial_fallback=True,
                                  retry_budget=lambda: False)
        with injector.armed():
            z = model.sweep(grids(12), metric, shards=4, max_workers=2,
                            resilience=config)
        # budget denial: no pooled retries, no serial fallback → shard 0
        # abandoned to NaN, everything else intact
        flat = np.asarray(z).reshape(-1)
        assert np.isnan(flat).any()
        assert np.isfinite(flat).any()
        assert injector.fired("sweep.shard") == 1  # exactly the first try

    def test_granted_budget_allows_recovery(self, model):
        injector = FaultInjector()
        injector.raises("sweep.shard", times=1,
                        when=lambda p: p["shard"] == 0)
        config = ResilienceConfig(shard_retries=2, backoff_seconds=0.0,
                                  retry_budget=lambda: True)
        with injector.armed():
            z = model.sweep(grids(12), metric, shards=4, max_workers=2,
                            resilience=config)
        assert np.isfinite(np.asarray(z)).all()


class TestShardSignature:
    """``run_shards`` passes tokens only to shard functions that take a
    ``cancel`` keyword, and inspects each function's signature once per
    code object rather than once per sweep."""

    @staticmethod
    def plain_shard():
        def run(lo, hi, shard, attempt):
            return (lo, hi)
        return run

    @staticmethod
    def cancel_shard(seen):
        def run(lo, hi, shard=0, attempt=0, cancel=None):
            seen.append(cancel)
            return (lo, hi)
        return run

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shard_without_cancel_keyword(self, workers):
        token = CancelToken()
        for _ in range(2):  # the second call answers from the cache
            out = run_shards(self.plain_shard(), [0, 3, 7], workers=workers,
                             cancel=token)
            assert out == [(0, 3), (3, 7)]

    def test_shard_with_cancel_keyword_gets_a_token(self):
        seen: list = []
        token = CancelToken()
        run_shards(self.cancel_shard(seen), [0, 3, 7], cancel=token)
        assert seen == [token, token]
        seen.clear()
        run_shards(self.cancel_shard(seen), [0, 3, 7], workers=2,
                   cancel=token)
        # pooled attempts get per-attempt child tokens of the sweep's
        assert len(seen) == 2 and all(t is not None and t is not token
                                      for t in seen)

    def test_signature_inspected_once_per_code_object(self, monkeypatch):
        import inspect

        from repro.runtime import resilience

        run_shards(self.plain_shard(), [0, 1])  # warm the cache
        calls = []
        signature = inspect.signature

        def counting(fn, *args, **kwargs):
            calls.append(fn)
            return signature(fn, *args, **kwargs)

        monkeypatch.setattr(resilience.inspect, "signature", counting)
        run_shards(self.plain_shard(), [0, 1, 2], workers=2)
        assert calls == []


def test_chunk_constant_is_sane():
    assert CANCEL_CHUNK_POINTS >= 256
