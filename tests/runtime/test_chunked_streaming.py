"""Chunked streaming: every sweep runs through fixed-size chunks.

Each shard streams its range through chunks of ``CANCEL_CHUNK_POINTS``
points on every backend, with or without a cancel token.  A chunk
boundary only splits elementwise work, so nothing observable may depend
on where one falls: values, NaN placement, quarantine records (global
index and grid coordinates) and health-summary count/min/max.  Sizes
straddle the boundary (CHUNK-1, CHUNK, CHUNK+1, 3*CHUNK+7).

That holds at order > 2 too: a lane whose order-q Padé attempt fails
(say, an exactly singular Hankel system) retries at q - 1, ..., 1 inside
its chunk, and no lane's values depend on the lanes stacked with it.

Comparisons stay inside one process: compiled op order may differ from
process to process, so values are only comparable for one compiled
program.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import awesymbolic
from repro.circuits.library import (fig1_circuit, paper_coupled_lines,
                                    small_signal_741)
from repro.circuits.library.coupled_lines import victim_output
from repro.core import metrics
from repro.runtime import (CANCEL_CHUNK_POINTS, RuntimeStats,
                           batched_sweep)
from repro.runtime.backends import INLINE_MAX_POINTS

CHUNK = CANCEL_CHUNK_POINTS
SIZES = (CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7)
#: order-4 sweeps of fig1 and the 741 straddle a smaller explicit chunk,
#: which puts exactly singular Hankel lanes into several chunks
SMALL_CHUNK = 64
SMALL_SIZES = (SMALL_CHUNK - 1, SMALL_CHUNK, SMALL_CHUNK + 1,
               3 * SMALL_CHUNK + 7)


def grid_shape(n: int) -> tuple[int, int]:
    """The most square 2-D factorization of ``n``."""
    rows = max(d for d in range(1, int(n ** 0.5) + 1) if n % d == 0)
    return rows, n // rows


def make_grids(axes: dict, n: int) -> dict[str, np.ndarray]:
    """A cartesian grid of exactly ``n`` points over two ``(lo, hi)``
    element ranges."""
    return {name: np.linspace(lo, hi, count) for (name, (lo, hi)), count
            in zip(axes.items(), grid_shape(n))}


def paired_of(grids: dict) -> dict[str, np.ndarray]:
    """The grid's points as joint samples, in flat (C) order."""
    mesh = np.meshgrid(*grids.values(), indexing="ij")
    return {name: m.reshape(-1) for name, m in zip(grids, mesh)}


def assert_identical(a, b) -> None:
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def quarantine_key(diag) -> list:
    return [(p.index, p.grid_index, p.values, p.stage, p.error, p.message)
            for p in diag.quarantined]


def health_key(diag) -> list:
    return [(h.count, h.vmin, h.vmax) for h in
            (diag.y0_det_abs, diag.moment_decay, diag.hankel_condition)]


@pytest.fixture(scope="module")
def fig1_4():
    return awesymbolic(fig1_circuit(), "out", symbols=["C1", "C2"], order=4)


@pytest.fixture(scope="module")
def model_741():
    ss = small_signal_741()
    return awesymbolic(ss.circuit, "out", symbols=["go_Q14", "Ccomp"],
                       order=2)


@pytest.fixture(scope="module")
def model_741_4():
    ss = small_signal_741()
    return awesymbolic(ss.circuit, "out", symbols=["go_Q14", "Ccomp"],
                       order=4)


@pytest.fixture(scope="module")
def lines_4():
    """Coupled lines at order 4: the first order-4 attempt serves every
    lane (fig1 and the 741 have exactly singular order-4 Hankel lanes)."""
    return awesymbolic(paper_coupled_lines(n_segments=6), victim_output(6),
                       symbols=["Rdrv1", "Cload2"], order=4)


@pytest.fixture(scope="module")
def singular_fig1():
    """Fig. 1 with ``G2`` symbolic: ``G2 = 0`` makes det(Y0) exactly 0."""
    return awesymbolic(fig1_circuit(), "out", symbols=["G2", "C2"], order=2)


FIG1_AXES = {"C1": (0.5, 5.0), "C2": (0.5, 4.0)}


def axes_741(result) -> dict:
    go = result.partition.symbolic[0].symbol.nominal
    return {"go_Q14": (0.5 * go, 4.0 * go), "Ccomp": (10e-12, 60e-12)}


def sweep_pair(model, grids, metric, order, paired):
    """The same sweep streamed in default chunks and as one chunk."""
    n = int(np.prod([len(v) for v in grids.values()])) if not paired \
        else len(next(iter(grids.values())))
    chunked = batched_sweep(model, grids, metric, order=order, paired=paired)
    whole = batched_sweep(model, grids, metric, order=order, paired=paired,
                          chunk_points=n)
    return chunked, whole


class TestLowOrders:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("circuit", ["fig1", "741"])
    def test_chunked_equals_single_chunk_and_oracle(self, circuit, order, n,
                                                    fig1_model, model_741):
        res = fig1_model if circuit == "fig1" else model_741
        axes = FIG1_AXES if circuit == "fig1" else axes_741(res)
        grids = make_grids(axes, n)
        oracle = np.asarray(res.model.sweep_per_point(
            grids, metrics.dominant_pole_hz, order=order))
        for layout, sweep_grids, paired in (
                ("grid", grids, False), ("paired", paired_of(grids), True)):
            chunked, whole = sweep_pair(res.model, sweep_grids,
                                        metrics.dominant_pole_hz, order,
                                        paired)
            assert_identical(chunked, whole)
            # the per-point oracle under the differential suite's contract
            values = np.asarray(chunked).reshape(oracle.shape)
            assert values.dtype == oracle.dtype, layout
            np.testing.assert_array_equal(values, oracle)


class TestOrderFour:
    @pytest.mark.parametrize("n", SIZES)
    def test_batched_general_pade_equals_single_chunk(self, n, lines_4):
        grids = make_grids({"Rdrv1": (10.0, 400.0),
                            "Cload2": (10e-15, 1e-12)}, n)
        stats = RuntimeStats()
        lines_4.model.sweep(grids, metrics.dominant_pole_hz, order=4,
                            stats=stats)
        assert stats.vectorized_points == n  # no lane fell back
        for paired, sweep_grids in ((False, grids), (True, paired_of(grids))):
            for metric in (metrics.dominant_pole_hz, metrics.dc_gain):
                chunked, whole = sweep_pair(lines_4.model, sweep_grids,
                                            metric, 4, paired)
                assert_identical(chunked, whole)
                assert (quarantine_key(chunked.diagnostics)
                        == quarantine_key(whole.diagnostics))

    @pytest.mark.parametrize("n", SMALL_SIZES)
    @pytest.mark.parametrize("circuit", ["fig1", "741"])
    def test_singular_hankel_lanes_follow_the_chunking(self, circuit, n,
                                                       fig1_4, model_741_4):
        """fig1 and the 741 have lanes with exactly singular order-4
        Hankel systems, which the stable-order ladder settles one order
        lower inside their chunk: each chunk's values are exactly those
        of a sweep of that chunk's points alone."""
        res = fig1_4 if circuit == "fig1" else model_741_4
        axes = FIG1_AXES if circuit == "fig1" else axes_741(res)
        grids = make_grids(axes, n)
        samples = paired_of(grids)
        metric = metrics.dominant_pole_hz
        expected = np.concatenate([
            np.asarray(batched_sweep(
                res.model, {k: v[a:a + SMALL_CHUNK]
                            for k, v in samples.items()},
                metric, order=4, paired=True))
            for a in range(0, n, SMALL_CHUNK)])
        grid = batched_sweep(res.model, grids, metric, order=4,
                             chunk_points=SMALL_CHUNK)
        assert_identical(np.asarray(grid).reshape(-1), expected)
        paired = batched_sweep(res.model, samples, metric, order=4,
                               paired=True, chunk_points=SMALL_CHUNK)
        assert_identical(paired, expected)


class TestSingularLanesAtChunkBoundary:
    """Singular lanes at flat indices CHUNK-1 and CHUNK: one on each side
    of the first chunk boundary."""

    WIDTH = 65  # C2 axis length: the singular G2 row straddles CHUNK

    def grid_case(self):
        assert CHUNK % self.WIDTH  # the row must cross the boundary
        row = (CHUNK - 1) // self.WIDTH
        g2 = np.linspace(0.5, 4.0, row + 2)
        g2[row] = 0.0
        grids = {"G2": g2, "C2": np.linspace(0.5, 3.0, self.WIDTH)}
        singular = list(range(row * self.WIDTH, (row + 1) * self.WIDTH))
        assert CHUNK - 1 in singular and CHUNK in singular
        return grids, False, singular

    @staticmethod
    def paired_case():
        g2 = np.linspace(0.5, 4.0, 2 * CHUNK)
        g2[[CHUNK - 1, CHUNK]] = 0.0
        return ({"G2": g2, "C2": np.linspace(0.5, 3.0, 2 * CHUNK)}, True,
                [CHUNK - 1, CHUNK])

    @pytest.mark.parametrize("layout", ["grid", "paired"])
    def test_chunked_equals_single_chunk(self, layout, singular_fig1):
        grids, paired, singular = (self.grid_case() if layout == "grid"
                                   else self.paired_case())
        chunked, whole = sweep_pair(singular_fig1.model, grids,
                                    metrics.dominant_pole_hz, None, paired)
        n = np.asarray(chunked).size
        assert_identical(chunked, whole)
        flat = np.asarray(chunked).reshape(-1)
        assert list(np.flatnonzero(np.isnan(flat))) == singular
        diag = chunked.diagnostics
        assert [p.index for p in diag.quarantined] == singular
        assert all(p.values["G2"] == 0.0 for p in diag.quarantined)
        if paired:
            assert [p.grid_index for p in diag.quarantined] == \
                [(i,) for i in singular]
        else:
            assert [p.grid_index for p in diag.quarantined] == \
                [np.unravel_index(i, chunked.shape) for i in singular]
        assert quarantine_key(diag) == quarantine_key(whole.diagnostics)
        assert health_key(diag) == health_key(whole.diagnostics)
        assert diag.y0_det_abs.count == n
        assert diag.y0_det_abs.vmin == 0.0


class TestProcessShardsSpanChunks:
    """Process-backend shards stream the same chunk loop as in-process
    shards, inline (small sweeps) and through shared memory."""

    @pytest.mark.parametrize("n_rows", [
        3 * CHUNK // 65 + 1,                # inline: ~3 chunks in all
        INLINE_MAX_POINTS // 65 + 2,        # shared memory
    ])
    def test_process_equals_serial(self, n_rows, singular_fig1):
        row = (CHUNK - 1) // 65
        g2 = np.linspace(0.5, 4.0, n_rows)
        g2[row] = 0.0  # singular lanes on both sides of CHUNK
        grids = {"G2": g2, "C2": np.linspace(0.5, 3.0, 65)}
        model = singular_fig1.model
        serial = model.sweep(grids, metrics.dominant_pole_hz)
        for kwargs in ({}, {"chunk_points": 1000}):
            stats = RuntimeStats()
            proc = model.sweep(grids, metrics.dominant_pole_hz, shards=2,
                               backend="process", stats=stats, **kwargs)
            assert stats.backend == "process"
            assert_identical(proc, serial)
            assert (quarantine_key(proc.diagnostics)
                    == quarantine_key(serial.diagnostics))
            assert health_key(proc.diagnostics) == \
                health_key(serial.diagnostics)


class TestLedger:
    STAGES = ("columns", "evaluate", "health", "pade", "metric", "finalize")

    def test_named_stages_cover_a_large_sweep(self, model_741):
        """The named stages account for >= 95 % of a 512x512 sweep's
        wall time (best of three, against scheduler noise)."""
        go = model_741.partition.symbolic[0].symbol.nominal
        grids = {"go_Q14": np.linspace(0.5, 4.0, 512) * go,
                 "Ccomp": np.linspace(10e-12, 60e-12, 512)}
        model_741.model.sweep(grids, metrics.dominant_pole_hz)  # warm-up
        coverage = []
        for _ in range(3):
            stats = RuntimeStats()
            model_741.model.sweep(grids, metrics.dominant_pole_hz,
                                  stats=stats)
            named = sum(getattr(stats, f"{s}_seconds") for s in self.STAGES)
            coverage.append(named / stats.total_seconds)
            if coverage[-1] >= 0.95:
                break
        assert max(coverage) >= 0.95, coverage
        assert max(coverage) <= 1.0 + 1e-9
