"""Small sweeps and per-point model objects against ``rom()``.

A chunk of at most ``SCALAR_LANES`` points runs the scalar lane: per
lane, the fused program's scalar code on numpy float64 scalars, the
per-point Padé and the scalar metric, so its values are
``metric(rom(values))`` bit for bit and no ufunc kernel is specialized
for it.  A metric without a vectorized implementation sees, on every
lane, the model ``rom()`` would build — including the moment scale a
stable-order ladder lane carries.  The chunk-size matrix holds the scalar
lane and the vector path (``SCALAR_LANES + 1`` and the default chunk) to
the per-point sweep at orders 1-4.
"""

from __future__ import annotations

import asyncio
import math

import numpy as np
import pytest

from repro import awesymbolic
from repro.circuits.library import (fig1_circuit, paper_coupled_lines,
                                    small_signal_741, small_signal_ota)
from repro.circuits.library.coupled_lines import victim_output
from repro.core import metrics
from repro.core.compiled_model import TapeModel
from repro.errors import ApproximationError, PartitionError, ReproError
from repro.runtime import RuntimeStats, batched_sweep
from repro.runtime.batched import (SCALAR_LANES, VECTOR_METRICS,
                                   _hankel_cond2, _hankel_cond2_lane)
from repro.symbolic.tape import tape_from_model
from repro.testing import FaultInjector


@pytest.fixture(scope="module")
def amp_model():
    return awesymbolic(small_signal_741().circuit, "out",
                       symbols=["go_Q14", "Ccomp"], order=4)


def random_points(result, n, seed):
    rng = np.random.default_rng(seed)
    nominal = {se.name: float(se.element.value)
               for se in result.partition.symbolic}
    return [{k: v * rng.uniform(0.3, 3.0) for k, v in nominal.items()}
            for _ in range(n)]


def test_one_point_batch_specializes_no_kernel(fig1_model):
    model = TapeModel(tape_from_model(fig1_model, fused=True))
    fn = model.compiled_moments.fn
    for backend in ("serial", "native"):
        model.sweep({"C1": np.array([2e-12]), "C2": np.array([1e-12])},
                    metrics.dominant_pole_hz, backend=backend)
    model.sweep({}, metrics.dominant_pole_hz)  # an all-scalar chunk
    assert fn._kernels == {}


@pytest.mark.parametrize("name", ["fig1_model", "amp_model", "ota_model"])
@pytest.mark.parametrize("order", [1, 2])
def test_one_point_sweep_equals_rom(name, order, request):
    result = request.getfixturevalue(name)
    model = result.model
    for metric in (metrics.dominant_pole_hz, metrics.dc_gain):
        for values in random_points(result, 200, seed=order):
            got = model.sweep({k: np.array([v]) for k, v in values.items()},
                              metric, order=order)
            try:
                want = metric(model.rom(values, order=order))
            except (ApproximationError, PartitionError):
                want = np.nan
            assert np.asarray(got, dtype=float).tobytes() \
                == np.full((1, 1), want, dtype=float).tobytes(), values


def test_ladder_lanes_carry_their_moment_scale(amp_model):
    """``rom.scale`` has no vectorized implementation, so the batched
    sweep builds one model per ladder lane; each must carry the scale
    ``stable_reduction`` gives it."""
    go = amp_model.partition.symbolic[0].symbol.nominal
    grids = {"go_Q14": np.linspace(0.5, 4.0, 12) * go,
             "Ccomp": np.linspace(10e-12, 60e-12, 12)}

    def scale(rom):
        return rom.scale

    model = amp_model.model
    batched = model.sweep(grids, scale, order=4)
    per_point = model.sweep_per_point(grids, scale, order=4)
    assert batched.tobytes() == per_point.tobytes()
    assert (batched != 1.0).all()


# ----------------------------------------------------------------------
# the scalar lane against the per-point sweep, by chunk size
# ----------------------------------------------------------------------
#: 1 and SCALAR_LANES run the scalar lane; SCALAR_LANES + 1 and the
#: default chunk the vector path
CHUNKS = (1, SCALAR_LANES, SCALAR_LANES + 1, None)


def scale(rom) -> float:
    """A metric with no vectorized implementation that reads the
    model's moment scale."""
    return rom.scale


LANE_METRICS = [*VECTOR_METRICS, scale]


@pytest.fixture(scope="module")
def lane_cases(amp_model):
    """fig1 (``G2`` swept through 0: its first row is exactly singular),
    the 741, the OTA and the coupled lines, compiled for order 4, each
    with a 20-point grid."""
    go = amp_model.partition.symbolic[0].symbol.nominal
    return {
        "fig1": (awesymbolic(fig1_circuit(), "out", symbols=["G2", "C2"],
                             order=4),
                 {"G2": np.linspace(0.0, 4.0, 4),
                  "C2": np.linspace(0.5, 3.0, 5)}),
        "741": (amp_model, {"go_Q14": np.linspace(0.5, 4.0, 4) * go,
                            "Ccomp": np.linspace(10e-12, 60e-12, 5)}),
        "ota": (awesymbolic(small_signal_ota().circuit, "out",
                            symbols=["Cc", "gds_M6"], order=4),
                {"Cc": np.linspace(1e-12, 10e-12, 4),
                 "gds_M6": np.linspace(1e-6, 40e-6, 5)}),
        "lines": (awesymbolic(paper_coupled_lines(n_segments=6),
                              victim_output(6),
                              symbols=["Rdrv1", "Cload2"], order=4),
                  {"Rdrv1": np.linspace(10.0, 400.0, 4),
                   "Cload2": np.linspace(10e-15, 1e-12, 5)}),
    }


def quarantine_key(diag) -> list:
    return [(p.index, p.grid_index, p.values, p.stage, p.error, p.message)
            for p in diag.quarantined]


def health_key(diag) -> list:
    return [(h.count, h.vmin, h.vmax) for h in
            (diag.y0_det_abs, diag.moment_decay, diag.hankel_condition)]


def assert_identical_sweeps(got, want) -> None:
    """Bit for bit: values, dtype, NaN placement, quarantine records and
    orders dropped."""
    assert got.dtype == want.dtype
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert quarantine_key(got.diagnostics) == \
        quarantine_key(want.diagnostics)
    assert got.diagnostics.dropped_orders == want.diagnostics.dropped_orders


def raised(sweep) -> tuple | None:
    try:
        sweep()
    except ReproError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("name", ["fig1", "741", "ota", "lines"])
def test_every_chunk_size_equals_per_point(lane_cases, name, order):
    result, grids = lane_cases[name]
    model = result.model
    for require_stable in (True, False):
        for metric in LANE_METRICS:
            want = model.sweep_per_point(grids, metric, order,
                                         require_stable=require_stable)
            for chunk in CHUNKS:
                got = batched_sweep(model, grids, metric, order=order,
                                    require_stable=require_stable,
                                    chunk_points=chunk)
                assert_identical_sweeps(got, want)
    # health summaries and the fast-path/fallback split do not depend on
    # the chunk size either
    ledger = {}
    for chunk in CHUNKS:
        stats = RuntimeStats()
        diag = batched_sweep(model, grids, metrics.dominant_pole_hz,
                             order=order, chunk_points=chunk,
                             stats=stats).diagnostics
        ledger[chunk] = (health_key(diag), stats.vectorized_points,
                         stats.fallback_points)
    assert all(key == ledger[None] for key in ledger.values()), ledger
    strict = raised(lambda: model.sweep_per_point(
        grids, metrics.dominant_pole_hz, order, strict=True))
    if name == "fig1":  # the G2 = 0 row
        assert strict[0] is PartitionError
    for chunk in CHUNKS:
        assert raised(lambda: batched_sweep(
            model, grids, metrics.dominant_pole_hz, order=order,
            strict=True, chunk_points=chunk)) == strict


@pytest.mark.parametrize("order", [2, 4])
def test_fault_site_feeds_the_scalar_lane(lane_cases, order):
    """``sweep.moments`` fires on the scalar lane's moment slab and its
    Padé reads the slab after: NaN moments injected at three points
    quarantine them at every chunk size, with the same records and the
    same fast-path/fallback split."""
    result, grids = lane_cases["741"]
    targets = [0, 7, 19]
    ledger = {}
    for chunk in CHUNKS:
        stats = RuntimeStats()
        with FaultInjector().nan_moments(targets).armed():
            z = batched_sweep(result.model, grids, metrics.dominant_pole_hz,
                              order=order, chunk_points=chunk, stats=stats)
        assert list(np.flatnonzero(np.isnan(z))) == targets
        ledger[chunk] = (quarantine_key(z.diagnostics),
                         stats.vectorized_points, stats.fallback_points)
    assert all(key == ledger[None] for key in ledger.values()), ledger
    assert [p[3] for p in ledger[None][0]] == ["pade"] * len(targets)
    assert ledger[None][1:] == (z.size - len(targets), len(targets))


def test_healthy_small_sweeps_count_no_fallback(amp_model):
    model = amp_model.model
    go = amp_model.partition.symbolic[0].symbol.nominal
    for n in range(1, SCALAR_LANES + 1):
        for order in (2, 4):
            stats = RuntimeStats()
            z = model.sweep({"go_Q14": np.linspace(1.0, 2.0, n) * go},
                            metrics.dominant_pole_hz, order, stats=stats)
            assert np.isfinite(z).all() and z.diagnostics.ok
            assert stats.points == n
            assert stats.fallback_points == 0
            assert stats.vectorized_points == n


def test_hankel_condition_lane_matches_array():
    """The scalar lane's Hankel condition equals the array form on every
    finite value, across magnitudes and the zero/inf/NaN edges."""
    rng = np.random.default_rng(7)
    m = rng.standard_normal((3, 4000)) * 10.0 ** rng.integers(
        -300, 300, (3, 4000))
    edges = [0.0, -0.0, 1.0, -1.0, 1e-308, 1e308, np.inf, -np.inf, np.nan]
    grid = np.array(np.meshgrid(edges, edges, edges)).reshape(3, -1)
    m = np.concatenate([m, grid], axis=1)
    want = _hankel_cond2(m)
    for j in range(m.shape[1]):
        got = _hankel_cond2_lane(*(float(v) for v in m[:, j]))
        if math.isfinite(want[j]) or math.isfinite(got):
            assert got == want[j], m[:, j]


@pytest.mark.parametrize("n", range(1, SCALAR_LANES + 1))
def test_coalesced_small_batch_equals_rom(n):
    """A served batch of 1-4 coalesced requests runs the scalar lane:
    every response is ``metric(rom(values))`` exactly."""
    from repro.service import AWEService, ModelRegistry, ServiceConfig

    values = [{"G1": 0.5 + i, "C2": 0.3 * (i + 1)} for i in range(n)]

    async def scenario():
        registry = ModelRegistry()
        registry.register("fig1", fig1_circuit(), "out",
                          symbols=["G1", "C2"], order=2)
        service = AWEService(ServiceConfig(max_batch=n, max_delay_s=0.5),
                             registry=registry)
        try:
            model = (await registry.ensure("fig1")).model
            out = {}
            for metric in ("dominant_pole_hz", "dc_gain"):
                out[metric] = await asyncio.gather(*[
                    service.handle_eval({"model": "fig1", "metric": metric,
                                         "values": v}) for v in values])
            return model, out
        finally:
            await service.drain()

    model, out = asyncio.run(scenario())
    for metric, responses in out.items():
        for v, resp in zip(values, responses):
            assert resp["batch_size"] == n
            assert resp["value"] == getattr(metrics, metric)(model.rom(v))
