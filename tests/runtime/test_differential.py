"""Differential harness: batched runtime vs per-point oracle vs numeric AWE.

The batched sweep's contract is *equality*, not approximation: every grid
point must match what the legacy per-point loop produces — equal values,
NaN in the same places — and the per-point loop in turn matches a full
numeric AWE re-analysis at the same element values.
These tests pin all three levels on the paper's circuits.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.awe import awe
from repro.circuits.library import fig1_circuit
from repro.core import metrics
from repro.errors import ApproximationError
from repro.runtime import RuntimeStats, batched_sweep


def assert_same_surface(batched, legacy):
    """Batched == legacy: same dtype family, equal values, NaN in the
    same places (``assert_array_equal`` compares NaN positions)."""
    assert batched.shape == legacy.shape
    assert np.iscomplexobj(batched) == np.iscomplexobj(legacy)
    np.testing.assert_array_equal(np.asarray(batched), np.asarray(legacy))


CASES = [
    ("fig1_model",
     {"C1": np.linspace(0.5e-12, 5e-12, 11),
      "C2": np.linspace(0.1e-12, 3e-12, 9)}),
    ("ota_model",
     {"Cc": np.linspace(1e-12, 10e-12, 8),
      "gds_M6": np.linspace(1e-6, 40e-6, 7)}),
    ("lines_model",
     {"Rdrv1": np.linspace(10.0, 400.0, 8),
      "Cload2": np.linspace(10e-15, 1e-12, 7)}),
]
METRICS = [metrics.dominant_pole_hz, metrics.dc_gain, metrics.phase_margin,
           metrics.unity_gain_frequency, metrics.bandwidth_3db,
           metrics.gain_bandwidth_product]


@pytest.mark.parametrize("fixture_name,grids",
                         CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.__name__)
def test_batched_equals_per_point(fixture_name, grids, metric, request):
    res = request.getfixturevalue(fixture_name)
    batched = res.model.sweep(grids, metric)
    legacy = res.model.sweep_per_point(grids, metric)
    assert_same_surface(batched, legacy)


@pytest.mark.parametrize("fixture_name,grids",
                         CASES, ids=[c[0] for c in CASES])
def test_batched_equals_numeric_awe(fixture_name, grids, request):
    """End-to-end ground truth: the batched surface equals a full numeric
    AWE re-analysis (matrix assembly + LU + moments + Padé) at every point
    of a small grid."""
    res = request.getfixturevalue(fixture_name)
    circuit = res.partition.circuit
    small = {name: axis[:: max(1, len(axis) // 3)][:3]
             for name, axis in grids.items()}
    surface = res.model.sweep(small, metrics.dc_gain)
    names = list(small)
    for idx in np.ndindex(*surface.shape):
        check = circuit.copy()
        for name, i in zip(names, idx):
            check.replace_value(name, float(small[name][i]))
        ref = awe(check, res.moments.output, order=2).model
        assert surface[idx] == pytest.approx(ref.dc_gain(), rel=1e-8)


def test_nan_placement_identical(fig1_model):
    """A metric that degenerates (raises ApproximationError) on part of the
    grid must leave NaN at exactly the same points on both paths."""
    grids = {"C1": np.linspace(0.5e-12, 5e-12, 17),
             "C2": np.linspace(0.1e-12, 3e-12, 13)}
    surface = fig1_model.model.sweep(grids, metrics.dominant_pole_hz)
    thresh = float(np.median(surface))

    def partial_metric(model):
        f = metrics.dominant_pole_hz(model)
        if f > thresh:
            raise ApproximationError("synthetic degenerate point")
        return f

    batched = fig1_model.model.sweep(grids, partial_metric)
    legacy = fig1_model.model.sweep_per_point(grids, partial_metric)
    assert np.isnan(batched).any() and not np.isnan(batched).all()
    np.testing.assert_array_equal(np.isnan(batched), np.isnan(legacy))
    assert_same_surface(batched, legacy)


def test_all_nan_metric_matches(fig1_model):
    """Unity-gain frequency never exists for this passive stage (|H| <= 1):
    both paths must return the same all-NaN float surface, not abort."""
    grids = {"C1": np.linspace(0.5e-12, 5e-12, 5),
             "C2": np.linspace(0.1e-12, 3e-12, 4)}
    batched = fig1_model.model.sweep(grids, metrics.unity_gain_frequency)
    legacy = fig1_model.model.sweep_per_point(grids,
                                              metrics.unity_gain_frequency)
    assert np.isnan(batched).all() and np.isnan(legacy).all()
    assert batched.dtype == legacy.dtype == np.float64


@pytest.mark.parametrize("order", [1, 2])
def test_orders_and_instability_paths(lines_model, order):
    grids = {"Rdrv1": np.linspace(10.0, 400.0, 7),
             "Cload2": np.linspace(10e-15, 1e-12, 6)}
    for require_stable in (True, False):
        batched = lines_model.model.sweep(
            grids, metrics.dominant_pole_hz, order,
            require_stable=require_stable)
        legacy = lines_model.model.sweep_per_point(
            grids, metrics.dominant_pole_hz, order,
            require_stable=require_stable)
        assert_same_surface(batched, legacy)


def quarantine_key(diag) -> list:
    return [(p.index, p.grid_index, p.values, p.stage, p.error, p.message)
            for p in diag.quarantined]


def assert_identical_sweeps(batched, legacy) -> None:
    """Bit for bit: values, dtype, quarantine records, orders dropped."""
    assert batched.dtype == legacy.dtype
    np.testing.assert_array_equal(np.asarray(batched), np.asarray(legacy))
    assert np.asarray(batched).tobytes() == np.asarray(legacy).tobytes()
    assert (quarantine_key(batched.diagnostics)
            == quarantine_key(legacy.diagnostics))
    assert (batched.diagnostics.dropped_orders
            == legacy.diagnostics.dropped_orders)


def test_order1_origin_pole_is_quarantined(lines_model):
    """The crosstalk victim's DC gain is exactly 0, so m0 = 0 and the
    first-order Padé pole sits at the origin: both paths quarantine every
    point at the Padé stage instead of returning a pole at 0 (or raising
    a TypeError from the scalar DC gain)."""
    grids = {"Rdrv1": np.linspace(10.0, 400.0, 5),
             "Cload2": np.linspace(10e-15, 1e-12, 4)}
    for metric in METRICS:
        batched = lines_model.model.sweep(grids, metric, 1,
                                          require_stable=False)
        legacy = lines_model.model.sweep_per_point(grids, metric, 1,
                                                   require_stable=False)
        assert_identical_sweeps(batched, legacy)
        assert np.isnan(batched).all()
        assert {(p.stage, p.error) for p in batched.diagnostics.quarantined
                } == {("pade", "ApproximationError")}


@pytest.fixture(scope="module")
def order4_models():
    """fig1, the 741, the OTA and the coupled lines compiled deep enough
    for order-4 Padé, each with a grid to sweep."""
    from repro import awesymbolic
    from repro.circuits.library import (paper_coupled_lines,
                                        small_signal_741, small_signal_ota)
    from repro.circuits.library.coupled_lines import victim_output

    r741 = awesymbolic(small_signal_741().circuit, "out",
                       symbols=["go_Q14", "Ccomp"], order=4)
    go = r741.partition.symbolic[0].symbol.nominal
    return {
        "fig1": (awesymbolic(fig1_circuit(), "out", symbols=["C1", "C2"],
                             order=4),
                 {"C1": np.linspace(0.5, 5.0, 12),
                  "C2": np.linspace(0.5, 4.0, 11)}),
        "741": (r741, {"go_Q14": np.linspace(0.5, 4.0, 12) * go,
                       "Ccomp": np.linspace(10e-12, 60e-12, 11)}),
        "ota": (awesymbolic(small_signal_ota().circuit, "out",
                            symbols=["Cc", "gds_M6"], order=4),
                {"Cc": np.linspace(1e-12, 10e-12, 12),
                 "gds_M6": np.linspace(1e-6, 40e-6, 11)}),
        "lines": (awesymbolic(paper_coupled_lines(n_segments=6),
                              victim_output(6),
                              symbols=["Rdrv1", "Cload2"], order=4),
                  {"Rdrv1": np.linspace(10.0, 400.0, 6),
                   "Cload2": np.linspace(10e-15, 1e-12, 6)}),
    }


@pytest.mark.parametrize("order", [3, 4])
def test_general_order_batched_matches_per_point(order4_models, order):
    """Order > 2 runs the stacked stable-order ladder (stacked Hankel
    solves + companion-matrix eigvals at every order from ``order`` down),
    an exact transcription of the scalar reduction: values, NaN
    placement, quarantine records and orders dropped equal the per-point
    path bit for bit, and no lane takes the per-point fallback."""
    for name, (res, grids) in order4_models.items():
        for require_stable in (True, False):
            for metric in METRICS:
                stats = RuntimeStats()
                batched = res.model.sweep(
                    grids, metric, order, require_stable=require_stable,
                    stats=stats)
                legacy = res.model.sweep_per_point(
                    grids, metric, order, require_stable=require_stable)
                assert_identical_sweeps(batched, legacy)
                assert stats.fallback_points == 0, name
                assert stats.vectorized_points == batched.size, name


@pytest.mark.parametrize("name", ["fig1", "741"])
def test_order4_values_do_not_depend_on_chunking(order4_models, name):
    """fig1 and the 741 have lanes with exactly singular order-4 Hankel
    systems; the ladder settles them one order lower inside the chunk, so
    any chunk size gives the same sweep, and none of it runs per point."""
    res = order4_models[name][0]
    if name == "741":
        go = res.partition.symbolic[0].symbol.nominal
        grids = {"go_Q14": np.linspace(0.5, 4.0, 32) * go,
                 "Ccomp": np.linspace(10e-12, 60e-12, 32)}
    else:
        grids = {"C1": np.linspace(0.5, 5.0, 32),
                 "C2": np.linspace(0.5, 4.0, 32)}
    stats = RuntimeStats()
    default = res.model.sweep(grids, metrics.dominant_pole_hz, 4,
                              stats=stats)
    assert stats.fallback_points == 0
    assert sum(default.diagnostics.dropped_orders.values()) > 0
    for chunk in (1, 37):
        chunked = batched_sweep(res.model, grids, metrics.dominant_pole_hz,
                                order=4, chunk_points=chunk)
        assert_identical_sweeps(chunked, default)


def test_scalar_metric_fallback_event(fig1_model):
    """A metric with no VECTOR_METRICS entry still sweeps correctly, and
    the sweep announces the per-point metric stage exactly once via the
    ``repro_sweep_scalar_metric_fallback`` counter."""
    from repro.obs import metrics as obs_metrics

    grids = {"C1": np.linspace(0.5e-12, 5e-12, 5),
             "C2": np.linspace(0.1e-12, 3e-12, 4)}
    unregistered = lambda m: metrics.dc_gain(m)  # noqa: E731
    counter = obs_metrics.registry().counter(
        "repro_sweep_scalar_metric_fallback")
    before = counter.value
    batched = fig1_model.model.sweep(grids, unregistered)
    assert counter.value == before + 1
    legacy = fig1_model.model.sweep_per_point(grids, unregistered)
    assert_same_surface(batched, legacy)
    # registered metrics do not fire the event
    before = counter.value
    fig1_model.model.sweep(grids, metrics.dc_gain)
    assert counter.value == before


def test_sharded_equals_serial(ota_model):
    grids = {"Cc": np.linspace(1e-12, 10e-12, 9),
             "gds_M6": np.linspace(1e-6, 40e-6, 8)}
    serial = ota_model.model.sweep(grids, metrics.dc_gain)
    for shards, workers in ((3, None), (5, 2), (72, 4), (200, 3)):
        stats = RuntimeStats()
        sharded = ota_model.model.sweep(grids, metrics.dc_gain,
                                        shards=shards, max_workers=workers,
                                        stats=stats)
        np.testing.assert_array_equal(sharded, serial)
        assert stats.shards == min(shards, 72)
        assert stats.points == 72


@functools.lru_cache(maxsize=1)
def _fig1_cached():
    # hypothesis examples can't take pytest fixtures as arguments; derive
    # the Fig. 1 model once at first example instead
    from repro import awesymbolic

    return awesymbolic(fig1_circuit(), "out", symbols=["C1", "C2"], order=2)


@given(n1=st.integers(1, 7), n2=st.integers(1, 5),
       lo1=st.floats(0.2, 2.0), hi1=st.floats(2.5, 9.0),
       lo2=st.floats(0.05, 1.0), hi2=st.floats(1.5, 6.0))
def test_hypothesis_grids_match(n1, n2, lo1, hi1, lo2, hi2):
    """Random grid shapes and ranges on Fig. 1: batched == per-point."""
    res = _fig1_cached()
    grids = {"C1": np.linspace(lo1 * 1e-12, hi1 * 1e-12, n1),
             "C2": np.linspace(lo2 * 1e-12, hi2 * 1e-12, n2)}
    batched = res.model.sweep(grids, metrics.dominant_pole_hz)
    legacy = res.model.sweep_per_point(grids, metrics.dominant_pole_hz)
    assert_same_surface(batched, legacy)


class TestEdgeGrids:
    def test_no_grids_is_nominal_point(self, fig1_model):
        batched = fig1_model.model.sweep({}, metrics.dc_gain)
        legacy = fig1_model.model.sweep_per_point({}, metrics.dc_gain)
        assert batched.shape == legacy.shape == ()
        nominal = metrics.dc_gain(fig1_model.model.rom({}))
        assert batched == pytest.approx(nominal, rel=1e-12)
        assert legacy == pytest.approx(nominal, rel=1e-12)

    def test_empty_axis(self, fig1_model):
        grids = {"C1": np.array([]), "C2": np.linspace(1e-12, 2e-12, 3)}
        batched = fig1_model.model.sweep(grids, metrics.dc_gain)
        legacy = fig1_model.model.sweep_per_point(grids, metrics.dc_gain)
        assert batched.shape == legacy.shape == (0, 3)
        assert batched.dtype == legacy.dtype

    def test_singleton_axes(self, fig1_model):
        grids = {"C1": np.array([2e-12]), "C2": np.array([1e-12])}
        batched = fig1_model.model.sweep(grids, metrics.dominant_pole_hz)
        legacy = fig1_model.model.sweep_per_point(grids,
                                                  metrics.dominant_pole_hz)
        assert batched.shape == (1, 1)
        assert_same_surface(batched, legacy)

    def test_unknown_grid_name_raises_both_paths(self, fig1_model):
        grids = {"R9": np.linspace(1.0, 2.0, 3)}
        with pytest.raises(ApproximationError, match="not a symbolic"):
            fig1_model.model.sweep(grids, metrics.dc_gain)
        with pytest.raises(ApproximationError, match="not a symbolic"):
            fig1_model.model.sweep_per_point(grids, metrics.dc_gain)

    def test_excessive_order_raises_both_paths(self, fig1_model):
        grids = {"C1": np.linspace(1e-12, 2e-12, 3)}
        with pytest.raises(ApproximationError, match="moments"):
            fig1_model.model.sweep(grids, metrics.dc_gain, order=9)
        with pytest.raises(ApproximationError, match="moments"):
            fig1_model.model.sweep_per_point(grids, metrics.dc_gain,
                                             order=9)


class TestComplexMetricDtype:
    """Regression for the sweep dtype bug: complex metric values used to be
    silently cast into a float output array."""

    def test_complex_metric_stays_complex(self, rlc_model):
        grids = {"C1": np.linspace(0.3e-12, 1.5e-12, 6),
                 "Rsrc": np.linspace(5.0, 40.0, 5)}
        metric = lambda m: complex(m.dominant_pole())  # noqa: E731
        batched = rlc_model.model.sweep(grids, metric)
        legacy = rlc_model.model.sweep_per_point(grids, metric)
        assert np.iscomplexobj(batched) and np.iscomplexobj(legacy)
        # the RLC line rings: some dominant poles are genuinely complex
        assert np.abs(batched.imag).max() > 0.0
        assert_same_surface(batched, legacy)

    def test_real_metric_collapses_to_float(self, rlc_model):
        grids = {"C1": np.linspace(0.3e-12, 1.5e-12, 4)}
        batched = rlc_model.model.sweep(grids, metrics.dc_gain)
        legacy = rlc_model.model.sweep_per_point(grids, metrics.dc_gain)
        assert batched.dtype == np.float64
        assert legacy.dtype == np.float64


class TestLoadedModelRuntime:
    def test_loaded_model_sweeps_batched(self, fig1_model):
        from repro.core.serialize import model_from_json, model_to_json

        loaded = model_from_json(model_to_json(fig1_model))
        grids = {"C1": np.linspace(0.5e-12, 5e-12, 9),
                 "C2": np.linspace(0.1e-12, 3e-12, 7)}
        reference = fig1_model.model.sweep(grids, metrics.dominant_pole_hz)
        via_loaded = loaded.sweep(grids, metrics.dominant_pole_hz)
        np.testing.assert_array_equal(via_loaded, reference)
        via_fn = batched_sweep(loaded, grids, metrics.dominant_pole_hz)
        np.testing.assert_array_equal(via_fn, reference)
        assert loaded.compile_seconds > 0.0
