"""Gain crossings as polynomial roots, checked against an independent oracle.

:func:`repro.core.metrics.gain_crossings` finds where ``|H(jω)|`` crosses
a level from the roots of a polynomial in ``x = ω²``.  The oracle here is
the method it replaced: scan ``|H(jω)|`` at 600 log-spaced samples of the
bracket ``[min|p|·1e-4, max|p|·1e4]``, take the first sign flip, and
bisect it in ω down to adjacent floats.  The two agree to 1e-9 with
identical NaN placement, except where the scan cannot see: two crossings
inside one scan step, which the roots find and the scan misses, and a
tangency, which is no crossing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import awesymbolic
from repro.awe import ReducedOrderModel
from repro.awe.pade import fast_poles_residues
from repro.circuits.builders import rlc_line
from repro.circuits.library import (fig1_circuit, paper_coupled_lines,
                                    small_signal_741, small_signal_ota)
from repro.circuits.library.coupled_lines import victim_output
from repro.core import metrics
from repro.errors import ApproximationError
from repro.runtime import VECTOR_METRICS, vector_poles_residues

SCAN_POINTS = 600
RTOL = 1e-9


# ----------------------------------------------------------------------
# test-only oracle: 600-sample log scan, then bisection in ω
# ----------------------------------------------------------------------
def transfer(poles, residues, omegas):
    """``H(jω)`` per lane; ``omegas`` is ``(..., n)``, poles ``(q, n)``."""
    s = 1j * np.asarray(omegas, dtype=float)
    return sum(r / (s - p) for p, r in zip(poles, residues))


def scan(poles, residues, level, points=SCAN_POINTS):
    """The bracket's log grid ``(points, n)`` and where ``|H| > level``."""
    mags = np.abs(poles)
    lo, hi = mags.min(axis=0) * 1e-4, mags.max(axis=0) * 1e4
    omegas = np.logspace(np.log10(lo), np.log10(hi), points, axis=0)
    return omegas, np.abs(transfer(poles, residues, omegas)) > level


def oracle_crossings(poles, residues, level):
    """First sign flip of ``|H(jω)| - level`` on the scan, bisected."""
    poles = np.asarray(poles, dtype=complex)
    residues = np.asarray(residues, dtype=complex)
    n = poles.shape[1]
    level = np.broadcast_to(np.asarray(level, dtype=float), (n,))
    omegas, above = scan(poles, residues, level)
    flips = above[:-1] != above[1:]
    found = flips.any(axis=0)
    first = np.argmax(flips, axis=0)
    cols = np.arange(n)
    a, b = omegas[first, cols], omegas[first + 1, cols]
    side = above[first, cols]
    for _ in range(80):  # 3 % of ω down to adjacent floats
        mid = 0.5 * (a + b)
        same = (np.abs(transfer(poles, residues, mid)) > level) == side
        a, b = np.where(same, mid, a), np.where(same, b, mid)
    return np.where(found, 0.5 * (a + b), np.nan)


def oracle_phase_margins(poles, residues):
    w = oracle_crossings(poles, residues, 1.0)
    with np.errstate(invalid="ignore"):
        return 180.0 + np.degrees(np.angle(transfer(poles, residues, w)))


def crowded_flips(poles, residues, level, refine=16):
    """Whether some scan step holds two or more sign flips, as a scan
    ``refine`` times denser sees them."""
    omegas, above = scan(poles, residues, level,
                         (SCAN_POINTS - 1) * refine + 1)
    steps = np.flatnonzero(above[:-1] != above[1:]) // refine
    return bool(np.any(steps[1:] == steps[:-1]))


def assert_same(got, ref, rtol=RTOL):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(ref))
    np.testing.assert_allclose(got, ref, rtol=rtol, equal_nan=True)


# ----------------------------------------------------------------------
# property: random stable real models of orders 1-4
# ----------------------------------------------------------------------
@st.composite
def real_models(draw):
    """Stable real pole sets (real poles and conjugate pairs) with
    residues real or conjugate to match, as columns ``(q, 1)``."""
    q = draw(st.integers(1, 4))
    pairs = draw(st.integers(0, q // 2))
    poles, residues = [], []
    for _ in range(pairs):
        w0 = 10.0 ** draw(st.floats(-2.0, 6.0))
        zeta = draw(st.floats(0.05, 0.99))
        p = complex(-zeta * w0, w0 * np.sqrt(1.0 - zeta * zeta))
        r = w0 * complex(draw(st.floats(-3.0, 3.0)),
                         draw(st.floats(-3.0, 3.0)))
        poles += [p, p.conjugate()]
        residues += [r, r.conjugate()]
    for _ in range(q - 2 * pairs):
        p = -(10.0 ** draw(st.floats(-2.0, 6.0)))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        r = sign * abs(p) * draw(st.floats(0.05, 3.0))
        poles.append(p)
        residues.append(r)
    return (np.array(poles, dtype=complex)[:, None],
            np.array(residues, dtype=complex)[:, None])


@settings(max_examples=400)
@given(model=real_models(), rel_level=st.floats(0.01, 1.2))
def test_roots_agree_with_scan_oracle(model, rel_level):
    poles, residues = model
    omegas, _ = scan(poles, residues, 0.0)
    level = rel_level * np.abs(transfer(poles, residues, omegas)).max()
    assume(not crowded_flips(poles, residues, level))
    got = metrics.gain_crossings(poles, residues, level)
    assert_same(got, oracle_crossings(poles, residues, level))
    # the scalar metric is the n = 1 call of the same routine
    rom = ReducedOrderModel(poles[:, 0], residues[:, 0])
    np.testing.assert_array_equal(
        metrics.gain_crossing_frequency(rom, level), got[0])


# ----------------------------------------------------------------------
# constructed cases: what the scan cannot see
# ----------------------------------------------------------------------
def resonance(zeta, order):
    """``1/(s² + 2ζs + 1)`` as poles/residues, padded to ``order`` with
    a zero-residue conjugate pair on the unit circle (same ``H``, same
    bracket, but the companion-matrix path above order 2)."""
    p = complex(-zeta, np.sqrt(1.0 - zeta * zeta))
    r = 1.0 / (p - p.conjugate())
    poles, residues = [p, p.conjugate()], [r, r.conjugate()]
    if order == 4:
        poles += [complex(-0.6, 0.8), complex(-0.6, -0.8)]
        residues += [0.0, 0.0]
    return (np.array(poles, dtype=complex)[:, None],
            np.array(residues, dtype=complex)[:, None])


@pytest.mark.parametrize("order", [2, 4])
def test_two_crossings_inside_one_scan_step(order):
    """Level just under a resonance peak: |H| rises through it and falls
    back 0.2 % later, between two scan samples.  The scan sees no flip;
    the roots give the first crossing."""
    zeta, delta = 0.05, 0.002
    peak_x = 1.0 - 2.0 * zeta * zeta
    level = 1.0 / np.sqrt(delta ** 2 + 4.0 * zeta ** 2 * (1.0 - zeta ** 2))
    poles, residues = resonance(zeta, order)
    assert np.isnan(oracle_crossings(*resonance(zeta, 2), level)[0])
    got = metrics.gain_crossings(poles, residues, level)
    np.testing.assert_allclose(got, np.sqrt(peak_x - delta), rtol=RTOL)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("zeta", [0.05, 0.2, 0.5])
def test_tangency_is_not_a_crossing(zeta, order):
    """The level equal to the resonance peak: a double root of G."""
    peak = 1.0 / (2.0 * zeta * np.sqrt(1.0 - zeta * zeta))
    poles, residues = resonance(zeta, order)
    assert np.isnan(metrics.gain_crossings(poles, residues, peak)[0])
    # just below the peak the two crossings are real again
    below = metrics.gain_crossings(poles, residues, peak * (1.0 - 1e-4))
    assert np.isfinite(below[0])


def test_level_not_positive_is_nan():
    poles, residues = resonance(0.5, 2)
    for level in (0.0, -1.0, np.nan):
        assert np.isnan(metrics.gain_crossings(poles, residues, level)[0])


def test_zero_dc_gain_bandwidth_is_nan_on_both_paths():
    """|H(0)| = 0 leaves no -3 dB level: NaN from the scalar metric and
    the VECTOR_METRICS entry alike, with no ApproximationError."""
    rom = ReducedOrderModel(poles=[-1.0, -2.0], residues=[1.0, -2.0])
    assert rom.dc_gain() == 0.0
    assert np.isnan(metrics.bandwidth_3db(rom))
    assert np.isnan(metrics.gain_bandwidth_product(rom))
    for metric in (metrics.bandwidth_3db, metrics.gain_bandwidth_product):
        values = VECTOR_METRICS[metric](rom.poles[:, None],
                                        rom.residues[:, None])
        assert np.isnan(values).all()


# ----------------------------------------------------------------------
# the paper's circuits at orders 1-4
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def circuits():
    """(model, grids) per circuit, compiled deep enough for order 4, on
    the differential suite's grids plus a 16x16 grid for the 741."""
    ss = small_signal_741()
    r741 = awesymbolic(ss.circuit, "out", symbols=["go_Q14", "Ccomp"],
                       order=4)
    go = r741.partition.symbolic[0].symbol.nominal
    ota = small_signal_ota()
    return {
        "741": (r741.model,
                {"go_Q14": np.linspace(0.5, 4.0, 16) * go,
                 "Ccomp": np.linspace(10e-12, 60e-12, 16)}),
        "fig1": (awesymbolic(fig1_circuit(), "out", symbols=["C1", "C2"],
                             order=4).model,
                 {"C1": np.linspace(0.5e-12, 5e-12, 11),
                  "C2": np.linspace(0.1e-12, 3e-12, 9)}),
        "ota": (awesymbolic(ota.circuit, "out", symbols=["Cc", "gds_M6"],
                            order=4).model,
                {"Cc": np.linspace(1e-12, 10e-12, 8),
                 "gds_M6": np.linspace(1e-6, 40e-6, 7)}),
        "lines": (awesymbolic(paper_coupled_lines(n_segments=6),
                              victim_output(6),
                              symbols=["Rdrv1", "Cload2"], order=4).model,
                  {"Rdrv1": np.linspace(10.0, 400.0, 8),
                   "Cload2": np.linspace(10e-15, 1e-12, 7)}),
        "rlc": (awesymbolic(rlc_line(3), "n3", symbols=["C1", "Rsrc"],
                            order=4).model,
                {"C1": np.linspace(0.3e-12, 1.5e-12, 6),
                 "Rsrc": np.linspace(5.0, 40.0, 5)}),
    }


def grid_roms(model, grids, order):
    """The per-point reduced-order model at every grid point (None where
    the reduction fails)."""
    names = list(grids)
    roms = []
    for idx in np.ndindex(*(len(grids[n]) for n in names)):
        values = {n: float(grids[n][i]) for n, i in zip(names, idx)}
        try:
            roms.append(model.rom(values, order=order))
        except ApproximationError:
            roms.append(None)
    return roms


ORACLES = {
    "unity_gain_frequency": lambda p, r: oracle_crossings(p, r, 1.0),
    "phase_margin": oracle_phase_margins,
    "bandwidth_3db": lambda p, r: oracle_crossings(
        p, r, np.abs(transfer(p, r, np.zeros(p.shape[1]))) / np.sqrt(2.0)),
}


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("name", ["741", "fig1", "ota", "lines", "rlc"])
def test_paper_circuits_agree_with_oracle(circuits, name, order):
    model, grids = circuits[name]
    roms = [rom for rom in grid_roms(model, grids, order) if rom is not None]
    if not roms:
        pytest.skip(f"no order-{order} model of {name} on this grid")
    for metric_name, oracle in ORACLES.items():
        metric = getattr(metrics, metric_name)
        got = np.array([metric(rom) for rom in roms])
        ref = np.array([oracle(rom.poles[:, None], rom.residues[:, None])[0]
                        for rom in roms])
        assert_same(got, ref)


def test_order2_pade_lanes_equal_scalar_closed_form():
    """The bit-identity below rests on the vector order-2 Padé repeating
    the scalar closed form's IEEE operations, conjugate pairs included."""
    rng = np.random.default_rng(7)
    moments = (rng.normal(size=(4, 2000))
               * 10.0 ** rng.integers(-6, 6, size=(4, 2000)))
    poles, residues, ok = vector_poles_residues(moments, 2)
    pairs = 0
    for i in np.flatnonzero(ok):
        p, r = fast_poles_residues(moments[:, i], 2)
        np.testing.assert_array_equal(np.array(p, dtype=complex), poles[:, i])
        np.testing.assert_array_equal(np.array(r, dtype=complex),
                                      residues[:, i])
        pairs += bool(np.imag(p[0]))
    assert ok.sum() > 1500 and pairs > 500


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("name", ["741", "fig1", "ota", "rlc"])
@pytest.mark.parametrize("metric", [
    metrics.unity_gain_frequency, metrics.phase_margin,
    metrics.bandwidth_3db, metrics.gain_bandwidth_product,
], ids=lambda m: m.__name__)
def test_sweep_equals_per_point_bit_for_bit(circuits, name, order, metric):
    model, grids = circuits[name]
    batched = model.sweep(grids, metric, order)
    legacy = model.sweep_per_point(grids, metric, order)
    np.testing.assert_array_equal(np.asarray(batched), np.asarray(legacy))
