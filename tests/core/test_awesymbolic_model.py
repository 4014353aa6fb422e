"""End-to-end tests for awesymbolic() and the compiled model, including the
identity contract with numeric AWE."""

import numpy as np
import pytest

from repro import awesymbolic
from repro.awe import awe
from repro.circuits import Circuit, builders
from repro.core.metrics import (bandwidth_3db, dominant_pole_hz, phase_margin,
                                unity_gain_frequency)
from repro.errors import ApproximationError


@pytest.fixture
def amp():
    """Two-stage gm amplifier with Miller-ish pole structure."""
    ckt = Circuit("amp")
    ckt.V("Vin", "in", "0", ac=1.0)
    ckt.R("Rs", "in", "g1", 1000.0)
    ckt.C("Cin", "g1", "0", 1e-12)
    ckt.vccs("gm1", "d1", "0", "g1", "0", 1e-3)
    ckt.R("Ro1", "d1", "0", 100_000.0)
    ckt.C("Cc", "d1", "out", 30e-12)      # compensation cap
    ckt.vccs("gm2", "out", "0", "d1", "0", 5e-3)
    ckt.R("Ro2", "out", "0", 50_000.0)
    ckt.C("CL", "out", "0", 10e-12)
    return ckt


class TestAwesymbolicPipeline:
    def test_explicit_symbols(self, amp):
        result = awesymbolic(amp, "out", symbols=["Cc", "Ro2"], order=2)
        assert result.symbols == ["Cc", "Ro2"]
        assert not result.selected_automatically
        assert result.first_order is not None
        assert result.second_order is not None

    def test_automatic_selection_picks_compensation_cap(self, amp):
        result = awesymbolic(amp, "out", symbols=None, n_symbols=2, order=2)
        assert result.selected_automatically
        assert "Cc" in result.symbols  # the Miller cap dominates the response

    def test_identity_with_numeric_awe(self, amp):
        """The paper's exactness claim at the model level: compiled
        AWEsymbolic poles == numeric AWE poles at arbitrary values."""
        result = awesymbolic(amp, "out", symbols=["Cc", "Ro2"], order=2)
        for values in [{}, {"Cc": 10e-12, "Ro2": 20_000.0},
                       {"Cc": 60e-12, "Ro2": 200_000.0}]:
            rom_sym = result.rom(values)
            numeric = amp.copy()
            for k, v in values.items():
                numeric.replace_value(k, v)
            rom_num = awe(numeric, "out", order=2).model
            # dominant pole tight; the far pole is ill-conditioned in the
            # Hankel solve so a ~1e-9 moment difference moves it by ~1e-4
            assert rom_sym.dominant_pole().real == pytest.approx(
                rom_num.dominant_pole().real, rel=1e-6)
            np.testing.assert_allclose(
                np.sort(rom_sym.poles.real), np.sort(rom_num.poles.real),
                rtol=2e-3)
            assert rom_sym.dc_gain() == pytest.approx(rom_num.dc_gain(),
                                                      rel=1e-9)
            # behavioral identity: frequency responses agree through the band
            # (up to ~the unity crossing; beyond the far pole its ~1e-4
            # conditioning shift dominates)
            w = np.logspace(2, 8, 40)
            np.testing.assert_allclose(
                np.abs(rom_sym.frequency_response(w)),
                np.abs(rom_num.frequency_response(w)), rtol=1e-3)

    def test_closed_form_matches_numeric_pade(self, amp):
        result = awesymbolic(amp, "out", symbols=["Cc"], order=2)
        values = {"Cc": 15e-12}
        a = result.model.rom(values)
        b = result.model.rom_closed_form(values, order=2)
        np.testing.assert_allclose(np.sort(a.poles.real), np.sort(b.poles.real),
                                   rtol=1e-3)
        assert a.dominant_pole().real == pytest.approx(b.dominant_pole().real,
                                                       rel=1e-6)

    def test_moments_at(self, amp):
        result = awesymbolic(amp, "out", symbols=["CL"], order=2)
        m = result.model.moments_at({})
        want = awe(amp, "out", order=2, extra_moments=2).moments
        np.testing.assert_allclose(m, want[:len(m)], rtol=1e-8)

    def test_n_ops_reported(self, amp):
        result = awesymbolic(amp, "out", symbols=["Cc"], order=1)
        assert 0 < result.model.n_ops < 100_000

    def test_rom_order_exceeding_moments_raises(self, amp):
        result = awesymbolic(amp, "out", symbols=["Cc"], order=1,
                             extra_moments=0)
        with pytest.raises(ApproximationError):
            result.model.rom(order=4)


class TestMetrics:
    def test_opamp_like_numbers(self, amp):
        rom = awe(amp, "out", order=2).model
        dc = rom.dc_gain()
        assert dc > 1e3  # two gain stages
        wu = unity_gain_frequency(rom)
        assert np.isfinite(wu) and wu > 0
        pm = phase_margin(rom)
        assert 0 < pm < 180
        bw = bandwidth_3db(rom)
        assert bw < wu  # high-gain amp: bandwidth well below unity crossing

    def test_single_pole_analytics(self):
        from repro.awe import ReducedOrderModel
        # H = 100/(1 + s/10): dc 100, pole -10
        rom = ReducedOrderModel(poles=[-10.0], residues=[1000.0])
        assert rom.dc_gain() == pytest.approx(100.0)
        assert bandwidth_3db(rom) == pytest.approx(10.0, rel=1e-6)
        # unity crossing at w where 100/sqrt(1+(w/10)^2)=1 -> w ~ 1000
        assert unity_gain_frequency(rom) == pytest.approx(
            10.0 * np.sqrt(100.0 ** 2 - 1), rel=1e-6)
        # single-pole amp: PM = 180 - atan(w_u / |p|) = 90.57 deg here
        expected_pm = 180.0 - np.degrees(np.arctan2(np.sqrt(100.0 ** 2 - 1), 1.0))
        assert phase_margin(rom) == pytest.approx(expected_pm, abs=0.01)
        assert dominant_pole_hz(rom) == pytest.approx(10.0 / (2 * np.pi))

    def test_no_unity_crossing_returns_nan(self):
        from repro.awe import ReducedOrderModel
        rom = ReducedOrderModel(poles=[-10.0], residues=[1.0])  # dc gain 0.1
        assert np.isnan(unity_gain_frequency(rom))
        assert np.isnan(phase_margin(rom))


class TestSweep:
    def test_dc_gain_surface(self, amp):
        result = awesymbolic(amp, "out", symbols=["Cc", "Ro2"], order=2)
        grid = {
            "Cc": np.linspace(10e-12, 60e-12, 4),
            "Ro2": np.linspace(10_000.0, 100_000.0, 3),
        }
        surface = result.model.sweep(grid, lambda rom: rom.dc_gain())
        assert surface.shape == (4, 3)
        # dc gain rises with Ro2, independent of Cc
        assert np.all(np.diff(surface, axis=1) > 0)
        np.testing.assert_allclose(surface[0], surface[-1], rtol=1e-9)

    def test_sweep_nan_on_degenerate_points(self):
        ckt = Circuit("tiny")
        ckt.I("Iin", "0", "a", ac=1.0)
        ckt.G("G1", "a", "0", 1e-3)
        ckt.C("C1", "a", "0", 1e-12)
        result = awesymbolic(ckt, "a", symbols=["C1"], order=1)
        surface = result.model.sweep({"C1": np.array([1e-12, 0.0])},
                                     lambda rom: rom.dc_gain())
        assert np.isfinite(surface[0])
        assert np.isnan(surface[1])  # C=0 kills the pole: degenerate Padé


class TestMomentsAt:
    @pytest.mark.parametrize("name", ["fig1", "741"])
    def test_moments_at_equals_scalars_bitwise(self, name):
        """``moments_at`` unscales with the ``scale *= det`` ladder of
        ``CompiledMoments.scalars`` (what ``rom()`` uses), so both give
        the same moments bit for bit."""
        from repro.circuits.library import fig1_circuit, small_signal_741

        if name == "fig1":
            result = awesymbolic(fig1_circuit(), "out", symbols=["C1", "C2"],
                                 order=2)
        else:
            result = awesymbolic(small_signal_741().circuit, "out",
                                 symbols=["go_Q14", "Ccomp"], order=2)
        model = result.model
        rng = np.random.default_rng(11)
        for _ in range(300):
            values = {se.name: float(se.element.value) * rng.uniform(0.3, 3.0)
                      for se in result.partition.symbolic}
            got = np.asarray(model.moments_at(values), dtype=float)
            want = np.asarray(model.compiled_moments.scalars(
                model._values_vector(values)), dtype=float)
            assert got.tobytes() == want.tobytes()
