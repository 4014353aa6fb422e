"""Differential verification: compiled transient vs trapezoidal stepping.

Every test runs the analytic-convolution engine and the time-stepping
reference on the *same* waveform object and the *same* circuit, and
demands agreement within the tolerance ladder of
:mod:`repro.testing.differential` — across the paper's three circuits,
every Padé order the compiled models carry, and the full waveform zoo.
"""

import numpy as np
import pytest

from repro.errors import ApproximationError
from repro.awe.model import ReducedOrderModel
from repro.scenarios import (compiled_transient, pulse, pwl, ramp, step,
                             transient_response)
from repro.testing import FaultInjector
from repro.testing.differential import ToleranceLadder, compare_transient


def drop_order3():
    """An injector whose armed scope fails every order-3 Hankel solve,
    so a requested order 3 falls back to order 2 and counts a dropped
    order — whether fig1's order-3 Padé is unstable is rounding noise
    (its third pole's residue is ~1e-13)."""
    return FaultInjector().raises(
        "pade.hankel", ApproximationError("order 3 forced to drop"),
        times=None, when=lambda p: p["order"] == 3)


def scaled_waveforms(t_char):
    """The waveform zoo, timed to the circuit's own settling scale."""
    return [
        ("step", step()),
        ("delayed_step", step(2.0, delay=0.3 * t_char)),
        ("ramp", ramp(0.5 * t_char)),
        ("pulse", pulse(0.0, 1.0, 0.1 * t_char, 0.2 * t_char,
                        t_char, 0.2 * t_char)),
        ("ideal_pulse", pulse(0.0, 1.0, 0.1 * t_char, 0.0,
                              t_char, 0.0)),
        ("pwl", pwl([(0.0, 0.0), (0.3 * t_char, 0.7),
                     (0.6 * t_char, 0.2), (t_char, 1.0)])),
    ]


class TestAcrossCircuitsAndWaveforms:
    @pytest.mark.parametrize("circuit", ["fig1", "m741", "ota"])
    @pytest.mark.parametrize("shape", ["step", "delayed_step", "ramp",
                                       "pulse", "ideal_pulse", "pwl"])
    def test_matches_trapezoidal(self, circuit, shape, request):
        setup = request.getfixturevalue(f"{circuit}_setup")
        t_char = setup.model.rom({}).settle_time_hint()
        wf = dict(scaled_waveforms(t_char))[shape]
        # ideal jumps excite the trapezoidal stepper's own ringing; give
        # the reference enough resolution that its error stays below ours
        ref_steps = 40000 if shape == "ideal_pulse" else 8000
        cmp = compare_transient(setup.model, setup.system, setup.output,
                                wf, ref_steps=ref_steps)
        cmp.assert_passed()
        # the order-2 fits of these circuits are far better than the
        # nominal rung requires — pin that headroom so regressions show
        assert cmp.max_rel_error < 0.01, cmp.describe()


class TestAcrossOrders:
    @pytest.mark.parametrize("circuit", ["fig1", "m741", "ota"])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_every_pade_order(self, circuit, order, request):
        setup = request.getfixturevalue(f"{circuit}_setup")
        cmp = compare_transient(setup.model, setup.system, setup.output,
                                step(), order=order)
        cmp.assert_passed()

    def test_exact_rung_for_fig1_order2(self, fig1_setup):
        """fig1 has two caps: at order 2 the reduction is exact and only
        the reference's discretization error remains."""
        cmp = compare_transient(fig1_setup.model, fig1_setup.system,
                                fig1_setup.output, step(),
                                order=fig1_setup.exact_order,
                                ref_steps=40000, exact=True)
        assert cmp.rung == "exact"
        cmp.assert_passed()

    def test_degraded_rung_when_orders_dropped(self, fig1_setup):
        """An order the stability fallback drops selects the loose
        rung."""
        with drop_order3().armed():
            rom = fig1_setup.model.rom({}, order=3)
            cmp = compare_transient(fig1_setup.model, fig1_setup.system,
                                    fig1_setup.output, step(), order=3)
        assert rom.dropped_unstable > 0
        assert cmp.rung == "degraded"
        cmp.assert_passed()


class TestOffNominal:
    def test_element_override_matches_manual_rom(self, fig1_setup):
        """compiled_transient(element_values=...) must equal evaluating
        the overridden ROM directly."""
        values = {"C1": 1.7, "C2": 0.4}
        sc = compiled_transient(fig1_setup.model, element_values=values)
        rom = fig1_setup.model.rom(values)
        np.testing.assert_allclose(sc.y,
                                   transient_response(rom, step(), sc.t))


class TestScenarioObject:
    def test_final_value_is_dc_gain_times_input(self, fig1_setup):
        sc = compiled_transient(fig1_setup.model, waveform=step(3.0))
        assert sc.final_value() == pytest.approx(
            3.0 * fig1_setup.model.rom({}).dc_gain())
        # the computed trajectory actually settles there
        assert sc.y[-1] == pytest.approx(sc.final_value(), rel=1e-2)

    def test_default_grid_covers_settling(self, fig1_setup):
        sc = compiled_transient(fig1_setup.model, n_points=257)
        assert sc.t[0] == 0.0 and sc.t.size == 257
        assert sc.t[-1] >= fig1_setup.model.rom({}).settle_time_hint()

    def test_explicit_grid_is_respected(self, fig1_setup):
        t = np.array([0.0, 0.5, 2.0, 7.0])
        sc = compiled_transient(fig1_setup.model, t=t)
        np.testing.assert_array_equal(sc.t, t)
        assert sc.y.shape == t.shape

    def test_summary_mentions_waveform(self, fig1_setup):
        sc = compiled_transient(fig1_setup.model, waveform=ramp(1.0))
        assert "ramp" in sc.summary()

    def test_zero_input_gives_zero_output(self, fig1_setup):
        rom = fig1_setup.model.rom({})
        y = transient_response(rom, pwl([(0.0, 0.0)]),
                               np.linspace(0, 5, 64))
        np.testing.assert_array_equal(y, np.zeros(64))

    def test_complex_poles_give_real_response(self):
        """Conjugate pole pairs must come out purely real."""
        rom = ReducedOrderModel(
            poles=np.array([-1.0 + 5.0j, -1.0 - 5.0j]),
            residues=np.array([0.5 - 0.3j, 0.5 + 0.3j]))
        y = transient_response(rom, step(), np.linspace(0, 6, 200))
        assert y.dtype.kind == "f"
        # damped oscillation: must actually cross its settled value
        final = rom.dc_gain()
        assert (np.sign(y[1:] - final) != np.sign(y[:-1] - final)).any()

    def test_pole_at_origin_rejected(self, fig1_setup):
        rom = ReducedOrderModel(poles=np.array([0.0 + 0.0j]),
                                residues=np.array([1.0 + 0.0j]))
        with pytest.raises(ApproximationError):
            transient_response(rom, step(), np.linspace(0, 1, 8))


class TestLadder:
    def test_rung_selection(self, fig1_setup):
        ladder = ToleranceLadder()
        rom2 = fig1_setup.model.rom({}, order=2)
        with drop_order3().armed():
            rom3 = fig1_setup.model.rom({}, order=3)
        assert ladder.rung(rom2) == ("nominal", ladder.nominal)
        assert ladder.rung(rom2, exact=True) == ("exact", ladder.exact)
        assert ladder.rung(rom3) == ("degraded", ladder.degraded)
        # degraded wins even when the caller claims exactness
        assert ladder.rung(rom3, exact=True)[0] == "degraded"

    def test_rungs_are_ordered(self):
        ladder = ToleranceLadder()
        assert ladder.exact < ladder.nominal < ladder.degraded
