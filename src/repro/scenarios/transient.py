"""Compiled transient analysis: analytic convolution of exponentials.

Once a circuit is compiled to poles/residues, its time response to any
piecewise-linear input is a *closed form* — no time-stepping, no LU, no
companion models.  For ``H(s) = Σᵢ rᵢ/(s - pᵢ)`` and an input decomposed
into step and ramp-onset events (see :meth:`Waveform.events`), the
zero-state response is

    y(t) = Σᵢ rᵢ [ Σₖ sₖ · S(pᵢ, t - tsₖ)  +  Σⱼ aⱼ · R(pᵢ, t - trⱼ) ]

    S(p, τ) = (e^{pτ} - 1) / p          (step kernel,  τ ≥ 0)
    R(p, τ) = (e^{pτ} - 1 - pτ) / p²    (ramp kernel,  τ ≥ 0)

both identically zero for τ < 0.  Evaluating the whole time grid is a
handful of vectorized array ops per (pole, event) pair — the same
"re-evaluation is essentially free" economics the batched sweep runtime
exploits, applied to the time axis.  The inner loop reuses preallocated
buffers (``np.exp``/``np.multiply`` with ``out=``) in the style of the
PR-4 in-place vector kernel, so a dense time grid allocates O(n_t) once,
not O(n_t · n_events · order).

Correctness is pinned differentially against the trapezoidal reference
in :mod:`repro.analysis.tran` by :mod:`repro.testing.differential` and
``tests/scenarios/`` — same waveform object on both sides, tolerance
ladder tied to the stability flags of :mod:`repro.awe.stability`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..awe.model import ReducedOrderModel
from ..errors import ApproximationError
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .waveforms import Waveform, step

__all__ = ["TransientScenario", "transient_response", "compiled_transient"]


def _compiled(model):
    """Accept an :class:`AWESymbolicResult` wherever a compiled model is
    expected (``.model`` holds the actual :class:`CompiledAWEModel`)."""
    return model.model if hasattr(model, "model") else model


class _Workspace:
    """Preallocated scratch arrays for one time grid (PR-4 kernel style:
    every inner-loop array op writes into one of these, so the whole
    convolution allocates a fixed handful of ``t``-shaped buffers)."""

    def __init__(self, shape: tuple[int, ...]) -> None:
        self.tau = np.empty(shape, dtype=float)
        self.live = np.empty(shape, dtype=bool)
        self.work = np.empty(shape, dtype=complex)
        self.work2 = np.empty(shape, dtype=complex)


def _accumulate_events(poles: np.ndarray, residues: np.ndarray,
                       t: np.ndarray, event_t: np.ndarray,
                       weights: np.ndarray, kernel: str,
                       out: np.ndarray, ws: _Workspace) -> None:
    """``out += Σᵢ rᵢ Σₖ wₖ · kernel(pᵢ, t - tₖ)`` with buffer reuse.

    ``kernel`` is ``"step"`` (``S``) or ``"ramp"`` (``R``) from the module
    docstring.  The loop is over the (small) pole × event product, the
    array ops over the (large) time grid.
    """
    tau, live, work, work2 = ws.tau, ws.live, ws.work, ws.work2
    for tk, w in zip(event_t, weights):
        np.subtract(t, tk, out=tau)
        np.greater_equal(tau, 0.0, out=live)
        if not live.any():
            continue
        np.multiply(tau, live, out=tau)  # clamp τ < 0 to 0: kernel(p,0)=0
        for p, r in zip(poles, residues):
            np.multiply(tau, p, out=work)
            np.exp(work, out=work)
            work -= 1.0
            if kernel == "step":
                work /= p
            else:
                np.multiply(tau, p, out=work2)
                work -= work2
                work /= p * p
            np.multiply(work, live, out=work)  # exact zeros off-support
            work *= r * w
            out += work


def transient_response(model: ReducedOrderModel, waveform: Waveform,
                       t: np.ndarray) -> np.ndarray:
    """Zero-state response of a pole/residue model to ``waveform``.

    Args:
        model: reduced-order model (any order; complex poles welcome).
        waveform: input ``u(t)`` (see :mod:`repro.scenarios.waveforms`).
        t: time points, ``t >= 0`` (need not be uniform or sorted).

    Returns:
        ``y(t)`` as a float array of ``t``'s shape (the imaginary residue
        of conjugate-pair arithmetic is discarded after a sanity check).
    """
    t = np.asarray(t, dtype=float)
    if np.any(model.poles == 0.0):
        raise ApproximationError(
            "transient convolution needs nonzero poles (a pole at s=0 "
            "has no bounded step response)")
    step_t, step_h, ramp_t, ramp_a = waveform.events()
    out = np.zeros(t.shape, dtype=complex)
    ws = _Workspace(t.shape)
    _accumulate_events(model.poles, model.residues, t, step_t, step_h,
                       "step", out, ws)
    _accumulate_events(model.poles, model.residues, t, ramp_t, ramp_a,
                       "ramp", out, ws)
    return np.real_if_close(out, tol=1e6).real


@dataclass(frozen=True)
class TransientScenario:
    """One compiled transient run.

    Attributes:
        t: time grid.
        y: output waveform (zero-state response; add the DC operating
            value for absolute node voltages).
        model: the reduced-order model the response was computed from.
        waveform: the input.
        element_values: off-nominal element overrides used (empty for the
            nominal model).
        seconds: wall time of the evaluation (excluding compile).
    """

    t: np.ndarray
    y: np.ndarray
    model: ReducedOrderModel
    waveform: Waveform
    element_values: dict[str, float]
    seconds: float

    @property
    def samples_per_second(self) -> float:
        return self.t.size / self.seconds if self.seconds > 0 else 0.0

    def final_value(self) -> float:
        """Analytic settled value ``H(0) · u(∞)`` (not the last sample)."""
        return float(self.model.dc_gain() * self.waveform.values[-1])

    def peak(self) -> tuple[float, float]:
        """(time, value) of the absolute peak over the computed grid."""
        i = int(np.argmax(np.abs(self.y)))
        return float(self.t[i]), float(self.y[i])

    def summary(self) -> str:
        tpk, vpk = self.peak()
        return (f"transient [{self.waveform.label}]: {self.t.size} points "
                f"over {self.t[-1]:g}s, final {self.final_value():.6g}, "
                f"peak {vpk:.6g} @ {tpk:.3g}s "
                f"({self.samples_per_second:,.0f} samples/s)")


def compiled_transient(model, waveform: Waveform | None = None,
                       t: np.ndarray | None = None,
                       t_stop: float | None = None, n_points: int = 501,
                       element_values: Mapping[str, float] | None = None,
                       order: int | None = None,
                       require_stable: bool = True) -> TransientScenario:
    """Closed-form transient of a compiled AWE model.

    The per-scenario cost is one compiled-moment evaluation plus a tiny
    Padé (microseconds) and then the analytic convolution over the time
    grid — a new ``(element values, waveform)`` scenario is just "more
    points", never a new circuit solve.

    Args:
        model: :class:`~repro.core.compiled_model.CompiledAWEModel` or a
            loaded :class:`~repro.symbolic.tape.TapeModel`.
        waveform: input (default: unit step).
        t: explicit time grid; when None, ``n_points`` linear points over
            ``t_stop`` (default: the model's settle-time hint plus the
            waveform's last breakpoint).
        element_values: off-nominal element overrides.
        order: Padé order (default: the model's compiled order).
        require_stable: demand stable poles, retrying lower orders (the
            resulting ``dropped_unstable`` flag picks the tolerance rung
            in differential verification).

    Raises:
        ApproximationError: no stable reduction, or a pole at s = 0.
    """
    waveform = waveform if waveform is not None else step()
    rom = _compiled(model).rom(dict(element_values or {}), order=order,
                               require_stable=require_stable)
    if require_stable and not rom.stable:
        raise ApproximationError(
            "transient of an unstable model diverges; pass "
            "require_stable=False to compute it anyway")
    t0 = time.perf_counter()
    if t is None:
        horizon = t_stop if t_stop is not None else (
            rom.settle_time_hint() + waveform.horizon_hint())
        t = np.linspace(0.0, float(horizon), int(n_points))
    else:
        t = np.asarray(t, dtype=float)
    with _trace.span("scenario.transient", points=int(t.size),
                     order=rom.order):
        y = transient_response(rom, waveform, t)
    seconds = time.perf_counter() - t0
    reg = _metrics.registry()
    reg.counter("repro_scenario_tran_runs_total",
                "compiled transient scenarios evaluated").inc()
    reg.counter("repro_scenario_tran_points_total",
                "time points evaluated by compiled transients").inc(t.size)
    reg.histogram("repro_scenario_tran_seconds",
                  "wall time of one compiled transient").observe(seconds)
    return TransientScenario(t=t, y=y, model=rom, waveform=waveform,
                             element_values=dict(element_values or {}),
                             seconds=seconds)
