"""Reduced-order models: pole/residue form with time- and frequency-domain
evaluation.

An AWE model is ``H(s) = Σᵢ rᵢ / (s - pᵢ)`` (the direct-coupling term is
zero for the strictly-proper transfer functions MNA circuits produce).
Everything the paper plots — Bode surfaces, DC gain, unity-gain frequency,
phase margin, step-response crosstalk — evaluates through this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ApproximationError


@dataclass(frozen=True)
class ReducedOrderModel:
    """Pole/residue reduced-order model of a transfer function.

    Attributes:
        poles: complex poles (rad/s).
        residues: matching residues.
        order_requested: the Padé order originally asked for.
        scale: the frequency scale used during Padé (diagnostic).
        dropped_unstable: number of orders discarded to reach stability.
    """

    poles: np.ndarray
    residues: np.ndarray
    order_requested: int = 0
    scale: float = 1.0
    dropped_unstable: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "poles", np.atleast_1d(np.asarray(self.poles, dtype=complex)))
        object.__setattr__(self, "residues", np.atleast_1d(np.asarray(self.residues, dtype=complex)))
        if self.poles.shape != self.residues.shape:
            raise ApproximationError("poles and residues must have equal length")
        if len(self.poles) == 0:
            raise ApproximationError("empty reduced-order model")

    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        return len(self.poles)

    @property
    def stable(self) -> bool:
        return bool(np.all(self.poles.real < 0.0))

    def dominant_pole(self) -> complex:
        """The stable pole nearest the jω axis (smallest |Re|)."""
        return self.poles[np.argmin(np.abs(self.poles.real))]

    def dc_gain(self) -> float:
        """``H(0) = -Σ rᵢ/pᵢ`` — exact (AWE always matches m0).

        The real part: conjugate-pair residues cancel the imaginary part
        up to rounding, which may exceed any fixed closeness tolerance.
        """
        return float(np.sum(-self.residues / self.poles).real)

    def numerator_coefficients(self) -> np.ndarray:
        """Coefficients (ascending powers of s) of the model's numerator
        ``N(s) = Σᵢ rᵢ Πⱼ≠ᵢ (s - pⱼ)`` over the monic pole polynomial."""
        n = self.order
        acc = np.zeros(n, dtype=complex)
        for i in range(n):
            others = np.delete(self.poles, i)
            # np.poly gives descending coefficients of prod (s - p_j)
            coeffs = np.poly(others)[::-1] if n > 1 else np.array([1.0])
            acc[:len(coeffs)] += self.residues[i] * coeffs
        return acc

    def zeros(self) -> np.ndarray:
        """Finite transmission zeros of the reduced-order model.

        Tiny leading numerator coefficients (an all-pole response) are
        trimmed, so the result may have fewer than ``order - 1`` entries.
        """
        coeffs = self.numerator_coefficients()
        scale = np.max(np.abs(coeffs)) if len(coeffs) else 0.0
        if scale == 0.0:
            return np.array([])
        keep = len(coeffs)
        while keep > 1 and abs(coeffs[keep - 1]) < 1e-10 * scale:
            keep -= 1
        if keep <= 1:
            return np.array([])
        return np.roots(coeffs[:keep][::-1])

    # ------------------------------------------------------------------
    # frequency domain
    # ------------------------------------------------------------------
    def transfer(self, s: complex | np.ndarray) -> np.ndarray:
        """Evaluate ``H(s)`` at complex frequencies (vectorized)."""
        s = np.asarray(s, dtype=complex)
        return (self.residues / (s[..., None] - self.poles)).sum(axis=-1)

    def frequency_response(self, omegas: np.ndarray) -> np.ndarray:
        """``H(jω)`` over an array of angular frequencies."""
        return self.transfer(1j * np.asarray(omegas, dtype=float))

    def bode(self, omegas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Magnitude (dB) and phase (degrees, unwrapped) over ``omegas``."""
        h = self.frequency_response(omegas)
        mag_db = 20.0 * np.log10(np.maximum(np.abs(h), 1e-300))
        phase_deg = np.degrees(np.unwrap(np.angle(h)))
        return mag_db, phase_deg

    # ------------------------------------------------------------------
    # time domain
    # ------------------------------------------------------------------
    def impulse_response(self, t: np.ndarray) -> np.ndarray:
        """``h(t) = Σ rᵢ e^{pᵢ t}`` for ``t >= 0``."""
        t = np.asarray(t, dtype=float)
        out = (self.residues * np.exp(np.outer(t, self.poles))).sum(axis=-1)
        return np.real_if_close(out, tol=1e6).real

    def step_response(self, t: np.ndarray) -> np.ndarray:
        """Unit-step response ``y(t) = H(0) + Σ (rᵢ/pᵢ) e^{pᵢ t}``."""
        t = np.asarray(t, dtype=float)
        coeffs = self.residues / self.poles
        out = self.dc_gain() + (coeffs * np.exp(np.outer(t, self.poles))).sum(axis=-1)
        return np.real_if_close(out, tol=1e6).real

    def ramp_response(self, t: np.ndarray, rise_time: float) -> np.ndarray:
        """Saturated-ramp input response via superposed shifted step integrals.

        The input ramps 0→1 over ``rise_time`` then holds (the standard
        interconnect excitation).  Uses the analytic integral of the step
        response: ``y_ramp(t) = (Y(t) - Y(t - T)) / T`` with
        ``Y(t) = ∫₀ᵗ y_step``.
        """
        if rise_time <= 0.0:
            return self.step_response(t)
        t = np.asarray(t, dtype=float)

        def integral(tt: np.ndarray) -> np.ndarray:
            tt = np.maximum(tt, 0.0)
            coeffs = self.residues / self.poles ** 2
            base = self.dc_gain() * tt
            expo = (coeffs * (np.exp(np.outer(tt, self.poles)) - 1.0)).sum(axis=-1)
            return base + np.real_if_close(expo, tol=1e6).real

        return (integral(t) - integral(t - rise_time)) / rise_time

    # ------------------------------------------------------------------
    # derived timing metrics
    # ------------------------------------------------------------------
    def settle_time_hint(self) -> float:
        """~5 dominant time constants; a safe horizon for plotting/steps."""
        taus = 1.0 / np.abs(self.poles.real.clip(max=-1e-300))
        return float(5.0 * taus.max())

    def delay_50(self, horizon: float | None = None, n: int = 4096) -> float:
        """50% crossing time of the unit-step response (NaN if never crossed)."""
        return self.threshold_crossing(0.5, horizon=horizon, n=n)

    def threshold_crossing(self, fraction: float, horizon: float | None = None,
                           n: int = 4096) -> float:
        """First time the step response crosses ``fraction * H(0)``."""
        target = fraction * self.dc_gain()
        horizon = horizon if horizon is not None else self.settle_time_hint()
        t = np.linspace(0.0, horizon, n)
        y = self.step_response(t)
        rising = self.dc_gain() >= 0
        hit = np.nonzero(y >= target if rising else y <= target)[0]
        hit = hit[hit > 0]
        if len(hit) == 0:
            return float("nan")
        i = hit[0]
        # linear interpolation between samples
        t0, t1, y0, y1 = t[i - 1], t[i], y[i - 1], y[i]
        if y1 == y0:
            return float(t1)
        return float(t0 + (target - y0) * (t1 - t0) / (y1 - y0))

    def peak_response(self, horizon: float | None = None,
                      n: int = 4096) -> tuple[float, float]:
        """(time, value) of the absolute peak of the step response —
        the crosstalk figure of merit for Figures 9/10."""
        horizon = horizon if horizon is not None else self.settle_time_hint()
        t = np.linspace(0.0, horizon, n)
        y = self.step_response(t)
        i = int(np.argmax(np.abs(y)))
        return float(t[i]), float(y[i])

    # ------------------------------------------------------------------
    def stable_part(self) -> "ReducedOrderModel":
        """Model with right-half-plane poles removed.

        Raises:
            ApproximationError: if no stable poles remain.
        """
        keep = self.poles.real < 0.0
        if not np.any(keep):
            raise ApproximationError("model has no stable poles")
        return ReducedOrderModel(self.poles[keep], self.residues[keep],
                                 order_requested=self.order_requested,
                                 scale=self.scale,
                                 dropped_unstable=self.dropped_unstable)

    def __repr__(self) -> str:
        flags = "" if self.stable else " UNSTABLE"
        return (f"ReducedOrderModel(order={self.order}{flags}, "
                f"dc_gain={self.dc_gain():.6g}, "
                f"dominant_pole={self.dominant_pole():.6g})")
