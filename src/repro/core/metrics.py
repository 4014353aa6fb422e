"""Performance metrics evaluated on reduced-order models.

These are the quantities the paper plots against the symbolic parameters:
DC gain (Fig. 5), dominant pole (Fig. 4), unity-gain frequency (Fig. 6),
phase margin (Fig. 7), and step-response crosstalk peaks (Figs. 9/10 via
:meth:`~repro.awe.model.ReducedOrderModel.peak_response`).

Gain crossings are polynomial roots, found for a whole array of models
at once by :func:`gain_crossings`.  The scalar crossing metrics are its
n = 1 call, and :data:`repro.runtime.batched.VECTOR_METRICS` runs the
same array code over a sweep, so both paths give identical values.
"""

from __future__ import annotations

import numpy as np

from ..awe.model import ReducedOrderModel
from ..errors import ApproximationError

#: real roots of the crossing polynomial closer than this (relative, in
#: x = ω²) are one even root: rounding splits a double root ~1e-8 apart
_TANGENT_RTOL = 1e-6


def dc_gain(model: ReducedOrderModel) -> float:
    """``H(0)`` as a free function (Fig. 5's quantity).

    Identical to :meth:`ReducedOrderModel.dc_gain`; exposed as a module
    function so batched sweeps can recognize it and evaluate whole grids
    through the vectorized runtime (see
    :data:`repro.runtime.batched.VECTOR_METRICS`).
    """
    return model.dc_gain()


def _lanes(model: ReducedOrderModel) -> tuple[np.ndarray, np.ndarray]:
    """``model`` as the one lane of the array routines below."""
    return model.poles[:, None], model.residues[:, None]


def _transfer(poles: np.ndarray, residues: np.ndarray,
              s: np.ndarray) -> np.ndarray:
    """``H(s)`` per lane, accumulated term by term over the pole rows."""
    acc = residues[0] / (s - poles[0])
    for k in range(1, poles.shape[0]):
        acc = acc + residues[k] / (s - poles[k])
    return acc


def _dc_magnitudes(poles: np.ndarray, residues: np.ndarray) -> np.ndarray:
    return np.abs(_transfer(poles, residues, 0.0).real)


def _times_root(coeffs: np.ndarray, root: np.ndarray) -> np.ndarray:
    """Ascending coefficients of ``c(z)·(z - root)`` per lane."""
    out = np.zeros((coeffs.shape[0] + 1, coeffs.shape[1]), dtype=complex)
    out[1:] = coeffs
    # one 1-D product per row: numpy runs a complex product broadcast as
    # (k, 1) x (1,) in its scalar loop and wider ones in its SIMD loop,
    # which rounds differently, so the n = 1 call (the scalar metric)
    # drifted an ulp from the same lane in a sweep
    for k, row in enumerate(coeffs):
        out[k] -= row * root
    return out


def _companion_roots(g: np.ndarray) -> np.ndarray:
    """Real roots ``(q, n)`` of the monic ``G`` per lane, NaN for the rest.

    ``x = 2**e·y`` per lane, with the power of two that bounds every
    coefficient of the monic polynomial in ``y`` by 1: the companion
    entries stay O(1), and the scaling is exact.
    """
    q, n = g.shape[0] - 1, g.shape[1]
    low = g[:q]
    finite = np.isfinite(low).all(axis=0)
    low = np.where(finite, low, 0.0)
    span = np.arange(q, 0, -1)[:, None]          # q - k for x^k
    _, e = np.frexp(low)
    e = np.where(low != 0.0, e, -4096)
    shift = np.ceil(e / span).max(axis=0).astype(int)
    comp = np.zeros((n, q, q))
    comp[:, 0, :] = -np.ldexp(low, -span * shift)[::-1].T
    comp[:, np.arange(1, q), np.arange(q - 1)] = 1.0
    y = np.linalg.eigvals(comp).T
    x = np.ldexp(np.where(np.imag(y) == 0.0, np.real(y), np.nan), shift)
    return np.where(finite, x, np.nan)


def _crossing_polynomial(poles: np.ndarray, residues: np.ndarray,
                         level: np.ndarray) -> np.ndarray:
    """Ascending coefficients ``(q + 1, n)`` of ``G(x)`` per lane."""
    q, n = poles.shape
    # |D(jω)|² = D(s)·D(-s) at s² = -x, whose roots in x are -p_i²
    g = np.ones((1, n), dtype=complex)
    for p in poles:
        g = _times_root(g, -p * p)
    g = g.real
    # N(s) = Σ r_i Π_{j≠i} (s - p_j); for its real coefficients c,
    # |N(jω)|² = Σ_m x^m Σ_{k+l=2m} (-1)^((l-k)/2) c_k c_l
    num = 0.0
    for i in range(q):
        term = residues[i][None, :]
        for j in range(q):
            if j != i:
                term = _times_root(term, poles[j])
        num = num + term
    c = num.real / level
    for k in range(q):
        for l in range(k, q, 2):
            sign = -1.0 if (l - k) % 4 else 1.0
            g[(k + l) // 2] -= (1.0 if k == l else 2.0) * sign * c[k] * c[l]
    return g


def _crossing_roots(poles: np.ndarray, residues: np.ndarray,
                    level: np.ndarray) -> np.ndarray:
    """Real roots ``(q, n)`` of ``G`` per lane, NaN for complex ones."""
    q = poles.shape[0]
    if q > 2:
        return _companion_roots(_crossing_polynomial(poles, residues, level))
    # closed forms: H = n0/(s - p1), or (n1·s + n0)/((s - p1)(s - p2))
    p1, r1 = poles[0], residues[0]
    if q == 1:
        n0 = r1.real / level
        return (n0 * n0 - (p1 * p1).real)[None, :]
    p2, r2 = poles[1], residues[1]
    n1 = (r1 + r2).real / level
    n0 = (r1 * p2 + r2 * p1).real / level
    d0 = (p1 * p2).real
    b = (p1 * p1 + p2 * p2).real - n1 * n1
    c = d0 * d0 - n0 * n0
    # x² + b·x + c by the stable form of the quadratic formula
    big = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * c), b))
    return np.stack([big, c / big])


def gain_crossings(poles: np.ndarray, residues: np.ndarray,
                   level) -> np.ndarray:
    """Per lane, the smallest ω where ``|H(jω)|`` crosses ``level``.

    Write a real order-``q`` model as ``H = N/D``, ``D`` monic.  Then
    ``|H(jω)| = L`` exactly where ``G(x) = |D(jω)|² - |N(jω)|²/L²``
    vanishes, a real monic polynomial of degree ``q`` in ``x = ω²``.
    Its roots come in closed form for ``q <= 2`` and from batched
    companion-matrix eigenvalues above.  The crossing is ``√x`` of the
    smallest positive root of odd multiplicity inside the bracket
    ``[min|p|·1e-4, max|p|·1e4]``.  Two crossings are found however close
    down to 1e-6 relative in ``x``, where they count as one root of even
    multiplicity: a tangency, where ``|H|`` touches ``L`` without
    crossing it.

    Args:
        poles, residues: ``(order, n)`` complex arrays, one real model
            (poles and residues in conjugate pairs) per column.
        level: a scalar or an ``(n,)`` array.

    Returns:
        ``(n,)`` angular frequencies, NaN where there is no crossing or
        ``level`` is not positive.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                     under="ignore"):
        mags = np.abs(poles)
        lo = mags.min(axis=0) * 1e-4
        hi = mags.max(axis=0) * 1e4
        positive = level > 0.0
        level = np.where(positive, level, 1.0)
        x = _crossing_roots(poles, residues, level)
        tangent = (np.abs(x[:, None] - x[None, :])
                   <= _TANGENT_RTOL * np.abs(x)[:, None])
        odd = tangent.sum(axis=1) % 2 == 1
        inside = odd & (x >= lo * lo) & (x <= hi * hi)
        first = np.where(inside, x, np.inf).min(axis=0)
        found = positive & (first < np.inf) & (lo > 0.0)
        w = np.where(found, np.sqrt(first), np.nan)
        if poles.shape[0] > 2:
            w = _polish(poles, residues, level, w)
    return w


def _polish(poles: np.ndarray, residues: np.ndarray, level: np.ndarray,
            w: np.ndarray) -> np.ndarray:
    """Two Newton steps on ``ln|H(jω)| = ln L`` from the companion roots.

    A root of ``G`` next to a near pole/zero cancellation inherits the
    rounding of ``G``'s coefficients amplified (~3e-7 on the 741 at
    order 4); ``H`` from its poles and residues does not.  A step that
    moves a root by more than 1e-3 keeps the unpolished one.
    """
    polished = w
    for _ in range(2):
        s = 1j * polished
        h = dh = 0.0
        for p, r in zip(poles, residues):
            t = 1.0 / (s - p)
            h = h + r * t
            dh = dh - r * t * t
        polished = polished + np.log(np.abs(h) / level) / (dh / h).imag
    return np.where(np.abs(polished - w) <= 1e-3 * w, polished, w)


def gain_crossing_frequency(model: ReducedOrderModel, level: float) -> float:
    """Smallest ω where ``|H(jω)|`` crosses ``level`` (NaN when none):
    the n = 1 call of :func:`gain_crossings`."""
    return float(gain_crossings(*_lanes(model), level)[0])


def unity_gain_frequency(model: ReducedOrderModel) -> float:
    """Angular frequency where ``|H(jω)| = 1`` (NaN when no crossing).

    Assumes the usual op-amp shape: ``|H|`` above 1 at DC, decaying through
    unity at the gain-bandwidth point.
    """
    return gain_crossing_frequency(model, 1.0)


def _phase_margins(poles: np.ndarray, residues: np.ndarray) -> np.ndarray:
    w_u = gain_crossings(poles, residues, 1.0)
    with np.errstate(invalid="ignore"):
        return 180.0 + np.degrees(np.angle(
            _transfer(poles, residues, 1j * w_u)))


def phase_margin(model: ReducedOrderModel) -> float:
    """``180° + ∠H(jω_u)`` at the unity-gain frequency (NaN if no ω_u).

    The textbook stability margin plotted in Fig. 7.
    """
    return float(_phase_margins(*_lanes(model))[0])


def _bandwidths_3db(poles: np.ndarray, residues: np.ndarray) -> np.ndarray:
    return gain_crossings(poles, residues,
                          _dc_magnitudes(poles, residues) / np.sqrt(2.0))


def bandwidth_3db(model: ReducedOrderModel) -> float:
    """-3 dB bandwidth: ω where ``|H|`` falls to ``|H(0)|/sqrt(2)``.

    NaN when there is no such crossing, and NaN when the DC gain is zero
    (the level is then zero), as for :func:`overshoot` and
    :func:`settling_time`.
    """
    return float(_bandwidths_3db(*_lanes(model))[0])


def _gain_bandwidth_products(poles: np.ndarray,
                             residues: np.ndarray) -> np.ndarray:
    return _dc_magnitudes(poles, residues) * _bandwidths_3db(poles, residues)


def gain_bandwidth_product(model: ReducedOrderModel) -> float:
    """``|H(0)| * f_3dB`` in angular units — for single-pole-ish amplifiers
    this approximates the unity-gain frequency."""
    return float(_gain_bandwidth_products(*_lanes(model))[0])


def dominant_pole_hz(model: ReducedOrderModel) -> float:
    """Dominant pole magnitude in Hz (the paper's Fig. 4 y-axis)."""
    return float(abs(model.dominant_pole().real)) / (2.0 * np.pi)


def overshoot(model: ReducedOrderModel, horizon: float | None = None,
              n: int = 4096) -> float:
    """Fractional step-response overshoot: ``(peak - final) / |final|``.

    Zero for monotone responses; NaN when the DC gain is zero (crosstalk
    pulses have no meaningful overshoot reference).
    """
    final = model.dc_gain()
    if final == 0.0:
        return float("nan")
    horizon = horizon if horizon is not None else model.settle_time_hint()
    t = np.linspace(0.0, horizon, n)
    y = model.step_response(t)
    peak = y.max() if final > 0 else y.min()
    return max(0.0, float((peak - final) / abs(final)))


def settling_time(model: ReducedOrderModel, tolerance: float = 0.02,
                  horizon: float | None = None, n: int = 8192) -> float:
    """Time after which the step response stays within ``tolerance`` of final.

    Returns NaN for zero-DC-gain responses and when the response has not
    settled within the horizon.
    """
    final = model.dc_gain()
    if final == 0.0:
        return float("nan")
    horizon = horizon if horizon is not None else 2.0 * model.settle_time_hint()
    t = np.linspace(0.0, horizon, n)
    y = model.step_response(t)
    outside = np.abs(y - final) > tolerance * abs(final)
    if outside[-1]:
        return float("nan")
    last_outside = np.nonzero(outside)[0]
    if len(last_outside) == 0:
        return 0.0
    return float(t[min(last_outside[-1] + 1, n - 1)])


def group_delay(model: ReducedOrderModel, omega: float) -> float:
    """Group delay ``-dφ/dω`` at ``omega``, analytic from poles/zeros:
    ``τ(ω) = Σ -Re(pᵢ)/|jω - pᵢ|² - Σ -Re(zⱼ)/|jω - zⱼ|²``."""
    s = 1j * omega
    tau = float(np.sum(-model.poles.real / np.abs(s - model.poles) ** 2))
    zeros = model.zeros()
    if len(zeros):
        tau -= float(np.sum(-zeros.real / np.abs(s - zeros) ** 2))
    return tau


#: the one-argument metrics a name resolves to — the CLI's ``--metric``,
#: a served request's ``"metric"``, the scenario engine and the
#: differential harness all look names up here, and nowhere else
METRICS = {fn.__name__: fn for fn in (
    dc_gain, dominant_pole_hz, unity_gain_frequency, phase_margin,
    bandwidth_3db, gain_bandwidth_product, overshoot, settling_time)}


def resolve_metric(metric):
    """Resolve a metric given by name through :data:`METRICS`.

    Callables pass through unchanged; strings name one of the
    one-argument metrics of :data:`METRICS`.  Other module attributes —
    helpers, classes, two-argument functions — are not metrics.

    Raises:
        ApproximationError: a name that is not in :data:`METRICS`.
    """
    if callable(metric):
        return metric
    try:
        return METRICS[metric]
    except (KeyError, TypeError):
        raise ApproximationError(
            f"unknown metric {metric!r} (one of: "
            f"{', '.join(METRICS)})") from None
