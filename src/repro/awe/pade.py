"""Padé approximation from moments.

A ``q``-pole AWE model matches the first ``2q`` moments of ``H(s)``:

    H(s) ≈ P(s) / Q(s),   Q(s) = 1 + b₁s + ... + b_q s^q,  deg P = q-1.

The denominator coefficients solve the Hankel system (moment-matching
conditions for ``s^q .. s^{2q-1}``); poles are the roots of ``Q``;
residues follow from the pole-moment Vandermonde relation

    m_k = -Σᵢ rᵢ / pᵢ^{k+1},   k = 0..q-1.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ApproximationError
from ..testing import faults as _faults


def _safe_cond(matrix) -> float | None:
    """2-norm condition number, or None when even that computation fails.

    Attached to :class:`ApproximationError` context — a cond estimate on
    the matrix that just failed to solve is diagnostic, not critical, so
    it must never turn one failure into another.
    """
    try:
        cond = float(np.linalg.cond(np.asarray(matrix, dtype=complex)))
    except Exception:  # pragma: no cover - cond on tiny systems is robust
        return None
    return cond


def pade_coefficients(moments: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and denominator coefficients of the ``[q-1 / q]`` Padé form.

    Args:
        moments: at least ``2 * order`` moments ``m0..``.
        order: number of poles ``q``.

    Returns:
        ``(num, den)`` with ``num`` of length ``q`` (coefficients of
        ``s^0..s^{q-1}``) and ``den`` of length ``q + 1`` (``1, b1..bq``).

    Raises:
        ApproximationError: singular/ill-conditioned Hankel system or too
        few moments.
    """
    m = np.asarray(moments, dtype=float)
    q = int(order)
    if q < 1:
        raise ApproximationError(f"order must be >= 1, got {order}")
    if len(m) < 2 * q:
        raise ApproximationError(
            f"order {q} Padé needs {2 * q} moments, got {len(m)}")
    # Hankel solve for b1..bq:  sum_{j=1..q} b_j m_{k-j} = -m_k, k=q..2q-1
    A = np.empty((q, q))
    for r in range(q):
        for j in range(1, q + 1):
            A[r, j - 1] = m[q + r - j]
    rhs = -m[q:2 * q]
    try:
        if _faults.ACTIVE is not None:
            _faults.fault_point("pade.hankel", order=q)
        b = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise ApproximationError(
            f"singular Hankel system at order {q}: {exc}",
            condition_number=_safe_cond(A), order=q) from exc
    if not np.all(np.isfinite(b)):
        raise ApproximationError(
            f"non-finite Padé denominator at order {q}",
            condition_number=_safe_cond(A), order=q)
    den = np.concatenate(([1.0], b))
    # numerator from the first q matching conditions: a_k = sum_{j<=k} b_j m_{k-j}
    num = np.array([sum(den[j] * m[k - j] for j in range(0, k + 1)) for k in range(q)])
    return num, den


def poles_and_residues(moments: np.ndarray, order: int,
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Poles and residues of the order-``q`` Padé model (unscaled domain).

    Raises:
        ApproximationError: repeated poles (Vandermonde singular) or a
        degenerate denominator.
    """
    _, den = pade_coefficients(moments, order)
    # roots of 1 + b1 s + ... + bq s^q  (np.roots wants highest power first)
    poles = np.roots(den[::-1])
    if len(poles) != order:
        raise ApproximationError(
            f"denominator degenerated: expected {order} poles, got {len(poles)}",
            order=order)
    if np.any(np.abs(poles) < 1e-300):
        raise ApproximationError("Padé produced a pole at the origin",
                                 order=order)
    residues = residues_from_poles(np.asarray(moments, dtype=float), poles)
    return poles, residues


def residues_from_poles(moments: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """Solve the moment/pole Vandermonde system for residues.

    ``m_k = -Σ r_i / p_i^(k+1)`` for ``k = 0..q-1``.
    """
    q = len(poles)
    V = np.empty((q, q), dtype=complex)
    for k in range(q):
        V[k] = -1.0 / poles ** (k + 1)
    try:
        residues = np.linalg.solve(V, np.asarray(moments[:q], dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise ApproximationError(
            f"repeated poles; cannot compute residues: {exc}",
            condition_number=_safe_cond(V), order=q) from exc
    return residues


def fast_poles_residues(moments, order: int):
    """Pure-Python pole/residue extraction for order 1 and 2.

    This is the per-iteration hot path of a compiled AWEsymbolic model:
    closed-form Cramer + quadratic formula, no numpy arrays, ~1 µs.
    Returns ``(poles, residues)`` as lists of (possibly complex) floats.

    Raises:
        ApproximationError: degenerate moments or unsupported order.
    """
    if _faults.ACTIVE is not None:
        _faults.fault_point("pade.fast", order=order)
    m0 = float(moments[0])
    m1 = float(moments[1])
    if order == 1:
        if m1 == 0.0:
            raise ApproximationError("m1 = 0: no first-order Padé", order=1)
        if m0 == 0.0:
            raise ApproximationError(
                "m0 = 0: first-order Padé pole at the origin", order=1)
        p = m0 / m1
        return [p], [-m0 * m0 / m1]
    if order != 2:
        raise ApproximationError(f"fast path supports orders 1-2, got {order}")
    m2 = float(moments[2])
    m3 = float(moments[3])
    # scale for conditioning: m'_k = m_k a^k with a ~ dominant pole magnitude
    a = abs(m0 / m1) if (m0 != 0.0 and m1 != 0.0) else 1.0
    s0, s1, s2, s3 = m0, m1 * a, m2 * a * a, m3 * a * a * a
    det = s1 * s1 - s0 * s2
    if det == 0.0:
        raise ApproximationError(
            "singular 2x2 Hankel system",
            condition_number=_safe_cond([[s1, s0], [s2, s1]]),
            moment_scale=a, order=2)
    b1 = (s0 * s3 - s1 * s2) / det
    b2 = (s2 * s2 - s1 * s3) / det
    if b2 == 0.0:
        raise ApproximationError("degenerate second-order denominator",
                                 moment_scale=a, order=2)
    disc = b1 * b1 - 4.0 * b2
    root = math.sqrt(disc) if disc >= 0.0 else complex(0.0, math.sqrt(-disc))
    # numerically stable quadratic roots of b2 s^2 + b1 s + 1:
    # q = -(b1 + sign(b1) root)/2; roots are q/b2 and 1/q (product = 1/b2)
    if isinstance(root, complex) or b1 == 0.0:
        p1 = (-b1 + root) / (2.0 * b2)
        p2 = (-b1 - root) / (2.0 * b2)
    else:
        q = -(b1 + (root if b1 >= 0.0 else -root)) / 2.0
        if q == 0.0:
            raise ApproximationError("degenerate quadratic in fast Padé",
                                     moment_scale=a, order=2)
        p1 = q / b2
        p2 = 1.0 / q
    if p1 == p2:
        raise ApproximationError("repeated poles in fast Padé",
                                 moment_scale=a, order=2)
    u1, u2 = 1.0 / p1, 1.0 / p2
    vden = u1 * u2 * (u2 - u1)
    r1 = u2 * (s1 - s0 * u2) / vden
    r2 = u1 * (s0 * u1 - s1) / vden
    # unscale: p = a p', r = a r'
    return [p1 * a, p2 * a], [r1 * a, r2 * a]


def moments_from_poles(poles: np.ndarray, residues: np.ndarray,
                       count: int) -> np.ndarray:
    """Moments implied by a pole/residue model (for verification):
    ``m_k = -Σ r_i / p_i^(k+1)``."""
    ks = np.arange(count)[:, None]
    return np.real_if_close((-residues[None, :] / poles[None, :] ** (ks + 1)).sum(axis=1))
