"""Vectorized, shardable evaluation of compiled AWE models over grids.

The compiled straight-line programs emitted by
:mod:`repro.symbolic.compile` are numpy-vectorized: passing arrays sweeps
a whole grid in one call.  Historically :meth:`CompiledAWEModel.sweep`
still walked the cartesian grid point by point; this module closes that
gap.  A batched sweep:

1. maps every grid axis through the element→symbol value transforms and
   flattens the cartesian product into positional argument columns;
2. evaluates the *fused* multi-output moment tape (schema 2, see
   :func:`repro.symbolic.tape.fuse_moments`) once per chunk — one
   register-machine pass emits every moment, sharing subexpressions
   across outputs and performing the determinant unscaling inside the
   kernel with the same IEEE operations as the scalar ladder of
   :meth:`~repro.partition.composite.CompiledMoments.scalars`;
3. extracts poles and residues with vectorized closed forms — exact
   array transcriptions of :func:`repro.awe.pade.fast_poles_residues`
   for orders 1-2, stacked Hankel solves plus batched companion-matrix
   eigenvalues (:func:`vector_poles_residues_general`) for higher
   orders — and evaluates the metric, using a registered vectorized
   implementation when one exists;
4. falls back per point *only* where the closed form is degenerate or
   the fast Padé is unstable — the fallback is
   :func:`repro.awe.stability.rom_from_moments`, the exact per-point
   path.  Orders 1-2 are bit-identical to the legacy sweep
   (``tests/core/test_crossing.py`` enforces this); order > 2
   batched linalg legitimately reorders reductions and is held to the
   ``ToleranceLadder.exact`` band instead (``docs/runtime.md``).

Shards split the flattened grid into contiguous ranges evaluated
independently (optionally on a thread pool or in worker processes), and
every shard streams its range through cache-resident chunks of
:data:`CANCEL_CHUNK_POINTS` points (:func:`_stream_shard`), so the moment
kernel's live buffers stay in the per-core L2 cache at any grid size.  A
:class:`~repro.runtime.stats.RuntimeStats` records per-stage cost.

Failure handling is quarantine-based (see :mod:`repro.runtime.resilience`
and ``docs/robustness.md``): degenerate points degrade to NaN with a
structured record in the returned
:class:`~repro.diagnostics.SweepDiagnostics` instead of aborting the
sweep, unless strict mode is requested; crashed or hung shards are
retried and spliced back in order.
"""

from __future__ import annotations

import logging
import math
import os
import threading
import time
from typing import Callable, Mapping, Sequence

import numpy as np

from ..awe.model import ReducedOrderModel
from ..awe.stability import rom_from_moments
from ..core import metrics as _metrics
from ..diagnostics import (QuarantinedPoint, ShardFailure, SweepDiagnostics,
                           SweepResult)
from ..errors import ApproximationError, PartitionError
from ..obs import metrics as _obs_metrics
from ..obs import trace as _trace
from ..testing import faults as _faults
from .backends import ProcessShardRunner, resolve_backend
from .cancel import CancelToken
from .resilience import DEFAULT_RESILIENCE, ResilienceConfig, run_shards
from .stats import RuntimeStats

__all__ = [
    "CANCEL_CHUNK_POINTS",
    "batched_sweep",
    "grid_columns",
    "sample_columns",
    "vector_poles_residues",
    "vector_poles_residues_general",
    "vector_metric",
    "VECTOR_METRICS",
]

logger = logging.getLogger("repro.runtime.batched")

#: default chunk size (points) of every sweep.  Each shard streams its
#: range through chunks of at most this many points, running moments →
#: health → Padé → metric per chunk, so every live buffer of the fused
#: moment kernel stays cache-resident: the 741's ~50 buffers take
#: ~50 × 4096 × 8 B ≈ 1.6 MB, inside a 2 MB per-core L2, where whole-grid
#: buffers would stream every op through L3/DRAM.  Of 2048..65536 on the
#: 512×512 741 surface, 4096 is the smallest size on the fastest plateau
#: (``docs/runtime.md``).  It is also the granularity at which a shard
#: observes its cancel token, i.e. the bound on wasted work after a
#: deadline/timeout/interrupt.
CANCEL_CHUNK_POINTS = 4096

#: scalar metric -> vectorized implementation ``(poles, residues) -> values``
#: where ``poles``/``residues`` are ``(order, n_points)`` complex arrays.
VECTOR_METRICS: dict[Callable, Callable] = {}


def vector_metric(scalar_metric: Callable):
    """Register a vectorized implementation for ``scalar_metric``.

    The batched runtime looks sweeps' metric callables up in
    :data:`VECTOR_METRICS`; on a hit the whole grid's metric values come
    from one array expression instead of per-point model objects.
    """
    def register(fn):
        VECTOR_METRICS[scalar_metric] = fn
        return fn
    return register


@vector_metric(_metrics.dominant_pole_hz)
def _v_dominant_pole_hz(poles: np.ndarray, residues: np.ndarray) -> np.ndarray:
    idx = np.argmin(np.abs(poles.real), axis=0)
    dom = np.take_along_axis(poles, idx[None, :], axis=0)[0]
    return np.abs(dom.real) / (2.0 * np.pi)


@vector_metric(_metrics.dc_gain)
def _v_dc_gain(poles: np.ndarray, residues: np.ndarray) -> np.ndarray:
    return (-residues / poles).sum(axis=0).real


@vector_metric(_metrics.unity_gain_frequency)
def _v_unity_gain_frequency(poles: np.ndarray, residues: np.ndarray,
                            ) -> np.ndarray:
    return _metrics.gain_crossings(poles, residues, 1.0)


@vector_metric(_metrics.phase_margin)
def _v_phase_margin(poles: np.ndarray, residues: np.ndarray) -> np.ndarray:
    return _metrics._phase_margins(poles, residues)


@vector_metric(_metrics.bandwidth_3db)
def _v_bandwidth_3db(poles: np.ndarray, residues: np.ndarray) -> np.ndarray:
    return _metrics._bandwidths_3db(poles, residues)


@vector_metric(_metrics.gain_bandwidth_product)
def _v_gain_bandwidth_product(poles: np.ndarray, residues: np.ndarray,
                              ) -> np.ndarray:
    return _metrics._gain_bandwidth_products(poles, residues)


# ----------------------------------------------------------------------
# grid flattening
# ----------------------------------------------------------------------
def _slot_table(model) -> Mapping[str, tuple]:
    """``element name -> (symbol position, value transform)`` for either a
    :class:`CompiledAWEModel` or a loaded
    :class:`~repro.symbolic.tape.TapeModel`."""
    slots = getattr(model, "element_slots", None)
    if slots is None:  # pragma: no cover - both classes expose element_slots
        raise ApproximationError(
            f"{type(model).__name__} does not expose element slots")
    return slots


def _apply_transform(transform, values: np.ndarray) -> np.ndarray:
    """Element→symbol transform over an array (scalar-only transforms get
    an elementwise fallback)."""
    try:
        out = transform(values)
    except TypeError:
        out = np.array([transform(float(v)) for v in values.ravel()]
                       ).reshape(values.shape)
    return np.asarray(out, dtype=float)


def grid_columns(model, grids: Mapping[str, np.ndarray],
                 ) -> tuple[list[str], tuple[int, ...], list]:
    """Flatten cartesian element-value grids into positional symbol columns.

    Returns ``(names, shape, columns)`` where ``columns`` has one entry
    per model symbol: a flattened ``(n_points,)`` float array for swept
    symbols, or the scalar nominal for the rest.

    Raises:
        ApproximationError: a grid name is not a symbolic element.
    """
    slots = _slot_table(model)
    names = list(grids)
    axes = []
    for name in names:
        if name not in slots:
            raise ApproximationError(
                f"{name!r} is not a symbolic element of this model "
                f"(symbols: {list(slots)})")
        axes.append(np.asarray(grids[name], dtype=float))
    shape = tuple(len(a) for a in axes)
    columns: list = [float(s.nominal) for s in model.space.symbols]
    if axes:
        mesh = np.meshgrid(*axes, indexing="ij")
        for name, grid in zip(names, mesh):
            pos, transform = slots[name]
            columns[pos] = _apply_transform(transform, grid.reshape(-1))
    return names, shape, columns


def sample_columns(model, samples: Mapping[str, np.ndarray],
                   ) -> tuple[list[str], tuple[int, ...], list]:
    """Paired (joint) sample columns — the Monte Carlo flattening.

    Unlike :func:`grid_columns`, the value arrays are *not* crossed:
    sample ``i`` of every element belongs to one scenario, so ``n``
    samples of ``k`` elements are ``n`` points, not ``n**k``.  Returns
    the same ``(names, shape, columns)`` contract with ``shape == (n,)``,
    which is why everything downstream of the flattening — sharding,
    backends, quarantine, stats — serves Monte Carlo unchanged.

    Raises:
        ApproximationError: unknown element, no samples, or columns of
            unequal length.
    """
    slots = _slot_table(model)
    names = list(samples)
    if not names:
        raise ApproximationError("paired sweep needs at least one "
                                 "sample column")
    arrays = []
    for name in names:
        if name not in slots:
            raise ApproximationError(
                f"{name!r} is not a symbolic element of this model "
                f"(symbols: {list(slots)})")
        arrays.append(np.asarray(samples[name], dtype=float).reshape(-1))
    n = arrays[0].size
    if any(a.size != n for a in arrays):
        raise ApproximationError(
            "paired sample columns must share one length, got "
            + str({name: a.size for name, a in zip(names, arrays)}))
    columns: list = [float(s.nominal) for s in model.space.symbols]
    for name, arr in zip(names, arrays):
        pos, transform = slots[name]
        columns[pos] = _apply_transform(transform, arr)
    return names, (n,), columns


# ----------------------------------------------------------------------
# vectorized closed-form Padé (orders 1 and 2)
# ----------------------------------------------------------------------
def vector_poles_residues(moments: np.ndarray, order: int,
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized transcription of :func:`repro.awe.pade.fast_poles_residues`.

    Every step repeats the scalar code's IEEE operations: real poles in
    float arithmetic, a conjugate pair's residue in Python's complex
    arithmetic (:func:`_conjugate_pair_residue`), so each lane equals
    the per-point model bit for bit.

    Args:
        moments: ``(>= 2*order, n_points)`` float array.
        order: 1 or 2.

    Returns:
        ``(poles, residues, ok)`` with ``poles``/``residues`` of shape
        ``(order, n_points)`` (complex) and ``ok`` a boolean mask of the
        points where the closed form is non-degenerate and finite.  Points
        with ``ok`` False carry garbage values and must be re-evaluated by
        the per-point fallback; ``ok`` is deliberately conservative so
        that every ``ok`` point matches the scalar fast path exactly.
    """
    if order == 1:
        m0, m1 = moments[0], moments[1]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            p = m0 / m1
            r = -(m0 * m0) / m1
        ok = (m1 != 0.0) & np.isfinite(p) & np.isfinite(r)
        return p[None, :].astype(complex), r[None, :].astype(complex), ok
    if order != 2:
        raise ApproximationError(
            f"vectorized closed form supports orders 1-2, got {order}")

    m0, m1, m2, m3 = moments[0], moments[1], moments[2], moments[3]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # conditioning scale a ~ dominant pole magnitude (as in the scalar path)
        safe = (m0 != 0.0) & (m1 != 0.0)
        a = np.where(safe, np.abs(m0 / np.where(m1 != 0.0, m1, 1.0)), 1.0)
        s0 = m0
        s1 = m1 * a
        s2 = m2 * a * a
        s3 = m3 * a * a * a
        det = s1 * s1 - s0 * s2
        detz = np.where(det != 0.0, det, 1.0)
        b1 = (s0 * s3 - s1 * s2) / detz
        b2 = (s2 * s2 - s1 * s3) / detz
        ok = (det != 0.0) & (b2 != 0.0) & np.isfinite(b1) & np.isfinite(b2)
        disc = b1 * b1 - 4.0 * b2
        cplx = disc < 0.0
        root = np.sqrt(np.abs(disc))
        rr = np.where(cplx, 0.0, root)
        b2z = np.where(b2 != 0.0, b2, 1.0)
        # branch A: complex roots (or b1 == 0) via the plain quadratic
        # formula; dividing by the real 2·b2 divides each part
        two_b2 = 2.0 * b2z
        pi = np.where(cplx, root / two_b2, 0.0)
        # branch B: numerically stable real roots via q = -(b1 + sign(b1) root)/2
        qv = -(b1 + np.where(b1 >= 0.0, root, -root)) / 2.0
        branch_a = cplx | (b1 == 0.0)
        p1 = np.where(branch_a, (-b1 + rr) / two_b2, qv / b2z)
        p2 = np.where(branch_a, (-b1 - rr) / two_b2, 1.0 / qv)
        ok &= branch_a | (qv != 0.0)
        ok &= (np.isfinite(p1) & np.isfinite(p2) & np.isfinite(pi)
               & ((p1 != p2) | (pi != 0.0))
               & ((p1 != 0.0) | (pi != 0.0)) & ((p2 != 0.0) | (pi != 0.0)))
        # residues of the scaled 2x2 Vandermonde solve, with u = 1/p,
        # in the scalar path's float arithmetic for real poles ...
        u1 = 1.0 / p1
        u2 = 1.0 / p2
        vden = u1 * u2 * (u2 - u1)
        r1 = u2 * (s1 - s0 * u2) / vden
        r2 = u1 * (s0 * u1 - s1) / vden
        ri = 0.0
        if cplx.any():
            # ... and in its Python complex arithmetic for a conjugate
            # pair, where u2 = conj(u1) and r2 = conj(r1) come out exactly
            cr, ci = _conjugate_pair_residue(p1, pi, s0, s1)
            r1, r2 = np.where(cplx, cr, r1), np.where(cplx, cr, r2)
            ri = np.where(cplx, ci, 0.0)
        poles = np.empty((2, len(a)), dtype=complex)
        residues = np.empty_like(poles)
        for out, re1, re2, im in ((poles, p1, p2, pi), (residues, r1, r2, ri)):
            out.real[0], out.real[1] = re1 * a, re2 * a
            out.imag[0] = im * a
            out.imag[1] = -out.imag[0]
    ok &= np.isfinite(residues).all(axis=0)
    return poles, residues, ok


def _conjugate_pair_residue(pr: np.ndarray, pi: np.ndarray, s0: np.ndarray,
                            s1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residue of the pole ``pr + j·pi`` paired with its conjugate, as
    Python computes ``u2 * (s1 - s0 * u2) / (u1 * u2 * (u2 - u1))``,
    ``u = 1/p``: numpy's complex division multiplies by a reciprocal,
    which rounds differently.  ``u1`` follows Smith's algorithm as
    ``complex.__rtruediv__`` does; the products with exactly-zero parts
    are dropped."""
    by_real = np.abs(pr) >= np.abs(pi)
    big = np.where(by_real, pr, pi)
    small = np.where(by_real, pi, pr)
    ratio = small / big
    denom = big + small * ratio
    ur = np.where(by_real, 1.0, ratio) / denom
    ui = -np.where(by_real, ratio, 1.0) / denom
    # u1·u2 = |u1|² and u2 - u1 = -2j·Im(u1), so vden = j·v
    v = (ur * ur + ui * ui) * -(ui + ui)
    # e = s1 - s0·u2 = (s1 - s0·ur) + j·s0·ui; r1 = u2·e / (j·v)
    er = s1 - s0 * ur
    ei = s0 * ui
    return (ur * ei - ui * er) / v, -(ur * er + ui * ei) / v


# ----------------------------------------------------------------------
# vectorized general-order Padé (stacked Hankel + companion eigvals)
# ----------------------------------------------------------------------
def vector_poles_residues_general(moments: np.ndarray, order: int,
                                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized general-order Padé: stacked Hankel solves plus batched
    companion-matrix eigenvalues.

    Array transcription of the order-``q`` attempt inside
    :func:`repro.awe.stability.stable_reduction` — moment-ratio
    conditioning scale, Hankel solve for the denominator, roots via the
    same companion matrix ``np.roots`` builds, residues from the
    moment/pole Vandermonde system, unscale by ``a``.

    Args:
        moments: ``(>= 2*order, n_points)`` float array (all rows enter
            the conditioning-scale estimate, as in the scalar path).
        order: number of poles ``q`` (any ``q >= 1``).

    Returns:
        ``(poles, residues, ok)`` with ``poles``/``residues`` of shape
        ``(order, n_points)`` complex.  ``ok`` is conservative: lanes
        with a zero or non-finite moment, a degenerate denominator, or
        any non-finite intermediate fall back to the exact per-point
        path (which also performs the stable order-dropping retries).
        Unlike the order 1-2 closed forms, stacked LAPACK reductions may
        reorder floating-point operations relative to ``np.roots`` /
        per-point solves, so ``ok`` points agree with the scalar path to
        the ``ToleranceLadder.exact`` band rather than bit-for-bit
        (``docs/runtime.md`` documents this carve-out).
    """
    q = int(order)
    n = moments.shape[1]
    poles = np.zeros((q, n), dtype=complex)
    residues = np.zeros((q, n), dtype=complex)
    ok = np.zeros(n, dtype=bool)
    if q < 1 or moments.shape[0] < 2 * q:
        raise ApproximationError(
            f"order {q} Padé needs {2 * q} moments, got {moments.shape[0]}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m = moments
        usable = np.isfinite(m).all(axis=0)
        if not usable.any():
            return poles, residues, ok
        # conditioning scale: per-lane geometric mean of the successive
        # moment ratios whose both moments are nonzero — the same ratio
        # set as scaling.moment_scale (masked summation may reorder the
        # mean's additions, which is inside the order>2 tolerance band)
        valid = (m[:-1] != 0.0) & (m[1:] != 0.0)
        safe = np.where(valid, m[1:], 1.0)
        logs = np.where(valid, np.log(np.abs(np.where(valid, m[:-1], 1.0)
                                             / safe)), 0.0)
        count = valid.sum(axis=0)
        a = np.exp(logs.sum(axis=0) / np.maximum(count, 1))
        a = np.where((count > 0) & np.isfinite(a) & (a != 0.0), a, 1.0)
        # one 1-D power per row: numpy picks the loop of a broadcast
        # (rows, n) power by n, and lanes of 10..~2600-point arrays came
        # out an ulp apart from longer ones — a lane's value must not
        # depend on the size of the chunk or shard it lands in
        s = m * np.stack([np.power(a, float(k)) for k in range(m.shape[0])])
        # Hankel solve for b1..bq: sum_j b_j m'_{k-j} = -m'_k, k = q..2q-1
        A = np.empty((n, q, q))
        for r in range(q):
            for j in range(1, q + 1):
                A[:, r, j - 1] = s[q + r - j]
        rhs = -s[q:2 * q].T
        usable &= (np.isfinite(A).all(axis=(1, 2))
                   & np.isfinite(rhs).all(axis=1))
        A[~usable] = np.eye(q)
        rhs = np.where(usable[:, None], rhs, 0.0)
        try:
            b = np.linalg.solve(A, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # an exactly singular lane slipped past the masks; retreat to
            # the per-point path for the whole chunk (rare, still exact)
            return poles, residues, np.zeros(n, dtype=bool)
        usable &= np.isfinite(b).all(axis=1) & (b[:, -1] != 0.0)
        if not usable.any():
            return poles, residues, ok
        # roots of 1 + b1 s + ... + bq s^q via the np.roots companion
        # matrix: monic-normalized [b_q .. b_1, 1], subdiagonal ones
        lead = np.where(usable, b[:, -1], 1.0)
        coeffs = np.concatenate([b[:, -2::-1], np.ones((n, 1))], axis=1)
        comp = np.zeros((n, q, q))
        idx = np.arange(q - 1)
        comp[:, idx + 1, idx] = 1.0
        comp[:, 0, :] = -coeffs / lead[:, None]
        comp[~usable] = np.eye(q)
        try:
            poles_s = np.linalg.eigvals(comp)
        except np.linalg.LinAlgError:
            return poles, residues, np.zeros(n, dtype=bool)
        usable &= (np.isfinite(poles_s).all(axis=1)
                   & (np.abs(poles_s) >= 1e-300).all(axis=1))
        # residues from the moment/pole Vandermonde system:
        # m'_k = -sum_i r_i / p_i^(k+1), k = 0..q-1 (scaled domain)
        safe_p = np.where(usable[:, None], poles_s, 1.0)
        V = -1.0 / safe_p[:, None, :] ** np.arange(1, q + 1)[None, :, None]
        V[~usable] = np.eye(q)
        mv = np.where(usable[:, None], s[:q].T, 0.0).astype(complex)
        try:
            res = np.linalg.solve(V, mv[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # repeated poles somewhere in the stack: per-point fallback
            return poles, residues, np.zeros(n, dtype=bool)
        usable &= np.isfinite(res).all(axis=1)
        poles = (poles_s * a[:, None]).T
        residues = (res * a[:, None]).T
        ok = usable
    return poles, residues, ok


# ----------------------------------------------------------------------
# sweep core
# ----------------------------------------------------------------------
_SINGULAR_MSG = "global symbolic system singular at this point"


def _chunk_moments(model, columns: Sequence, n_points: int,
                   stats: RuntimeStats, diag: SweepDiagnostics,
                   offset: int, kernel: str | None = None,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the fused moment program once over a flattened chunk.

    One register-machine pass of the fused (schema-2) tape
    (:attr:`~repro.partition.composite.CompiledMoments.fused`) emits every
    moment *and* the determinant.  Returns ``(moments, singular, det)``
    where ``singular`` marks points whose symbolic system determinant
    ``det`` is exactly zero.  In strict mode any such point raises
    :class:`PartitionError` (the pre-quarantine behavior); in lenient
    mode those points are quarantined with stage ``"moments"`` and their
    moment columns are NaN.
    """
    fn = model.compiled_moments.fused
    with stats.stage("evaluate"):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            try:
                raw = fn.eval_batch(columns, n_points, kernel=kernel)
            except ZeroDivisionError:
                # a batch-invariant zero divisor (an all-scalar chunk at a
                # singular point) raises in Python-float arithmetic; numpy
                # scalars carry the same IEEE operations to inf/NaN
                raw = fn.eval_raw(*(np.float64(c) for c in columns))
            det = np.broadcast_to(np.asarray(raw[-1], dtype=float),
                                  (n_points,))
            moments = np.empty((len(raw) - 1, n_points))
            for k in range(len(raw) - 1):
                moments[k] = raw[k]
            singular = det == 0.0
            if singular.any():
                if diag.strict:
                    raise PartitionError(_SINGULAR_MSG)
                for i in np.flatnonzero(singular):
                    diag.quarantine(QuarantinedPoint(
                        index=offset + int(i), stage="moments",
                        error="PartitionError", message=_SINGULAR_MSG))
                moments[:, singular] = np.nan
    if _faults.ACTIVE is not None:
        _faults.fault_point("sweep.moments", moments=moments, offset=offset)
    return moments, singular, det


def _hankel_cond2(moments: np.ndarray) -> np.ndarray:
    """Per-point condition number of the scaled 2x2 Hankel system.

    Closed form for a 2x2 matrix ``[[s1, s0], [s2, s1]]`` from its
    Frobenius norm and determinant (``σ1 σ2 = |det|``,
    ``σ1² + σ2² = ‖A‖_F²``) — the early-warning signal the diagnostics
    report summarizes across the grid.
    """
    m0, m1, m2 = moments[0], moments[1], moments[2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        safe = (m0 != 0.0) & (m1 != 0.0)
        a = np.where(safe, np.abs(m0 / np.where(m1 != 0.0, m1, 1.0)), 1.0)
        s0, s1, s2 = m0, m1 * a, m2 * a * a
        frob = s0 * s0 + 2.0 * s1 * s1 + s2 * s2
        absdet = np.abs(s1 * s1 - s0 * s2)
        root = np.sqrt(np.maximum(frob * frob - 4.0 * absdet * absdet, 0.0))
        sigma2_sq = (frob - root) / 2.0
        cond = np.sqrt((frob + root) / np.where(sigma2_sq > 0.0,
                                                sigma2_sq, np.nan))
        return np.where(sigma2_sq > 0.0, cond, np.inf)


def _chunk_health(moments: np.ndarray, det: np.ndarray, order: int,
                  diag: SweepDiagnostics) -> None:
    """Record determinant, moment-decay and Hankel-condition summaries
    for a chunk."""
    diag.y0_det_abs.add(np.abs(det))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        diag.moment_decay.add(np.abs(moments[0] / moments[1]))
    if order == 2 and moments.shape[0] >= 3:
        diag.hankel_condition.add(_hankel_cond2(moments))


def _sweep_chunk(model, columns: Sequence, out: np.ndarray,
                 metric: Callable[[ReducedOrderModel], float], order: int,
                 require_stable: bool, offset: int,
                 stats: RuntimeStats, diag: SweepDiagnostics,
                 kernel: str | None = None) -> None:
    """Evaluate one flattened chunk into ``out``, a complex view of
    ``len(out)`` points whose every entry the call overwrites.

    Stage times and counters accumulate into ``stats``; quarantine
    indices recorded in ``diag`` are global (``offset`` + local).
    """
    n_points = len(out)
    moments, singular, det = _chunk_moments(model, columns, n_points, stats,
                                            diag, offset, kernel=kernel)
    with stats.stage("health"):
        _chunk_health(moments, det, order, diag)

    with stats.stage("pade"):
        if order <= 2:
            poles, residues, ok = vector_poles_residues(moments, order)
        else:
            poles, residues, ok = vector_poles_residues_general(moments, order)
        if require_stable:
            ok &= np.all(poles.real < 0.0, axis=0)
        ok &= ~singular
    stats.points += n_points
    diag.points += n_points
    vectorized = VECTOR_METRICS.get(metric)
    if vectorized is not None and ok.all():
        # the usual chunk: every lane passed the closed form, so the
        # metric takes the whole slab — no gather of poles/residues and
        # no scatter of values (a full gather keeps the memory layout,
        # so axis-0 reductions add in the same order either way)
        with stats.stage("metric"):
            out[:] = vectorized(poles, residues)
        stats.vectorized_points += n_points
        return
    out[:] = np.nan
    good = np.flatnonzero(ok)
    fallback = np.flatnonzero(~ok & ~singular)
    with stats.stage("metric"):
        if vectorized is not None and len(good):
            out[good] = vectorized(poles[:, good], residues[:, good])
        else:
            for i in good:
                rom = ReducedOrderModel(poles[:, i], residues[:, i],
                                        order_requested=order)
                try:
                    out[i] = metric(rom)  # NaN stays, like the legacy sweep
                except ApproximationError as exc:
                    diag.quarantine_error(offset + int(i), "metric", exc)
    stats.vectorized_points += len(good)

    with stats.stage("metric"):
        for i in fallback:
            try:
                rom = rom_from_moments(moments[:, i], order,
                                       require_stable=require_stable)
            except ApproximationError as exc:
                diag.quarantine_error(offset + int(i), "pade", exc)
                continue
            diag.record_drop(rom.dropped_unstable)
            try:
                out[i] = metric(rom)
            except ApproximationError as exc:
                diag.quarantine_error(offset + int(i), "metric", exc)
    stats.fallback_points += len(fallback)


def _stream_shard(model, columns: Sequence, n_points: int,
                  metric: Callable[[ReducedOrderModel], float], order: int,
                  require_stable: bool, *, offset: int = 0,
                  strict: bool = False, kernel: str | None = None,
                  chunk_points: int | None = None,
                  cancel: CancelToken | None = None, shard: int = 0,
                  out: np.ndarray | None = None,
                  ) -> tuple[np.ndarray, RuntimeStats, SweepDiagnostics]:
    """Stream one shard's points through cache-resident chunks.

    The one chunk loop of every backend: in-process shards
    (serial/thread/native) and process-backend workers both evaluate
    their range here.  ``columns`` are the shard's own argument columns
    (arrays of ``n_points`` or scalars) and ``offset`` is the shard's
    first global flat index.  Each chunk of at most ``chunk_points``
    (default :data:`CANCEL_CHUNK_POINTS`) points runs moments → health →
    Padé → metric while its buffers are cache-resident.  Chunk
    boundaries only split elementwise work, so values do not depend on
    the chunk size — except that an order > 2 chunk holding an exactly
    singular Hankel lane retreats to the per-point path as a whole
    (:func:`vector_poles_residues_general`).  Results land in ``out`` (a
    complex view of ``n_points``, e.g. a worker's shared-memory slice)
    or a fresh array.

    ``cancel`` is observed between chunks, bounding post-cancel work to
    one chunk.  Drain keeps *chunk* granularity: a token firing
    mid-range keeps every chunk already evaluated, NaN-fills the tail,
    and records the drained slice as a ``"cancelled"`` shard incident.
    Only a token that fired before the first chunk raises (whole-shard
    drain, handled by the resilience layer).

    Returns ``(values, stats, diagnostics)`` for the shard.
    """
    step = max(1, int(chunk_points if chunk_points is not None
                      else CANCEL_CHUNK_POINTS))
    out = np.empty(n_points, dtype=complex) if out is None else out
    stats = RuntimeStats()
    diag = SweepDiagnostics(strict=strict)
    for a in range(0, n_points, step):
        if cancel is not None and cancel.cancelled:
            if a == 0:
                cancel.raise_if_cancelled("shard")
            # keep finished chunks, drain the rest of the range
            out[a:] = np.nan
            diag.shard_failures.append(ShardFailure(
                shard=shard, lo=offset + a, hi=offset + n_points,
                attempts=1, error="CancelledSweep", message=cancel.reason,
                resolution="cancelled"))
            break
        b = min(a + step, n_points)
        cols = [c[a:b] if isinstance(c, np.ndarray) else c for c in columns]
        _sweep_chunk(model, cols, out[a:b], metric, order, require_stable,
                     offset + a, stats, diag, kernel=kernel)
    return out, stats, diag


def _collapse_dtype(out: np.ndarray) -> np.ndarray:
    """Return a float array when every value is real (NaN counts as real),
    keeping complex only when the metric genuinely produced complex values."""
    imag = out.imag
    if np.all((imag == 0.0) | np.isnan(imag)):
        # .copy() rather than ascontiguousarray: the latter promotes 0-d
        # (no-grid) results to shape (1,)
        return out.real.copy()
    return out


def _resolve_sharding(n_points: int, shards: int | None,
                      max_workers: int | None) -> tuple[int, int]:
    if max_workers:
        workers = max(1, int(max_workers))
    elif shards is not None and int(shards) > 1:
        # a multi-shard sweep with no explicit worker count should
        # actually run its shards in parallel, up to the machine's cores
        workers = min(int(shards), os.cpu_count() or 1)
    else:
        workers = 1
    if shards is None:
        n_shards = workers
    else:
        n_shards = max(1, int(shards))
    n_shards = max(1, min(n_shards, n_points)) if n_points else 1
    return n_shards, min(workers, n_shards)


def batched_sweep(model, grids: Mapping[str, np.ndarray],
                  metric: Callable[[ReducedOrderModel], float],
                  order: int | None = None,
                  require_stable: bool = True,
                  shards: int | None = None,
                  max_workers: int | None = None,
                  stats: RuntimeStats | None = None,
                  strict: bool = False,
                  resilience: ResilienceConfig | None = None,
                  backend: str | None = None,
                  paired: bool = False,
                  cancel: CancelToken | None = None,
                  chunk_points: int | None = None) -> SweepResult:
    """Evaluate ``metric`` over the cartesian product of element-value grids.

    Drop-in vectorized replacement for the per-point
    :meth:`CompiledAWEModel.sweep` loop: same arguments, same output
    (including NaN placement at degenerate Padé points), orders of
    magnitude faster on large grids.

    Failure semantics (see ``docs/robustness.md``): in lenient mode (the
    default) a point whose moment evaluation, Padé reduction, or metric
    raises a library error yields NaN and a structured quarantine record
    in the returned diagnostics; the sweep always completes.  In strict
    mode the first such failure raises.  Shards that crash or hang are
    retried with backoff and fall back to in-process serial execution,
    preserving the order-preserving splice (sharded == serial on all
    surviving points).

    Args:
        model: a :class:`~repro.core.compiled_model.CompiledAWEModel` or
            a loaded :class:`~repro.symbolic.tape.TapeModel` (``.tape``
            artifact or saved-model JSON).
        grids: ``{element_name: 1-D value array}``; output has one axis
            per grid in the given order.
        metric: scalar metric of a reduced-order model.  Metrics listed
            in :data:`VECTOR_METRICS` evaluate as one array expression.
        order: Padé order (default: the model's compiled order).
        require_stable: demand stable poles (unstable fast-Padé points
            re-run through the stable-order fallback, like the scalar path).
        shards: number of contiguous grid chunks (default: one per worker).
        max_workers: worker-pool width for shard execution (default:
            ``min(shards, os.cpu_count())`` when sharding was requested,
            else 1).
        backend: where shard attempts run — ``"serial"``, ``"thread"``,
            ``"process"``, or ``"auto"``/``None`` (thread pool when more
            than one worker, else serial).  The process backend ships
            the compiled program to spawned workers and moves bulk
            arrays through shared memory; results are bit-identical
            across backends (see :mod:`repro.runtime.backends`).
        stats: optional :class:`RuntimeStats` to fill with per-stage cost.
        strict: raise on the first quarantined point instead of degrading
            to NaN.
        resilience: shard retry/timeout/backoff policy (default
            :data:`~repro.runtime.resilience.DEFAULT_RESILIENCE`).
        paired: treat ``grids`` as equal-length *joint sample* columns
            (Monte Carlo / corner scenarios) instead of cartesian axes;
            the output is 1-D with one entry per sample
            (see :func:`sample_columns`).
        cancel: cooperative cancellation token (deadline, SIGINT,
            service shutdown).  A fired token *drains* the sweep: shards
            already finished keep their results, everything else
            NaN-fills with resolution ``"cancelled"`` and
            ``diagnostics.cancelled`` is set — the sweep returns
            normally rather than raising, so partial results and the
            diagnostics report survive the interruption.
        chunk_points: chunk size — every shard, on every backend and
            with or without a token, streams its range through chunks
            of at most this many points and checks its token between
            them (default :data:`CANCEL_CHUNK_POINTS`, sized so the
            moment kernel's buffers stay cache-resident).  Values do
            not depend on it, as a chunk boundary only splits
            elementwise work (one order > 2 exception is described in
            ``docs/runtime.md``, "Chunked streaming").

    Returns:
        A :class:`~repro.diagnostics.SweepResult` — a plain ndarray with
        one axis per grid (``float`` dtype, or ``complex`` when the
        metric returns complex values) plus a ``diagnostics`` attribute
        carrying the :class:`~repro.diagnostics.SweepDiagnostics` report.

    Raises:
        ApproximationError: unknown grid name, order exceeding the
            compiled moment count, or (strict mode) a failing point.
        PartitionError: (strict mode) the symbolic system is singular at
            a grid point.
    """
    stats = stats if stats is not None else RuntimeStats()
    config = resilience if resilience is not None else DEFAULT_RESILIENCE
    if strict:
        config = config.with_strict(True)
    diagnostics = SweepDiagnostics(strict=config.strict)
    with stats.stage("total"):
        q = model.order if order is None else int(order)
        n_moments = model.compiled_moments.order + 1
        if 2 * q > n_moments:
            raise ApproximationError(
                f"model compiled with {n_moments} moments; "
                f"order {q} needs {2 * q}")
        with stats.stage("columns"):
            if paired:
                names, shape, columns = sample_columns(model, grids)
            else:
                names, shape, columns = grid_columns(model, grids)
        n_points = int(math.prod(shape))
        stats.n_ops = model.compiled_moments.n_ops
        stats.compile_seconds = getattr(model, "compile_seconds", 0.0)

        n_shards, workers = _resolve_sharding(n_points, shards, max_workers)
        backend_name = resolve_backend(backend, workers)
        if backend_name == "serial":
            workers = 1
        # the native backend evaluates moments through the compiled
        # C tape kernel; shard topology is in-process like
        # serial/thread, and eval_batch degrades to the ufunc kernel
        # (with a logged warning) when no native kernel can be built
        kernel_hint = "native" if backend_name == "native" else None
        stats.backend = backend_name
        stats.shards = n_shards
        stats.workers = workers
        bounds = np.linspace(0, n_points, n_shards + 1, dtype=int)

        # worker threads have no span stack of their own; adopt the
        # sweep.total span as logical parent so shards nest in the trace
        tracer = _trace.current_tracer()
        parent_ctx = tracer.context() if tracer is not None else None
        sweep_cancel = cancel

        if n_points and VECTOR_METRICS.get(metric) is None:
            # a VECTOR_METRICS miss drops the metric stage to per-point
            # model objects (~100x slower); surface it once per sweep so
            # profile output shows *why* the sweep was slow
            metric_name = getattr(metric, "__name__", repr(metric))
            _obs_metrics.registry().counter(
                "repro_sweep_scalar_metric_fallback",
                "sweeps whose metric had no vectorized implementation",
            ).inc()
            if tracer is not None:
                with tracer.span("sweep.scalar_metric_fallback",
                                 metric=metric_name):
                    pass
            logger.info("metric %s has no VECTOR_METRICS entry; the metric "
                        "stage runs per point", metric_name)

        def eval_range(lo: int, hi: int,
                       token: CancelToken | None, shard: int = 0,
                       ) -> tuple[np.ndarray, RuntimeStats, SweepDiagnostics]:
            """Stream ``[lo, hi)`` through :func:`_stream_shard`'s
            cache-resident chunks (every sweep chunks, token or not)."""
            cols = [c[lo:hi] if isinstance(c, np.ndarray) else c
                    for c in columns]
            return _stream_shard(model, cols, hi - lo, metric, q,
                                 require_stable, offset=lo,
                                 strict=config.strict, kernel=kernel_hint,
                                 chunk_points=chunk_points, cancel=token,
                                 shard=shard)

        def run_shard(lo: int, hi: int, shard: int = 0, attempt: int = 0,
                      cancel: CancelToken | None = None,
                      ) -> tuple[np.ndarray, RuntimeStats, SweepDiagnostics]:
            if _faults.ACTIVE is not None:
                _faults.fault_point("sweep.shard", shard=shard,
                                    attempt=attempt, lo=int(lo), hi=int(hi))
            token = cancel if cancel is not None else sweep_cancel
            t0 = time.perf_counter()
            if tracer is None:
                result = eval_range(int(lo), int(hi), token, shard)
            else:
                with tracer.attach(parent_ctx), \
                        tracer.span("sweep.shard", shard=shard,
                                    attempt=attempt, lo=int(lo), hi=int(hi)):
                    result = eval_range(int(lo), int(hi), token, shard)
            busy_key = ("main"
                        if threading.current_thread() is threading.main_thread()
                        else f"thread-{threading.get_ident()}")
            partial = result[1]
            partial.worker_busy[busy_key] = (
                partial.worker_busy.get(busy_key, 0.0)
                + time.perf_counter() - t0)
            return result

        if backend_name == "process" and n_points:
            runner = ProcessShardRunner(model, columns, n_points, metric,
                                        q, require_stable, config.strict,
                                        workers, n_shards=len(bounds) - 1,
                                        chunk_points=chunk_points)
            stats.spawn_seconds = runner.spawn_seconds
            try:
                results = run_shards(run_shard, bounds, workers=workers,
                                     config=config, diagnostics=diagnostics,
                                     executor=runner.pool,
                                     submit=runner.submit, cancel=cancel)
                results = [runner.normalize(r) for r in results]
            finally:
                runner.close()
        else:
            results = run_shards(run_shard, bounds, workers=workers,
                                 config=config, diagnostics=diagnostics,
                                 cancel=cancel)

        with stats.stage("finalize"):
            parts = []
            for (lo, hi), result in zip(zip(bounds[:-1], bounds[1:]),
                                        results):
                if result is None:  # abandoned shard: NaN slice, recorded
                    parts.append(np.full(int(hi - lo), np.nan,
                                         dtype=complex))
                    continue
                values, partial, chunk_diag = result
                parts.append(values)
                stats.merge(partial)
                diagnostics.merge(chunk_diag)
            out = parts[0] if len(parts) == 1 else np.concatenate(parts)

            stats.shards = n_shards
            stats.workers = workers
            stats.quarantined_points = len(diagnostics.quarantined)
            diagnostics.cancelled = bool(
                (cancel is not None and cancel.cancelled)
                or any(f.resolution == "cancelled"
                       for f in diagnostics.shard_failures))
            _finalize_diagnostics(diagnostics, grids, names, shape, out,
                                  paired=paired)
            stats.nan_points = diagnostics.nan_points
            out = _collapse_dtype(out.reshape(shape))
    stats.publish()
    diagnostics.publish()
    return SweepResult(out, diagnostics)


def _finalize_diagnostics(diagnostics: SweepDiagnostics,
                          grids: Mapping[str, np.ndarray],
                          names: Sequence[str], shape: tuple[int, ...],
                          flat_out: np.ndarray,
                          paired: bool = False) -> None:
    """Fill grid coordinates and totals once all shards are spliced."""
    diagnostics.points = int(flat_out.size)
    diagnostics.nan_points = int(np.isnan(flat_out.real).sum())
    axes = [np.asarray(grids[n], dtype=float).reshape(-1) for n in names]
    for point in diagnostics.quarantined:
        if not shape:
            continue
        if paired:
            # one flat sample index addresses every column
            point.grid_index = (int(point.index),)
            point.values = {n: float(a[point.index])
                            for n, a in zip(names, axes)}
        else:
            point.grid_index = tuple(
                int(i) for i in np.unravel_index(point.index, shape))
            point.values = {n: float(a[i]) for n, a, i
                            in zip(names, axes, point.grid_index)}
    diagnostics.quarantined.sort(key=lambda p: p.index)
