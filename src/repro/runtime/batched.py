"""Vectorized, shardable evaluation of compiled AWE models over grids.

The compiled straight-line programs emitted by
:mod:`repro.symbolic.compile` are numpy-vectorized: passing arrays sweeps
a whole grid in one call.  This module sweeps grids that way, where the
reference :meth:`TapeModel.sweep_per_point` walks the cartesian
grid point by point.  A batched sweep:

1. maps every grid axis through the element→symbol value transforms and
   flattens the cartesian product into positional argument columns;
2. evaluates the model's moment program (the fused schema-2 tape, see
   :func:`repro.symbolic.tape.fuse_moments`) once per chunk — one
   register-machine pass emits every moment, sharing subexpressions
   across outputs and performing the determinant unscaling inside the
   kernel (the native C kernel once it is built in the background, the
   ufunc kernel until then); it is the program
   :meth:`~repro.partition.composite.CompiledMoments.scalars` runs per
   point;
3. extracts poles and residues: for orders 1-2 with vectorized closed
   forms, exact array transcriptions of
   :func:`repro.awe.pade.fast_poles_residues`; above that with the
   stacked stable-order ladder (:func:`_stable_ladder`), whose every
   order-q attempt (:func:`vector_poles_residues_general`: stacked
   Hankel solves plus batched companion-matrix eigenvalues) is an exact
   lane-wise transcription of the scalar attempt inside
   :func:`repro.awe.stability.stable_reduction`, and which retries the
   lanes an attempt rejects at q-1, ..., 1 inside the chunk.  Under
   ``require_stable`` an attempt rejects a lane whose denominator has a
   decisively negative coefficient (:data:`TAU`) before its
   eigenvalues, and a lane with an unstable pole before its residues,
   so LAPACK runs only on lanes that can settle.  The metric then runs
   once per settled order, using a registered vectorized implementation
   when one exists;
4. falls back per point *only* where the closed form is degenerate or
   the fast Padé is unstable (orders 1-2), or where no order settles
   (above 2) — the fallback is
   :func:`repro.awe.stability.rom_from_moments`, the exact per-point
   path, which raises the error that quarantines a point.  Every order
   is bit-identical to the per-point sweep
   (``tests/runtime/test_differential.py`` enforces this).

A chunk of at most :data:`SCALAR_LANES` points skips the array
machinery, whose ~100 numpy calls cost more than a few lanes of
arithmetic: it runs lane by lane through the per-point path (the moment
program's scalar code, :func:`repro.awe.stability.rom_from_moments`'s
Padé, the scalar metric) while keeping the chunk's stage ledger, fault
site and health summaries (:func:`_scalar_chunk`).

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
import threading
import time
from typing import Callable, Mapping, Sequence

import numpy as np

from ..awe.model import ReducedOrderModel
from ..awe.stability import closed_form_rom, rom_from_moments, stable_reduction
from ..core import metrics as _metrics
from ..diagnostics import (QuarantinedPoint, ShardFailure, SweepDiagnostics,
                           SweepResult)
from ..errors import ApproximationError, PartitionError
from ..obs import metrics as _obs_metrics
from ..obs import trace as _trace
from ..testing import faults as _faults
from .backends import ProcessShardRunner, available_cpus, resolve_backend
from .cancel import CancelToken
from .resilience import DEFAULT_RESILIENCE, ResilienceConfig, run_shards
from .stats import RuntimeStats

__all__ = [
    "CANCEL_CHUNK_POINTS",
    "SCALAR_LANES",
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
#: health → Padé → metric per chunk, so every live buffer of the
#: moment kernel stays cache-resident: the 741's ~50 buffers take
#: ~50 × 4096 × 8 B ≈ 1.6 MB, inside a 2 MB per-core L2, where whole-grid
#: buffers would stream every op through L3/DRAM.  Of 2048..65536 on the
#: 512×512 741 surface, 4096 is the smallest size on the fastest plateau
#: (``docs/runtime.md``).  It is also the granularity at which a shard
#: observes its cancel token, i.e. the bound on wasted work after a
#: deadline/timeout/interrupt.
CANCEL_CHUNK_POINTS = 4096

#: chunks of at most this many points run lane by lane
#: (:func:`_scalar_chunk`): the moment program's scalar code, the
#: per-point Padé and the scalar metric, instead of ~100 numpy calls on
#: few-lane arrays.  It is the measured crossover of the slowest
#: registered metric: on one pinned vCPU of the 2-vCPU bench box the
#: vector path overtakes the scalar lane at ~4 lanes for
#: ``phase_margin`` and at ~8-10 for ``dominant_pole_hz``/``dc_gain``
#: (``docs/runtime.md``).
SCALAR_LANES = 4

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
    terms = -residues / poles
    if len(terms) > 3:
        # numpy adds a 1-D complex sum of four or more terms pairwise, as
        # the scalar ``np.sum`` does; summing one contiguous row per lane
        # repeats that order (up to three terms, both add in sequence)
        return np.ascontiguousarray(terms.T).sum(axis=1).real
    return terms.sum(axis=0).real


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
def grid_columns(model, grids: Mapping[str, np.ndarray],
                 ) -> tuple[list[str], tuple[int, ...], list]:
    """Flatten cartesian element-value grids into positional symbol columns.

    Returns ``(names, shape, columns)`` where ``columns`` has one entry
    per model symbol: a flattened ``(n_points,)`` float array for swept
    symbols, or the scalar nominal for the rest.

    Raises:
        ApproximationError: a grid name is not a symbolic element.
    """
    names = list(grids)
    slots = [model.slot(name) for name in names]
    axes = [np.asarray(grids[name], dtype=float) for name in names]
    shape = tuple(len(a) for a in axes)
    columns: list = [float(s.nominal) for s in model.space.symbols]
    if axes:
        # one axis, or axes of one value each, are their own mesh
        mesh = (axes if len(axes) == 1 or math.prod(shape) == 1
                else np.meshgrid(*axes, indexing="ij"))
        for (pos, transform), grid in zip(slots, mesh):
            columns[pos] = np.asarray(transform(grid.reshape(-1)),
                                      dtype=float)
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
    names = list(samples)
    if not names:
        raise ApproximationError("paired sweep needs at least one "
                                 "sample column")
    slots = [model.slot(name) for name in names]
    arrays = [np.asarray(samples[name], dtype=float).reshape(-1)
              for name in names]
    n = arrays[0].size
    if any(a.size != n for a in arrays):
        raise ApproximationError(
            "paired sample columns must share one length, got "
            + str({name: a.size for name, a in zip(names, arrays)}))
    columns: list = [float(s.nominal) for s in model.space.symbols]
    for (pos, transform), arr in zip(slots, arrays):
        columns[pos] = np.asarray(transform(arr), dtype=float)
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
        ok = (m1 != 0.0) & (m0 != 0.0) & np.isfinite(p) & np.isfinite(r)
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
            # 0.0 - x, not -x: a real pole's zero stays +0.0, as in
            # the per-point path, and every nonzero x negates exactly
            out.imag[1] = 0.0 - out.imag[0]
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
def _moment_scales(m: np.ndarray) -> np.ndarray:
    """Per-lane :func:`repro.awe.scaling.moment_scale` of ``(rows, n)``
    moments, bit for bit.

    ``moment_scale`` averages one lane's valid log-ratios with
    ``np.mean``, which numpy adds pairwise; a masked sum down the rows
    adds in another order.  Lanes with the same number of valid ratios
    are packed, in row order, into the rows of one C-contiguous array, so
    the axis-1 mean adds each lane's ratios as the 1-D mean does.
    """
    valid = (m[:-1] != 0.0) & (m[1:] != 0.0)
    ratios = np.abs(m[:-1] / m[1:])
    count = valid.sum(axis=0)
    a = np.ones(m.shape[1])
    for c in np.unique(count[count > 0]):
        lanes = np.flatnonzero(count == c)
        packed = ratios.T[lanes][valid.T[lanes]].reshape(-1, c)
        s = np.exp(np.mean(np.log(packed), axis=1))
        a[lanes] = np.where(np.isfinite(s) & (s != 0.0), s, 1.0)
    return a


def _solve_lanes(A: np.ndarray, b: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Stacked ``np.linalg.solve`` of ``A x = b`` for ``(n, k, k)``
    systems and ``(n, k)`` right-hand sides, plus the mask of the lanes
    whose LU factorization is exactly singular (their ``x`` is garbage).

    One such lane makes the stacked solve raise for the whole stack.
    Only then does ``slogdet``, which runs the same ``getrf`` on the same
    copy of each matrix, name the lanes where ``np.linalg.solve`` raises
    on its own; the rest are solved again.
    """
    try:
        return (np.linalg.solve(A, b[:, :, None])[:, :, 0],
                np.zeros(len(A), dtype=bool))
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(A)[0] == 0.0
        A = np.where(singular[:, None, None], np.eye(A.shape[1]), A)
        return np.linalg.solve(A, b[:, :, None])[:, :, 0], singular


def _eigvals_lanes(comp: np.ndarray) -> np.ndarray:
    """Complex eigenvalues ``(n, q)`` of stacked companion matrices, NaN
    on a lane where ``dgeev`` does not converge (``np.roots`` raises
    there, so that lane must take the per-point path)."""
    try:
        return np.linalg.eigvals(comp).astype(complex, copy=False)
    except np.linalg.LinAlgError:
        w = np.full(comp.shape[:2], np.nan, dtype=complex)
        for i, lane in enumerate(comp):
            try:
                w[i] = np.linalg.eigvals(lane)
            except np.linalg.LinAlgError:
                pass
        return w


#: sign margin of the stable ladder's pre-rejection.  A polynomial whose
#: roots all lie in the open left half-plane has only positive
#: coefficients, so a denominator ``1 + b1 s + ... + bq s^q`` with a
#: coefficient below ``-TAU * max(1, max|b|)`` has a root with Re >= 0.
#: That is far outside the companion eigensolver's backward error, so
#: ``eigvals`` would report a pole with Re >= 0 too: the lane is rejected
#: without it.  Lanes inside the margin take the eigenvalue test.
TAU = 1e-6


def vector_poles_residues_general(moments: np.ndarray, order: int, *,
                                  require_stable: bool = False,
                                  scales: np.ndarray | None = None,
                                  ) -> tuple[np.ndarray, np.ndarray,
                                             np.ndarray, np.ndarray]:
    """The order-``q`` attempt of
    :func:`repro.awe.stability.stable_reduction`, lane by lane over a
    stack of moment columns.

    An exact transcription: each lane repeats the scalar attempt's IEEE
    operations — the moment-ratio scale (:func:`_moment_scales`), the
    scaled Hankel solve for ``b1..bq``, the roots of
    ``[b_q .. b_1, 1]`` as eigenvalues of the companion matrix
    ``np.roots`` builds, the residues of the moment/pole Vandermonde
    system, and the unscaling by ``a``.  ``np.linalg.eigvals`` returns
    float only when every eigenvalue of its *whole* input is real, which
    is per lane for ``np.roots``; so a lane whose poles are all real
    builds its Vandermonde and unscales its poles in float, the others
    in complex.  A lane's values therefore do not depend on the lanes
    stacked with it.

    With ``require_stable``, a lane whose model the scalar loop would
    discard as unstable comes back ``failed`` before the LAPACK work it
    no longer needs: a denominator coefficient below ``-TAU`` (relative,
    see :data:`TAU`) rejects it before ``eigvals``, and a pole with
    ``Re >= 0`` before the residue solve.  Every ``ok`` lane is then an
    ``ok`` and stable lane of the plain attempt, with the same bytes.

    Args:
        moments: ``(>= 2*order, n_points)`` float array (all rows enter
            the conditioning-scale estimate, as in the scalar path).
        order: number of poles ``q`` (any ``q >= 1``).
        require_stable: fail the lanes whose poles are not all in the
            open left half-plane.
        scales: the lanes' :func:`_moment_scales`, which do not depend
            on ``order``; computed from ``moments`` when None.

    Returns:
        ``(poles, residues, ok, failed)``: ``poles``/``residues`` of shape
        ``(order, n_points)`` complex; ``ok`` marks the lanes where the
        scalar attempt returns exactly these poles and residues (stable
        or not, unless ``require_stable``), ``failed`` those where it
        raises :class:`ApproximationError` (singular Hankel system,
        non-finite denominator, a pole at the origin, repeated poles) or
        is unstable when stability is required, so the stable-order
        ladder retries them one order lower.  Lanes in neither mask — a
        zero leading coefficient, which ``np.roots`` trims, a non-finite
        companion matrix, no ``dgeev`` convergence, non-finite poles or
        residues — must take the per-point path.
    """
    q = int(order)
    rows, n = moments.shape
    if q < 1 or rows < 2 * q:
        raise ApproximationError(
            f"order {q} Padé needs {2 * q} moments, got {rows}")
    poles = np.zeros((q, n), dtype=complex)
    residues = np.zeros((q, n), dtype=complex)
    ok = np.zeros(n, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                     under="ignore"):
        a = _moment_scales(moments) if scales is None else scales
        # m'_k = m_k a^k as one (n, rows) power whose inner loop runs over
        # the exponents, like scale_moments' 1-D ``a ** arange``: a power
        # with a scalar exponent of 2 squares instead, an ulp apart
        s = moments.T * np.power(a[:, None], np.arange(rows, dtype=float))
        # Hankel solve for b1..bq: sum_j b_j m'_{k-j} = -m'_k, k = q..2q-1
        hankel = q + np.arange(q)[:, None] - np.arange(1, q + 1)
        b, failed = _solve_lanes(s[:, hankel], -s[:, q:2 * q])
        failed |= ~np.isfinite(b).all(axis=1)
        lanes = np.flatnonzero(~failed & (b[:, -1] != 0.0))
        # np.roots' companion matrix of p = [b_q .. b_1, 1]: first row
        # -p[1:] / p[0], ones below the diagonal
        p = np.concatenate([b[lanes, ::-1], np.ones((len(lanes), 1))],
                           axis=1)
        comp = np.zeros((len(lanes), q, q))
        comp[:, 0, :] = -p[:, 1:] / p[:, :1]
        comp[:, np.arange(1, q), np.arange(q - 1)] = 1.0
        finite = np.isfinite(comp[:, 0, :]).all(axis=1)
        lanes, comp = lanes[finite], comp[finite]
        if require_stable:
            bl = b[lanes]
            unstable = (bl.min(axis=1)
                        < -TAU * np.maximum(1.0, np.abs(bl).max(axis=1)))
            failed[lanes[unstable]] = True
            lanes, comp = lanes[~unstable], comp[~unstable]
        w = _eigvals_lanes(comp)
        converged = np.isfinite(w).all(axis=1)
        lanes, w = lanes[converged], w[converged]
        origin = (np.abs(w) < 1e-300).any(axis=1)
        failed[lanes[origin]] = True
        lanes, w = lanes[~origin], w[~origin]
        if require_stable:
            # the unscaled poles' real parts, as the scalar model's
            unstable = ~(w.real * a[lanes, None] < 0.0).all(axis=1)
            failed[lanes[unstable]] = True
            lanes, w = lanes[~unstable], w[~unstable]
        # residues: m'_k = -sum_i r_i / p_i^(k+1), k = 0..q-1, with the
        # Vandermonde rows in float where np.roots returns float poles
        real = (w.imag == 0.0).all(axis=1)
        w_real = np.ascontiguousarray(w[real].real)
        w_cplx = w[~real]
        V = np.empty((len(lanes), q, q), dtype=complex)
        for k in range(q):
            V[real, k] = -1.0 / w_real ** (k + 1)
            V[~real, k] = -1.0 / w_cplx ** (k + 1)
        res, repeated = _solve_lanes(V, s[lanes, :q].astype(complex))
        failed[lanes[repeated]] = True
        keep = ~repeated
        w_real, w_cplx = w_real[keep[real]], w_cplx[keep[~real]]
        lanes, real, res = lanes[keep], real[keep], res[keep]
        # unscale: p = a p', r = a r'
        a = a[lanes]
        poles.real[:, lanes[real]] = (w_real * a[real, None]).T
        poles[:, lanes[~real]] = (w_cplx * a[~real, None]).T
        residues[:, lanes] = (res * a[:, None]).T
        ok[lanes] = (np.isfinite(poles[:, lanes]).all(axis=0)
                     & np.isfinite(residues[:, lanes]).all(axis=0))
    return poles, residues, ok, failed


def _stable_ladder(moments: np.ndarray, order: int, require_stable: bool,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`repro.awe.stability.stable_reduction` over a stack of
    moment columns: every lane the order-``q`` attempt rejects (fails,
    or is unstable when stability is required) is retried at
    ``q - 1, ..., 1``, as the scalar loop does, so a settled lane has
    dropped ``order - settled`` orders.

    Returns ``(poles, residues, settled)``: ``settled`` is each lane's
    final order (0 where no attempt settled it: the ladder ran dry, or
    an attempt could not decide), and the lane's model is the first
    ``settled`` rows of its ``(order, n)`` poles and residues.

    The moment scales are computed once, for every attempt; with
    ``require_stable`` an attempt fails its unstable lanes itself, so
    LAPACK runs only where a lane can still settle.
    """
    n = moments.shape[1]
    poles = np.zeros((order, n), dtype=complex)
    residues = np.zeros_like(poles)
    settled = np.zeros(n, dtype=int)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scales = _moment_scales(moments)
    lanes = np.arange(n)
    for q in range(order, 0, -1):
        p, r, ok, failed = vector_poles_residues_general(
            moments[:, lanes], q, require_stable=require_stable,
            scales=scales[lanes])
        done = lanes[ok]
        poles[:q, done] = p[:, ok]
        residues[:q, done] = r[:, ok]
        settled[done] = q
        lanes = lanes[failed]
        if not lanes.size:
            break
    return poles, residues, settled


# ----------------------------------------------------------------------
# sweep core
# ----------------------------------------------------------------------
_SINGULAR_MSG = "global symbolic system singular at this point"


def _chunk_moments(model, columns: Sequence, n_points: int,
                   stats: RuntimeStats, diag: SweepDiagnostics,
                   offset: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the moment program once over a flattened chunk.

    One register-machine pass of the model's program
    (:attr:`~repro.partition.composite.CompiledMoments.fn`) emits every
    moment *and* the determinant, through whichever evaluator
    :meth:`~repro.symbolic.compile.CompiledFunction.eval_batch` picks.
    Returns ``(moments, singular, det)`` where ``singular`` marks points
    whose symbolic system determinant ``det`` is exactly zero (see
    :func:`_scan_singular`).
    """
    fn = model.compiled_moments.fn
    with stats.stage("evaluate"):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            raw = fn.eval_batch(columns, n_points)
            if type(raw) is np.ndarray:
                # the native kernel's (outputs, n) slab: its rows are the
                # moments and the determinant, used in place
                stats.native_points += n_points
                moments, det = raw[:-1], raw[-1]
            else:
                det = np.broadcast_to(np.asarray(raw[-1], dtype=float),
                                      (n_points,))
                moments = np.empty((len(raw) - 1, n_points))
                for k in range(len(raw) - 1):
                    moments[k] = raw[k]
            singular = _scan_singular(moments, det, diag, offset)
    if _faults.ACTIVE is not None:
        _faults.fault_point("sweep.moments", moments=moments, offset=offset)
    return moments, singular, det


def _scan_singular(moments: np.ndarray, det: np.ndarray,
                   diag: SweepDiagnostics, offset: int) -> np.ndarray:
    """Mark the points whose determinant is exactly zero.  In strict mode
    any such point raises :class:`PartitionError` (the pre-quarantine
    behavior); in lenient mode those points are quarantined with stage
    ``"moments"`` and their moment columns become NaN."""
    singular = det == 0.0
    if singular.any():
        if diag.strict:
            raise PartitionError(_SINGULAR_MSG)
        for i in np.flatnonzero(singular):
            diag.quarantine(QuarantinedPoint(
                index=offset + int(i), stage="moments",
                error="PartitionError", message=_SINGULAR_MSG))
        moments[:, singular] = np.nan
    return singular


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


def _hankel_cond2_lane(m0: float, m1: float, m2: float) -> float:
    """:func:`_hankel_cond2` of one point in Python floats: the same IEEE
    operations in the same order, so every finite value is bit-identical
    (the guards stand in for ``np.where``; non-finite values, which the
    health summary drops, may differ)."""
    a = abs(m0 / m1) if m0 != 0.0 and m1 != 0.0 else 1.0
    s0, s1, s2 = m0, m1 * a, m2 * a * a
    frob = s0 * s0 + 2.0 * s1 * s1 + s2 * s2
    absdet = abs(s1 * s1 - s0 * s2)
    root = math.sqrt(max(frob * frob - 4.0 * absdet * absdet, 0.0))
    sigma2_sq = (frob - root) / 2.0
    if not sigma2_sq > 0.0:
        return math.inf
    return math.sqrt((frob + root) / sigma2_sq)


def _scalar_chunk(model, columns: Sequence, out: np.ndarray,
                  metric: Callable[[ReducedOrderModel], float], order: int,
                  require_stable: bool, offset: int,
                  stats: RuntimeStats, diag: SweepDiagnostics) -> None:
    """:func:`_sweep_chunk` of at most :data:`SCALAR_LANES` points, lane
    by lane through the per-point path.

    Each lane runs the moment program's scalar code (``eval_batch`` of
    one point), the closed form or stable-order ladder of
    :func:`~repro.awe.stability.rom_from_moments`, and the scalar metric,
    so its value, quarantine record and dropped orders are the per-point
    sweep's by construction.  The chunk keeps the vector path's contract:
    it times its ``evaluate``/``health``/``pade``/``metric`` stages, fires
    the ``sweep.moments`` fault site on a ``(rows, n)`` moment slab that
    its Padé then reads, folds the same per-point health values as
    :func:`_chunk_health`, and counts as fallback the lanes the vector
    path routes per point (a degenerate or unstable closed form, or no
    order settling).
    """
    n_points = len(out)
    fn = model.compiled_moments.fn
    with stats.stage("evaluate"):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # one row per lane: its moments, then its determinant
            lanes = np.array([
                fn.eval_batch([c[i:i + 1] if isinstance(c, np.ndarray)
                               else c for c in columns], 1)
                for i in range(n_points)], dtype=float)
        det = lanes[:, -1]
        moments = lanes[:, :-1].T
        singular = _scan_singular(moments, det, diag, offset).tolist()
    if _faults.ACTIVE is not None:
        _faults.fault_point("sweep.moments", moments=moments, offset=offset)
    rows = lanes.tolist()

    with stats.stage("health"):
        for lane in rows:
            m0, m1 = lane[0], lane[1]
            diag.y0_det_abs.add_value(abs(lane[-1]))
            if m1 != 0.0:
                diag.moment_decay.add_value(abs(m0 / m1))
            if order == 2 and len(lane) > 3:
                diag.hankel_condition.add_value(
                    _hankel_cond2_lane(m0, m1, lane[2]))

    roms: list = [None] * n_points
    fallback = 0
    with stats.stage("pade"):
        for i, lane in enumerate(rows):
            if singular[i]:
                continue
            m = lane[:-1]
            rom = (closed_form_rom(m, order, require_stable) if order <= 2
                   else None)
            # the vector path routes a lane per point where the closed
            # form fails, or where no order of the ladder settles
            per_point = rom is None and order <= 2
            if rom is None:
                try:
                    rom = stable_reduction(np.asarray(m), order,
                                           require_stable=require_stable)
                except ApproximationError as exc:
                    per_point = True
                    diag.quarantine_error(offset + i, "pade", exc)
            fallback += per_point
            roms[i] = rom
    stats.points += n_points
    diag.points += n_points
    stats.fallback_points += fallback
    stats.vectorized_points += n_points - sum(singular) - fallback

    out[:] = np.nan
    with stats.stage("metric"):
        for i, rom in enumerate(roms):
            if rom is None:
                continue
            diag.record_drop(rom.dropped_unstable)
            try:
                out[i] = metric(rom)  # NaN stays, as per point
            except ApproximationError as exc:
                diag.quarantine_error(offset + i, "metric", exc)


def _sweep_chunk(model, columns: Sequence, out: np.ndarray,
                 metric: Callable[[ReducedOrderModel], float], order: int,
                 require_stable: bool, offset: int,
                 stats: RuntimeStats, diag: SweepDiagnostics) -> None:
    """Evaluate one flattened chunk into ``out``, a complex view of
    ``len(out)`` points whose every entry the call overwrites.

    Stage times and counters accumulate into ``stats``; quarantine
    indices recorded in ``diag`` are global (``offset`` + local).  A
    chunk of at most :data:`SCALAR_LANES` points runs the scalar lane
    (:func:`_scalar_chunk`).
    """
    n_points = len(out)
    if n_points <= SCALAR_LANES:
        _scalar_chunk(model, columns, out, metric, order, require_stable,
                      offset, stats, diag)
        return
    moments, singular, det = _chunk_moments(model, columns, n_points, stats,
                                            diag, offset)
    with stats.stage("health"):
        _chunk_health(moments, det, order, diag)

    with stats.stage("pade"):
        if order <= 2:
            poles, residues, ok = vector_poles_residues(moments, order)
            if require_stable:
                ok &= np.all(poles.real < 0.0, axis=0)
            ok &= ~singular
        else:
            poles, residues, settled = _stable_ladder(moments, order,
                                                      require_stable)
            settled[singular] = 0
            ok = settled == order
    stats.points += n_points
    diag.points += n_points
    vectorized = VECTOR_METRICS.get(metric)
    if vectorized is not None and ok.all():
        # the usual chunk: every lane passed the first attempt, so the
        # metric takes the whole slab — no gather of poles/residues and
        # no scatter of values (a full gather keeps the memory layout,
        # so axis-0 reductions add in the same order either way)
        with stats.stage("metric"):
            out[:] = vectorized(poles, residues)
        stats.vectorized_points += n_points
        return
    out[:] = np.nan
    scales = None  # a closed-form model (order <= 2) carries scale 1.0
    if order <= 2:
        settled = np.where(ok, order, 0)
    elif vectorized is None:
        # a ladder lane's model is stable_reduction's, which carries the
        # lane's moment scale
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            scales = _moment_scales(moments)
    dropped_total = 0
    with stats.stage("metric"):
        # lanes grouped by the order they settled at; every group's
        # model has dropped ``order - q`` orders, like the scalar ladder's
        for q in range(order, 0, -1):
            lanes = np.flatnonzero(settled == q)
            if not lanes.size:
                continue
            dropped = order - q
            p, r = poles[:q, lanes], residues[:q, lanes]
            if vectorized is not None:
                out[lanes] = vectorized(p, r)
            else:
                for j, i in enumerate(lanes):
                    rom = ReducedOrderModel(
                        p[:, j], r[:, j], order_requested=order,
                        scale=1.0 if scales is None else float(scales[i]),
                        dropped_unstable=dropped)
                    try:
                        out[i] = metric(rom)  # NaN stays, as per point
                    except ApproximationError as exc:
                        diag.quarantine_error(offset + int(i), "metric",
                                              exc)
            stats.vectorized_points += lanes.size
            diag.record_drop(dropped, lanes.size)
            dropped_total += dropped * lanes.size
    if dropped_total:
        _obs_metrics.registry().counter(
            "repro_pade_dropped_orders_total",
            "orders dropped by the stable-reduction fallback",
        ).inc(dropped_total)

    fallback = np.flatnonzero((settled == 0) & ~singular)
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
                  strict: bool = False, chunk_points: int | None = None,
                  cancel: CancelToken | None = None, shard: int = 0,
                  out: np.ndarray | None = None,
                  ) -> tuple[np.ndarray, RuntimeStats, SweepDiagnostics]:
    """Stream one shard's points through cache-resident chunks.

    The one chunk loop of every backend: in-process shards
    (serial/thread) and process-backend workers both evaluate
    their range here.  ``columns`` are the shard's own argument columns
    (arrays of ``n_points`` or scalars) and ``offset`` is the shard's
    first global flat index.  Each chunk of at most ``chunk_points``
    (default :data:`CANCEL_CHUNK_POINTS`) points runs moments → health →
    Padé → metric while its buffers are cache-resident.  Chunk
    boundaries only split lane-wise work, so values do not depend on
    the chunk size at any order.  Results land in ``out`` (a
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
                     offset + a, stats, diag)
    return out, stats, diag


def _collapse_dtype(out: np.ndarray) -> np.ndarray:
    """Return a float array when every value is real (NaN counts as real),
    keeping complex only when the metric genuinely produced complex values."""
    imag = out.imag
    if not imag.any() or np.all((imag == 0.0) | np.isnan(imag)):
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
        workers = min(int(shards), available_cpus())
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
    :meth:`TapeModel.sweep_per_point` loop: same arguments, same output
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
            a loaded :class:`~repro.core.compiled_model.TapeModel` (a
            ``.tape`` artifact or a program-cache entry).
        grids: ``{element_name: 1-D value array}``; output has one axis
            per grid in the given order.
        metric: scalar metric of a reduced-order model.  Metrics listed
            in :data:`VECTOR_METRICS` evaluate as one array expression.
        order: Padé order (default: the model's compiled order).
        require_stable: demand stable poles (unstable points retry at
            lower orders, like the scalar path's stable-order fallback).
        shards: number of contiguous grid chunks (default: one per worker).
        max_workers: worker-pool width for shard execution (default:
            ``min(shards, available_cpus())`` when sharding was
            requested, else 1).
        backend: where shard attempts run — ``"serial"``, ``"thread"``,
            ``"process"``, or ``"auto"``/``None`` (thread pool when more
            than one worker, else serial).  The process backend ships
            the compiled program to spawned workers and moves bulk
            arrays through shared memory.  Every backend's chunks run
            the native moment kernel once it is built (the ufunc kernel
            until then), each on its shard's own thread; results are
            bit-identical across backends and kernels (see
            :mod:`repro.runtime.backends`).
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
            not depend on it, as a chunk boundary only splits lane-wise
            work.

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
        model._check_order(q)
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
        stats.backend = backend_name
        stats.shards = n_shards
        stats.workers = workers
        bounds = ((0, n_points) if n_shards == 1 else
                  np.linspace(0, n_points, n_shards + 1, dtype=int))

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
                                 strict=config.strict,
                                 chunk_points=chunk_points,
                                 cancel=token, shard=shard)

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
    if not diagnostics.quarantined or not shape:
        return
    axes = [np.asarray(grids[n], dtype=float).reshape(-1) for n in names]
    for point in diagnostics.quarantined:
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
