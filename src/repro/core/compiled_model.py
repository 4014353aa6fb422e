"""The compiled AWEsymbolic model — the paper's deliverable.

A :class:`CompiledAWEModel` wraps the compiled symbolic moments plus
(optionally) closed-form order-1/2 pole expressions.  Evaluating it at new
element values costs a handful of arithmetic operations followed by a tiny
(≤ order×order) numeric Padé — no matrix assembly, no LU of the circuit.
"That the symbolic form provides a compiled set of operations which can
quickly produce a final AWE approximation, where the operands are the
values of the symbols" is this class.

Results are *identical* to running full numeric AWE at the same element
values (enforced by tests), only orders of magnitude cheaper per iteration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from ..awe.model import ReducedOrderModel
from ..awe.stability import rom_from_moments
from ..diagnostics import SweepDiagnostics, SweepResult
from ..errors import ApproximationError, PartitionError
from ..partition.blocks import CircuitPartition
from ..partition.composite import CompiledMoments, SymbolicMoments
from .symbolic_pade import SymbolicFirstOrder, SymbolicSecondOrder


@dataclass(frozen=True)
class PoleSensitivityResult:
    """Poles/zeros and their derivatives w.r.t. one element's natural value."""

    element: str
    value: float
    poles: np.ndarray
    d_poles: np.ndarray
    zeros: np.ndarray
    d_zeros: np.ndarray

    def dominant(self) -> tuple[complex, complex]:
        """``(p_dom, dp_dom/dvalue)`` for the pole nearest the jω axis."""
        i = int(np.argmin(np.abs(self.poles.real)))
        return complex(self.poles[i]), complex(self.d_poles[i])


class CompiledAWEModel:
    """Fast re-evaluable AWE model parameterized by symbolic element values."""

    def __init__(self, partition: CircuitPartition, moments: SymbolicMoments,
                 order: int,
                 first_order: SymbolicFirstOrder | None = None,
                 second_order: SymbolicSecondOrder | None = None) -> None:
        self.partition = partition
        self.moments = moments
        self.order = order
        t0 = time.perf_counter()
        self.compiled_moments: CompiledMoments = moments.compile()
        #: one-time program compilation cost, reported separately from
        #: per-sweep evaluation by RuntimeStats (the Table 1 split)
        self.compile_seconds: float = time.perf_counter() - t0
        self.first_order = first_order
        self.second_order = second_order
        self._compiled_first = first_order.compile() if first_order else None
        self._compiled_second = second_order.compile() if second_order else None
        self._compiled_sens = None  # built lazily by pole_sensitivities
        # hot-path lookup tables: element name -> (position, value transform)
        self._slot = {se.name: (i, se.to_symbol_value)
                      for i, se in enumerate(partition.symbolic)}
        self._nominal = [float(se.symbol.nominal)  # type: ignore[arg-type]
                         for se in partition.symbolic]

    # ------------------------------------------------------------------
    @property
    def space(self):
        return self.moments.space

    @property
    def n_ops(self) -> int:
        """Arithmetic operations per moment evaluation (the paper's
        "reduced set of operations")."""
        return self.compiled_moments.n_ops

    @property
    def element_slots(self) -> Mapping[str, tuple]:
        """``element name -> (symbol position, value transform)`` — the
        lookup table the batched runtime uses to build argument columns."""
        return self._slot

    def symbol_values(self, element_values: Mapping[str, float] | None = None,
                      ) -> dict[str, float]:
        """Map user-facing element values (ohms, farads, ...) to stamped
        symbol values; omitted elements take their nominal."""
        return self.partition.symbol_values(dict(element_values or {}))

    # ------------------------------------------------------------------
    # evaluation paths
    # ------------------------------------------------------------------
    def moments_at(self, element_values: Mapping[str, float] | None = None,
                   ) -> np.ndarray:
        """Numeric moments at the given element values (compiled path)."""
        return self.compiled_moments(self.symbol_values(element_values))

    def _values_vector(self, element_values: Mapping[str, float] | None,
                       ) -> list[float]:
        """Positional symbol values from element values (hot path)."""
        vec = list(self._nominal)
        if element_values:
            for name, value in element_values.items():
                try:
                    pos, transform = self._slot[name]
                except KeyError:
                    raise ApproximationError(
                        f"{name!r} is not a symbolic element of this model "
                        f"(symbols: {list(self._slot)})") from None
                vec[pos] = transform(float(value))
        return vec

    def rom(self, element_values: Mapping[str, float] | None = None,
            order: int | None = None,
            require_stable: bool = True) -> ReducedOrderModel:
        """Reduced-order model at the given element values.

        Runs the compiled moments then a tiny numeric Padé — this is the
        per-iteration operation whose cost Table 1 compares against a full
        AWE re-analysis.  Orders 1 and 2 take a pure-Python closed-form
        path (a few µs); higher orders use the general scaled Hankel solve.
        """
        q = self.order if order is None else order
        vec = self._values_vector(element_values)
        if 2 * q > len(self.moments.numerators):
            raise ApproximationError(
                f"model compiled with {len(self.moments.numerators)} moments; "
                f"order {q} needs {2 * q}")
        moments = self.compiled_moments.scalars(vec)
        return rom_from_moments(moments, q, require_stable=require_stable)

    def rom_closed_form(self, element_values: Mapping[str, float] | None = None,
                        order: int = 2) -> ReducedOrderModel:
        """Model via the fully-symbolic pole formulas (order 1 or 2 only).

        Raises:
            ApproximationError: when the requested closed form was not built.
        """
        values = self.symbol_values(element_values)
        if order == 1:
            if self._compiled_first is None:
                raise ApproximationError("first-order closed form not built")
            pole, residue, _ = self._compiled_first(values)
            return ReducedOrderModel(poles=[pole], residues=[residue],
                                     order_requested=1)
        if order == 2:
            if self._compiled_second is None:
                raise ApproximationError("second-order closed form not built")
            p1, p2, r1, r2, _ = self._compiled_second(values)
            return ReducedOrderModel(poles=[p1, p2], residues=[r1, r2],
                                     order_requested=2)
        raise ApproximationError(f"no closed form for order {order}")

    # ------------------------------------------------------------------
    # symbolic sensitivities
    # ------------------------------------------------------------------
    def pole_sensitivities(self, element_values: Mapping[str, float] | None = None,
                           order: int | None = None,
                           ) -> dict[str, "PoleSensitivityResult"]:
        """Exact ``∂p_i/∂(element value)`` for every symbolic element.

        Differentiates the compiled symbolic moments (closed form, no
        finite differences) and chains through the Padé.  Resistor symbols
        report sensitivities w.r.t. *resistance* (chain rule through the
        conductance stamp).
        """
        from ..awe.sensitivity import pole_sensitivities as _pz

        q = self.order if order is None else order
        if self._compiled_sens is None:
            self._compiled_sens = self.moments.compile_sensitivities()
        vec = self._values_vector(element_values)
        moments, dmoments = self._compiled_sens(vec)
        out: dict[str, PoleSensitivityResult] = {}
        for se in self.partition.symbolic:
            dm = dmoments[se.symbol.name]
            poles, d_poles, zeros, d_zeros = _pz(moments[:2 * q],
                                                 dm[:2 * q], q)
            value = (dict(element_values or {}).get(se.name)
                     or se.element.value)
            chain = se.dsym_dvalue(float(value))
            out[se.name] = PoleSensitivityResult(
                element=se.name, value=float(value), poles=poles,
                d_poles=d_poles * chain, zeros=zeros,
                d_zeros=d_zeros * chain)
        return out

    # ------------------------------------------------------------------
    # sweeps (figure surfaces)
    # ------------------------------------------------------------------
    def sweep(self, grids: Mapping[str, np.ndarray],
              metric: Callable[[ReducedOrderModel], float],
              order: int | None = None,
              require_stable: bool = True, *,
              vectorized: bool = True,
              shards: int | None = None,
              max_workers: int | None = None,
              stats=None,
              strict: bool = False,
              resilience=None,
              backend: str | None = None,
              cancel=None,
              chunk_points: int | None = None) -> np.ndarray:
        """Evaluate ``metric`` over the cartesian product of element-value grids.

        Runs through the batched runtime (:func:`repro.runtime.batched_sweep`)
        by default: the flattened grid streams through cache-resident
        chunks of :data:`repro.runtime.CANCEL_CHUNK_POINTS` points, each
        one array call of the compiled moment program, with the Padé
        solve vectorized and a per-point fallback only at
        degenerate/unstable points.  Pass
        ``vectorized=False`` to force the legacy per-point loop
        (:meth:`sweep_per_point`) — differential tests hold the two paths
        tolerance-identical, NaN placement included.

        Args:
            grids: ``{element_name: 1-D value array}``; the output array has
                one axis per grid, in the given order.
            metric: function of a :class:`ReducedOrderModel` (e.g.
                :func:`repro.core.metrics.phase_margin`).
            order: Padé order (default: the model's compiled order).
            require_stable: demand stable poles, retrying lower orders.
            vectorized: use the batched runtime (default) or the per-point
                oracle.
            shards: split the flattened grid into this many contiguous
                ranges (batched path only; default one per worker).
            max_workers: thread-pool width for shard execution (default
                serial).
            stats: optional :class:`repro.runtime.RuntimeStats` filled
                with per-stage timers and point counters.
            strict: raise on the first degenerate point instead of
                degrading it to NaN (lenient, the default, quarantines
                the point and reports it in ``result.diagnostics``).
            resilience: shard retry/timeout policy
                (:class:`repro.runtime.ResilienceConfig`; batched path
                only).
            backend: shard execution backend — ``"serial"``,
                ``"thread"``, ``"process"``, or ``"auto"``/``None``
                (batched path only; see :mod:`repro.runtime.backends`).
            cancel: cooperative cancellation token
                (:class:`repro.runtime.CancelToken`); a fired token
                drains the sweep with partial results and
                ``diagnostics.cancelled`` set (batched path only).
            chunk_points: points per streamed chunk, with or without a
                token — also the cancellation granularity (batched path
                only; default :data:`repro.runtime.CANCEL_CHUNK_POINTS`;
                see :func:`repro.runtime.batched_sweep`).

        Points where the Padé degenerates yield NaN rather than aborting
        the sweep (lenient mode), with a structured record in the
        returned array's ``diagnostics`` attribute.  The output is float
        unless the metric produces complex values, in which case the
        complex values are preserved.
        """
        if not vectorized:
            return self.sweep_per_point(grids, metric, order=order,
                                        require_stable=require_stable,
                                        strict=strict)
        from ..runtime.batched import batched_sweep  # lazy: avoids cycle

        return batched_sweep(self, grids, metric, order=order,
                             require_stable=require_stable, shards=shards,
                             max_workers=max_workers, stats=stats,
                             strict=strict, resilience=resilience,
                             backend=backend, cancel=cancel,
                             chunk_points=chunk_points)

    def sweep_per_point(self, grids: Mapping[str, np.ndarray],
                        metric: Callable[[ReducedOrderModel], float],
                        order: int | None = None,
                        require_stable: bool = True,
                        strict: bool = False) -> np.ndarray:
        """Reference per-point sweep (the batched runtime's correctness oracle).

        Walks the cartesian grid one :meth:`rom` call at a time.  Kept
        deliberately simple; ``tests/runtime/test_differential.py`` pins
        :meth:`sweep` to this path bit-for-bit on NaN placement and to
        tight tolerance on values.

        Failure semantics mirror the batched path so the two stay
        differentially identical: a point whose reduction or metric
        raises a library error is quarantined to NaN (recorded in the
        result's ``diagnostics``), or re-raised with ``strict=True``.
        """
        q = self.order if order is None else int(order)
        if 2 * q > len(self.moments.numerators):
            raise ApproximationError(
                f"model compiled with {len(self.moments.numerators)} moments; "
                f"order {q} needs {2 * q}")
        names = list(grids)
        for name in names:
            if name not in self._slot:
                raise ApproximationError(
                    f"{name!r} is not a symbolic element of this model "
                    f"(symbols: {list(self._slot)})")
        axes = [np.asarray(grids[n], dtype=float) for n in names]
        shape = tuple(len(a) for a in axes)
        diagnostics = SweepDiagnostics(strict=strict)
        out = np.full(shape, np.nan, dtype=complex)
        for flat, idx in enumerate(np.ndindex(*shape)):
            values = {n: float(a[i]) for n, a, i in zip(names, axes, idx)}
            try:
                model = self.rom(values, order=order,
                                 require_stable=require_stable)
            except PartitionError as exc:
                diagnostics.quarantine_error(flat, "moments", exc)
                self._locate_quarantined(diagnostics, idx, values)
                continue
            except ApproximationError as exc:
                diagnostics.quarantine_error(flat, "pade", exc)
                self._locate_quarantined(diagnostics, idx, values)
                continue
            diagnostics.record_drop(model.dropped_unstable)
            try:
                out[idx] = metric(model)
            except ApproximationError as exc:
                diagnostics.quarantine_error(flat, "metric", exc)
                self._locate_quarantined(diagnostics, idx, values)
        diagnostics.points = int(out.size)
        diagnostics.nan_points = int(np.isnan(out.real).sum())
        if np.all((out.imag == 0.0) | np.isnan(out.imag)):
            # .real.copy() is 0-d safe, unlike ascontiguousarray
            return SweepResult(out.real.copy(), diagnostics)
        return SweepResult(out, diagnostics)

    @staticmethod
    def _locate_quarantined(diagnostics: SweepDiagnostics,
                            idx: tuple[int, ...],
                            values: Mapping[str, float]) -> None:
        """Attach grid coordinates to the record just quarantined."""
        point = diagnostics.quarantined[-1]
        point.grid_index = tuple(int(i) for i in idx)
        point.values = dict(values)

    def __repr__(self) -> str:
        return (f"CompiledAWEModel(order={self.order}, "
                f"symbols={list(self.space.names)}, n_ops={self.n_ops})")
