"""The compiled AWEsymbolic model — the paper's deliverable.

There is one model surface.  A :class:`TapeModel` evaluates a *model
tape* — the compiled moment program (:mod:`repro.symbolic.tape`) plus
the metadata mapping element values onto its inputs — and owns the
element slots, :meth:`~TapeModel.moments_at`, :meth:`~TapeModel.rom`,
the batched :meth:`~TapeModel.sweep` and its per-point oracle.  The
model tape is the one on-disk form of a compiled model: ``.tape``
artifacts (``repro compile --emit-tape``, ``repro analyze --save``) and
program-cache entries load into a :class:`TapeModel`.
:class:`CompiledAWEModel` is the :class:`TapeModel` of its own model
tape, adding only what the symbolic form knows: the partition, the
moment polynomials, the closed-form poles and the sensitivities.

A model has one program: the fused moment program of its tape
(:func:`~repro.partition.composite.moment_tape`), built once and run by
every point, every sweep chunk, every process worker and the profiler.
A point costs a handful of arithmetic operations followed by a tiny
(≤ order×order) numeric Padé — no matrix assembly, no LU of the
circuit, and results *identical* to full numeric AWE at the same element
values (enforced by tests).  The program depends only on the model's
content, so it is the same tape in every process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ..awe.model import ReducedOrderModel
from ..awe.stability import rom_from_moments
from ..diagnostics import SweepDiagnostics, SweepResult
from ..errors import ApproximationError, PartitionError, TapeError
from ..partition.blocks import CircuitPartition
from ..partition.composite import CompiledMoments, SymbolicMoments
from ..symbolic.compile import CompiledFunction
from ..symbolic.symbols import TRANSFORMS
from ..symbolic.tape import OpTape, fuse_moments
from .symbolic_pade import SymbolicFirstOrder, SymbolicSecondOrder

#: ``meta["kind"]`` of a model tape
MODEL_KIND = "awesymbolic-moments"


def model_tape(program: OpTape, *, title: str, output: str, order: int,
               moment_order: int, elements: Sequence) -> OpTape:
    """``program`` carrying the metadata of a model tape.

    ``elements`` lists ``[element name, symbol position, transform
    name]`` entries (:data:`~repro.symbolic.symbols.TRANSFORMS`).
    """
    meta = {
        "kind": MODEL_KIND,
        "title": str(title),
        "output": str(output),
        "order": int(order),
        "moment_order": int(moment_order),
        "elements": [[str(n), int(p), str(t)] for n, p, t in elements],
    }
    return OpTape(program.symbols, program.consts, program.ops,
                  program.outputs, program.output_names, meta=meta,
                  fused=program.fused)


def model_slots(tape: OpTape) -> dict[str, tuple]:
    """``element name -> (symbol position, value transform)`` from a
    model tape's meta, checked without executing the program.

    Raises:
        TapeError: ``tape`` is a bare program (no model metadata), or
            its element table is malformed or names a transform this
            build does not know.
    """
    meta = tape.meta
    if meta.get("kind") != MODEL_KIND:
        raise TapeError(
            "this op tape is a bare program, not a model artifact "
            "(missing awesymbolic-moments metadata); build it with "
            "tape_from_model or `repro compile --emit-tape`")
    slots: dict[str, tuple] = {}
    try:
        for name, pos, tname in meta.get("elements", []):
            if not 0 <= int(pos) < tape.n_inputs:
                raise TapeError(f"op tape element {name!r} has no input "
                                f"register {pos!r}")
            if tname not in TRANSFORMS:
                raise TapeError(
                    f"op tape names unknown transform {tname!r}")
            slots[str(name)] = (int(pos), TRANSFORMS[tname])
    except (TypeError, ValueError) as exc:
        raise TapeError(f"malformed model-tape elements: {exc}") from None
    return slots


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


class TapeModel:
    """A sweep-ready, circuit-free model over a *model* tape.

    ``.tape`` artifacts and program-cache entries load into it, and a
    :class:`CompiledAWEModel` is one.  It exposes ``compiled_moments`` /
    ``element_slots`` / ``order`` / ``sweep``, so it is a full citizen
    of the batched runtime and the serving registry; the program is
    ``exec``'d straight off the tape, or passed in as ``fn`` when the
    caller already compiled it.  A schema-1 (unfused) model tape from an
    older build is fused here, once, so :attr:`tape` is always the
    schema-2 program every evaluation runs.
    """

    def __init__(self, tape: OpTape,
                 fn: CompiledFunction | None = None) -> None:
        slots = model_slots(tape)
        meta = tape.meta
        if tape.fused is None:
            tape = fuse_moments(tape)
        self.tape = tape
        self.title = str(meta.get("title", ""))
        self.output = str(meta.get("output", ""))
        self.order = int(meta.get("order", 1))
        t0 = time.perf_counter()
        if fn is None:
            fn = tape.build_function()
        moment_order = int(meta.get("moment_order",
                                    len(tape.outputs) - 2))
        self.compiled_moments = CompiledMoments(fn=fn, order=moment_order)
        #: one-time program compilation cost, reported separately from
        #: per-sweep evaluation by RuntimeStats (the Table 1 split)
        self.compile_seconds = time.perf_counter() - t0
        self.space = fn.space
        #: ``element name -> (symbol position, value transform)`` — the
        #: lookup table the batched runtime builds argument columns from
        self.element_slots = slots
        self._nominal = [float(s.nominal) for s in self.space.symbols]

    @property
    def n_ops(self) -> int:
        """Arithmetic operations per moment evaluation (the paper's
        "reduced set of operations")."""
        return self.tape.n_ops

    def slot(self, name: str) -> tuple:
        """``(symbol position, value transform)`` of a symbolic element.

        Raises:
            ApproximationError: ``name`` is not a symbolic element.
        """
        try:
            return self.element_slots[name]
        except KeyError:
            raise ApproximationError(
                f"{name!r} is not a symbolic element of this model "
                f"(symbols: {list(self.element_slots)})") from None

    def _values_vector(self, element_values: Mapping[str, float] | None,
                       ) -> list[float]:
        """Positional symbol values from element values; omitted
        elements take their nominal (hot path)."""
        vec = list(self._nominal)
        if element_values:
            for name, value in element_values.items():
                pos, transform = self.slot(name)
                vec[pos] = transform(float(value))
        return vec

    def _check_order(self, q: int) -> None:
        """Raise :class:`ApproximationError` when order ``q`` needs more
        moments than the model was compiled with."""
        n_moments = self.compiled_moments.order + 1
        if 2 * q > n_moments:
            raise ApproximationError(
                f"model compiled with {n_moments} moments; "
                f"order {q} needs {2 * q}")

    def moments_at(self, element_values: Mapping[str, float] | None = None,
                   ) -> np.ndarray:
        """Transfer-function moments at one operating point: the moment
        program's scalar pass (:meth:`CompiledMoments.scalars`), the
        moment step of :meth:`rom`.

        Raises:
            ApproximationError: an unknown element name.
            PartitionError: the symbolic system is singular here.
        """
        vec = self._values_vector(element_values)
        return np.array(self.compiled_moments.scalars(vec))

    def rom(self, element_values: Mapping[str, float] | None = None,
            order: int | None = None,
            require_stable: bool = True) -> ReducedOrderModel:
        """Reduced-order model at the given element values.

        Runs the compiled moments then a tiny numeric Padé — this is the
        per-iteration operation whose cost Table 1 compares against a full
        AWE re-analysis.  Orders 1 and 2 take a pure-Python closed-form
        path (a few µs); higher orders use the general scaled Hankel solve.
        The serving layer's degraded path calls this with ``order=1``.

        Raises:
            ApproximationError: an unknown element name, an order beyond
                the compiled moments, or no (stable) Padé model.
            PartitionError: the symbolic system is singular here.
        """
        q = self.order if order is None else order
        vec = self._values_vector(element_values)
        self._check_order(q)
        moments = self.compiled_moments.scalars(vec)
        return rom_from_moments(moments, q, require_stable=require_stable)

    def sweep(self, grids: Mapping[str, np.ndarray],
              metric: Callable[[ReducedOrderModel], float],
              order: int | None = None, require_stable: bool = True, *,
              shards: int | None = None, max_workers: int | None = None,
              stats=None, strict: bool = False, resilience=None,
              backend: str | None = None, cancel=None,
              chunk_points: int | None = None) -> np.ndarray:
        """Evaluate ``metric`` over the cartesian product of element-value
        grids (``{element_name: 1-D value array}``; one output axis per
        grid, in the given order).

        Runs through the batched runtime, whose docstring documents every
        argument (:func:`repro.runtime.batched_sweep`): the flattened grid
        streams through cache-resident chunks, each one call of the
        moment program, with the Padé solve vectorized and a per-point
        fallback only at degenerate/unstable points.  Points where the
        Padé degenerates yield NaN rather than aborting the sweep (lenient
        mode), with a structured record in the returned array's
        ``diagnostics`` attribute.  The output is float unless the metric
        produces complex values.
        """
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
        :meth:`sweep` to this path bit for bit.

        Failure semantics mirror the batched path so the two stay
        differentially identical: a point whose reduction or metric
        raises a library error is quarantined to NaN (recorded in the
        result's ``diagnostics``), or re-raised with ``strict=True``.
        """
        self._check_order(self.order if order is None else int(order))
        names = list(grids)
        for name in names:
            self.slot(name)
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
        return (f"TapeModel({self.title!r}, output={self.output!r}, "
                f"order={self.order}, {self.tape.n_ops} ops)")


class CompiledAWEModel(TapeModel):
    """Fast re-evaluable AWE model parameterized by symbolic element values.

    The :class:`TapeModel` of its own model tape (the one
    :func:`~repro.symbolic.tape.tape_from_model` returns), plus the
    partition, the symbolic moments, the closed-form order-1/2 poles
    and the symbolic sensitivities.
    """

    def __init__(self, partition: CircuitPartition, moments: SymbolicMoments,
                 order: int,
                 first_order: SymbolicFirstOrder | None = None,
                 second_order: SymbolicSecondOrder | None = None) -> None:
        t0 = time.perf_counter()
        fn = moments.compile().fn
        elements = [(se.name, i, se.transform)
                    for i, se in enumerate(partition.symbolic)]
        super().__init__(
            model_tape(fn.tape, title=partition.circuit.title,
                       output=moments.output, order=order,
                       moment_order=moments.order, elements=elements),
            fn=fn)
        self.compile_seconds = time.perf_counter() - t0
        self.partition = partition
        self.moments = moments
        self.first_order = first_order
        self.second_order = second_order
        self._compiled_first = first_order.compile() if first_order else None
        self._compiled_second = second_order.compile() if second_order else None
        self._compiled_sens = None  # built lazily by pole_sensitivities

    def rom_closed_form(self, element_values: Mapping[str, float] | None = None,
                        order: int = 2) -> ReducedOrderModel:
        """Model via the fully-symbolic pole formulas (order 1 or 2 only).

        Raises:
            ApproximationError: when the requested closed form was not
                built, or an unknown element name.
        """
        values = self._values_vector(element_values)
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

    def __repr__(self) -> str:
        return (f"CompiledAWEModel(order={self.order}, "
                f"symbols={list(self.space.names)}, n_ops={self.n_ops})")
