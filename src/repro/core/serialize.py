"""Persistence for compiled AWEsymbolic models.

A symbolic model is expensive to *derive* (circuit partitioning, symbolic
moment recursion) and trivial to *evaluate* — exactly the artifact worth
saving.  ``model_to_dict`` captures everything evaluation needs (symbol
space, moment numerator polynomials, determinant, element-value
transforms) in a JSON-safe dict; ``model_from_dict`` rebuilds a
:class:`LoadedModel` that evaluates identically to the original, without
touching the circuit again.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from ..awe.model import ReducedOrderModel
from ..awe.stability import rom_from_moments
from ..errors import ApproximationError, SymbolicError
from ..partition.composite import CompiledMoments
from ..symbolic import Poly, Symbol, SymbolSpace, compile_rationals
from .awesymbolic import AWESymbolicResult

#: registry of element-value -> symbol-value transforms by name
_TRANSFORMS = {
    "identity": (lambda v: v),
    "inverse": (lambda v: 1.0 / v),
}

FORMAT_VERSION = 1


def _poly_to_jsonable(poly: Poly) -> list:
    return [[list(exps), coeff] for exps, coeff in poly.sorted_terms()]


def _poly_from_jsonable(space: SymbolSpace, data) -> Poly:
    return Poly(space, {tuple(exps): float(coeff) for exps, coeff in data})


def model_to_dict(result: AWESymbolicResult) -> dict:
    """Serialize an AWEsymbolic result's evaluatable core (JSON-safe)."""
    sm = result.moments
    elements = []
    for se in result.partition.symbolic:
        kind = "inverse" if type(se.element).__name__ == "Resistor" else "identity"
        elements.append({"element": se.name, "symbol": se.symbol.name,
                         "transform": kind})
    return {
        "format": FORMAT_VERSION,
        "title": result.partition.circuit.title,
        "output": sm.output,
        "order": result.model.order,
        "symbols": [{"name": s.name, "nominal": s.nominal}
                    for s in sm.space.symbols],
        "elements": elements,
        "numerators": [_poly_to_jsonable(n) for n in sm.numerators],
        "det": _poly_to_jsonable(sm.det),
    }


def model_to_json(result: AWESymbolicResult, indent: int | None = None) -> str:
    return json.dumps(model_to_dict(result), indent=indent)


@dataclass(frozen=True)
class LoadedModel:
    """A deserialized compiled AWEsymbolic model.

    Evaluates exactly like the :class:`~repro.core.compiled_model.
    CompiledAWEModel` it was saved from, with no circuit dependency.
    """

    title: str
    output: str
    order: int
    space: SymbolSpace
    numerators: tuple[Poly, ...]
    det: Poly
    element_slots: dict  # element name -> (position, transform)

    def _values_vector(self, element_values: Mapping[str, float] | None,
                       ) -> list[float]:
        vec = [float(s.nominal) for s in self.space.symbols]
        for name, value in (element_values or {}).items():
            try:
                pos, transform = self.element_slots[name]
            except KeyError:
                raise ApproximationError(
                    f"{name!r} is not a symbolic element of this model") from None
            vec[pos] = transform(float(value))
        return vec

    def moments_at(self, element_values: Mapping[str, float] | None = None,
                   ) -> np.ndarray:
        vec = self._values_vector(element_values)
        det = self.det.evaluate(vec)
        if det == 0.0:
            raise ApproximationError("model singular at this point")
        out = []
        scale = 1.0
        for num in self.numerators:
            scale *= det
            out.append(num.evaluate(vec) / scale)
        return np.array(out)

    def rom(self, element_values: Mapping[str, float] | None = None,
            order: int | None = None,
            require_stable: bool = True) -> ReducedOrderModel:
        q = self.order if order is None else order
        moments = self.moments_at(element_values)
        if len(moments) < 2 * q:
            raise ApproximationError(
                f"saved model has {len(moments)} moments; order {q} "
                f"needs {2 * q}")
        return rom_from_moments(list(moments), q,
                                require_stable=require_stable)

    # ------------------------------------------------------------------
    # batched evaluation (repro.runtime)
    # ------------------------------------------------------------------
    @cached_property
    def _compiled(self) -> tuple[CompiledMoments, float]:
        """Compile the saved polynomials back into a straight-line program
        (once, on first batched use), recording the compile time."""
        t0 = time.perf_counter()
        fn = compile_rationals(
            self.space, list(self.numerators) + [self.det],
            output_names=[f"n{k}" for k in range(len(self.numerators))]
            + ["det"])
        cm = CompiledMoments(fn=fn, order=len(self.numerators) - 1)
        return cm, time.perf_counter() - t0

    @property
    def compiled_moments(self) -> CompiledMoments:
        return self._compiled[0]

    @property
    def compile_seconds(self) -> float:
        return self._compiled[1]

    def sweep(self, grids: Mapping[str, np.ndarray],
              metric: Callable[[ReducedOrderModel], float],
              order: int | None = None,
              require_stable: bool = True, *,
              shards: int | None = None,
              max_workers: int | None = None,
              stats=None,
              strict: bool = False,
              resilience=None,
              backend: str | None = None,
              cancel=None,
              chunk_points: int | None = None) -> np.ndarray:
        """Batched metric sweep over element-value grids.

        Same semantics as :meth:`CompiledAWEModel.sweep`, streamed
        through the same cache-resident chunks (``chunk_points`` points
        each, token or not) — a loaded model is a full citizen of the
        batched runtime, so saved programs can drive design-space
        exploration without re-deriving anything.
        """
        from ..runtime.batched import batched_sweep  # lazy: avoids cycle

        return batched_sweep(self, grids, metric, order=order,
                             require_stable=require_stable, shards=shards,
                             max_workers=max_workers, stats=stats,
                             strict=strict, resilience=resilience,
                             backend=backend, cancel=cancel,
                             chunk_points=chunk_points)


def model_from_dict(data: dict) -> LoadedModel:
    """Rebuild a :class:`LoadedModel` from :func:`model_to_dict` output.

    Raises:
        SymbolicError: wrong or missing format version / malformed data.
    """
    if data.get("format") != FORMAT_VERSION:
        raise SymbolicError(
            f"unsupported saved-model format {data.get('format')!r}")
    space = SymbolSpace([Symbol(s["name"], nominal=s["nominal"])
                         for s in data["symbols"]])
    numerators = tuple(_poly_from_jsonable(space, n)
                       for n in data["numerators"])
    det = _poly_from_jsonable(space, data["det"])
    slots = {}
    for entry in data["elements"]:
        try:
            transform = _TRANSFORMS[entry["transform"]]
        except KeyError:
            raise SymbolicError(
                f"unknown transform {entry['transform']!r}") from None
        slots[entry["element"]] = (space.index(entry["symbol"]), transform)
    return LoadedModel(title=data.get("title", ""), output=data["output"],
                       order=int(data["order"]), space=space,
                       numerators=numerators, det=det, element_slots=slots)


def model_from_json(text: str) -> LoadedModel:
    return model_from_dict(json.loads(text))
