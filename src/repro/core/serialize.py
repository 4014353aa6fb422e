"""Persistence for compiled AWEsymbolic models.

A symbolic model is expensive to *derive* (circuit partitioning, symbolic
moment recursion) and trivial to *evaluate* — exactly the artifact worth
saving.  ``model_to_dict`` captures everything evaluation needs (symbol
space, moment numerator polynomials, determinant, element-value
transforms) in a JSON-safe dict; ``model_from_dict`` lowers the saved
polynomials to the model's moment program
(:func:`~repro.partition.composite.moment_tape`), the same tape the
original compiled, and execs it once into a
:class:`~repro.core.compiled_model.TapeModel` that evaluates identically
to the original without touching the circuit again.  The loaders also accept
an op-tape artifact (``repro compile --emit-tape``), told apart from
saved-model JSON by its content, so every evaluate-only command reads
both.
"""

from __future__ import annotations

import json
import time

from ..errors import SymbolicError
from ..partition.composite import moment_tape
from ..symbolic import Poly, Symbol, SymbolSpace
from ..symbolic.symbols import TRANSFORMS
from ..symbolic.tape import tape_from_dict
from .awesymbolic import AWESymbolicResult
from .compiled_model import TapeModel, model_tape

FORMAT_VERSION = 1


def _poly_to_jsonable(poly: Poly) -> list:
    return [[list(exps), coeff] for exps, coeff in poly.sorted_terms()]


def _poly_from_jsonable(space: SymbolSpace, data) -> Poly:
    return Poly(space, {tuple(exps): float(coeff) for exps, coeff in data})


def model_to_dict(result: AWESymbolicResult) -> dict:
    """Serialize an AWEsymbolic result's evaluatable core (JSON-safe)."""
    sm = result.moments
    elements = [{"element": se.name, "symbol": se.symbol.name,
                 "transform": se.transform}
                for se in result.partition.symbolic]
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


def model_from_dict(data: dict) -> TapeModel:
    """Load :func:`model_to_dict` output — or an op-tape artifact's JSON
    payload — into a :class:`~repro.core.compiled_model.TapeModel`.

    Raises:
        SymbolicError: wrong or missing format version / malformed data
            (:class:`~repro.errors.TapeError` for a bad tape).
    """
    if "format" not in data and "ops" in data:
        return TapeModel(tape_from_dict(data))
    if data.get("format") != FORMAT_VERSION:
        raise SymbolicError(
            f"unsupported saved-model format {data.get('format')!r}")
    space = SymbolSpace([Symbol(s["name"], nominal=s["nominal"])
                         for s in data["symbols"]])
    numerators = [_poly_from_jsonable(space, n) for n in data["numerators"]]
    det = _poly_from_jsonable(space, data["det"])
    elements = []
    for entry in data["elements"]:
        if entry["transform"] not in TRANSFORMS:
            raise SymbolicError(
                f"unknown transform {entry['transform']!r}")
        elements.append([entry["element"], space.index(entry["symbol"]),
                         entry["transform"]])
    t0 = time.perf_counter()
    model = TapeModel(model_tape(moment_tape(space, numerators, det),
                                 title=data.get("title", ""),
                                 output=data["output"], order=data["order"],
                                 moment_order=len(numerators) - 1,
                                 elements=elements))
    model.compile_seconds = time.perf_counter() - t0
    return model


def model_from_json(text: str) -> TapeModel:
    return model_from_dict(json.loads(text))
