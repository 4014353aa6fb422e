"""A byte-exact fingerprint of a compiled AWEsymbolic result, for tests
that compare compiles (cold, incremental, through caches)."""

from __future__ import annotations

import json


def _terms(poly) -> list:
    return [[list(exps), coeff] for exps, coeff in poly.sorted_terms()]


def compiled_digest(result) -> str:
    """Canonical JSON of what a compile derived: title, output, order,
    the symbols with their nominals, the symbolic elements with their
    transforms, and the terms of the moment numerators and determinant.
    Floats round-trip JSON exactly, so equal digests mean bit-identical
    polynomials."""
    sm = result.moments
    return json.dumps({
        "title": result.partition.circuit.title,
        "output": sm.output,
        "order": result.model.order,
        "symbols": [[s.name, s.nominal] for s in sm.space.symbols],
        "elements": [[se.name, se.symbol.name, se.transform]
                     for se in result.partition.symbolic],
        "numerators": [_terms(n) for n in sm.numerators],
        "det": _terms(sm.det),
    }, sort_keys=True)
