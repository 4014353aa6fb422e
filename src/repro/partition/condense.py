"""Cached condensation of a partition's numeric blocks.

Condensing a numeric block — clamping its ports and reading the
Maclaurin port admittance coefficients ``Y0..Yq`` off repeated sparse LU
solves (:func:`~repro.partition.ports.port_admittance_moments`) — is pure
numerics, fully decoupled from the symbols.  That makes it the easiest
part of the compile path to amortize: a block's expansion depends only
on its elements, its port list and the expansion order, so it is stored
under a content hash in a :class:`~repro.runtime.cache.CondensationCache`.
Editing one block or changing the symbol set re-condenses only what
changed; everything else is a cache hit (and the cached float arrays
round-trip exactly, preserving bit-identical compiled moments).

Every condensed block emits a ``compile.condense.block`` trace span and
feeds the ``repro_compile_*`` metrics.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Sequence

from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .blocks import CircuitPartition
from .ports import NumericBlockExpansion, port_admittance_moments

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime -> core -> partition)
    from ..runtime.cache import CondensationCache

__all__ = ["condense_blocks"]


def condense_blocks(part: CircuitPartition, order: int,
                    cache: "CondensationCache | None" = None,
                    ) -> list[NumericBlockExpansion]:
    """Port-admittance expansions ``Y0..Y<order>`` for every numeric block.

    Args:
        part: a :func:`~repro.partition.blocks.partition` result.
        order: highest Maclaurin coefficient needed.
        cache: optional :class:`~repro.runtime.cache.CondensationCache`;
            hits skip the numeric solve entirely, misses are stored back.

    Returns:
        Expansions aligned with ``part.numeric_blocks``, each of exactly
        the requested ``order`` (cached higher-order entries are
        truncated; lower-order entries are recomputed).
    """
    blocks = list(part.numeric_blocks)
    reg = _metrics.registry()
    results: list[NumericBlockExpansion | None] = [None] * len(blocks)

    misses: list[int] = []
    for i, blk in enumerate(blocks):
        exp = cache.get(blk.circuit, blk.ports, order) if cache is not None \
            else None
        if exp is not None:
            results[i] = exp
            reg.counter("repro_compile_condense_hits_total",
                        "numeric block condensations served from cache").inc()
        else:
            misses.append(i)

    if misses:
        reg.counter("repro_compile_condense_misses_total",
                    "numeric block condensations computed cold"
                    ).inc(len(misses))
        for i in misses:
            blk = blocks[i]
            t0 = time.perf_counter()
            with _trace.span("compile.condense.block",
                             block=blk.circuit.title,
                             ports=len(blk.ports), order=order):
                results[i] = port_admittance_moments(blk.circuit, blk.ports,
                                                     order)
            reg.histogram("repro_compile_condense_seconds",
                          "wall time condensing one numeric block"
                          ).observe(time.perf_counter() - t0)
            if cache is not None:
                cache.put(blk.circuit, blk.ports, results[i])

    return [exp for exp in results if exp is not None]
