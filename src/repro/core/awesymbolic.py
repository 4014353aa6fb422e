"""Top-level AWEsymbolic orchestration.

One call runs the whole pipeline of the paper:

1. choose symbolic elements (user-specified, or automatically from
   normalized AWE pole/zero sensitivities);
2. partition the circuit at the moment level;
3. condense numeric blocks to port-admittance moment expansions (numeric,
   fast, sparse);
4. run the recursive symbolic moment solve on the small global system;
5. build closed-form order-1/order-2 symbolic models and compile
   everything into a :class:`~repro.core.compiled_model.CompiledAWEModel`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..circuits.circuit import Circuit
from ..errors import ApproximationError
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..partition import (CircuitPartition, MomentRecursion, SymbolicMoments,
                         condense_blocks, partition)
from .compiled_model import CompiledAWEModel
from .select import select_symbols
from .symbolic_pade import SymbolicFirstOrder, SymbolicSecondOrder

#: extra moments beyond 2*order, kept for stability fallback headroom
DEFAULT_EXTRA_MOMENTS = 2


@dataclass(frozen=True)
class AWESymbolicResult:
    """Everything an AWEsymbolic run produces.

    Attributes:
        partition: the numeric/symbolic split.
        moments: symbolic moments (rational functions of the symbols).
        model: the compiled fast-evaluation model.
        first_order: closed-form single-pole symbolic model (when built).
        second_order: closed-form two-pole symbolic model (when built).
        selected_automatically: True when symbols came from sensitivities.
    """

    partition: CircuitPartition
    moments: SymbolicMoments
    model: CompiledAWEModel
    first_order: SymbolicFirstOrder | None
    second_order: SymbolicSecondOrder | None
    selected_automatically: bool

    @property
    def symbols(self) -> list[str]:
        return [se.name for se in self.partition.symbolic]

    def rom(self, element_values=None, order=None, require_stable=True):
        """Shortcut for :meth:`CompiledAWEModel.rom`."""
        return self.model.rom(element_values, order=order,
                              require_stable=require_stable)

    def transient(self, waveform=None, **kwargs):
        """Closed-form transient of the compiled model — shortcut for
        :func:`repro.scenarios.compiled_transient`."""
        from ..scenarios.transient import compiled_transient
        return compiled_transient(self.model, waveform=waveform, **kwargs)

    def monte_carlo(self, distributions, metric, **kwargs):
        """Monte Carlo over sampled element values — shortcut for
        :func:`repro.scenarios.monte_carlo`."""
        from ..scenarios.montecarlo import monte_carlo
        return monte_carlo(self.model, distributions, metric, **kwargs)


class CompileSession:
    """Incremental compile state for one (circuit, output, symbol set).

    The session partitions once and keeps the whole moment-recursion state
    (factored ``Yg0`` adjugate, determinant powers, moment vectors) alive
    between :meth:`compile` calls.  Recompiling at a *higher* Padé order
    extends the recursion from the first missing moment instead of
    restarting; a *lower* order truncates the vectors already computed.
    Either way the result is bit-identical to a cold
    :func:`awesymbolic` call at that order (enforced by tests).

    Args:
        circuit: linear(ized) circuit; AC-annotated sources are the input.
        output: observed node.
        symbols: element names to treat symbolically; ``None`` selects
            automatically at the first :meth:`compile` (subsequent compiles
            reuse that selection — incremental reuse requires a fixed
            symbol set).
        n_symbols: how many symbols to auto-select when ``symbols=None``.
        extra_ports: additional nodes to preserve in the composite system.
        condense_cache: optional
            :class:`~repro.runtime.cache.CondensationCache` for numeric
            block expansions (shared across sessions and processes).
    """

    def __init__(self, circuit: Circuit, output: str,
                 symbols: list[str] | None = None,
                 n_symbols: int = 2,
                 extra_ports: tuple[str, ...] = (),
                 condense_cache=None) -> None:
        self.circuit = circuit
        self.output = output
        self.n_symbols = n_symbols
        self.extra_ports = extra_ports
        self.condense_cache = condense_cache
        self.selected_automatically = symbols is None
        self.symbols: list[str] | None = (list(symbols)
                                          if symbols is not None else None)
        self.partition: CircuitPartition | None = None
        self.recursion: MomentRecursion | None = None
        self.compiles = 0
        self.incremental_compiles = 0
        # closed forms depend only on m0..m3, which never change once
        # computed — build them once and reuse across recompiles
        self._first: SymbolicFirstOrder | None = None
        self._second: SymbolicSecondOrder | None = None
        self._closed_forms_built = False

    def _ensure_partition(self, order: int) -> CircuitPartition:
        if self.partition is None:
            if self.symbols is None:
                self.symbols = select_symbols(self.circuit, self.output,
                                              k=self.n_symbols,
                                              order=max(order, 2))
            self.partition = partition(self.circuit, self.symbols,
                                       output=self.output,
                                       extra_ports=self.extra_ports)
            self.recursion = MomentRecursion(self.partition)
        return self.partition

    def compile(self, order: int = 2,
                extra_moments: int = DEFAULT_EXTRA_MOMENTS,
                build_closed_forms: bool = True) -> AWESymbolicResult:
        """Compile (or incrementally recompile) at the given Padé order."""
        reg = _metrics.registry()
        t0 = time.perf_counter()
        part = self._ensure_partition(order)
        rec = self.recursion
        n_moments = 2 * order - 1 + max(0, extra_moments)
        incremental = 0 <= rec.order and n_moments > rec.order
        with _trace.span("compile.session", order=order,
                         n_moments=n_moments, resume_from=rec.order):
            if n_moments > rec.order:
                expansions = condense_blocks(part, n_moments,
                                             cache=self.condense_cache)
                rec.extend(n_moments, expansions=expansions)
            sm = rec.moments(self.output, n_moments)

        first = second = None
        if build_closed_forms:
            if not self._closed_forms_built or (self._second is None
                                                and sm.order >= 3):
                try:
                    self._first = SymbolicFirstOrder.from_moments(sm)
                except ApproximationError:
                    self._first = None
                if sm.order >= 3:
                    try:
                        self._second = SymbolicSecondOrder.from_moments(sm)
                    except ApproximationError:
                        self._second = None
                self._closed_forms_built = True
            first, second = self._first, self._second
            if sm.order < 3:
                second = None

        model = CompiledAWEModel(part, sm, order,
                                 first_order=first, second_order=second)
        self.compiles += 1
        reg.counter("repro_compile_total", "AWEsymbolic compiles").inc()
        if incremental:
            self.incremental_compiles += 1
            reg.counter("repro_compile_incremental_total",
                        "compiles that extended a previous recursion").inc()
        reg.histogram("repro_compile_seconds",
                      "wall time of one compile (cold or incremental)"
                      ).observe(time.perf_counter() - t0)
        return AWESymbolicResult(
            partition=part, moments=sm, model=model,
            first_order=first, second_order=second,
            selected_automatically=self.selected_automatically)


def awesymbolic(circuit: Circuit, output: str,
                symbols: list[str] | None = None,
                n_symbols: int = 2,
                order: int = 2,
                extra_moments: int = DEFAULT_EXTRA_MOMENTS,
                extra_ports: tuple[str, ...] = (),
                build_closed_forms: bool = True,
                condense_cache=None) -> AWESymbolicResult:
    """Run the full AWEsymbolic analysis.

    Args:
        circuit: linear(ized) circuit; AC-annotated sources are the input.
        output: observed node.
        symbols: element names to treat symbolically; ``None`` selects the
            ``n_symbols`` highest-sensitivity elements automatically.
        order: Padé order of the compiled model (the paper typically uses
            1 or 2; "often less than five" in general).
        extra_moments: headroom moments for stable order fallback.
        extra_ports: additional nodes to preserve in the composite system.
        build_closed_forms: also derive the order-1/2 symbolic pole forms.
        condense_cache: optional persistent cache for numeric block
            condensation (see :class:`~repro.runtime.cache.CondensationCache`).

    Returns:
        :class:`AWESymbolicResult`.

    For repeated compiles of the same circuit at varying Padé order, hold a
    :class:`CompileSession` instead — it reuses the factored system and all
    previously computed moments.
    """
    session = CompileSession(circuit, output, symbols=symbols,
                             n_symbols=n_symbols, extra_ports=extra_ports,
                             condense_cache=condense_cache)
    return session.compile(order, extra_moments=extra_moments,
                           build_closed_forms=build_closed_forms)
