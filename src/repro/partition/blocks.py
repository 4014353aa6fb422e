"""Splitting a circuit into symbolic blocks, numeric blocks and global sources.

The split rules (paper §2.4):

* every element the user designates symbolic becomes its own *symbolic
  block* — only one symbolic element per block, which keeps the block's
  port expansion finite;
* independent sources stay at the global (composite) level — they form the
  ``I(s)`` vector of eq. (11);
* everything else lands in *numeric blocks*: connected components of the
  remaining circuit (controlled-source sensing terminals count as
  connectivity so a block never senses a voltage it cannot see);
* the *global nodes* are all nodes touching a symbolic element, a source,
  or the requested output — these are exactly the ports that "must be
  preserved".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import networkx as nx

from ..circuits.circuit import GROUND, Circuit
from ..circuits.elements import (VCCS, Capacitor, Conductance, CurrentSource,
                                 Element, Inductor, Resistor, VoltageSource)
from ..errors import PartitionError
from ..obs import trace as _trace
from ..symbolic import Symbol, SymbolSpace
from ..symbolic.symbols import TRANSFORMS

#: element types that may be designated symbolic, with the name of the
#: transform (:data:`~repro.symbolic.symbols.TRANSFORMS`) from the
#: element's natural value to the stamped symbol value (resistance is
#: stamped as conductance).
_SYMBOLIZABLE: dict[type, str] = {
    Resistor: "inverse",
    Conductance: "identity",
    Capacitor: "identity",
    Inductor: "identity",
    VCCS: "identity",
}

#: derivative of each transform: d(stamped symbol)/d(natural value)
_SYMBOL_DERIVATIVE: dict[str, Callable[[float], float]] = {
    "identity": lambda v: 1.0,
    "inverse": lambda r: -1.0 / (r * r),
}


@dataclass(frozen=True)
class SymbolicElement:
    """One symbolic block: a circuit element promoted to a symbol.

    Attributes:
        element: the circuit element (carrying its nominal value).
        symbol: the algebra symbol; its ``nominal`` is the *stamped* value
            (conductance for resistors).
        transform: name of the :data:`~repro.symbolic.symbols.TRANSFORMS`
            entry mapping a user-facing element value (e.g. resistance in
            ohms) to the stamped symbol value (e.g. siemens).
    """

    element: Element
    symbol: Symbol
    transform: str

    @property
    def name(self) -> str:
        return self.element.name

    @property
    def to_symbol_value(self) -> Callable[[float], float]:
        """The element value -> stamped symbol value map."""
        return TRANSFORMS[self.transform]

    def dsym_dvalue(self, value: float) -> float:
        """``d(stamped symbol)/d(natural element value)`` at ``value``
        (chain-rule factor for sensitivities; -1/R² for resistors)."""
        return _SYMBOL_DERIVATIVE[self.transform](value)


@dataclass(frozen=True)
class NumericBlock:
    """A maximal numeric sub-circuit with its ordered port nodes."""

    circuit: Circuit
    ports: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.circuit)


@dataclass(frozen=True)
class CircuitPartition:
    """Result of :func:`partition`.

    Attributes:
        circuit: the original circuit.
        symbolic: one entry per symbolic element, in user order.
        numeric_blocks: condensable numeric sub-circuits with their ports.
        sources: independent sources kept at the global level.
        global_nodes: ordered non-ground nodes of the composite system.
        space: the symbol space (one symbol per symbolic element).
    """

    circuit: Circuit
    symbolic: tuple[SymbolicElement, ...]
    numeric_blocks: tuple[NumericBlock, ...]
    sources: tuple[Element, ...]
    global_nodes: tuple[str, ...]
    space: SymbolSpace

    def symbol_values(self, element_values: dict[str, float] | None = None,
                      ) -> dict[str, float]:
        """Stamped symbol values from user-facing element values.

        ``element_values`` maps element names to natural values (ohms,
        farads, ...); omitted elements use their nominal.  Returns a map
        keyed by symbol name, suitable for compiled-model evaluation.
        """
        element_values = element_values or {}
        out: dict[str, float] = {}
        for se in self.symbolic:
            if se.name in element_values:
                out[se.symbol.name] = se.to_symbol_value(element_values[se.name])
            else:
                out[se.symbol.name] = float(se.symbol.nominal)  # type: ignore[arg-type]
        return out

    def summary(self) -> str:
        lines = [f"partition of {self.circuit.title!r}:"]
        lines.append(f"  {len(self.symbolic)} symbolic blocks: "
                     + ", ".join(se.name for se in self.symbolic))
        for i, blk in enumerate(self.numeric_blocks):
            lines.append(f"  numeric block {i}: {blk.size} elements, "
                         f"ports {list(blk.ports)}")
        lines.append(f"  {len(self.sources)} global sources; "
                     f"{len(self.global_nodes)} global nodes")
        return "\n".join(lines)


def symbol_for(element: Element, name: str | None = None) -> SymbolicElement:
    """Create the symbol binding for one element.

    Resistors become conductance symbols ``g_<name>`` (the stamp is linear
    in conductance, keeping all composite quantities polynomial); other
    element kinds keep their natural value and are named after the element.

    Raises:
        PartitionError: for element types that cannot be symbolic.
    """
    transform = _SYMBOLIZABLE.get(type(element))
    if transform is None:
        raise PartitionError(
            f"element {element.name!r} of type {type(element).__name__} "
            "cannot be made symbolic (supported: R, G, C, L, VCCS)")
    if name is None:
        name = f"g_{element.name}" if isinstance(element, Resistor) else element.name
    nominal = TRANSFORMS[transform](element.value)
    return SymbolicElement(element=element,
                           symbol=Symbol(name, nominal=nominal),
                           transform=transform)


def partition(circuit: Circuit, symbolic_names: Sequence[str],
              output: str, extra_ports: Iterable[str] = ()) -> CircuitPartition:
    """Partition ``circuit`` for AWEsymbolic analysis.

    Args:
        circuit: the full (linear) circuit.
        symbolic_names: element names to promote to symbols (order defines
            the symbol-space order).
        output: the observed node; forced to be a preserved port.
        extra_ports: additional nodes to preserve in the composite system.

    Raises:
        PartitionError: unsupported symbolic element types, duplicate
            names, or an output node that does not exist.
    """
    with _trace.span("partition.build") as span:
        part = _partition(circuit, symbolic_names, output, extra_ports)
        span.set(symbols=len(part.symbolic),
                 blocks=len(part.numeric_blocks),
                 ports=len(part.global_nodes))
        return part


def _partition(circuit: Circuit, symbolic_names: Sequence[str],
               output: str, extra_ports: Iterable[str]) -> CircuitPartition:
    if len(set(symbolic_names)) != len(symbolic_names):
        raise PartitionError(f"duplicate symbolic elements in {list(symbolic_names)}")
    if not symbolic_names:
        raise PartitionError("at least one symbolic element is required")
    sources = tuple(e for e in circuit
                    if isinstance(e, (VoltageSource, CurrentSource)))
    source_names = {e.name for e in sources}
    overlap = set(symbolic_names) & source_names
    if overlap:
        raise PartitionError(f"independent sources cannot be symbolic: {sorted(overlap)}")
    symbolic = tuple(symbol_for(circuit[name]) for name in symbolic_names)
    sym_names = {se.name for se in symbolic}

    numeric_elements = [e for e in circuit
                        if e.name not in sym_names and e.name not in source_names]

    all_nodes = set(circuit.node_names())
    if output not in all_nodes:
        raise PartitionError(f"output node {output!r} not in circuit")
    port_nodes: set[str] = set()
    for se in symbolic:
        port_nodes.update(n for n in se.element.nodes if n != GROUND)
    for src in sources:
        port_nodes.update(n for n in src.nodes if n != GROUND)
    port_nodes.add(output)
    for extra in extra_ports:
        if extra not in all_nodes:
            raise PartitionError(f"extra port {extra!r} not in circuit")
        port_nodes.add(extra)

    # connected components of the numeric remainder; sensing terminals count
    graph = nx.Graph()
    for e in numeric_elements:
        nodes = [n for n in e.nodes if n != GROUND]
        graph.add_nodes_from(nodes)
        for a, b in zip(nodes, nodes[1:]):
            graph.add_edge(a, b)
        if len(nodes) >= 2:
            graph.add_edge(nodes[0], nodes[-1])

    node_component: dict[str, int] = {}
    components = [set(c) for c in nx.connected_components(graph)]
    for idx, comp in enumerate(components):
        for node in comp:
            node_component[node] = idx

    blocks: list[NumericBlock] = []
    for idx, comp in enumerate(components):
        names = [e.name for e in numeric_elements
                 if any(n in comp for n in e.nodes if n != GROUND)]
        ports = tuple(n for n in circuit.node_names()
                      if n in comp and n in port_nodes)
        if not ports:
            # isolated from every source/symbol/output: cannot influence the
            # response, drop it (but loudly in the summary)
            continue
        sub = circuit.subcircuit(names, title=f"{circuit.title}:block{idx}")
        blocks.append(NumericBlock(circuit=sub, ports=ports))

    global_nodes = tuple(n for n in circuit.node_names() if n in port_nodes)
    space = SymbolSpace([se.symbol for se in symbolic])
    return CircuitPartition(circuit=circuit, symbolic=symbolic,
                            numeric_blocks=tuple(blocks), sources=sources,
                            global_nodes=global_nodes, space=space)
