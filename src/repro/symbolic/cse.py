"""Traversal utilities for expression DAGs.

Because :class:`~repro.symbolic.expr.ExprBuilder` interns nodes, identical
subexpressions are already shared — common-subexpression elimination reduces
to counting references and emitting a temporary for every node referenced
more than once.  This module provides the topological ordering the op-tape
lowering (:func:`repro.symbolic.tape.tape_from_roots`) consumes, and the
use counting behind :func:`shared_nodes`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .expr import Expr


def topological(roots: Sequence[Expr]) -> list[Expr]:
    """Children-before-parents ordering of all nodes reachable from ``roots``.

    Iterative post-order so that very deep DAGs (long moment recursions)
    cannot blow the Python stack.
    """
    order: list[Expr] = []
    seen: set[int] = set()
    for root in roots:
        if id(root) in seen:
            continue
        stack: list[tuple[Expr, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for child in node.children:
                if id(child) not in seen:
                    stack.append((child, False))
    return order


def use_counts(roots: Sequence[Expr],
               order: Sequence[Expr] | None = None) -> dict[int, int]:
    """Number of parent references for each reachable node (roots count once).

    Pass a precomputed :func:`topological` order to skip re-walking the
    DAG (the counts are identical either way).
    """
    counts: dict[int, int] = {}
    for node in (topological(roots) if order is None else order):
        counts.setdefault(id(node), 0)
        for child in node.children:
            counts[id(child)] = counts.get(id(child), 0) + 1
    for root in roots:
        counts[id(root)] = counts.get(id(root), 0) + 1
    return counts


def shared_nodes(roots: Sequence[Expr]) -> list[Expr]:
    """Non-leaf nodes referenced more than once (CSE candidates), in topo order."""
    counts = use_counts(roots)
    return [n for n in topological(roots)
            if counts[id(n)] > 1 and n.kind not in ("const", "sym")]
