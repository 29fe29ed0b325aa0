"""Graphviz/DOT export for BBDD and BDD forests (debugging/teaching aid)."""

from __future__ import annotations

from typing import Iterable, List

from repro.api.base import own_edge
from repro.core.exceptions import BBDDError
from repro.core.traversal import reachable_nodes


def to_dot(manager, functions, names: Iterable[str] = ()) -> str:
    """Render a forest of :class:`~repro.core.function.Function` handles.

    ``!=``-edges are dashed (dot-terminated when complemented); ``=``-edges
    solid.  Single-variable rows — literal (R4) nodes, and every node of
    a BDD manager — are drawn as boxes, their else-edge dashed and their
    then-edge solid.  ``names``, when given, must match ``functions``
    one-to-one.

    Works on :meth:`~repro.core.manager.BBDDManager.node_view` views over
    the flat store; node ids in the output are the store indices, emitted
    in ascending order for determinism.  A handle of another manager
    raises :class:`~repro.core.exceptions.ForeignManagerError`.
    """
    edges = [own_edge(manager, f) for f in functions]
    labels = list(names)
    if labels and len(labels) != len(edges):
        raise BBDDError(
            f"{len(labels)} names given for {len(edges)} functions"
        )
    if not labels:
        labels = [f"f{i}" for i in range(len(edges))]
    nodes = [manager.node_view(i) for i in sorted(reachable_nodes(manager, edges))]
    lines: List[str] = ["digraph BBDD {", "  rankdir=TB;"]
    lines.append('  sink [shape=box, label="1"];')
    for node in nodes:
        if node.is_literal:
            lines.append(
                f"  n{node.uid} [shape=box, label=\"{manager.var_name(node.pv)}\"];"
            )
        else:
            lines.append(
                f"  n{node.uid} [shape=ellipse, "
                f"label=\"{manager.var_name(node.pv)},{manager.var_name(node.sv)}\"];"
            )
    # Couple edges first, then the unlabelled edges of single-variable rows.
    for literal in (False, True):
        for node in nodes:
            if node.is_literal != literal:
                continue
            neq_target = "sink" if node.neq.is_sink else f"n{node.neq.uid}"
            eq_target = "sink" if node.eq.is_sink else f"n{node.eq.uid}"
            arrow = "odot" if node.neq_attr else "normal"
            neq_label = "" if literal else ', label="!="'
            eq_attrs = "" if literal else ' [label="="]'
            lines.append(
                f"  n{node.uid} -> {neq_target} [style=dashed, arrowhead={arrow}{neq_label}];"
            )
            lines.append(f"  n{node.uid} -> {eq_target}{eq_attrs};")
    for label, edge in zip(labels, edges):
        lines.append(f'  {label} [shape=plaintext];')
        root = manager.edge_node(edge)
        target = "sink" if root.is_sink else f"n{root.uid}"
        arrow = "odot" if manager.edge_attr(edge) else "normal"
        lines.append(f"  {label} -> {target} [arrowhead={arrow}];")
    lines.append("}")
    return "\n".join(lines)
