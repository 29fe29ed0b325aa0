"""Traversals over the rows of the node store: evaluation, counting, paths, levels.

All functions operate on the owning manager plus bare signed-int edges
of the flat store (``abs(edge)`` = node index, sign = complement
attribute), for BBDD couples and single-variable rows (BBDD literals
and Shannon nodes) alike.  Level skipping is handled everywhere: an edge
from position ``p`` to a node rooted at position ``q`` leaves the
variables at positions ``p+1 .. q-1`` unconstrained.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.node import SINK, SV_ONE, Edge


def evaluate(manager, edge: Edge, values: Mapping[int, bool]) -> bool:
    """Evaluate the function at a complete assignment ``{var index: bit}``.

    Follows one root-to-sink path: at a chain node take the ``!=``-edge
    when ``values[pv] != values[sv]``; at a single-variable row (a literal
    or a Shannon node) the ``=``-edge corresponds to ``pv == 1`` (the
    paper's fictitious SV).  Complement
    attributes along the path toggle the result.
    """
    pvl = manager._pv
    svl = manager._sv
    neql = manager._neq
    eql = manager._eq
    attr = edge < 0
    node = -edge if attr else edge
    while node != SINK:
        sv = svl[node]
        if sv == SV_ONE:
            take_neq = not values[pvl[node]]
        else:
            take_neq = values[pvl[node]] != values[sv]
        if take_neq:
            child = neql[node]
            if child < 0:
                attr = not attr
                node = -child
            else:
                node = child
        else:
            node = eql[node]
    return not attr


def reachable_nodes(manager, edges: Iterable[Edge]) -> Set[int]:
    """All row indices (sink excluded) reachable from ``edges``."""
    neql = manager._neq
    eql = manager._eq
    seen: Set[int] = set()
    stack: List[int] = []
    for edge in edges:
        node = -edge if edge < 0 else edge
        if node != SINK and node not in seen:
            seen.add(node)
            stack.append(node)
    while stack:
        node = stack.pop()
        d = neql[node]
        for child in (-d if d < 0 else d, eql[node]):
            if child != SINK and child not in seen:
                seen.add(child)
                stack.append(child)
    return seen


def count_nodes(manager, edges: Iterable[Edge]) -> int:
    """Shared node count of a forest (sink excluded, literals included)."""
    return len(reachable_nodes(manager, edges))


def find_sat_path(manager, edge: Edge, want: bool = True) -> Optional[List[tuple]]:
    """One root-to-sink path on which the function evaluates to ``want``.

    Returns the path as ``(pv, sv, rel)`` triples (root first) with
    ``rel`` in ``{"0", "1", "==", "!="}`` and ``sv`` the couple partner on
    the path (None for literal nodes), or None when no such path exists.

    Runs in O(depth): every internal node of a canonical BBDD denotes a
    non-constant function, so descending into *any* non-sink child keeps
    both outcomes reachable; only sink children need their parity checked.
    """
    pvl = manager._pv
    svl = manager._sv
    neql = manager._neq
    eql = manager._eq
    attr = edge < 0
    node = -edge if attr else edge
    if node == SINK:
        return [] if (not attr) == want else None
    path: List[tuple] = []
    while True:
        d = neql[node]
        dn = -d if d < 0 else d
        sv = svl[node]
        if sv == SV_ONE:
            branches = (
                (dn, attr ^ (d < 0), "0", None),
                (eql[node], attr, "1", None),
            )
        else:
            branches = (
                (dn, attr ^ (d < 0), "!=", sv),
                (eql[node], attr, "==", sv),
            )
        descend = None
        for child, child_attr, rel, csv in branches:
            if child == SINK:
                if (not child_attr) == want:
                    path.append((pvl[node], csv, rel))
                    return path
            elif descend is None:
                descend = (child, child_attr, rel, csv)
        if descend is None:
            # Both children are sinks of the wrong parity — impossible for
            # a canonical (non-constant) node; defensive for corrupt DAGs.
            return None
        child, attr, rel, csv = descend
        path.append((pvl[node], csv, rel))
        node = child


def levelize(manager, edges: Iterable[Edge]) -> List[Tuple[int, List[int]]]:
    """Group a forest's node indices by CVO level, deepest level first.

    A node's level is the order position of its primary variable; with
    levels emitted bottom-up, children always precede their parents —
    the write order of the :mod:`repro.io` binary format.  Nodes within
    a level are sorted by index for deterministic output.
    """
    order = manager.order.order
    position = [0] * len(order)
    for pos, var in enumerate(order):
        position[var] = pos
    buckets: List[List[int]] = [[] for _ in order]
    pvl = manager._pv
    for node in reachable_nodes(manager, edges):
        buckets[position[pvl[node]]].append(node)
    return [
        (pos, sorted(buckets[pos]))
        for pos in range(len(order) - 1, -1, -1)
        if buckets[pos]
    ]
