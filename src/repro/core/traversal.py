"""Traversals over BBDD forests: evaluation, counting, paths, levels.

All functions operate on the owning manager plus bare signed-int edges
of the flat store (``abs(edge)`` = node index, sign = complement
attribute).  Level skipping is handled everywhere: an edge from position
``p`` to a node rooted at position ``q`` leaves the variables at
positions ``p+1 .. q-1`` unconstrained.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.node import SINK, SV_ONE, Edge


def evaluate(manager, edge: Edge, values: Mapping[int, bool]) -> bool:
    """Evaluate the function at a complete assignment ``{var index: bit}``.

    Follows one root-to-sink path: at a chain node take the ``!=``-edge
    when ``values[pv] != values[sv]``; at a literal node the ``=``-edge
    corresponds to ``pv == 1`` (the paper's fictitious SV).  Complement
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
    """All internal node indices (chain + literal) reachable from ``edges``."""
    svl = manager._sv
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
        if svl[node] == SV_ONE:
            continue
        d = neql[node]
        for child in (-d if d < 0 else d, eql[node]):
            if child != SINK and child not in seen:
                seen.add(child)
                stack.append(child)
    return seen


def count_nodes(manager, edges: Iterable[Edge]) -> int:
    """Shared node count of a forest (sink excluded, literals included)."""
    return len(reachable_nodes(manager, edges))


def iter_paths(
    manager, edge: Edge
) -> Iterator[Tuple[Dict[int, Tuple[str, Optional[int]]], bool]]:
    """Yield ``(constraints, value)`` for every root-to-sink path.

    ``constraints`` maps each couple's PV to ``(rel, sv)``: ``rel`` is
    ``"=="``/``"!="`` for chain nodes (with ``sv`` the couple partner
    *actually on the path* — under the support-chained CVO this is the
    function's next support variable, not necessarily the global order's
    neighbour) or ``"1"``/``"0"`` for literal nodes (``sv`` is None).
    ``value`` is the sink value after complement attributes.  Iterative
    (explicit DFS stack), so arbitrarily deep chains enumerate without
    touching the Python recursion limit.
    """
    pvl = manager._pv
    svl = manager._sv
    neql = manager._neq
    eql = manager._eq
    stack: List[Tuple[int, bool, dict]] = [(-edge if edge < 0 else edge, edge < 0, {})]
    while stack:
        node, attr, constraints = stack.pop()
        if node == SINK:
            yield constraints, not attr
            continue
        d = neql[node]
        dn = -d if d < 0 else d
        sv = svl[node]
        if sv == SV_ONE:
            branches = (
                (dn, attr ^ (d < 0), ("0", None)),
                (eql[node], attr, ("1", None)),
            )
        else:
            branches = (
                (dn, attr ^ (d < 0), ("!=", sv)),
                (eql[node], attr, ("==", sv)),
            )
        # Push the =-branch first so the !=-branch is explored first,
        # matching the historical (recursive) enumeration order.
        pv = pvl[node]
        for child, child_attr, label in reversed(branches):
            extended = dict(constraints)
            extended[pv] = label
            stack.append((child, child_attr, extended))


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


def truth_table_mask(manager, edge: Edge, variables: Sequence[int]) -> int:
    """Bitmask truth table of ``edge`` over ``variables``.

    Bit ``i`` of the result is the function value where variable
    ``variables[j]`` takes bit ``j`` of ``i``.  Exponential; intended for
    testing and small-function reporting.
    """
    n = len(variables)
    mask = 0
    values: Dict[int, bool] = {v: False for v in range(manager.num_vars)}
    for i in range(1 << n):
        for j, var in enumerate(variables):
            values[var] = bool((i >> j) & 1)
        if evaluate(manager, edge, values):
            mask |= 1 << i
    return mask


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


def structural_profile(manager, edges: Iterable[Edge]) -> Dict[str, int]:
    """Summary statistics of a forest (used by reports and examples)."""
    svl = manager._sv
    neql = manager._neq
    nodes = reachable_nodes(manager, edges)
    chain = sum(1 for n in nodes if svl[n] != SV_ONE)
    literal = len(nodes) - chain
    complemented = sum(1 for n in nodes if svl[n] != SV_ONE and neql[n] < 0)
    return {
        "nodes": len(nodes),
        "chain_nodes": chain,
        "literal_nodes": literal,
        "complemented_neq_edges": complemented,
    }
