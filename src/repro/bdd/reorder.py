"""Dynamic variable ordering for the baseline BDD package.

Rudell's sifting with in-place level swaps: when positions ``k, k+1``
(variables ``x, y``) are exchanged, only the ``x``-nodes with a ``y``
child are rewritten — in place, so external edges stay valid (the node's
function is preserved) — while the remaining ``x``- and ``y``-nodes simply
change level implicitly (nodes are keyed by variable, not position).

The excursion driver is shared with the BBDD package
(:func:`repro.core.reorder.sift` with ``swap_fn=swap_adjacent_bdd``).
"""

from __future__ import annotations

from typing import List, Optional

from repro.bdd.node import BDDEdge, BDDNode
from repro.core.exceptions import BBDDError, OrderError
from repro.core.reorder import SiftResult, SwapStats
from repro.core.reorder import sift as _core_sift


def _cofactor_on(edge: BDDEdge, var: int) -> tuple:
    """Shannon cofactors (f|var=1, f|var=0) read off the old structure."""
    node, attr = edge
    if node.is_sink or node.var != var:
        return edge, edge
    return (node.then, attr), (node.else_, attr ^ node.else_attr)


def swap_adjacent_bdd(manager, k: int, stats: Optional[SwapStats] = None) -> None:
    """Swap the variables at order positions ``k`` and ``k + 1`` in place.

    Runs inside the manager's level index (built here unless a caller
    such as the sifting driver already holds it).
    """
    with manager._level_index():
        _swap_adjacent_bdd(manager, k, stats)


def _swap_adjacent_bdd(manager, k: int, stats: Optional[SwapStats]) -> None:
    order = manager.order
    n = manager.num_vars
    if not 0 <= k < n - 1:
        raise OrderError(f"cannot swap positions {k},{k + 1} of {n}")
    x = order.var_at(k)
    y = order.var_at(k + 1)

    manager.clear_cache()

    # Reclaim garbage at the two concerned levels first.
    for var in (x, y):
        for node in [nd for nd in manager.nodes_with_pv(var) if nd.ref == 0]:
            if node.ref == 0:
                swept = manager._sweep(node)
                if stats:
                    stats.nodes_swept += swept

    # Only x-nodes with a y-child change; everything else moves implicitly.
    rewrites = []
    for node in list(manager.nodes_with_pv(x)):
        touches_y = (not node.then.is_sink and node.then.var == y) or (
            not node.else_.is_sink and node.else_.var == y
        )
        if not touches_y:
            continue
        t_edge: BDDEdge = (node.then, False)
        e_edge: BDDEdge = (node.else_, node.else_attr)
        t1, t0 = _cofactor_on(t_edge, y)
        e1, e0 = _cofactor_on(e_edge, y)
        rewrites.append((node, t1, t0, e1, e0))

    for node, *_rest in rewrites:
        manager._unique.delete(node.key())
    order.swap_positions(k)

    # The rewrites reclaim nothing, so the growth of the node count over
    # them is what `_make` allocated.
    count_before = manager._node_count
    dead: List[BDDNode] = []
    for node, t1, t0, e1, e0 in rewrites:
        # f = y (x t1 + x' e1) + y' (x t0 + x' e0)
        new_t = manager._make(x, t1, e1)
        new_e = manager._make(x, t0, e0)
        tn, ta = new_t
        en, ea = new_e
        if ta:
            # A function-preserving rewrite cannot flip polarity (the
            # canonical attribute equals not f(1,..,1), order-independent).
            raise BBDDError("BDD swap produced a complemented then-edge")
        if tn is en and ta == ea:
            raise BBDDError("BDD swap collapsed a node that depends on y")
        old_children = (node.then, node.else_)
        manager._by_var[node.var].discard(node)
        node.var = y
        manager._by_var[y].add(node)
        node.then = tn
        node.else_ = en
        node.else_attr = ea
        tn.ref += 1
        en.ref += 1
        manager._unique.insert(node.key(), node)
        for child in old_children:
            child.ref -= 1
            if child.ref == 0 and not child.is_sink:
                dead.append(child)
        if stats:
            stats.nodes_rewritten += 1
    if stats:
        stats.nodes_created += manager._node_count - count_before

    for node in dead:
        if node.ref == 0:
            swept = manager._sweep(node)
            if stats:
                stats.nodes_swept += swept

    if stats:
        stats.swaps += 1


def sift_bdd(
    manager,
    max_growth: float = 1.2,
    converge: bool = False,
    max_rounds: int = 4,
    max_swaps: Optional[int] = None,
) -> SiftResult:
    """Rudell's sifting on the baseline package (shared excursion driver)."""
    return _core_sift(
        manager,
        max_growth=max_growth,
        converge=converge,
        max_rounds=max_rounds,
        max_swaps=max_swaps,
        swap_fn=swap_adjacent_bdd,
    )


def reorder_to_bdd(manager, target_order, stats: Optional[SwapStats] = None) -> None:
    """Reorder the BDD manager to ``target_order`` via adjacent swaps."""
    target = [manager.var_index(v) for v in target_order]
    if sorted(target) != sorted(range(manager.num_vars)):
        raise OrderError("target order must be a permutation of all variables")
    with manager._level_index():
        for pos in range(manager.num_vars):
            want = target[pos]
            current = manager.order.position(want)
            while current > pos:
                swap_adjacent_bdd(manager, current - 1, stats)
                current -= 1
