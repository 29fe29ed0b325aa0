"""Dynamic variable ordering for the baseline BDD package.

Rudell's sifting with in-place level swaps: when positions ``k, k+1``
(variables ``x, y``) are exchanged, only the ``x``-rows with a ``y``
child are rewritten — in place, so external edges stay valid (the row's
function is preserved) — while the remaining ``x``- and ``y``-rows simply
change level implicitly (rows are keyed by variable, not position).  The
swap finds the ``x``-rows in the store's level index, which holds every
row by its variable.

The excursion driver is shared with the BBDD package
(:func:`repro.core.reorder.sift` with ``swap_fn=swap_adjacent_bdd``).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.exceptions import BBDDError, OrderError
from repro.core.node import SV_ONE, Edge
from repro.core.reorder import SiftResult, SwapStats
from repro.core.reorder import sift as _core_sift


def swap_adjacent_bdd(manager, k: int, stats: Optional[SwapStats] = None) -> None:
    """Swap the variables at order positions ``k`` and ``k + 1`` in place.

    Runs with automatic GC deferred (the rewrite plans hold bare edges)
    and inside the manager's level index (built here unless a caller
    such as the sifting driver already holds it).
    """
    with manager.defer_gc(), manager._level_index():
        _swap_adjacent_bdd(manager, k, stats)


def _swap_adjacent_bdd(manager, k: int, stats: Optional[SwapStats]) -> None:
    order = manager.order
    n = manager.num_vars
    if not 0 <= k < n - 1:
        raise OrderError(f"cannot swap positions {k},{k + 1} of {n}")
    x = order.var_at(k)
    y = order.var_at(k + 1)

    pvl = manager._pv
    neql = manager._neq
    eql = manager._eq
    refl = manager._ref
    fl = manager._float
    raw = manager._uniq_raw

    # Collect garbage first, so none is rewritten and no dead row keeps
    # a key that names a slot the swap reuses.  A sift leaves none
    # between its swaps, so there this only clears the computed table.
    swept = manager.gc() if manager._dead_set else 0
    manager.clear_cache()

    def cofactors(edge: Edge):
        """Shannon cofactors (f|y=1, f|y=0) read off the old structure."""
        node = -edge if edge < 0 else edge
        if pvl[node] != y:
            return edge, edge
        if edge < 0:
            return -eql[node], -neql[node]
        return eql[node], neql[node]

    # Only x-rows with a y-child change; everything else moves implicitly.
    rewrites = []
    for node in manager.nodes_with_pv(x):
        t = eql[node]
        e = neql[node]
        if pvl[t] != y and pvl[-e if e < 0 else e] != y:
            continue
        rewrites.append((node, cofactors(t), cofactors(e)))

    for node, _t, _e in rewrites:
        del raw[(x, SV_ONE, neql[node], eql[node])]
    order.swap_positions(k)

    # The rewrites reclaim nothing (old children are released after
    # them), so the growth of the node count is what `_make` allocated.
    count_before = manager._node_count
    make = manager._make
    ref_index = manager._ref_index
    dead_discard = manager._dead_set.discard
    by_x = manager._by_pv[x]
    by_y = manager._by_pv[y]
    released: List[int] = []
    for node, (t1, t0), (e1, e0) in rewrites:
        # f = y (x t1 + x' e1) + y' (x t0 + x' e0)
        new_t = make(x, t1, e1)
        new_e = make(x, t0, e0)
        if new_t < 0:
            # A function-preserving rewrite cannot flip polarity (the
            # canonical attribute equals not f(1,..,1), order-independent).
            raise BBDDError("BDD swap produced a complemented then-edge")
        if new_t == new_e:
            raise BBDDError("BDD swap collapsed a node that depends on y")
        e = neql[node]
        released.append(-e if e < 0 else e)
        released.append(eql[node])
        by_x.discard(node)
        by_y.add(node)
        pvl[node] = y
        neql[node] = new_e
        eql[node] = new_t
        raw[(y, SV_ONE, new_e, new_t)] = node
        for child in (new_t, -new_e if new_e < 0 else new_e):
            r = refl[child]
            if r > 0:
                refl[child] = r + 1
            elif fl[child]:
                fl[child] = 0
                refl[child] = 1
                dead_discard(child)
            else:
                ref_index(child)
    if stats:
        stats.nodes_created += manager._node_count - count_before
        stats.nodes_rewritten += len(rewrites)

    # Each released child carries one deferred release: apply them in
    # one walk that reclaims every row that dies.
    if released:
        swept += manager._kill_many(released)

    if stats:
        stats.nodes_swept += swept
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
