"""Chain variable re-ordering (Sec. IV-A4): CVO swap theory and sifting.

A variable swap ``i <-> i+1`` exchanges two adjacent variables ``x, y`` in
the order.  Under the support-chained CVO (rule R3), a function's couples
pair *consecutive support variables*, so the swap concerns exactly the
functions that depend on **both** ``x`` and ``y`` — their chains contain
``(a, x) (x, y) (y, z)`` fragments that become ``(a, y) (y, x) (x, z)``.
Concretely the affected nodes are:

* ``B`` — chain nodes with couple ``(x, y)``: overwritten in place at
  couple ``(y, x)`` with children rebuilt below;
* ``A`` — chain nodes with SV ``x`` whose support contains ``y``:
  overwritten in place at couple ``(pv, y)``.

Every other node (including all ``(y, .)``-rooted nodes and any node whose
function involves only one of the two variables) is untouched — the
locality property the paper claims for its pointer-stable swap.  In the
flat store the overwrite is literally index-stable: an affected node
keeps its array slot (so every edge into it — and every interned view of
it — stays valid) and only its field slots are rewritten.  The children
remapping follows Fig. 2 / Eq. 5: with comparison outcomes
``a = [w != x]``, ``b = [x != y]``, ``c = [y != z]`` (True = "!="),

    new(a', b', c') = old(a' ^ b', b', b' ^ c')

applied per root-to-leaf path (each path carries its own deeper partner
``z``).  Soundness of the in-place overwrite rests on the complement
normalization: the canonical attribute of a function equals
``not f(1, 1, .., 1)``, which is order-independent, so a
function-preserving rewrite never flips a node's polarity.

The module also provides Rudell-style sifting extended to BBDDs and a
rebuild-based reordering used as a test oracle.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from repro.core.exceptions import BBDDError, OrderError
from repro.core.node import SINK, SV_ONE, Edge


class SwapStats:
    """Counters accumulated across swap operations (for benches/reports)."""

    __slots__ = ("swaps", "nodes_rewritten", "nodes_created", "nodes_swept")

    def __init__(self) -> None:
        self.swaps = 0
        self.nodes_rewritten = 0
        self.nodes_created = 0
        self.nodes_swept = 0

    def as_dict(self) -> dict:
        return {
            "swaps": self.swaps,
            "nodes_rewritten": self.nodes_rewritten,
            "nodes_created": self.nodes_created,
            "nodes_swept": self.nodes_swept,
        }


def _split(manager, edge: Edge, var: int):
    """Split ``edge`` on its root couple when rooted at ``var``.

    Returns ``(partner, neq_edge, eq_edge)``; ``partner`` is ``None`` when
    the edge does not branch on ``var`` (both cofactors equal the edge),
    and ``SV_ONE`` for the literal of ``var``.
    """
    node = -edge if edge < 0 else edge
    if node == SINK or manager._pv[node] != var:
        return None, edge, edge
    if manager._sv[node] == SV_ONE:
        s = 1 if edge > 0 else -1  # literal children are the sink
        return SV_ONE, -s, s
    d = manager._neq[node]
    e = manager._eq[node]
    if edge < 0:
        return manager._sv[node], -d, -e
    return manager._sv[node], d, e


def swap_adjacent(manager, k: int, stats: Optional[SwapStats] = None) -> None:
    """Swap the variables at order positions ``k`` and ``k + 1`` in place.

    The whole surgery runs with automatic GC deferred: plans hold bare
    edges into the old structure, which a collection would invalidate.
    """
    with manager.defer_gc():
        _swap_adjacent(manager, k, stats)


def _swap_adjacent(manager, k: int, stats: Optional[SwapStats]) -> None:
    order = manager.order
    n = manager.num_vars
    if not 0 <= k < n - 1:
        raise OrderError(f"cannot swap positions {k},{k + 1} of {n}")

    x = order.var_at(k)
    y = order.var_at(k + 1)
    y_bit = 1 << y

    pvl = manager._pv
    svl = manager._sv
    neql = manager._neq
    eql = manager._eq
    refl = manager._ref
    suppl = manager._supp
    raw = manager._uniq_raw

    # The computed table holds bare indices into the forest; swept nodes
    # would otherwise escape through it.
    manager.clear_cache()

    # Reclaim garbage at the concerned levels up front so it is neither
    # planned nor rewritten.  (Batched: a single cascade walk per level
    # set; roots reclaimed by an earlier cascade are skipped inside.)
    sweep_many = manager._sweep_many
    # Once-live dead nodes must go first, and *globally*: they sit in
    # the unique table under keys naming child slots whose counts they
    # already dropped, so the level sweeps below could free and recycle
    # such a slot — after which the stale key would alias a rebuilt
    # node's legitimate key (the flat store's ABA hazard).  Floats are
    # immune (their birth counts pin their children) and stay for
    # revival; this pass is a pure table/slot removal with no cascade.
    fl = manager._float
    stale = [nd for nd in manager._dead_set if not fl[nd]]
    if stale:
        swept = sweep_many(stale)
        if stats:
            stats.nodes_swept += swept
    dead_roots = [nd for nd in manager.nodes_with_pv(x) if refl[nd] == 0]
    if dead_roots:
        swept = sweep_many(dead_roots)
        if stats:
            stats.nodes_swept += swept
    dead_roots = [nd for nd in manager.nodes_with_sv(x) if refl[nd] == 0]
    if dead_roots:
        swept = sweep_many(dead_roots)
        if stats:
            stats.nodes_swept += swept

    b_nodes = [nd for nd in manager.nodes_with_pv(x) if svl[nd] == y]
    a_nodes = [nd for nd in manager.nodes_with_sv(x) if suppl[nd] & y_bit]

    if not b_nodes and not a_nodes:
        order.swap_positions(k)
        if stats:
            stats.swaps += 1
        return

    # Per-swap memo tables.  The planned/rebuilt subtrees repeat heavily
    # across the nodes of one swap (~70% of `_make` arguments recur), so
    # each derived quantity is computed once per distinct input.  All
    # caches die with the swap: plan caches are only valid against the
    # pristine phase-0 structure, build caches only while sweeps are
    # deferred (phase 4 is the first reclamation point).
    split_cache: dict = {}
    cof_cache: dict = {}

    def split_y(edge: Edge):
        # `_split(manager, edge, y)` with the body inlined on the cache
        # miss path (this is called for every planned child edge).
        r = split_cache.get(edge)
        if r is None:
            node = -edge if edge < 0 else edge
            if node == SINK or pvl[node] != y:
                r = (None, edge, edge)
            elif svl[node] == SV_ONE:
                s = 1 if edge > 0 else -1  # literal children are the sink
                r = (SV_ONE, -s, s)
            elif edge < 0:
                r = (svl[node], -neql[node], -eql[node])
            else:
                r = (svl[node], neql[node], eql[node])
            split_cache[edge] = r
        return r

    def split_of_make(s: int, d: Edge, e: Edge):
        """Split triple of the would-be ``_make(y, s, d, e)`` result.

        Computed symbolically — the swap only ever needs the split, so
        the ``(y, .)`` helper node ``_cofactors`` would intern (and the
        next pre-sweep would reclaim) is never allocated.  Mirrors the
        reduction loop of ``_make``.
        """
        attr = False
        while True:
            if d == e:  # R2: no y-root at all
                return split_y(-e if attr else e)
            if e < 0:
                attr = not attr
                d = -d
                e = -e
            dn = -d if d < 0 else d
            if dn != SINK and e != SINK and pvl[dn] == s and pvl[e] == s:
                sd = svl[dn]
                if sd == svl[e]:
                    if sd == SV_ONE:  # R4: collapses to the literal of y
                        sgn = -1 if attr else 1
                        return (SV_ONE, -sgn, sgn)
                    if d < 0:
                        dneq = -neql[dn]
                        deq = -eql[dn]
                    else:
                        dneq = neql[dn]
                        deq = eql[dn]
                    if dneq == eql[e] and deq == neql[e]:
                        s = sd
                        d = deq
                        e = dneq
                        continue
            break
        if attr:
            return (s, -d, -e)
        return (s, d, e)

    def child_splits(child: Edge):
        """Gamma splits of both biconditional cofactors of an alpha child."""
        r = cof_cache.get(child)
        if r is None:
            node_c = -child if child < 0 else child
            if pvl[node_c] != x:
                # Independent of x: both cofactors are the child itself.
                sp = split_y(child)
                r = (sp, sp)
            else:
                sv_c = svl[node_c]
                if sv_c == y or sv_c == SV_ONE:
                    if sv_c == y:
                        # (x, y)-couple child: its stored fields.
                        cof_neq = neql[node_c]
                        cof_eq = eql[node_c]
                    else:
                        cof_neq, cof_eq = manager._cofactors(node_c, x, y)
                    if child < 0:
                        cof_neq = -cof_neq
                        cof_eq = -cof_eq
                    r = (split_y(cof_neq), split_y(cof_eq))
                else:
                    # (x, t != y) chain child: the substitution re-roots
                    # at (y, t) — compute both splits without interning
                    # the helper nodes.
                    d_edge = neql[node_c]
                    e_edge = eql[node_c]
                    sp_neq = split_of_make(sv_c, e_edge, d_edge)
                    sp_eq = split_of_make(sv_c, d_edge, e_edge)
                    if child < 0:
                        sp_neq = (sp_neq[0], -sp_neq[1], -sp_neq[2])
                        sp_eq = (sp_eq[0], -sp_eq[1], -sp_eq[2])
                    r = (sp_neq, sp_eq)
            cof_cache[child] = r
        return r

    # ---- Phase 0: plan extraction against the pristine old structure ----
    # B-plan per node: for each old (x ? y) branch b, the child's gamma
    # split (partner z_b, leaf at gamma=1, leaf at gamma=0).
    b_plans = [(node, split_y(neql[node]), split_y(eql[node])) for node in b_nodes]

    # A-plan per node: alpha branch -> beta branch -> gamma split triple.
    # The beta split is the biconditional cofactoring of the alpha-child
    # w.r.t. the couple (x, y); when the child's own couple is (x, t != y)
    # the manager's cofactoring re-roots the substitution at (y, t) —
    # creating only (y, .)-couple helper nodes, which the swap never
    # touches.
    a_plans = [
        (node, child_splits(neql[node]), child_splits(eql[node]))
        for node in a_nodes
    ]

    # ---- Phase 1: clear stale keys, then commit the new order -----------
    # B- and A-nodes are all chain nodes, so their keys are the raw field
    # tuples (no literal special case).
    for node in b_nodes:
        del raw[(pvl[node], svl[node], neql[node], eql[node])]
    for node in a_nodes:
        del raw[(pvl[node], svl[node], neql[node], eql[node])]
    order.swap_positions(k)

    dead_candidates: List[int] = []
    by_sv = manager._by_sv
    bits = manager._var_bits
    ref_index = manager._ref_index
    make = manager._make
    # Overwrite hoists: B-nodes always move couple (x, y) -> (y, x) and
    # A-nodes (pv, x) -> (pv, y), so the secondary-index sets and the
    # couple's support bits are per-phase constants.  The in-place
    # overwrite itself is inlined in both phase loops below: it is
    # index-stable (incoming edges and interned views keep working), and
    # under cascading reference counts only a *live* node holds counts on
    # its children, so the child hand-over goes through the manager's
    # ref/deref hooks (reviving freshly built subtrees and cascading
    # releases into the orphaned old structure) with the already-live /
    # stays-live cases inlined.
    by_sv_x = by_sv[x]
    by_sv_y = by_sv[y]
    bits_xy = bits[x] | bits[y]
    bit_y = bits[y]
    dead_append = dead_candidates.append
    dead_discard = manager._dead_set.discard

    # Rebuild caches: (z, hi, lo) -> edge of the (x, z) branch node, and
    # (hi, lo) -> edge of a rebuilt (y, x) child.  The cache probes are
    # inlined in the loops below — at ~800k probes per sift these are the
    # hottest lines of the whole reordering pass.  A cache miss first
    # probes the unique table directly with the normalized key (hits skip
    # `_make` entirely); only true allocations/reductions call `_make`.
    branch_cache: dict = {}
    bc_get = branch_cache.get
    yx_cache: dict = {}
    yx_get = yx_cache.get
    raw_get = raw.get

    # ---- Phase 2: B-nodes become (y, x) nodes ---------------------------
    # new(b', c') = old(b', b' ^ c'): the new beta'-child reshuffles the
    # same old branch's leaves; for b' = True the gamma leaves swap
    # (gamma' = not gamma), so the T-leg rebuilds with inverted leaves.
    by_pv_x = manager._by_pv[x]
    by_pv_y = manager._by_pv[y]
    for node, sp_t, sp_f in b_plans:
        z, hi, lo = sp_t
        if z is None:
            d_child = hi  # no gamma split: the child is y-independent
        else:
            bkey = (z, lo, hi)
            d_child = bc_get(bkey)
            if d_child is None:
                r = raw_get((x, z, lo, hi)) if hi > 0 else raw_get((x, z, -lo, -hi))
                if r is None:
                    d_child = make(x, z, lo, hi, True)
                else:
                    d_child = r if hi > 0 else -r
                branch_cache[bkey] = d_child
        z, hi, lo = sp_f
        if z is None:
            e_child = hi
        else:
            bkey = (z, hi, lo)
            e_child = bc_get(bkey)
            if e_child is None:
                r = raw_get((x, z, hi, lo)) if lo > 0 else raw_get((x, z, -hi, -lo))
                if r is None:
                    e_child = make(x, z, hi, lo, True)
                else:
                    e_child = r if lo > 0 else -r
                branch_cache[bkey] = e_child
        by_pv_x.discard(node)
        pvl[node] = y
        by_pv_y.add(node)
        # Inlined overwrite: (x, y) couple becomes (y, x).
        if e_child < 0:
            raise BBDDError("CVO swap produced a complemented =-edge at a root")
        if d_child == e_child:
            raise BBDDError("CVO swap collapsed a chain node (R2)")
        was_live = refl[node] > 0
        old_d = neql[node]
        old_dn = -old_d if old_d < 0 else old_d
        old_e = eql[node]
        by_sv_y.discard(node)
        svl[node] = x
        neql[node] = d_child
        eql[node] = e_child
        dn = -d_child if d_child < 0 else d_child
        suppl[node] = bits_xy | suppl[dn] | suppl[e_child]
        if was_live:
            r = refl[dn]
            if r > 0:
                refl[dn] = r + 1
            elif fl[dn]:
                fl[dn] = 0
                refl[dn] = 1
                dead_discard(dn)
            else:
                ref_index(dn)
            r = refl[e_child]
            if r > 0:
                refl[e_child] = r + 1
            elif fl[e_child]:
                fl[e_child] = 0
                refl[e_child] = 1
                dead_discard(e_child)
            else:
                ref_index(e_child)
        by_sv_x.add(node)
        raw[(y, x, d_child, e_child)] = node
        if was_live:
            # Release the old children.  A count hitting zero is *not*
            # applied here: the node goes on the kill list with the
            # final decrement deferred to the phase-4 walk, so a node
            # re-acquired by a later rebuild simply survives it.
            r = refl[old_dn]
            if r > 1 or old_dn == SINK:
                refl[old_dn] = r - 1
            else:
                dead_append(old_dn)
            r = refl[old_e]
            if r > 1 or old_e == SINK:
                refl[old_e] = r - 1
            else:
                dead_append(old_e)

    # ---- Phase 3: A-nodes re-chain to (pv, y) ----------------------------
    # new(a', b', c') = old(a' ^ b', b', b' ^ c'); each plan entry holds
    # the (neq-cofactor, eq-cofactor) splits for one alpha branch, and the
    # b' = True legs rebuild with inverted gamma leaves as in phase 2.
    for node, sp_a_t, sp_a_f in a_plans:
        z, hi, lo = sp_a_f[0]  # a'=T, b'=T: old alpha = F
        if z is None:
            sub_tt = hi
        else:
            bkey = (z, lo, hi)
            sub_tt = bc_get(bkey)
            if sub_tt is None:
                r = raw_get((x, z, lo, hi)) if hi > 0 else raw_get((x, z, -lo, -hi))
                if r is None:
                    sub_tt = make(x, z, lo, hi, True)
                else:
                    sub_tt = r if hi > 0 else -r
                branch_cache[bkey] = sub_tt
        z, hi, lo = sp_a_t[1]  # a'=T, b'=F: old alpha = T
        if z is None:
            sub_tf = hi
        else:
            bkey = (z, hi, lo)
            sub_tf = bc_get(bkey)
            if sub_tf is None:
                r = raw_get((x, z, hi, lo)) if lo > 0 else raw_get((x, z, -hi, -lo))
                if r is None:
                    sub_tf = make(x, z, hi, lo, True)
                else:
                    sub_tf = r if lo > 0 else -r
                branch_cache[bkey] = sub_tf
        z, hi, lo = sp_a_t[0]  # a'=F, b'=T: old alpha = T
        if z is None:
            sub_ft = hi
        else:
            bkey = (z, lo, hi)
            sub_ft = bc_get(bkey)
            if sub_ft is None:
                r = raw_get((x, z, lo, hi)) if hi > 0 else raw_get((x, z, -lo, -hi))
                if r is None:
                    sub_ft = make(x, z, lo, hi, True)
                else:
                    sub_ft = r if hi > 0 else -r
                branch_cache[bkey] = sub_ft
        z, hi, lo = sp_a_f[1]  # a'=F, b'=F: old alpha = F
        if z is None:
            sub_ff = hi
        else:
            bkey = (z, hi, lo)
            sub_ff = bc_get(bkey)
            if sub_ff is None:
                r = raw_get((x, z, hi, lo)) if lo > 0 else raw_get((x, z, -hi, -lo))
                if r is None:
                    sub_ff = make(x, z, hi, lo, True)
                else:
                    sub_ff = r if lo > 0 else -r
                branch_cache[bkey] = sub_ff
        ykey = (sub_tt, sub_tf)
        d_child = yx_get(ykey)
        if d_child is None:
            if sub_tf > 0:
                r = raw_get((y, x, sub_tt, sub_tf))
            else:
                r = raw_get((y, x, -sub_tt, -sub_tf))
            if r is None:
                d_child = make(y, x, sub_tt, sub_tf, True)
            else:
                d_child = r if sub_tf > 0 else -r
            yx_cache[ykey] = d_child
        ykey = (sub_ft, sub_ff)
        e_child = yx_get(ykey)
        if e_child is None:
            if sub_ff > 0:
                r = raw_get((y, x, sub_ft, sub_ff))
            else:
                r = raw_get((y, x, -sub_ft, -sub_ff))
            if r is None:
                e_child = make(y, x, sub_ft, sub_ff, True)
            else:
                e_child = r if sub_ff > 0 else -r
            yx_cache[ykey] = e_child
        # Inlined overwrite: (pv, x) couple re-chains to (pv, y).
        if e_child < 0:
            raise BBDDError("CVO swap produced a complemented =-edge at a root")
        if d_child == e_child:
            raise BBDDError("CVO swap collapsed a chain node (R2)")
        was_live = refl[node] > 0
        old_d = neql[node]
        old_dn = -old_d if old_d < 0 else old_d
        old_e = eql[node]
        by_sv_x.discard(node)
        svl[node] = y
        neql[node] = d_child
        eql[node] = e_child
        dn = -d_child if d_child < 0 else d_child
        suppl[node] = bits[pvl[node]] | bit_y | suppl[dn] | suppl[e_child]
        if was_live:
            r = refl[dn]
            if r > 0:
                refl[dn] = r + 1
            elif fl[dn]:
                fl[dn] = 0
                refl[dn] = 1
                dead_discard(dn)
            else:
                ref_index(dn)
            r = refl[e_child]
            if r > 0:
                refl[e_child] = r + 1
            elif fl[e_child]:
                fl[e_child] = 0
                refl[e_child] = 1
                dead_discard(e_child)
            else:
                ref_index(e_child)
        by_sv_y.add(node)
        raw[(pvl[node], y, d_child, e_child)] = node
        if was_live:
            # Deferred final release — see the phase-2 comment.
            r = refl[old_dn]
            if r > 1 or old_dn == SINK:
                refl[old_dn] = r - 1
            else:
                dead_append(old_dn)
            r = refl[old_e]
            if r > 1 or old_e == SINK:
                refl[old_e] = r - 1
            else:
                dead_append(old_e)

    # ---- Phase 4: reclaim subgraphs orphaned by the rewiring --------------
    # Single release-and-reclaim walk: each kill-list entry carries one
    # deferred decrement; nodes that died are reclaimed on the spot.
    if dead_candidates:
        swept = manager._kill_many(dead_candidates)
        if stats:
            stats.nodes_swept += swept

    if stats:
        stats.nodes_rewritten += len(b_plans) + len(a_plans)
        stats.swaps += 1


def reorder_to(manager, target_order: Sequence, stats: Optional[SwapStats] = None) -> None:
    """Reorder to ``target_order`` (names or indices) via adjacent swaps."""
    target = [manager.var_index(v) for v in target_order]
    if sorted(target) != sorted(range(manager.num_vars)):
        raise OrderError("target order must be a permutation of all variables")
    # Selection-sort with adjacent transpositions: O(n^2) swaps worst case.
    for pos in range(manager.num_vars):
        want = target[pos]
        current = manager.order.position(want)
        while current > pos:
            swap_adjacent(manager, current - 1, stats)
            current -= 1


class SiftResult:
    """Outcome of a sifting run."""

    __slots__ = ("initial_size", "final_size", "swaps", "duration", "rounds")

    def __init__(self, initial_size, final_size, swaps, duration, rounds) -> None:
        self.initial_size = initial_size
        self.final_size = final_size
        self.swaps = swaps
        self.duration = duration
        self.rounds = rounds

    def as_dict(self) -> dict:
        return {
            "initial_size": self.initial_size,
            "final_size": self.final_size,
            "swaps": self.swaps,
            "duration": self.duration,
            "rounds": self.rounds,
        }


def sift(
    manager,
    max_growth: float = 1.2,
    converge: bool = False,
    max_rounds: int = 4,
    max_swaps: Optional[int] = None,
    swap_fn=None,
) -> SiftResult:
    """Rudell's sifting extended to BBDDs (Sec. IV-A4).

    Each variable in turn is moved through all ``n`` candidate CVO
    positions with adjacent swaps; the position minimizing the stored node
    count is kept.  ``max_growth`` aborts an excursion whose intermediate
    size exceeds the best size by that factor; ``converge`` repeats passes
    until no improvement (bounded by ``max_rounds``); ``max_swaps`` bounds
    total work for benchmark profiles.

    The excursion driver is representation-agnostic: ``swap_fn(manager, k,
    stats)`` defaults to the BBDD CVO swap, and the baseline BDD package
    reuses this driver with its own level swap.
    """
    manager.gc()  # sizes must reflect live nodes only
    if swap_fn is None:
        swap_fn = swap_adjacent
    # Managers exposing state snapshots let the driver rewind excursions
    # instead of retracing them (custom swap_fn implies custom state the
    # snapshot may not cover, so only the default swap uses them).
    checkpoint = (
        getattr(manager, "_checkpoint", None)
        if swap_fn is swap_adjacent
        else None
    )
    stats = SwapStats()
    t0 = time.perf_counter()
    initial = manager.size()
    n = manager.num_vars
    rounds = 0

    def budget_left() -> bool:
        return max_swaps is None or stats.swaps < max_swaps

    improved = True
    while improved and rounds < (max_rounds if converge else 1) and budget_left():
        improved = False
        rounds += 1
        round_start = manager.size()
        by_level_size = sorted(
            range(n), key=lambda v: -len(manager.nodes_with_pv(v))
        )
        for var in by_level_size:
            if not budget_left():
                break
            best_size = manager.size()
            pos = manager.order.position(var)
            best_pos = pos
            # Excursion towards the closer end first, then the other end.
            down_first = (n - 1 - pos) <= pos
            legs = [(1, n - 1), (-1, 0)] if down_first else [(-1, 0), (1, n - 1)]
            if checkpoint is not None:
                # Checkpointing manager: both legs probe from the start
                # state and the excursion ends with a rewind to the best
                # state, skipping every already-measured retrace swap
                # (roughly half of a plain excursion's swaps).  Sizes and
                # final structure are exactly those of the retraced walk —
                # the store is canonical per order, so revisiting a
                # position reproduces the measured size.
                start_pos = pos
                start_state = manager._checkpoint()
                best_state = start_state
                for direction, limit in legs:
                    while pos != limit and budget_left():
                        if direction > 0:
                            swap_fn(manager, pos, stats)
                            pos += 1
                        else:
                            swap_fn(manager, pos - 1, stats)
                            pos -= 1
                        size = manager.size()
                        if size < best_size:
                            best_size, best_pos = size, pos
                            best_state = manager._checkpoint()
                        elif size > best_size * max_growth:
                            break
                    if (direction, limit) != legs[-1]:
                        manager._restore(start_state)
                        pos = start_pos
                manager._restore(best_state)
                continue
            for direction, limit in legs:
                while pos != limit and budget_left():
                    if direction > 0:
                        swap_fn(manager, pos, stats)
                        pos += 1
                    else:
                        swap_fn(manager, pos - 1, stats)
                        pos -= 1
                    size = manager.size()
                    if size < best_size:
                        best_size, best_pos = size, pos
                    elif size > best_size * max_growth:
                        break
            while pos < best_pos:
                swap_fn(manager, pos, stats)
                pos += 1
            while pos > best_pos:
                swap_fn(manager, pos - 1, stats)
                pos -= 1
        if manager.size() < round_start:
            improved = True

    return SiftResult(
        initial_size=initial,
        final_size=manager.size(),
        swaps=stats.swaps,
        duration=time.perf_counter() - t0,
        rounds=rounds,
    )


# ---------------------------------------------------------------------------
# Rebuild-based reordering: the slow, obviously-correct oracle.
# ---------------------------------------------------------------------------


def from_truth_table(manager, mask: int, num_vars: Optional[int] = None) -> Edge:
    """Build the canonical BBDD of a truth-table bitmask.

    Bit ``i`` of ``mask`` is the value of the assignment whose ``j``-th
    *variable-index* bit is bit ``j`` of ``i``.  Exponential in the
    variable count; used by tests and small examples.
    """
    from repro.core.truthtable import TruthTable

    n = num_vars if num_vars is not None else manager.num_vars
    order = manager.order

    def build(table) -> Edge:
        if table.mask == 0:
            return manager.false_edge
        if table.mask == table._full():
            return manager.true_edge
        supp = sorted(table.support(), key=order.position)
        pv = supp[0]
        if len(supp) == 1:
            positive = table.restrict(pv, True).mask != 0
            lit = manager.literal_node(pv)
            return lit if positive else -lit
        sv = supp[1]
        sv_tt = TruthTable.var(n, sv)
        t_neq = table.compose(pv, ~sv_tt)
        t_eq = table.compose(pv, sv_tt)
        d = build(t_neq)
        e = build(t_eq)
        return manager._make(pv, sv, d, e)

    return build(TruthTable(n, mask))

