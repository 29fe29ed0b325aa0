"""Chain variable re-ordering (Sec. IV-A4): CVO swap theory and sifting.

A variable swap ``i <-> i+1`` exchanges two adjacent variables ``x, y`` in
the order.  Under the support-chained CVO (rule R3), a function's couples
pair *consecutive support variables*, so the swap concerns exactly the
functions that depend on **both** ``x`` and ``y`` — their chains contain
``(a, x) (x, y) (y, z)`` fragments that become ``(a, y) (y, x) (x, z)``.
Three kinds of node take part:

* ``A`` — chain nodes with SV ``x`` whose support contains ``y``: each is
  rewritten in place at couple ``(pv, y)`` over ``(y, x)`` children.
* ``B`` — chain nodes with couple ``(x, y)``.  Most are referenced only
  by A-nodes, so they die when their parents are rewritten: the swap
  reclaims them up front, and their slots take the nodes it builds.  The
  others (held by a function handle or by an untouched parent) are
  rewritten in place at couple ``(y, x)`` over ``(x, z)`` children.
* ``y``-children of B-nodes (couple ``(y, z)``).  One that only B-nodes
  reference loses every reference in the swap, and the ``(x, z)`` nodes
  the swap needs reuse its two children.  The first such node built from
  it takes its slot in place (``pv`` becomes ``x``, its children kept or
  exchanged), so neither child's count moves.

A census before any rewrite decides these cases: it compares each
B-node's count with its references from A-nodes and each ``y``-child's
count with its references from B-nodes.  Every other node (including all
other ``(y, .)``-rooted nodes and any node whose function involves only
one of the two variables) is untouched — the locality property the paper
claims for its pointer-stable swap.  In the flat store the overwrite is
literally index-stable: a rewritten node keeps its array slot (so every
edge into it — and every interned view of it — stays valid) and only its
field slots change.  The children remapping follows Fig. 2 / Eq. 5: with
comparison outcomes ``a = [w != x]``, ``b = [x != y]``, ``c = [y != z]``
(True = "!="),

    new(a', b', c') = old(a' ^ b', b', b' ^ c')

applied per root-to-leaf path (each path carries its own deeper partner
``z``).  Soundness of the in-place overwrite rests on the complement
normalization: the canonical attribute of a function equals
``not f(1, 1, .., 1)``, which is order-independent, so a
function-preserving rewrite never flips a node's polarity.

A swap returns no garbage of its own: the nodes it orphans are reclaimed
in one walk, and the nodes it built or moved that nothing acquired are
swept before it returns.  After a collection, ``size()`` is therefore the
live node count, which is what sifting compares.

The module also provides Rudell-style sifting extended to BBDDs and a
rebuild-based reordering used as a test oracle.  A swap finds its A- and
B-nodes through the manager's per-variable node sets, which exist only
inside ``manager._level_index()``: :func:`sift`, :func:`reorder_to` and
:func:`swap_adjacent` enter it, so a sift builds the sets once, when it
starts, and the store keeps none outside reordering.
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


def swap_adjacent(manager, k: int, stats: Optional[SwapStats] = None) -> None:
    """Swap the variables at order positions ``k`` and ``k + 1`` in place.

    The whole surgery runs with automatic GC deferred: plans hold bare
    edges into the old structure, which a collection would invalidate.
    It also runs inside the manager's level index (built here unless a
    caller such as :func:`sift` already holds it).
    """
    with manager.defer_gc(), manager._level_index():
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
    swept = 0
    # Once-live dead nodes must go first, and *globally*: they sit in
    # the unique table under keys naming child slots whose counts they
    # already dropped, so the level sweeps below could free and recycle
    # such a slot — after which the stale key would alias a rebuilt
    # node's legitimate key (the flat store's ABA hazard).  Floats are
    # immune (their birth counts pin their children) and stay for
    # revival; this pass is a pure table/slot removal with no cascade.
    # The level scans are skipped when the store holds no garbage at all,
    # as between the swaps of a sift.
    fl = manager._float
    dead_set = manager._dead_set
    if dead_set:
        stale = [nd for nd in dead_set if not fl[nd]]
        if stale:
            swept += sweep_many(stale)
        dead_roots = [nd for nd in manager.nodes_with_pv(x) if refl[nd] == 0]
        if dead_roots:
            swept += sweep_many(dead_roots)
        dead_roots = [nd for nd in manager.nodes_with_sv(x) if refl[nd] == 0]
        if dead_roots:
            swept += sweep_many(dead_roots)
    # From here on every node at the x level and every node with SV x is
    # live, and so is every child of one.

    b_nodes = [nd for nd in manager.nodes_with_pv(x) if svl[nd] == y]
    a_nodes = [nd for nd in manager.nodes_with_sv(x) if suppl[nd] & y_bit]

    if not b_nodes and not a_nodes:
        order.swap_positions(k)
        if stats:
            stats.swaps += 1
            stats.nodes_swept += swept
        return

    # ---- Phase 0: reference census --------------------------------------
    # A B-node whose count equals its references from A-nodes dies when
    # those parents are rewritten ("dropped"); a y-child whose count
    # equals its references from B-nodes dies when they are ("movable").
    # Both are settled here, once: a dropped B-node's count and a movable
    # y-child's count go to zero, and the releases their parents would
    # make are skipped below (a zero count marks them).  A movable y-child
    # keeps its child counts, so it is a float from now on — exactly what
    # `_make` would return for a fresh node over the same children.
    a_refs: dict = {}
    for node in a_nodes:
        child = neql[node]
        if child < 0:
            child = -child
        if pvl[child] == x:
            a_refs[child] = a_refs.get(child, 0) + 1
        child = eql[node]
        if pvl[child] == x:
            a_refs[child] = a_refs.get(child, 0) + 1
    y_refs: dict = {}
    for node in b_nodes:
        child = neql[node]
        if child < 0:
            child = -child
        if pvl[child] == y:
            y_refs[child] = y_refs.get(child, 0) + 1
        child = eql[node]
        if pvl[child] == y:
            y_refs[child] = y_refs.get(child, 0) + 1
    kept = [nd for nd in b_nodes if refl[nd] != a_refs.get(nd, 0)]
    dropped = [nd for nd in b_nodes if refl[nd] == a_refs.get(nd, 0)]
    movable = [
        nd
        for nd, count in y_refs.items()
        if refl[nd] == count and svl[nd] != SV_ONE
    ]

    # Per-swap memo tables.  The planned/rebuilt subtrees repeat heavily
    # across the nodes of one swap (~70% of the branch arguments recur),
    # so each derived quantity is computed once per distinct input.  All
    # caches die with the swap: plan caches are only valid against the
    # pristine phase-0 structure, build caches only while sweeps are
    # deferred (phase 4 is the first reclamation point).
    split_cache: dict = {}
    cof_cache: dict = {}

    def split_y(edge: Edge):
        """Split ``edge`` on its root couple when rooted at ``y``.

        Returns ``(partner, neq_edge, eq_edge, source)``: ``partner`` is
        ``None`` when the edge does not branch on ``y`` (both cofactors
        equal the edge) and ``SV_ONE`` for the literal of ``y``;
        ``source`` is the split chain node, else 0.
        """
        r = split_cache.get(edge)
        if r is None:
            node = -edge if edge < 0 else edge
            if node == SINK or pvl[node] != y:
                r = (None, edge, edge, 0)
            elif svl[node] == SV_ONE:
                s = 1 if edge > 0 else -1  # literal children are the sink
                r = (SV_ONE, -s, s, 0)
            elif edge < 0:
                r = (svl[node], -neql[node], -eql[node], node)
            else:
                r = (svl[node], neql[node], eql[node], node)
            split_cache[edge] = r
        return r

    def split_of_make(s: int, d: Edge, e: Edge):
        """Split of the would-be ``_make(y, s, d, e)`` result.

        Computed symbolically — the swap only ever needs the split, so
        the ``(y, .)`` helper node a cofactoring would intern is never
        allocated.  Mirrors the reduction loop of ``_make``.
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
                        return (SV_ONE, -sgn, sgn, 0)
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
            return (s, -d, -e, 0)
        return (s, d, e, 0)

    #: Splits of the biconditional cofactors of the literal of x with
    #: respect to (x, y): ``~lit(y)`` and ``lit(y)``.
    lit_splits = ((SV_ONE, 1, -1, 0), (SV_ONE, -1, 1, 0))

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
                if sv_c == y:
                    # (x, y)-couple child: its stored fields.
                    if child < 0:
                        r = (split_y(-neql[node_c]), split_y(-eql[node_c]))
                    else:
                        r = (split_y(neql[node_c]), split_y(eql[node_c]))
                elif sv_c == SV_ONE:
                    r = lit_splits if child > 0 else lit_splits[::-1]
                else:
                    # (x, t != y) chain child: the substitution re-roots
                    # at (y, t) — compute both splits without interning
                    # the helper nodes.
                    d_edge = neql[node_c]
                    e_edge = eql[node_c]
                    sp_neq = split_of_make(sv_c, e_edge, d_edge)
                    sp_eq = split_of_make(sv_c, d_edge, e_edge)
                    if child < 0:
                        sp_neq = (sp_neq[0], -sp_neq[1], -sp_neq[2], sp_neq[3])
                        sp_eq = (sp_eq[0], -sp_eq[1], -sp_eq[2], sp_eq[3])
                    r = (sp_neq, sp_eq)
            cof_cache[child] = r
        return r

    # Plans, against the pristine old structure.  B-plan per kept node:
    # for each old (x ? y) branch b, the child's gamma split (partner
    # z_b, leaf at gamma=1, leaf at gamma=0, source).  A-plan per node:
    # alpha branch -> beta branch -> gamma split.  The beta split is the
    # biconditional cofactoring of the alpha-child w.r.t. the couple
    # (x, y).
    b_plans = [(node, split_y(neql[node]), split_y(eql[node])) for node in kept]
    a_plans = [
        (node, child_splits(neql[node]), child_splits(eql[node]))
        for node in a_nodes
    ]

    for node in dropped:
        refl[node] = 0
    for node in movable:
        refl[node] = 0
        fl[node] = 1
        dead_set.add(node)

    # ---- Phase 1: clear stale keys, release old children, reclaim -------
    # B- and A-nodes are all chain nodes, so their keys are the raw field
    # tuples (no literal special case).  A count hitting zero is *not*
    # applied here: the node goes on the kill list with the final
    # decrement deferred to the phase-4 walk, so a node re-acquired by a
    # later rebuild simply survives it.  Children whose count the census
    # zeroed are skipped.
    dead_candidates: List[int] = []
    dead_append = dead_candidates.append
    for group in (b_nodes, a_nodes):
        for node in group:
            d = neql[node]
            e = eql[node]
            del raw[(pvl[node], svl[node], d, e)]
            dn = -d if d < 0 else d
            r = refl[dn]
            if r > 1 or dn == SINK:
                refl[dn] = r - 1
            elif r:
                dead_append(dn)
            r = refl[e]
            if r > 1 or e == SINK:
                refl[e] = r - 1
            elif r:
                dead_append(e)
    # Dropped B-nodes are gone.  Their slots go on top of the free list,
    # where the nodes built below take them first.
    views_pop = manager._views.pop
    by_pv_x = manager._by_pv[x]
    by_pv_y = manager._by_pv[y]
    by_sv_x = manager._by_sv[x]
    by_sv_y = manager._by_sv[y]
    for node in dropped:
        by_pv_x.discard(node)
        by_sv_y.discard(node)
        views_pop(node, None)
        refl[node] = -1  # tombstone until the slot is reused
    manager._free_nodes.extend(dropped)
    manager._node_count -= len(dropped)
    swept += len(dropped)
    order.swap_positions(k)

    bits = manager._var_bits
    bits_xy = bits[x] | bits[y]
    bit_x = bits[x]
    bit_y = bits[y]
    ref_index = manager._ref_index
    dead_discard = dead_set.discard
    make = manager._make
    raw_get = raw.get
    # Phases 2 and 3 reclaim nothing, so the growth of the node count
    # over them is what `_make` allocated (literals included; a move
    # keeps its slot).
    count_before = manager._node_count

    # Build cache: (pv, sv, d, e) as asked -> edge of the node.  The call
    # sites probe it inline (most of the ~860k lookups of a sift hit) and
    # call `build` on a miss, which probes the unique table directly with
    # the normalized key; hits skip `_make` entirely.
    built: dict = {}
    built_get = built.get
    #: Nodes `build` moved or made: floats until acquired.
    made: List[int] = []

    def build(pv: int, sv, d: Edge, e: Edge, src: int) -> Edge:
        """Edge of the node ``(pv, sv, d, e)`` under the new order.

        ``sv`` is ``None`` for a y-independent leg (``d == e`` is the
        result).  On a miss, the dying y-child ``src`` moves into place
        if it still can; everything else goes through `_make`, which
        applies the reductions and takes a free slot first.
        """
        key = (pv, sv, d, e)
        if sv is None:
            built[key] = d
            return d
        if e < 0:
            d = -d
            e = -e
            neg = True
            unique_key = (pv, sv, d, e)
        else:
            neg = False
            unique_key = key
        r = raw_get(unique_key)
        if r is None:
            if src and fl[src] and pvl[src] == y:
                # Move: the (y, z) node becomes (x, z) over the same two
                # children, whose counts therefore stay as they are.
                del raw[(y, sv, neql[src], eql[src])]
                pvl[src] = x
                neql[src] = d
                eql[src] = e
                raw[unique_key] = src
                by_pv_y.discard(src)
                by_pv_x.add(src)
                suppl[src] = (suppl[src] ^ bit_y) | bit_x
                views_pop(src, None)
                r = src
            else:
                r = make(pv, sv, d, e, True)
            made.append(-r if r < 0 else r)
        if neg:
            r = -r
        built[key] = r
        return r

    # ---- Phase 2: kept B-nodes become (y, x) nodes ----------------------
    # new(b', c') = old(b', b' ^ c'): the new beta'-child reshuffles the
    # same old branch's leaves; for b' = True the gamma leaves swap
    # (gamma' = not gamma), so the T-leg rebuilds with inverted leaves.
    # The in-place overwrite is inlined in both phase loops: it is
    # index-stable (incoming edges and interned views keep working), and
    # under cascading reference counts the live node acquires its new
    # children (reviving freshly built ones) with the already-live case
    # inlined.
    for node, (z, hi, lo, src), (zf, hif, lof, srcf) in b_plans:
        d_child = built_get((x, z, lo, hi)) or build(x, z, lo, hi, src)
        e_child = built_get((x, zf, hif, lof)) or build(x, zf, hif, lof, srcf)
        if e_child < 0:
            raise BBDDError("CVO swap produced a complemented =-edge at a root")
        if d_child == e_child:
            raise BBDDError("CVO swap collapsed a chain node (R2)")
        by_pv_x.discard(node)
        by_pv_y.add(node)
        by_sv_y.discard(node)
        by_sv_x.add(node)
        pvl[node] = y
        svl[node] = x
        neql[node] = d_child
        eql[node] = e_child
        dn = -d_child if d_child < 0 else d_child
        suppl[node] = bits_xy | suppl[dn] | suppl[e_child]
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
        raw[(y, x, d_child, e_child)] = node

    # ---- Phase 3: A-nodes re-chain to (pv, y) ----------------------------
    # new(a', b', c') = old(a' ^ b', b', b' ^ c'); each plan entry holds
    # the (neq-cofactor, eq-cofactor) splits for one alpha branch, and the
    # b' = True legs rebuild with inverted gamma leaves as in phase 2.
    for node, (t_neq, t_eq), (f_neq, f_eq) in a_plans:
        z, hi, lo, src = f_neq  # a'=T, b'=T: old alpha = F
        sub_tt = built_get((x, z, lo, hi)) or build(x, z, lo, hi, src)
        z, hi, lo, src = t_eq  # a'=T, b'=F: old alpha = T
        sub_tf = built_get((x, z, hi, lo)) or build(x, z, hi, lo, src)
        z, hi, lo, src = t_neq  # a'=F, b'=T: old alpha = T
        sub_ft = built_get((x, z, lo, hi)) or build(x, z, lo, hi, src)
        z, hi, lo, src = f_eq  # a'=F, b'=F: old alpha = F
        sub_ff = built_get((x, z, hi, lo)) or build(x, z, hi, lo, src)
        d_child = built_get((y, x, sub_tt, sub_tf)) or build(y, x, sub_tt, sub_tf, 0)
        e_child = built_get((y, x, sub_ft, sub_ff)) or build(y, x, sub_ft, sub_ff, 0)
        if e_child < 0:
            raise BBDDError("CVO swap produced a complemented =-edge at a root")
        if d_child == e_child:
            raise BBDDError("CVO swap collapsed a chain node (R2)")
        pv = pvl[node]
        by_sv_x.discard(node)
        by_sv_y.add(node)
        svl[node] = y
        neql[node] = d_child
        eql[node] = e_child
        dn = -d_child if d_child < 0 else d_child
        suppl[node] = bits[pv] | bit_y | suppl[dn] | suppl[e_child]
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
        raw[(pv, y, d_child, e_child)] = node

    created = manager._node_count - count_before

    # ---- Phase 4: reclaim what the swap orphaned or left unacquired -----
    # Single release-and-reclaim walk: each kill-list entry carries one
    # deferred decrement; nodes that died are reclaimed on the spot.
    if dead_candidates:
        swept += manager._kill_many(dead_candidates)
    # Then the floats: built nodes nothing acquired (the (x, z) legs of a
    # (y, x) node that reduced) and movable y-children that nothing moved
    # or revived.
    floats = [nd for nd in made if fl[nd]]
    floats.extend(nd for nd in movable if fl[nd])
    if floats:
        swept += sweep_many(floats)

    if stats:
        stats.nodes_rewritten += len(b_plans) + len(a_plans)
        stats.nodes_created += created
        stats.nodes_swept += swept
        stats.swaps += 1


def reorder_to(manager, target_order: Sequence, stats: Optional[SwapStats] = None) -> None:
    """Reorder to ``target_order`` (names or indices) via adjacent swaps."""
    target = [manager.var_index(v) for v in target_order]
    if sorted(target) != sorted(range(manager.num_vars)):
        raise OrderError("target order must be a permutation of all variables")
    # Selection-sort with adjacent transpositions: O(n^2) swaps worst case.
    with manager._level_index():
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
    # With the CVO swap the driver rewinds excursions to store
    # checkpoints instead of retracing them.  Another swap_fn (the
    # baseline package's level swap) retraces: rewinds would change the
    # number of swaps that the Table I baseline makes and reports.
    rewind = swap_fn is swap_adjacent
    stats = SwapStats()
    t0 = time.perf_counter()
    initial = manager.size()
    n = manager.num_vars
    rounds = 0

    def budget_left() -> bool:
        return max_swaps is None or stats.swaps < max_swaps

    # The level sets are built once here, after the collection above, and
    # every swap and rewind below reuses them.
    with manager._level_index():
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
                if rewind:
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

