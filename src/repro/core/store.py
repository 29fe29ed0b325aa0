"""The flat node store both expansions share.

Nodes are **dense positive ints** indexing parallel columns (the
tulip-control/dd idiom): slot ``i`` of ``_pv``/``_sv``/``_neq``/``_eq``/
``_ref``/``_supp``/``_float`` holds row ``i``.  An edge is one signed
int whose sign is the complement attribute, so ``NOT`` is unary minus.
Slot 0 is never allocated (every edge has an observable sign) and slot 1
is the immortal sink: edge ``+1`` is True, ``-1`` is False.

Every row is keyed ``(pv, sv, neq, eq)`` in the unique table, and its
``eq``-edge is always regular.  A row with ``sv == SV_ONE`` tests ``pv``
alone: its ``eq``-edge is taken where ``pv`` is 1 and its ``neq``-edge
where ``pv`` is 0.  That is the shape of a BBDD literal
``(v, SV_ONE, -1, 1)`` and of every node of a Shannon BDD alike, so one
store keeps the nodes of both managers.  A backend subclass adds only
its expansion: how it builds rows (``_make``), applies operators and
swaps levels (:class:`repro.core.manager.BBDDManager`,
:class:`repro.bdd.manager.BDDManager`).

What :class:`NodeStore` provides:

* reference counts that **cascade**: a live row holds one count on each
  child and a dead row none, so the dead set is exact at all times.  A
  fresh row is born *floating* (count zero, float flag set, holding its
  birth counts on the children);
* garbage collection from the dead set, with swept slots pooled on a
  free list, run automatically (dd/CUDD style) when the dead/total ratio
  crosses ``gc_threshold`` — but only at safe points, never while an
  operation holds bare edges (:meth:`NodeStore.defer_gc`);
* the two tables of the paper's package as plain dicts: the unique
  table ``_uniq_raw`` (row key -> slot, the strong canonical form of
  Sec. IV-A1) and the computed table ``_cache`` of Algorithm 1
  (Sec. IV-A2/3).  Apply keys are ``(f, g, op)`` on attribute-free
  slots; the derived operations prefix a tag int >= 16, so the key
  families never collide.  Hot loops probe them through bound
  ``get``/``__setitem__`` and settle four int counters on the store,
  which ``table_stats`` and ``collect_metrics`` report.  The
  ``"disabled"`` computed backend (an ablation) is a dict that keeps
  nothing, so no engine branches on it;
* the compiled query form (:class:`~repro.api.base.Columns`) of the
  last root a batch query or count compiled, kept beside the computed
  table (:meth:`NodeStore.compiled_root`).  It references slots just
  like the cached results, so every clear of the computed table drops
  it too; it is not kept under ``"disabled"``;
* the level index (per-variable row sets, only inside
  :meth:`NodeStore._level_index`) and whole-store checkpoints for the
  sifting driver;
* the signed-int edge hooks of :class:`repro.api.base.DDManager`,
  interned read-only row views, variables;
* the queries that only read rows: ``freeze_export``, ``count_nodes``,
  ``evaluate_edge``, ``sat_one_edge``, ``support_edge``, ``root_var``,
  statistics and metrics;
* the store half of ``check_invariants`` and the exact
  ``check_ref_counts``.

Code that holds bare edges across several manager operations must either
reference them (:meth:`NodeStore.inc_ref`) or suspend collection with
:meth:`NodeStore.defer_gc` for the duration.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.api.base import Columns, DDManager
from repro.core.exceptions import BBDDError, VariableError
from repro.core.node import SINK, SINK_VAR, SV_ONE, BBDDNode, Edge
from repro.core.operations import OP_AND, OP_OR, OP_XOR, op_from_name
from repro.core.order import ChainVariableOrder


class _NoMemo(dict):
    """The ``"disabled"`` computed table (ablation runs): keeps nothing."""

    __slots__ = ()

    def __setitem__(self, key, value) -> None:
        pass


def _copy_levels(sets: Optional[Dict[int, set]]) -> Optional[Dict[int, set]]:
    """A deep copy of one level-set map (``None`` when none is held)."""
    if sets is None:
        return None
    return {v: set(s) for v, s in sets.items()}


class _GCDeferral:
    """Context manager suspending automatic GC (re-entrant).

    Entering bumps the manager's in-operation counter, which inhibits
    :meth:`NodeStore._maybe_gc`.  Leaving deliberately does **not**
    collect: code commonly returns bare (unreferenced) edges produced
    inside the block, and ``__exit__`` runs before the caller can
    reference them — an exit-time sweep would reclaim the very results
    the deferral protected.  An armed collection simply happens at the
    next organic safe point (end of an apply/derived op, or an explicit
    ``dec_ref``), where the fresh result is protected.
    """

    __slots__ = ("_manager",)

    def __init__(self, manager: "NodeStore") -> None:
        self._manager = manager

    def __enter__(self) -> "NodeStore":
        self._manager._in_op += 1
        return self._manager

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._manager._in_op -= 1
        return False


class _LevelIndex:
    """Context manager holding the per-variable node sets (re-entrant).

    Only reordering has to find the nodes of one variable, so a manager
    keeps no such sets outside this context.  The outermost entry builds
    them in one pass over the unique table (``_index_levels``); the
    matching exit, exceptions included, drops whatever sets the manager
    then holds (``_drop_levels``) — a ``_restore`` inside may have
    replaced the ones built on entry.
    """

    __slots__ = ("_manager",)

    def __init__(self, manager) -> None:
        self._manager = manager

    def __enter__(self):
        manager = self._manager
        if not manager._level_depth:
            manager._index_levels()
        manager._level_depth += 1
        return manager

    def __exit__(self, exc_type, exc, tb) -> bool:
        manager = self._manager
        manager._level_depth -= 1
        if not manager._level_depth:
            manager._drop_levels()
        return False


class NodeStore(DDManager):
    """The node store and memory manager of a table-backed backend.

    Parameters
    ----------
    variables:
        Either the number of variables or a sequence of distinct names.
    computed_backend:
        ``"dict"`` (default) or ``"disabled"`` for ablation runs.
    auto_gc:
        Enable automatic garbage collection (default).  When enabled, a
        collection runs at the next safe point after the dead/total node
        ratio exceeds ``gc_threshold`` (and at least ``gc_min_nodes``
        nodes are stored).
    gc_threshold:
        Dead/total ratio that arms the automatic collector.
    gc_min_nodes:
        Minimum stored-node count before automatic GC considers running
        (keeps small working sets collection-free).

    A subclass provides its expansion — ``_make``, ``literal_edge``,
    ``apply_edges`` and the derived operations, ``make_row``, ``sift``
    — plus two hooks: ``_scan_levels`` (which rows the level index
    holds) and ``_check_row`` (the row rules of its canonical form).
    """

    def __init__(
        self,
        variables: Union[int, Sequence[str]],
        computed_backend: str = "dict",
        auto_gc: bool = True,
        gc_threshold: float = 0.5,
        gc_min_nodes: int = 1024,
    ) -> None:
        if isinstance(variables, int):
            names = [f"x{i}" for i in range(variables)]
        else:
            names = list(variables)
        if len(set(names)) != len(names):
            raise VariableError("variable names must be distinct")
        self._names: List[str] = names
        self._index: Dict[str, int] = {n: i for i, n in enumerate(names)}
        self._order = ChainVariableOrder(range(len(names)))

        # The flat store: slot 0 is a never-allocated dummy (so edges
        # always have an observable sign), slot 1 the immortal sink.
        self._pv: List[int] = [0, SINK_VAR]
        self._sv: List[int] = [0, SV_ONE]
        self._neq: List[int] = [0, 0]
        self._eq: List[int] = [0, 0]
        self._ref: List[int] = [0, 1]
        self._supp: List[int] = [0, 0]
        self._float = bytearray((0, 0))
        #: Swept slot indices available for recycling by ``_make``.
        self._free_nodes: List[int] = []
        #: Interned read-only views (index -> BBDDNode), popped on sweep.
        self._views: Dict[int, BBDDNode] = {}

        if computed_backend not in ("dict", "disabled"):
            raise ValueError(f"unknown computed-table backend: {computed_backend!r}")
        #: Per-variable support bits (avoids big-int shifts per node).
        self._var_bits: List[int] = [1 << i for i in range(len(names))]
        #: The unique table: row key ``(pv, sv, neq, eq)`` -> slot.
        self._uniq_raw: dict = {}
        #: The computed table, and the compiled root kept beside it.
        self._computed_backend = computed_backend
        self._cache: dict = {} if computed_backend == "dict" else _NoMemo()
        self._compiled: tuple = (None, None)
        #: Probes of both tables, counted by the hot loops themselves.
        self._unique_lookups = 0
        self._unique_hits = 0
        self._computed_lookups = 0
        self._computed_hits = 0
        #: Rows per primary / secondary variable, held only inside
        #: :meth:`_level_index` (reordering); ``None`` everywhere else.
        #: A backend whose rows have no secondary variable holds no
        #: ``_by_sv`` at all.
        self._by_pv: Optional[Dict[int, set]] = None
        self._by_sv: Optional[Dict[int, set]] = None
        self._level_depth = 0
        self._node_count = 0
        self.peak_nodes = 0
        self.gc_count = 0
        self.auto_gc_runs = 0
        self.apply_calls = 0
        self.gc_reclaimed = 0

        self.auto_gc = auto_gc
        self.gc_threshold = gc_threshold
        self.gc_min_nodes = gc_min_nodes
        #: The stored nodes with a zero reference count, maintained
        #: incrementally by the ref/deref/make/sweep hooks; GC sweeps this
        #: set directly instead of scanning the unique table.
        self._dead_set: set = set()
        #: Depth of in-flight operations; automatic GC only runs at zero.
        self._in_op = 0
        self._bind_hot()

        from repro import obs  # late: repro.__init__ imports core first

        self._trace_state = obs.trace.STATE
        obs.track(self)

    # ------------------------------------------------------------------
    # identifiers, variables, order
    # ------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self._names)

    @property
    def var_names(self) -> tuple:
        return tuple(self._names)

    def var_name(self, index: int) -> str:
        return self._names[index]

    def new_var(self, name: Optional[str] = None) -> int:
        """Append a fresh variable at the bottom of the order."""
        index = len(self._names)
        if name is None:
            name = f"x{index}"
        if name in self._index:
            raise VariableError(f"variable {name!r} already exists")
        self._names.append(name)
        self._index[name] = index
        self._var_bits.append(1 << index)
        if self._by_pv is not None:
            self._by_pv[index] = set()
        if self._by_sv is not None:
            self._by_sv[index] = set()
        self._order.append(index)
        return index

    @property
    def order(self) -> ChainVariableOrder:
        return self._order

    def current_order(self) -> tuple:
        """Current variable order as a tuple of names (root to bottom)."""
        return tuple(self._names[v] for v in self._order.order)

    # ------------------------------------------------------------------
    # row views and field access
    # ------------------------------------------------------------------

    @property
    def sink(self) -> BBDDNode:
        """Read-only view of the sink node (debug/render surface)."""
        return self.node_view(SINK)

    def node_view(self, index: int) -> BBDDNode:
        """The interned read-only view of row ``index``.

        Repeated calls return the same object, so identity checks on
        ``Function.node`` handles keep working across operations (slots
        are index-stable until swept; sweeping drops the view).
        """
        views = self._views
        view = views.get(index)
        if view is None:
            view = views[index] = BBDDNode(self, index)
        return view

    def node_fields(self, index: int):
        """``(pv, sv, neq_edge, eq_edge)`` of one slot: its unique-table key."""
        return (
            self._pv[index],
            self._sv[index],
            self._neq[index],
            self._eq[index],
        )

    def _bind_hot(self) -> None:
        """(Re)bind the allocation hot-path tuple.

        ``_make`` runs hundreds of thousands of times per sift; one
        attribute load plus a tuple unpack replaces ~15 separate
        ``self._X`` loads per call.  The referenced containers are only
        ever mutated in place — rebinding happens solely here (from
        ``__init__``, ``_restore`` and the level index's entry and exit).
        """
        self._hot = (
            self._pv,
            self._sv,
            self._neq,
            self._eq,
            self._ref,
            self._float,
            self._supp,
            self._var_bits,
            self._uniq_raw,
            self._free_nodes,
            self._dead_set,
            self._by_pv,
            self._by_sv,
        )

    # ------------------------------------------------------------------
    # signed-int edge protocol (repro.api hooks)
    # ------------------------------------------------------------------

    def edge_node(self, edge: Edge) -> BBDDNode:
        return self.node_view(-edge if edge < 0 else edge)

    def edge_attr(self, edge: Edge) -> bool:
        return edge < 0

    def node_edge(self, node) -> Edge:
        """Regular edge onto ``node`` (an index or a view)."""
        return node if isinstance(node, int) else node.index

    def negate_edge(self, edge: Edge) -> Edge:
        return -edge

    @staticmethod
    def not_edge(f: Edge) -> Edge:
        return -f

    def edge_is_sink(self, edge: Edge) -> bool:
        return edge == 1 or edge == -1

    def edge_is_false(self, edge: Edge) -> bool:
        return edge == -1

    def edge_uid(self, edge: Edge) -> Edge:
        return edge

    def acquire_edge(self, edge: Edge) -> None:
        self._ref_index(-edge if edge < 0 else edge)

    def release_edge(self, edge: Edge) -> None:
        self._deref_index(-edge if edge < 0 else edge)

    @property
    def true_edge(self) -> Edge:
        return 1

    @property
    def false_edge(self) -> Edge:
        return -1

    # Conveniences over the backend's ``apply_edges``.

    def apply_named(self, f: Edge, g: Edge, name: str) -> Edge:
        return self.apply_edges(f, g, op_from_name(name))

    def and_edges(self, f: Edge, g: Edge) -> Edge:
        return self.apply_edges(f, g, OP_AND)

    def or_edges(self, f: Edge, g: Edge) -> Edge:
        return self.apply_edges(f, g, OP_OR)

    def xor_edges(self, f: Edge, g: Edge) -> Edge:
        return self.apply_edges(f, g, OP_XOR)

    # ------------------------------------------------------------------
    # queries over rows
    # ------------------------------------------------------------------

    def evaluate_edge(self, edge: Edge, values: Dict[int, bool]) -> bool:
        from repro.core import traversal as _trav

        return _trav.evaluate(self, edge, values)

    def freeze_export(self, named) -> Columns:
        """The compiled query form of a named forest (one column block).

        One :func:`~repro.core.traversal.levelize` over *all* roots
        gives the parents-first slot order directly (children live at
        strictly deeper levels), so shared nodes get one slot however
        many roots reference them.
        """
        from repro.core import traversal as _trav

        edges = [edge for _name, edge in named if edge != 1 and edge != -1]
        ordered = [
            node
            for _pos, nodes in reversed(_trav.levelize(self, edges))
            for node in nodes
        ]
        slots = dict(zip(ordered, range(2, len(ordered) + 2)))
        slots[SINK] = 1
        pv = [0, 0]
        sv = [-1, -1]
        t = [0, 0]
        f = [0, 0]
        pvl, svl, neql, eql = self._pv, self._sv, self._neq, self._eq
        for node in ordered:
            d = neql[node]
            neq_ref = slots[d] if d > 0 else -slots[-d]
            eq_ref = slots[eql[node]]
            s = svl[node]
            pv.append(pvl[node])
            # SV_ONE is -1, the column code of a single-variable test.
            sv.append(s)
            if s == SV_ONE:
                # Single-variable row: the test is the variable itself,
                # so the always-regular ``=``-edge (pv == 1) is the
                # t-branch and the ``!=``-edge the f-branch.
                t.append(eq_ref)
                f.append(neq_ref)
                continue
            t.append(neq_ref)
            f.append(eq_ref)
        roots = {name: slots[e] if e > 0 else -slots[-e] for name, e in named}
        return Columns(self.order.order, roots, [(0, pv, sv, t, f)], pv)

    def compiled_root(self, edge: Edge) -> Columns:
        """:meth:`freeze_export` of one root, kept beside the computed table.

        One entry: a miss replaces whatever was kept before.  Every
        table clear (GC, variable swaps, checkpoint rewinds) drops it
        with the cached results.  The variable count is part of the
        key: :meth:`new_var` changes every count without clearing
        anything.
        """
        key = (edge, len(self._names))
        kept_key, columns = self._compiled
        if columns is None or kept_key != key:
            columns = self.freeze_export([("f", edge)])
            if self._computed_backend == "dict":
                self._compiled = (key, columns)
        return columns

    def sat_one_edge(self, edge: Edge) -> Optional[Dict[int, bool]]:
        """One satisfying assignment ``{var index: bit}``, or None.

        Constraints resolve bottom-up against the couple partner actually
        on the witness path (*not* the global order's partner — under the
        support-chained CVO a node's SV is its function's next *support*
        variable, which may skip order positions).  A partner the path
        never pins absolutely is a free variable and defaults to False.
        A single-variable row pins its variable directly.
        """
        from repro.core import traversal as _trav

        path = _trav.find_sat_path(self, edge, want=True)
        if path is None:
            return None
        values: Dict[int, bool] = {}
        # ``path`` is root-to-sink; resolve deepest-first so each couple's
        # partner is already fixed (or known free) when it is needed.
        for pv, sv, rel in reversed(path):
            if rel == "0" or rel == "1":
                values[pv] = rel == "1"
            else:
                if sv not in values:
                    values[sv] = False
                values[pv] = (not values[sv]) if rel == "!=" else values[sv]
        return values

    def support_edge(self, edge: Edge) -> frozenset:
        """Variables ``f`` truly depends on (as indices).

        Every row carries an exact support mask: a Shannon row's
        variable is essential under reduction, and the couples of the
        support-chained form pair consecutive support variables, so no
        cancellation survives.  The mask is read off the root.
        """
        mask = self._supp[-edge if edge < 0 else edge]
        return frozenset(var for var in range(mask.bit_length()) if mask >> var & 1)

    def root_var(self, edge: Edge) -> int:
        """The first support variable (in order) of ``edge``'s function.

        The root row's primary variable.
        """
        return self._pv[-edge if edge < 0 else edge]

    def count_nodes(self, edges: Iterable[Edge]) -> int:
        from repro.core import traversal as _trav

        return _trav.count_nodes(self, edges)

    # ------------------------------------------------------------------
    # memory management (Sec. IV-A3)
    # ------------------------------------------------------------------
    #
    # Reference counts are *cascading*: a live node holds one count on
    # each child, a dead node holds none.  ``_ref_index`` therefore
    # revives a dead subgraph (re-acquiring child counts) and
    # ``_deref_index`` releases one (dropping them), keeping ``_dead``
    # exact without any scan.

    def size(self) -> int:
        """Number of rows currently stored (sink excluded)."""
        return self._node_count

    def dead_count(self) -> int:
        """Number of stored nodes with zero references — O(1)."""
        return len(self._dead_set)

    def _scan_dead(self) -> int:
        """O(n) recount of dead nodes (invariant checking / debugging)."""
        refl = self._ref
        return sum(1 for n in self._uniq_raw.values() if refl[n] == 0)

    def _ref_index(self, node: int) -> None:
        """Acquire one reference on a node index.

        A floating node (fresh, still holding its birth counts on the
        children) resolves in O(1); a node that once died released its
        child counts, so reviving it re-acquires the subgraph (cascade).
        """
        refl = self._ref
        r = refl[node]
        if r < 0:
            raise BBDDError(f"use after sweep: node {node}")
        if r == 0 and node != SINK:
            fl = self._float
            neql = self._neq
            eql = self._eq
            discard = self._dead_set.discard
            discard(node)
            refl[node] = 1
            if fl[node]:
                fl[node] = 0
                return
            d = neql[node]
            stack = [-d if d < 0 else d, eql[node]]
            while stack:
                n = stack.pop()
                if refl[n] == 0 and n != SINK:
                    discard(n)
                    refl[n] = 1
                    if fl[n]:
                        fl[n] = 0
                    else:
                        d = neql[n]
                        stack.append(-d if d < 0 else d)
                        stack.append(eql[n])
                else:
                    refl[n] += 1
        else:
            refl[node] = r + 1

    def _deref_index(self, node: int) -> None:
        """Release one reference; a dying node releases its children."""
        refl = self._ref
        r = refl[node] - 1
        refl[node] = r
        if r == 0 and node != SINK:
            add = self._dead_set.add
            neql = self._neq
            eql = self._eq
            add(node)
            d = neql[node]
            stack = [-d if d < 0 else d, eql[node]]
            while stack:
                n = stack.pop()
                r = refl[n] - 1
                refl[n] = r
                if r == 0 and n != SINK:
                    add(n)
                    d = neql[n]
                    stack.append(-d if d < 0 else d)
                    stack.append(eql[n])

    def inc_ref(self, edge: Edge) -> None:
        self._ref_index(-edge if edge < 0 else edge)

    def dec_ref(self, edge: Edge) -> None:
        self._deref_index(-edge if edge < 0 else edge)
        self._maybe_gc()

    def acquire_ref(self, node) -> None:
        """Function-handle hook: acquire one reference on ``node``."""
        self._ref_index(node if isinstance(node, int) else node.index)

    def release_ref(self, node) -> None:
        """Function-handle hook: drop one reference (mark-only).

        Deliberately does **not** run the collector: handle releases can
        fire at arbitrary points via Python's cyclic collector (e.g.
        while a fresh, still-unreferenced result edge is being wrapped),
        so ``__del__`` only accounts the garbage; the armed collection
        runs at the next operation boundary, where results are protected.
        """
        self._deref_index(node if isinstance(node, int) else node.index)

    def defer_gc(self) -> _GCDeferral:
        """Suspend automatic GC for a block holding bare edges.

        Re-entrant.  An armed collection does not run on exit (the block
        may return bare edges); it happens at the next operation
        boundary instead.  Use around any code that keeps unreferenced
        signed-int edges live across several manager operations.
        """
        return _GCDeferral(self)

    def _gc_armed(self) -> bool:
        return (
            self._node_count >= self.gc_min_nodes
            and len(self._dead_set) >= self._node_count * self.gc_threshold
        )

    def _maybe_gc(self) -> int:
        """Run GC if automatic collection is armed and we are at a safe point."""
        if not self.auto_gc or self._in_op or not self._gc_armed():
            return 0
        self.auto_gc_runs += 1
        return self.gc()

    def _maybe_gc_protect(self, edge: Edge) -> None:
        """Auto-GC check that keeps ``edge`` (a fresh result) alive."""
        if not self.auto_gc or self._in_op or not self._gc_armed():
            return
        node = -edge if edge < 0 else edge
        self._ref_index(node)
        try:
            self.auto_gc_runs += 1
            self.gc()
        finally:
            # Drop the protection without a death cascade: the node still
            # holds its child counts, i.e. it goes back to floating.
            refl = self._ref
            refl[node] -= 1
            if refl[node] == 0 and node != SINK:
                self._float[node] = 1
                self._dead_set.add(node)

    def _level_index(self) -> _LevelIndex:
        """Hold the per-variable node sets for a block (re-entrant).

        Reordering is the only reader of :meth:`nodes_with_pv` and
        :meth:`nodes_with_sv`; the sifting driver, ``reorder_to`` and the
        adjacent swaps run inside this context, so a sift builds the
        sets once.  Outside it the store keeps none, and allocation and
        reclamation skip them.
        """
        return _LevelIndex(self)

    def _scan_levels(self):
        """``(by_pv, by_sv)`` from one pass over the unique table.

        Which rows a backend indexes is part of its expansion: see the
        subclasses.
        """
        raise NotImplementedError

    def _index_levels(self) -> None:
        self._by_pv, self._by_sv = self._scan_levels()
        self._bind_hot()

    def _drop_levels(self) -> None:
        self._by_pv = None
        self._by_sv = None
        self._bind_hot()

    def nodes_with_pv(self, var: int) -> set:
        """Indexed row indices whose primary variable is ``var`` (live or dead).

        Only inside :meth:`_level_index`: reordering builds the level
        sets when it starts and drops them when it ends, so the store
        pays for them only while it reorders.  Raises
        :class:`BBDDError` elsewhere.
        """
        if self._by_pv is None:
            raise BBDDError("level sets exist only inside _level_index()")
        return self._by_pv[var]

    def nodes_with_sv(self, var: int) -> set:
        """Indexed row indices whose secondary variable is ``var``.

        Only inside :meth:`_level_index`, as :meth:`nodes_with_pv`, and
        only on a backend that indexes secondary variables.
        """
        if self._by_sv is None:
            raise BBDDError("level sets exist only inside _level_index()")
        return self._by_sv[var]

    def _checkpoint(self):
        """Snapshot the complete node-store state (O(stored nodes)).

        Everything a level swap mutates is captured: the parallel field
        arrays, the unique table, the level sets, the free list, the dead
        set and the variable order.  The level sets exist only inside
        :meth:`_level_index`, where the sifting driver takes and restores
        its snapshots; outside it the snapshot holds ``None`` for them.
        Monotone counters (peak, gc/apply/probe statistics) and the
        computed table (cleared on every swap anyway) are deliberately
        left out.
        Used by the sifting driver to rewind excursions instead of
        retracing them swap by swap; a state may be restored more than
        once.
        """
        return (
            self._pv[:],
            self._sv[:],
            self._neq[:],
            self._eq[:],
            self._ref[:],
            self._supp[:],
            bytes(self._float),
            dict(self._uniq_raw),
            _copy_levels(self._by_pv),
            _copy_levels(self._by_sv),
            list(self._free_nodes),
            set(self._dead_set),
            self._node_count,
            self._order.order,
        )

    def _restore(self, state) -> None:
        """Rewind the node store to a :meth:`_checkpoint` snapshot."""
        (pv, sv, neq, eq, ref, supp, float_, raw, by_pv, by_sv,
         free, dead, node_count, order) = state
        self._pv = list(pv)
        self._sv = list(sv)
        self._neq = list(neq)
        self._eq = list(eq)
        self._ref = list(ref)
        self._supp = list(supp)
        self._float = bytearray(float_)
        self._uniq_raw = dict(raw)
        self._by_pv = _copy_levels(by_pv)
        self._by_sv = _copy_levels(by_sv)
        self._free_nodes = list(free)
        self._dead_set = set(dead)
        self._node_count = node_count
        self._order.set_order(order)
        self._bind_hot()
        # Cached results and interned views may reference slots that only
        # exist on the abandoned timeline.
        self.clear_cache()
        self._views.clear()

    def gc(self) -> int:
        """Sweep dead nodes and clear the computed table.

        Returns the number of reclaimed nodes.  Dead nodes hold no child
        references and are tracked in an explicit set (cascading counts),
        so the sweep touches only the garbage — no unique-table scan.
        Swept slots are pooled for reuse by ``_make`` (array slots cannot
        be returned to the interpreter individually, so the free list is
        what keeps the arrays dense).  The computed table must be cleared
        because its entries hold bare indices that are only valid while
        the pointed nodes stay canonical residents of the unique table.
        """
        self.clear_cache()
        dead = self._dead_set
        raw = self._uniq_raw
        pvl = self._pv
        svl = self._sv
        neql = self._neq
        eql = self._eq
        refl = self._ref
        fl = self._float
        pool = self._free_nodes.append
        views = self._views
        by_pv = self._by_pv
        by_sv = self._by_sv
        reclaimed = 0
        while dead:
            node = dead.pop()
            refl[node] = -1  # tombstone: catches use-after-sweep
            reclaimed += 1
            pool(node)
            views.pop(node, None)
            pv = pvl[node]
            sv = svl[node]
            d = neql[node]
            e = eql[node]
            del raw[(pv, sv, d, e)]
            if by_pv is not None:
                by_pv[pv].discard(node)
                if sv != SV_ONE:
                    by_sv[sv].discard(node)
            if fl[node]:
                # Unacquired garbage still holds its birth counts on the
                # children — release them; newly dead children join the
                # set and are reclaimed by this same loop.
                fl[node] = 0
                self._deref_index(-d if d < 0 else d)
                self._deref_index(e)
        self._node_count -= reclaimed
        self.gc_count += 1
        self.gc_reclaimed += reclaimed
        return reclaimed

    def _sweep_many(self, nodes) -> int:
        """Reclaim the dead subgraphs rooted at each of ``nodes``.

        Child references were already dropped when the nodes died (a
        float's birth counts are released here), so this only removes
        the dead nodes from the tables, cascading into dead children.
        The BBDD CVO swap reclaims its levels' garbage and its leftover
        floats this way; entries an earlier cascade already reclaimed are
        skipped.
        """
        pvl = self._pv
        svl = self._sv
        neql = self._neq
        eql = self._eq
        refl = self._ref
        fl = self._float
        raw = self._uniq_raw
        pool = self._free_nodes.append
        views_pop = self._views.pop
        dead_discard = self._dead_set.discard
        by_pv = self._by_pv
        by_sv = self._by_sv
        deref = self._deref_index
        reclaimed = 0
        stack = list(nodes)
        while stack:
            n = stack.pop()
            if n == SINK or refl[n] != 0:
                continue
            refl[n] = -1  # tombstone: prevents double sweep
            dead_discard(n)
            pool(n)
            views_pop(n, None)
            pv = pvl[n]
            sv = svl[n]
            d = neql[n]
            e = eql[n]
            del raw[(pv, sv, d, e)]
            if by_pv is not None:
                by_pv[pv].discard(n)
                if sv != SV_ONE:
                    by_sv[sv].discard(n)
            dn = -d if d < 0 else d
            if fl[n]:
                # Unacquired garbage: release the birth counts first.
                fl[n] = 0
                deref(dn)
                deref(e)
            stack.append(dn)
            stack.append(e)
            reclaimed += 1
        self._node_count -= reclaimed
        return reclaimed

    def _kill_many(self, nodes) -> int:
        """Release-and-reclaim once-live subgraphs in one walk.

        Reordering-phase fast path: each entry carries one *deferred*
        final release (the caller saw its count at 1 and did not
        decrement).  The walk applies the decrement and, when a node
        dies, reclaims its slot immediately and defers one release to
        each child — fusing the :meth:`_deref_index` cascade and the
        :meth:`_sweep_many` reclamation into a single pass with no
        dead-set traffic.  Only valid while collection is deferred and
        every entry is a once-live node (``ref >= 1``, float flag
        clear): nodes re-acquired between the deferral and this walk
        simply survive with the extra count.
        """
        pvl = self._pv
        svl = self._sv
        neql = self._neq
        eql = self._eq
        refl = self._ref
        raw = self._uniq_raw
        pool = self._free_nodes.append
        views_pop = self._views.pop
        by_pv = self._by_pv
        by_sv = self._by_sv
        reclaimed = 0
        stack = list(nodes)
        while stack:
            n = stack.pop()
            r = refl[n] - 1
            if r > 0 or n == SINK:
                refl[n] = r
                continue
            refl[n] = -1  # tombstone: the slot is gone
            pool(n)
            views_pop(n, None)
            pv = pvl[n]
            sv = svl[n]
            d = neql[n]
            e = eql[n]
            del raw[(pv, sv, d, e)]
            if by_pv is not None:
                by_pv[pv].discard(n)
                if sv != SV_ONE:
                    by_sv[sv].discard(n)
            stack.append(-d if d < 0 else d)
            stack.append(e)
            reclaimed += 1
        self._node_count -= reclaimed
        return reclaimed

    def clear_cache(self) -> None:
        """Empty the computed table and drop the compiled root."""
        self._cache.clear()
        self._compiled = (None, None)

    def table_stats(self) -> dict:
        return {
            "unique": {
                "backend": "dict",
                "entries": len(self._uniq_raw),
                "lookups": self._unique_lookups,
                "hits": self._unique_hits,
            },
            "computed": {
                "backend": self._computed_backend,
                "entries": len(self._cache),
                "lookups": self._computed_lookups,
                "hits": self._computed_hits,
            },
            "nodes": self._node_count,
            "peak_nodes": self.peak_nodes,
            "dead": len(self._dead_set),
            "apply_calls": self.apply_calls,
            "gc_runs": self.gc_count,
            "gc_reclaimed": self.gc_reclaimed,
            "auto_gc_runs": self.auto_gc_runs,
            "auto_gc": self.auto_gc,
            "gc_threshold": self.gc_threshold,
            "gc_min_nodes": self.gc_min_nodes,
        }

    def collect_metrics(self, registry) -> None:
        """Sample this manager's counters into an obs registry.

        Pull-based observability hook (see :mod:`repro.obs`): the hot
        paths keep their native counters and this maps them onto the
        catalogued metric families, labeled with the backend name.
        """
        from repro.obs.catalog import family

        label = {"backend": self.backend}
        family(registry, "repro_manager_unique_lookups_total").labels(
            **label
        ).inc(self._unique_lookups)
        family(registry, "repro_manager_unique_hits_total").labels(
            **label
        ).inc(self._unique_hits)
        family(registry, "repro_manager_computed_lookups_total").labels(
            **label
        ).inc(self._computed_lookups)
        family(registry, "repro_manager_computed_hits_total").labels(
            **label
        ).inc(self._computed_hits)
        family(registry, "repro_manager_apply_total").labels(**label).inc(
            self.apply_calls
        )
        family(registry, "repro_manager_gc_runs_total").labels(**label).inc(
            self.gc_count
        )
        family(registry, "repro_manager_gc_reclaimed_total").labels(
            **label
        ).inc(self.gc_reclaimed)
        family(registry, "repro_manager_nodes").labels(**label).inc(
            self._node_count
        )
        family(registry, "repro_manager_peak_nodes").labels(**label).inc(
            self.peak_nodes
        )
        family(registry, "repro_manager_dead_nodes").labels(**label).inc(
            len(self._dead_set)
        )

    # ------------------------------------------------------------------
    # debugging
    # ------------------------------------------------------------------

    def _check_row(self, node: int) -> None:
        """Raise :class:`InvariantViolation` if row ``node`` breaks the
        backend's canonical form (see the subclasses)."""
        raise NotImplementedError

    def check_invariants(self) -> None:
        """Validate the store and canonical-form invariants; raise on violation.

        Used by the test-suite after every structural operation.  The
        store checks: unique-table key consistency, no swept row still
        stored, no dangling child index, cascading-count consistency (a
        held row's children are live), the exactness of the incremental
        dead set, float flags only on unreferenced rows and, while
        :meth:`_level_index` holds them, the level sets (each holds
        exactly the rows the backend's ``_scan_levels`` puts there).
        Each stored row then goes through the backend's ``_check_row``.
        """
        from repro.core.exceptions import InvariantViolation

        neql = self._neq
        eql = self._eq
        refl = self._ref
        fl = self._float
        raw = self._uniq_raw
        fields = self.node_fields
        for key, node in list(raw.items()):
            if fields(node) != key:
                raise InvariantViolation(
                    f"key {key} does not map back to node {node}"
                )
            if refl[node] < 0:
                raise InvariantViolation(f"swept node still in table: {node}")
            d = neql[node]
            for child in (-d if d < 0 else d, eql[node]):
                if child == SINK:
                    continue
                if refl[child] < 0 or raw.get(fields(child)) != child:
                    raise InvariantViolation(
                        f"dangling child index: {node} -> {child}"
                    )
                if (refl[node] > 0 or fl[node]) and refl[child] <= 0:
                    raise InvariantViolation(
                        f"held node with dead child: {self.node_view(node)!r} "
                        f"-> {self.node_view(child)!r}"
                    )
            self._check_row(node)
        scanned_dead = self._scan_dead()
        if scanned_dead != len(self._dead_set):
            raise InvariantViolation(
                f"incremental dead count {len(self._dead_set)} != scan "
                f"{scanned_dead}"
            )
        for node in self._dead_set:
            if refl[node] != 0:
                raise InvariantViolation(f"non-dead node in dead set: {node}")
        for node in raw.values():
            if fl[node] and refl[node] != 0:
                raise InvariantViolation(
                    f"floating node with refs: {self.node_view(node)!r}"
                )
        if self._by_pv is not None:
            want_pv, want_sv = self._scan_levels()
            for label, held, want in (
                ("PV", self._by_pv, want_pv),
                ("SV", self._by_sv, want_sv),
            ):
                held = held or {}
                want = want or {}
                for var in held.keys() | want.keys():
                    have = held.get(var, set())
                    nodes = want.get(var, set())
                    if have != nodes:
                        raise InvariantViolation(
                            f"{label} set of variable {var}: stale "
                            f"{sorted(have - nodes)}, missing "
                            f"{sorted(nodes - have)}"
                        )

    def check_ref_counts(self, roots=None) -> None:
        """Validate the reference counters against a full parent scan.

        Every stored *held* row (positive count, or a floating birth
        hold) contributes one reference per child occurrence; each
        edge in ``roots`` — the caller's live function handles —
        contributes one reference to its root node.  With ``roots``
        given, the scan must reproduce every stored count exactly;
        without it the scan is a lower bound (the slack is the caller's
        handle count, unknown here).  The sink's count aggregates
        the holds of rows over constants and constant handles and is
        skipped.
        """
        from repro.core.exceptions import InvariantViolation

        refl = self._ref
        fl = self._float
        neql = self._neq
        eql = self._eq
        holds = [0] * len(refl)
        for node in self._uniq_raw.values():
            if refl[node] > 0 or fl[node]:
                d = neql[node]
                holds[-d if d < 0 else d] += 1
                holds[eql[node]] += 1
        exact = roots is not None
        if exact:
            for edge in roots:
                holds[-edge if edge < 0 else edge] += 1
        for node in self._uniq_raw.values():
            have = refl[node]
            if have < 0:
                raise InvariantViolation(f"swept node still stored: {node}")
            expected = holds[node]
            if have < expected or (exact and have != expected):
                raise InvariantViolation(
                    f"ref count mismatch on {self.node_view(node)!r}: "
                    f"stored {have}, parent scan "
                    f"{'==' if exact else '>='} {expected}"
                )
