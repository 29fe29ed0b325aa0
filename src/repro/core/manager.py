"""The BBDD manager: node construction, Boolean operations, memory management.

This module implements the manipulation core of Sec. IV of the paper on a
**flat integer-coded node store** (the tulip-control/dd idiom): nodes are
dense positive ints indexing parallel arrays (``_pv``/``_sv``/``_neq``/
``_eq``/``_ref``/``_supp``/``_float``), and an edge is one signed int
whose sign is the complement attribute — ``NOT`` is unary minus, and the
operator updates of Algorithm 1 (``updateop``) are integer arithmetic.
The sink is index 1 (edge ``+1`` = True, ``-1`` = False); index 0 is
never allocated.

* ``_make`` — get-or-create a node in strong canonical form, enforcing
  reduction rules R1 (unique table), R2 (identical children), R4 (literal
  degeneration) and the complement-attribute normalization (``=``-edges
  are always regular, i.e. stored positive);
* ``apply_edges`` — Algorithm 1: any two-operand Boolean operation over
  biconditional expansions, with terminal-case short circuits, a computed
  table keyed on packed int tuples, operator update for complement
  attributes and on-the-fly chain transformation of single-variable
  operands.  The expansion is driven by an **explicit pending-frame
  stack**, not Python recursion, so operand depth is limited by memory
  alone;
* reference-counting memory management with **cascading** counts held in
  a flat array: a node whose count drops to zero immediately releases its
  children (and a revived node re-acquires them), so the number of dead
  nodes is known exactly at all times and :meth:`BBDDManager.dead_count`
  is O(1).  Garbage collection triggers automatically (dd/CUDD style)
  when the dead/total ratio crosses a configurable threshold, but only at
  safe points — never while an operation holds intermediate edges.
  Swept slots go on a free list and are recycled by ``_make``.

All hot-path functions work on bare signed-int edges; the user-facing
wrapper lives in :mod:`repro.core.function`, and
:meth:`BBDDManager.node_view` materializes read-only
:class:`~repro.core.node.BBDDNode` views (interned per index) for
rendering and debugging.  Code that holds bare edges across several
manager operations must either reference them
(:meth:`BBDDManager.inc_ref`) or suspend collection with
:meth:`BBDDManager.defer_gc` for the duration.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.api.base import Columns, DDManager
from repro.core.computed_table import make_computed_table
from repro.core.exceptions import BBDDError, VariableError
from repro.core.node import SINK, SINK_VAR, SV_ONE, BBDDNode, Edge
from repro.core.operations import (
    OP_AND,
    OP_OR,
    OP_XOR,
    UNARY_FALSE,
    UNARY_ID,
    UNARY_NOT,
    UNARY_TRUE,
    diagonal,
    flip_a,
    flip_b,
    op_from_name,
    restrict_a,
    restrict_b,
)
from repro.core.order import ChainVariableOrder
from repro.core.unique_table import UniqueTable

#: Pending-frame tags of the iterative apply engine.
_CALL = 0
_COMBINE = 1
_UNWIND = 2

# Terminal-case outcome tables, precomputed per 4-bit operator so the hot
# loop replaces the ``restrict_a``/``diagonal`` + ``_UNARY`` dict chain
# with one tuple index.  Outcomes are coded so complementing the operator
# (output-polarity normalization) is ``outcome ^ 1``.
_U_FALSE, _U_TRUE, _U_ID, _U_NOT = 0, 1, 2, 3
_OUTCOME_CODE = {UNARY_FALSE: _U_FALSE, UNARY_TRUE: _U_TRUE, UNARY_ID: _U_ID, UNARY_NOT: _U_NOT}
_RA1 = tuple(_OUTCOME_CODE[restrict_a(op, 1)] for op in range(16))
_RB1 = tuple(_OUTCOME_CODE[restrict_b(op, 1)] for op in range(16))
_RA0 = tuple(_OUTCOME_CODE[restrict_a(op, 0)] for op in range(16))
_RB0 = tuple(_OUTCOME_CODE[restrict_b(op, 0)] for op in range(16))
_DIAG = tuple(_OUTCOME_CODE[diagonal(op)] for op in range(16))


def _copy_levels(sets: Optional[Dict[int, set]]) -> Optional[Dict[int, set]]:
    """A deep copy of one level-set map (``None`` when none is held)."""
    if sets is None:
        return None
    return {v: set(s) for v, s in sets.items()}


class _GCDeferral:
    """Context manager suspending automatic GC (re-entrant).

    Entering bumps the manager's in-operation counter, which inhibits
    :meth:`BBDDManager._maybe_gc`.  Leaving deliberately does **not**
    collect: code commonly returns bare (unreferenced) edges produced
    inside the block, and ``__exit__`` runs before the caller can
    reference them — an exit-time sweep would reclaim the very results
    the deferral protected.  An armed collection simply happens at the
    next organic safe point (end of an apply/derived op, or an explicit
    ``dec_ref``), where the fresh result is protected.
    """

    __slots__ = ("_manager",)

    def __init__(self, manager: "BBDDManager") -> None:
        self._manager = manager

    def __enter__(self) -> "BBDDManager":
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
    replaced the ones built on entry.  Shared by both table-backed
    managers.
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


class BBDDManager(DDManager):
    """Shared manager for a forest of BBDDs over a common variable set.

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
    """

    #: Registry name of this backend in the repro.api front end.
    backend = "bbdd"

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

        self._unique = UniqueTable()
        # Hot-path accelerators: per-variable support bits (avoids big-int
        # shifts per node) and the unique table's raw dict.
        self._var_bits: List[int] = [1 << i for i in range(len(names))]
        self._uniq_raw: dict = self._unique._table
        self._cache = make_computed_table(computed_backend)
        self._literals: Dict[int, int] = {}
        #: Chain nodes per primary / secondary variable, held only inside
        #: :meth:`_level_index` (reordering); ``None`` everywhere else.
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
    # identifiers and variables
    # ------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self._names)

    @property
    def var_names(self) -> tuple:
        return tuple(self._names)

    def var_index(self, var: Union[int, str]) -> int:
        """Normalize a variable name or index to its index."""
        if isinstance(var, str):
            try:
                return self._index[var]
            except KeyError:
                raise VariableError(f"unknown variable {var!r}") from None
        if not 0 <= var < len(self._names):
            raise VariableError(f"variable index {var} out of range")
        return var

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
            self._by_sv[index] = set()
        self._order.append(index)
        return index

    # ------------------------------------------------------------------
    # order access
    # ------------------------------------------------------------------

    @property
    def order(self) -> ChainVariableOrder:
        return self._order

    def current_order(self) -> tuple:
        """Current variable order as a tuple of names (root to bottom)."""
        return tuple(self._names[v] for v in self._order.order)

    def cvo_couples(self) -> list:
        """The CVO couples as name pairs, SV of the bottom couple is '1'."""
        out = []
        for pv, sv in self._order.couples():
            out.append((self._names[pv], "1" if sv == SV_ONE else self._names[sv]))
        return out

    # ------------------------------------------------------------------
    # node views and field access
    # ------------------------------------------------------------------

    @property
    def sink(self) -> BBDDNode:
        """Read-only view of the sink node (debug/render surface)."""
        return self.node_view(SINK)

    def node_view(self, index: int) -> BBDDNode:
        """The interned read-only view of node ``index``.

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
        """``(pv, sv, neq_edge, eq_edge)`` of one slot (io/debug helper)."""
        return (
            self._pv[index],
            self._sv[index],
            self._neq[index],
            self._eq[index],
        )

    def _node_key(self, index: int):
        """The unique-table key of a stored slot (derived, not stored)."""
        if self._sv[index] == SV_ONE:
            return (self._pv[index], SV_ONE)
        return (
            self._pv[index],
            self._sv[index],
            self._neq[index],
            self._eq[index],
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

    # ------------------------------------------------------------------
    # terminal edges and literals
    # ------------------------------------------------------------------

    @property
    def true_edge(self) -> Edge:
        return 1

    @property
    def false_edge(self) -> Edge:
        return -1

    def literal_node(self, var: int) -> int:
        """The R4 literal node index for ``var`` (created on demand).

        Like every node, a fresh literal is born dead (count zero, no
        child references); acquiring it references the sink twice.
        """
        node = self._literals.get(var)
        if node is None:
            free = self._free_nodes
            if free:
                node = free.pop()
                self._pv[node] = var
                self._sv[node] = SV_ONE
                self._neq[node] = -SINK
                self._eq[node] = SINK
                self._ref[node] = 0
                self._supp[node] = self._var_bits[var]
            else:
                node = len(self._pv)
                self._pv.append(var)
                self._sv.append(SV_ONE)
                self._neq.append(-SINK)
                self._eq.append(SINK)
                self._ref.append(0)
                self._supp.append(self._var_bits[var])
                self._float.append(0)
            self._float[node] = 1
            self._ref[SINK] += 2  # birth holds both (sink) children
            self._literals[var] = node
            self._uniq_raw[(var, SV_ONE)] = node
            self._node_count += 1
            self._dead_set.add(node)
            if self._node_count > self.peak_nodes:
                self.peak_nodes = self._node_count
        return node

    def literal_edge(self, var: Union[int, str], positive: bool = True) -> Edge:
        index = self.var_index(var)
        node = self.literal_node(index)
        return node if positive else -node

    # ------------------------------------------------------------------
    # canonical node construction (rules R1, R2, R4 + normalization)
    # ------------------------------------------------------------------

    def _shannon_view(self, edge: Edge, w: int, value: int):
        """Constant restriction ``edge|w=value`` as a comparable view.

        Only called for edges rooted at ``w``.  Returns either
        ``("const", bit)`` for a literal root or ``(t, high, low)`` for a
        chain root ``(w, t)`` — ``high``/``low`` are the edges selected at
        ``t = 1`` / ``t = 0``.  Two equal views denote equal functions
        (children are canonical), which is what the reduction test needs.
        """
        node = -edge if edge < 0 else edge
        if self._sv[node] == SV_ONE:
            return ("const", bool(value) ^ (edge < 0))
        neq = self._neq[node]
        eq = self._eq[node]
        if edge < 0:
            neq = -neq
            eq = -eq
        if value == 0:
            return (self._sv[node], neq, eq)
        return (self._sv[node], eq, neq)

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

    def _make(
        self, pv: int, sv: int, d: Edge, e: Edge, _probed: bool = False
    ) -> Edge:
        """Get-or-create the node ``(pv, sv, !=-child d, =-child e)``.

        Applies the reduction rules of Sec. III-C under the support-chained
        CVO (rule R3: a function's couples chain over its *support*, so no
        level is empty):

        * R2 — identical children collapse to the child;
        * SV-elimination — if the candidate function does not actually
          depend on ``sv`` (both children rooted at ``sv`` and
          ``d|sv=0 == e|sv=1`` and ``e|sv=0 == d|sv=1``), the couple
        re-chains past ``sv`` (iterated in place; rule R4 —
          single-variable degeneration to a literal node — is the
          terminal case of this cascade);
        * ``=``-edge regularity normalization, then unique-table
          resolution (R1 / strong canonical form).

        ``_probed`` marks a call whose normalized key was already probed
        against the unique table (and missed) by the caller — the
        reordering hot loops — so the first-iteration probe is skipped.
        """
        (
            pvl,
            svl,
            neql,
            eql,
            refl,
            fl,
            suppl,
            bits,
            raw,
            free,
            dead_set,
            by_pv,
            by_sv,
        ) = self._hot
        unique = self._unique
        attr = False
        while True:
            if d == e:
                return -e if attr else e  # R2
            if sv == SV_ONE:
                # Boundary: no further support variable; children are
                # constants and the node degenerates to the literal of pv.
                dn = -d if d < 0 else d
                en = -e if e < 0 else e
                if dn != SINK or en != SINK:
                    raise BBDDError("boundary-couple children must be constants")
                lit = self.literal_node(pv)
                return -lit if (e < 0) ^ attr else lit
            if e < 0:
                # Normalize: =-edges are stored regular; complement both
                # children and track a complemented external edge.
                attr = not attr
                d = -d
                e = -e
            # Resolve against the unique table *before* the reduction
            # cascade: a stored key is canonical, hence never reducible,
            # so a hit short-circuits the (comparatively expensive)
            # SV-elimination test — the common case under CVO swaps.
            key = (pv, sv, d, e)
            if _probed:
                _probed = False  # only the caller's first key was probed
            else:
                unique._lookups += 1
                node = raw.get(key)
                if node is not None:
                    unique._hits += 1
                    return -node if attr else node
            # Miss: the candidate may still reduce.
            dn = -d if d < 0 else d
            if dn != SINK and e != SINK and pvl[dn] == sv and pvl[e] == sv:
                # Both children rooted at sv: the candidate may not depend
                # on sv at all, in which case the chain skips it (R3/R4).
                # This is `_shannon_view(d)|0 == _shannon_view(e)|1` (and
                # the cross check) unfolded into field comparisons; with
                # `e` regular only `d`'s fields need complement folding.
                sd = svl[dn]
                if sd == svl[e]:
                    if sd == SV_ONE:
                        # Children are +-lit(sv); d = e was caught above,
                        # so d = -lit, e = +lit: rule R4 proper.
                        lit = self.literal_node(pv)
                        return -lit if attr else lit
                    if d < 0:
                        dneq = -neql[dn]
                        deq = -eql[dn]
                    else:
                        dneq = neql[dn]
                        deq = eql[dn]
                    if dneq == eql[e] and deq == neql[e]:
                        # Re-chain: f = (pv = t) ? A : B with A/B = d's
                        # children.
                        sv = sd
                        d = deq
                        e = dneq
                        continue
            break
        supp = bits[pv] | bits[sv] | suppl[dn] | suppl[e]
        if free:
            # Recycle a swept slot: no array growth, fresh identity.
            node = free.pop()
            pvl[node] = pv
            svl[node] = sv
            neql[node] = d
            eql[node] = e
            refl[node] = 0
            suppl[node] = supp
        else:
            node = len(pvl)
            pvl.append(pv)
            svl.append(sv)
            neql.append(d)
            eql.append(e)
            refl.append(0)
            suppl.append(supp)
            fl.append(0)
        fl[node] = 1
        raw[key] = node
        # Birth acquires both children (floating children resolve in
        # O(1); a once-dead child needs a full revive).
        r = refl[dn]
        if r:
            refl[dn] = r + 1
        elif fl[dn]:
            fl[dn] = 0
            refl[dn] = 1
            dead_set.discard(dn)
        else:
            self._ref_index(dn)
        r = refl[e]
        if r:
            refl[e] = r + 1
        elif fl[e]:
            fl[e] = 0
            refl[e] = 1
            dead_set.discard(e)
        else:
            self._ref_index(e)
        if by_pv is not None:
            by_pv[pv].add(node)
            by_sv[sv].add(node)
        self._node_count += 1
        dead_set.add(node)
        if self._node_count > self.peak_nodes:
            self.peak_nodes = self._node_count
        return -node if attr else node

    # ------------------------------------------------------------------
    # biconditional cofactors (includes Algorithm 1's chain transform)
    # ------------------------------------------------------------------

    def _cofactors(self, node: int, v: int, w: int):
        """``(f_neq, f_eq)`` of ``node`` (a positive index) w.r.t. ``(v, w)``.

        Four cases (Algorithm 1's chain transform, generalized to the
        support-chained CVO):

        * rooted deeper than ``v`` — independent of ``v``, unchanged;
        * a chain node ``(v, w)`` — its stored children;
        * a chain node ``(v, w2)`` with ``w2`` after ``w`` (the operand's
          own next support variable differs) — the substitution
          ``v <- w'``/``v <- w`` re-roots the function at couple
          ``(w, w2)`` with the children swapped / kept:
          ``f(v <- w') = (w = w2 ? d : e)``, ``f(v <- w) = (w != w2 ? d : e)``;
        * the literal ``lit(v)`` — cofactors ``~lit(w)`` / ``lit(w)``.
        """
        if self._pv[node] != v:
            return node, node
        if self._sv[node] == SV_ONE:
            lw = self.literal_node(w)
            return -lw, lw
        if self._sv[node] == w:
            return self._neq[node], self._eq[node]
        d_edge = self._neq[node]
        e_edge = self._eq[node]
        return (
            self._make(w, self._sv[node], e_edge, d_edge),
            self._make(w, self._sv[node], d_edge, e_edge),
        )

    # ------------------------------------------------------------------
    # Algorithm 1: f (op) g — the iterative engine
    # ------------------------------------------------------------------

    def apply_edges(self, f: Edge, g: Edge, op: int) -> Edge:
        """Compute ``f (op) g`` for edges; ``op`` is a 4-bit operator table.

        Complement attributes on the operands are pushed into the operator
        (the paper's ``updateop``), so the iterative core and the computed
        table always see attribute-free operands.  This is a safe point:
        automatic GC may run after the result is computed (the result
        itself is protected).
        """
        if f < 0:
            op = flip_a(op)
            f = -f
        if g < 0:
            op = flip_b(op)
            g = -g
        self.apply_calls += 1
        traced = self._trace_state.enabled
        if traced:
            start = perf_counter()
        self._in_op += 1
        try:
            result = self._apply(f, g, op)
        finally:
            self._in_op -= 1
        if traced:
            from repro.obs import trace

            trace.record("apply", perf_counter() - start, backend="bbdd")
        self._maybe_gc_protect(result)
        return result

    def apply_named(self, f: Edge, g: Edge, name: str) -> Edge:
        return self.apply_edges(f, g, op_from_name(name))

    def _apply(self, fn: int, gn: int, op: int) -> Edge:
        """Iterative Algorithm 1 over an explicit pending-frame stack.

        Operands and results are attribute-free node indices / signed
        edges.  Frames are ``(_CALL, fn, gn, op, 0)`` (expand an operand
        pair) or ``(_COMBINE, v, w, key, neg)`` (build the node once both
        cofactor results sit on the value stack).  The ``=``-branch frame
        is pushed last so it expands first, matching the recursive
        formulation's evaluation order.

        Operators are normalized by **output polarity** (``op`` and
        ``~op`` share one cache entry and one expansion; the complement
        rides on the sign of the result edge), which halves the work on
        XOR-rich operand pairs where both polarities of a subproblem
        occur — the complement attribute makes the negation free.
        """
        position = self._order._position  # bound dict: hot-path lookups
        identity = self._order.is_identity
        cache = self._cache
        raw = cache._table if type(cache).__name__ == "DictComputedTable" else None
        if raw is None:
            lookup = cache.lookup
            insert = cache.insert
        else:
            # Dict backend: skip the per-call stats bookkeeping in the hot
            # loop and settle the counters in bulk on exit.
            lookup = raw.get
            insert = raw.__setitem__
        n_lookups = 0
        n_hits = 0
        make = self._make
        pvl = self._pv
        svl = self._sv
        neql = self._neq
        eql = self._eq
        suppl = self._supp
        names_len = len(self._names)
        results: List[Edge] = []
        rpush = results.append
        rpop = results.pop
        tasks: List[tuple] = [(_CALL, fn, gn, op, 0)]
        tpush = tasks.append
        tpop = tasks.pop
        while tasks:
            tag, a, b, c, neg = tpop()
            if tag == _COMBINE:
                d = rpop()
                e = rpop()
                result = make(a, b, d, e)
                insert(c, result)
                rpush(-result if neg else result)
                continue
            fn, gn, op = a, b, c
            # Output-polarity normalization: represent ~op as (op, neg).
            neg = op & 1
            if neg:
                op ^= 0xF
            # -- terminal cases (Alg. 1 alpha) -----------------------------
            survivor = 0  # index 0 is never a node
            if fn == SINK:
                out = _RA1[op]
                survivor = gn
            elif gn == SINK:
                out = _RB1[op]
                survivor = fn
            elif fn == gn:
                out = _DIAG[op]
                survivor = fn
            elif ((op >> 1) & 0b101) == (op & 0b101):  # independent of b
                out = _RB0[op]
                survivor = fn
            elif ((op >> 2) & 0b11) == (op & 0b11):  # independent of a
                out = _RA0[op]
                survivor = gn
            if survivor:
                out ^= neg
                if out == _U_ID:
                    rpush(survivor)
                elif out == _U_NOT:
                    rpush(-survivor)
                elif out == _U_TRUE:
                    rpush(1)
                else:
                    rpush(-1)
                continue

            # -- computed table (Alg. 1 beta) ------------------------------
            if gn < fn and ((op >> 1) & 1) == ((op >> 2) & 1):
                fn, gn = gn, fn
            key = (fn, gn, op)
            n_lookups += 1
            cached = lookup(key)
            if cached is not None:
                n_hits += 1
                rpush(-cached if neg else cached)
                continue

            # -- terminal-substitution fast path ---------------------------
            # When one operand's support lies entirely below the other's
            # (and support masks order like positions, i.e. the CVO is
            # still the identity), the upper operand's terminals select a
            # fixed residue of the lower operand: the result is a single
            # structural pass over the upper diagram, no expansion frames.
            # This is the shape of every incremental chain build
            # (f = f <op> next), e.g. the parity construction.
            if identity:
                fs = suppl[fn]
                gs = suppl[gn]
                if fs.bit_length() < (gs & -gs).bit_length():
                    if svl[fn] != SV_ONE:  # literal roots use the generic path
                        result = self._splice(
                            fn, _RA1[op], _RA0[op], gn, op, True
                        )
                        insert(key, result)
                        rpush(-result if neg else result)
                        continue
                elif gs.bit_length() < (fs & -fs).bit_length() and svl[gn] != SV_ONE:
                    result = self._splice(gn, _RB1[op], _RB0[op], fn, op, False)
                    insert(key, result)
                    rpush(-result if neg else result)
                    continue

            # -- expansion step (Alg. 1 gamma) -----------------------------
            # Expansion couple: PV = earliest root variable; SV = earliest
            # following variable visible in either operand's structure (the
            # operand's own SV if rooted at v, its PV if rooted deeper).
            fpv = pvl[fn]
            gpv = pvl[gn]
            pf = position[fpv]
            pg = position[gpv]
            v = fpv if pf <= pg else gpv
            w = None
            w_pos = names_len + 1
            cand = svl[fn] if fpv == v else fpv
            if cand != SV_ONE:
                w = cand
                w_pos = position[cand]
            cand = svl[gn] if gpv == v else gpv
            if cand != SV_ONE:
                cand_pos = position[cand]
                if cand_pos < w_pos:
                    w, w_pos = cand, cand_pos
            if w is None:
                raise BBDDError("no expansion SV: both operands literal at v")
            # Inlined biconditional cofactors (see _cofactors) for both
            # operands; the subcall operators fold the edge signs.
            if fpv != v:
                f_nq = f_eq = fn
            elif svl[fn] == SV_ONE:
                lw = self.literal_node(w)
                f_nq = -lw
                f_eq = lw
            elif svl[fn] == w:
                f_nq = neql[fn]
                f_eq = eql[fn]
            else:
                d_edge = neql[fn]
                e_edge = eql[fn]
                f_nq = make(w, svl[fn], e_edge, d_edge)
                f_eq = make(w, svl[fn], d_edge, e_edge)
            if gpv != v:
                g_nq = g_eq = gn
            elif svl[gn] == SV_ONE:
                lw = self.literal_node(w)
                g_nq = -lw
                g_eq = lw
            elif svl[gn] == w:
                g_nq = neql[gn]
                g_eq = eql[gn]
            else:
                d_edge = neql[gn]
                e_edge = eql[gn]
                g_nq = make(w, svl[gn], e_edge, d_edge)
                g_eq = make(w, svl[gn], d_edge, e_edge)
            tpush((_COMBINE, v, w, key, neg))
            sub = op
            if f_nq < 0:
                sub = ((sub & 0b0011) << 2) | ((sub & 0b1100) >> 2)  # flip_a
                f_nq = -f_nq
            if g_nq < 0:
                sub = ((sub & 0b0101) << 1) | ((sub & 0b1010) >> 1)  # flip_b
                g_nq = -g_nq
            tpush((_CALL, f_nq, g_nq, sub, 0))
            sub = op
            if f_eq < 0:
                sub = ((sub & 0b0011) << 2) | ((sub & 0b1100) >> 2)
                f_eq = -f_eq
            if g_eq < 0:
                sub = ((sub & 0b0101) << 1) | ((sub & 0b1010) >> 1)
                g_eq = -g_eq
            tpush((_CALL, f_eq, g_eq, sub, 0))
        if raw is not None:
            cache.lookups += n_lookups
            cache.hits += n_hits
        return results[-1]

    def _splice(
        self,
        root: int,
        out1: int,
        out0: int,
        other: int,
        op: int,
        root_is_a: bool,
    ) -> Edge:
        """Terminal substitution: rebuild ``root`` with its sinks replaced.

        ``out1``/``out0`` are the unary outcome codes for the terminal
        values 1/0 (w.r.t. the surviving operand ``other``, which lies
        entirely below ``root`` in the order).  A single memoized
        bottom-up pass over ``root``'s diagram; literal nodes at the
        bottom of the chain re-enter the generic engine (their couple
        partner comes from ``other``'s structure).

        When the two residues are complements of each other (XOR-shaped
        outcomes) the substitution commutes with complement, so the memo
        collapses to one entry per node and results are shared through
        the sign of the edges.
        """
        if out1 == _U_ID:
            r1: Edge = other
        elif out1 == _U_NOT:
            r1 = -other
        else:
            r1 = -1 if out1 == _U_FALSE else 1
        if out0 == _U_ID:
            r0: Edge = other
        elif out0 == _U_NOT:
            r0 = -other
        else:
            r0 = -1 if out0 == _U_FALSE else 1
        linear = r1 == r0 or r1 == -r0  # complement pair: F(~f) == ~F(f)
        make = self._make
        apply_inner = self._apply
        pvl = self._pv
        svl = self._sv
        neql = self._neq
        eql = self._eq
        refl = self._ref
        fl = self._float
        suppl = self._supp
        memo: Dict = {}
        memo_get = memo.get
        bits = self._var_bits
        raw = self._uniq_raw
        unique = self._unique
        dead_set = self._dead_set
        dead_add = dead_set.add
        dead_discard = dead_set.discard
        by_pv = self._by_pv
        by_sv = self._by_sv
        free = self._free_nodes
        results: List[Edge] = []
        rpush = results.append
        rpop = results.pop
        tasks: List[tuple] = [(_CALL, root, False)]
        tpush = tasks.append
        tpop = tasks.pop
        while tasks:
            tag, node, attr = tpop()
            if tag == _COMBINE:
                d = rpop()
                e = rpop()
                if linear:
                    if neql[node] < 0:
                        d = -d
                    result = make(pvl[node], svl[node], d, e)
                    memo[node] = result
                else:
                    result = make(pvl[node], svl[node], d, e)
                    memo[(node, attr)] = result
                rpush(result)
                continue
            if tag == _UNWIND:
                # ``node`` holds a trail of complement-pair chain nodes
                # (root first); the value stack holds the tail result.
                # The node constructor is inlined for the common case
                # (no SV-elimination) — this loop builds the bulk of
                # every incremental chain step.
                e = rpop()
                for nd in reversed(node):
                    en = -e if e < 0 else e
                    sv = svl[nd]
                    if pvl[en] == sv or neql[nd] > 0:
                        # Possible reduction (or an irregular trail node):
                        # take the full canonical constructor.
                        d = -e if neql[nd] < 0 else e
                        e = make(pvl[nd], sv, d, e)
                        memo[nd] = e
                        continue
                    pv = pvl[nd]
                    # d = -e, e = e; after =-edge normalization the
                    # stored !=-edge is ``-en`` and the external attr
                    # equals e's sign.
                    key = (pv, sv, -en, en)
                    unique._lookups += 1
                    new = raw.get(key)
                    if new is None:
                        supp = bits[pv] | bits[sv] | suppl[en]
                        if free:
                            new = free.pop()
                            pvl[new] = pv
                            svl[new] = sv
                            neql[new] = -en
                            eql[new] = en
                            refl[new] = 0
                            suppl[new] = supp
                        else:
                            new = len(pvl)
                            pvl.append(pv)
                            svl.append(sv)
                            neql.append(-en)
                            eql.append(en)
                            refl.append(0)
                            suppl.append(supp)
                            fl.append(0)
                        fl[new] = 1
                        raw[key] = new
                        r = refl[en]
                        if r:
                            refl[en] = r + 2
                        elif fl[en]:
                            fl[en] = 0
                            refl[en] = 2
                            dead_discard(en)
                        else:
                            self._ref_index(en)
                            refl[en] += 1
                        if by_pv is not None:
                            by_pv[pv].add(new)
                            by_sv[sv].add(new)
                        nc = self._node_count + 1
                        self._node_count = nc
                        dead_add(new)
                        if nc > self.peak_nodes:
                            self.peak_nodes = nc
                    else:
                        unique._hits += 1
                    e = -new if e < 0 else new
                    memo[nd] = e
                rpush(e)
                continue
            if node == SINK:
                rpush(r0 if attr else r1)
                continue
            if svl[node] == SV_ONE:
                # Bottom-of-chain literal: its couple partner lives in the
                # other operand — delegate to the generic expansion.  An
                # incoming complement flips the terminal *before* the
                # substitution, so it folds into the operator (updateop),
                # never onto the result (that is only sound when the two
                # residues are complements, i.e. the linear case).
                if root_is_a:
                    sub = flip_a(op) if attr else op
                    result = apply_inner(node, other, sub)
                else:
                    sub = flip_b(op) if attr else op
                    result = apply_inner(other, node, sub)
                rpush(result)
                continue
            # In linear mode every frame carries attr == False (the root
            # is a bare operand and all linear pushes below use False);
            # complements are folded at the combine sites instead.
            mk = node if linear else (node, attr)
            hit = memo_get(mk)
            if hit is not None:
                rpush(hit)
                continue
            if linear:
                d_child = neql[node]
                e_child = eql[node]
                if -d_child == e_child:
                    # Complement-pair children (e.g. any XOR chain): one
                    # child visit suffices (the d-branch is its negation),
                    # and because =-edges are regular the whole descent is
                    # attribute-free — collect the run as a frame-free
                    # trail and unwind it bottom-up.
                    trail = [node]
                    tappend = trail.append
                    nd = e_child
                    while True:
                        if nd == SINK or svl[nd] == SV_ONE:
                            break
                        hit = memo_get(nd)
                        if hit is not None:
                            break
                        if -neql[nd] != eql[nd]:
                            break
                        tappend(nd)
                        nd = eql[nd]
                    tpush((_UNWIND, trail, False))
                    tpush((_CALL, nd, False))
                else:
                    tpush((_COMBINE, node, attr))
                    tpush((_CALL, -d_child if d_child < 0 else d_child, False))
                    tpush((_CALL, e_child, False))
            else:
                d_child = neql[node]
                tpush((_COMBINE, node, attr))
                tpush(
                    (
                        _CALL,
                        -d_child if d_child < 0 else d_child,
                        attr ^ (d_child < 0),
                    )
                )
                tpush((_CALL, eql[node], attr))
        return results[-1]

    # Convenience edge-level operations used across the package.

    def and_edges(self, f: Edge, g: Edge) -> Edge:
        return self.apply_edges(f, g, OP_AND)

    def or_edges(self, f: Edge, g: Edge) -> Edge:
        return self.apply_edges(f, g, OP_OR)

    def xor_edges(self, f: Edge, g: Edge) -> Edge:
        return self.apply_edges(f, g, OP_XOR)

    @staticmethod
    def not_edge(f: Edge) -> Edge:
        return -f

    # ------------------------------------------------------------------
    # uniform DD protocol (repro.api) — derived ops and semantics
    # ------------------------------------------------------------------
    #
    # These wrappers bind the native iterative procedures of
    # :mod:`repro.core.apply` / :mod:`repro.core.traversal` to the
    # backend-agnostic :class:`repro.api.base.DDManager` edge protocol,
    # which is what the shared Function wrapper and every protocol
    # client (network builder, harness, io) call.

    def ite_edges(self, f: Edge, g: Edge, h: Edge) -> Edge:
        from repro.core import apply as _ops

        return _ops.ite(self, f, g, h)

    def restrict_edge(self, edge: Edge, var, value: bool) -> Edge:
        from repro.core import apply as _ops

        return _ops.restrict(self, edge, var, value)

    def compose_edge(self, edge: Edge, var, g: Edge) -> Edge:
        from repro.core import apply as _ops

        return _ops.compose(self, edge, var, g)

    def quantify_edge(self, edge: Edge, variables, forall: bool = False) -> Edge:
        from repro.core import apply as _ops

        if forall:
            return _ops.forall(self, edge, variables)
        return _ops.exists(self, edge, variables)

    def support_edge(self, edge: Edge) -> frozenset:
        from repro.core import apply as _ops

        return _ops.support(self, edge)

    def and_exists_edges(self, f: Edge, g: Edge, variables) -> Edge:
        from repro.core import apply as _ops

        return _ops.and_exists(self, f, g, variables)

    def relabel_edge(self, edge: Edge, values) -> Optional[Edge]:
        """Structural rename when every value is a positive literal.

        See :func:`repro.core.apply.relabel`; None for any other
        substitution, which then takes the general rebuild.
        """
        from repro.core import apply as _ops

        svl = self._sv
        pvl = self._pv
        renames = {}
        for var, value in values.items():
            if value <= SINK or svl[value] != SV_ONE:
                return None
            renames[var] = pvl[value]
        return _ops.relabel(self, edge, renames)

    def evaluate_edge(self, edge: Edge, values: Dict[int, bool]) -> bool:
        from repro.core import traversal as _trav

        return _trav.evaluate(self, edge, values)

    def freeze_export(self, named) -> Columns:
        """The compiled query form of a named forest (one column block).

        One :func:`~repro.core.traversal.levelize` over *all* roots
        gives the parents-first slot order directly (children live at
        strictly deeper CVO levels), so shared nodes get one slot
        however many roots reference them.
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
                # Literal (R4) node: the test is the variable itself, so
                # the always-regular ``=``-edge (pv == 1) is the t-branch
                # and the ``!=``-edge the f-branch.
                t.append(eq_ref)
                f.append(neq_ref)
                continue
            t.append(neq_ref)
            f.append(eq_ref)
        roots = {name: slots[e] if e > 0 else -slots[-e] for name, e in named}
        return Columns(self.order.order, roots, [(0, pv, sv, t, f)], pv)

    def make_row(self, pv: int, sv, t: Edge, f: Edge):
        """A replayed io row as a couple or literal (None: Shannon node)."""
        if sv is not None:
            return self._make(pv, sv, t, f)
        if t == 1 and f == -1:
            return self.literal_node(pv)
        return None

    def compiled_root(self, edge: Edge) -> Columns:
        """:meth:`freeze_export` of one root, kept by the computed table.

        Every table clear (GC, CVO swaps, checkpoint rewinds) drops it
        with the apply entries.  The variable count
        is part of the key: :meth:`new_var` changes every count without
        clearing anything.
        """
        return self._cache.compiled(
            (edge, len(self._names)), lambda: self.freeze_export([("f", edge)])
        )

    def sat_one_edge(self, edge: Edge) -> Optional[Dict[int, bool]]:
        """One satisfying assignment ``{var index: bit}``, or None.

        Constraints resolve bottom-up against the couple partner actually
        on the witness path (*not* the global order's partner — under the
        support-chained CVO a node's SV is its function's next *support*
        variable, which may skip order positions).  A partner the path
        never pins absolutely is a free variable and defaults to False.
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

    def root_var(self, edge: Edge) -> int:
        """The first support variable (in order) of ``edge``'s function.

        Under the support-chained CVO this is the root couple's PV.
        """
        return self._pv[-edge if edge < 0 else edge]

    def count_nodes(self, edges: Iterable[Edge]) -> int:
        from repro.core import traversal as _trav

        return _trav.count_nodes(self, edges)

    def sift(self, **kwargs):
        """Reorder variables with Rudell's sifting (see repro.core.reorder)."""
        from repro.core.reorder import sift as _sift

        return _sift(self, **kwargs)

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
        """Number of nodes currently stored (chain + literal, sink excluded)."""
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
        :meth:`nodes_with_sv`; the sifting driver, ``reorder_to`` and
        ``swap_adjacent`` run inside this context, so a sift builds the
        sets once.  Outside it the store keeps none, and allocation and
        reclamation skip them.
        """
        return _LevelIndex(self)

    def _scan_levels(self):
        """``(by_pv, by_sv)`` from one pass over the unique table."""
        pvl = self._pv
        svl = self._sv
        by_pv: Dict[int, set] = {v: set() for v in range(len(self._names))}
        by_sv: Dict[int, set] = {v: set() for v in range(len(self._names))}
        for node in self._uniq_raw.values():
            sv = svl[node]
            if sv != SV_ONE:
                by_pv[pvl[node]].add(node)
                by_sv[sv].add(node)
        return by_pv, by_sv

    def _index_levels(self) -> None:
        self._by_pv, self._by_sv = self._scan_levels()
        self._bind_hot()

    def _drop_levels(self) -> None:
        self._by_pv = None
        self._by_sv = None
        self._bind_hot()

    def _checkpoint(self):
        """Snapshot the complete node-store state (O(stored nodes)).

        Everything a CVO swap mutates is captured: the parallel field
        arrays, the unique table, the level sets, the free list, the dead
        set and the variable order.  The level sets exist only inside
        :meth:`_level_index`, where the sifting driver takes and restores
        its snapshots; outside it the snapshot holds ``None`` for them.
        Monotone counters (peak, gc/apply statistics) and the computed
        table (cleared on every swap anyway) are deliberately left out.
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
            dict(self._literals),
            list(self._free_nodes),
            set(self._dead_set),
            self._node_count,
            self._order.order,
        )

    def _restore(self, state) -> None:
        """Rewind the node store to a :meth:`_checkpoint` snapshot."""
        (pv, sv, neq, eq, ref, supp, float_, raw, by_pv, by_sv,
         literals, free, dead, node_count, order) = state
        self._pv = list(pv)
        self._sv = list(sv)
        self._neq = list(neq)
        self._eq = list(eq)
        self._ref = list(ref)
        self._supp = list(supp)
        self._float = bytearray(float_)
        # The raw dict is aliased by the unique-table wrapper: refill it
        # in place so ``self._uniq_raw is self._unique._table`` holds.
        self._uniq_raw.clear()
        self._uniq_raw.update(raw)
        self._by_pv = _copy_levels(by_pv)
        self._by_sv = _copy_levels(by_sv)
        self._literals = dict(literals)
        self._free_nodes = list(free)
        self._dead_set = set(dead)
        self._node_count = node_count
        self._order.set_order(order)
        self._bind_hot()
        # Cached results and interned views may reference slots that only
        # exist on the abandoned timeline.
        self._cache.clear()
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
        self._cache.clear()
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
            if svl[node] == SV_ONE:
                del raw[(pvl[node], SV_ONE)]
                del self._literals[pvl[node]]
                if fl[node]:
                    refl[SINK] -= 2
                fl[node] = 0
                continue
            del raw[(pvl[node], svl[node], neql[node], eql[node])]
            if by_pv is not None:
                by_pv[pvl[node]].discard(node)
                by_sv[svl[node]].discard(node)
            if fl[node]:
                # Unacquired garbage still holds its birth counts on the
                # children — release them; newly dead children join the
                # set and are reclaimed by this same loop.
                fl[node] = 0
                d = neql[node]
                self._deref_index(-d if d < 0 else d)
                self._deref_index(eql[node])
        self._node_count -= reclaimed
        self.gc_count += 1
        self.gc_reclaimed += reclaimed
        return reclaimed

    def _sweep(self, node: int) -> int:
        """Reclaim the dead subgraph rooted at ``node`` (ref == 0).

        Child references were already dropped when the nodes died, so
        sweeping only removes the dead nodes from the tables (cascading
        into dead children to reclaim whole subgraphs eagerly, which the
        reordering surgery relies on).
        """
        return self._sweep_many((node,))

    def _sweep_many(self, nodes) -> int:
        """Reclaim the dead subgraphs rooted at each of ``nodes``.

        Batch form of :meth:`_sweep` (one call per reordering phase
        instead of one per dead root); entries that were already
        reclaimed by an earlier cascade are skipped.
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
            if svl[n] == SV_ONE:
                del raw[(pvl[n], SV_ONE)]
                del self._literals[pvl[n]]
                if fl[n]:
                    refl[SINK] -= 2
                fl[n] = 0
            else:
                del raw[(pvl[n], svl[n], neql[n], eql[n])]
                if by_pv is not None:
                    by_pv[pvl[n]].discard(n)
                    by_sv[svl[n]].discard(n)
                d = neql[n]
                dn = -d if d < 0 else d
                if fl[n]:
                    # Unacquired garbage: release the birth counts first.
                    fl[n] = 0
                    deref(dn)
                    deref(eql[n])
                stack.append(dn)
                stack.append(eql[n])
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
            if svl[n] == SV_ONE:
                del raw[(pvl[n], SV_ONE)]
                del self._literals[pvl[n]]
                refl[SINK] -= 2  # the fixed sink children
            else:
                del raw[(pvl[n], svl[n], neql[n], eql[n])]
                if by_pv is not None:
                    by_pv[pvl[n]].discard(n)
                    by_sv[svl[n]].discard(n)
                d = neql[n]
                stack.append(-d if d < 0 else d)
                stack.append(eql[n])
            reclaimed += 1
        self._node_count -= reclaimed
        return reclaimed

    def clear_cache(self) -> None:
        self._cache.clear()

    def table_stats(self) -> dict:
        return {
            "unique": self._unique.stats(),
            "computed": self._cache.stats(),
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
        catalogued metric families, labeled ``backend="bbdd"``.
        """
        from repro.obs.catalog import family

        unique = self._unique.stats()
        computed = self._cache.stats()
        label = {"backend": "bbdd"}
        family(registry, "repro_manager_unique_lookups_total").labels(
            **label
        ).inc(unique.get("lookups", 0))
        family(registry, "repro_manager_unique_hits_total").labels(
            **label
        ).inc(unique.get("hits", 0))
        family(registry, "repro_manager_computed_lookups_total").labels(
            **label
        ).inc(computed.get("lookups", 0))
        family(registry, "repro_manager_computed_hits_total").labels(
            **label
        ).inc(computed.get("hits", 0))
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
    # introspection / debugging
    # ------------------------------------------------------------------

    def nodes_with_pv(self, var: int) -> set:
        """Chain node indices whose primary variable is ``var`` (live or dead).

        Only inside :meth:`_level_index`: reordering builds the level
        sets when it starts and drops them when it ends, so the store
        pays for them only while it reorders.  Raises
        :class:`BBDDError` elsewhere.
        """
        if self._by_pv is None:
            raise BBDDError("level sets exist only inside _level_index()")
        return self._by_pv[var]

    def nodes_with_sv(self, var: int) -> set:
        """Chain node indices whose secondary variable is ``var``.

        Only inside :meth:`_level_index`, as :meth:`nodes_with_pv`.
        """
        if self._by_sv is None:
            raise BBDDError("level sets exist only inside _level_index()")
        return self._by_sv[var]

    def check_invariants(self) -> None:
        """Validate the canonical-form invariants; raise on violation.

        Used by the test-suite after every structural operation.  Checks:
        unique-table key consistency, R2 (no identical children), R4 (no
        chain node denoting a literal), ``=``-edge regularity (structural
        by construction, re-checked via key shape), CVO couple consistency,
        strictly increasing child positions, literal node shape,
        non-negative reference counts, cascading-count consistency (a live
        node's children are live), no dangling child indices, the
        exactness of the incremental dead count and, while
        :meth:`_level_index` holds them, the level sets (each holds
        exactly the stored chain nodes with that PV or SV).
        """
        from repro.core.exceptions import InvariantViolation

        order = self._order
        pvl = self._pv
        svl = self._sv
        neql = self._neq
        eql = self._eq
        refl = self._ref
        fl = self._float
        suppl = self._supp
        raw = self._uniq_raw
        for key, node in list(raw.items()):
            if self._node_key(node) != key:
                raise InvariantViolation(
                    f"key {key} does not map back to node {node}"
                )
            if refl[node] < 0:
                raise InvariantViolation(f"swept node still in table: {node}")
            if svl[node] == SV_ONE:
                if not (neql[node] == -SINK and eql[node] == SINK):
                    raise InvariantViolation(
                        f"malformed literal node {self.node_view(node)!r}"
                    )
                continue
            pos = order.position(pvl[node])
            sv_pos = order.position(svl[node])
            if sv_pos <= pos:
                raise InvariantViolation(
                    f"couple of {self.node_view(node)!r} inconsistent with "
                    f"order {order!r}"
                )
            d = neql[node]
            e = eql[node]
            if e < 0:
                raise InvariantViolation(
                    f"irregular =-edge on {self.node_view(node)!r}"
                )
            if d == e:
                raise InvariantViolation(
                    f"R2 violation (identical children): {self.node_view(node)!r}"
                )
            dn = -d if d < 0 else d
            for child in (dn, e):
                if refl[child] < 0 or (child != SINK and child not in (
                    raw.get(self._node_key(child)),
                )):
                    raise InvariantViolation(
                        f"dangling child index: {node} -> {child}"
                    )
                if child != SINK and order.position(pvl[child]) < sv_pos:
                    raise InvariantViolation(
                        f"child order violation: {self.node_view(node)!r} -> "
                        f"{self.node_view(child)!r}"
                    )
                if (
                    (refl[node] > 0 or fl[node])
                    and child != SINK
                    and refl[child] <= 0
                ):
                    raise InvariantViolation(
                        f"held node with dead child: {self.node_view(node)!r} "
                        f"-> {self.node_view(child)!r}"
                    )
            if (
                dn != SINK
                and e != SINK
                and pvl[dn] == svl[node]
                and pvl[e] == svl[node]
            ):
                if self._shannon_view(d, svl[node], 0) == self._shannon_view(
                    e, svl[node], 1
                ) and self._shannon_view(e, svl[node], 0) == self._shannon_view(
                    d, svl[node], 1
                ):
                    raise InvariantViolation(
                        f"R3/R4 violation (SV-independent chain node): "
                        f"{self.node_view(node)!r}"
                    )
            expected_supp = (
                (1 << pvl[node]) | (1 << svl[node]) | suppl[dn] | suppl[e]
            )
            if suppl[node] != expected_supp:
                raise InvariantViolation(
                    f"support mask mismatch: {self.node_view(node)!r}"
                )
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

        Every stored *held* chain node (positive count, or a floating
        birth hold) contributes one reference per child occurrence; each
        edge in ``roots`` — the caller's live function handles —
        contributes one reference to its root node.  With ``roots``
        given, the scan must reproduce every stored count exactly;
        without it the scan is a lower bound (the slack is the caller's
        handle count, unknown here).  The sink's count aggregates
        literal birth holds and constant handles and is skipped.
        """
        from repro.core.exceptions import InvariantViolation

        refl = self._ref
        fl = self._float
        svl = self._sv
        neql = self._neq
        eql = self._eq
        holds = [0] * len(refl)
        for node in self._uniq_raw.values():
            if svl[node] == SV_ONE:
                continue  # literal children are sink edges
            if refl[node] > 0 or fl[node]:
                d = neql[node]
                holds[-d if d < 0 else d] += 1
                holds[eql[node]] += 1
        exact = roots is not None
        if exact:
            for edge in roots:
                holds[-edge if edge < 0 else edge] += 1
        for node in self._uniq_raw.values():
            if node == SINK:
                continue
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BBDDManager vars={len(self._names)} nodes={self._node_count} "
            f"order={self.current_order()}>"
        )
