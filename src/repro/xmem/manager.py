"""The external-memory BBDD manager (``repro.open(backend="xmem")``).

:class:`XmemManager` implements the :class:`repro.api.base.DDManager`
edge protocol over *levelized node files* instead of a pointer heap:
every function is an immutable :class:`~repro.xmem.rep.Levelized`
representation (the record shape of the :mod:`repro.io` binary format,
kept live), manipulation runs as level-by-level streaming sweeps
(:mod:`repro.xmem.engine`), and a configurable ``node_budget`` bounds
how many node records stay resident — completed representations spill
to disk least-recently-used and reload transparently on access.  The
shared :class:`~repro.api.base.FunctionBase` surface therefore comes
for free; :class:`XmemFunction` only redefines equality/hashing, which
is structural here (canonical signatures) because separately computed
representations do not share node identity.

What the budget does and does not bound: *node records* — the dominant
term of a decision-diagram working set — are budgeted and spilled
(both finished representations and each operation's request queues,
which overflow to sorted varint runs).  Per-operation transient
bookkeeping (request keys in flight, the reduce pass's result map) is
RAM-resident in this implementation, proportional to one operation's
product size, not to the forest.

Because the manager is a different scaling point, two protocol
conveniences are intentionally absent: dynamic reordering
(:meth:`XmemManager.sift` raises — representations are canonical for
one fixed order) and cross-function node sharing
(:meth:`XmemManager.count_nodes` sums per-representation reachable
counts).
"""

from __future__ import annotations

import shutil
import weakref
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.api.base import Columns, DDManager, FunctionBase, install_function_helpers
from repro.core.exceptions import BBDDError, VariableError
from repro.core.operations import OP_AND, OP_OR, op_from_name
from repro.core.order import ChainVariableOrder

from repro.xmem.builder import Builder
from repro.xmem.engine import apply_refs, ite_refs, restrict_replay
from repro.xmem.rep import Levelized, SpillStore


class XmemNode:
    """Root handle of (a node in) a levelized representation.

    The protocol's edge endpoint: ``(XmemNode, attr)`` tuples are what
    the shared function wrapper carries.  ``uid`` is interned from the
    node's canonical signature, so two handles denote the same function
    exactly when their uids are equal — that is what keeps memoized
    protocol walks (``to_expr``, ``shannon_count``) linear in the
    number of *distinct* subfunctions.
    """

    __slots__ = ("manager", "rep", "nid", "_uid", "__weakref__")

    def __init__(self, manager, rep: Optional[Levelized], nid: int) -> None:
        self.manager = manager
        self.rep = rep
        self.nid = nid
        self._uid: Optional[int] = None

    @property
    def is_sink(self) -> bool:
        return self.rep is None

    @property
    def uid(self) -> int:
        if self.rep is None:
            return 0
        if self._uid is None:
            self._uid = self.manager._intern_uid(self.rep.digest(self.nid))
        return self._uid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.rep is None:
            return "<xmem-sink-1>"
        return f"<xmem-node rep={id(self.rep):#x} id={self.nid}>"


class XmemFunction(FunctionBase):
    """Function handle over the external-memory backend.

    Identical surface to every other backend's functions; equality and
    hashing are structural (canonical-signature uids) because levelized
    representations do not share node identity across operations.
    """

    __slots__ = ()

    def __eq__(self, other) -> bool:
        if not isinstance(other, FunctionBase):
            return NotImplemented
        if self.manager is not other.manager or self.attr != other.attr:
            return False
        return self.node.uid == other.node.uid

    def __hash__(self) -> int:
        return hash((id(self.manager), self.node.uid, self.attr))

    def equivalent(self, other) -> bool:
        other_edge = self._coerce(other)
        return self.attr == other_edge[1] and self.node.uid == other_edge[0].uid


class XmemManager(DDManager):
    """Manager for a forest of external-memory (levelized) BBDDs.

    Parameters
    ----------
    variables:
        Number of variables or a sequence of distinct names.
    node_budget:
        Target number of node records kept resident across all live
        representations; crossing it spills least-recently-used
        representations to disk (they reload transparently).
    request_chunk:
        Per-level in-RAM request count of the apply sweeps before the
        level's request queue spills to sorted varint runs (defaults to
        ``max(1024, node_budget // 4)``).
    spill_dir:
        Directory for spill files (default: a fresh temporary directory,
        removed when the manager is garbage collected).
    """

    backend = "xmem"
    #: Dynamic reordering is not available on this backend (see sift()).
    supports_sift = False

    def __init__(
        self,
        variables: Union[int, Sequence[str]],
        node_budget: int = 1 << 20,
        request_chunk: Optional[int] = None,
        spill_dir: Optional[str] = None,
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
        if node_budget < 1:
            raise BBDDError("node_budget must be positive")
        self.node_budget = int(node_budget)
        self._request_chunk = (
            int(request_chunk)
            if request_chunk is not None
            else max(1024, self.node_budget // 4)
        )
        self._store = SpillStore(spill_dir)
        if spill_dir is None:
            # The store creates its temp dir lazily; clean whatever it
            # made when the manager goes away.
            weakref.finalize(self, _cleanup_store_dir, self._store)
        self._reps: "weakref.WeakSet[Levelized]" = weakref.WeakSet()
        self._sink = XmemNode(self, None, 0)
        self._literal_reps: Dict[int, Levelized] = {}
        self._sig_uids: Dict[bytes, int] = {}
        self._next_uid = 0

        from repro import obs  # late: avoids import cycles at package init

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

    @property
    def order(self) -> ChainVariableOrder:
        return self._order

    def current_order(self) -> tuple:
        return tuple(self._names[v] for v in self._order.order)

    def sift(self, **kwargs):
        raise BBDDError(
            "the xmem backend keeps canonical levelized files for one fixed "
            "variable order and does not support dynamic reordering; "
            "migrate to an in-memory backend to sift"
        )

    # ------------------------------------------------------------------
    # handles, terminals, literals
    # ------------------------------------------------------------------

    def _intern_uid(self, digest: bytes) -> int:
        uid = self._sig_uids.get(digest)
        if uid is None:
            self._next_uid += 1
            uid = self._next_uid
            self._sig_uids[digest] = uid
        return uid

    def _handle(self, rep: Levelized, nid: int) -> XmemNode:
        node = rep._handles.get(nid)
        if node is None:
            node = XmemNode(self, rep, nid)
            rep._handles[nid] = node
        return node

    def _register(self, rep: Levelized) -> None:
        self._reps.add(rep)

    @property
    def true_edge(self):
        return (self._sink, False)

    @property
    def false_edge(self):
        return (self._sink, True)

    def literal_edge(self, var: Union[int, str], positive: bool = True):
        index = self.var_index(var)
        rep = self._literal_reps.get(index)
        if rep is None:
            pos = self._order.position(index)
            rep = Levelized(self._store, [(pos, [(0, 0, 0)])], [1 << 1])
            self._literal_reps[index] = rep
            self._register(rep)
        return (self._handle(rep, 1), not positive)

    # ------------------------------------------------------------------
    # operations (streaming sweeps)
    # ------------------------------------------------------------------

    def _unpack(self, edge) -> Tuple[Optional[Levelized], int]:
        node, attr = edge
        if node.rep is None:
            return (None, 1 if attr else 0)
        return (node.rep, (node.nid << 1) | bool(attr))

    def _edge_from(self, builder: Builder, ref: int):
        if ref >> 1 == 0:
            builder.dispose()
            return (self._sink, bool(ref & 1))
        rep, roots = builder.finish([ref])
        self._register(rep)
        root = roots[0]
        return (self._handle(rep, root >> 1), bool(root & 1))

    def _run_op(self, fn):
        traced = self._trace_state.enabled
        if traced:
            from time import perf_counter

            start = perf_counter()
        builder = Builder(self)
        try:
            ref = fn(builder)
            edge = self._edge_from(builder, ref)
        finally:
            builder.dispose()
        self._rebalance()
        if traced:
            from repro.obs import trace

            trace.record("sweep", perf_counter() - start, backend="xmem")
        return edge

    def apply_edges(self, f, g, op: int):
        rep_f, ref_f = self._unpack(f)
        rep_g, ref_g = self._unpack(g)
        return self._run_op(
            lambda builder: apply_refs(
                self, builder, rep_f, ref_f, rep_g, ref_g, op
            )
        )

    def apply_named(self, f, g, name: str):
        return self.apply_edges(f, g, op_from_name(name))

    def and_edges(self, f, g):
        return self.apply_edges(f, g, OP_AND)

    def or_edges(self, f, g):
        return self.apply_edges(f, g, OP_OR)

    @staticmethod
    def not_edge(f):
        return (f[0], not f[1])

    def ite_edges(self, f, g, h):
        rep_f, ref_f = self._unpack(f)
        rep_g, ref_g = self._unpack(g)
        rep_h, ref_h = self._unpack(h)
        return self._run_op(
            lambda builder: ite_refs(
                self, builder, rep_f, ref_f, rep_g, ref_g, rep_h, ref_h
            )
        )

    def restrict_edge(self, edge, var, value: bool):
        index = self.var_index(var)
        node, attr = edge
        if node.rep is None or index not in node.rep.support_of(
            node.nid, self._order.order
        ):
            return edge
        rep, ref = self._unpack(edge)
        return self._run_op(
            lambda builder: restrict_replay(
                self, builder, rep, ref, index, bool(value)
            )
        )

    def compose_edge(self, edge, var, g):
        index = self.var_index(var)
        f1 = self.restrict_edge(edge, index, True)
        f0 = self.restrict_edge(edge, index, False)
        return self.ite_edges(g, f1, f0)

    def quantify_edge(self, edge, variables, forall: bool = False):
        if isinstance(variables, (int, str)):
            variables = (variables,)
        op = OP_AND if forall else OP_OR
        for var in tuple(variables):
            index = self.var_index(var)
            node, _attr = edge
            if node.rep is None or index not in node.rep.support_of(
                node.nid, self._order.order
            ):
                continue
            edge = self.apply_edges(
                self.restrict_edge(edge, index, False),
                self.restrict_edge(edge, index, True),
                op,
            )
        return edge

    # ------------------------------------------------------------------
    # semantics and structure queries (streaming passes)
    # ------------------------------------------------------------------

    def evaluate_edge(self, edge, values: Dict[int, bool]) -> bool:
        node, attr = edge
        attr = bool(attr)
        if node.rep is None:
            return not attr
        rep = node.rep
        var_at = self._order.order
        nid = node.nid
        while nid:
            pos, sv_delta, neq_ref, eq_ref = rep.full_record(nid)
            if sv_delta == 0:
                take_neq = not values[var_at[pos]]
                ref = 1 if take_neq else 0
            else:
                take_neq = values[var_at[pos]] != values[var_at[pos + sv_delta]]
                ref = neq_ref if take_neq else eq_ref
            attr ^= bool(ref & 1)
            nid = ref >> 1
        return not attr

    def freeze_export(self, named) -> Columns:
        """The compiled query form, handed over one level block at a time.

        Each representation streams its level blocks shallowest first
        (node ids strictly decrease along edges, so parents come before
        children) and *spills each block behind the sweep* whenever
        residency exceeds the budget — a block already swept is never
        needed again within one pass, so batch sweeps and ``p_one`` on a
        beyond-budget representation stay within ``node_budget``.
        Distinct representations take consecutive slot ranges, with
        ``slot = top - id`` inside one.
        """
        tops: Dict[Levelized, int] = {}
        roots: Dict[str, int] = {}
        next_slot = 2
        for name, (node, attr) in named:
            rep = node.rep
            if rep is None:
                roots[name] = -1 if attr else 1
                continue
            top = tops.get(rep)
            if top is None:
                top = tops[rep] = next_slot = next_slot + rep.size
            slot = top - node.nid
            roots[name] = -slot if attr else slot
        stream = _LevelStream(self, list(tops.items()))
        return Columns(self._order.order, roots, stream, stream)

    def sat_one_edge(self, edge) -> Optional[Dict[int, bool]]:
        node, attr = edge
        attr = bool(attr)
        if node.rep is None:
            return {} if not attr else None
        rep = node.rep
        var_at = self._order.order
        nid = node.nid
        path: List[tuple] = []
        while True:
            pos, sv_delta, neq_ref, eq_ref = rep.full_record(nid)
            pv = var_at[pos]
            if sv_delta == 0:
                branches = ((0, attr ^ True, "0", None), (0, attr, "1", None))
            else:
                sv = var_at[pos + sv_delta]
                branches = (
                    (neq_ref >> 1, attr ^ bool(neq_ref & 1), "!=", sv),
                    (eq_ref >> 1, attr ^ bool(eq_ref & 1), "==", sv),
                )
            descend = None
            done = False
            for child, child_attr, rel, sv_on_path in branches:
                if child == 0:
                    if not child_attr:
                        path.append((pv, sv_on_path, rel))
                        done = True
                        break
                elif descend is None:
                    descend = (child, child_attr, rel, sv_on_path)
            if done:
                break
            if descend is None:  # pragma: no cover - canonical reps are non-constant
                return None
            child, attr, rel, sv_on_path = descend
            path.append((pv, sv_on_path, rel))
            nid = child
        values: Dict[int, bool] = {}
        # Resolve deepest-first so each couple's partner is already fixed
        # (or known free) when needed — same as the in-core manager.
        for pv, sv, rel in reversed(path):
            if rel == "0" or rel == "1":
                values[pv] = rel == "1"
            else:
                if sv not in values:
                    values[sv] = False
                values[pv] = (not values[sv]) if rel == "!=" else values[sv]
        return values

    def support_edge(self, edge) -> frozenset:
        node, _attr = edge
        if node.rep is None:
            return frozenset()
        return node.rep.support_of(node.nid, self._order.order)

    def root_var(self, edge) -> int:
        node, _attr = edge
        return self._order.order[node.rep.pos_of(node.nid)]

    def count_nodes(self, edges: Iterable) -> int:
        by_rep: Dict[int, Tuple[Levelized, set]] = {}
        for node, _attr in edges:
            if node.rep is None:
                continue
            entry = by_rep.get(id(node.rep))
            if entry is None:
                entry = by_rep[id(node.rep)] = (node.rep, set())
            entry[1].add(node.nid)
        total = 0
        for rep, ids in by_rep.values():
            if ids == {ref >> 1 for ref in rep.roots if ref >> 1}:
                total += rep.size  # finished reps are pruned to their roots
            else:
                total += len(rep.reachable_ids(ids))
        return total

    # ------------------------------------------------------------------
    # memory management: residency budget and spilling
    # ------------------------------------------------------------------

    def _rebalance(self) -> None:
        """Spill least-recently-used representations down to the budget."""
        store = self._store
        if store.resident <= self.node_budget:
            return
        reps = sorted(
            (rep for rep in self._reps if rep.resident_count),
            key=lambda rep: rep.last_use,
        )
        for rep in reps:
            if store.resident <= self.node_budget:
                break
            rep.spill()

    def acquire_ref(self, node: XmemNode) -> None:
        """Representations are owned by their handles (plain refcounting)."""

    def release_ref(self, node: XmemNode) -> None:
        """Dropping the last handle lets CPython reclaim the rep; its
        finalizer releases residency and deletes spill files."""

    def inc_ref(self, edge) -> None:
        pass

    def dec_ref(self, edge) -> None:
        pass

    def defer_gc(self):
        import contextlib

        return contextlib.nullcontext(self)

    def size(self) -> int:
        """Total live node records across representations (resident + spilled)."""
        return sum(rep.size for rep in self._reps)

    @property
    def peak_resident(self) -> int:
        return self._store.peak_resident

    def resident_blocks(self) -> int:
        """Level blocks currently resident in RAM across representations."""
        return sum(
            1
            for rep in self._reps
            for block in rep.levels
            if block.records is not None and block.count
        )

    def stats(self) -> dict:
        store = self._store
        return {
            "backend": self.backend,
            "node_budget": self.node_budget,
            "request_chunk": self._request_chunk,
            "live_nodes": self.size(),
            "resident_nodes": store.resident,
            "resident_blocks": self.resident_blocks(),
            "peak_resident": store.peak_resident,
            "spilled_nodes": store.spilled_nodes,
            "spill_writes": store.spill_writes,
            "spill_bytes": store.spill_bytes,
            "level_loads": store.level_loads,
            "request_runs_spilled": store.runs_spilled,
            "merge_passes": store.merge_passes,
            "reps": len(self._reps),
        }

    def table_stats(self) -> dict:
        return self.stats()

    def collect_metrics(self, registry) -> None:
        """Sample the spill store's counters into an obs registry.

        Pull-based observability hook (see :mod:`repro.obs`): spill
        accounting stays on the store's native counters and is mapped
        onto the catalogued ``repro_xmem_*`` families at snapshot time.
        """
        from repro.obs.catalog import family

        store = self._store
        family(registry, "repro_xmem_spill_bytes_total").inc(store.spill_bytes)
        family(registry, "repro_xmem_level_spills_total").inc(
            store.spill_writes
        )
        family(registry, "repro_xmem_spilled_nodes_total").inc(
            store.spilled_nodes
        )
        family(registry, "repro_xmem_level_loads_total").inc(store.level_loads)
        family(registry, "repro_xmem_request_runs_spilled_total").inc(
            store.runs_spilled
        )
        family(registry, "repro_xmem_merge_passes_total").inc(
            store.merge_passes
        )
        family(registry, "repro_xmem_resident_nodes").inc(store.resident)
        family(registry, "repro_xmem_resident_blocks").inc(
            self.resident_blocks()
        )
        family(registry, "repro_xmem_peak_resident_nodes").inc(
            store.peak_resident
        )
        family(registry, "repro_xmem_live_nodes").inc(self.size())

    # ------------------------------------------------------------------
    # row replay (repro.io): rows build inside one builder
    # ------------------------------------------------------------------

    def row_target(self) -> "_BuilderTarget":
        """Replayed rows build as refs of one builder, finished into one
        representation for every root (see :class:`_BuilderTarget`)."""
        return _BuilderTarget(self)

    # ------------------------------------------------------------------
    # debugging
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Validate the canonical-form invariants of every live rep."""
        from repro.core.exceptions import InvariantViolation

        for rep in self._reps:
            for nid, pos, sv_delta, neq_ref, eq_ref in rep.iter_records():
                if sv_delta == 0:
                    if neq_ref or eq_ref:
                        raise InvariantViolation(f"malformed literal record {nid}")
                    continue
                if eq_ref & 1:
                    raise InvariantViolation(f"complemented =-edge on node {nid}")
                if neq_ref == eq_ref:
                    raise InvariantViolation(f"R2 violation on node {nid}")
                sv_pos = pos + sv_delta
                for ref in (neq_ref, eq_ref):
                    child = ref >> 1
                    if child:
                        if child >= nid:
                            raise InvariantViolation(
                                f"forward reference {nid} -> {child}"
                            )
                        if rep.pos_of(child) < sv_pos:
                            raise InvariantViolation(
                                f"child order violation {nid} -> {child}"
                            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        store = self._store
        return (
            f"<XmemManager vars={len(self._names)} live={self.size()} "
            f"resident={store.resident}/{self.node_budget}>"
        )


class _BuilderTarget:
    """Row replay target of :class:`repro.io.migrate.ForestRebuilder`.

    Rows build as packed refs of one :class:`~repro.xmem.builder.Builder`
    — couples through :meth:`Builder.make`, literals through
    :meth:`Builder.literal`, everything else as in-builder ``ite``
    sweeps — and :meth:`finish_rows` closes the builder into one
    representation shared by every root.
    """

    true_edge = 0

    def __init__(self, manager: XmemManager) -> None:
        self.manager = manager
        self.builder = Builder(manager)

    @staticmethod
    def negate_edge(ref: int) -> int:
        return ref ^ 1

    def literal_edge(self, var: int) -> int:
        return self.builder.literal(var)

    def apply_edges(self, f: int, g: int, op: int) -> int:
        builder = self.builder
        return apply_refs(self.manager, builder, builder, f, builder, g, op)

    def ite_edges(self, f: int, g: int, h: int) -> int:
        builder = self.builder
        return ite_refs(
            self.manager, builder, builder, f, builder, g, builder, h
        )

    def make_row(self, pv: int, sv, t: int, f: int):
        if sv is not None:
            return self.builder.make(pv, sv, t, f)
        if t == 0 and f == 1:
            return self.builder.literal(pv)
        return None

    def finish_rows(self, refs: List[int]) -> list:
        manager = self.manager
        rep, roots = self.builder.finish(refs)  # sink refs pass through
        manager._register(rep)
        edges = [
            (manager._handle(rep, ref >> 1) if ref >> 1 else manager._sink, bool(ref & 1))
            for ref in roots
        ]
        manager._rebalance()
        return edges


class _LevelStream:
    """Level blocks of xmem representations as column slices.

    Re-iterable: every pass streams the blocks anew, shallowest first,
    spilling each behind itself over budget (see
    :meth:`XmemManager.freeze_export`).  Indexing gives a slot's primary
    variable from the level directory, without loading its block.
    """

    def __init__(self, manager: XmemManager, reps: List[Tuple[Levelized, int]]) -> None:
        self._manager = manager
        self._reps = reps
        self._var_at = manager._order.order

    def __iter__(self):
        manager = self._manager
        store = manager._store
        var_at = self._var_at
        for rep, top in self._reps:
            for index in range(len(rep.levels) - 1, -1, -1):
                block = rep.levels[index]
                if block.count == 0:
                    continue
                records = rep._ensure(index)
                pos = block.position
                sv: List[int] = []
                t: List[int] = []
                f: List[int] = []
                # Highest id first: slots ascend through the block.
                for sv_delta, neq_ref, eq_ref in reversed(records):
                    if sv_delta == 0:
                        # Literal record: the ``=``-edge is the regular
                        # sink, the ``!=``-edge the complemented one.
                        sv.append(-1)
                        t.append(1)
                        f.append(-1)
                        continue
                    sv.append(var_at[pos + sv_delta])
                    for ref, column in ((neq_ref, t), (eq_ref, f)):
                        slot = top - (ref >> 1) if ref >> 1 else 1
                        column.append(-slot if ref & 1 else slot)
                last = rep.starts[index] + block.count - 1
                yield (top - last, [var_at[pos]] * block.count, sv, t, f)
                if store.resident > manager.node_budget:
                    rep.spill_block(index)

    def __getitem__(self, slot: int) -> int:
        for rep, top in self._reps:
            if slot < top:
                return self._var_at[rep.pos_of(top - slot)]
        raise IndexError(slot)


def _cleanup_store_dir(store: SpillStore) -> None:
    if store._dir is not None:
        shutil.rmtree(store._dir, ignore_errors=True)


install_function_helpers(XmemManager, XmemFunction)


def open_xmem(variables, **kwargs) -> XmemManager:
    """Factory registered as the ``"xmem"`` backend."""
    return XmemManager(variables, **kwargs)

