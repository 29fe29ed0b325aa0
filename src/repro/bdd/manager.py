"""The baseline BDD manager (CUDD-substitute).

Implements the classic apply over Shannon expansions with a computed
table, complement-edge normalization (then-edges regular), a
strong-canonical unique table and reference-counting garbage collection —
the same machinery CUDD uses, so that Table I compares the
*representations* (BBDD vs. BDD) rather than implementation substrates.
Like the BBDD core, the apply engine iterates over an explicit
pending-frame stack, so operand depth never touches the Python recursion
limit.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.api.base import Columns, DDManager
from repro.bdd.node import BDDEdge, BDDNode, make_bdd_sink
from repro.core.computed_table import make_computed_table
from repro.core.exceptions import BBDDError, VariableError
from repro.core.manager import _LevelIndex
from repro.core.operations import (
    OP_AND,
    OP_OR,
    OP_XOR,
    UNARY_FALSE,
    UNARY_ID,
    UNARY_TRUE,
    diagonal,
    flip_a,
    flip_b,
    is_commutative,
    op_from_name,
    restrict_a,
    restrict_b,
)
from repro.core.order import ChainVariableOrder
from repro.core.unique_table import UniqueTable

#: Pending-frame tags of the iterative apply engine.
_CALL = 0
_COMBINE = 1


class BDDManager(DDManager):
    """Shared manager for a forest of ROBDDs (mirrors BBDDManager's API)."""

    #: Registry name of this backend in the repro.api front end.
    backend = "bdd"

    def __init__(
        self,
        variables: Union[int, Sequence[str]],
        computed_backend: str = "dict",
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

        self._uid = 0
        self.sink = make_bdd_sink(self._next_uid())
        self._unique = UniqueTable()
        self._cache = make_computed_table(computed_backend)
        #: Nodes per variable, held only inside :meth:`_level_index`
        #: (reordering); ``None`` everywhere else.
        self._by_var: Optional[Dict[int, set]] = None
        self._level_depth = 0
        self._node_count = 0
        self.peak_nodes = 0
        self.gc_count = 0
        self.apply_calls = 0
        self.gc_reclaimed = 0

        from repro import obs  # late: avoids import cycles at package init

        self._trace_state = obs.trace.STATE
        obs.track(self)

    # ------------------------------------------------------------------
    # identifiers, variables, order
    # ------------------------------------------------------------------

    def _next_uid(self) -> int:
        self._uid += 1
        return self._uid

    @property
    def num_vars(self) -> int:
        return len(self._names)

    @property
    def var_names(self) -> tuple:
        return tuple(self._names)

    def var_index(self, var: Union[int, str]) -> int:
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

    @property
    def order(self) -> ChainVariableOrder:
        return self._order

    def current_order(self) -> tuple:
        return tuple(self._names[v] for v in self._order.order)

    # ------------------------------------------------------------------
    # terminals and literals
    # ------------------------------------------------------------------

    @property
    def true_edge(self) -> BDDEdge:
        return (self.sink, False)

    @property
    def false_edge(self) -> BDDEdge:
        return (self.sink, True)

    def literal_edge(self, var: Union[int, str], positive: bool = True) -> BDDEdge:
        index = self.var_index(var)
        edge = self._make(index, self.true_edge, self.false_edge)
        if not positive:
            edge = (edge[0], not edge[1])
        return edge

    # ------------------------------------------------------------------
    # canonical node construction
    # ------------------------------------------------------------------

    def _make(self, var: int, t: BDDEdge, e: BDDEdge) -> BDDEdge:
        """Get-or-create node ``(var, then=t, else=e)`` in canonical form."""
        tn, ta = t
        en, ea = e
        if tn is en and ta == ea:
            return t
        attr = False
        if ta:
            # Then-edges are stored regular: complement both children and
            # return a complemented external edge.
            attr = True
            ta = False
            ea = not ea
        key = (var, tn.uid, en.uid, ea)
        node = self._unique.lookup(key)
        if node is None:
            node = BDDNode(var, tn, en, ea, self._next_uid())
            self._unique.insert(key, node)
            tn.ref += 1
            en.ref += 1
            if self._by_var is not None:
                self._by_var[var].add(node)
            self._node_count += 1
            if self._node_count > self.peak_nodes:
                self.peak_nodes = self._node_count
        return (node, attr)

    # ------------------------------------------------------------------
    # iterative apply (Shannon expansion)
    # ------------------------------------------------------------------

    def apply_edges(self, f: BDDEdge, g: BDDEdge, op: int) -> BDDEdge:
        fn, fa = f
        if fa:
            op = flip_a(op)
        gn, ga = g
        if ga:
            op = flip_b(op)
        self.apply_calls += 1
        if self._trace_state.enabled:
            from time import perf_counter

            from repro.obs import trace

            start = perf_counter()
            result = self._apply(fn, gn, op)
            trace.record("apply", perf_counter() - start, backend="bdd")
            return result
        return self._apply(fn, gn, op)

    def apply_named(self, f: BDDEdge, g: BDDEdge, name: str) -> BDDEdge:
        return self.apply_edges(f, g, op_from_name(name))

    def _unary(self, outcome: str, node: BDDNode) -> BDDEdge:
        if outcome == UNARY_FALSE:
            return (self.sink, True)
        if outcome == UNARY_TRUE:
            return (self.sink, False)
        if outcome == UNARY_ID:
            return (node, False)
        return (node, True)

    def _apply(self, fn: BDDNode, gn: BDDNode, op: int) -> BDDEdge:
        """Iterative apply over an explicit pending-frame stack.

        Frames are ``(_CALL, fn, gn, op)`` or ``(_COMBINE, var, key, 0)``;
        the then-branch frame is pushed last so it expands first, matching
        the recursive formulation's evaluation order.
        """
        position = self._order.position
        lookup = self._cache.lookup
        insert = self._cache.insert
        results: List[BDDEdge] = []
        rpush = results.append
        rpop = results.pop
        tasks: List[tuple] = [(_CALL, fn, gn, op)]
        tpush = tasks.append
        tpop = tasks.pop
        while tasks:
            tag, a, b, c = tpop()
            if tag == _COMBINE:
                e = rpop()
                t = rpop()
                result = self._make(a, t, e)
                insert(b, result)
                rpush(result)
                continue
            fn, gn, op = a, b, c
            if fn.is_sink:
                rpush(self._unary(restrict_a(op, 1), gn))
                continue
            if gn.is_sink:
                rpush(self._unary(restrict_b(op, 1), fn))
                continue
            if fn is gn:
                rpush(self._unary(diagonal(op), fn))
                continue
            if ((op >> 1) & 0b101) == (op & 0b101):
                rpush(self._unary(restrict_b(op, 0), fn))
                continue
            if ((op >> 2) & 0b11) == (op & 0b11):
                rpush(self._unary(restrict_a(op, 0), gn))
                continue

            if is_commutative(op) and gn.uid < fn.uid:
                fn, gn = gn, fn
            key = (fn.uid, gn.uid, op)
            cached = lookup(key)
            if cached is not None:
                rpush(cached)
                continue

            pf = position(fn.var)
            pg = position(gn.var)
            if pf <= pg:
                var = fn.var
                f_t, f_e = (fn.then, False), (fn.else_, fn.else_attr)
            else:
                var = gn.var
                f_t = f_e = (fn, False)
            if pg <= pf:
                g_t, g_e = (gn.then, False), (gn.else_, gn.else_attr)
            else:
                g_t = g_e = (gn, False)

            tpush((_COMBINE, var, key, 0))
            n1, a1 = f_e
            n2, a2 = g_e
            sub = op
            if a1:
                sub = flip_a(sub)
            if a2:
                sub = flip_b(sub)
            tpush((_CALL, n1, n2, sub))
            n1, a1 = f_t
            n2, a2 = g_t
            sub = op
            if a1:
                sub = flip_a(sub)
            if a2:
                sub = flip_b(sub)
            tpush((_CALL, n1, n2, sub))
        return results[-1]

    def and_edges(self, f: BDDEdge, g: BDDEdge) -> BDDEdge:
        return self.apply_edges(f, g, OP_AND)

    def or_edges(self, f: BDDEdge, g: BDDEdge) -> BDDEdge:
        return self.apply_edges(f, g, OP_OR)

    def xor_edges(self, f: BDDEdge, g: BDDEdge) -> BDDEdge:
        return self.apply_edges(f, g, OP_XOR)

    @staticmethod
    def not_edge(f: BDDEdge) -> BDDEdge:
        return (f[0], not f[1])

    def ite_edges(self, f: BDDEdge, g: BDDEdge, h: BDDEdge) -> BDDEdge:
        fg = self.and_edges(f, g)
        fh = self.and_edges((f[0], not f[1]), h)
        return self.or_edges(fg, fh)

    # ------------------------------------------------------------------
    # uniform DD protocol (repro.api) — derived ops and semantics
    # ------------------------------------------------------------------
    #
    # Full parity with the BBDD core: native iterative restrict /
    # compose / quantification live in :mod:`repro.bdd.ops`; the
    # wrappers below bind them (plus the semantics queries) to the
    # backend-agnostic :class:`repro.api.base.DDManager` edge protocol.

    def restrict_edge(self, edge: BDDEdge, var, value: bool) -> BDDEdge:
        from repro.bdd import ops as _ops

        return _ops.restrict(self, edge, var, value)

    def compose_edge(self, edge: BDDEdge, var, g: BDDEdge) -> BDDEdge:
        from repro.bdd import ops as _ops

        return _ops.compose(self, edge, var, g)

    def quantify_edge(self, edge: BDDEdge, variables, forall: bool = False) -> BDDEdge:
        from repro.bdd import ops as _ops

        if forall:
            return _ops.forall(self, edge, variables)
        return _ops.exists(self, edge, variables)

    def support_edge(self, edge: BDDEdge) -> frozenset:
        from repro.bdd import ops as _ops

        return _ops.support(self, edge)

    def and_exists_edges(self, f: BDDEdge, g: BDDEdge, variables) -> BDDEdge:
        from repro.bdd import ops as _ops

        return _ops.and_exists(self, f, g, variables)

    def evaluate_edge(self, edge: BDDEdge, values: Dict[int, bool]) -> bool:
        return self.evaluate(edge, values)

    def freeze_export(self, named) -> Columns:
        """The compiled query form of a named forest (one column block).

        One DFS over all roots collects the shared node set, and sorting
        by order position (then uid, for determinism) is a valid
        parents-first slot order for Shannon diagrams — children always
        sit at strictly later positions.
        """
        nodes = []
        seen = set()
        stack = []
        for _name, edge in named:
            node = edge[0]
            if not node.is_sink and node not in seen:
                seen.add(node)
                stack.append(node)
        while stack:
            node = stack.pop()
            nodes.append(node)
            for child in (node.then, node.else_):
                if not child.is_sink and child not in seen:
                    seen.add(child)
                    stack.append(child)
        position = self.order.position
        nodes.sort(key=lambda n: (position(n.var), n.uid))
        ids = {node: 2 + i for i, node in enumerate(nodes)}
        ids[self.sink] = 1
        pv = [0, 0]
        sv = [-1, -1]
        t = [0, 0]
        f = [0, 0]
        for node in nodes:
            pv.append(node.var)
            sv.append(-1)
            t.append(ids[node.then])
            f_ref = ids[node.else_]
            f.append(-f_ref if node.else_attr else f_ref)
        roots = {name: -ids[node] if attr else ids[node] for name, (node, attr) in named}
        return Columns(self.order.order, roots, [(0, pv, sv, t, f)], pv)

    def make_row(self, pv: int, sv, t: BDDEdge, f: BDDEdge):
        """A replayed io row as a Shannon node (None: a couple)."""
        return self._make(pv, t, f) if sv is None else None

    def compiled_root(self, edge: BDDEdge) -> Columns:
        """:meth:`freeze_export` of one root, kept by the computed table.

        Every table clear (GC, variable swaps) drops it with the apply
        entries.
        """
        return self._cache.compiled(edge, lambda: self.freeze_export([("f", edge)]))

    def sat_one_edge(self, edge: BDDEdge) -> Optional[Dict[int, bool]]:
        from repro.bdd import ops as _ops

        return _ops.sat_one_edge(self, edge)

    def root_var(self, edge: BDDEdge) -> int:
        """The first support variable (in order) — the root's label."""
        return edge[0].var

    def sift(self, **kwargs):
        """Reorder variables with Rudell's sifting (see repro.bdd.reorder)."""
        from repro.bdd.reorder import sift_bdd as _sift

        return _sift(self, **kwargs)

    # ------------------------------------------------------------------
    # semantics
    # ------------------------------------------------------------------

    def evaluate(self, edge: BDDEdge, values: Dict[int, bool]) -> bool:
        node, attr = edge
        while not node.is_sink:
            if values[node.var]:
                node = node.then
            else:
                attr ^= node.else_attr
                node = node.else_
        return not attr

    def count_nodes(self, edges: Iterable[BDDEdge]) -> int:
        seen: set = set()
        stack: List[BDDNode] = []
        for node, _attr in edges:
            if not node.is_sink and node not in seen:
                seen.add(node)
                stack.append(node)
        while stack:
            node = stack.pop()
            for child in (node.then, node.else_):
                if not child.is_sink and child not in seen:
                    seen.add(child)
                    stack.append(child)
        return len(seen)

    # ------------------------------------------------------------------
    # memory management
    # ------------------------------------------------------------------

    def size(self) -> int:
        return self._node_count

    def inc_ref(self, edge: BDDEdge) -> None:
        edge[0].ref += 1

    def dec_ref(self, edge: BDDEdge) -> None:
        edge[0].ref -= 1

    def acquire_ref(self, node: BDDNode) -> None:
        """Function-handle hook: acquire one reference on ``node``."""
        node.ref += 1

    def release_ref(self, node: BDDNode) -> None:
        """Function-handle hook: drop one reference (collected on gc())."""
        node.ref -= 1

    def gc(self) -> int:
        self._cache.clear()
        dead = [n for n in list(self._unique.values()) if n.ref == 0]
        reclaimed = 0
        for node in dead:
            if node.ref == 0:
                reclaimed += self._sweep(node)
        self.gc_count += 1
        self.gc_reclaimed += reclaimed
        return reclaimed

    def _sweep(self, node: BDDNode) -> int:
        reclaimed = 0
        stack = [node]
        while stack:
            n = stack.pop()
            if n.ref != 0 or n.is_sink:
                continue
            n.ref = -1
            self._unique.delete(n.key())
            self._node_count -= 1
            if self._by_var is not None:
                self._by_var[n.var].discard(n)
            for child in (n.then, n.else_):
                child.ref -= 1
                if child.ref == 0:
                    stack.append(child)
            reclaimed += 1
        return reclaimed

    def clear_cache(self) -> None:
        self._cache.clear()

    def defer_gc(self):
        """No-op GC deferral (API parity with the BBDD manager).

        The baseline package only collects on explicit :meth:`gc` calls,
        so shared drivers (e.g. the network builder) can hold bare edges
        freely; the context manager exists so they need not special-case
        the package.
        """
        import contextlib

        return contextlib.nullcontext(self)

    def _level_index(self) -> _LevelIndex:
        """Hold the per-variable node sets for a block (re-entrant).

        As on the BBDD manager: reordering builds them in one pass over
        the unique table when it starts, and the store keeps none
        outside it.
        """
        return _LevelIndex(self)

    def _scan_levels(self) -> Dict[int, set]:
        """The per-variable node sets from one pass over the unique table."""
        by_var: Dict[int, set] = {v: set() for v in range(len(self._names))}
        for node in self._unique.values():
            by_var[node.var].add(node)
        return by_var

    def _index_levels(self) -> None:
        self._by_var = self._scan_levels()

    def _drop_levels(self) -> None:
        self._by_var = None

    def nodes_with_pv(self, var: int) -> set:
        """Nodes labelled ``var`` (name kept parallel to the BBDD manager
        so the shared sifting driver works on both packages).

        Only inside :meth:`_level_index`, where reordering builds the
        sets; raises :class:`BBDDError` elsewhere.
        """
        if self._by_var is None:
            raise BBDDError("level sets exist only inside _level_index()")
        return self._by_var[var]

    def table_stats(self) -> dict:
        return {
            "unique": self._unique.stats(),
            "computed": self._cache.stats(),
            "nodes": self._node_count,
            "peak_nodes": self.peak_nodes,
            "apply_calls": self.apply_calls,
            "gc_runs": self.gc_count,
            "gc_reclaimed": self.gc_reclaimed,
        }

    def collect_metrics(self, registry) -> None:
        """Sample this manager's counters into an obs registry.

        Same catalogued families as the BBDD manager, labeled
        ``backend="bdd"`` (see :mod:`repro.obs`).
        """
        from repro.obs.catalog import family

        unique = self._unique.stats()
        computed = self._cache.stats()
        label = {"backend": "bdd"}
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
        dead = sum(1 for n in self._unique.values() if n.ref == 0)
        family(registry, "repro_manager_dead_nodes").labels(**label).inc(dead)

    # ------------------------------------------------------------------
    # debugging
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        from repro.core.exceptions import InvariantViolation

        order = self._order
        seen = set()
        for node in list(self._unique.values()):
            key = node.key()
            if key in seen:
                raise InvariantViolation(f"duplicate key {key}")
            seen.add(key)
            if self._unique.lookup(key) is not node:
                raise InvariantViolation(f"key {key} does not map back to node")
            if node.ref < 0:
                raise InvariantViolation(f"swept node in table: {node!r}")
            if node.then is node.else_ and not node.else_attr:
                raise InvariantViolation(f"identical children: {node!r}")
            pos = order.position(node.var)
            for child in (node.then, node.else_):
                if not child.is_sink and order.position(child.var) <= pos:
                    raise InvariantViolation(f"order violation {node!r} -> {child!r}")
        if self._by_var is not None:
            want = self._scan_levels()
            for var in self._by_var.keys() | want.keys():
                have = self._by_var.get(var, set())
                nodes = want.get(var, set())
                if have != nodes:
                    raise InvariantViolation(
                        f"node set of variable {var}: stale "
                        f"{sorted(n.uid for n in have - nodes)}, missing "
                        f"{sorted(n.uid for n in nodes - have)}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BDDManager vars={len(self._names)} nodes={self._node_count}>"
