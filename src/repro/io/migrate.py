"""Cross-manager migration: rebuild decision diagrams in another manager.

Three entry points share the rebuild machinery:

* :class:`ForestRebuilder` — drives the codecs (:mod:`repro.io.binary`,
  :mod:`repro.io.jsondump`): given a dump's variable order it replays
  serialized node records inside a target manager, re-reducing on the
  fly (see `Rebuild semantics` below).
* :class:`Migrator` — copies *live* BBDD functions into another BBDD
  manager without a serialization round trip, with optional variable
  renaming.
* :class:`ProtocolMigrator` / :func:`migrate_forest` — the
  backend-agnostic path: copies live functions between *any* pair of
  :class:`repro.api.base.DDManager` backends (BBDD -> BDD,
  BDD -> BBDD, BDD -> BDD, ...) by replaying each source node through
  the target's protocol operations (a Shannon node becomes
  ``ite(v, t, e)``, a biconditional couple ``ite(v <-> w, eq, neq)``).
  :func:`migrate_forest` picks a structural fast path automatically
  when both managers share a record layout (BBDD pairs, and any pair
  involving the external-memory ``xmem`` backend, whose levelized
  representation is this format's record shape).

``migrate_forest`` used to be exported as ``migrate``, which shadowed
this very module in the ``repro.io`` namespace (``import
repro.io.migrate`` yielded the *function*, so
``repro.io.migrate.ProtocolMigrator`` raised ``AttributeError``).
``repro.io.migrate`` is the module; the function is
:func:`migrate_forest`.

Rebuild semantics
-----------------
When the target manager's order preserves the relative order of the
dump's variables (extra target variables may interleave freely — couples
chain over *support*, so they never appear in the rebuilt nodes), every
record maps to a single :meth:`BBDDManager._make` call, which re-applies
rules R1/R2/R4 and the complement normalization.  Otherwise each chain
node ``(v, w)`` is rebuilt semantically from the biconditional expansion
``f = (v = w) ? f_eq : f_neq`` — one XNOR node plus an ITE — which
re-canonicalizes the function under the target order.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Sequence, Union

from repro.api.base import FunctionBase, rebuild_function
from repro.core import apply as _ops
from repro.core.exceptions import BBDDError, VariableError
from repro.core.function import Function
from repro.core.node import SINK, SV_ONE, Edge
from repro.core.operations import OP_XNOR

from repro.io.format import FormatError, LITERAL_TAG, SINK_ID, unpack_ref

Rename = Union[None, Mapping[str, str], Callable[[str], str]]


def _resolve_rename(rename: Rename) -> Callable[[str], str]:
    if rename is None:
        return lambda name: name
    if callable(rename):
        return rename
    mapping = dict(rename)
    return lambda name: mapping.get(name, name)


class ForestRebuilder:
    """Replays a serialized forest inside a target manager.

    Parameters
    ----------
    manager:
        The target :class:`~repro.core.manager.BBDDManager`.
    ordered_names:
        The dump's variable names, root to bottom (its CVO).
    rename:
        Optional variable renaming applied before resolving names in the
        target manager (a mapping or a callable; unknown names raise
        :class:`~repro.core.exceptions.VariableError`).
    """

    def __init__(
        self,
        manager,
        ordered_names: Sequence[str],
        rename: Rename = None,
    ) -> None:
        self.manager = manager
        rename_fn = _resolve_rename(rename)
        try:
            self._var_at = [
                manager.var_index(rename_fn(name)) for name in ordered_names
            ]
        except VariableError as exc:
            raise VariableError(
                f"dump variable missing from target manager: {exc}"
            ) from None
        positions = [manager.order.position(v) for v in self._var_at]
        #: Whether the dump's relative variable order survives in the
        #: target — the precondition for the structural `_make` fast path.
        self.order_preserved = all(
            a < b for a, b in zip(positions, positions[1:])
        )
        #: Replayed edges by file id; id 0 is the sink (+1 in the flat
        #: store's signed-int edge coding).
        self._edges: List[Edge] = [SINK]
        self._xnor_cache: Dict[tuple, Edge] = {}

    # -- structural primitives (shared with the live Migrator) ----------

    def make_literal(self, position: int) -> Edge:
        """Rebuild a literal (R4) node for the variable at ``position``."""
        var = self._var_at[position]
        return self.manager.literal_node(var)

    def make_chain(self, position: int, sv_position: int, d: Edge, e: Edge) -> Edge:
        """Rebuild a chain node ``(PV, SV)`` with children ``d`` / ``e``."""
        mgr = self.manager
        pv = self._var_at[position]
        sv = self._var_at[sv_position]
        if self.order_preserved:
            return mgr._make(pv, sv, d, e)
        biq = self._xnor_cache.get((pv, sv))
        if biq is None:
            biq = mgr.apply_edges(
                mgr.literal_edge(pv), mgr.literal_edge(sv), OP_XNOR
            )
            self._xnor_cache[(pv, sv)] = biq
        return _ops.ite(mgr, biq, e, d)

    # -- record replay (used by the codecs) ------------------------------

    def add_record(
        self, position: int, sv_delta: int, neq_ref: int, eq_ref: int
    ) -> Edge:
        """Replay one serialized node record; returns its rebuilt edge.

        Node ids are assigned in replay order (the file's id space);
        refs must point at already-replayed ids.  Positions come from
        the (untrusted) dump, so they are bounds-checked here — every
        malformed-record failure surfaces as :class:`FormatError`.
        """
        n = len(self._var_at)
        if not 0 <= position < n:
            raise FormatError(f"record position {position} out of range 0..{n - 1}")
        if sv_delta and not position + sv_delta < n:
            raise FormatError(
                f"record SV position {position + sv_delta} out of range (PV at "
                f"{position}, {n} variables)"
            )
        if sv_delta == LITERAL_TAG:
            edge = self.make_literal(position)
        else:
            edge = self.make_chain(
                position,
                position + sv_delta,
                self.edge_for(neq_ref),
                self.edge_for(eq_ref),
            )
        self._edges.append(edge)
        return edge

    def edge_for(self, ref: int) -> Edge:
        """Resolve a packed edge ref against the replayed id table."""
        node_id, attr = unpack_ref(ref)
        if not 0 <= node_id < len(self._edges):
            raise FormatError(f"edge ref to unwritten node id {node_id}")
        edge = self._edges[node_id]
        return -edge if attr else edge

    @property
    def replayed(self) -> int:
        """Number of node records replayed so far (sink excluded)."""
        return len(self._edges) - 1 - SINK_ID


class Migrator:
    """Copies live functions from ``src`` into ``dst`` (memoized)."""

    def __init__(self, src, dst, rename: Rename = None) -> None:
        if src is dst:
            raise BBDDError("source and target managers must differ")
        self.src = src
        self.dst = dst
        ordered_names = [src.var_name(v) for v in src.order.order]
        self._rebuilder = ForestRebuilder(dst, ordered_names, rename=rename)
        #: Source node index -> rebuilt signed edge in ``dst``.
        self._memo: Dict[int, Edge] = {}

    def edge(self, edge: Edge) -> Edge:
        """Copy a bare edge into the target manager (memoized)."""
        # The memo and the copies are bare edges in ``dst``; keep its
        # automatic GC out of the way while the copy is in flight.
        with self.dst.defer_gc():
            copied = self._copy(-edge if edge < 0 else edge)
        return -copied if edge < 0 else copied

    def function(self, f: Function) -> Function:
        """Copy a source function; repeated calls keep the sharing."""
        if f.manager is not self.src:
            raise BBDDError("function does not belong to the source manager")
        with self.dst.defer_gc():
            return Function(self.dst, self.edge(f.edge))

    def _copy(self, node: int) -> Edge:
        """Copy node ``node`` into ``dst`` (iterative post-order, deep-safe)."""
        if node == SINK:
            return SINK
        src = self.src
        pvl = src._pv
        svl = src._sv
        neql = src._neq
        eql = src._eq
        memo = self._memo
        position = src.order.position
        stack: List[int] = [node]
        while stack:
            top = stack[-1]
            if top in memo:
                stack.pop()
                continue
            if svl[top] == SV_ONE:
                memo[top] = self._rebuilder.make_literal(position(pvl[top]))
                stack.pop()
                continue
            d = neql[top]
            dn = -d if d < 0 else d
            pending = [
                c for c in (dn, eql[top]) if c != SINK and c not in memo
            ]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            eq = eql[top]
            e_copy = SINK if eq == SINK else memo[eq]
            d_copy = SINK if dn == SINK else memo[dn]
            if d < 0:
                d_copy = -d_copy
            memo[top] = self._rebuilder.make_chain(
                position(pvl[top]),
                position(svl[top]),
                d_copy,
                e_copy,
            )
        return memo[node]


class ProtocolMigrator:
    """Copies live functions between any two protocol backends.

    Works node by node through the target's :class:`repro.api.base.DDManager`
    protocol operations, so the source and target representations may
    differ: each Shannon node is rebuilt as ``ite(v, then, else)``, each
    biconditional couple as ``ite(v <-> w, eq, neq)`` and each literal
    as the target's projection function.  Copies are memoized per source
    node (complements ride on the handles), and the walk is iterative —
    deep diagrams migrate without touching the recursion limit.
    """

    def __init__(self, src, dst, rename: Rename = None) -> None:
        if src is dst:
            raise BBDDError("source and target managers must differ")
        self.src = src
        self.dst = dst
        self._rename = _resolve_rename(rename)
        self._memo: Dict[object, FunctionBase] = {}
        self._vars: Dict[int, FunctionBase] = {}

    def _dst_var(self, index: int) -> FunctionBase:
        f = self._vars.get(index)
        if f is None:
            name = self._rename(self.src.var_name(index))
            try:
                f = self.dst.function(self.dst.literal_edge(name))
            except VariableError:
                raise VariableError(
                    f"source variable missing from target manager: {name!r}"
                ) from None
            self._vars[index] = f
        return f

    def function(self, f: FunctionBase) -> FunctionBase:
        """Rebuild a source function in the target through the protocol."""
        if f.manager is not self.src:
            raise BBDDError("function does not belong to the source manager")
        copied = rebuild_function(
            self.src, f.node, self._dst_var, self.dst, memo=self._memo
        )
        return ~copied if f.attr else copied


def _migrator_for(src, dst, rename: Rename):
    """Pick the cheapest migrator for a backend pair.

    Structural fast paths (record replay, no protocol ``ite`` chains)
    exist for BBDD -> BBDD and for every pair involving the levelized
    ``xmem`` backend; everything else takes the generic
    :class:`ProtocolMigrator`.
    """
    src_backend = getattr(src, "backend", None)
    dst_backend = getattr(dst, "backend", None)
    if src_backend == "bbdd" and dst_backend == "bbdd":
        return Migrator(src, dst, rename=rename)
    if dst_backend == "xmem" and src_backend in ("bbdd", "xmem"):
        from repro.xmem.convert import ToXmemMigrator

        return ToXmemMigrator(src, dst, rename=rename)
    if src_backend == "xmem" and dst_backend == "bbdd":
        from repro.xmem.convert import XmemToBBDDMigrator

        return XmemToBBDDMigrator(src, dst, rename=rename)
    return ProtocolMigrator(src, dst, rename=rename)


def migrate_forest(functions, dst, rename: Rename = None):
    """Copy functions into the manager ``dst``, remapping variables by name.

    ``functions`` may be a single function handle, a sequence, or a
    name-keyed mapping; the result mirrors the input shape.  All inputs
    must share one source manager.  Source and target may use different
    backends — a BBDD forest migrates into a BDD manager and vice versa
    (re-canonicalized through the target's protocol operations).
    """
    if isinstance(functions, FunctionBase):
        return _migrator_for(functions.manager, dst, rename).function(functions)
    if isinstance(functions, Mapping):
        items = list(functions.items())
        if not items:
            return {}
        mig = _migrator_for(items[0][1].manager, dst, rename)
        return {name: mig.function(f) for name, f in items}
    items = list(functions)
    if not items:
        return []
    mig = _migrator_for(items[0].manager, dst, rename)
    return [mig.function(f) for f in items]

