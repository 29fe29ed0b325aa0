"""The baseline BDD manager (CUDD-substitute).

Implements the classic apply over Shannon expansions with a computed
table, complement-edge normalization (then-edges regular), a
strong-canonical unique table and reference-counting garbage collection —
the same machinery CUDD uses.  The nodes live in the same flat store as
the BBDD package's (:class:`repro.core.store.NodeStore`), with the same
signed-int edges, reference counts, automatic GC and level index, so
that Table I compares the *representations* (BBDD vs. BDD) rather than
implementation substrates.

A node testing ``var`` is the single-variable row
``(var, SV_ONE, else, then)``: the then-edge sits in the always-regular
``_eq`` column and the else-edge, signed, in ``_neq``.  Like the BBDD
core, the apply engine iterates over an explicit pending-frame stack, so
operand depth never touches the Python recursion limit.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

from repro.core.node import SINK, SV_ONE, Edge
from repro.core.operations import (
    UNARY_FALSE,
    UNARY_ID,
    UNARY_TRUE,
    diagonal,
    flip_a,
    flip_b,
    is_commutative,
    restrict_a,
    restrict_b,
)
from repro.core.store import NodeStore

#: Pending-frame tags of the iterative apply engine.
_CALL = 0
_COMBINE = 1


class BDDManager(NodeStore):
    """Shared manager for a forest of ROBDDs (mirrors BBDDManager's API).

    Automatic GC runs at the store's defaults (see
    :class:`~repro.core.store.NodeStore`).
    """

    #: Registry name of this backend in the repro.api front end.
    backend = "bdd"

    def __init__(
        self,
        variables: Union[int, Sequence[str]],
        computed_backend: str = "dict",
    ) -> None:
        super().__init__(variables, computed_backend)

    def literal_edge(self, var: Union[int, str], positive: bool = True) -> Edge:
        edge = self._make(self.var_index(var), SINK, -SINK)
        return edge if positive else -edge

    # ------------------------------------------------------------------
    # canonical node construction
    # ------------------------------------------------------------------

    def _make(self, var: int, t: Edge, e: Edge) -> Edge:
        """Get-or-create the row ``(var, then=t, else=e)`` in canonical form.

        Equal children collapse (R2).  Then-edges are stored regular: a
        complemented ``t`` complements both children and the returned
        edge.  A fresh row is born floating, holding both children.
        """
        if t == e:
            return t
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
            _by_sv,
        ) = self._hot
        attr = t < 0
        if attr:
            t = -t
            e = -e
        key = (var, SV_ONE, e, t)
        self._unique_lookups += 1
        node = raw.get(key)
        if node is not None:
            self._unique_hits += 1
            return -node if attr else node
        en = -e if e < 0 else e
        supp = bits[var] | suppl[t] | suppl[en]
        if free:
            node = free.pop()
            pvl[node] = var
            svl[node] = SV_ONE
            neql[node] = e
            eql[node] = t
            refl[node] = 0
            suppl[node] = supp
        else:
            node = len(pvl)
            pvl.append(var)
            svl.append(SV_ONE)
            neql.append(e)
            eql.append(t)
            refl.append(0)
            suppl.append(supp)
            fl.append(0)
        fl[node] = 1
        raw[key] = node
        # Birth acquires both children (see BBDDManager._make).
        for child in (t, en):
            r = refl[child]
            if r:
                refl[child] = r + 1
            elif fl[child]:
                fl[child] = 0
                refl[child] = 1
                dead_set.discard(child)
            else:
                self._ref_index(child)
        if by_pv is not None:
            by_pv[var].add(node)
        self._node_count += 1
        dead_set.add(node)
        if self._node_count > self.peak_nodes:
            self.peak_nodes = self._node_count
        return -node if attr else node

    # ------------------------------------------------------------------
    # iterative apply (Shannon expansion)
    # ------------------------------------------------------------------

    def apply_edges(self, f: Edge, g: Edge, op: int) -> Edge:
        """Compute ``f (op) g``; ``op`` is a 4-bit operator table.

        Operand complements fold into the operator, so the engine and
        the computed table see regular operands.  A safe point: an armed
        automatic GC runs after the result is computed (the result
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
            from time import perf_counter

            start = perf_counter()
        self._in_op += 1
        try:
            result = self._apply(f, g, op)
        finally:
            self._in_op -= 1
        if traced:
            from repro.obs import trace

            trace.record("apply", perf_counter() - start, backend="bdd")
        self._maybe_gc_protect(result)
        return result

    @staticmethod
    def _unary(outcome: str, node: int) -> Edge:
        if outcome == UNARY_FALSE:
            return -SINK
        if outcome == UNARY_TRUE:
            return SINK
        if outcome == UNARY_ID:
            return node
        return -node

    def _apply(self, fn: int, gn: int, op: int) -> Edge:
        """Iterative apply over an explicit pending-frame stack.

        Frames are ``(_CALL, fn, gn, op)`` on regular operands or
        ``(_COMBINE, var, key, 0)``; the then-branch frame is pushed
        last so it expands first, matching the recursive formulation's
        evaluation order.
        """
        position = self._order._position
        # Probe counts settle on the store in bulk on exit.
        lookup = self._cache.get
        insert = self._cache.__setitem__
        n_lookups = 0
        n_hits = 0
        make = self._make
        unary = self._unary
        pvl = self._pv
        neql = self._neq
        eql = self._eq
        results: List[Edge] = []
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
                result = make(a, t, e)
                insert(b, result)
                rpush(result)
                continue
            fn, gn, op = a, b, c
            if fn == SINK:
                rpush(unary(restrict_a(op, 1), gn))
                continue
            if gn == SINK:
                rpush(unary(restrict_b(op, 1), fn))
                continue
            if fn == gn:
                rpush(unary(diagonal(op), fn))
                continue
            if ((op >> 1) & 0b101) == (op & 0b101):
                rpush(unary(restrict_b(op, 0), fn))
                continue
            if ((op >> 2) & 0b11) == (op & 0b11):
                rpush(unary(restrict_a(op, 0), gn))
                continue

            if is_commutative(op) and gn < fn:
                fn, gn = gn, fn
            key = (fn, gn, op)
            n_lookups += 1
            cached = lookup(key)
            if cached is not None:
                n_hits += 1
                rpush(cached)
                continue

            pf = position[pvl[fn]]
            pg = position[pvl[gn]]
            if pf <= pg:
                var = pvl[fn]
                f_t = eql[fn]
                f_e = neql[fn]
            else:
                var = pvl[gn]
                f_t = f_e = fn
            if pg <= pf:
                g_t = eql[gn]
                g_e = neql[gn]
            else:
                g_t = g_e = gn

            tpush((_COMBINE, var, key, 0))
            sub = op
            if f_e < 0:
                sub = flip_a(sub)
                f_e = -f_e
            if g_e < 0:
                sub = flip_b(sub)
                g_e = -g_e
            tpush((_CALL, f_e, g_e, sub))
            # Then-edges are regular: the operator carries over as is.
            tpush((_CALL, f_t, g_t, op))
        self._computed_lookups += n_lookups
        self._computed_hits += n_hits
        return results[-1]

    # ------------------------------------------------------------------
    # uniform DD protocol (repro.api) — derived ops
    # ------------------------------------------------------------------
    #
    # Full parity with the BBDD core: native iterative ite / restrict /
    # compose / quantification live in :mod:`repro.bdd.ops`; the
    # wrappers below bind them to the backend-agnostic
    # :class:`repro.api.base.DDManager` edge protocol.  The read-only
    # queries (evaluation, support, sat_one, counting, freeze_export)
    # come from the store.

    def ite_edges(self, f: Edge, g: Edge, h: Edge) -> Edge:
        from repro.bdd import ops as _ops

        return _ops.ite(self, f, g, h)

    def restrict_edge(self, edge: Edge, var, value: bool) -> Edge:
        from repro.bdd import ops as _ops

        return _ops.restrict(self, edge, var, value)

    def compose_edge(self, edge: Edge, var, g: Edge) -> Edge:
        from repro.bdd import ops as _ops

        return _ops.compose(self, edge, var, g)

    def quantify_edge(self, edge: Edge, variables, forall: bool = False) -> Edge:
        from repro.bdd import ops as _ops

        if forall:
            return _ops.forall(self, edge, variables)
        return _ops.exists(self, edge, variables)

    def and_exists_edges(self, f: Edge, g: Edge, variables) -> Edge:
        from repro.bdd import ops as _ops

        return _ops.and_exists(self, f, g, variables)

    def make_row(self, pv: int, sv, t: Edge, f: Edge):
        """A replayed io row as a Shannon node (None: a couple)."""
        return self._make(pv, t, f) if sv is None else None

    def sift(self, **kwargs):
        """Reorder variables with Rudell's sifting (see repro.bdd.reorder)."""
        from repro.bdd.reorder import sift_bdd as _sift

        return _sift(self, **kwargs)

    # ------------------------------------------------------------------
    # store hooks: level index and row rules
    # ------------------------------------------------------------------

    def _scan_levels(self):
        """``(by_pv, None)``: every row by its variable.

        The level swap rewrites the rows of the upper variable and the
        sifting driver ranks variables by their row counts, so every row
        is indexed.  Rows have no secondary variable.
        """
        pvl = self._pv
        by_pv: Dict[int, set] = {v: set() for v in range(len(self._names))}
        for node in self._uniq_raw.values():
            by_pv[pvl[node]].add(node)
        return by_pv, None

    def _check_row(self, node: int) -> None:
        """The ROBDD row rules (see ``NodeStore.check_invariants``).

        Every row tests one variable, keeps its then-edge regular, has
        two different children rooted strictly below it and carries its
        exact support mask.
        """
        from repro.core.exceptions import InvariantViolation

        position = self._order.position
        pvl = self._pv
        suppl = self._supp
        if self._sv[node] != SV_ONE:
            raise InvariantViolation(f"couple row in a BDD store: {node}")
        t = self._eq[node]
        e = self._neq[node]
        if t < 0:
            raise InvariantViolation(
                f"complemented then-edge on {self.node_view(node)!r}"
            )
        if t == e:
            raise InvariantViolation(
                f"identical children: {self.node_view(node)!r}"
            )
        en = -e if e < 0 else e
        pos = position(pvl[node])
        for child in (t, en):
            if child != SINK and position(pvl[child]) <= pos:
                raise InvariantViolation(
                    f"order violation {self.node_view(node)!r} -> "
                    f"{self.node_view(child)!r}"
                )
        if suppl[node] != (1 << pvl[node]) | suppl[t] | suppl[en]:
            raise InvariantViolation(
                f"support mask mismatch: {self.node_view(node)!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BDDManager vars={len(self._names)} nodes={self._node_count}>"
