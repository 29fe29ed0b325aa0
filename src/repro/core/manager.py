"""The BBDD manager: the biconditional expansion over the shared node store.

This module implements the manipulation core of Sec. IV of the paper on
the flat integer-coded store of :class:`repro.core.store.NodeStore`
(nodes are dense ints indexing parallel columns, an edge is one signed
int whose sign is the complement attribute, so ``NOT`` is unary minus
and the operator updates of Algorithm 1 (``updateop``) are integer
arithmetic).  The store owns the columns, reference counts, garbage
collection, level index and the read-only queries; this module adds what
is specific to biconditional expansions:

* ``_make`` — get-or-create a node in strong canonical form, enforcing
  reduction rules R1 (unique table), R2 (identical children), R4 (literal
  degeneration) and the complement-attribute normalization (``=``-edges
  are always regular, i.e. stored positive);
* ``apply_edges`` — Algorithm 1: any two-operand Boolean operation over
  biconditional expansions, with terminal-case short circuits, a computed
  table keyed on packed int tuples, operator update for complement
  attributes and on-the-fly chain transformation of operands (each
  transform derived once per operation).  The expansion is driven by an
  **explicit pending-frame stack**, not Python recursion, so operand
  depth is limited by memory alone;
* the derived operations (:mod:`repro.core.apply`) and CVO sifting
  (:mod:`repro.core.reorder`) bound to the
  :class:`~repro.api.base.DDManager` protocol.

A literal is the store row ``(v, SV_ONE, -1, 1)``: ``v`` tests itself,
with the sink on both edges.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Union

from repro.core.exceptions import BBDDError
from repro.core.node import SINK, SV_ONE, Edge
from repro.core.operations import (
    UNARY_FALSE,
    UNARY_ID,
    UNARY_NOT,
    UNARY_TRUE,
    diagonal,
    flip_a,
    flip_b,
    restrict_a,
    restrict_b,
)
from repro.core.store import NodeStore

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


class BBDDManager(NodeStore):
    """Shared manager for a forest of BBDDs over a common variable set.

    ``BBDDManager(variables, computed_backend="dict", auto_gc=True,
    gc_threshold=0.5, gc_min_nodes=1024)``: see
    :class:`~repro.core.store.NodeStore` for the parameters.
    """

    #: Registry name of this backend in the repro.api front end.
    backend = "bbdd"

    def cvo_couples(self) -> list:
        """The CVO couples as name pairs, SV of the bottom couple is '1'."""
        out = []
        for pv, sv in self._order.couples():
            out.append((self._names[pv], "1" if sv == SV_ONE else self._names[sv]))
        return out

    # ------------------------------------------------------------------
    # literals
    # ------------------------------------------------------------------

    def literal_node(self, var: int) -> int:
        """The R4 literal node index for ``var`` (created on demand).

        The row ``(var, SV_ONE, -1, 1)``.  Like every node, a fresh
        literal is born floating: count zero, holding both (sink)
        children.  The level index holds couples only, so a literal
        joins no level set.
        """
        key = (var, SV_ONE, -SINK, SINK)
        node = self._uniq_raw.get(key)
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
            self._uniq_raw[key] = node
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
                self._unique_lookups += 1
                node = raw.get(key)
                if node is not None:
                    self._unique_hits += 1
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

        :meth:`_apply` inlines the other cases and calls this for the
        ``(v, w2)`` one, once per ``(node, w)`` and operation.
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

        A chain transform (the ``(v, w2)`` case of :meth:`_cofactors`)
        is derived once per call: ``transformed`` maps ``(node, w)`` to the
        re-rooted cofactor pair, for either operand.  Automatic GC waits
        for the whole operation, so no entry can go stale; a nested call
        (from :meth:`_splice`) keeps its own.
        """
        position = self._order._position  # bound dict: hot-path lookups
        identity = self._order.is_identity
        # Probe counts settle on the store in bulk on exit.
        lookup = self._cache.get
        insert = self._cache.__setitem__
        n_lookups = 0
        n_hits = 0
        make = self._make
        pvl = self._pv
        svl = self._sv
        neql = self._neq
        eql = self._eq
        suppl = self._supp
        bits = self._var_bits
        names_len = len(self._names)
        transformed: Dict[tuple, tuple] = {}
        transformed_get = transformed.get
        cofactors = self._cofactors
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
            # (f = f <op> next), e.g. the parity construction.  Under the
            # identity a root's PV is its lowest support variable, so the
            # bound is the other root's PV bit.
            fpv = pvl[fn]
            gpv = pvl[gn]
            if identity:
                if suppl[fn] < bits[gpv]:
                    if svl[fn] != SV_ONE:  # literal roots use the generic path
                        result = self._splice(
                            fn, _RA1[op], _RA0[op], gn, op, True
                        )
                        insert(key, result)
                        rpush(-result if neg else result)
                        continue
                elif suppl[gn] < bits[fpv] and svl[gn] != SV_ONE:
                    result = self._splice(gn, _RB1[op], _RB0[op], fn, op, False)
                    insert(key, result)
                    rpush(-result if neg else result)
                    continue

            # -- expansion step (Alg. 1 gamma) -----------------------------
            # Expansion couple: PV = earliest root variable; SV = earliest
            # following variable visible in either operand's structure (the
            # operand's own SV if rooted at v, its PV if rooted deeper).
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
            # Biconditional cofactors (see _cofactors) of both operands,
            # inlined but for the chain transform, which goes through the
            # per-call memo; the subcall operators fold the edge signs.
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
                pair = transformed_get((fn, w))
                if pair is None:
                    pair = transformed[fn, w] = cofactors(fn, v, w)
                f_nq, f_eq = pair
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
                pair = transformed_get((gn, w))
                if pair is None:
                    pair = transformed[gn, w] = cofactors(gn, v, w)
                g_nq, g_eq = pair
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
        self._computed_lookups += n_lookups
        self._computed_hits += n_hits
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
        n_lookups = 0
        n_hits = 0
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
                    n_lookups += 1
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
                        n_hits += 1
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
        self._unique_lookups += n_lookups
        self._unique_hits += n_hits
        return results[-1]

    # ------------------------------------------------------------------
    # uniform DD protocol (repro.api) — derived ops
    # ------------------------------------------------------------------
    #
    # These wrappers bind the native iterative procedures of
    # :mod:`repro.core.apply` to the backend-agnostic :class:`repro.api.base.DDManager` edge protocol,
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

    def make_row(self, pv: int, sv, t: Edge, f: Edge):
        """A replayed io row as a couple or literal (None: Shannon node)."""
        if sv is not None:
            return self._make(pv, sv, t, f)
        if t == 1 and f == -1:
            return self.literal_node(pv)
        return None

    def sift(self, **kwargs):
        """Reorder variables with Rudell's sifting (see repro.core.reorder)."""
        from repro.core.reorder import sift as _sift

        return _sift(self, **kwargs)

    # ------------------------------------------------------------------
    # store hooks: level index and row rules
    # ------------------------------------------------------------------

    def _scan_levels(self):
        """``(by_pv, by_sv)`` from one pass over the unique table.

        Couples only, by PV and by SV: the CVO swap finds its nodes
        there.  Literals need no rewrite, so they join no level set.
        """
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

    def _check_row(self, node: int) -> None:
        """The BBDD row rules (see ``NodeStore.check_invariants``).

        A literal must be exactly ``(pv, SV_ONE, -1, 1)``.  A couple
        must be consistent with the CVO (SV after PV), keep its
        ``=``-edge regular, obey R2 (no identical children) and R3/R4
        (no couple whose function does not depend on its SV), root its
        children no higher than its SV and carry its exact support mask.
        """
        from repro.core.exceptions import InvariantViolation

        order = self._order
        pvl = self._pv
        svl = self._sv
        neql = self._neq
        eql = self._eq
        suppl = self._supp
        if svl[node] == SV_ONE:
            if not (neql[node] == -SINK and eql[node] == SINK):
                raise InvariantViolation(
                    f"malformed literal node {self.node_view(node)!r}"
                )
            return
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
            if child != SINK and order.position(pvl[child]) < sv_pos:
                raise InvariantViolation(
                    f"child order violation: {self.node_view(node)!r} -> "
                    f"{self.node_view(child)!r}"
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
        expected_supp = (1 << pvl[node]) | (1 << svl[node]) | suppl[dn] | suppl[e]
        if suppl[node] != expected_supp:
            raise InvariantViolation(
                f"support mask mismatch: {self.node_view(node)!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BBDDManager vars={len(self._names)} nodes={self._node_count} "
            f"order={self.current_order()}>"
        )
