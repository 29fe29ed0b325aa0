"""Streaming sweeps over levelized representations (Algorithm 1, external).

The apply engine rephrases the BBDD apply of
:meth:`repro.core.manager.BBDDManager._apply` as the two level-by-level
passes of external-memory decision-diagram manipulation (Sølvsten & van
de Pol's time-forward processing):

1. **Top-down request generation.**  Starting from the root operand
   pair, each CVO level accumulates *product requests* — ``(uid_f,
   uid_g)`` descriptor pairs with the operand complement attributes
   folded into the 4-bit operator (the paper's ``updateop``), so
   requests are attribute-free and deduplicate structurally.  A level's
   request set lives in a :class:`~repro.xmem.runs.SortedRunSpiller`:
   beyond the chunk budget it spills to sorted varint runs on disk and
   is consumed as a k-way merge.  Expanding a request performs the
   biconditional cofactor step — including Algorithm 1's *chain
   transform*, expressed virtually as a re-rooted/swapped descriptor so
   no node is materialized for it — and emits the two child requests to
   deeper levels (terminal children resolve immediately, with
   unchanged-subgraph survivors imported structurally into the output
   builder).

2. **Bottom-up reduce.**  Levels resolve deepest-first: each pending
   expansion combines its children's results through
   :meth:`repro.xmem.builder.Builder.make`, which applies reduction
   rules R1 (per-level unique records), R2 and the SV-elimination/R4
   cascade — children records are always available because deeper
   levels reduced first.

Descriptors are 4-tuples ``(kind, id, root_pos, swap)``: ``kind`` 0/1
names the operand container (0 for both when they are the same
object, so the diagonal terminal rule applies), kind 2 is the literal
of the variable at ``root_pos``; ``root_pos`` differs from the node's
natural level exactly for chain-transformed (re-rooted) views, and
``swap`` exchanges the children of such a view.

``restrict`` is the single-operand sweep: a bottom-up replay of the
operand's records through the builder, with the couple-collapse cases
(primary or secondary variable hit) resolved by in-builder ``ite``
sub-sweeps, mirroring :func:`repro.core.apply.restrict`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.operations import (
    OP_AND,
    OP_OR,
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

from repro.xmem.runs import SortedRunSpiller

#: Descriptor kind marking the literal of the variable at ``root_pos``.
_LIT = 2

#: Request tuples: descA (4) + descB (4) + op (1).
_ARITY = 9


def apply_refs(manager, builder, cont_a, ref_a, cont_b, ref_b, op: int) -> int:
    """Streaming ``f <op> g`` over two containers; result ref in ``builder``.

    ``cont_a``/``cont_b`` are :class:`~repro.xmem.rep.Levelized` or
    :class:`~repro.xmem.builder.Builder` containers (or None for a sink
    operand); ``ref_a``/``ref_b`` packed refs into them.
    """
    var_at = manager.order.order
    num_vars = manager.num_vars
    store = manager._store

    same = cont_a is cont_b
    containers = (cont_a, cont_b)
    import_memo: Dict[Tuple[int, int], int] = {}

    def desc_for(kind: int, node_id: int):
        """Natural descriptor of a container node (literals normalized to
        kind ``_LIT`` so equal functions get equal descriptors)."""
        pos, sv_delta, _neq, _eq = containers[kind].full_record(node_id)
        if sv_delta == 0:
            return (_LIT, 0, pos, 0)
        return (kind, node_id, pos, 0)

    def import_desc(desc) -> int:
        """Materialize a descriptor's function into the builder."""
        kind, node_id, root_pos, swap = desc
        if kind == _LIT:
            return builder.literal(var_at[root_pos])
        cont = containers[kind]
        pos, sv_delta, neq_ref, eq_ref = cont.full_record(node_id)
        if root_pos == pos and not swap:
            if cont is builder:
                return node_id << 1
            return builder.import_ref(cont, node_id << 1, _builder_memo(kind))
        # Re-rooted / swapped view: materialize one node over the
        # naturally imported children.
        memo = _builder_memo(kind)
        d = _map_child(cont, kind, neq_ref, memo)
        e = _map_child(cont, kind, eq_ref, memo)
        if swap:
            d, e = e, d
        return builder.make(var_at[root_pos], var_at[pos + sv_delta], d, e)

    _natural_memos: Dict[int, Dict[int, int]] = {}

    def _builder_memo(kind: int) -> Dict[int, int]:
        memo = _natural_memos.get(kind)
        if memo is None:
            memo = _natural_memos[kind] = {}
        return memo

    def _map_child(cont, kind: int, ref: int, memo: Dict[int, int]) -> int:
        if ref >> 1 == 0:
            return ref
        if cont is builder:
            return ref
        return builder.import_ref(cont, ref, memo)

    def unary(outcome: str, desc) -> int:
        if outcome == UNARY_TRUE:
            return 0
        if outcome == UNARY_FALSE:
            return 1
        if desc is None:  # the survivor is the sink
            return 0 if outcome == UNARY_ID else 1
        ref = import_desc(desc)
        return ref ^ 1 if outcome == UNARY_NOT else ref

    def terminal(desc_a, desc_b, sub: int):
        """Resolve Algorithm 1's terminal cases; None means 'expand'."""
        if desc_a is None:
            return unary(restrict_a(sub, 1), desc_b)
        if desc_b is None:
            return unary(restrict_b(sub, 1), desc_a)
        if desc_a == desc_b:
            return unary(diagonal(sub), desc_a)
        if ((sub >> 1) & 0b101) == (sub & 0b101):  # independent of b
            return unary(restrict_b(sub, 0), desc_a)
        if ((sub >> 2) & 0b11) == (sub & 0b11):  # independent of a
            return unary(restrict_a(sub, 0), desc_b)
        return None

    buffers: Dict[int, SortedRunSpiller] = {}
    pendings: Dict[int, List[tuple]] = {}
    results: Dict[tuple, int] = {}
    chunk = manager._request_chunk

    def push(key: tuple) -> None:
        level = min(key[2], key[6])
        spiller = buffers.get(level)
        if spiller is None:
            spiller = buffers[level] = SortedRunSpiller(
                _ARITY, chunk, lambda: store.new_path("req")
            )
        spiller.add(key)

    def child_spec(spec_a, spec_b, sub: int):
        """Resolve or enqueue one child request; returns a pending spec."""
        desc_a, attr_a = spec_a
        desc_b, attr_b = spec_b
        if attr_a:
            sub = flip_a(sub)
        if attr_b:
            sub = flip_b(sub)
        resolved = terminal(desc_a, desc_b, sub)
        if resolved is not None:
            return (False, resolved)
        key = desc_a + desc_b + (sub,)
        push(key)
        return (True, key)

    def spec_from_ref(kind: int, ref: int):
        node_id = ref >> 1
        if node_id == 0:
            return (None, ref & 1)
        return (desc_for(kind, node_id), ref & 1)

    def cofactors(desc, pos: int, w_pos: int):
        """Biconditional cofactors ``(neq, eq)`` of a descriptor w.r.t.
        the expansion couple (variables at ``pos`` / ``w_pos``)."""
        kind, node_id, root_pos, swap = desc
        if root_pos > pos:
            unchanged = (desc, 0)
            return (unchanged, unchanged)
        if kind == _LIT:
            lit_w = (_LIT, 0, w_pos, 0)
            return ((lit_w, 1), (lit_w, 0))
        npos, sv_delta, neq_ref, eq_ref = containers[kind].full_record(node_id)
        if swap:
            neq_ref, eq_ref = eq_ref, neq_ref
        if npos + sv_delta == w_pos:
            return (spec_from_ref(kind, neq_ref), spec_from_ref(kind, eq_ref))
        # Chain transform (virtual): the couple's SV is earlier than this
        # node's, so the substitution re-roots the view at w.
        return (
            ((kind, node_id, w_pos, swap ^ 1), 0),
            ((kind, node_id, w_pos, swap), 0),
        )

    def expand(key: tuple, pos: int) -> None:
        desc_a = key[0:4]
        desc_b = key[4:8]
        sub = key[8]
        # Expansion SV: earliest following variable visible in either
        # operand's structure (own SV if rooted here, root otherwise).
        w_pos = num_vars + 1
        for kind, node_id, root_pos, _swap in (desc_a, desc_b):
            if root_pos == pos:
                if kind == _LIT:
                    continue
                npos, sv_delta, _neq, _eq = containers[kind].full_record(node_id)
                cand = npos + sv_delta
            else:
                cand = root_pos
            if cand < w_pos:
                w_pos = cand
        # Both operands literal at pos would have equal descriptors and
        # resolve diagonally before ever being enqueued.
        neq_a, eq_a = cofactors(desc_a, pos, w_pos)
        neq_b, eq_b = cofactors(desc_b, pos, w_pos)
        pendings.setdefault(pos, []).append(
            (
                key,
                var_at[pos],
                var_at[w_pos],
                child_spec(eq_a, eq_b, sub),
                child_spec(neq_a, neq_b, sub),
            )
        )

    # -- root ------------------------------------------------------------
    node_a = ref_a >> 1
    if ref_a & 1:
        op = flip_a(op)
    node_b = ref_b >> 1
    if ref_b & 1:
        op = flip_b(op)
    desc_a = None if node_a == 0 else desc_for(0, node_a)
    desc_b = None if node_b == 0 else desc_for(0 if same else 1, node_b)
    resolved = terminal(desc_a, desc_b, op)
    if resolved is not None:
        return resolved
    root_key = desc_a + desc_b + (op,)
    push(root_key)

    # -- pass 1: top-down request generation ------------------------------
    for pos in range(num_vars):
        spiller = buffers.pop(pos, None)
        if spiller is None:
            continue
        store.runs_spilled += spiller.runs_spilled
        for key in spiller.iter_sorted_unique():
            expand(key, pos)
        spiller.cleanup()
        # Compaction merge passes (and their bytes) happen while the
        # merged stream is consumed, so settle them after cleanup.
        store.merge_passes += spiller.merge_passes
        store.spill_bytes += spiller.run_bytes

    # -- pass 2: bottom-up reduce -----------------------------------------
    for pos in sorted(pendings, reverse=True):
        for key, v_var, w_var, eq_spec, neq_spec in pendings[pos]:
            e = results[eq_spec[1]] if eq_spec[0] else eq_spec[1]
            d = results[neq_spec[1]] if neq_spec[0] else neq_spec[1]
            results[key] = builder.make(v_var, w_var, d, e)
    return results[root_key]


def ite_refs(manager, builder, cont_f, rf, cont_g, rg, cont_h, rh) -> int:
    """``f ? g : h`` as the composition of three streaming applies."""
    fg = apply_refs(manager, builder, cont_f, rf, cont_g, rg, OP_AND)
    fh = apply_refs(manager, builder, cont_f, rf ^ 1, cont_h, rh, OP_AND)
    return apply_refs(manager, builder, builder, fg, builder, fh, OP_OR)


def restrict_replay(manager, builder, rep, root_ref: int, var: int, value: bool) -> int:
    """Cofactor ``root_ref`` (in ``rep``) with ``var = value``.

    One bottom-up replay of the representation's records: untouched
    couples rebuild structurally through :meth:`Builder.make`; couples
    whose primary or secondary variable is ``var`` collapse their
    branching condition onto the surviving member via an in-builder
    ``ite`` sub-sweep — the three structural cases of
    :func:`repro.core.apply.restrict`.
    """
    var_at = manager.order.order
    new_refs = [0] * (rep.size + 1)
    # Only the sub-DAG of this function: a representation may hold a
    # whole loaded forest, and replaying unrelated functions' records
    # (with their ite sub-sweeps) would scale with the forest instead.
    reachable = rep.reachable_ids([root_ref >> 1])

    def mapped(ref: int) -> int:
        child = ref >> 1
        if child == 0:
            return ref
        return new_refs[child] ^ (ref & 1)

    for node_id, pos, sv_delta, neq_ref, eq_ref in rep.iter_records():
        if node_id not in reachable:
            continue
        pv = var_at[pos]
        if sv_delta == 0:
            if pv == var:
                # lit(var) | var=value is the constant `value`.
                new_refs[node_id] = 0 if value else 1
            else:
                new_refs[node_id] = builder.literal(pv)
            continue
        sv = var_at[pos + sv_delta]
        d = mapped(neq_ref)
        e = mapped(eq_ref)
        if pv == var:
            # The branching condition collapses onto sv; children never
            # mention pv, so they replay untouched.
            lit = builder.literal(sv)
            if value:
                new_refs[node_id] = ite_refs(
                    manager, builder, builder, lit, builder, e, builder, d
                )
            else:
                new_refs[node_id] = ite_refs(
                    manager, builder, builder, lit, builder, d, builder, e
                )
        elif sv == var:
            # Children were already restricted by this replay; the
            # condition collapses onto pv.
            lit = builder.literal(pv)
            if value:
                new_refs[node_id] = ite_refs(
                    manager, builder, builder, lit, builder, e, builder, d
                )
            else:
                new_refs[node_id] = ite_refs(
                    manager, builder, builder, lit, builder, d, builder, e
                )
        else:
            new_refs[node_id] = builder.make(pv, sv, d, e)
    return mapped(root_ref)
