"""Derived operations for the baseline BDD package.

Brings the ROBDD backend to feature parity with the BBDD core
(:mod:`repro.core.apply`) so both plug into the uniform
:class:`repro.api.base.DDManager` protocol: native, memoized,
**iterative** ``ite``, ``restrict``, ``compose``, ``exists``/``forall``
and the fused ``and_exists``.  All procedures work on the store's bare
signed-int edges (a row's then-edge is ``_eq``, its else-edge ``_neq``),
use explicit stacks (no recursion on diagram depth), and memoize in the
manager's computed table under tagged keys — the same key scheme as the
BBDD core (two-operand apply keys are ``(f, g, op<16)`` triples; tagged
keys lead with a distinct int >= 16 and a different tuple shape, so the
families never collide).

Each operation runs under the manager's operation guard
(:func:`repro.core.apply._guarded`), as the BBDD core's do: it holds
bare edges across ``apply_edges`` calls, so automatic GC waits until
its result is protected.
"""

from __future__ import annotations

from typing import List

from repro.core.apply import _as_iterable, _guarded, _memo_fns
from repro.core.node import SINK, Edge
from repro.core.operations import OP_AND, OP_OR

#: Computed-table tags (aligned with repro.core.apply's scheme).
TAG_RESTRICT = 17
TAG_QUANT = 18
TAG_ANDEX = 19

_CALL = 0
_COMBINE = 1
_COMBINE_OR = 2


def ite(manager, f: Edge, g: Edge, h: Edge) -> Edge:
    """If-then-else ``f ? g : h`` as ``(f & g) | (~f & h)``."""
    return _guarded(manager, _ite, f, g, h)


def _ite(manager, f: Edge, g: Edge, h: Edge) -> Edge:
    fg = manager.apply_edges(f, g, OP_AND)
    fh = manager.apply_edges(-f, h, OP_AND)
    return manager.apply_edges(fg, fh, OP_OR)


def restrict(manager, edge: Edge, var, value: bool) -> Edge:
    """Cofactor ``f`` with ``var = value`` (Shannon restriction).

    Restriction commutes with complement, so memo entries are keyed on
    the bare node (``(TAG_RESTRICT, node, var, value)``) and the incoming
    sign is re-applied at the end.  Subgraphs rooted strictly below
    ``var`` in the order cannot mention it and are returned untouched.
    """
    var = manager.var_index(var)
    root = -edge if edge < 0 else edge
    result = _guarded(manager, _restrict, root, var, bool(value))
    return -result if edge < 0 else result


def _restrict(manager, root: int, var: int, value: bool) -> Edge:
    position = manager._order._position
    pvl = manager._pv
    neql = manager._neq
    eql = manager._eq
    target_pos = position[var]
    if root == SINK or position[pvl[root]] > target_pos:
        return root
    lookup, insert = _memo_fns(manager)
    make = manager._make
    results: List[Edge] = []
    rpush = results.append
    rpop = results.pop
    tasks: List[tuple] = [(_CALL, root, None)]
    tpush = tasks.append
    tpop = tasks.pop
    while tasks:
        tag, node, key = tpop()
        if tag == _CALL:
            if node == SINK or position[pvl[node]] > target_pos:
                rpush(node)
                continue
            key = (TAG_RESTRICT, node, var, value)
            cached = lookup(key)
            if cached is not None:
                rpush(cached)
                continue
            if pvl[node] == var:
                result = eql[node] if value else neql[node]
                insert(key, result)
                rpush(result)
                continue
            tpush((_COMBINE, node, key))
            tpush((_CALL, eql[node], None))
            e = neql[node]
            tpush((_CALL, -e if e < 0 else e, None))
            continue
        t = rpop()
        e = rpop()
        result = make(pvl[node], t, -e if neql[node] < 0 else e)
        insert(key, result)
        rpush(result)
    return results[-1]


def compose(manager, edge: Edge, var, g: Edge) -> Edge:
    """Substitute the function ``g`` for variable ``var`` in ``f``."""
    return _guarded(manager, _compose, edge, var, g)


def _compose(manager, edge: Edge, var, g: Edge) -> Edge:
    f1 = restrict(manager, edge, var, True)
    f0 = restrict(manager, edge, var, False)
    return ite(manager, g, f1, f0)


def exists(manager, edge: Edge, variables) -> Edge:
    """Existential quantification over ``variables``."""
    return _guarded(manager, _quantify, edge, variables, OP_OR)


def forall(manager, edge: Edge, variables) -> Edge:
    """Universal quantification over ``variables``."""
    return _guarded(manager, _quantify, edge, variables, OP_AND)


def _quantify(manager, edge: Edge, variables, op: int) -> Edge:
    result = edge
    for var in _as_iterable(variables):
        result = _quantify_one(manager, result, manager.var_index(var), op)
    return result


def _quantify_one(manager, edge: Edge, var: int, op: int) -> Edge:
    """Quantify one variable: ``Q f = (f|var=1) <op> (f|var=0)``.

    At a node labelled ``var`` both cofactors are the stored children,
    so the node collapses to ``then <op> else`` directly; above it the
    combining operator distributes through the Shannon expansion.
    Quantification does *not* commute with complement, so memo keys
    carry the edge sign: ``(TAG_QUANT, node, attr, var, op)``.
    """
    position = manager._order._position
    pvl = manager._pv
    neql = manager._neq
    eql = manager._eq
    target_pos = position[var]
    root = -edge if edge < 0 else edge
    if root == SINK or position[pvl[root]] > target_pos:
        return edge
    lookup, insert = _memo_fns(manager)
    make = manager._make
    apply_edges = manager.apply_edges
    results: List[Edge] = []
    rpush = results.append
    rpop = results.pop
    tasks: List[tuple] = [(_CALL, root, edge < 0, None)]
    tpush = tasks.append
    tpop = tasks.pop
    while tasks:
        tag, node, attr, key = tpop()
        if tag == _CALL:
            if node == SINK or position[pvl[node]] > target_pos:
                rpush(-node if attr else node)
                continue
            key = (TAG_QUANT, node, attr, var, op)
            cached = lookup(key)
            if cached is not None:
                rpush(cached)
                continue
            t = -eql[node] if attr else eql[node]
            e = -neql[node] if attr else neql[node]
            if pvl[node] == var:
                result = apply_edges(t, e, op)
                insert(key, result)
                rpush(result)
                continue
            tpush((_COMBINE, node, attr, key))
            tpush((_CALL, -t if t < 0 else t, t < 0, None))
            tpush((_CALL, -e if e < 0 else e, e < 0, None))
            continue
        t = rpop()
        e = rpop()
        result = make(pvl[node], t, e)
        insert(key, result)
        rpush(result)
    return results[-1]


def and_exists(manager, f: Edge, g: Edge, variables) -> Edge:
    """Relational product ``exists variables . f & g`` in one fused pass.

    The conjunction is never materialized: one memoized sweep expands
    both operands together on the top variable ``v``; where ``v`` is
    quantified the Shannon branches OR directly (existentials
    distribute over the disjunction), elsewhere the node rebuilds over
    the recursive children.  Subgraphs rooted entirely below the
    deepest quantified variable collapse to a plain cached AND.
    Memoized ``(TAG_ANDEX, f, g, vmask)`` with the commutative operands
    in canonical order.
    """
    indices = sorted({manager.var_index(v) for v in _as_iterable(variables)})
    if not indices:
        return manager.apply_edges(f, g, OP_AND)
    return _guarded(manager, _and_exists, f, g, indices)


def _and_exists(manager, f: Edge, g: Edge, indices) -> Edge:
    position = manager._order._position
    pvl = manager._pv
    neql = manager._neq
    eql = manager._eq
    vset = frozenset(indices)
    vmask = 0
    for index in indices:
        vmask |= 1 << index
    max_qpos = max(position[index] for index in indices)
    lookup, insert = _memo_fns(manager)
    make = manager._make
    apply_edges = manager.apply_edges
    results: List[Edge] = []
    rpush = results.append
    rpop = results.pop
    tasks: List[tuple] = [(_CALL, f, g)]
    tpush = tasks.append
    tpop = tasks.pop
    while tasks:
        tag, a, b = tpop()
        if tag == _COMBINE:
            t = rpop()
            e = rpop()
            result = make(a, t, e)
            insert(b, result)
            rpush(result)
            continue
        if tag == _COMBINE_OR:
            t = rpop()
            e = rpop()
            result = apply_edges(t, e, OP_OR)
            insert(b, result)
            rpush(result)
            continue
        f, g = a, b
        if f > g:  # AND commutes: canonical operand order for the memo.
            f, g = g, f
        # -- terminal cases -----------------------------------------------
        if f == -SINK or g == -SINK or f == -g:
            rpush(-SINK)
            continue
        if f == g or f == SINK:
            rpush(exists(manager, g, indices))
            continue
        if g == SINK:
            rpush(exists(manager, f, indices))
            continue
        fn = -f if f < 0 else f
        gn = -g if g < 0 else g
        f_pos = position[pvl[fn]]
        g_pos = position[pvl[gn]]
        v_pos = f_pos if f_pos <= g_pos else g_pos
        if v_pos > max_qpos:
            # Every variable below here outranks the quantified set.
            rpush(apply_edges(f, g, OP_AND))
            continue

        key = (TAG_ANDEX, f, g, vmask)
        cached = lookup(key)
        if cached is not None:
            rpush(cached)
            continue

        v = pvl[fn] if f_pos <= g_pos else pvl[gn]
        if f_pos > v_pos:
            f1 = f0 = f
        else:
            f1 = eql[fn]
            f0 = neql[fn]
            if f < 0:
                f1 = -f1
                f0 = -f0
        if g_pos > v_pos:
            g1 = g0 = g
        else:
            g1 = eql[gn]
            g0 = neql[gn]
            if g < 0:
                g1 = -g1
                g0 = -g0
        if v in vset:
            tpush((_COMBINE_OR, None, key))
        else:
            tpush((_COMBINE, v, key))
        tpush((_CALL, f1, g1))
        tpush((_CALL, f0, g0))
    return results[-1]
