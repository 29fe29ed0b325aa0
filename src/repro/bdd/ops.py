"""Derived operations for the baseline BDD package.

Brings the ROBDD backend to feature parity with the BBDD core
(:mod:`repro.core.apply`) so both plug into the uniform
:class:`repro.api.base.DDManager` protocol: native, memoized,
**iterative** ``restrict``, ``compose``, ``exists``/``forall``, plus
``support`` and a sat-path walker.  All procedures work on bare
``(node, attr)`` edges, use explicit stacks (no recursion on diagram
depth), and memoize in the manager's computed table under tagged keys —
the same key scheme as the BBDD core (two-operand apply keys are
``(uid, uid, op<16)`` triples; tagged keys lead with a distinct int >=
16 and a different tuple shape, so the families never collide).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bdd.node import BDDEdge, BDDNode
from repro.core.apply import _memo_fns
from repro.core.operations import OP_AND, OP_OR

#: Computed-table tags (aligned with repro.core.apply's scheme).
TAG_RESTRICT = 17
TAG_QUANT = 18
TAG_ANDEX = 19

_CALL = 0
_COMBINE = 1
_COMBINE_OR = 2


def restrict(manager, edge: BDDEdge, var, value: bool) -> BDDEdge:
    """Cofactor ``f`` with ``var = value`` (Shannon restriction).

    Restriction commutes with complement, so memo entries are keyed on
    the bare node (``(TAG_RESTRICT, uid, var, value)``) and the incoming
    attribute is re-applied at the end.  Subgraphs rooted strictly below
    ``var`` in the order cannot mention it and are returned untouched.
    """
    var = manager.var_index(var)
    value = bool(value)
    root, root_attr = edge
    position = manager._order.position
    target_pos = position(var)
    if root.is_sink or position(root.var) > target_pos:
        return edge
    lookup, insert = _memo_fns(manager)
    make = manager._make
    results: List[BDDEdge] = []
    rpush = results.append
    rpop = results.pop
    tasks: List[tuple] = [(_CALL, root, None)]
    tpush = tasks.append
    tpop = tasks.pop
    while tasks:
        tag, node, key = tpop()
        if tag == _CALL:
            if node.is_sink or position(node.var) > target_pos:
                rpush((node, False))
                continue
            key = (TAG_RESTRICT, node.uid, var, value)
            cached = lookup(key)
            if cached is not None:
                rpush(cached)
                continue
            if node.var == var:
                result = (
                    (node.then, False) if value else (node.else_, node.else_attr)
                )
                insert(key, result)
                rpush(result)
                continue
            tpush((_COMBINE, node, key))
            tpush((_CALL, node.then, None))
            tpush((_CALL, node.else_, None))
            continue
        t = rpop()
        en, ea = rpop()
        result = make(node.var, t, (en, ea ^ node.else_attr))
        insert(key, result)
        rpush(result)
    node, attr = results[-1]
    return (node, attr ^ root_attr)


def compose(manager, edge: BDDEdge, var, g: BDDEdge) -> BDDEdge:
    """Substitute the function ``g`` for variable ``var`` in ``f``."""
    f1 = restrict(manager, edge, var, True)
    f0 = restrict(manager, edge, var, False)
    return manager.ite_edges(g, f1, f0)


def exists(manager, edge: BDDEdge, variables) -> BDDEdge:
    """Existential quantification over ``variables``."""
    return _quantify(manager, edge, variables, OP_OR)


def forall(manager, edge: BDDEdge, variables) -> BDDEdge:
    """Universal quantification over ``variables``."""
    return _quantify(manager, edge, variables, OP_AND)


def _as_iterable(variables):
    if isinstance(variables, (int, str)):
        return (variables,)
    return tuple(variables)


def _quantify(manager, edge: BDDEdge, variables, op: int) -> BDDEdge:
    result = edge
    for var in _as_iterable(variables):
        result = _quantify_one(manager, result, manager.var_index(var), op)
    return result


def _quantify_one(manager, edge: BDDEdge, var: int, op: int) -> BDDEdge:
    """Quantify one variable: ``Q f = (f|var=1) <op> (f|var=0)``.

    At a node labelled ``var`` both cofactors are the stored children,
    so the node collapses to ``then <op> else`` directly; above it the
    combining operator distributes through the Shannon expansion.
    Quantification does *not* commute with complement, so memo keys
    carry the edge attribute: ``(TAG_QUANT, uid, attr, var, op)``.
    """
    position = manager._order.position
    target_pos = position(var)
    root, root_attr = edge
    if root.is_sink or position(root.var) > target_pos:
        return edge
    lookup, insert = _memo_fns(manager)
    make = manager._make
    apply_edges = manager.apply_edges
    results: List[BDDEdge] = []
    rpush = results.append
    rpop = results.pop
    tasks: List[tuple] = [(_CALL, root, root_attr, None)]
    tpush = tasks.append
    tpop = tasks.pop
    while tasks:
        tag, node, attr, key = tpop()
        if tag == _CALL:
            if node.is_sink or position(node.var) > target_pos:
                rpush((node, attr))
                continue
            key = (TAG_QUANT, node.uid, attr, var, op)
            cached = lookup(key)
            if cached is not None:
                rpush(cached)
                continue
            if node.var == var:
                result = apply_edges(
                    (node.then, attr), (node.else_, attr ^ node.else_attr), op
                )
                insert(key, result)
                rpush(result)
                continue
            tpush((_COMBINE, node, attr, key))
            tpush((_CALL, node.then, attr, None))
            tpush((_CALL, node.else_, attr ^ node.else_attr, None))
            continue
        t = rpop()
        e = rpop()
        result = make(node.var, t, e)
        insert(key, result)
        rpush(result)
    return results[-1]


def and_exists(manager, f: BDDEdge, g: BDDEdge, variables) -> BDDEdge:
    """Relational product ``exists variables . f & g`` in one fused pass.

    The conjunction is never materialized: one memoized sweep expands
    both operands together on the top variable ``v``; where ``v`` is
    quantified the Shannon branches OR directly (existentials
    distribute over the disjunction), elsewhere the node rebuilds over
    the recursive children.  Subgraphs rooted entirely below the
    deepest quantified variable collapse to a plain cached AND.
    Memoized ``(TAG_ANDEX, f_uid, f_attr, g_uid, g_attr, vmask)`` with
    the commutative operands in canonical order.
    """
    indices = sorted({manager.var_index(v) for v in _as_iterable(variables)})
    if not indices:
        return manager.apply_edges(f, g, OP_AND)
    position = manager._order.position
    vset = frozenset(indices)
    vmask = 0
    for index in indices:
        vmask |= 1 << index
    max_qpos = max(position(index) for index in indices)
    lookup, insert = _memo_fns(manager)
    make = manager._make
    apply_edges = manager.apply_edges
    false_edge = manager.false_edge
    results: List[BDDEdge] = []
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
        fn, fa = f
        gn, ga = g
        if (gn.uid, ga) < (fn.uid, fa):  # AND commutes: canonical order.
            f, g = g, f
            fn, fa, gn, ga = gn, ga, fn, fa
        # -- terminal cases -----------------------------------------------
        if (fn.is_sink and fa) or (gn.is_sink and ga):
            rpush(false_edge)
            continue
        if fn is gn:
            if fa != ga:
                rpush(false_edge)
            else:
                rpush(exists(manager, f, indices))
            continue
        if fn.is_sink:  # f == TRUE
            rpush(exists(manager, g, indices))
            continue
        if gn.is_sink:  # g == TRUE
            rpush(exists(manager, f, indices))
            continue
        f_pos = position(fn.var)
        g_pos = position(gn.var)
        v_pos = f_pos if f_pos <= g_pos else g_pos
        if v_pos > max_qpos:
            # Every variable below here outranks the quantified set.
            rpush(apply_edges(f, g, OP_AND))
            continue

        key = (TAG_ANDEX, fn.uid, fa, gn.uid, ga, vmask)
        cached = lookup(key)
        if cached is not None:
            rpush(cached)
            continue

        v = fn.var if f_pos <= g_pos else gn.var
        if f_pos > v_pos:
            f1 = f0 = f
        else:
            f1 = (fn.then, fa)
            f0 = (fn.else_, fa ^ fn.else_attr)
        if g_pos > v_pos:
            g1 = g0 = g
        else:
            g1 = (gn.then, ga)
            g0 = (gn.else_, ga ^ gn.else_attr)
        if v in vset:
            tpush((_COMBINE_OR, None, key))
        else:
            tpush((_COMBINE, v, key))
        tpush((_CALL, f1, g1))
        tpush((_CALL, f0, g0))
    return results[-1]


def support(manager, edge: BDDEdge) -> frozenset:
    """Variables ``f`` truly depends on (as indices).

    In a reduced OBDD every reachable node's label is essential (an
    inessential variable's node would have identical children and be
    removed by reduction), so the support is exactly the set of labels.
    """
    node, _attr = edge
    seen = set()
    vars_ = set()
    stack: List[BDDNode] = [] if node.is_sink else [node]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        vars_.add(n.var)
        for child in (n.then, n.else_):
            if not child.is_sink:
                stack.append(child)
    return frozenset(vars_)


def sat_one_edge(manager, edge: BDDEdge) -> Optional[Dict[int, bool]]:
    """One satisfying assignment ``{var index: bit}``, or None.

    O(depth): every internal node of a canonical BDD with complement
    edges denotes a non-constant function, so descending into *any*
    non-sink child keeps both outcomes reachable; only sink children
    need their parity checked.
    """
    node, attr = edge
    if node.is_sink:
        return {} if not attr else None
    values: Dict[int, bool] = {}
    while True:
        # Then-edges of stored nodes are regular, so the then-branch
        # parity is the incoming attribute itself.
        branches = (
            (node.then, attr, True),
            (node.else_, attr ^ node.else_attr, False),
        )
        descend = None
        for child, child_attr, bit in branches:
            if child.is_sink:
                if not child_attr:
                    values[node.var] = bit
                    return values
            elif descend is None:
                descend = (child, child_attr, bit)
        if descend is None:
            # Both children are sinks of the wrong parity — impossible
            # for a canonical node; defensive for corrupt DAGs.
            return None
        child, attr, bit = descend
        values[node.var] = bit
        node = child
