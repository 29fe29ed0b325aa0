"""Extended Boolean operations built on the iterative apply engine.

The two-operand core lives in
:meth:`repro.core.manager.BBDDManager.apply_edges`; this module adds the
derived operations a manipulation package is expected to provide, each as
a **native, memoized, iterative** procedure over the biconditional
expansion that hits the manager's computed table directly with tagged
cache keys:

* :func:`ite` — if-then-else over a three-operand biconditional
  expansion;
* :func:`restrict` — cofactor w.r.t. a variable assignment (the
  biconditional analogue of the Shannon cofactor: restricting either
  member of a couple re-expresses the branching condition over the
  surviving variable);
* :func:`compose` — substitute a function for a variable (two cached
  restricts + one cached ite);
* :func:`exists` / :func:`forall` — Boolean quantification.  Quantifying
  a couple's primary variable reduces to ``d <op> e`` on the children
  (the branches are disjoint); quantifying its secondary variable ``w``
  substitutes it by the surviving primary variable ``v``:
  ``Q w . H = H[w := ~v] <op> H[w := v]``, and ``w := ~v`` / ``w := v``
  re-root an operand's top node at ``v`` (:func:`_couple_substitute`);
* :func:`and_exists` — the fused relational product, on the same two
  rules;
* :func:`relabel` — an order-preserving variable rename as one ``_make``
  per node.

Everything here works on the flat store's signed-int edges: ``abs(edge)``
is the node index, the sign the complement attribute, so attribute
algebra is plain integer arithmetic.  All procedures use explicit stacks
(no recursion on diagram depth) and run inside the manager's operation
guard, so automatic GC never reclaims their intermediates; tagged keys
share the computed table with apply and are invalidated with it on
GC/reordering.  With the ``disabled`` computed backend they fall back to
a per-call memo (the ablation switch targets apply, and an unmemoized
restrict would be exponential).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.core.exceptions import BBDDError
from repro.core.node import SINK, SV_ONE, Edge
from repro.core.operations import OP_AND, OP_OR, OP_XNOR

#: Computed-table tags for the derived operations.  Two-operand apply
#: keys are 3-tuples ``(f, g, op)`` with ``op`` in 0..15; tagged keys use
#: distinct leading ints >= 16 (and different tuple lengths), so the key
#: families can never collide.
TAG_ITE = 16
TAG_RESTRICT = 17
TAG_QUANT = 18
TAG_ANDEX = 19

_CALL = 0
_COMBINE = 1
_COMBINE_ITE = 2
# and_exists lazy-OR frames: the second disjunct is only computed when
# the first one fails to short-circuit the disjunction to TRUE.
_ANDEX_ELSE = 4
_ANDEX_OR = 5


def _memo_fns(manager):
    """(lookup, insert) on the manager's computed table.

    Lookups count on the store's computed-table counters, as apply's
    do.  The ``disabled`` ablation backend memoizes nothing, which would
    make the linear-time procedures below exponential — fall back to an
    uncounted per-call dict there.
    """
    if manager._computed_backend == "disabled":
        local: dict = {}
        return local.get, local.__setitem__
    cache = manager._cache
    get = cache.get

    def lookup(key):
        manager._computed_lookups += 1
        hit = get(key)
        if hit is not None:
            manager._computed_hits += 1
        return hit

    return lookup, cache.__setitem__


def _guarded(manager, run, *args) -> Edge:
    """``run(manager, *args)`` under the manager's operation guard.

    Automatic GC waits while the operation holds bare intermediate
    edges; an armed collection then runs with the result protected.
    Both packages' derived operations run this way.
    """
    manager._in_op += 1
    try:
        result = run(manager, *args)
    finally:
        manager._in_op -= 1
    manager._maybe_gc_protect(result)
    return result


def ite(manager, f: Edge, g: Edge, h: Edge) -> Edge:
    """If-then-else ``f ? g : h`` as a native three-operand expansion.

    Iterative over an explicit pending-frame stack with memoization
    keyed ``(TAG_ITE, f, g, h)`` on signed edges (the complement on
    ``f`` is normalized away by swapping the branches).  Constant and
    degenerate operands collapse to a single two-operand apply.
    """
    return _guarded(manager, _ite_iter, f, g, h)


def _ite_iter(manager, f: Edge, g: Edge, h: Edge) -> Edge:
    lookup, insert = _memo_fns(manager)
    position = manager._order.position
    cofactors = manager._cofactors
    make = manager._make
    apply_edges = manager.apply_edges
    pvl = manager._pv
    svl = manager._sv
    results: List[Edge] = []
    rpush = results.append
    rpop = results.pop
    tasks: List[tuple] = [(_CALL, f, g, h)]
    tpush = tasks.append
    tpop = tasks.pop
    while tasks:
        tag, a, b, c = tpop()
        if tag == _COMBINE:
            d = rpop()
            e = rpop()
            result = make(a[0], a[1], d, e)
            insert(b, result)
            rpush(result)
            continue
        f, g, h = a, b, c
        if f < 0:
            # ite(~f', g, h) == ite(f', h, g).
            f = -f
            g, h = h, g
        # -- terminal / degenerate cases ----------------------------------
        if f == SINK:  # f == TRUE (complement already folded)
            rpush(g)
            continue
        if g == h:
            rpush(g)
            continue
        if g == -h:
            # ite(f, g, ~g) == f XNOR g.
            rpush(apply_edges(f, g, OP_XNOR))
            continue
        if g == -1:  # g == FALSE: ~f AND h
            rpush(apply_edges(-f, h, OP_AND))
            continue
        if g == 1:  # g == TRUE: f OR h
            rpush(apply_edges(f, h, OP_OR))
            continue
        if h == -1:  # h == FALSE: f AND g
            rpush(apply_edges(f, g, OP_AND))
            continue
        if h == 1:  # h == TRUE: ~f OR g
            rpush(apply_edges(-f, g, OP_OR))
            continue

        key = (TAG_ITE, f, g, h)
        cached = lookup(key)
        if cached is not None:
            rpush(cached)
            continue

        # -- three-operand biconditional expansion ------------------------
        # The couple's branches partition the space, so the expansion
        # distributes over all three operands simultaneously.
        gn = -g if g < 0 else g
        hn = -h if h < 0 else h
        v = pvl[f]
        v_pos = position(v)
        for node in (gn, hn):
            p = position(pvl[node])
            if p < v_pos:
                v, v_pos = pvl[node], p
        w = None
        w_pos = manager.num_vars + 1
        for node in (f, gn, hn):
            cand = svl[node] if pvl[node] == v else pvl[node]
            if cand == SV_ONE:
                continue
            cand_pos = position(cand)
            if cand_pos < w_pos:
                w, w_pos = cand, cand_pos
        if w is None:  # pragma: no cover - ruled out by the terminal cases
            raise BBDDError("no expansion SV: all ITE operands literal at v")
        f_nq, f_eq = cofactors(f, v, w)
        g_nq, g_eq = cofactors(gn, v, w)
        h_nq, h_eq = cofactors(hn, v, w)
        if g < 0:
            g_nq = -g_nq
            g_eq = -g_eq
        if h < 0:
            h_nq = -h_nq
            h_eq = -h_eq
        tpush((_COMBINE, (v, w), key, None))
        tpush((_CALL, f_nq, g_nq, h_nq))
        tpush((_CALL, f_eq, g_eq, h_eq))
    return results[-1]


def restrict(manager, edge: Edge, var, value: bool) -> Edge:
    """Cofactor ``f`` with ``var = value``.

    Three structural cases per node (couple ``(v, w)``):

    * ``v == var`` — the branching condition collapses onto ``w``:
      ``f|v=c = ITE(w, f_eq, f_neq)`` if ``c == 1`` else with the branches
      swapped (for literal nodes the cofactor is the constant);
    * ``w == var`` — both the condition and the children mention ``var``:
      restrict the children, then ``f|w=c = ITE(v, ..)``;
    * otherwise — restrict the children and rebuild the node in place.

    Restriction commutes with complement, so memo entries are keyed on
    the bare node (``(TAG_RESTRICT, index, var, value)``) and the
    incoming sign is re-applied at the end.  Subgraphs whose support mask
    does not contain ``var`` are returned untouched.
    """
    var = manager.var_index(var)
    root = -edge if edge < 0 else edge
    result = _guarded(manager, _restrict_iter, root, var, bool(value))
    return -result if edge < 0 else result


def _restrict_iter(manager, root: int, var: int, value: bool) -> Edge:
    bit = 1 << var
    suppl = manager._supp
    if not suppl[root] & bit:
        return root
    lookup, insert = _memo_fns(manager)
    make = manager._make
    pvl = manager._pv
    svl = manager._sv
    neql = manager._neq
    eql = manager._eq
    results: List[Edge] = []
    rpush = results.append
    rpop = results.pop
    tasks: List[tuple] = [(_CALL, root, None)]
    tpush = tasks.append
    tpop = tasks.pop
    while tasks:
        tag, node, key = tpop()
        if tag == _CALL:
            if not suppl[node] & bit:
                rpush(node)
                continue
            key = (TAG_RESTRICT, node, var, value)
            cached = lookup(key)
            if cached is not None:
                rpush(cached)
                continue
            pv = pvl[node]
            sv = svl[node]
            if sv == SV_ONE:
                # supp == {pv} and var in supp, so this is lit(var).
                result = SINK if value else -SINK
                insert(key, result)
                rpush(result)
                continue
            if pv == var:
                # Children never mention pv: collapse the condition on sv.
                d = neql[node]
                e = eql[node]
                w_lit = manager.literal_edge(sv)
                result = (
                    ite(manager, w_lit, e, d)
                    if value
                    else ite(manager, w_lit, d, e)
                )
                insert(key, result)
                rpush(result)
                continue
            combine = _COMBINE_ITE if sv == var else _COMBINE
            tpush((combine, node, key))
            d = neql[node]
            tpush((_CALL, -d if d < 0 else d, None))
            tpush((_CALL, eql[node], None))
            continue
        d2 = rpop()
        e2 = rpop()
        if neql[node] < 0:
            d2 = -d2
        if tag == _COMBINE_ITE:
            v_lit = manager.literal_edge(pvl[node])
            result = (
                ite(manager, v_lit, e2, d2)
                if value
                else ite(manager, v_lit, d2, e2)
            )
        else:
            result = make(pvl[node], svl[node], d2, e2)
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
        result = _quantify_iter(manager, result, manager.var_index(var), op)
    return result


def _quantify_iter(manager, edge: Edge, var: int, op: int) -> Edge:
    """Quantify one variable natively over the biconditional expansion.

    At a couple ``(v, w)`` the two branches are disjoint, so for any
    combining operator ``Q f = (f|var=0) <op> (f|var=1)`` distributes
    through the expansion.  With ``var == v`` both cofactors select the
    same pair of children and the node reduces to ``d <op> e``; with
    ``var == w`` the couple's secondary variable is substituted by its
    primary one, ``Q w . f = d[w := ~v] <op> e[w := v]``
    (:func:`_couple_substitute`).  Quantification does *not* commute
    with complement, so memo keys carry the edge sign:
    ``(TAG_QUANT, index, attr, var, op)``.
    """
    bit = 1 << var
    suppl = manager._supp
    root = -edge if edge < 0 else edge
    if not suppl[root] & bit:
        return edge
    lookup, insert = _memo_fns(manager)
    make = manager._make
    apply_edges = manager.apply_edges
    pvl = manager._pv
    svl = manager._sv
    neql = manager._neq
    eql = manager._eq
    results: List[Edge] = []
    rpush = results.append
    rpop = results.pop
    tasks: List[tuple] = [(_CALL, root, edge < 0, None)]
    tpush = tasks.append
    tpop = tasks.pop
    while tasks:
        tag, node, attr, key = tpop()
        if tag == _CALL:
            if not suppl[node] & bit:
                rpush(-node if attr else node)
                continue
            key = (TAG_QUANT, node, attr, var, op)
            cached = lookup(key)
            if cached is not None:
                rpush(cached)
                continue
            d = -neql[node] if attr else neql[node]
            e = -eql[node] if attr else eql[node]
            if pvl[node] == var:
                # Children never mention the primary variable, and the
                # same surviving condition selects both cofactors:
                # Q f = (sv ? d : e) <op> (sv ? e : d) = d <op> e
                # (for the literal node this is the constant op(0, 1)).
                result = apply_edges(d, e, op)
                insert(key, result)
                rpush(result)
                continue
            if svl[node] == var:
                # The children still depend on the secondary variable:
                # for either value of pv, {~pv, pv} covers both values
                # of var, so Q var . f = f[var := ~pv] <op> f[var := pv].
                f0, f1 = _couple_substitute(manager, d, e, pvl[node], var)
                result = apply_edges(f0, f1, op)
                insert(key, result)
                rpush(result)
                continue
            tpush((_COMBINE, node, attr, key))
            tpush((_CALL, -d if d < 0 else d, d < 0, None))
            tpush((_CALL, -e if e < 0 else e, e < 0, None))
            continue
        d2 = rpop()
        e2 = rpop()
        result = make(pvl[node], svl[node], d2, e2)
        insert(key, result)
        rpush(result)
    return results[-1]


def and_exists(manager, f: Edge, g: Edge, variables) -> Edge:
    """Relational product ``exists variables . f & g`` in one fused pass.

    The workhorse of symbolic image computation (:mod:`repro.reach`):
    instead of materializing the conjunction and then quantifying —
    whose intermediate can dwarf both the operands and the result —
    one memoized sweep expands both operands together over the
    biconditional couple ``(v, w)`` and folds the quantifier in at the
    expansion point:

    * ``v`` quantified (``w`` not) — the couple's branches are disjoint
      and neither mentions ``v``, so
      ``E v . f&g = (f_nq & g_nq) | (f_eq & g_eq)`` — recurse on both
      cofactor pairs and OR the results (existentials distribute over
      the disjunction);
    * ``w`` quantified (``v`` not) — substitute ``w`` by ``v``:
      ``E w . f&g = (f&g)[w := ~v] | (f&g)[w := v]``, where each
      substitution re-roots an operand's top node at ``v`` with at most
      two ``_make`` calls (:func:`_substitute_operand`); recurse on
      both halves, which no longer mention ``w``, and OR the results;
    * neither quantified — rebuild the couple over the recursive
      children (every effective quantified variable lies strictly
      below ``w``: positions between ``v`` and ``w`` are support-free
      by the chained-CVO selection of ``w``).

    Memoized ``(TAG_ANDEX, f, g, vmask)`` with the commutative operands
    in canonical order; subgraphs whose combined support misses the
    quantified set collapse to a plain cached AND.
    """
    indices = sorted({manager.var_index(v) for v in _as_iterable(variables)})
    if not indices:
        return manager.apply_edges(f, g, OP_AND)
    vmask = 0
    for index in indices:
        vmask |= 1 << index
    return _guarded(manager, _and_exists_iter, f, g, indices, vmask)


def _and_exists_iter(manager, f: Edge, g: Edge, vlist, vmask: int) -> Edge:
    lookup, insert = _memo_fns(manager)
    position = manager._order.position
    cofactors = manager._cofactors
    make = manager._make
    apply_edges = manager.apply_edges
    pvl = manager._pv
    svl = manager._sv
    suppl = manager._supp
    results: List[Edge] = []
    rpush = results.append
    rpop = results.pop
    tasks: List[tuple] = [(_CALL, f, g)]
    tpush = tasks.append
    tpop = tasks.pop
    while tasks:
        tag, a, b = tpop()
        if tag == _COMBINE:
            d = rpop()
            e = rpop()
            result = make(a[0], a[1], d, e)
            insert(b, result)
            rpush(result)
            continue
        if tag == _ANDEX_ELSE:
            first = rpop()
            if first == SINK:
                # E x . anything | TRUE: the second disjunct is moot.
                insert(b, SINK)
                rpush(SINK)
                continue
            tpush((_ANDEX_OR, first, b))
            tpush((_CALL, a[0], a[1]))
            continue
        if tag == _ANDEX_OR:
            second = rpop()
            result = apply_edges(a, second, OP_OR)
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
        if f == g:
            rpush(exists(manager, f, vlist))
            continue
        if f == SINK:
            rpush(exists(manager, g, vlist))
            continue
        if g == SINK:
            rpush(exists(manager, f, vlist))
            continue
        fn = -f if f < 0 else f
        gn = -g if g < 0 else g
        if not (suppl[fn] | suppl[gn]) & vmask:
            rpush(apply_edges(f, g, OP_AND))
            continue

        key = (TAG_ANDEX, f, g, vmask)
        cached = lookup(key)
        if cached is not None:
            rpush(cached)
            continue

        # -- fused biconditional expansion (top couple as in _ite_iter) ---
        v = pvl[fn]
        v_pos = position(v)
        p = position(pvl[gn])
        if p < v_pos:
            v, v_pos = pvl[gn], p
        w = None
        w_pos = manager.num_vars + 1
        for node in (fn, gn):
            cand = svl[node] if pvl[node] == v else pvl[node]
            if cand == SV_ONE:
                continue
            cand_pos = position(cand)
            if cand_pos < w_pos:
                w, w_pos = cand, cand_pos
        if w is None:  # pragma: no cover - both-literal cases hit f == +-g
            raise BBDDError("no expansion SV: both operands literal at v")
        if vmask >> w & 1 and not vmask >> v & 1:
            # Only the couple's secondary variable is quantified: for
            # either value of v, {~v, v} covers both values of w, so
            # E w . f&g = (f&g)[w := ~v] | (f&g)[w := v].  Each
            # substitution only re-roots an operand's top node at v,
            # and neither half mentions w any more.  The halves OR
            # lazily: a TRUE first half skips the second.  (With v
            # quantified too the couple expansion below already covers
            # w — E v alone makes both branches reachable for every w
            # value.)
            f0, f1 = _substitute_operand(manager, f, v, w)
            g0, g1 = _substitute_operand(manager, g, v, w)
            tpush((_ANDEX_ELSE, (f0, g0), key))
            tpush((_CALL, f1, g1))
            continue
        f_nq, f_eq = cofactors(fn, v, w)
        g_nq, g_eq = cofactors(gn, v, w)
        if f < 0:
            f_nq = -f_nq
            f_eq = -f_eq
        if g < 0:
            g_nq = -g_nq
            g_eq = -g_eq
        if vmask >> v & 1:
            # Disjoint branches, neither mentioning v: E v collapses to
            # the OR of the branch conjunctions (w, quantified or not,
            # stays free in the cofactors and recurses on) — again
            # lazily: a TRUE ==-half short-circuits the !=-half.
            tpush((_ANDEX_ELSE, (f_nq, g_nq), key))
            tpush((_CALL, f_eq, g_eq))
        else:
            tpush((_COMBINE, (v, w), key))
            tpush((_CALL, f_nq, g_nq))
            tpush((_CALL, f_eq, g_eq))
    return results[-1]


def _couple_substitute(manager, d: Edge, e: Edge, v: int, w: int):
    """``(d[w := ~v], e[w := v])`` for the children of a couple ``(v, w)``.

    ``d`` and ``e`` never mention ``v`` and are rooted at ``w`` or below,
    so a function ``H = (v != w) ? d : e`` has ``H[w := ~v] = d[w := ~v]``
    and ``H[w := v] = e[w := v]``.  A child rooted below ``w`` is
    unchanged; one rooted at ``w`` re-roots its top node at ``v`` —
    ``(w, z, a, b)`` becomes ``(v, z, b, a)`` under ``w := ~v`` (since
    ``~v != z`` iff ``v == z``) and ``(v, z, a, b)`` under ``w := v``.
    The same swap turns ``lit(w)`` into ``~lit(v)`` / ``lit(v)``.
    """
    pvl = manager._pv
    svl = manager._sv
    neql = manager._neq
    eql = manager._eq
    make = manager._make
    dn = -d if d < 0 else d
    if pvl[dn] == w:
        x = make(v, svl[dn], eql[dn], neql[dn])
        d = -x if d < 0 else x
    en = -e if e < 0 else e
    if pvl[en] == w:
        x = make(v, svl[en], neql[en], eql[en])
        e = -x if e < 0 else x
    return d, e


def _substitute_operand(manager, edge: Edge, v: int, w: int):
    """``(edge[w := ~v], edge[w := v])`` for an operand of the couple ``(v, w)``.

    An operand that mentions ``w`` is rooted at ``v`` with secondary
    variable ``w`` or rooted at ``w`` itself (``w`` is the earliest
    next-visible variable of the expansion), and its couple cofactors
    are then its stored children or the operand itself — no node is
    built for them.
    """
    node = -edge if edge < 0 else edge
    if not manager._supp[node] >> w & 1:
        return edge, edge
    d, e = manager._cofactors(node, v, w)
    if edge < 0:
        d = -d
        e = -e
    return _couple_substitute(manager, d, e, v, w)


def relabel(manager, edge: Edge, renames) -> Optional[Edge]:
    """``edge`` with variables renamed structurally, or None.

    ``renames`` maps variable indices to variable indices (unlisted
    variables keep their name).  The rename qualifies when it is
    injective on ``edge``'s support and keeps that support's relative
    CVO order, as the frame shift of :mod:`repro.reach` does.  Then
    each couple ``(pv, sv)`` of the support-chained form maps to
    ``(σ(pv), σ(sv))``, again a pair of consecutive support variables,
    and the complement attribute ``not f(1, …, 1)`` does not depend on
    names, so the renamed diagram costs one memoized ``_make`` per node
    and no apply.  Any other rename returns None.  Subgraphs that
    mention no renamed variable are shared, not copied.
    """
    moved = 0
    for var, target in renames.items():
        if var != target:
            moved |= 1 << var
    root = -edge if edge < 0 else edge
    suppl = manager._supp
    mask = suppl[root]
    if not mask & moved:
        return edge
    position = manager._order._position
    last = -1
    for var in manager._order._order:
        if mask >> var & 1:
            p = position[renames.get(var, var)]
            if p <= last:
                return None
            last = p
    result = _guarded(manager, _relabel_iter, root, renames, moved)
    return -result if edge < 0 else result


def _relabel_iter(manager, root: int, renames, moved: int) -> Edge:
    make = manager._make
    pvl = manager._pv
    svl = manager._sv
    neql = manager._neq
    eql = manager._eq
    suppl = manager._supp
    memo: dict = {}
    stack = [root]
    while stack:
        node = stack[-1]
        if node in memo:
            stack.pop()
            continue
        if not suppl[node] & moved:
            memo[node] = node
            stack.pop()
            continue
        pv = pvl[node]
        sv = svl[node]
        if sv == SV_ONE:
            memo[node] = manager.literal_node(renames[pv])
            stack.pop()
            continue
        d = neql[node]
        dn = -d if d < 0 else d
        e = eql[node]
        if dn not in memo or e not in memo:
            stack.append(dn)
            stack.append(e)
            continue
        stack.pop()
        d2 = memo[dn]
        memo[node] = make(
            renames.get(pv, pv),
            renames.get(sv, sv),
            -d2 if d < 0 else d2,
            memo[e],
        )
    return memo[root]


def _as_iterable(variables) -> Iterable:
    if isinstance(variables, (int, str)):
        return (variables,)
    return tuple(variables)
