"""Backend-agnostic manager protocol and the shared function wrapper.

This module defines the two halves of the unified ``repro.api`` front
end (in the style of tulip-control/``dd``):

* :class:`DDManager` — the **edge protocol** every decision-diagram
  backend implements.  A backend subclasses it and provides the
  primitives listed in its docstring, all operating on bare edges.
  An edge is an opaque per-backend value: the flat-store backends
  (``bbdd`` and ``bdd``) use signed ints, ``xmem`` ``(node, attr)``
  tuples — the ``edge_*`` accessor hooks (with tuple-edge defaults)
  are the only way shared code inspects one.  Everything user-facing —
  :meth:`DDManager.add_expr`, :meth:`DDManager.let`, the whole
  :class:`FunctionBase` surface — is written once against that protocol
  and works identically on BBDDs (:class:`repro.core.BBDDManager`) and
  on the baseline ROBDDs (:class:`repro.bdd.BDDManager`).
* :class:`FunctionBase` — the user-facing handle.  It owns a reference
  on its root node, overloads the Boolean operators and implements the
  package API (evaluation, sat-count/sat-one, cofactors, composition,
  quantification, simultaneous substitution, expression export) purely
  in terms of the protocol, collapsing what used to be two near-
  duplicate wrapper modules.

Nothing here imports a concrete manager, so backends are free to import
this module at class-definition time.
"""

from __future__ import annotations

from itertools import chain, count
from typing import Dict, Iterable, Mapping, Optional, Union

from repro.core.exceptions import BBDDError, ForeignManagerError, VariableError
from repro.core.operations import (
    OP_AND,
    OP_GT,
    OP_LE,
    OP_OR,
    OP_XNOR,
    OP_XOR,
    op_from_name,
)


def check_assignment_bit(bit, label, where: str) -> None:
    """Validate one assignment value (the shared strictness contract).

    Accepts ``bool`` and int ``0``/``1`` only; anything else raises
    ``TypeError`` naming the variable (``label``) and the context
    (``where`` — e.g. ``"assignment"`` or ``"assignment 3"``).  Used by
    both the single-query path (:meth:`FunctionBase.evaluate`) and the
    batch encoders (:mod:`repro.serve.bulk`), so the two surfaces
    cannot drift apart.
    """
    if isinstance(bit, bool):
        return
    if isinstance(bit, int) and bit in (0, 1):
        return
    raise TypeError(
        f"{where}: value for variable {label!r} must be a Boolean "
        f"(bool, or int 0/1), got {bit!r}"
    )


def duplicate_assignment_error(manager, index: int, where: str) -> VariableError:
    """The shared error for a variable assigned twice (name and index)."""
    return VariableError(
        f"{where} assigns variable {manager.var_name(index)!r} more than once"
    )


def resolve_var_index(index: Mapping[str, int], count: int, var) -> int:
    """Resolve a variable name or index (the shared variable-key contract).

    A ``str`` is looked up in ``index``; an ``int`` other than a
    ``bool`` must lie in ``range(count)``.  Anything else (``True``,
    ``1.0``, ``None``), an unknown name or an index out of range raises
    :class:`VariableError`.  The managers (:meth:`DDManager.var_index`)
    and the frozen forest (:meth:`repro.par.ShmForest.var_index`) both
    resolve through it.
    """
    if isinstance(var, str):
        try:
            return index[var]
        except KeyError:
            raise VariableError(f"unknown variable {var!r}") from None
    if isinstance(var, int) and not isinstance(var, bool):
        if 0 <= var < count:
            return var
        raise VariableError(f"variable index {var} out of range")
    raise VariableError(f"variable key must be a name or index, got {var!r}")


class Columns:
    """The compiled read-only query form of a forest.

    One *slot* per node, parents first: every child sits at a strictly
    higher slot than its parents.  Slots 0 and 1 are reserved, and ``1``
    denotes the sink.  Per slot:

    * ``pv`` — the primary variable index;
    * ``sv`` — the secondary variable index, or ``-1`` for a
      single-variable test (literal / Shannon node);
    * ``t`` / ``f`` — signed child references for the branch where the
      node's test holds / fails: ``abs(ref)`` is the child slot, a
      negative sign marks a complemented edge.

    The test holds where ``pv != sv`` on couples and where ``pv`` is 1
    on single-variable tests.

    ``blocks`` is a re-iterable of ``(base, pv, sv, t, f)`` column
    slices in slot order, slot ``base + j`` at index ``j``.  In-memory
    producers hand over one block
    from slot 0; a streaming producer hands over one level block at a
    time.  ``pv_of[slot]`` is any slot's primary variable, readable
    before its block arrives (the kernels look up children with it).
    ``order`` lists variable indices by order position and ``roots``
    maps names to signed root references (``±1`` for constants).
    """

    __slots__ = ("order", "roots", "blocks", "pv_of")

    def __init__(self, order, roots: Dict[str, int], blocks, pv_of) -> None:
        self.order = order
        self.roots = roots
        self.blocks = blocks
        self.pv_of = pv_of

    def positions(self) -> list:
        """The order position of every variable index."""
        pos = [0] * len(self.order)
        for p, var in enumerate(self.order):
            pos[var] = p
        return pos

    def rows(self):
        """``(slot, pv, sv, t, f)`` per slot, parents first."""
        return chain.from_iterable(
            zip(count(base), pv, sv, t, f) for base, pv, sv, t, f in self.blocks
        )

    def joined(self) -> "Columns":
        """These columns as one block from slot 0 (draining a stream)."""
        blocks = list(self.blocks)
        if len(blocks) == 1 and blocks[0][0] == 0:
            return self
        pv, sv, t, f = [0, 0], [-1, -1], [0, 0], [0, 0]
        for _base, bpv, bsv, bt, bf in blocks:
            pv.extend(bpv)
            sv.extend(bsv)
            t.extend(bt)
            f.extend(bf)
        return Columns(self.order, self.roots, [(0, pv, sv, t, f)], pv)


class DDManager:
    """The uniform decision-diagram manager protocol.

    A backend subclasses this and implements the primitives below;
    they all take/return bare edges.  Only :meth:`freeze_export` has a
    stub here (it raises ``NotImplementedError`` naming the backend);
    a backend missing any other primitive fails with
    ``AttributeError`` at its first use.

    ``true_edge`` / ``false_edge``
        Terminal edge properties.
    ``literal_edge(var, positive=True)``
        The projection function of a variable (name or index).
    ``apply_edges(f, g, op)``
        Any of the 16 two-operand operators (4-bit truth-table code).
    ``ite_edges(f, g, h)`` / ``restrict_edge(f, var, value)`` /
    ``compose_edge(f, var, g)`` / ``quantify_edge(f, vars, forall)``
        The derived manipulation operations.
    ``evaluate_edge(f, values)`` / ``sat_one_edge(f)`` /
    ``support_edge(f)`` / ``root_var(f)`` / ``count_nodes(edges)``
        Semantics and structure queries (``values`` and the returned
        assignments are keyed by variable *index*).
    ``freeze_export(named)``
        The producer of the compiled query form (:class:`Columns`)
        behind the batch sweeps, ``sat_count`` and weighted counting,
        which reach it through ``compiled_root(edge)``, and of the rows
        behind ``dump``, ``migrate_forest`` and ``let``.
    ``make_row(pv, sv, t, f)`` (optional)
        One structural node for a replayed :mod:`repro.io` row, behind
        ``dump``/``load``/``migrate_forest``; the default rebuilds every
        row with ``ite_edges``.
    ``acquire_ref(node)`` / ``release_ref(node)`` / ``defer_gc()``
        Memory management hooks used by the function handles.
    ``var_name`` / ``num_vars`` / ``order`` / ``current_order`` /
    ``sift(**kw)``
        Variable bookkeeping and reordering.  ``var_index`` is shared:
        it resolves a key against the backend's ``_index`` (name to
        index) and ``_names``.

    The function-returning conveniences (``var``, ``nvar``,
    ``variables``, ``true``, ``false``, ``function``, ``node_count``)
    are installed by the backend's function module.
    """

    #: Registry name of the backend ("bbdd", "bdd", ...).
    backend = "abstract"

    # -- edge accessors ------------------------------------------------------
    #
    # Shared code never destructures an edge itself; it goes through
    # these hooks.  The defaults implement the ``(node, attr)`` tuple
    # coding of ``xmem``; the flat store of ``bbdd`` and ``bdd``
    # (repro.core.store) overrides all of them with signed-int
    # arithmetic.

    def edge_node(self, edge):
        """The root node (handle/view object) of an edge."""
        return edge[0]

    def edge_attr(self, edge) -> bool:
        """The complement attribute of an edge."""
        return edge[1]

    def node_edge(self, node):
        """The regular (attribute-free) edge onto a node handle/view."""
        return (node, False)

    def negate_edge(self, edge):
        """The complement of an edge (no new nodes)."""
        return (edge[0], not edge[1])

    def edge_is_sink(self, edge) -> bool:
        """True iff the edge denotes a constant."""
        return edge[0].is_sink

    def edge_is_false(self, edge) -> bool:
        """True iff the edge denotes the constant FALSE."""
        return edge[0].is_sink and edge[1]

    def edge_uid(self, edge):
        """A hashable identity of the edge (memo keys, hashes)."""
        return (edge[0].uid, edge[1])

    def acquire_edge(self, edge) -> None:
        """Acquire one reference on an edge's root (handle creation)."""
        self.acquire_ref(edge[0])

    def release_edge(self, edge) -> None:
        """Release one reference on an edge's root (handle drop)."""
        self.release_ref(edge[0])

    # -- shared front-end surface (written once, works on any backend) --

    def var_index(self, var: Union[int, str]) -> int:
        """Resolve a variable name or non-``bool`` int index to its index.

        See :func:`resolve_var_index`; every other key raises
        :class:`VariableError`.
        """
        return resolve_var_index(self._index, len(self._names), var)

    def add_expr(self, text: str):
        """Build a function from a Boolean expression string.

        Grammar (see :mod:`repro.api.expr`): ``& | ^ ~ -> <->``,
        ``ite(f, g, h)``, ``TRUE``/``FALSE``, and the quantifiers
        ``\\E x, y: ...`` / ``\\A x, y: ...``.
        """
        from repro.api.expr import add_expr

        return add_expr(self, text)

    def let(self, substitutions: Mapping, f: "FunctionBase"):
        """Manager-level spelling of :meth:`FunctionBase.let`."""
        if f.manager is not self:
            raise ForeignManagerError("function belongs to a different manager")
        return f.let(substitutions)

    def to_expr(self, f: "FunctionBase") -> str:
        """Manager-level spelling of :meth:`FunctionBase.to_expr`."""
        if f.manager is not self:
            raise ForeignManagerError("function belongs to a different manager")
        return f.to_expr()

    def evaluate_batch(self, f: "FunctionBase", assignments, workers: Optional[int] = None):
        """Manager-level spelling of :meth:`FunctionBase.evaluate_batch`."""
        if f.manager is not self:
            raise ForeignManagerError("function belongs to a different manager")
        return f.evaluate_batch(assignments, workers=workers)

    def weighted_count(self, f: "FunctionBase", weights=None, *, exact: bool = True):
        """Manager-level spelling of :meth:`FunctionBase.weighted_count`."""
        if f.manager is not self:
            raise ForeignManagerError("function belongs to a different manager")
        return f.weighted_count(weights, exact=exact)

    def p_one(self, f: "FunctionBase", weights=None, *, exact: bool = True):
        """Manager-level spelling of :meth:`FunctionBase.p_one`."""
        if f.manager is not self:
            raise ForeignManagerError("function belongs to a different manager")
        return f.p_one(weights, exact=exact)

    def marginals(
        self, f: "FunctionBase", weights=None, variables=None, *, exact: bool = True
    ):
        """Manager-level spelling of :meth:`FunctionBase.marginals`."""
        if f.manager is not self:
            raise ForeignManagerError("function belongs to a different manager")
        return f.marginals(weights, variables, exact=exact)

    def and_exists(self, f: "FunctionBase", g: "FunctionBase", variables):
        """Manager-level spelling of :meth:`FunctionBase.and_exists`."""
        if f.manager is not self or g.manager is not self:
            raise ForeignManagerError("function belongs to a different manager")
        return f.and_exists(g, variables)

    # -- compiled query form (repro.serve, repro.wmc, repro.par) ----------

    def freeze_export(self, named):
        """The backend's producer of the compiled query form (required).

        ``named`` is a list of ``(name, edge)`` pairs; the result is a
        :class:`Columns` of every node reachable from them, ``roots``
        keyed by those names.  The batch sweeps, ``sat_count`` and the
        weighted counts compile the queried root through
        :meth:`compiled_root`, :meth:`repro.par.shm.ShmForest.freeze`
        copies the columns into shared memory, and
        :func:`repro.io.migrate.export_rows` turns them into rows.
        """
        raise NotImplementedError(
            f"the {self.backend!r} backend does not implement freeze_export"
        )

    def compiled_root(self, edge):
        """The compiled columns of one root (named ``"f"``).

        This default compiles on every call.  The built-in managers
        override it to keep the last root's columns in their computed
        table, so consecutive queries of one function compile it once
        and every table clear (GC, reordering) drops them.
        """
        return self.freeze_export([("f", edge)])

    def evaluate_batch_edges(self, edge, batch):
        """Evaluate one encoded batch (see :mod:`repro.serve.bulk`).

        The levelized cohort sweep over the compiled columns —
        ``O(nodes + queries)``.
        """
        from repro.serve.bulk import cohort_sweep, sweep_chunks

        columns = self.compiled_root(edge)
        root = columns.roots["f"]
        return sweep_chunks(
            batch, lambda part: cohort_sweep(columns, root, part.var_bits, part.full)
        )

    def satisfiable_batch_edges(self, edge, batch):
        """Batched cube satisfiability (see :func:`repro.serve.bulk.satisfiable_batch`).

        Unconstrained queries flow into both branches of one sweep over
        the compiled columns.
        """
        from repro.serve.bulk import cube_sweep, sweep_chunks

        columns = self.compiled_root(edge)
        root = columns.roots["f"]
        return sweep_chunks(
            batch,
            lambda part: cube_sweep(
                columns, root, part.var_bits, part.known_bits, part.full
            ),
        )

    def sat_count_edge(self, edge) -> int:
        """Satisfying assignments of ``edge`` over all manager variables.

        The column count :func:`repro.wmc.sweep.sat_count` over the
        compiled root.
        """
        from repro.wmc.sweep import sat_count

        columns = self.compiled_root(edge)
        return sat_count(columns, columns.roots["f"])

    def weighted_count_edge(self, edge, w1, w0, one, zero, *, joints=None):
        """Weighted model count of ``edge`` (see :mod:`repro.wmc`).

        ``w1``/``w0`` are per-variable weight columns indexed by
        variable index, ``one``/``zero`` the units of the arithmetic in
        use (Fractions or floats).  With ``joints`` (variable indices)
        the result is ``(count, {index: WMC(f ∧ v)})``, from the column
        kernel :func:`repro.wmc.sweep.wmc_sweep`.
        """
        from repro.wmc.sweep import wmc_sweep

        columns = self.compiled_root(edge)
        return wmc_sweep(
            columns, columns.roots["f"], w1, w0, one, zero, joints=joints
        )

    def and_exists_edges(self, f, g, variables):
        """Relational product ``exists variables . f & g``.

        The built-in backends override this with a fused one-pass
        cofactor sweep (:func:`repro.core.apply.and_exists`,
        :func:`repro.bdd.ops.and_exists`); this default composes public
        operations with *early quantification* — variables confined to
        one operand's support are quantified out of that operand before
        the conjunction, so only variables both operands mention pay
        for the intermediate product.
        """
        if isinstance(variables, (str, int)):
            variables = (variables,)
        indices = sorted({self.var_index(v) for v in variables})
        with self.defer_gc():
            if not indices:
                return self.apply_edges(f, g, OP_AND)
            fsupp = set(self.support_edge(f))
            gsupp = set(self.support_edge(g))
            f_only = [v for v in indices if v in fsupp and v not in gsupp]
            g_only = [v for v in indices if v in gsupp and v not in fsupp]
            shared = [v for v in indices if v in fsupp and v in gsupp]
            if f_only:
                f = self.quantify_edge(f, f_only, False)
            if g_only:
                g = self.quantify_edge(g, g_only, False)
            product = self.apply_edges(f, g, OP_AND)
            if shared:
                product = self.quantify_edge(product, shared, False)
            return product

    # -- persistence and row replay (repro.io) ------------------------------

    def dump(self, functions, target, compress: bool = False) -> None:
        """Write a forest to ``target`` in the levelized ``.bbdd`` container.

        ``functions`` is a ``{name: function}`` mapping (or a sequence);
        ``target`` a path or binary file object.  ``compress=True``
        writes the v2 ``FLAG_COMPRESSED`` container.  See
        :func:`repro.io.dump`.
        """
        from repro.io.binary import dump

        dump(self, functions, target, compress=compress)

    def load(self, source, rename=None) -> dict:
        """Load any ``.bbdd`` dump *into this manager*; ``{name: function}``.

        The dump's variables (after the optional ``rename`` mapping)
        must all exist here, but this manager may hold a superset of
        them, use a different order or another backend than the one
        that wrote the dump — nodes are re-reduced on the fly.  To load
        into a fresh manager use :func:`repro.io.load`.
        """
        from repro.io.binary import load

        return load(source, manager=self, rename=rename)[1]

    def row_target(self):
        """Where :class:`repro.io.migrate.ForestRebuilder` builds rows.

        A target offers ``true_edge``, ``negate_edge``, ``literal_edge``,
        ``apply_edges``, ``ite_edges``, ``make_row`` and
        ``finish_rows``.  The default is the manager itself, building
        bare edges; a backend that builds elsewhere (xmem's builder)
        returns its own target.
        """
        return self

    def make_row(self, pv: int, sv, t, f):
        """Row ``(pv, sv, t, f)`` as one structural node, or None.

        ``sv`` is None for a single-variable row; ``t``/``f`` are the
        children where the test holds / fails.  Called only when the
        source order survives in this manager.  None (this default, or
        a row the backend cannot store as it is) rebuilds the row as
        ``ite(test, t, f)``.
        """
        return None

    def finish_rows(self, edges) -> list:
        """The replayed root edges as this manager's edges (no-op here)."""
        return edges

    def relabel_edge(self, edge, values):
        """``edge`` under a rename done in place of a rebuild, or None.

        ``values`` maps variable indices to the edges substituted for
        them.  A backend whose node form lets a pure variable rename
        reuse the diagram's structure returns the renamed edge; None
        (this default) sends :meth:`FunctionBase.let` to the general
        :func:`rebuild_function`.
        """
        return None


def rebuild_function(manager, edge, var_fn):
    """The function of ``edge`` with every variable mapped through ``var_fn``.

    ``var_fn`` maps a variable index to a function handle of
    ``manager``.  The general path of :meth:`FunctionBase.let`: the
    diagram is exported once as rows (:func:`repro.io.migrate.export_rows`)
    and replayed deepest level first, a couple row as
    ``ite(var_fn(pv) ^ var_fn(sv), t, f)`` and a single-variable row as
    ``ite(var_fn(pv), t, f)``.  Substitution distributes over both
    expansions, and each row reads only the rows built before it, so
    values are never re-substituted: the substitution is simultaneous
    by construction.  One ``ite`` per node in one flat loop, so deep
    diagrams need no recursion.  Everything built is a function
    handle, so automatic GC stays safe mid-rebuild.
    """
    from repro.io.migrate import export_rows

    levels, ((_name, root),) = export_rows(manager, {"f": edge})
    order = manager.order.order
    built = [manager.true()]
    tests: Dict[tuple, "FunctionBase"] = {}
    for _position, rows in levels:
        for position, sv_position, t_ref, f_ref in rows:
            test = tests.get((position, sv_position))
            if test is None:
                test = var_fn(order[position])
                if sv_position is not None:
                    test = test ^ var_fn(order[sv_position])
                tests[position, sv_position] = test
            t = built[t_ref >> 1]
            f = built[f_ref >> 1]
            built.append(test.ite(~t if t_ref & 1 else t, ~f if f_ref & 1 else f))
    result = built[root >> 1]
    return ~result if root & 1 else result


def own_edge(manager, f):
    """The bare edge of ``f``, a handle of ``manager`` or a bare edge.

    A handle of any other manager raises :class:`ForeignManagerError`:
    its edge would name nodes of the wrong store.
    """
    if isinstance(f, FunctionBase):
        if f.manager is not manager:
            raise ForeignManagerError("function belongs to a different manager")
        return f.edge
    return f


def install_function_helpers(manager_cls, function_cls) -> None:
    """Attach the function-returning conveniences to a manager class.

    Called by each backend's function module (which avoids a circular
    import between its manager and function modules) with its concrete
    :class:`FunctionBase` subclass; the installed surface —
    ``var``/``nvar``/``variables``/``true``/``false``/``function``/
    ``node_count`` — is therefore identical across backends by
    construction.
    """

    def var(self, name_or_index):
        return function_cls(self, self.literal_edge(name_or_index))

    def nvar(self, name_or_index):
        return function_cls(self, self.literal_edge(name_or_index, positive=False))

    def variables(self):
        return [function_cls(self, self.literal_edge(i)) for i in range(self.num_vars)]

    def true(self):
        return function_cls(self, self.true_edge)

    def false(self):
        return function_cls(self, self.false_edge)

    def function(self, edge):
        return function_cls(self, edge)

    def node_count(self, functions):
        return self.count_nodes([own_edge(self, f) for f in functions])

    manager_cls.var = var
    manager_cls.nvar = nvar
    manager_cls.variables = variables
    manager_cls.true = true
    manager_cls.false = false
    manager_cls.function = function
    manager_cls.node_count = node_count


class FunctionBase:
    """A Boolean function handle over any :class:`DDManager` backend.

    Create instances through the manager helpers (``manager.var``,
    ``manager.true``, ``manager.add_expr``, ...) or by combining other
    functions with the overloaded operators.  Because both backends keep
    reduced, ordered, canonical diagrams, ``f == g`` is a pointer
    comparison on ``(node, attr)``.
    """

    __slots__ = ("manager", "_edge", "__weakref__")

    def __init__(self, manager, edge) -> None:
        self.manager = manager
        self._edge = edge
        manager.acquire_edge(edge)

    def __del__(self) -> None:
        # Interpreter shutdown may have torn down attributes already.
        edge = getattr(self, "_edge", None)
        if edge is None:
            return
        manager = getattr(self, "manager", None)
        if manager is None:
            return
        try:
            # Dropping a handle feeds the automatic garbage collector.
            manager.release_edge(edge)
        except Exception:  # pragma: no cover - interpreter teardown
            pass

    # -- identity -----------------------------------------------------------

    @property
    def edge(self):
        """The bare backend edge this handle references."""
        return self._edge

    @property
    def node(self):
        """The root node of this handle's edge (a backend node/view)."""
        return self.manager.edge_node(self._edge)

    @property
    def attr(self) -> bool:
        """The complement attribute of this handle's edge."""
        return self.manager.edge_attr(self._edge)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FunctionBase):
            return NotImplemented
        return self.manager is other.manager and self._edge == other._edge

    def __hash__(self) -> int:
        return hash((id(self.manager), self.manager.edge_uid(self._edge)))

    def _wrap(self, edge) -> "FunctionBase":
        return type(self)(self.manager, edge)

    def _coerce(self, other):
        """Normalize an operand to an edge of this manager.

        Accepts a function of the same manager, or the Boolean constants
        ``True``/``False``/``1``/``0`` (``bool`` or ``int`` only — any
        other type raises ``TypeError``, including number-like objects
        that merely compare equal to 0 or 1).
        """
        if isinstance(other, FunctionBase):
            if other.manager is not self.manager:
                raise ForeignManagerError(
                    "cannot combine functions from different managers"
                )
            return other.edge
        if isinstance(other, bool):
            return self.manager.true_edge if other else self.manager.false_edge
        if isinstance(other, int) and other in (0, 1):
            return self.manager.true_edge if other else self.manager.false_edge
        raise TypeError(
            f"cannot combine {type(self).__name__} with {type(other).__name__}"
        )

    # -- Boolean operators --------------------------------------------------

    def apply(self, other, op: Union[int, str]) -> "FunctionBase":
        """Apply any of the 16 two-operand operators (table or name)."""
        if isinstance(op, str):
            op = op_from_name(op)
        return self._wrap(self.manager.apply_edges(self.edge, self._coerce(other), op))

    def __and__(self, other) -> "FunctionBase":
        return self.apply(other, OP_AND)

    __rand__ = __and__

    def __or__(self, other) -> "FunctionBase":
        return self.apply(other, OP_OR)

    __ror__ = __or__

    def __xor__(self, other) -> "FunctionBase":
        return self.apply(other, OP_XOR)

    __rxor__ = __xor__

    def __invert__(self) -> "FunctionBase":
        return self._wrap(self.manager.negate_edge(self._edge))

    def xnor(self, other) -> "FunctionBase":
        """Biconditional (equality) of two functions."""
        return self.apply(other, OP_XNOR)

    def implies(self, other) -> "FunctionBase":
        """Material implication ``self -> other``."""
        return self.apply(other, OP_LE)

    def and_not(self, other) -> "FunctionBase":
        """Difference ``self & ~other``."""
        return self.apply(other, OP_GT)

    def ite(self, g, h) -> "FunctionBase":
        """``self ? g : h``."""
        return self._wrap(
            self.manager.ite_edges(self.edge, self._coerce(g), self._coerce(h))
        )

    # -- constants ----------------------------------------------------------

    @property
    def is_true(self) -> bool:
        """True iff this is the constant TRUE (the regular sink edge)."""
        manager = self.manager
        return manager.edge_is_sink(self._edge) and not manager.edge_is_false(
            self._edge
        )

    @property
    def is_false(self) -> bool:
        """True iff this is the constant FALSE (the complemented sink)."""
        return self.manager.edge_is_false(self._edge)

    @property
    def is_constant(self) -> bool:
        """True iff this is TRUE or FALSE."""
        return self.manager.edge_is_sink(self._edge)

    # -- semantics ----------------------------------------------------------

    def _values_from(self, assignment: Mapping) -> Dict[int, bool]:
        """Normalize an assignment to ``{index: bool}``, strictly.

        Unknown variables raise :class:`VariableError`; a variable
        assigned twice (say, by name *and* by index) raises
        :class:`VariableError`; values other than ``bool``/``0``/``1``
        raise ``TypeError``.  This is the validation contract shared by
        :meth:`evaluate`, :meth:`evaluate_batch` and
        :meth:`satisfiable_batch` — constants included: an empty-support
        function still rejects a malformed mapping instead of silently
        ignoring it.
        """
        manager = self.manager
        values: Dict[int, bool] = {}
        for key, bit in assignment.items():
            index = manager.var_index(key)
            if index in values:
                raise duplicate_assignment_error(manager, index, "assignment")
            check_assignment_bit(bit, manager.var_name(index), "assignment")
            values[index] = bool(bit)
        return values

    def evaluate(self, assignment: Mapping) -> bool:
        """Evaluate at an assignment keyed by variable name or index.

        The assignment must cover the function's support variables;
        missing support variables raise
        :class:`~repro.core.exceptions.VariableError` *naming the
        missing variables*.  Variables outside the support may be
        omitted (they default to False, which cannot change the
        result).  Unknown variables, duplicate assignments and
        non-Boolean values are rejected even on constants (see
        :meth:`_values_from`).
        """
        values = self._values_from(assignment)
        if len(values) < self.manager.num_vars:
            # Partial assignment: the support check needs the actual
            # support (O(1) mask read on BBDDs, a DAG walk on BDDs —
            # complete assignments skip it entirely).
            missing = [
                v for v in self.manager.support_edge(self.edge) if v not in values
            ]
            if missing:
                names = ", ".join(
                    self.manager.var_name(v) for v in sorted(missing)
                )
                raise VariableError(
                    f"assignment misses support variable(s): {names}"
                )
            for var in range(self.manager.num_vars):
                values.setdefault(var, False)
        return self.manager.evaluate_edge(self.edge, values)

    def evaluate_batch(self, assignments, workers: Optional[int] = None) -> list:
        """Evaluate at many assignments with one levelized sweep.

        ``assignments`` is an iterable of mappings — each under the
        exact :meth:`evaluate` contract, with error messages naming the
        offending batch position and the missing variables — or a
        pre-packed :class:`repro.serve.bulk.ColumnBatch`.  Returns one
        ``bool`` per assignment, in order.  The whole batch flows
        through the diagram top-down as bitset cohorts
        (:mod:`repro.serve.bulk`), so the cost is
        ``O(nodes + queries)`` instead of one root-to-sink walk per
        query.

        With ``workers=N`` (truthy) the sweep runs across the shared
        worker pool of :mod:`repro.par`: the forest is frozen into
        shared memory and the batch's lane chunks are swept by ``N``
        processes in parallel — worthwhile for large batches on large
        diagrams.  Where ``multiprocessing.shared_memory`` is missing
        the sequential path answers instead.
        """
        if workers:
            from repro.par import parallel_evaluate_batch

            return parallel_evaluate_batch(self, assignments, workers=workers)
        from repro.serve.bulk import evaluate_batch

        return evaluate_batch(self, assignments)

    def satisfiable_batch(self, assignments, workers: Optional[int] = None) -> list:
        """For each partial assignment (cube): is ``f ∧ cube`` satisfiable?

        Same input forms and error contract as :meth:`evaluate_batch`,
        except assignments may be partial — unconstrained variables are
        existentially quantified by the sweep itself (a query flows
        into both branches where its cube does not decide the test).
        ``workers=N`` parallelizes exactly like :meth:`evaluate_batch`.
        """
        if workers:
            from repro.par import parallel_satisfiable_batch

            return parallel_satisfiable_batch(self, assignments, workers=workers)
        from repro.serve.bulk import satisfiable_batch

        return satisfiable_batch(self, assignments)

    def __call__(self, **kwargs) -> bool:
        return self.evaluate(kwargs)

    def sat_count(self) -> int:
        """Number of satisfying assignments over all manager variables."""
        return self.manager.sat_count_edge(self.edge)

    def weighted_count(self, weights=None, *, exact: bool = True):
        """Weighted model count over all manager variables.

        ``weights`` maps variables to ``(w1, w0)`` pairs or single
        numbers ``p`` (meaning ``(p, 1 - p)``); unmentioned variables
        weigh ``(1, 1)``.  See :func:`repro.wmc.weighted_count`.
        """
        from repro.wmc import weighted_count

        return weighted_count(self, weights, exact=exact)

    def p_one(self, weights=None, *, exact: bool = True):
        """``p(f = 1)`` under independent per-variable probabilities.

        ``weights`` maps variables to ``p(v = 1)``; unmentioned
        variables default to ``1/2``.  See :func:`repro.wmc.p_one`.
        """
        from repro.wmc import p_one

        return p_one(self, weights, exact=exact)

    def marginals(self, weights=None, variables=None, *, exact: bool = True):
        """Posterior marginals ``p(v = 1 | f = 1)`` per support variable.

        See :func:`repro.wmc.marginals`.
        """
        from repro.wmc import marginals

        return marginals(self, weights, variables, exact=exact)

    def sat_one(self) -> Optional[Dict[str, bool]]:
        """One satisfying assignment (by name), or None if unsatisfiable.

        The assignment covers the function's whole support (support
        variables the witness path leaves unconstrained are fixed to
        False), so it always evaluates to True via :meth:`evaluate`.
        """
        values = self.manager.sat_one_edge(self.edge)
        if values is None:
            return None
        for var in self.manager.support_edge(self.edge):
            values.setdefault(var, False)
        return {self.manager.var_name(v): b for v, b in values.items()}

    def node_count(self) -> int:
        """Nodes of this function's diagram (sink excluded)."""
        return self.manager.count_nodes([self.edge])

    def support(self) -> frozenset:
        """Names of the variables the function truly depends on."""
        return frozenset(
            self.manager.var_name(v) for v in self.manager.support_edge(self.edge)
        )

    def truth_mask(self, variables: Iterable) -> int:
        """Truth-table bitmask over the given variables (testing helper)."""
        manager = self.manager
        indices = [manager.var_index(v) for v in variables]
        values: Dict[int, bool] = {v: False for v in range(manager.num_vars)}
        mask = 0
        edge = self.edge
        for i in range(1 << len(indices)):
            for j, var in enumerate(indices):
                values[var] = bool((i >> j) & 1)
            if manager.evaluate_edge(edge, values):
                mask |= 1 << i
        return mask

    # -- manipulation -------------------------------------------------------

    def restrict(self, var, value: bool) -> "FunctionBase":
        """Cofactor with ``var = value``."""
        return self._wrap(self.manager.restrict_edge(self.edge, var, value))

    def compose(self, var, g) -> "FunctionBase":
        """Substitute function ``g`` for variable ``var``."""
        return self._wrap(
            self.manager.compose_edge(self.edge, var, self._coerce(g))
        )

    def exists(self, variables) -> "FunctionBase":
        """Existential quantification over ``variables`` (names/indices)."""
        return self._wrap(self.manager.quantify_edge(self.edge, variables, False))

    def forall(self, variables) -> "FunctionBase":
        """Universal quantification over ``variables`` (names/indices)."""
        return self._wrap(self.manager.quantify_edge(self.edge, variables, True))

    def and_exists(self, other, variables) -> "FunctionBase":
        """Relational product ``exists variables . self & other``.

        One fused sweep on the built-in backends — the conjunction is
        never materialized, which is what makes symbolic image
        computation (:mod:`repro.reach`) scale.
        """
        return self._wrap(
            self.manager.and_exists_edges(self.edge, self._coerce(other), variables)
        )

    def equivalent(self, other) -> bool:
        """Canonicity-based equivalence check (pointer comparison)."""
        return self._edge == self._coerce(other)

    def let(self, substitutions: Mapping) -> "FunctionBase":
        """Simultaneous substitution (the ``dd``-style ``let``).

        ``substitutions`` maps variables (names or indices) to
        replacement values, which may be

        * a variable **name** (``str``) — rename,
        * a Boolean **constant** (``bool`` or ``int`` 0/1) — restrict,
        * a **function** of the same manager — compose.

        All substitutions happen simultaneously: ``f.let({'x': 'y',
        'y': 'x'})`` swaps the two variables, unlike a chain of
        one-at-a-time ``compose`` calls.  Internally the function's
        rows (:func:`repro.io.migrate.export_rows`) are replayed deepest
        level first with every variable mapped through the substitution
        (a vector compose, :func:`rebuild_function`), so values may
        freely mention the substituted variables, and the cost is one
        ``ite`` per node — bulk renames of many variables are cheap.
        A rename that the backend can do structurally
        (:meth:`DDManager.relabel_edge`: on ``bbdd``, an injective
        rename keeping the relative order of the support, such as the
        reachability frame shift) skips the rebuild and costs one node
        construction per node.
        """
        manager = self.manager
        consts = []
        funcs = []
        seen = set()
        for var, value in substitutions.items():
            index = manager.var_index(var)
            if index in seen:
                raise BBDDError(
                    f"duplicate substitution for {manager.var_name(index)!r}"
                )
            seen.add(index)
            if isinstance(value, FunctionBase):
                if value.manager is not manager:
                    raise ForeignManagerError(
                        "substitution value belongs to a different manager"
                    )
                funcs.append((index, value))
            elif isinstance(value, str):
                funcs.append((index, self._wrap(manager.literal_edge(value))))
            elif isinstance(value, bool) or (
                isinstance(value, int) and value in (0, 1)
            ):
                consts.append((index, bool(value)))
            else:
                raise TypeError(
                    "let values must be a variable name, a Boolean "
                    f"constant, or a function; got {type(value).__name__}"
                )
        f = self
        # Constants commute with everything: plain restricts, cheapest
        # first.  They also cannot collide with the simultaneous pass
        # below because each key is distinct.
        for index, bit in consts:
            f = f.restrict(index, bit)
        if not funcs:
            return f
        renamed = manager.relabel_edge(
            f.edge, {index: value.edge for index, value in funcs}
        )
        if renamed is not None:
            return self._wrap(renamed)
        values: Dict[int, "FunctionBase"] = dict(funcs)

        def var_fn(index: int) -> "FunctionBase":
            value = values.get(index)
            if value is None:
                value = self._wrap(manager.literal_edge(index))
                values[index] = value
            return value

        return rebuild_function(manager, f.edge, var_fn)

    # -- expression export --------------------------------------------------

    def to_expr(self) -> str:
        """Canonical, re-parseable expression string of the function.

        The output uses only ``ite(v, T, E)`` nests (Shannon expansion on
        the first support variable in the current order), literal
        shortcuts ``v`` / ``~v``, and the constants ``TRUE``/``FALSE`` —
        all inside the :meth:`DDManager.add_expr` grammar, so
        ``manager.add_expr(f.to_expr()) == f`` for every function.  The
        string is deterministic for a given function and variable order.

        The grammar has no sharing construct (no let-binding), so the
        output is a *tree*: a shared subgraph is re-rendered at every
        reference, and share-heavy functions (e.g. wide parities) grow
        exponentially in their support size.  ``to_expr`` is an
        interchange/debugging surface for small functions — persist
        large forests with :meth:`dump`, which keeps the DAG sharing.

        Variable names that the grammar cannot re-tokenize — non-
        identifiers, or collisions with the ``TRUE``/``FALSE``/``ite``
        keywords — raise :class:`~repro.api.expr.ExprError` instead of
        silently emitting a string that parses to a different function.
        """
        from repro.api.expr import exportable_name

        manager = self.manager
        memo: Dict[tuple, str] = {}
        pending: Dict[tuple, tuple] = {}
        root = self.edge
        # Iterative post-order: bare child edges are parked in ``pending``
        # until both sub-expressions are rendered, so GC stays deferred
        # for the whole walk.
        edge_uid = manager.edge_uid
        with manager.defer_gc():
            stack = [root]
            while stack:
                edge = stack[-1]
                key = edge_uid(edge)
                if key in memo:
                    stack.pop()
                    continue
                if manager.edge_is_sink(edge):
                    memo[key] = "FALSE" if manager.edge_attr(edge) else "TRUE"
                    stack.pop()
                    continue
                entry = pending.get(key)
                if entry is None:
                    var = manager.root_var(edge)
                    high = manager.restrict_edge(edge, var, True)
                    low = manager.restrict_edge(edge, var, False)
                    pending[key] = (var, high, low)
                    stack.append(low)
                    stack.append(high)
                    continue
                var, high, low = entry
                s1 = memo[edge_uid(high)]
                s0 = memo[edge_uid(low)]
                name = exportable_name(manager.var_name(var))
                if s1 == "TRUE" and s0 == "FALSE":
                    memo[key] = name
                elif s1 == "FALSE" and s0 == "TRUE":
                    memo[key] = "~" + name
                else:
                    memo[key] = f"ite({name}, {s1}, {s0})"
                stack.pop()
        return memo[edge_uid(root)]

    # -- persistence --------------------------------------------------------

    def dump(self, target, name: str = "f0", compress: bool = False) -> None:
        """Write this function to ``target`` in the backend's binary format.

        ``target`` is a path or a binary file object; ``name`` is the
        root's stored name (what the loader keys it by);
        ``compress=True`` writes the v2 ``FLAG_COMPRESSED`` container.
        """
        self.manager.dump({name: self}, target, compress=compress)

    # -- display ------------------------------------------------------------

    def __repr__(self) -> str:
        label = type(self).__name__
        if self.is_true:
            return f"<{label} TRUE>"
        if self.is_false:
            return f"<{label} FALSE>"
        return (
            f"<{label} root=v{self.manager.root_var(self.edge)}"
            f"{'~' if self.attr else ''} nodes={self.node_count()}>"
        )
