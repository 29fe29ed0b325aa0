"""Edge coding and row views for the flat integer-coded node store.

The core stores nodes as **dense positive integers** indexing parallel
arrays owned by :class:`repro.core.store.NodeStore` (the
tulip-control/dd idiom): slot ``i`` of the ``_pv``/``_sv``/``_neq``/
``_eq``/``_ref``/``_supp`` arrays holds node ``i``'s fields.  An *edge*
is a single signed int whose sign carries the complement attribute —
``-e`` is ``NOT e``, so negation is unary minus and the operator
updates of Algorithm 1 become integer arithmetic.  The sink is index
``1`` (``+1`` = constant True edge, ``-1`` = constant False edge);
index ``0`` is never allocated so every edge has an observable sign.

A BBDD internal node is labelled by a Primary Variable (PV) and a
Secondary Variable (SV) and has two out-edges, ``PV != SV`` and
``PV = SV``; it denotes the biconditional expansion (Eq. 1)::

    f = (v xor w) f_neq  +  (v xnor w) f_eq

Canonical-form conventions (Sec. III-D) carried over into the coding:

* only the 1-sink exists; the constant 0 is the complemented edge -1;
* complement attributes live on ``!=``-edges (and on external edges):
  ``_neq[i]`` is stored as a signed edge while ``_eq[i]`` is always
  regular, i.e. positive;
* single-variable functions degenerate to *literal nodes* — rule R4's
  "BDD node" with ``SV = 1`` — whose children are fixed: ``neq = -1``
  (value 0) and ``eq = +1``.

A row with ``SV = 1`` tests its primary variable alone, ``eq`` where it
is 1 and ``neq`` where it is 0.  That is also the shape of a Shannon
node, so the baseline BDD package keeps its nodes in the same store as
rows ``(var, SV_ONE, else, then)``, then-edges regular.

:class:`BBDDNode` survives only as a **lazy read-only view** over one
slot, interned per manager (``manager.node_view(i)`` returns the same
object for the same index) so handle identity checks such as
``f.node is g.node`` keep working.  A view is not a handle: holding it
does not keep the slot alive, and its fields are undefined once the
slot is swept.
"""

from __future__ import annotations

import weakref

#: Sentinel variable index for a literal node's secondary variable (the
#: fictitious constant-1 variable of the paper's boundary condition).
SV_ONE = -1

#: Sentinel variable index identifying the sink node.
SINK_VAR = -2

#: Index of the sink node in every manager's arrays.
SINK = 1

#: An edge is one signed int: ``abs(edge)`` is the node index,
#: ``edge < 0`` the complement attribute.
Edge = int


class BBDDNode:
    """Read-only view of one row of the store (render/debug surface).

    The view of both backends' nodes: on a BDD manager ``pv`` is the
    node's variable, ``eq_edge`` its then-edge and ``neq_edge`` its
    signed else-edge.

    Exposes the object-style field surface (``pv``, ``sv``, ``neq``,
    ``neq_attr``, ``eq``, ``ref``, ``supp``, ``uid``, ...) on top of
    the manager's arrays.  Child accessors return interned views; the
    raw signed child edges are available as ``neq_edge``/``eq_edge``.
    """

    __slots__ = ("_manager", "index")

    def __init__(self, manager, index: int) -> None:
        # Weak back-reference: the manager interns its views, so a
        # strong one would cycle manager <-> view and managers could
        # then only die through Python's cyclic collector.
        self._manager = weakref.ref(manager)
        self.index = index

    @property
    def manager(self):
        return self._manager()

    # -- raw fields ----------------------------------------------------------

    @property
    def pv(self) -> int:
        return self.manager._pv[self.index]

    @property
    def sv(self) -> int:
        return self.manager._sv[self.index]

    @property
    def neq_edge(self) -> Edge:
        """The stored ``!=``-edge as a signed int."""
        return self.manager._neq[self.index]

    @property
    def eq_edge(self) -> Edge:
        """The stored ``=``-edge (always regular, i.e. positive)."""
        return self.manager._eq[self.index]

    @property
    def ref(self) -> int:
        return self.manager._ref[self.index]

    @property
    def floating(self) -> bool:
        return bool(self.manager._float[self.index])

    @property
    def supp(self) -> int:
        return self.manager._supp[self.index]

    @property
    def uid(self) -> int:
        """Stable identity of this node — its array index."""
        return self.index

    # -- object-style child surface ------------------------------------------

    @property
    def neq(self):
        """View of the ``!=``-child node (None on the sink)."""
        if self.index == SINK:
            return None
        child = self.manager._neq[self.index]
        return self.manager.node_view(-child if child < 0 else child)

    @property
    def neq_attr(self) -> bool:
        return self.manager._neq[self.index] < 0

    @property
    def eq(self):
        """View of the ``=``-child node (None on the sink)."""
        if self.index == SINK:
            return None
        return self.manager.node_view(self.manager._eq[self.index])

    # -- classification ------------------------------------------------------

    @property
    def is_sink(self) -> bool:
        return self.index == SINK

    @property
    def is_literal(self) -> bool:
        """True for single-variable rows (``SV = 1``): R4 literals, and
        every node of a BDD manager."""
        return self.index != SINK and self.manager._sv[self.index] == SV_ONE

    @property
    def is_chain(self) -> bool:
        """True for regular two-variable biconditional nodes."""
        return self.index != SINK and self.manager._sv[self.index] != SV_ONE

    def key(self) -> tuple:
        """The unique-table key of this node's slot.

        Every row is keyed by ``(pv, sv, neq_edge, eq_edge)``, a literal
        by ``(pv, SV_ONE, -1, 1)``.  Under a CVO the pair ``(pv, sv)`` is
        equivalent to the paper's ``CVO-level`` field, and keying by the
        variable pair keeps unaffected nodes stable across re-ordering.
        """
        manager = self.manager
        index = self.index
        return (
            manager._pv[index],
            manager._sv[index],
            manager._neq[index],
            manager._eq[index],
        )

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BBDDNode)
            and other.manager is self.manager
            and other.index == self.index
        )

    def __hash__(self) -> int:
        return hash((id(self.manager), self.index))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.index == SINK:
            return "<sink-1>"
        try:
            if self.is_literal:
                return f"<lit v{self.pv} uid={self.index} ref={self.ref}>"
            return (
                f"<node (v{self.pv},v{self.sv}) uid={self.index} "
                f"ref={self.ref} neq={self.neq_edge} eq={self.eq_edge}>"
            )
        except (IndexError, KeyError):
            return f"<node uid={self.index} (swept)>"


def negate(edge: Edge) -> Edge:
    """Complement an edge — unary minus in the signed-int coding."""
    return -edge
