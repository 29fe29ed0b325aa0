"""ROBDD node primitives for the baseline package.

A node is labelled by a single variable and denotes the Shannon expansion
``f = v t + v' e``.  Complement attributes live on else-edges and external
edges; then-edges of stored nodes are always regular (the CUDD
normalization, which makes the representation canonical with a single
1-sink).
"""

from __future__ import annotations

from typing import Optional, Tuple

#: Sentinel variable index identifying the sink node.
SINK_VAR = -2


class BDDNode:
    """A single ROBDD node (mutable only through the manager)."""

    __slots__ = ("var", "then", "else_", "else_attr", "ref", "uid", "__weakref__")

    def __init__(
        self,
        var: int,
        then: Optional["BDDNode"],
        else_: Optional["BDDNode"],
        else_attr: bool,
        uid: int,
    ) -> None:
        self.var = var
        self.then = then
        self.else_ = else_
        self.else_attr = else_attr
        self.ref = 0
        self.uid = uid

    @property
    def is_sink(self) -> bool:
        return self.var == SINK_VAR

    def key(self) -> tuple:
        return (self.var, self.then.uid, self.else_.uid, self.else_attr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_sink:
            return "<bdd-sink-1>"
        return (
            f"<bdd v{self.var} uid={self.uid} ref={self.ref} "
            f"t={self.then.uid} e={self.else_.uid}{'~' if self.else_attr else ''}>"
        )


#: An edge is ``(node, complement_attr)``.
BDDEdge = Tuple[BDDNode, bool]


def make_bdd_sink(uid: int = 0) -> BDDNode:
    node = BDDNode(SINK_VAR, None, None, False, uid)
    node.ref = 1  # immortal
    return node
