"""Symbolic transition systems over the network frontends.

A sequential :class:`~repro.network.network.LogicNetwork` (latches plus
a combinational next-state core, e.g. parsed from BLIF ``.latch``
lines) becomes a :class:`TransitionSystem`: current/next-state variable
pairs interleaved in the manager order (the classic heuristic that
keeps the relation small), the monolithic transition relation
``T = prod_i (s_i' <-> delta_i)``, and the initial-state predicate from
the latch reset values.  Image computation is one fused relational
product — :meth:`~repro.api.base.FunctionBase.and_exists` quantifies
the current-state and input variables *while* conjoining ``T`` with the
state set, so the conjunction is never materialized — followed by a
``let``-based frame shift renaming every next-state variable back to
its current-state partner.

On the ``bbdd`` backend both steps stay at node cost.  In the
interleaved order a current-state variable ``s_i`` is often the second
member of a couple ``(v, s_i)`` whose first member survives; the
product then quantifies it by substitution,
``E s_i . H = H[s_i := ~v] | H[s_i := v]``, which only re-roots the
operands' top nodes.  The frame shift is injective and keeps the
relative order of the image's support, so ``let`` relabels the diagram
one node at a time instead of rebuilding it through ``ite``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.exceptions import BBDDError


class ReachError(BBDDError):
    """Raised for malformed transition systems or reachability queries."""


def primed(name: str) -> str:
    """The next-state spelling of a current-state variable name."""
    return name + "'"


class TransitionSystem:
    """A symbolic FSM: variables, transition relation, initial states.

    Build one from a sequential network with :func:`from_network`; the
    constructor is for callers assembling the pieces directly (the
    relation over current + next + input variables, the initial
    predicate over current variables).
    """

    def __init__(self, manager, current, primed_names, inputs, relation, init):
        self.manager = manager
        #: Current-state variable names, latch order (bit ``i`` of a
        #: state code is ``current[i]``).
        self.current: List[str] = list(current)
        #: Matching next-state variable names.
        self.primed: List[str] = list(primed_names)
        #: Primary-input variable names (quantified out of every image).
        self.inputs: List[str] = list(inputs)
        #: The transition relation ``T(s, x, s')``.
        self.relation = relation
        #: The initial-state predicate ``I(s)``.
        self.init = init
        self._pre = self.current + self.inputs
        self._shift: Dict[str, str] = dict(zip(self.primed, self.current))

    @property
    def bits(self) -> int:
        """Number of state bits (latches)."""
        return len(self.current)

    def image(self, states):
        """Successor set of ``states`` in one fused relational product.

        ``E s, x . T(s, x, s') & S(s)`` via
        :meth:`~repro.api.base.FunctionBase.and_exists`, then the
        next-state variables are renamed back onto the current frame.
        """
        return self.relation.and_exists(states, self._pre).let(self._shift)

    def state_count(self, states) -> int:
        """Number of states in a set over the current-state variables."""
        free = self.manager.num_vars - len(self.current)
        return states.sat_count() >> free

    def state_codes(self, states) -> set:
        """Explicit codes of a symbolic state set (bit ``i`` = latch ``i``).

        Exponential in the state bits — the differential-oracle hook for
        small systems, not a production query.
        """
        manager = self.manager
        indices = [manager.var_index(c) for c in self.current]
        others = [
            v for v in range(manager.num_vars) if v not in set(indices)
        ]
        codes = set()
        edge = states.edge
        values: Dict[int, bool] = {v: False for v in others}
        for code in range(1 << len(indices)):
            for bit, index in enumerate(indices):
                values[index] = bool(code >> bit & 1)
            if manager.evaluate_edge(edge, values):
                codes.add(code)
        return codes


def from_network(network, backend: str = "bbdd", manager=None, **kwargs):
    """The :class:`TransitionSystem` of a sequential network.

    ``network`` must carry latches
    (:attr:`~repro.network.network.LogicNetwork.latches`).  Unless a
    ``manager`` is supplied, one is created on ``backend`` with the
    interleaved order ``[s0, s0', s1, s1', ...]`` followed by the
    primary inputs; extra keyword arguments reach the backend factory.
    Latch reset values 0/1 constrain the initial predicate; don't-care
    resets (2/3) leave their bit unconstrained.
    """
    latches = list(network.latches)
    if not latches:
        raise ReachError(
            f"network {network.name!r} has no latches - nothing to reach over"
        )
    current = [state for _data, state, _init in latches]
    primed_names = [primed(name) for name in current]
    state_set = set(current)
    inputs = [name for name in network.inputs if name not in state_set]
    if manager is None:
        from repro.api import open as _open

        order: List[str] = []
        for cur, nxt in zip(current, primed_names):
            order.append(cur)
            order.append(nxt)
        order.extend(inputs)
        manager = _open(backend, order, **kwargs)
    from repro.network.build import build

    cone = network.copy()
    cone.outputs = [(primed(state), data) for data, state, _init in latches]
    _manager, deltas = build(cone, manager=manager)
    relation = manager.true()
    for _data, state, _init in latches:
        name = primed(state)
        relation = relation & manager.var(name).xnor(deltas[name])
    init = manager.true()
    for _data, state, init_val in latches:
        if init_val == 1:
            init = init & manager.var(state)
        elif init_val == 0:
            init = init & ~manager.var(state)
    return TransitionSystem(manager, current, primed_names, inputs, relation, init)
