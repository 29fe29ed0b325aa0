"""BBDD-to-netlist rewriting (Sec. V-A): the datapath front-end.

Every BBDD node is a two-variable comparator selecting between its
children, so a node maps naturally onto an XNOR-selected 2:1 mux — and
three special shapes collapse further:

* both children constant            ->  one XNOR2 cell;
* ``=``-child is ``literal(SV)``    ->  one MAJ3 cell
  (``f = (v=w) ? w : c  ==  MAJ(v, w, c)`` — the carry shape);
* ``!=``-child is ``literal(SV)``   ->  MAJ3 with one inverted input
  (``f = (v!=w) ? w : e  ==  MAJ(~v, w, e)`` — the comparator shape);
* a constant child                  ->  AND/OR with the XOR/XNOR of the
  couple (the equality-chain shape).

This is how "the comparator function inherently embedded in a BBDD node"
becomes MAJ/XNOR-rich structure that the downstream mapper keeps.  The
rewriter shares per-couple XOR/XNOR select signals and per-signal
inverters across the whole multi-output forest.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.api.base import own_edge
from repro.core.node import SV_ONE, BBDDNode
from repro.network.network import LogicNetwork


class BBDDRewriter:
    """Rewrites a forest of BBDD edges into a LogicNetwork."""

    def __init__(self, manager, network: LogicNetwork) -> None:
        self.manager = manager
        self.net = network
        self._node_signal: Dict[BBDDNode, str] = {}
        self._inv_cache: Dict[str, str] = {}
        self._xnor_cache: Dict[Tuple[int, int], str] = {}
        self._const_cache: Dict[bool, str] = {}

    # -- shared sub-structures ------------------------------------------------

    def _const(self, value: bool) -> str:
        if value not in self._const_cache:
            self._const_cache[value] = self.net.const(value)
        return self._const_cache[value]

    def _inv(self, signal: str) -> str:
        cached = self._inv_cache.get(signal)
        if cached is None:
            cached = self.net.inv(signal)
            self._inv_cache[signal] = cached
            self._inv_cache[cached] = signal
        return cached

    def _var_signal(self, var: int) -> str:
        return self.manager.var_name(var)

    def _xnor_of_couple(self, pv: int, sv: int) -> str:
        key = (pv, sv)
        cached = self._xnor_cache.get(key)
        if cached is None:
            cached = self.net.xnor(self._var_signal(pv), self._var_signal(sv))
            self._xnor_cache[key] = cached
        return cached

    def _xor_of_couple(self, pv: int, sv: int) -> str:
        return self._inv(self._xnor_of_couple(pv, sv))

    # -- edges and nodes ---------------------------------------------------------

    def signal_of_edge(self, edge) -> str:
        if isinstance(edge, int):
            # Flat-store boundary: manager edges are signed ints; the
            # rewriter itself walks interned (view, attr) pairs.
            node = self.manager.node_view(-edge if edge < 0 else edge)
            attr = edge < 0
        else:
            node, attr = edge
        if node.is_sink:
            return self._const(not attr)
        signal = self._signal_of_node(node)
        return self._inv(signal) if attr else signal

    def _signal_of_node(self, node: BBDDNode) -> str:
        cached = self._node_signal.get(node)
        if cached is not None:
            return cached
        if node.sv == SV_ONE:
            signal = self._var_signal(node.pv)
        else:
            signal = self._rewrite_chain(node)
        self._node_signal[node] = signal
        return signal

    def _rewrite_chain(self, node: BBDDNode) -> str:
        net = self.net
        pv, sv = node.pv, node.sv
        neq, neq_attr = node.neq, node.neq_attr
        eq = node.eq  # always a regular edge
        v_sig = self._var_signal(pv)
        w_sig = self._var_signal(sv)
        eq_is_w = eq.is_literal and eq.pv == sv
        neq_is_w = neq.is_literal and neq.pv == sv

        # Both children constant: the node is the biconditional itself.
        if neq.is_sink and eq.is_sink:
            # Reduced form guarantees neq_attr is set here (else R2).
            return self._xnor_of_couple(pv, sv)

        # Two-variable shapes: one child literal(SV), the other constant.
        if eq_is_w and neq.is_sink:
            if neq_attr:  # f = (v=w) ? w : 0  ==  v & w
                return net.and_(v_sig, w_sig)
            return net.or_(v_sig, w_sig)  # f = (v=w) ? w : 1  ==  v | w
        if neq_is_w and eq.is_sink:
            if neq_attr:  # f = (v!=w) ? ~w : 1  ==  v | ~w
                return net.or_(v_sig, self._inv(w_sig))
            return net.or_(self._inv(v_sig), w_sig)  # (v!=w) ? w : 1

        # MAJ shapes: a literal(SV) child turns the mux into a majority.
        if eq_is_w:
            c = self.signal_of_edge((neq, neq_attr))
            return net.maj(v_sig, w_sig, c)  # f = (v=w) ? w : c
        if neq_is_w:
            e_sig = self.signal_of_edge((eq, False))
            if neq_attr:
                # f = (v!=w) ? ~w : e == MAJ(v, ~w, e)
                return net.maj(v_sig, self._inv(w_sig), e_sig)
            # f = (v!=w) ? w : e == MAJ(~v, w, e)
            return net.maj(self._inv(v_sig), w_sig, e_sig)

        # Three-input XOR shape: both branches are the same function in
        # opposite polarity, so f = (v XNOR w) XNOR e.
        if neq is eq and neq_attr:
            e_sig = self.signal_of_edge((eq, False))
            return net.xnor(self._xnor_of_couple(pv, sv), e_sig)

        # Constant-child shapes: AND/OR with the couple comparator.
        if neq.is_sink:
            e_sig = self.signal_of_edge((eq, False))
            if neq_attr:  # != branch is 0: f = (v=w) & eq
                return net.and_(self._xnor_of_couple(pv, sv), e_sig)
            # != branch is 1: f = (v!=w) | eq
            return net.or_(self._xor_of_couple(pv, sv), e_sig)
        if eq.is_sink:
            d_sig = self.signal_of_edge((neq, neq_attr))
            # = branch is 1 (eq edges are regular): f = (v=w) | neq
            return net.or_(self._xnor_of_couple(pv, sv), d_sig)

        # General node: XNOR-selected 2:1 mux.
        select = self._xnor_of_couple(pv, sv)
        e_sig = self.signal_of_edge((eq, False))
        d_sig = self.signal_of_edge((neq, neq_attr))
        return net.mux(select, e_sig, d_sig)


def rewrite_functions(manager, functions: Dict[str, object]) -> LogicNetwork:
    """Rewrite ``{output name: Function}`` into a comparator-rich network.

    Input names follow the manager's variable names; the resulting network
    is functionally equivalent to the BBDD forest (asserted by the flow).
    A handle of another manager raises
    :class:`~repro.core.exceptions.ForeignManagerError`.
    """
    net = LogicNetwork("bbdd_rewrite")
    net.add_inputs(list(manager.var_names))
    rewriter = BBDDRewriter(manager, net)
    for name, fn in functions.items():
        signal = rewriter.signal_of_edge(own_edge(manager, fn))
        if net.is_input(signal):
            signal = net.add_gate("BUF", [signal])
        net.set_output(name, signal)
    return net
