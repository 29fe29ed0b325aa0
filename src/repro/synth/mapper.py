"""Technology mapping onto the paper's cell set.

Two mappers model the two sides of Table II:

* :func:`map_generic` — the commercial-flow substitute: the network is
  lowered to an AND/INV graph (dissolving all special structure, like a
  generic tool's technology-independent form), then covered by
  cone-matching: bounded cones are truth-table matched against the library
  (XOR/XNOR re-discovery is on by default, MAJ3 discovery off — generic
  mappers routinely extract XORs but rarely majorities, which is exactly
  the gap the paper's BBDD front-end exploits).

* :func:`map_preserving` — the mapper used after BBDD rewriting: it keeps
  XOR2/XNOR2/MAJ3 cells that the rewriter emitted, decomposes the
  remaining ops (MUX, wide gates) locally into NAND2/NOR2/INV, and cleans
  up inverter pairs.

Both emit plain :class:`~repro.network.network.LogicNetwork` objects
restricted to library ops, wrapped in
:class:`~repro.synth.netlist.MappedNetlist` by the flows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.network.network import LogicNetwork
from repro.synth.library import CellLibrary
from repro.synth.optimize import (
    lower_to_aig,
    optimize,
    propagate_constants,
    remove_dead_logic,
    structural_hash,
)

# ---------------------------------------------------------------------------
# Generic cone-matching mapper (commercial-flow substitute)
# ---------------------------------------------------------------------------

#: Truth tables over 2 ordered leaves (bit (a<<1)|b) -> cell plan.
#: A plan is a list of ("CELL", ...) steps; "LEAF<i>" refers to leaf i.
_MATCH2 = {
    0b0110: ("XOR",),
    0b1001: ("XNOR",),
    0b0111: ("NAND",),
    0b0001: ("NOR",),
    0b1000: ("NAND", "INV"),
    0b1110: ("NOR", "INV"),
}

#: Truth tables over 3 leaves (bit (a<<2)|(b<<1)|c) -> cell plan.
_MATCH3 = {
    0b11101000: ("MAJ",),
    0b00010111: ("MAJ", "INV"),
}


def _cone_leaves(network: LogicNetwork, root: str, depth: int, max_leaves: int) -> Optional[List[str]]:
    """Leaves of the depth-bounded cone under ``root`` (None if too wide)."""
    leaves: List[str] = []

    def visit(signal: str, remaining: int) -> bool:
        gate = network.gates.get(signal)
        if gate is None or remaining == 0 or gate.op in ("CONST0", "CONST1"):
            if signal not in leaves:
                if len(leaves) >= max_leaves and signal not in leaves:
                    return False
                leaves.append(signal)
            return True
        for fanin in gate.fanins:
            if not visit(fanin, remaining - 1):
                return False
        return True

    if not visit(root, depth):
        return None
    if len(leaves) > max_leaves:
        return None
    return leaves


def _cone_truth(network: LogicNetwork, root: str, leaves: List[str]) -> Optional[int]:
    """Truth table of ``root`` over ``leaves`` (bit i: leaf j = bit j of i)."""
    from repro.network.network import gate_eval

    n = len(leaves)
    width = 1 << n
    width_mask = (1 << width) - 1
    values: Dict[str, int] = {}
    for j, leaf in enumerate(leaves):
        mask = 0
        for i in range(width):
            if (i >> j) & 1:
                mask |= 1 << i
        values[leaf] = mask

    def eval_signal(signal: str) -> int:
        if signal in values:
            return values[signal]
        gate = network.gates[signal]
        result = gate_eval(gate.op, [eval_signal(f) for f in gate.fanins], width_mask)
        values[signal] = result
        return result

    return eval_signal(root)


def map_generic(
    network: LogicNetwork,
    library: CellLibrary,
    xor_matching: bool = True,
    maj_matching: bool = False,
    max_depth: int = 4,
) -> LogicNetwork:
    """Generic mapper: AIG lowering + greedy deepest-cone matching."""
    aig = optimize(lower_to_aig(optimize(network)))
    out = LogicNetwork(network.name)
    out.add_inputs(aig.inputs)
    mapped: Dict[str, str] = {name: name for name in aig.inputs}
    inv_cache: Dict[str, str] = {}

    def inv_of(signal: str) -> str:
        if signal not in inv_cache:
            sig = out.add_gate("INV", [signal])
            inv_cache[signal] = sig
            inv_cache[sig] = signal
        return inv_cache[signal]

    def emit_plan(plan: tuple, leaf_signals: List[str]) -> str:
        cell = plan[0]
        sig = out.add_gate(cell, leaf_signals)
        for extra in plan[1:]:
            if extra == "INV":
                sig = inv_of(sig)
            else:  # pragma: no cover - no other plan steps defined
                raise ValueError(f"unknown plan step {extra}")
        return sig

    def map_signal(signal: str) -> str:
        if signal in mapped:
            return mapped[signal]
        gate = aig.gates[signal]
        if gate.op in ("CONST0", "CONST1"):
            result = out.const(gate.op == "CONST1")
            mapped[signal] = result
            return result
        if gate.op == "BUF":
            result = map_signal(gate.fanins[0])
            mapped[signal] = result
            return result

        # Try cones from deepest to shallowest; largest match wins.
        for depth in range(max_depth, 0, -1):
            for max_leaves, table, enabled in (
                (3, _MATCH3, maj_matching),
                (2, _MATCH2, xor_matching or depth == 1),
            ):
                if not enabled:
                    continue
                leaves = _cone_leaves(aig, signal, depth, max_leaves)
                if leaves is None or len(leaves) < 2:
                    continue
                if len(leaves) != max_leaves:
                    continue
                tt = _cone_truth(aig, signal, leaves)
                plan = table.get(tt)
                if plan is not None:
                    leaf_signals = [map_signal(leaf) for leaf in leaves]
                    result = emit_plan(plan, leaf_signals)
                    mapped[signal] = result
                    return result

        # Base cover: INV absorbs into nothing; AND -> NAND + INV.
        if gate.op == "INV":
            src_gate = aig.gates.get(gate.fanins[0])
            if src_gate is not None and src_gate.op == "AND":
                fanins = [map_signal(f) for f in src_gate.fanins]
                result = out.add_gate("NAND", fanins)
            else:
                result = inv_of(map_signal(gate.fanins[0]))
        elif gate.op == "AND":
            fanins = [map_signal(f) for f in gate.fanins]
            result = inv_of(out.add_gate("NAND", fanins))
        else:  # pragma: no cover - AIG contains only AND/INV/CONST/BUF
            raise ValueError(f"unexpected AIG op {gate.op}")
        mapped[signal] = result
        return result

    for name, sig in aig.outputs:
        out.set_output(name, map_signal(sig))
    return remove_dead_logic(structural_hash(propagate_constants(out)))


# ---------------------------------------------------------------------------
# Structure-preserving mapper (used after BBDD rewriting)
# ---------------------------------------------------------------------------


def map_preserving(network: LogicNetwork, library: CellLibrary) -> LogicNetwork:
    """Decompose non-library ops locally, keep XOR/XNOR/MAJ cells intact.

    Phase-aware: every source signal can be realized in positive or
    negative polarity, and complements are absorbed wherever the library
    offers a free dual — NAND/NOR for AND/OR trees (De Morgan
    alternation), XOR <-> XNOR swaps, and MAJ's self-duality
    (``~MAJ(a,b,c) == MAJ(~a,~b,~c)``).  Inverter cells are materialized
    only when no dual absorbs the complement.
    """
    from repro.synth.optimize import flatten_associative

    net = flatten_associative(optimize(network))
    out = LogicNetwork(net.name)
    out.add_inputs(net.inputs)
    phase_map: Dict[Tuple[str, bool], str] = {
        (name, False): name for name in net.inputs
    }
    inv_cache: Dict[str, str] = {}

    def inv_of(signal: str) -> str:
        if signal not in inv_cache:
            sig = out.add_gate("INV", [signal])
            inv_cache[signal] = sig
            inv_cache[sig] = signal
        return inv_cache[signal]

    def reduce_tree(items: List[Tuple[str, bool]], conj: bool, inverted: bool) -> str:
        """Balanced NAND/NOR tree computing (AND if conj else OR) of the
        source terms, returned in the requested polarity.

        ``items`` are (source signal, source complemented) pairs; leaf
        polarities are resolved through ``get``.
        """
        if len(items) == 1:
            sig, neg = items[0]
            return get(sig, neg != inverted)
        mid = (len(items) + 1) // 2
        if inverted:
            # ~(AND) = NAND of positive halves when 2 leaves; in general
            # ~(A & B) = NAND(A, B) with halves positive.
            op = "NAND" if conj else "NOR"
            left = reduce_tree(items[:mid], conj, False)
            right = reduce_tree(items[mid:], conj, False)
            return out.add_gate(op, [left, right])
        # Positive AND = NOR of the complemented halves; positive OR =
        # NAND of the complemented halves (De Morgan alternation).
        op = "NOR" if conj else "NAND"
        left = reduce_tree(items[:mid], conj, True)
        right = reduce_tree(items[mid:], conj, True)
        return out.add_gate(op, [left, right])

    def get(signal: str, inverted: bool) -> str:
        """Mapped-network signal realizing ``signal`` (or its complement)."""
        key = (signal, inverted)
        cached = phase_map.get(key)
        if cached is not None:
            return cached
        gate = net.gates.get(signal)
        if gate is None:  # primary input, negative phase
            result = inv_of(signal)
            phase_map[key] = result
            return result
        op = gate.op
        fanins = gate.fanins
        if op in ("CONST0", "CONST1"):
            result = out.const((op == "CONST1") != inverted)
        elif op == "BUF":
            result = get(fanins[0], inverted)
        elif op == "INV":
            result = get(fanins[0], not inverted)
        elif op in ("XOR", "XNOR"):
            # Fold pairwise with XOR cells; absorb the overall polarity
            # (including XNOR's) into the final cell's choice.
            want_xnor = (op == "XNOR") != inverted
            acc = get(fanins[0], False)
            for nxt in fanins[1:-1]:
                acc = out.add_gate("XOR", [acc, get(nxt, False)])
            final_op = "XNOR" if want_xnor else "XOR"
            result = out.add_gate(final_op, [acc, get(fanins[-1], False)])
        elif op == "MAJ":
            # Self-dual: complement by complementing all inputs.
            result = out.add_gate("MAJ", [get(f, inverted) for f in fanins])
        elif op == "MUX":
            s, a, b = fanins
            # s ? a : b = NAND(NAND(s, a), NAND(~s, b)); the complement
            # re-uses the same shape with complemented data inputs.
            na = out.add_gate("NAND", [get(s, False), get(a, inverted)])
            nb = out.add_gate("NAND", [get(s, True), get(b, inverted)])
            result = out.add_gate("NAND", [na, nb])
        elif op in ("AND", "NAND", "OR", "NOR"):
            conj = op in ("AND", "NAND")
            flip = (op in ("NAND", "NOR")) != inverted
            result = reduce_tree([(f, False) for f in fanins], conj, flip)
        else:  # pragma: no cover
            raise ValueError(f"unexpected op {op}")
        phase_map[key] = result
        return result

    for name, sig in net.outputs:
        out.set_output(name, get(sig, False))
    return remove_dead_logic(structural_hash(propagate_constants(out)))
