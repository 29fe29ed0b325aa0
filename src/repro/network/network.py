"""Gate-level combinational network IR.

A :class:`LogicNetwork` is a DAG of named signals: primary inputs, gates
over primitive Boolean operations, and named primary outputs.  It is the
common substrate for the benchmark generators, the BLIF/Verilog frontends,
the decision-diagram builders and the synthesis flows.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.exceptions import BBDDError

#: Supported primitive operations and their arities (None = variadic >= 2).
GATE_ARITY = {
    "AND": None,
    "OR": None,
    "XOR": None,
    "XNOR": None,
    "NAND": None,
    "NOR": None,
    "INV": 1,
    "BUF": 1,
    "MUX": 3,  # MUX(s, a, b) = s ? a : b
    "MAJ": 3,  # majority of three
    "CONST0": 0,
    "CONST1": 0,
}


class NetlistError(BBDDError, ValueError):
    """A malformed netlist: raised by the BLIF and Verilog readers and by
    :class:`LogicNetwork` construction.

    Subclasses ``ValueError`` as well, so callers that catch
    ``ValueError`` keep working.
    """


class Gate:
    """A single gate: ``op`` over ordered fanin signal names."""

    __slots__ = ("op", "fanins")

    def __init__(self, op: str, fanins: Sequence[str]) -> None:
        op = op.upper()
        if op == "NOT":
            op = "INV"
        if op not in GATE_ARITY:
            raise NetlistError(f"unsupported gate op {op!r}")
        arity = GATE_ARITY[op]
        if arity is None:
            if len(fanins) < 2:
                raise NetlistError(f"{op} gate needs >= 2 fanins, got {len(fanins)}")
        elif len(fanins) != arity:
            raise NetlistError(f"{op} gate needs {arity} fanins, got {len(fanins)}")
        self.op = op
        self.fanins = tuple(fanins)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gate({self.op}, {self.fanins})"


def gate_eval(op: str, values: Sequence[int], width_mask: int) -> int:
    """Evaluate a gate over bit-parallel integer words."""
    if op == "AND":
        out = width_mask
        for v in values:
            out &= v
        return out
    if op == "OR":
        out = 0
        for v in values:
            out |= v
        return out
    if op == "XOR":
        out = 0
        for v in values:
            out ^= v
        return out
    if op == "XNOR":
        out = 0
        for v in values:
            out ^= v
        return ~out & width_mask
    if op == "NAND":
        out = width_mask
        for v in values:
            out &= v
        return ~out & width_mask
    if op == "NOR":
        out = 0
        for v in values:
            out |= v
        return ~out & width_mask
    if op == "INV":
        return ~values[0] & width_mask
    if op == "BUF":
        return values[0]
    if op == "MUX":
        s, a, b = values
        return (s & a) | (~s & b & width_mask)
    if op == "MAJ":
        a, b, c = values
        return (a & b) | (a & c) | (b & c)
    if op == "CONST0":
        return 0
    if op == "CONST1":
        return width_mask
    raise NetlistError(f"unsupported gate op {op!r}")


def definition_order(
    targets: Sequence[str], fanins: Sequence[Iterable[str]], known: Iterable[str]
) -> Tuple[List[int], List[int]]:
    """Order netlist definitions so that each follows its fanins.

    Definition ``i`` drives ``targets[i]`` and reads ``fanins[i]``;
    ``known`` are the signals defined up front (inputs, latch states).
    One pass over the fanin counts (Kahn's algorithm): a definition keeps
    its listed place when its fanins are already defined there, and one
    listed before a fanin follows right after the definition that
    completes it.  So a file in order reads in order, and a file in any
    other order costs no more.  Returns ``(order, unresolved)``, the
    indices to define in that order and, in listed order, those that
    read an undefined signal or sit on a cycle.
    """
    defined = set(known)
    waiting: Dict[str, List[int]] = {}
    missing: List[int] = []
    for i, signals in enumerate(fanins):
        count = 0
        for signal in set(signals):
            if signal not in defined:
                waiting.setdefault(signal, []).append(i)
                count += 1
        missing.append(count)
    order: List[int] = []
    ready: List[int] = []
    for scan in range(len(targets)):
        if missing[scan]:
            continue
        ready.append(scan)
        while ready:
            i = ready.pop()
            order.append(i)
            target = targets[i]
            if target in defined:
                continue
            defined.add(target)
            for j in waiting.pop(target, ()):
                missing[j] -= 1
                if not missing[j] and j < scan:
                    # Passed over by the scan: define it now.
                    ready.append(j)
    unresolved = [i for i, count in enumerate(missing) if count]
    return order, unresolved


class LogicNetwork:
    """A named combinational network over primitive gates."""

    def __init__(self, name: str = "network") -> None:
        self.name = name
        self.inputs: List[str] = []
        self._input_set: set = set()
        self.gates: Dict[str, Gate] = {}
        self._outputs: List[Tuple[str, str]] = []  # (output name, signal)
        self._output_names: set = set()
        self.latches: List[Tuple[str, str, int]] = []  # (data, state, init)
        self._auto = 0
        self._reserved: set = set()

    def reserve_names(self, names: Iterable[str]) -> None:
        """Keep :meth:`fresh_name` from generating any of ``names``.

        Frontends reserve every file-declared signal before expanding
        compound constructs into intermediate gates.
        """
        self._reserved.update(names)

    # -- construction -------------------------------------------------------

    def add_input(self, name: str) -> str:
        if not name:
            raise NetlistError("empty signal name")
        if name in self._input_set or name in self.gates:
            raise NetlistError(f"signal {name!r} already defined")
        self.inputs.append(name)
        self._input_set.add(name)
        return name

    def add_inputs(self, names: Iterable[str]) -> List[str]:
        return [self.add_input(n) for n in names]

    def fresh_name(self, prefix: str = "n") -> str:
        self._auto += 1
        name = f"{prefix}{self._auto}"
        while name in self.gates or name in self._input_set or name in self._reserved:
            self._auto += 1
            name = f"{prefix}{self._auto}"
        return name

    def add_gate(self, op: str, fanins: Sequence[str], name: Optional[str] = None) -> str:
        """Add a gate and return its output signal name."""
        if name is None:
            name = self.fresh_name()
        elif not name:
            raise NetlistError("empty signal name")
        if name in self.gates or name in self._input_set:
            raise NetlistError(f"signal {name!r} already defined")
        self.gates[name] = Gate(op, fanins)
        return name

    def set_output(self, name: str, signal: str) -> None:
        if signal not in self.gates and signal not in self._input_set:
            raise NetlistError(f"output {name!r} references unknown signal {signal!r}")
        if name in self._output_names:
            raise NetlistError(f"output {name!r} already defined")
        self._output_names.add(name)
        self._outputs.append((name, signal))

    @property
    def outputs(self) -> List[Tuple[str, str]]:
        """The ``(output name, signal)`` pairs, in declaration order.

        Assigning a list replaces them; a repeated name raises
        :class:`NetlistError`, as in :meth:`set_output`.
        """
        return self._outputs

    @outputs.setter
    def outputs(self, pairs: Iterable[Tuple[str, str]]) -> None:
        pairs = list(pairs)
        names: set = set()
        for name, _signal in pairs:
            if name in names:
                raise NetlistError(f"output {name!r} already defined")
            names.add(name)
        self._outputs = pairs
        self._output_names = names

    def add_latch(self, data: str, state: str, init: int = 0) -> str:
        """Register a state element: ``state`` holds last cycle's ``data``.

        The latch output ``state`` becomes an input of the combinational
        core (next-state logic reads it like a primary input), while the
        latch itself records the ``data -> state`` next-state pairing and
        the reset value ``init`` (0, 1, or 2/3 for don't-care, per BLIF).
        ``data`` may be defined later; :meth:`validate` checks it.
        """
        if init not in (0, 1, 2, 3):
            raise NetlistError(f"latch init value must be 0..3, got {init!r}")
        self.add_input(state)
        self.latches.append((data, state, init))
        return state

    # Convenience operator helpers used heavily by the generators.

    def and_(self, *signals: str) -> str:
        return self._fold("AND", signals)

    def or_(self, *signals: str) -> str:
        return self._fold("OR", signals)

    def xor(self, *signals: str) -> str:
        return self._fold("XOR", signals)

    def xnor(self, a: str, b: str) -> str:
        return self.add_gate("XNOR", [a, b])

    def inv(self, a: str) -> str:
        return self.add_gate("INV", [a])

    def mux(self, s: str, a: str, b: str) -> str:
        """``s ? a : b``."""
        return self.add_gate("MUX", [s, a, b])

    def maj(self, a: str, b: str, c: str) -> str:
        return self.add_gate("MAJ", [a, b, c])

    def const(self, value: bool) -> str:
        return self.add_gate("CONST1" if value else "CONST0", [])

    def _fold(self, op: str, signals: Sequence[str]) -> str:
        if len(signals) == 1:
            return self.add_gate("BUF", [signals[0]])
        return self.add_gate(op, list(signals))

    # -- structure ------------------------------------------------------------

    def is_input(self, signal: str) -> bool:
        return signal in self._input_set

    @property
    def num_inputs(self) -> int:
        return len(self.inputs)

    @property
    def num_outputs(self) -> int:
        return len(self.outputs)

    @property
    def num_gates(self) -> int:
        return len(self.gates)

    def output_signals(self) -> List[str]:
        return [sig for _name, sig in self.outputs]

    def topological_order(self) -> List[str]:
        """Gate signals in topological (fanin-first) order.

        Raises :class:`NetlistError` on combinational cycles or undefined fanins.
        """
        state: Dict[str, int] = {}  # 0 = visiting, 1 = done
        order: List[str] = []

        for root in self.gates:
            if state.get(root) == 1:
                continue
            stack: List[Tuple[str, int]] = [(root, 0)]
            while stack:
                signal, phase = stack.pop()
                if phase == 0:
                    if signal in self._input_set:
                        continue
                    st = state.get(signal)
                    if st == 1:
                        continue
                    if st == 0:
                        raise NetlistError(f"combinational cycle through {signal!r}")
                    gate = self.gates.get(signal)
                    if gate is None:
                        raise NetlistError(f"undefined signal {signal!r}")
                    state[signal] = 0
                    stack.append((signal, 1))
                    for fanin in gate.fanins:
                        if fanin not in self._input_set and state.get(fanin) != 1:
                            stack.append((fanin, 0))
                else:
                    state[signal] = 1
                    order.append(signal)
        return order

    def validate(self) -> None:
        """Check structural well-formedness (acyclic, defined signals)."""
        self.topological_order()
        for name, sig in self.outputs:
            if sig not in self.gates and sig not in self._input_set:
                raise NetlistError(f"output {name!r} references unknown {sig!r}")
        for data, state, _init in self.latches:
            if data not in self.gates and data not in self._input_set:
                raise NetlistError(
                    f"latch {state!r} references unknown data signal {data!r}"
                )

    def gate_histogram(self) -> Dict[str, int]:
        hist: Dict[str, int] = {}
        for gate in self.gates.values():
            hist[gate.op] = hist.get(gate.op, 0) + 1
        return hist

    def stats(self) -> dict:
        return {
            "name": self.name,
            "inputs": self.num_inputs,
            "outputs": self.num_outputs,
            "gates": self.num_gates,
            "histogram": self.gate_histogram(),
        }

    # -- transformation helpers --------------------------------------------------

    def cone_of(self, signals: Sequence[str]) -> set:
        """All signals in the transitive fanin of ``signals`` (inclusive)."""
        seen: set = set()
        stack = list(signals)
        while stack:
            s = stack.pop()
            if s in seen:
                continue
            seen.add(s)
            gate = self.gates.get(s)
            if gate is not None:
                stack.extend(gate.fanins)
        return seen

    def copy(self, name: Optional[str] = None) -> "LogicNetwork":
        net = LogicNetwork(name or self.name)
        net.inputs = list(self.inputs)
        net._input_set = set(self._input_set)
        net.gates = {s: Gate(g.op, g.fanins) for s, g in self.gates.items()}
        net.outputs = list(self.outputs)
        net.latches = list(self.latches)
        net._auto = self._auto
        return net

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LogicNetwork {self.name!r} in={self.num_inputs} "
            f"out={self.num_outputs} gates={self.num_gates}>"
        )
