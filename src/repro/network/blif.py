"""BLIF reader/writer (the CUDD-side input format of Sec. IV-B).

Supports the combinational subset used by the MCNC suite: ``.model``,
``.inputs``, ``.outputs``, ``.names`` with PLA-style single-output covers
(including the constant covers), line continuations with ``\\`` and
comments with ``#`` — plus the sequential ``.latch`` directive
(``.latch data state [type control] [init]``): each latch's state
signal joins the combinational core as an input and the
``data -> state`` pairing is recorded on
:attr:`repro.network.network.LogicNetwork.latches`, which is what the
transition-relation builder of :mod:`repro.reach` consumes.  Covers
are expanded into AND/OR/INV primitives on read; the writer emits one
``.names`` block per gate and one ``.latch`` line per state element.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.network.network import LogicNetwork, NetlistError, definition_order


def _logical_lines(text: str) -> List[str]:
    lines: List[str] = []
    pending = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        lines.append((pending + line).strip())
        pending = ""
    if pending.strip():
        lines.append(pending.strip())
    return lines


def parse_blif(text: str) -> LogicNetwork:
    """Parse a single-model combinational BLIF description."""
    lines = _logical_lines(text)
    name = "blif"
    inputs: List[str] = []
    outputs: List[str] = []
    latches: List[Tuple[str, str, int]] = []  # (data, state, init)
    names_blocks: List[Tuple[List[str], List[str]]] = []  # (signals, cover rows)
    current: Optional[Tuple[List[str], List[str]]] = None

    for line in lines:
        if line.startswith("."):
            parts = line.split()
            directive = parts[0]
            current = None
            if directive == ".model":
                name = parts[1] if len(parts) > 1 else name
            elif directive == ".inputs":
                inputs.extend(parts[1:])
            elif directive == ".outputs":
                outputs.extend(parts[1:])
            elif directive == ".names":
                if len(parts) < 2:
                    raise NetlistError(f".names line names no signal: {line!r}")
                current = (parts[1:], [])
                names_blocks.append(current)
            elif directive == ".latch":
                # .latch data state [type control] [init]; a trailing
                # digit is the reset value (missing defaults to 0 so
                # reachability always has a concrete initial state).
                if len(parts) < 3:
                    raise NetlistError(f"malformed .latch line: {line!r}")
                init = 0
                if len(parts) > 3 and parts[-1] in ("0", "1", "2", "3"):
                    init = int(parts[-1])
                latches.append((parts[1], parts[2], init))
            elif directive == ".end":
                break
            elif directive in (".subckt", ".gate"):
                raise NetlistError(f"unsupported BLIF directive for flat flow: {directive}")
            # Silently ignore housekeeping directives (.default_input_arrival etc.)
        else:
            if current is None:
                raise NetlistError(f"cover row outside .names block: {line!r}")
            current[1].append(line)

    net = LogicNetwork(name)
    net.add_inputs(inputs)
    for data, state, init in latches:
        net.add_latch(data, state, init)
    net.reserve_names(outputs)
    for signals, _rows in names_blocks:
        net.reserve_names(signals)

    # .names blocks may reference each other in any order: define each
    # after its fanins, in one pass.
    defined = set(inputs) | {state for _data, state, _init in latches}
    order, unresolved = definition_order(
        [signals[-1] for signals, _rows in names_blocks],
        [signals[:-1] for signals, _rows in names_blocks],
        defined,
    )
    for i in order:
        signals, rows = names_blocks[i]
        _expand_cover(net, signals[-1], signals[:-1], rows)
        defined.add(signals[-1])
    if unresolved:
        missing = {
            f for i in unresolved for f in names_blocks[i][0][:-1] if f not in defined
        }
        raise NetlistError(f"BLIF references undefined signals: {sorted(missing)}")

    for out in outputs:
        if out not in defined:
            raise NetlistError(f"output {out!r} has no driver")
        net.set_output(out, out)
    net.validate()
    return net


def _expand_cover(net: LogicNetwork, target: str, fanins: List[str], rows: List[str]) -> None:
    """Expand a single-output PLA cover into AND/OR/INV primitives."""
    if not fanins:
        # Constant: a single "1" row means const 1, empty cover means const 0.
        value = any(row.strip() == "1" for row in rows)
        net.add_gate("CONST1" if value else "CONST0", [], name=target)
        return

    on_rows: List[str] = []
    polarity_one = True
    for row in rows:
        parts = row.split()
        if len(parts) == 1 and len(fanins) == 0:
            continue
        if len(parts) != 2:
            raise NetlistError(f"malformed cover row {row!r}")
        cube, value = parts
        if len(cube) != len(fanins):
            raise NetlistError(f"cube width mismatch in {row!r}")
        if value == "0":
            polarity_one = False
        on_rows.append(cube)
    if not on_rows:
        net.add_gate("CONST0", [], name=target)
        return

    products: List[str] = []
    for cube in on_rows:
        literals: List[str] = []
        for bit, fanin in zip(cube, fanins):
            if bit == "1":
                literals.append(fanin)
            elif bit == "0":
                literals.append(net.inv(fanin))
            elif bit != "-":
                raise NetlistError(f"bad cube character {bit!r}")
        if not literals:
            products.append(net.const(True))
        elif len(literals) == 1:
            products.append(literals[0])
        else:
            products.append(net.and_(*literals))

    if len(products) == 1:
        result = products[0]
    else:
        result = net.or_(*products)
    if not polarity_one:
        # Off-set cover: the rows describe when the output is 0.
        result = net.inv(result)
    net.add_gate("BUF", [result], name=target)


def read_blif(path: str) -> LogicNetwork:
    with open(path) as handle:
        return parse_blif(handle.read())


_COVERS = {
    "AND": lambda k: [("1" * k, "1")],
    "NAND": lambda k: [("1" * k, "0")],
    "OR": lambda k: [
        ("-" * i + "1" + "-" * (k - i - 1), "1") for i in range(k)
    ],
    "NOR": lambda k: [("0" * k, "1")],
    "INV": lambda k: [("0", "1")],
    "BUF": lambda k: [("1", "1")],
}


def write_blif(network: LogicNetwork) -> str:
    """Serialize a network to BLIF text (gates as .names covers)."""
    out: List[str] = [f".model {network.name}"]
    latch_states = {state for _data, state, _init in network.latches}
    out.append(
        ".inputs "
        + " ".join(n for n in network.inputs if n not in latch_states)
    )
    out.append(".outputs " + " ".join(name for name, _sig in network.outputs))
    for data, state, init in network.latches:
        out.append(f".latch {data} {state} {init}")

    alias: Dict[str, str] = {}
    for name, sig in network.outputs:
        if name != sig:
            alias[name] = sig

    for signal in network.topological_order():
        gate = network.gates[signal]
        out.extend(_gate_to_names(signal, gate))
    for name, sig in network.outputs:
        if name != sig and name not in network.gates:
            out.append(f".names {sig} {name}")
            out.append("1 1")
    out.append(".end")
    return "\n".join(out) + "\n"


def _gate_to_names(signal: str, gate) -> List[str]:
    op = gate.op
    fanins = list(gate.fanins)
    header = ".names " + " ".join(fanins + [signal])
    k = len(fanins)
    if op in _COVERS:
        rows = _COVERS[op](k)
        return [header] + [f"{cube} {value}" for cube, value in rows]
    if op == "CONST1":
        return [f".names {signal}", "1"]
    if op == "CONST0":
        return [f".names {signal}"]
    if op in ("XOR", "XNOR"):
        rows = []
        for i in range(1 << k):
            ones = bin(i).count("1")
            parity = ones & 1
            want = 1 if op == "XOR" else 0
            if parity == want:
                cube = "".join("1" if (i >> j) & 1 else "0" for j in range(k))
                rows.append(f"{cube} 1")
        return [header] + rows
    if op == "MUX":
        return [header, "11- 1", "0-1 1"]
    if op == "MAJ":
        return [header, "11- 1", "1-1 1", "-11 1"]
    raise NetlistError(f"cannot serialize gate op {op!r} to BLIF")
