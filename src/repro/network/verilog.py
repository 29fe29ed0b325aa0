"""Structural Verilog frontend (the BBDD package's input format, Sec. IV-B).

Reads a single flattened module over primitive Boolean operations: gate
instantiations (``and``, ``or``, ``xor``, ``xnor``, ``nand``, ``nor``,
``not``, ``buf``) and continuous assignments (``assign y = expr;``) with
the operators ``~ & | ^ ~^ ^~`` and parentheses, plus the constants
``1'b0``/``1'b1``.  The writer emits assign-style netlists.  Vectors are
not supported — benchmarks are bit-blasted, as the paper's flow requires
("flattened onto primitive Boolean operations").
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.network.network import LogicNetwork, NetlistError, definition_order

_GATE_KEYWORDS = {
    "and": "AND",
    "or": "OR",
    "xor": "XOR",
    "xnor": "XNOR",
    "nand": "NAND",
    "nor": "NOR",
    "not": "INV",
    "buf": "BUF",
}

#: Expression tokens that are not signal names.
_EXPR_SYMBOLS = frozenset(("~", "&", "|", "^", "~^", "^~", "(", ")", "1'b0", "1'b1"))

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<id>[A-Za-z_\\][A-Za-z0-9_$\[\]\.]*)|(?P<const>1'b[01])"
    r"|(?P<op>~\^|\^~|[~&|^()])|(?P<other>.))"
)


def _strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    text = re.sub(r"//[^\n]*", " ", text)
    return text


#: Binary operators of an assign, by level: 0 ``&``, 1 ``^``/``~^``/``^~``,
#: 2 ``|`` (lower levels bind tighter; ``~`` binds tightest of all).
_LEVEL = {"&": 0, "^": 1, "~^": 1, "^~": 1, "|": 2}

_END = "unexpected end of expression"


def _parse_expr(tokens: List[str], net: LogicNetwork, defined: set) -> str:
    """Parse one assign right-hand side into gates; returns its signal.

    Precedence (tightest first): ``~``, ``&``, ``^``/``~^``/``^~``,
    ``|``.  An operator-precedence loop with an explicit stack of open
    parentheses, so nesting depth is bounded by memory, not by the
    Python stack.  Each open group keeps its pending ``~`` count and one
    term list per level: ``&`` and ``|`` make one n-ary gate per run,
    ``^`` and its negations fold left to right.  Gates are made in the
    order a recursive descent over the same grammar makes them.
    """
    # A group: [pending ~ count, & terms, ^ terms, ^ operators, | terms].
    groups = [[0, [], [], [], []]]
    pos = 0
    count = len(tokens)
    while True:
        # Operand position: prefix ``~``s, then ``(`` or one atom.
        nots = 0
        while pos < count and tokens[pos] == "~":
            nots += 1
            pos += 1
        if pos == count:
            raise NetlistError(_END)
        token = tokens[pos]
        pos += 1
        if token == "(":
            groups.append([nots, [], [], [], []])
            continue
        if token in ("1'b0", "1'b1"):
            value = net.const(token == "1'b1")
        elif token in defined:
            value = token
        else:
            raise NetlistError(f"expression references undefined signal {token!r}")
        # Operator position: close levels (and groups) until an operator
        # asks for the next operand.
        while True:
            for _ in range(nots):
                value = net.inv(value)
            _nots, ands, xors, xor_ops, ors = groups[-1]
            token = tokens[pos] if pos < count else None
            level = _LEVEL.get(token)
            ands.append(value)
            if level == 0:
                pos += 1
                break
            value = ands[0] if len(ands) == 1 else net.and_(*ands)
            ands.clear()
            xors.append(value)
            if level == 1:
                xor_ops.append(token)
                pos += 1
                break
            value = xors[0]
            for op, term in zip(xor_ops, xors[1:]):
                value = net.xor(value, term) if op == "^" else net.xnor(value, term)
            xors.clear()
            xor_ops.clear()
            ors.append(value)
            if level == 2:
                pos += 1
                break
            value = ors[0] if len(ors) == 1 else net.or_(*ors)
            ors.clear()
            # The innermost group is complete.
            if len(groups) == 1:
                if token is not None:
                    raise NetlistError(f"trailing tokens: {tokens[pos:]}")
                return value
            if token is None:
                raise NetlistError(_END)
            if token != ")":
                raise NetlistError(f"expected ')', got {token!r}")
            pos += 1
            nots = groups.pop()[0]


def _tokenize_expr(text: str) -> List[str]:
    tokens: List[str] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            break
        pos = match.end()
        token = match.group("id") or match.group("const") or match.group("op")
        if token is None:
            bad = match.group("other")
            if bad and bad.strip():
                raise NetlistError(f"unexpected character {bad!r} in expression")
            continue
        tokens.append(token)
    return tokens


def parse_verilog(text: str) -> LogicNetwork:
    """Parse one flattened structural module into a network."""
    text = _strip_comments(text)
    module = re.search(r"\bmodule\b\s+([A-Za-z_][A-Za-z0-9_$]*)", text)
    name = module.group(1) if module else "verilog"
    body_match = re.search(r"\bmodule\b.*?;(.*)\bendmodule\b", text, flags=re.S)
    if body_match is None:
        raise NetlistError("no module body found")
    body = body_match.group(1)

    net = LogicNetwork(name)
    inputs: List[str] = []
    outputs: List[str] = []
    wires: List[str] = []
    assigns: List[Tuple[str, str]] = []
    instances: List[Tuple[str, List[str]]] = []

    for statement in [s.strip() for s in body.split(";")]:
        if not statement:
            continue
        keyword = statement.split(None, 1)[0]
        if keyword in ("input", "output", "wire"):
            decl = statement[len(keyword):]
            if "[" in decl:
                raise NetlistError("vector declarations are not supported (bit-blast first)")
            names = [n.strip() for n in decl.split(",") if n.strip()]
            {"input": inputs, "output": outputs, "wire": wires}[keyword].extend(names)
        elif keyword == "assign":
            lhs, eq, rhs = statement[len("assign"):].partition("=")
            if not eq:
                raise NetlistError(f"assign without '=': {statement!r}")
            assigns.append((lhs.strip(), rhs.strip()))
        elif keyword in _GATE_KEYWORDS:
            rest = statement[len(keyword):].strip()
            port_match = re.search(r"\((.*)\)$", rest, flags=re.S)
            if port_match is None:
                raise NetlistError(f"malformed gate instance: {statement!r}")
            ports = [p.strip() for p in port_match.group(1).split(",")]
            instances.append((keyword, ports))
        else:
            raise NetlistError(f"unsupported Verilog statement: {statement!r}")

    net.add_inputs(inputs)
    net.reserve_names(outputs)
    net.reserve_names(wires)
    net.reserve_names(lhs for lhs, _rhs in assigns)
    net.reserve_names(ports[0] for _kw, ports in instances)
    defined = set(inputs)

    # Gate instances and assigns may be listed in any order: define each
    # after its fanins, in one pass (assigns first, as listed, then
    # instances).
    targets: List[str] = []
    reads: List[List[str]] = []
    expressions: List[List[str]] = []
    for lhs, rhs in assigns:
        tokens = _tokenize_expr(rhs)
        expressions.append(tokens)
        targets.append(lhs)
        reads.append([t for t in tokens if t not in _EXPR_SYMBOLS])
    for keyword, ports in instances:
        target, fanins = _instance_ports(keyword, ports)
        targets.append(target)
        reads.append(fanins)
    order, unresolved = definition_order(targets, reads, defined)
    for i in order:
        if i < len(assigns):
            result = _parse_expr(expressions[i], net, defined)
            net.add_gate("BUF", [result], name=targets[i])
        else:
            keyword, _ports = instances[i - len(assigns)]
            net.add_gate(_GATE_KEYWORDS[keyword], reads[i], name=targets[i])
        defined.add(targets[i])
    if unresolved:
        raise NetlistError("could not resolve all Verilog statements (cycle or undefined signal)")

    for out in outputs:
        if out not in defined:
            raise NetlistError(f"output {out!r} has no driver")
        net.set_output(out, out)
    net.validate()
    return net


def _instance_ports(keyword: str, ports: List[str]) -> Tuple[str, List[str]]:
    """Split an instance port list into (output, fanins).

    Both named instances (``and g1(y, a, b)``) and anonymous ones
    (``and (y, a, b)``) arrive here as a bare port list: the first port is
    the output, per Verilog primitive-gate convention.
    """
    if len(ports) < 2:
        raise NetlistError(f"{keyword} instance needs at least 2 ports")
    return ports[0], ports[1:]


def read_verilog(path: str) -> LogicNetwork:
    with open(path) as handle:
        return parse_verilog(handle.read())


_OP_FORMATS = {
    "AND": (" & ", None),
    "OR": (" | ", None),
    "XOR": (" ^ ", None),
    "XNOR": (" ^ ", "~"),
    "NAND": (" & ", "~"),
    "NOR": (" | ", "~"),
}


def write_verilog(network: LogicNetwork, module_name: Optional[str] = None) -> str:
    """Serialize a network as a flattened assign-style Verilog module."""
    name = module_name or network.name or "top"
    out_names = [n for n, _sig in network.outputs]
    ports = network.inputs + out_names
    lines = [f"module {name} (" + ", ".join(ports) + ");"]
    if network.inputs:
        lines.append("  input " + ", ".join(network.inputs) + ";")
    if out_names:
        lines.append("  output " + ", ".join(out_names) + ";")
    wires = [s for s in network.gates if s not in set(out_names)]
    if wires:
        for i in range(0, len(wires), 12):
            lines.append("  wire " + ", ".join(wires[i : i + 12]) + ";")

    for signal in network.topological_order():
        gate = network.gates[signal]
        lines.append(f"  assign {signal} = {_gate_expr(gate)};")
    for out, sig in network.outputs:
        if out != sig and out not in network.gates:
            lines.append(f"  assign {out} = {sig};")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def _gate_expr(gate) -> str:
    op = gate.op
    fanins = list(gate.fanins)
    if op == "INV":
        return f"~{fanins[0]}"
    if op == "BUF":
        return fanins[0]
    if op == "CONST0":
        return "1'b0"
    if op == "CONST1":
        return "1'b1"
    if op == "MUX":
        s, a, b = fanins
        return f"({s} & {a}) | (~{s} & {b})"
    if op == "MAJ":
        a, b, c = fanins
        return f"({a} & {b}) | ({a} & {c}) | ({b} & {c})"
    joiner, prefix = _OP_FORMATS[op]
    body = joiner.join(fanins)
    if op == "XNOR":
        return f"~({body})"
    if prefix:
        return f"~({body})"
    return body
