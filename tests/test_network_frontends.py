"""Logic network IR, BLIF/Verilog frontends, simulation, builders."""

import random
import time

import pytest

from repro.core.truthtable import TruthTable
from repro.network.blif import parse_blif, write_blif
from repro.network.build import build
from repro.core.exceptions import BBDDError
from repro.network import NetlistError
from repro.network.network import LogicNetwork
from repro.network.simulate import (
    apply_vector,
    networks_equivalent,
    output_truth_masks,
)
from repro.network.verilog import parse_verilog, write_verilog


def full_adder_network():
    net = LogicNetwork("fa")
    a, b, cin = net.add_inputs(["a", "b", "cin"])
    s = net.xor(net.xor(a, b), cin)
    cout = net.maj(a, b, cin)
    net.set_output("sum", s)
    net.set_output("cout", cout)
    return net


def test_network_construction_and_stats():
    net = full_adder_network()
    net.validate()
    assert net.num_inputs == 3
    assert net.num_outputs == 2
    stats = net.stats()
    assert stats["gates"] == net.num_gates
    assert "MAJ" in stats["histogram"]


def test_network_rejects_duplicates_and_cycles():
    net = LogicNetwork()
    net.add_input("a")
    with pytest.raises(ValueError):
        net.add_input("a")
    net.add_gate("INV", ["a"], name="x")
    with pytest.raises(ValueError):
        net.add_gate("INV", ["a"], name="x")
    bad = LogicNetwork()
    bad.add_input("i")
    bad.gates["p"] = bad.gates.get("p") or __import__(
        "repro.network.network", fromlist=["Gate"]
    ).Gate("AND", ["i", "q"])
    bad.gates["q"] = __import__(
        "repro.network.network", fromlist=["Gate"]
    ).Gate("AND", ["i", "p"])
    with pytest.raises(ValueError):
        bad.topological_order()


def test_simulation_matches_truth_tables():
    net = full_adder_network()
    masks = output_truth_masks(net)
    a = TruthTable.var(3, 0)
    b = TruthTable.var(3, 1)
    c = TruthTable.var(3, 2)
    assert masks["sum"] == (a ^ b ^ c).mask
    assert masks["cout"] == ((a & b) | (a & c) | (b & c)).mask


def test_apply_vector():
    net = full_adder_network()
    out = apply_vector(net, {"a": 1, "b": 1, "cin": 0})
    assert out == {"sum": 0, "cout": 1}


def test_blif_round_trip():
    net = full_adder_network()
    text = write_blif(net)
    back = parse_blif(text)
    assert networks_equivalent(net, back)
    assert back.name == net.name


def test_blif_cover_parsing():
    text = """
.model cover
.inputs a b c
.outputs y z
.names a b c y
11- 1
--1 1
.names a z
0 1
.end
"""
    net = parse_blif(text)
    masks = output_truth_masks(net)
    a, b, c = (TruthTable.var(3, i) for i in range(3))
    assert masks["y"] == ((a & b) | c).mask
    assert masks["z"] == (~a).mask


def test_verilog_round_trip():
    net = full_adder_network()
    text = write_verilog(net)
    back = parse_verilog(text)
    assert networks_equivalent(net, back)


def test_verilog_gate_instances_and_assign():
    src = """
module mixed (a, b, y, z);
  input a, b;
  output y, z;
  wire w;
  nand g1 (w, a, b);
  assign y = ~(a ^ b) | w;
  assign z = 1'b1 & a;
endmodule
"""
    net = parse_verilog(src)
    masks = output_truth_masks(net)
    a, b = TruthTable.var(2, 0), TruthTable.var(2, 1)
    assert masks["y"] == (~(a ^ b) | ~(a & b)).mask
    assert masks["z"] == a.mask


def test_verilog_rejects_vectors():
    with pytest.raises(ValueError):
        parse_verilog("module m (a); input [3:0] a; endmodule")


def _assign_module(rhs):
    return (
        "module m (a, b, c, d, y);\n  input a, b, c, d;\n  output y;\n"
        f"  assign y = {rhs};\nendmodule\n"
    )


def test_verilog_assign_precedence_and_constants():
    """``~`` binds tightest, then ``&``, then ``^``/``~^``/``^~``, then ``|``."""
    a, b, c, d = (TruthTable.var(4, j) for j in range(4))
    cases = {
        "~a & b ^ c | d": (((~a) & b) ^ c) | d,
        "a | b ^ c & d": a | (b ^ (c & d)),
        "a ^ b ~^ c ^~ d": ~(~((a ^ b) ^ c) ^ d),
        "~(a | b) & ~~c": ~(a | b) & c,
        "(a & 1'b1) | (b & 1'b0) | ~1'b1": a,
    }
    for rhs, want in cases.items():
        assert output_truth_masks(parse_verilog(_assign_module(rhs)))["y"] == want.mask, rhs


@pytest.mark.parametrize(
    "rhs, want",
    [
        ("(" * 10_000 + "a ^ b" + ")" * 10_000, 0b0110),
        ("~" * 10_000 + "a", 0b1010),
        ("~" * 9_999 + "(a & ~b)", 0b1101),
    ],
    ids=["parentheses", "negations", "negated-group"],
)
def test_verilog_deep_assigns_parse(rhs, want):
    """Assign nesting is bounded by memory, not the Python stack (500
    parentheses or 5,000 ``~`` raised ``RecursionError`` before)."""
    net = parse_verilog(
        f"module m (a, b, y); input a, b; output y; assign y = {rhs}; endmodule"
    )
    assert output_truth_masks(net)["y"] == want


@pytest.mark.parametrize(
    "rhs, message",
    [
        ("", "unexpected end of expression"),
        ("a &", "unexpected end of expression"),
        ("~", "unexpected end of expression"),
        ("((a | b)", "unexpected end of expression"),
        ("a b", r"trailing tokens: \['b'\]"),
        ("(a | b))", r"trailing tokens: \['\)'\]"),
        ("(a b)", r"expected '\)', got 'b'"),
        ("a & & b", "undefined signal '&'"),
        ("()", r"undefined signal '\)'"),
        ("a & q", "could not resolve"),
        ("a # b", "unexpected character '#'"),
    ],
)
def test_verilog_malformed_assigns_raise_value_error(rhs, message):
    with pytest.raises(ValueError, match=message):
        parse_verilog(_assign_module(rhs))


def _reversed_chain(fmt, length):
    """A buffer chain ``s1 = a``, ``s{i} = s{i-1}``, listed output first."""
    sources = ["a"] + [f"s{i}" for i in range(1, length)]
    links = [(sources[i - 1], f"s{i}") for i in range(length, 0, -1)]
    if fmt == "blif":
        lines = [".model chain", ".inputs a", f".outputs s{length}"]
        for src, dst in links:
            lines += [f".names {src} {dst}", "1 1"]
        return "\n".join(lines + [".end"])
    body = "".join(f"  assign {dst} = {src};\n" for src, dst in links)
    return (
        f"module chain (a, s{length});\n  input a;\n  output s{length};\n"
        f"{body}endmodule\n"
    )


@pytest.mark.parametrize("fmt", ["blif", "verilog"])
def test_reversed_netlist_parses_in_one_pass(fmt):
    """Definitions listed after their readers cost one pass, not one
    re-scan of the pending blocks per definition (O(n^2): 4,000 reversed
    blocks took 8 s as BLIF and 38 s as Verilog)."""
    length = 4000
    text = _reversed_chain(fmt, length)
    parse = parse_blif if fmt == "blif" else parse_verilog
    start = time.perf_counter()
    net = parse(text)
    assert time.perf_counter() - start < 2.0
    assert net.inputs == ["a"]
    assert output_truth_masks(net)[f"s{length}"] == TruthTable.var(1, 0).mask


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (
            parse_blif,
            ".model m\n.inputs a\n.outputs y\n.names a q y\n11 1\n.end",
            r"undefined signals: \['q'\]",
        ),
        (
            parse_blif,
            ".model m\n.inputs a\n.outputs y\n.names a u y\n11 1\n"
            ".names v u\n1 1\n.names u v\n1 1\n.end",
            r"undefined signals: \['u', 'v'\]",
        ),
        (
            parse_verilog,
            "module m (a, y); input a; output y; assign y = a & q; endmodule",
            "could not resolve",
        ),
        (
            parse_verilog,
            "module m (a, y); input a; output y; wire u, v;\n"
            "assign y = a & u; assign u = v; and g (v, u, a); endmodule",
            "could not resolve",
        ),
    ],
    ids=["blif-undefined", "blif-cycle", "verilog-undefined", "verilog-cycle"],
)
def test_netlist_readers_reject_undefined_and_cyclic_signals(parse, text, message):
    with pytest.raises(ValueError, match=message):
        parse(text)


def test_netlist_error_is_typed_and_a_value_error():
    assert issubclass(NetlistError, BBDDError)
    assert issubclass(NetlistError, ValueError)
    net = LogicNetwork()
    net.add_input("a")
    with pytest.raises(NetlistError):
        net.add_input("a")
    with pytest.raises(NetlistError):
        net.add_gate("FROB", ["a"])


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_blif, ".model m\n.inputs a\n.outputs y y\n.names a y\n1 1\n.end\n"),
        (parse_verilog, "module m (a, y); input a; output y, y; assign y = a; endmodule"),
    ],
    ids=["blif", "verilog"],
)
def test_readers_reject_repeated_output_names(parse, text):
    """Before: both readers listed ``('y', 'y')`` twice as outputs."""
    with pytest.raises(NetlistError, match="output 'y' already defined"):
        parse(text)


def test_set_output_rejects_a_repeated_name():
    net = LogicNetwork()
    a, b = net.add_inputs(["a", "b"])
    net.set_output("y", a)
    net.set_output("z", a)  # two names on one signal stay legal
    with pytest.raises(NetlistError, match="output 'y' already defined"):
        net.set_output("y", b)
    with pytest.raises(NetlistError, match="output 'z' already defined"):
        net.outputs = [("z", a), ("z", b)]
    assert net.outputs == [("y", a), ("z", a)]
    copy = net.copy()
    with pytest.raises(NetlistError, match="output 'y' already defined"):
        copy.set_output("y", b)
    copy.outputs = [("w", b)]
    copy.set_output("y", b)
    assert copy.outputs == [("w", b), ("y", b)] and net.num_outputs == 2


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_blif, ".names\n", "names no signal"),
        (parse_blif, ".model m\n.inputs a\n.outputs a\n.names \n1\n.end\n", "names no signal"),
        (parse_verilog, "module m (a); input a; assign a; endmodule", "assign without '='"),
        (
            parse_verilog,
            "module m (a, y); input a; output y; assign = a; assign y = a; endmodule",
            "empty signal name",
        ),
        (
            parse_verilog,
            "module m (a, y); input a; output y; not (, a); assign y = a; endmodule",
            "empty signal name",
        ),
    ],
    ids=[
        "blif-bare-names",
        "blif-blank-names",
        "verilog-assign-no-equals",
        "verilog-assign-no-target",
        "verilog-instance-no-output",
    ],
)
def test_empty_definitions_raise_netlist_error(parse, text, message):
    """Before: a bare ``IndexError`` (BLIF), an unpacking ``ValueError``
    (Verilog) from deep inside the reader, or a signal named ``''``."""
    with pytest.raises(NetlistError, match=message):
        parse(text)


_FUZZ_BLIF = """.model tiny
.inputs a b c
.outputs y z
.latch y s 1
.names a b t
11 1
.names t c s y
1-- 1
-11 1
.names c z
0 1
.names k
1
.end
"""

_FUZZ_VERILOG = """module tiny (a, b, c, y, z);
  input a, b, c;
  output y, z;
  wire t, u;
  and g1 (t, a, b);
  assign u = ~(t ^ c) | (a & 1'b1);
  xor (y, u, b);
  assign z = ~c ^~ b;
endmodule
"""

#: Characters and tokens the mutations insert: both grammars' punctuation
#: and keywords, so mutants reach every directive and statement kind.
_FUZZ_CHARS = ". \n#\\01-abcyz=;()~&|^,[]'"
_FUZZ_TOKENS = (
    ".names", ".inputs", ".outputs", ".latch", ".end", ".model", ".subckt",
    "assign", "module", "endmodule", "input", "output", "wire", "and", "not",
    "1'b1", "~^", "\n",
)


def _mutate(text, rng):
    """One to three character, token or line edits of ``text``."""
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(6)
        lines = text.split("\n")
        i = rng.randrange(len(text) + 1)
        if kind == 0:
            text = text[:i] + text[i + rng.randint(1, 3):]
        elif kind == 1:
            text = text[:i] + rng.choice(_FUZZ_CHARS) + text[i:]
        elif kind == 2:
            text = text[:i] + rng.choice(_FUZZ_TOKENS) + text[i:]
        elif kind == 3:
            del lines[rng.randrange(len(lines))]
            text = "\n".join(lines)
        elif kind == 4:
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
            text = "\n".join(lines)
        else:
            j, k = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[j], lines[k] = lines[k], lines[j]
            text = "\n".join(lines)
    return text


@pytest.mark.parametrize(
    "parse, text", [(parse_blif, _FUZZ_BLIF), (parse_verilog, _FUZZ_VERILOG)],
    ids=["blif", "verilog"],
)
def test_mutated_netlists_parse_or_raise_netlist_error(parse, text):
    """Seeded mutations of a small model either parse or raise
    :class:`NetlistError`: no bare ``IndexError``, unpacking error or
    other untyped exception escapes a reader."""
    parse(text)
    rng = random.Random(2014)
    outcomes = {"parsed": 0, "rejected": 0}
    for _ in range(3000):
        mutant = _mutate(text, rng)
        try:
            parse(mutant)
        except NetlistError:
            outcomes["rejected"] += 1
        except Exception as exc:  # pragma: no cover - the failure report
            pytest.fail(f"{type(exc).__name__}: {exc} on mutant {mutant!r}")
        else:
            outcomes["parsed"] += 1
    # Both outcomes occur, so the mutations neither break every input
    # nor leave them all intact.
    assert outcomes["parsed"] and outcomes["rejected"]


def test_builders_match_simulation():
    net = full_adder_network()
    masks = output_truth_masks(net)
    _mg, fns = build(net, backend="bbdd")
    for name, f in fns.items():
        assert f.truth_mask(net.inputs) == masks[name]
    _mg2, fns2 = build(net, backend="bdd")
    for name, f in fns2.items():
        assert f.truth_mask(net.inputs) == masks[name]


def test_builders_share_across_outputs():
    net = full_adder_network()
    mg, fns = build(net, backend="bbdd")
    total = mg.node_count(list(fns.values()))
    separate = sum(f.node_count() for f in fns.values())
    assert total <= separate


def test_networks_equivalent_detects_difference():
    net1 = full_adder_network()
    net2 = LogicNetwork("fa")
    a, b, cin = net2.add_inputs(["a", "b", "cin"])
    net2.set_output("sum", net2.xor(a, b))  # wrong: misses cin
    net2.set_output("cout", net2.maj(a, b, cin))
    assert not networks_equivalent(net1, net2)
