"""Synthesis subsystem tests: passes, mappers, BBDD rewriting, flows."""

import pytest

from repro.circuits import datapath
from repro.network.build import build
from repro.network.network import LogicNetwork
from repro.network.simulate import networks_equivalent, output_truth_masks
from repro.synth.bbdd_rewrite import rewrite_functions
from repro.synth.flow import baseline_flow, bbdd_flow, datapath_order
from repro.synth.library import default_library
from repro.synth.mapper import map_generic, map_preserving
from repro.synth.netlist import MappedNetlist
from repro.synth.optimize import (
    flatten_associative,
    lower_to_aig,
    optimize,
    propagate_constants,
)

LIBRARY = default_library()


def small_mixed_network():
    net = LogicNetwork("mixed")
    a, b, c, d = net.add_inputs(["a", "b", "c", "d"])
    net.set_output("y1", net.mux(a, net.xor(b, c), net.maj(b, c, d)))
    net.set_output("y2", net.add_gate("NOR", [net.and_(a, b), net.inv(d)]))
    return net


def test_propagate_constants_folds():
    net = LogicNetwork("c")
    a = net.add_input("a")
    one = net.const(True)
    zero = net.const(False)
    net.set_output("y", net.and_(a, one))
    net.set_output("z", net.mux(zero, a, net.xor(a, one)))
    folded = propagate_constants(net)
    masks = output_truth_masks(folded)
    assert masks["y"] == 0b10
    assert masks["z"] == 0b01  # ~a
    assert networks_equivalent(net, folded)


def test_optimize_preserves_function():
    net = small_mixed_network()
    assert networks_equivalent(net, optimize(net))


def test_lower_to_aig_only_and_inv():
    net = small_mixed_network()
    aig = lower_to_aig(net)
    assert networks_equivalent(net, aig)
    for gate in aig.gates.values():
        assert gate.op in ("AND", "INV", "CONST0", "CONST1", "BUF")


def test_flatten_associative_balances_chains():
    net = LogicNetwork("chain")
    xs = net.add_inputs([f"x{i}" for i in range(8)])
    acc = xs[0]
    for x in xs[1:]:
        acc = net.and_(acc, x)
    net.set_output("y", acc)
    flat = flatten_associative(net)
    assert networks_equivalent(net, flat)
    widths = [len(g.fanins) for g in flat.gates.values() if g.op == "AND"]
    assert max(widths) == 8  # one wide gate


@pytest.mark.parametrize("mapper", [map_generic, map_preserving])
def test_mappers_equivalence_and_library(mapper):
    net = small_mixed_network()
    mapped = mapper(net, LIBRARY)
    assert networks_equivalent(net, mapped)
    MappedNetlist(mapped, LIBRARY)  # raises if any op is not a cell


def test_generic_mapper_rediscovers_xor():
    net = LogicNetwork("x")
    a, b = net.add_inputs(["a", "b"])
    net.set_output("y", net.xor(a, b))
    mapped = map_generic(net, LIBRARY)
    hist = MappedNetlist(mapped, LIBRARY).histogram()
    assert hist.get("XOR", 0) + hist.get("XNOR", 0) >= 1


def test_preserving_mapper_keeps_maj():
    net = LogicNetwork("m")
    a, b, c = net.add_inputs(["a", "b", "c"])
    net.set_output("y", net.maj(a, b, c))
    mapped = map_preserving(net, LIBRARY)
    assert MappedNetlist(mapped, LIBRARY).histogram().get("MAJ") == 1


def test_metrics_monotone_in_size():
    small = map_preserving(datapath.equality_dp(4), LIBRARY)
    large = map_preserving(datapath.equality_dp(8), LIBRARY)
    assert MappedNetlist(large, LIBRARY).area() > MappedNetlist(small, LIBRARY).area()
    assert MappedNetlist(large, LIBRARY).gate_count() > MappedNetlist(
        small, LIBRARY
    ).gate_count()


def test_bbdd_rewrite_equivalent_and_maj_rich():
    rtl = datapath.magnitude_dp(6)
    ordered = rtl.copy()
    ordered.inputs = datapath_order(rtl.inputs)
    manager, functions = build(ordered, backend="bbdd")
    rewritten = rewrite_functions(manager, functions)
    assert networks_equivalent(rtl, rewritten)
    hist = rewritten.gate_histogram()
    assert hist.get("MAJ", 0) >= 4  # the comparator chain becomes majorities


def test_bbdd_rewrite_adder_xor_structure():
    rtl = datapath.adder(6)
    ordered = rtl.copy()
    ordered.inputs = datapath_order(rtl.inputs)
    manager, functions = build(ordered, backend="bbdd")
    rewritten = rewrite_functions(manager, functions)
    assert networks_equivalent(rtl, rewritten)
    hist = rewritten.gate_histogram()
    assert hist.get("XNOR", 0) + hist.get("XOR", 0) >= 6
    assert hist.get("MAJ", 0) >= 4  # carry chain


def test_datapath_order_heuristic():
    assert datapath_order(["a0", "a1", "b0", "b1"]) == ["a1", "b1", "a0", "b0"]
    order = datapath_order(["d0", "d1", "d2", "d3", "sh0", "sh1", "left"])
    assert order[0] == "left"  # controls first
    assert order.index("sh1") < order.index("d3")  # narrow bus before wide


@pytest.mark.parametrize(
    "generator,width",
    [
        (datapath.adder, 8),
        (datapath.equality_dp, 8),
        (datapath.magnitude_dp, 8),
        (datapath.barrel, 8),
    ],
)
def test_flows_equivalent(generator, width):
    rtl = generator(width)
    base = baseline_flow(rtl, LIBRARY)
    bb = bbdd_flow(rtl, LIBRARY)
    assert base.equivalent
    assert bb.equivalent


def test_bbdd_flow_wins_on_magnitude():
    """The paper's headline case: comparators shrink dramatically."""
    rtl = datapath.magnitude_dp(12)
    base = baseline_flow(rtl, LIBRARY)
    bb = bbdd_flow(rtl, LIBRARY)
    assert bb.area < base.area
    assert bb.gate_count < base.gate_count


def test_bbdd_flow_wins_on_adder():
    rtl = datapath.adder(10)
    base = baseline_flow(rtl, LIBRARY)
    bb = bbdd_flow(rtl, LIBRARY)
    assert bb.area < base.area
    assert bb.delay_ns <= base.delay_ns


def test_flow_reports():
    rtl = datapath.equality_dp(6)
    result = bbdd_flow(rtl, LIBRARY)
    report = result.report()
    assert report["equivalent"] is True
    assert report["gates"] == result.gate_count
    assert result.bbdd_nodes > 0
