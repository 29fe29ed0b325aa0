"""Harness smoke tests (tiny subsets) and export-format tests."""

import os
import subprocess
import sys

import pytest

from repro.bdd import BDDManager
from repro.circuits.registry import TABLE1_ROWS, TABLE2_ROWS
from repro.core import BBDDManager
from repro.core.dot import to_dot
from repro.core.exceptions import ForeignManagerError
from repro.core.verilog_out import bbdd_to_verilog
from repro.harness.bulkeval import render_bulkeval, run_bulkeval
from repro.harness.report import format_table
from repro.harness.table1 import render_table1, run_table1
from repro.harness.table2 import render_table2, run_table2
from repro.network.simulate import output_truth_masks
from repro.network.verilog import parse_verilog


def test_table1_harness_subset():
    rows = [r for r in TABLE1_ROWS if r.name in ("C17", "parity", "z4ml", "9symml")]
    summary = run_table1(rows=rows, full=False)
    assert len(summary["rows"]) == 4
    by_name = {r["name"]: r for r in summary["rows"]}
    # Parity: the paper's flagship XOR-rich row — BBDD must be smaller.
    assert by_name["parity"]["bbdd_nodes"] < by_name["parity"]["bdd_nodes"]
    text = render_table1(summary)
    assert "parity" in text and "node reduction" in text


def test_table2_harness_subset():
    rows = [r for r in TABLE2_ROWS if r.name in ("Equality 32", "Magnitude 32")]
    summary = run_table2(rows=rows, full=False)
    assert summary["all_equivalent"]
    by_name = {r["name"]: r for r in summary["rows"]}
    assert by_name["Magnitude 32"]["bbdd_area"] < by_name["Magnitude 32"]["base_area"]
    text = render_table2(summary)
    assert "area reduction" in text


@pytest.mark.parametrize("backend", ["bbdd", "bdd", "xmem"])
def test_bulkeval_harness_checks_cube_sweep(backend, monkeypatch):
    summary = run_bulkeval("z4ml", backend=backend, queries=96, outputs=2)
    assert len(summary["rows"]) == 2 and summary["total_cube_s"] > 0
    assert "Cube(s)" in render_bulkeval(summary)
    # A cube sweep that answers "unsatisfiable" everywhere is caught.
    monkeypatch.setattr(
        "repro.serve.bulk.cube_sweep", lambda columns, root, *bits: 0
    )
    with pytest.raises(AssertionError, match="cube sweep diverges"):
        run_bulkeval("z4ml", backend=backend, queries=96, outputs=2)


def test_harness_module_runs_once_under_dash_m():
    """``python -m repro.harness.bulkeval`` runs its module once: the
    package does not import that module first (runpy warns if it does)."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [
            sys.executable, "-W", "error::RuntimeWarning",
            "-m", "repro.harness.bulkeval", "--help",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    import repro.harness

    assert repro.harness.run_bulkeval is run_bulkeval
    with pytest.raises(AttributeError, match="no attribute 'run_table3'"):
        repro.harness.run_table3


def test_format_table_alignment():
    text = format_table(["a", "bb"], [[1, 2.5], ["x", None]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert all(len(l) == len(lines[1]) for l in lines[1:])


def test_dot_export_contains_structure():
    m = BBDDManager(["a", "b", "c"])
    f = (m.var("a") ^ m.var("b")) & m.var("c")
    dot = to_dot(m, [f], names=["f"])
    assert dot.startswith("digraph")
    assert "a,b" in dot and "sink" in dot


def test_dot_export_draws_bdd_rows():
    """A BDD node is a single-variable row of the store: a box whose
    dashed edge goes to its else-child and solid edge to its then-child."""
    m = BDDManager(["a", "b", "c"])
    f = (m.var("a") & m.var("b")) | m.var("c")
    dot = to_dot(m, [f], names=["f"])
    root = f.node
    assert f'n{root.uid} [shape=box, label="a"]' in dot
    assert f"n{root.uid} -> n{root.eq.uid};" in dot
    assert f"n{root.uid} -> n{root.neq.uid} [style=dashed" in dot


def test_exports_render_literal_chain_and_complement():
    """Regression: the export paths ride the node-view layer.

    One forest exercising the three shapes an identity refactor breaks
    silently: a literal (R4) node, a chain-transform couple that skips an
    order variable, and complemented edges (root attribute and stored
    ``!=``-edge attribute).
    """
    m = BBDDManager(["a", "b", "c"])
    lit = m.var("b")  # literal node
    chain = m.var("a").xnor(m.var("c"))  # chain-transform couple (a, c)
    comp = m.var("a") ^ m.var("b")  # complemented root of the (a, b) node
    assert m.edge_attr(comp.edge), "xor roots carry the complement attribute"
    dot = to_dot(m, [lit, chain, comp], names=["lit", "chain", "comp"])
    # Literal: box node labelled with its variable, implicit sink edges.
    assert 'shape=box, label="b"' in dot
    # Chain transform: couple label pairs non-adjacent support variables.
    assert 'label="a,c"' in dot
    # Complements: root arrow of `comp` and the xnor node's !=-edge are
    # both dot-terminated.
    assert "comp -> " in dot and "arrowhead=odot" in dot
    comp_root = m.edge_node(comp.edge)
    assert (
        f"n{comp_root.uid} -> sink [style=dashed, arrowhead=odot" in dot
    )
    # The same three shapes survive the Verilog writer semantically.
    text = bbdd_to_verilog(
        m, {"lit": lit, "chain": chain, "comp": comp}, module_name="shapes"
    )
    net = parse_verilog(text)
    masks = output_truth_masks(net)
    order = net.inputs
    assert masks["lit"] == lit.truth_mask(order)
    assert masks["chain"] == chain.truth_mask(order)
    assert masks["comp"] == comp.truth_mask(order)


def test_bbdd_to_verilog_round_trips():
    m = BBDDManager(["a", "b", "c"])
    f = (m.var("a") & m.var("b")) | m.var("c")
    g = m.var("a").xnor(m.var("c"))
    text = bbdd_to_verilog(m, {"f": f, "g": g}, module_name="out")
    net = parse_verilog(text)
    masks = output_truth_masks(net)
    order = net.inputs
    assert masks["f"] == f.truth_mask(order)
    assert masks["g"] == g.truth_mask(order)


def test_exporters_reject_foreign_handles():
    """A handle's edge names nodes of its own store only.

    Another manager's ``(x & y) | z`` must not be drawn or written as
    this manager's nodes, and a smaller manager must not fail with a
    bare ``IndexError``: both exporters raise ``ForeignManagerError``.
    """
    a = BBDDManager(["a", "b", "c"])
    mine = (a.var("a") ^ a.var("b")) | a.var("c")
    other = BBDDManager(["a", "b", "c"])
    foreign = (other.var("a") & other.var("b")) | other.var("c")
    small = BBDDManager(["a"])
    for manager in (a, small):
        with pytest.raises(ForeignManagerError):
            to_dot(manager, [foreign])
        with pytest.raises(ForeignManagerError):
            bbdd_to_verilog(manager, {"f": foreign})
    # Own handles and bare edges still export.
    assert "digraph" in to_dot(a, [mine, mine.edge])
    assert "module bbdd" in bbdd_to_verilog(a, {"f": mine, "g": mine.edge})

