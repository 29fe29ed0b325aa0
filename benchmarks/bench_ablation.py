"""Ablation benches for the design choices of Sec. IV-A3.

* computed table on/off — the memoization of Algorithm 1;
* sifting on/off — the re-ordering contribution to node counts.

Each ablation runs the same fixed workload (build the `comp`, `my_adder`
and `parity` benchmarks) so runtimes are directly comparable within a
report.
"""

import pytest

from _metrics import record_metric
from repro.circuits import mcnc
from repro.core.reorder import sift
from repro.harness.table1 import run_benchmark
from repro.network.build import build

_WORKLOAD = [mcnc.comp(10), mcnc.my_adder(10), mcnc.parity(12)]

#: Stored nodes of the workload's outputs, canonical for its input
#: orders: memoization must not change them.
_WORKLOAD_NODES = 185


def _build_all(computed_backend="dict"):
    total = 0
    for net in _WORKLOAD:
        manager, fns = build(net, backend="bbdd", computed_backend=computed_backend)
        total += manager.node_count(list(fns.values()))
    return total


@pytest.mark.parametrize("computed", ["dict", "disabled"])
def test_ablation_computed_table(benchmark, computed):
    nodes = benchmark.pedantic(
        _build_all, kwargs={"computed_backend": computed}, rounds=1, iterations=1
    )
    benchmark.extra_info["nodes"] = nodes
    benchmark.extra_info["computed_table"] = computed
    record_metric("ablation", f"computed_{computed}_nodes", nodes, "nodes")
    assert nodes == _WORKLOAD_NODES


@pytest.mark.parametrize("use_sift", [False, True])
def test_ablation_sifting(benchmark, use_sift):
    net = mcnc.comp(12)

    def pipeline():
        manager, fns = build(net, backend="bbdd")
        if use_sift:
            sift(manager)
        return manager.node_count(list(fns.values()))

    nodes = benchmark.pedantic(pipeline, rounds=1, iterations=1)
    benchmark.extra_info["nodes"] = nodes
    benchmark.extra_info["sift"] = use_sift
    record_metric("ablation", f"sift_{'on' if use_sift else 'off'}_nodes", nodes, "nodes")


@pytest.mark.parametrize("package", ["bbdd", "bdd"])
def test_ablation_package_on_xor_rich(benchmark, package):
    """The paper's motivating contrast on an XOR-rich circuit."""
    net = mcnc.parity(16)
    result = benchmark.pedantic(
        run_benchmark, args=(net, package), rounds=1, iterations=1
    )
    benchmark.extra_info["nodes"] = result.nodes
    record_metric("ablation", f"parity16_{package}_nodes", result.nodes, "nodes")
