"""Persistence benchmarks: dump/load throughput and file size vs. nodes.

Round-trips registry forests through the levelized binary format
(:mod:`repro.io`): per-circuit round-trip benches on every backend
(``bbdd`` couples, ``bdd`` Shannon records, ``xmem`` reloaded into
xmem), plus two gates:

* **Throughput** — on the largest registry circuit, per backend, the
  subsystem's performance contract: combined dump+load at >= 50k
  stored nodes/s and a file footprint of <= 16 bytes per node.
* **Compressed codec** — the v2 ``FLAG_COMPRESSED`` container must be
  at least 25 % smaller per node than the plain codec's ~4.7 B/node
  baseline on C1355, with a bit-exact round trip (same node count,
  canonical plain re-dump identical).
"""

import functools
import io
import time

import pytest

from _metrics import record_metric
import repro
from repro import io as rio
from repro.circuits.registry import TABLE1_ROWS
from repro.network.build import build

_ROWS = {row.name: row for row in TABLE1_ROWS}

# Node-heavy fast-profile circuits (misex3 is the largest registry forest).
_PER_ROW = ["misex3", "C1355", "frg1", "seq", "my_adder", "comp"]

#: The plain codec's historical footprint on registry forests; the
#: compressed gate is measured against it.
_PLAIN_BASELINE_B_PER_NODE = 4.7


_BACKENDS = ["bbdd", "bdd", "xmem"]


def _forest(name, backend="bbdd"):
    network = _ROWS[name].build(full=False)
    manager, functions = build(network, backend=backend)
    # Stored nodes: what a dump holds (xmem's node_count does not share
    # nodes across representations; its dump does).
    nodes = rio.scan(io.BytesIO(rio.dumps(manager, functions))).node_count
    return manager, functions, nodes


@functools.lru_cache(maxsize=None)
def _largest():
    """The node-heaviest of ``_PER_ROW``, by its BBDD forest."""
    return max(_PER_ROW, key=lambda name: _forest(name)[2])


def _prefix(backend):
    """Metric-name prefix: the bbdd figures keep their historical names."""
    return "" if backend == "bbdd" else f"{backend}_"


def _loads(manager, data):
    """Reload ``data`` into a fresh manager of ``manager``'s backend."""
    if manager.backend == "xmem":
        fresh = repro.open("xmem", vars=manager.current_order())
        return fresh, fresh.load(io.BytesIO(data))
    return rio.loads(data)


@pytest.mark.parametrize("name", _PER_ROW)
@pytest.mark.parametrize("backend", _BACKENDS)
def test_roundtrip(benchmark, backend, name):
    manager, functions, nodes = _forest(name, backend)

    def roundtrip():
        data = rio.dumps(manager, functions)
        _loads(manager, data)
        return data

    data = benchmark.pedantic(roundtrip, rounds=1, iterations=1)
    benchmark.extra_info["nodes"] = nodes
    benchmark.extra_info["file_bytes"] = len(data)
    benchmark.extra_info["bytes_per_node"] = round(len(data) / max(nodes, 1), 2)
    record_metric(
        "io",
        f"{_prefix(backend)}{name}_bytes_per_node",
        round(len(data) / max(nodes, 1), 2),
        "B/node",
    )


@pytest.mark.parametrize("backend", _BACKENDS)
def test_io_throughput_largest_circuit(benchmark, capsys, backend):
    """The subsystem's performance contract, on the largest registry forest."""
    manager, functions, nodes = _forest(_largest(), backend)

    def measured():
        t0 = time.perf_counter()
        data = rio.dumps(manager, functions)
        t_dump = time.perf_counter() - t0
        t0 = time.perf_counter()
        reloaded_manager, reloaded = _loads(manager, data)
        t_load = time.perf_counter() - t0
        count = reloaded_manager.node_count(list(reloaded.values()))
        return data, t_dump, t_load, count

    data, t_dump, t_load, reloaded_nodes = benchmark.pedantic(
        measured, rounds=1, iterations=1
    )
    assert reloaded_nodes == nodes  # same order => node-for-node round trip

    # The v2 compressed container, for the size trajectory next to the
    # plain footprint (test_compressed_codec_size gates the ratio on
    # C1355; here it is recorded).
    compressed = rio.dumps(manager, functions, compress=True)
    compressed_manager, compressed_fns = _loads(manager, compressed)
    assert compressed_manager.node_count(list(compressed_fns.values())) == nodes

    bytes_per_node = len(data) / nodes
    throughput = nodes / (t_dump + t_load)
    benchmark.extra_info["nodes"] = nodes
    benchmark.extra_info["bytes_per_node"] = round(bytes_per_node, 2)
    benchmark.extra_info["dump_nodes_per_s"] = round(nodes / t_dump)
    benchmark.extra_info["load_nodes_per_s"] = round(nodes / t_load)
    benchmark.extra_info["roundtrip_nodes_per_s"] = round(throughput)
    with capsys.disabled():
        print(
            f"\nio throughput ({backend}): {nodes} nodes, {len(data)} bytes "
            f"({bytes_per_node:.2f} B/node), dump {nodes / t_dump:,.0f} n/s, "
            f"load {nodes / t_load:,.0f} n/s, round trip {throughput:,.0f} n/s"
        )
    prefix = _prefix(backend)
    record_metric("io", f"{prefix}largest_nodes", nodes, "nodes")
    record_metric("io", f"{prefix}bytes_per_node", round(bytes_per_node, 2), "B/node")
    record_metric(
        "io",
        f"{prefix}compressed_bytes_per_node",
        round(len(compressed) / nodes, 2),
        "B/node",
    )
    record_metric("io", f"{prefix}dump_nodes_per_s", round(nodes / t_dump), "nodes/s")
    record_metric("io", f"{prefix}load_nodes_per_s", round(nodes / t_load), "nodes/s")
    record_metric(
        "io", f"{prefix}roundtrip_nodes_per_s", round(throughput), "nodes/s"
    )
    assert bytes_per_node <= 16.0
    assert throughput >= 50_000


def test_compressed_codec_size(benchmark, capsys):
    """v2 compressed dumps beat the plain baseline by >= 25 % per node."""
    name = "C1355"
    manager, functions, nodes = _forest(name)

    def dumps():
        plain = rio.dumps(manager, functions)
        compressed = rio.dumps(manager, functions, compress=True)
        return plain, compressed

    plain, compressed = benchmark.pedantic(dumps, rounds=1, iterations=1)

    # Bit-exact round trip: the compressed container reloads to the
    # same canonical forest, whose plain re-dump is byte-identical.
    reloaded_manager, reloaded = rio.loads(compressed)
    assert reloaded_manager.node_count(list(reloaded.values())) == nodes
    assert rio.dumps(reloaded_manager, reloaded) == plain

    plain_bpn = len(plain) / nodes
    compressed_bpn = len(compressed) / nodes
    with capsys.disabled():
        print(
            f"\ncompressed codec: {name}, {nodes} nodes, "
            f"plain {plain_bpn:.2f} B/node, compressed {compressed_bpn:.2f} "
            f"B/node ({100 * (1 - compressed_bpn / plain_bpn):.0f}% smaller)"
        )
    record_metric("io", "codec_nodes", nodes, "nodes")
    record_metric("io", "codec_plain_bytes_per_node", round(plain_bpn, 2), "B/node")
    record_metric(
        "io", "codec_compressed_bytes_per_node", round(compressed_bpn, 2), "B/node"
    )
    record_metric(
        "io",
        "codec_size_reduction_pct",
        round(100.0 * (1 - compressed_bpn / plain_bpn), 2),
        "%",
    )
    assert compressed_bpn <= 0.75 * _PLAIN_BASELINE_B_PER_NODE
    assert compressed_bpn <= 0.75 * plain_bpn
