"""Deep-chain apply benchmarks: iterative engine + automatic GC gates.

Builds parity functions as sequential XOR chains (``f = f ^ x_i``) —
the workload that used to exhaust both the Python stack (recursive
apply) and memory (no reclamation of dead intermediates: parity-1600
left ~n^2/4 = 641,600 stored nodes for an 800-node result, and
parity-4000 did not finish in 100 s).  The iterative engine with
automatic garbage collection must complete parity-4000 in seconds with
bounded peak memory.

Gates asserted here:

* parity-4000 builds in < 10 s;
* peak stored manager nodes stay < 5x the final BBDD size;
* the chain builds correctly under a recursion limit of 5,000 (the
  engine never recurses on operand depth);
* a stored node of the full-profile misex3 build costs fewer than
  ``STORE_BYTES_PER_NODE`` traced bytes.
"""

import gc
import sys
import time
import tracemalloc

import pytest

from _metrics import record_metric
from repro.circuits.registry import TABLE1_ROWS
from repro.core import BBDDManager
from repro.network.build import build

#: (variables, build-time gate in seconds).  The 4000-variable chain is
#: the acceptance gate; the smaller sizes chart the scaling curve.
_SIZES = [(500, 2.0), (1000, 3.0), (2000, 5.0), (4000, 10.0)]

PEAK_FACTOR = 5.0

#: Traced bytes per stored node that the full-profile misex3 build leaves
#: allocated: node columns, unique table, computed table and handles.
#: With per-variable node sets kept beside the store it read 478-489
#: (Python 3.9-3.13); with the sets built only while reordering, 354-365.
STORE_BYTES_PER_NODE = 430


def _build_chain(n):
    manager = BBDDManager(n)
    f = manager.var(0)
    for i in range(1, n):
        f = f ^ manager.var(i)
    return manager, f


@pytest.mark.parametrize("n,limit", _SIZES, ids=[f"parity-{n}" for n, _ in _SIZES])
def test_chain_build_depth(benchmark, n, limit):
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(5_000)  # prove the engine is iterative
    try:
        t0 = time.perf_counter()
        manager, f = benchmark.pedantic(
            _build_chain, args=(n,), rounds=1, iterations=1
        )
        elapsed = time.perf_counter() - t0
    finally:
        sys.setrecursionlimit(old_limit)

    final = f.node_count()
    assert final == n // 2
    assert f.sat_count() == 1 << (n - 1)

    stats = manager.table_stats()
    benchmark.extra_info.update(
        {
            "final_nodes": final,
            "peak_nodes": manager.peak_nodes,
            "stored_nodes": manager.size(),
            "auto_gc_runs": stats["auto_gc_runs"],
            "build_seconds": round(elapsed, 3),
        }
    )

    record_metric("apply_depth", f"parity_{n}_build_time", round(elapsed, 3), "s")
    record_metric("apply_depth", f"parity_{n}_peak_nodes", manager.peak_nodes, "nodes")

    # Memory gate: automatic GC keeps the build bounded.
    assert manager.peak_nodes < PEAK_FACTOR * final, (
        f"peak {manager.peak_nodes} nodes exceeds {PEAK_FACTOR}x the "
        f"{final}-node result: auto-GC is not keeping up"
    )
    # Time gate.
    assert elapsed < limit, f"parity-{n} build took {elapsed:.2f}s (gate {limit}s)"


def test_chain_summary(capsys):
    """Print the scaling table (shown with ``pytest -s``)."""
    rows = []
    for n, _limit in _SIZES[:-1]:  # summary profile skips the largest
        t0 = time.perf_counter()
        manager, f = _build_chain(n)
        dt = time.perf_counter() - t0
        rows.append(
            (n, round(dt, 3), f.node_count(), manager.peak_nodes, manager.auto_gc_runs)
        )
    with capsys.disabled():
        print()
        print("parity chain scaling (iterative engine + auto-GC)")
        print(f"{'n':>6} {'seconds':>8} {'final':>7} {'peak':>7} {'gc runs':>8}")
        for n, dt, final, peak, runs in rows:
            print(f"{n:>6} {dt:>8} {final:>7} {peak:>7} {runs:>8}")


def test_store_bytes_per_node():
    """Gate the store's memory: traced bytes per stored node of a build."""
    row = next(r for r in TABLE1_ROWS if r.name == "misex3")
    network = row.build(full=True)
    build(row.build(full=False), backend="bbdd")  # load what a build imports
    gc.collect()
    tracemalloc.start()
    try:
        manager, functions = build(network, backend="bbdd")
        gc.collect()
        traced, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stored = manager.size()
    per_node = traced / stored
    record_metric("apply_depth", "store_bytes_per_node", round(per_node, 1), "B/node")
    record_metric("apply_depth", "store_stored_nodes", stored, "nodes")
    assert per_node < STORE_BYTES_PER_NODE, (
        f"a stored node costs {per_node:.0f} traced bytes over {stored} nodes "
        f"(gate {STORE_BYTES_PER_NODE})"
    )
