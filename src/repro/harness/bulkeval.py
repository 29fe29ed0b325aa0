"""Bulk-evaluation harness: looped vs batched query throughput.

Builds one Table I benchmark circuit on the selected backend, draws a
random query workload over each output's support, and measures three
serving strategies per output:

* **loop** — ``f.evaluate`` per assignment (one walk per query);
* **batch** — ``f.evaluate_batch`` on mapping input (transpose + sweep);
* **columnar** — ``f.evaluate_batch`` on a pre-packed
  :class:`~repro.serve.bulk.ColumnBatch` (sweep only).

It also times the cube sweep: ``f.satisfiable_batch`` on seeded
partial assignments, against one chain of ``restrict`` calls per cube.
Any answer that differs from its oracle raises ``AssertionError``.

Run it standalone::

    python -m repro.harness.bulkeval --circuit C1908 --queries 10000
    python -m repro.harness.bulkeval --backend xmem --outputs 3
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Sequence

from repro.circuits.registry import TABLE1_ROWS
from repro.harness.report import format_table
from repro.network.build import build
from repro.serve.bulk import ColumnBatch


def run_bulkeval(
    circuit: str = "C1908",
    backend: str = "bbdd",
    queries: int = 10_000,
    outputs: Optional[int] = None,
    full: bool = False,
    seed: int = 0xB00C,
) -> Dict:
    """Measure looped vs batched evaluation on one circuit; result dict.

    ``outputs`` caps how many output functions are measured (largest
    node counts first; default: all).  Returns per-output rows plus the
    aggregate speedups.
    """
    row = next((r for r in TABLE1_ROWS if r.name.lower() == circuit.lower()), None)
    if row is None:
        names = ", ".join(r.name for r in TABLE1_ROWS)
        raise ValueError(f"unknown circuit {circuit!r}; available: {names}")
    network = row.build(full=full)
    manager, functions = build(network, backend=backend)
    measured = sorted(
        functions.items(), key=lambda item: item[1].node_count(), reverse=True
    )
    if outputs is not None:
        measured = measured[:outputs]
    rng = random.Random(seed)
    rows: List[dict] = []
    totals = {"loop": 0.0, "batch": 0.0, "columnar": 0.0, "cube": 0.0}
    for name, f in measured:
        support = sorted(f.support())
        columns = {var: rng.getrandbits(queries) for var in support}
        batch = ColumnBatch(columns, queries)
        assignments = [
            {var: bool((columns[var] >> i) & 1) for var in support}
            for i in range(queries)
        ]
        t0 = time.perf_counter()
        looped = [f.evaluate(assignment) for assignment in assignments]
        t_loop = time.perf_counter() - t0
        t0 = time.perf_counter()
        from_mappings = f.evaluate_batch(assignments)
        t_batch = time.perf_counter() - t0
        t0 = time.perf_counter()
        from_columns = f.evaluate_batch(batch)
        t_columnar = time.perf_counter() - t0
        if from_mappings != looped or from_columns != looped:
            raise AssertionError(f"batched results diverge on output {name!r}")
        cubes = [
            {
                var: assignment[var]
                for var in rng.sample(support, rng.randrange(len(support) + 1))
            }
            for assignment in assignments
        ]
        t0 = time.perf_counter()
        cubed = f.satisfiable_batch(cubes)
        t_cube = time.perf_counter() - t0
        if cubed != [_restrict_satisfiable(f, cube) for cube in cubes]:
            raise AssertionError(f"cube sweep diverges on output {name!r}")
        totals["loop"] += t_loop
        totals["batch"] += t_batch
        totals["columnar"] += t_columnar
        totals["cube"] += t_cube
        rows.append(
            {
                "output": name,
                "nodes": f.node_count(),
                "support": len(support),
                "loop_s": t_loop,
                "batch_s": t_batch,
                "columnar_s": t_columnar,
                "cube_s": t_cube,
                "batch_speedup": t_loop / t_batch if t_batch else float("inf"),
                "columnar_speedup": (
                    t_loop / t_columnar if t_columnar else float("inf")
                ),
            }
        )
    return {
        "circuit": row.name,
        "backend": backend,
        "queries": queries,
        "rows": rows,
        "total_loop_s": totals["loop"],
        "total_batch_s": totals["batch"],
        "total_columnar_s": totals["columnar"],
        "total_cube_s": totals["cube"],
        "batch_speedup": (
            totals["loop"] / totals["batch"] if totals["batch"] else float("inf")
        ),
        "columnar_speedup": (
            totals["loop"] / totals["columnar"]
            if totals["columnar"]
            else float("inf")
        ),
    }


def _restrict_satisfiable(f, cube) -> bool:
    """Is ``f ∧ cube`` satisfiable?  One cofactor per cube literal."""
    for var, value in cube.items():
        f = f.restrict(var, value)
    return not f.is_false


def render_bulkeval(summary: Dict) -> str:
    """Render a :func:`run_bulkeval` summary as an ASCII table."""
    headers = [
        "Output", "Nodes", "Vars", "Loop(s)", "Batch(s)", "Columnar(s)",
        "Cube(s)", "Batch x", "Columnar x",
    ]
    rows = [
        [
            r["output"], r["nodes"], r["support"],
            round(r["loop_s"], 4), round(r["batch_s"], 4),
            round(r["columnar_s"], 4), round(r["cube_s"], 4),
            round(r["batch_speedup"], 1), round(r["columnar_speedup"], 1),
        ]
        for r in summary["rows"]
    ]
    table = format_table(
        headers,
        rows,
        title=(
            f"Bulk evaluation: {summary['circuit']} on {summary['backend']} "
            f"({summary['queries']} queries/output)"
        ),
    )
    footer = (
        f"\noverall speedup vs looped evaluate: "
        f"{summary['batch_speedup']:.1f}x from mappings, "
        f"{summary['columnar_speedup']:.1f}x columnar"
    )
    return table + footer


def main(argv: Optional[Sequence[str]] = None) -> None:  # pragma: no cover
    """CLI entry point."""
    import argparse

    parser = argparse.ArgumentParser(
        description="Measure looped vs batched (levelized-sweep) evaluation."
    )
    parser.add_argument("--circuit", default="C1908", help="Table I circuit name")
    parser.add_argument(
        "--backend", default="bbdd", help="backend under test (bbdd/bdd/xmem)"
    )
    parser.add_argument("--queries", type=int, default=10_000)
    parser.add_argument(
        "--outputs", type=int, default=4, help="measure the N largest outputs"
    )
    parser.add_argument(
        "--full", action="store_true", help="paper-scale circuit profile"
    )
    from repro.harness.report import add_stats_argument, emit_stats

    add_stats_argument(parser)
    args = parser.parse_args(argv)
    if args.stats is not None:
        from repro.obs import trace

        trace.enable()
    summary = run_bulkeval(
        circuit=args.circuit,
        backend=args.backend,
        queries=args.queries,
        outputs=args.outputs,
        full=args.full,
    )
    print(render_bulkeval(summary))
    emit_stats(args.stats)


if __name__ == "__main__":  # pragma: no cover
    main()
