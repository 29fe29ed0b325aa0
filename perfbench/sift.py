"""Workload ``sift``: the paper's Table I protocol on the fast profile.

Each round builds every Table I row on a fresh ``bbdd`` manager and
sifts it, in the paper's row order.  Sifting is most of the time, so
this workload exercises ``core.reorder`` and barely touches
large-table apply.  The inputs are the fixed paper suite, so the seed
changes nothing here.
"""

from __future__ import annotations

from repro.circuits.registry import TABLE1_ROWS
from repro.network.build import build

from perfbench.measure import Workload, core_metrics

#: Sifted node count of every row (fast profile).  BBDDs are canonical,
#: so for a fixed network, initial order and sifting schedule any other
#: count is a wrong result; the mean is 568.41.
EXPECTED_NODES = {
    "C1355": 826,
    "C1908": 611,
    "C499": 840,
    "seq": 2024,
    "my_adder": 304,
    "frg1": 741,
    "misex3": 3409,
    "misex1": 62,
    "comp": 79,
    "count": 127,
    "cordic": 67,
    "alu4": 472,
    "C17": 10,
    "9symml": 18,
    "z4ml": 34,
    "decod": 31,
    "parity": 8,
}

#: The toy-size rows of ``--smoke``.
SMOKE_ROWS = ("C17", "z4ml", "decod", "parity", "misex1", "9symml")

#: Netlist generations per set-up sample.  One generation takes about
#: 7 ms, too short to time steadily on a shared host.
GENERATE_BATCH = 40


class SiftWorkload(Workload):
    name = "sift"
    setup_reps = 5
    setup_between_rounds = 1
    report = ("build_s", "sift_s", "avg_nodes")

    def setup(self) -> None:
        rows = [
            row
            for row in TABLE1_ROWS
            if not self.ctx.smoke or row.name in SMOKE_ROWS
        ]
        with self.probe.step("network.generate"):
            for _ in range(GENERATE_BATCH):
                self.generated = [(row.name, row.build(full=False)) for row in rows]

    def prepare(self) -> None:
        # Every round runs on the netlists made before the rounds; the
        # set-ups between rounds only time the generation.
        self.networks = self.generated

    def round(self):
        rows = []
        for name, network in self.networks:
            with self.probe.step("network.build"):
                manager, functions = build(network, backend="bbdd")
            with self.probe.step("reorder.sift"):
                sifted = manager.sift()
            with self.probe.step("core.node_count"):
                nodes = manager.node_count(list(functions.values()))
            rows.append((name, nodes, sifted, manager.table_stats()))
        return rows

    def check(self, rows, unit) -> dict:
        for name, nodes, _sifted, _stats in rows:
            want = EXPECTED_NODES[name]
            self.ledger.check(
                nodes == want, f"sift {name}: {nodes} nodes, expected {want}"
            )
        swaps = sum(sifted.swaps for _n, _c, sifted, _s in rows)
        values = core_metrics(stats for _n, _c, _r, stats in rows)
        values.update(
            {
                "avg_nodes": sum(nodes for _n, nodes, _r, _s in rows) / len(rows),
                "reorder.swaps": swaps,
                "reorder.swaps_per_s": swaps / unit.step_seconds("reorder.sift"),
                "reorder.rounds": sum(sifted.rounds for _n, _c, sifted, _s in rows),
                "reorder.nodes_before": sum(
                    sifted.initial_size for _n, _c, sifted, _s in rows
                ),
                "reorder.nodes_after": sum(
                    sifted.final_size for _n, _c, sifted, _s in rows
                ),
            }
        )
        return values
