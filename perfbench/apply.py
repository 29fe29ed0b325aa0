"""Workload ``apply``: large builds and many tiny images, no sifting.

Each round builds four full-profile Table I circuits (a few large
apply operations each) and runs two BFS reachability fixpoints (about
a thousand small ``and_exists``/``let`` images with automatic GC
churn).  Both halves use ``core`` apply in
different shapes, so a change that trades one for the other shows.
The inputs are fixed circuits and models, so the seed changes nothing
here; even the job order stays fixed, because it moves peak memory.
"""

from __future__ import annotations

from repro import obs
from repro.circuits.registry import TABLE1_ROWS
from repro.network.build import build
from repro.reach import explicit_reachable, from_network, models, reachable

from perfbench.measure import Workload, core_metrics, obs_total

BUILD_ROWS = ("C1908", "seq", "C1355", "frg1")

#: Stored node counts of the built outputs (canonical for the network's
#: input order): paper-scale rows, and the fast profile used by --smoke.
EXPECTED_NODES = {"C1908": 155182, "seq": 47775, "C1355": 9315, "frg1": 11418}
EXPECTED_NODES_SMOKE = {"C1908": 1298, "seq": 2627, "C1355": 1181, "frg1": 1720}


#: Input generations per set-up sample.  One generation takes about
#: 12 ms, too short to time steadily on a shared host.
GENERATE_BATCH = 40


class ApplyWorkload(Workload):
    name = "apply"
    setup_reps = 5
    setup_between_rounds = 1
    report = ("build_s", "fixpoint_s")

    def setup(self) -> None:
        full = not self.ctx.smoke
        rows = {row.name: row for row in TABLE1_ROWS}
        with self.probe.step("network.generate"):
            for _ in range(GENERATE_BATCH):
                jobs = [
                    ("build", name, rows[name].build(full=full))
                    for name in BUILD_ROWS
                ]
                if full:
                    fsms = [models.counter(10), models.cellular_automaton(14)]
                else:
                    fsms = [models.counter(4), models.cellular_automaton(5)]
                jobs += [("fixpoint", net.name, net) for net in fsms]
        self.generated = jobs

    def prepare(self) -> None:
        # Every round runs on the inputs made before the rounds; the
        # set-ups between rounds only time the generation.
        self.jobs = self.generated
        self.expected_nodes = EXPECTED_NODES_SMOKE if self.ctx.smoke else EXPECTED_NODES
        self.oracle = {
            name: explicit_reachable(net)
            for kind, name, net in self.jobs
            if kind == "fixpoint"
        }
        self.images_seen = obs_total(obs.snapshot(), "repro_reach_images_total")

    def round(self):
        done = []
        for kind, name, network in self.jobs:
            if kind == "build":
                with self.probe.step("network.build"):
                    manager, functions = build(network, backend="bbdd")
                with self.probe.step("core.node_count"):
                    nodes = manager.node_count(list(functions.values()))
                done.append((kind, name, nodes, manager.table_stats()))
            else:
                with self.probe.step("reach.system"):
                    system = from_network(network)
                with self.probe.step("reach.fixpoint"):
                    result = reachable(system)
                done.append(
                    (kind, name, (system, result), system.manager.table_stats())
                )
        return done

    def check(self, done, unit) -> dict:
        images = obs_total(obs.snapshot(), "repro_reach_images_total")
        self.images_seen, images = images, images - self.images_seen
        iterations = frontier_peak = visited_peak = 0
        for kind, name, value, _stats in done:
            if kind == "build":
                want = self.expected_nodes[name]
                self.ledger.check(
                    value == want, f"build {name}: {value} nodes, expected {want}"
                )
                continue
            system, result = value
            want = self.oracle[name]
            codes = system.state_codes(result.states)
            self.ledger.check(
                codes == want and result.state_count == len(want),
                f"fixpoint {name}: {result.state_count} states, "
                f"explicit BFS finds {len(want)}",
            )
            iterations += result.iterations
            frontier_peak = max(frontier_peak, result.frontier_peak)
            visited_peak = max(visited_peak, result.visited_peak)
        values = core_metrics(stats for _k, _n, _v, stats in done)
        values.update(
            {
                "reach.iterations": iterations,
                "reach.images": images,
                "reach.frontier_peak": frontier_peak,
                "reach.visited_peak": visited_peak,
            }
        )
        return values
