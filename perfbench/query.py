"""Workload ``query``: the read-only path over a stored forest.

Set-up builds the C1908 coder with 14 data bits and dumps it.  Each
round loads the dump, freezes it to shared memory, and queries the
largest output (the error flag: 35,081 nodes, 29 variables): a
columnar and a mapping ``evaluate_batch``, a ``satisfiable_batch`` of
cubes, an exact ``p_one`` and float ``marginals``.  Nothing is applied,
so ``core`` apply is idle here.

The full-profile coder (16 data bits, a 152,585-node error flag) makes
a round of about 14 s, exact ``p_one`` alone 6.5 s; a run could then
hold only one round.  At 14 data bits a round takes 2.5-4 s, with the
same mix of work.
"""

from __future__ import annotations

import multiprocessing

from repro import io, obs
from repro.circuits import iscas
from repro.network.build import build
from repro.par import ShmForest
from repro.serve.bulk import ColumnBatch

from perfbench.measure import Workload, core_metrics, obs_total

#: Data bits of the coder: the workload's size, and the fast profile's
#: for --smoke.
DATA_WIDTH = 14
DATA_WIDTH_SMOKE = 8

#: Stored nodes of the whole built forest (canonical for its input order).
EXPECTED_FOREST_NODES = 37201
EXPECTED_FOREST_NODES_SMOKE = 1298

COLUMNAR_QUERIES = 1 << 14
MAPPING_QUERIES = 4096
CUBES = 1024
CUBE_LITERALS = 8
MARGINAL_VARS = 4
LOOPED_SAMPLE = 64
SMOKE_SIZES = (1 << 8, 64, 16, 2, 8)


class QueryWorkload(Workload):
    name = "query"
    setup_reps = 5
    report = (
        "load_s",
        "freeze_s",
        "eval_qps",
        "eval_mapping_qps",
        "cube_qps",
        "p_one_s",
        "marginals_s",
    )

    def setup(self) -> None:
        width = DATA_WIDTH_SMOKE if self.ctx.smoke else DATA_WIDTH
        with self.probe.step("network.generate"):
            network = iscas.c1908(data_width=width)
        with self.probe.step("network.build"):
            manager, functions = build(network, backend="bbdd")
        with self.probe.step("io.dumps"):
            self.dump = io.dumps(manager, functions)
        self.built_nodes = manager.node_count(list(functions.values()))

    def prepare(self) -> None:
        want = EXPECTED_FOREST_NODES_SMOKE if self.ctx.smoke else EXPECTED_FOREST_NODES
        self.ledger.check(
            self.built_nodes == want,
            f"build C1908: {self.built_nodes} nodes, expected {want}",
        )
        if self.ctx.smoke:
            columnar, mapping, cubes, marginal_vars, looped = SMOKE_SIZES
        else:
            columnar, mapping, cubes, marginal_vars, looped = (
                COLUMNAR_QUERIES,
                MAPPING_QUERIES,
                CUBES,
                MARGINAL_VARS,
                LOOPED_SAMPLE,
            )
        # The structure decides the queried output, the seed the inputs.
        manager, functions = io.loads(self.dump)
        self.fname = max(sorted(functions), key=lambda n: functions[n].node_count())
        support = sorted(functions[self.fname].support())
        rng = self.rng
        columns = {var: rng.getrandbits(columnar) for var in support}
        self.columnar = ColumnBatch(columns, columnar)
        # Mapping query i is lane i of the columnar batch.
        self.mapping = [
            {var: bool(columns[var] >> i & 1) for var in support}
            for i in range(mapping)
        ]
        # Cube i fixes CUBE_LITERALS variables as mapping query i does.
        self.cubes = [
            {var: self.mapping[i][var] for var in rng.sample(support, CUBE_LITERALS)}
            for i in range(cubes)
        ]
        # Odd sixteenths: every weight has the same denominator, so the
        # exact sweep does the same amount of work for every seed.
        self.weights = {var: rng.randrange(1, 16, 2) / 16 for var in support}
        self.marginal_vars = sorted(rng.sample(support, marginal_vars))
        self.looped = rng.sample(range(mapping), looped)
        f = functions[self.fname]
        oracle = self._in_child(self._restrict_oracle, f)
        frozen = ShmForest.freeze(manager, functions)
        try:
            self.reference = self._reference(f, frozen, oracle)
        finally:
            frozen.close()
            frozen.unlink()
        self.sweeps_seen = obs_total(obs.snapshot(), "repro_wmc_sweeps_total")

    def round(self):
        with self.probe.step("io.loads"):
            manager, functions = io.loads(self.dump)
        with self.probe.step("par.freeze"):
            frozen = ShmForest.freeze(manager, functions)
        try:
            f = functions[self.fname]
            with self.probe.step("bulk.eval_col"):
                columnar = f.evaluate_batch(self.columnar)
            with self.probe.step("bulk.eval_map"):
                mapping = f.evaluate_batch(self.mapping)
            with self.probe.step("bulk.cube"):
                cubes = f.satisfiable_batch(self.cubes)
            with self.probe.step("wmc.p_one"):
                p_one = f.p_one(self.weights)
            with self.probe.step("wmc.marginals"):
                marginals = f.marginals(self.weights, self.marginal_vars, exact=False)
            frozen_names, segment_bytes = frozen.functions, frozen.nbytes
        finally:
            frozen.close()
            frozen.unlink()
        return (
            (manager, functions, frozen_names, segment_bytes),
            (columnar, mapping, cubes, p_one, marginals),
        )

    def _reference(self, f, frozen, oracle) -> dict:
        """Answers of independent paths, computed once before the rounds."""
        p_float, restricted = oracle
        return {
            "shm_mapping": frozen.evaluate_batch(self.fname, self.mapping),
            "shm_cubes": frozen.satisfiable_batch(self.fname, self.cubes),
            "looped": {i: f.evaluate(self.mapping[i]) for i in self.looped},
            "p_float": p_float,
            # The restrict oracle: p(v | f) = p_v * p(f | v = 1) / p(f).
            "marginals": {
                var: self.weights[var] * restricted[var] / p_float
                for var in self.marginal_vars
            },
        }

    def _restrict_oracle(self, f):
        return f.p_one(self.weights, exact=False), {
            var: f.restrict(var, True).p_one(self.weights, exact=False)
            for var in self.marginal_vars
        }

    @staticmethod
    def _in_child(function, *args):
        """Run ``function`` in a forked child and return its result.

        The cofactors the oracle builds are large; building them in a
        child keeps them out of this process's peak memory.  Forking is
        safe here: the query workload starts no threads.
        """
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)

        def target():
            sender.send(function(*args))

        child = context.Process(target=target)
        child.start()
        sender.close()
        try:
            return receiver.recv()
        finally:
            child.join()
            receiver.close()

    def check(self, outcome, unit) -> dict:
        (manager, functions, frozen_names, segment_bytes), answers = outcome
        columnar, mapping, cubes, p_one, marginals = answers
        ref = self.reference
        check = self.ledger.check
        nodes = manager.node_count(list(functions.values()))
        check(
            nodes == self.built_nodes,
            f"loads: {nodes} nodes, the dumped forest has {self.built_nodes}",
        )
        check(
            sorted(frozen_names) == sorted(functions),
            f"freeze: {len(frozen_names)} of {len(functions)} functions",
        )
        check(
            len(columnar) == self.columnar.count
            and columnar[: len(mapping)] == mapping,
            "columnar and mapping evaluate_batch disagree",
        )
        check(mapping == ref["shm_mapping"], "evaluate_batch disagrees with ShmForest")
        check(
            all(mapping[i] == value for i, value in ref["looped"].items()),
            "evaluate_batch disagrees with looped evaluate",
        )
        # A cube taken from a satisfying assignment is satisfiable.
        check(
            cubes == ref["shm_cubes"]
            and all(cubes[i] for i in range(len(cubes)) if mapping[i]),
            "satisfiable_batch disagrees with ShmForest or a witness",
        )
        check(
            abs(float(p_one) - ref["p_float"]) <= 1e-9,
            f"exact p_one {float(p_one)!r} vs float {ref['p_float']!r}",
        )
        check(
            set(marginals) == set(self.marginal_vars)
            and all(
                abs(marginals[var] - ref["marginals"][var]) <= 1e-9
                for var in self.marginal_vars
            ),
            "marginals disagree with the restrict oracle",
        )
        sweeps = obs_total(obs.snapshot(), "repro_wmc_sweeps_total")
        self.sweeps_seen, sweeps = sweeps, sweeps - self.sweeps_seen
        seconds = unit.step_seconds
        values = core_metrics([manager.table_stats()])
        values.update(
            {
                "par.segment_bytes": segment_bytes,
                "wmc.sweeps": sweeps,
                "eval_qps": self.columnar.count / seconds("bulk.eval_col"),
                "eval_mapping_qps": len(self.mapping) / seconds("bulk.eval_map"),
                "cube_qps": len(self.cubes) / seconds("bulk.cube"),
            }
        )
        return values

    def extras(self) -> dict:
        return {"io.bytes_per_node": len(self.dump) / self.built_nodes}
