"""Query-service demo: batched sweeps, worker pool, coalescing server.

Builds a small arithmetic forest on the backend selected by
REPRO_BACKEND (default bbdd), dumps it to a ``.bbdd`` container, and
serves it three ways:

1. direct bulk queries — ``f.evaluate_batch`` (one levelized sweep) and
   batched cube satisfiability;
2. a one-worker :class:`repro.serve.ForestPool` answering cached
   batches from the dump (the pool freezes the dump once and its worker
   sweeps the shared segment, so any backend's forest serves from core);
3. a :class:`repro.serve.BatchingServer` coalescing concurrent single
   queries into sweeps under a latency budget.

Run:  python examples/query_service.py
"""

import asyncio
import os
import random
import tempfile
import time

import repro
from repro.serve import BatchingServer, ColumnBatch, ForestPool


def build_forest(manager):
    names = manager.var_names
    half = len(names) // 2
    xs, ys = names[:half], names[half:]
    parity = manager.false()
    for name in names:
        parity ^= manager.var(name)
    equal = manager.true()
    for x, y in zip(xs, ys):
        equal &= manager.var(x).xnor(manager.var(y))
    majority_expr = " | ".join(
        f"({x} & {y})" for x, y in zip(xs, ys)
    )
    return {"parity": parity, "equal": equal, "any_pair": manager.add_expr(majority_expr)}


def main() -> None:
    backend = os.environ.get("REPRO_BACKEND", "bbdd")
    names = [f"x{i}" for i in range(12)]
    kwargs = {"node_budget": 512} if backend == "xmem" else {}
    manager = repro.open(backend, vars=names, **kwargs)
    forest = build_forest(manager)
    rng = random.Random(0x5EED)

    # 1. direct bulk queries ------------------------------------------
    f = forest["parity"]
    queries = 5000
    columns = {name: rng.getrandbits(queries) for name in names}
    batch = ColumnBatch(columns, queries)
    t0 = time.perf_counter()
    results = f.evaluate_batch(batch)
    t_batch = time.perf_counter() - t0
    print(f"backend {backend}: parity x {queries} queries in "
          f"{t_batch * 1000:.1f} ms (one levelized sweep), "
          f"{sum(results)} true")
    cubes = [{"x0": 1, "x6": 0}, {"x0": 1, "x6": 1}, {}]
    print("equal /\\ cube satisfiable:", forest["equal"].satisfiable_batch(cubes))

    # 2. the pool over a dumped container -----------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "forest.bbdd")
        manager.dump(forest, path)
        assignments = [
            {name: rng.getrandbits(1) for name in names} for _ in range(2000)
        ]
        with ForestPool(workers=1, cache_size=2048) as pool:
            print("pool serves:", ", ".join(pool.warm(path)))
            pool.evaluate_batch(path, "any_pair", assignments)
            pool.evaluate_batch(path, "any_pair", assignments[:500])  # cache hits
            stats = pool.stats()
            print(f"pool: {stats['batches_dispatched']} dispatched batches, "
                  f"{stats['cache_hits']} cache hits, "
                  f"{stats['cache_misses']} misses")

            # 3. the coalescing asyncio front end ---------------------
            async def serve_demo():
                server = BatchingServer(
                    pool, path, batch_window=0.002, max_batch=256
                )
                answers = await asyncio.gather(
                    *(server.query("equal", a) for a in assignments[:300])
                )
                stats = server.stats()
                print(f"server: {stats['queries']} single queries -> "
                      f"{stats['batches_flushed']} sweeps "
                      f"(mean batch {stats['mean_batch']:.0f}, "
                      f"p50 {stats['p50_latency_s'] * 1000:.1f} ms)")
                return answers

            answers = asyncio.run(serve_demo())
            oracle = [forest["equal"].evaluate(a) for a in assignments[:300]]
            assert list(answers) == oracle, "service answers match the oracle"
    print("ok")


if __name__ == "__main__":
    main()
