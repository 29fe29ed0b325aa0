"""Parallel evaluation demo: shared-memory forests, multi-core sweeps.

Builds a forest on the backend selected by REPRO_BACKEND (default
bbdd), freezes it into one ``multiprocessing.shared_memory`` segment,
and answers the same batch three ways:

1. the plain serial sweep — ``f.evaluate_batch(batch)``;
2. the one-call parallel surface — ``f.evaluate_batch(batch,
   workers=2)`` (freeze + fan-out + reassembly behind one keyword,
   sequential fallback where shared memory is unavailable);
3. an explicit :class:`repro.par.ShmForest` +
   :class:`repro.par.ParallelPool`, the shape a long-lived service
   uses: freeze once, ``warm`` the workers, sweep many batches.

Run:  python examples/parallel_eval.py
"""

import os
import random
import time

import repro
from repro.par import ParallelPool, shm_available, try_freeze


def build_forest(manager):
    names = manager.var_names
    half = len(names) // 2
    parity = manager.add_expr(" ^ ".join(names))
    pairs = " | ".join(
        f"({x} & {y})" for x, y in zip(names[:half], names[half:])
    )
    return {"parity": parity, "any_pair": manager.add_expr(pairs)}


def main() -> None:
    backend = os.environ.get("REPRO_BACKEND", "bbdd")
    names = [f"x{i}" for i in range(14)]
    kwargs = {"node_budget": 512} if backend == "xmem" else {}
    manager = repro.open(backend, vars=names, **kwargs)
    forest_fns = build_forest(manager)
    f = forest_fns["parity"]

    rng = random.Random(0xC0DE)
    batch = [
        {name: rng.getrandbits(1) for name in names} for _ in range(20_000)
    ]

    t0 = time.perf_counter()
    serial = f.evaluate_batch(batch)
    print(f"serial sweep:     {len(batch)} queries in "
          f"{time.perf_counter() - t0:.3f}s")

    probe = try_freeze(manager, [f]) if shm_available() else None
    fallback = probe is None
    if probe is not None:
        probe.unlink()
        probe.close()
    t0 = time.perf_counter()
    parallel = f.evaluate_batch(batch, workers=2)
    print(f"workers=2 kwarg:  {len(batch)} queries in "
          f"{time.perf_counter() - t0:.3f}s (sequential fallback: {fallback})")
    assert parallel == serial

    frozen = try_freeze(manager, forest_fns)
    if frozen is None:
        print("multiprocessing.shared_memory is unavailable here; done.")
        return
    try:
        print(f"frozen segment:   {frozen.name} ({frozen.nbytes} bytes, "
              f"{frozen.node_count} nodes, kind {frozen.kind!r})")
        with ParallelPool(workers=2) as pool:
            pool.warm(frozen)
            t0 = time.perf_counter()
            results = pool.evaluate_many(frozen, sorted(forest_fns), batch)
            dt = time.perf_counter() - t0
            counts = pool.sat_count(frozen, sorted(forest_fns))
            stats = pool.stats()
        for name in sorted(forest_fns):
            assert results[name] == forest_fns[name].evaluate_batch(batch)
        print(f"pool sweep:       {len(forest_fns)} functions x "
              f"{len(batch)} queries in {dt:.3f}s")
        print(f"model counts:     {counts}")
        print(f"pool stats:       {stats['batches']} batches, "
              f"{stats['tasks_dispatched']} tasks, "
              f"{stats['worker_restarts']} restarts")
    finally:
        frozen.unlink()
        frozen.close()


if __name__ == "__main__":
    main()
