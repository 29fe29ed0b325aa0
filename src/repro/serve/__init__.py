"""repro.serve — the concurrent batched query service.

Three layers, each usable on its own:

* :mod:`repro.serve.bulk` — vectorized batch queries: one top-down
  levelized sweep pushes bitset "cohorts" of assignments through the
  diagram, so evaluating a batch costs ``O(nodes + queries)`` instead
  of one root-to-sink walk per query.  Surfaced as
  :meth:`Function.evaluate_batch
  <repro.api.base.FunctionBase.evaluate_batch>` /
  :meth:`manager.evaluate_batch
  <repro.api.base.DDManager.evaluate_batch>` on every backend (bbdd,
  bdd, xmem — the external-memory backend streams level blocks and
  drops them behind the sweep, so huge batches respect the residency
  budget), plus batched cube satisfiability
  (:func:`~repro.serve.bulk.satisfiable_batch`).
* :mod:`repro.serve.pool` — a forest pool
  (:class:`~repro.serve.pool.ForestPool`) over one
  :class:`repro.par.ParallelPool`: each ``.bbdd`` dump is frozen once
  into a shared-memory segment the workers attach, a changed dump
  hot-reloads, and a cross-request result cache answers repeats
  without dispatching.
* :mod:`repro.serve.server` — an asyncio front end
  (:class:`~repro.serve.server.BatchingServer`) that coalesces single
  queries into batches under a latency budget, with a
  newline-delimited-JSON TCP transport behind ``python -m repro.serve``.
"""

from repro.serve.bulk import (
    ColumnBatch,
    ServeError,
    evaluate_batch,
    satisfiable_batch,
)
from repro.serve.pool import ForestPool
from repro.serve.server import BatchingServer, serve_tcp

__all__ = [
    "ColumnBatch",
    "ServeError",
    "evaluate_batch",
    "satisfiable_batch",
    "ForestPool",
    "BatchingServer",
    "serve_tcp",
]
