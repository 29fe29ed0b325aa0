"""repro.par — shared-memory forests and multi-core parallel sweeps.

The parallel-execution layer on top of the flat node store:

* :mod:`repro.par.shm` — :class:`ShmForest`: a manager's forest frozen
  into one ``multiprocessing.shared_memory`` segment, attached
  zero-copy by any number of processes, queryable (batch evaluation,
  cube satisfiability, exact sat-count) directly on the mapped arrays;
* :mod:`repro.par.dispatch` — :class:`WorkerCrew`: persistent worker
  processes with death detection, respawn and in-flight-task failure;
* :mod:`repro.par.pool` — :class:`ParallelPool`: a batch encoded once
  and split into lane spans, one message per span, results reassembled
  in order; weighted queries run as one task each.

The one-call surface (used by
``f.evaluate_batch(assignments, workers=N)``):

>>> import repro
>>> manager = repro.open("bbdd", vars=["a", "b", "c"])
>>> f = manager.add_expr("a & b | c")
>>> queries = [{"a": 1, "b": 1, "c": 0}, {"a": 0, "b": 0, "c": 0}]
>>> parallel_evaluate_batch(f, queries, workers=2)
[True, False]

Where ``multiprocessing.shared_memory`` is missing, the one-call
helpers take the sequential in-process path automatically — same
results, no shared memory.
"""

from __future__ import annotations

import atexit
import threading
from typing import Dict, List, Mapping, Optional

from repro.par.dispatch import CrewError, WorkerCrew, WorkerRestarted
from repro.par.pool import ParallelPool
from repro.par.shm import (
    SEGMENT_PREFIX,
    ParError,
    ShmForest,
    active_segments,
    shm_available,
)

__all__ = [
    "SEGMENT_PREFIX",
    "CrewError",
    "ParError",
    "ParallelPool",
    "ShmForest",
    "WorkerCrew",
    "WorkerRestarted",
    "active_segments",
    "default_pool",
    "freeze",
    "parallel_evaluate_batch",
    "parallel_sat_count",
    "parallel_satisfiable_batch",
    "shm_available",
    "shutdown_default_pool",
    "try_freeze",
]

_POOL_LOCK = threading.Lock()
_DEFAULT_POOL: Optional[ParallelPool] = None


def freeze(manager, functions, **kwargs) -> ShmForest:
    """Freeze ``functions`` of ``manager`` into a shared segment.

    Shorthand for :meth:`ShmForest.freeze`; the caller owns the result
    and must eventually :meth:`~ShmForest.unlink` it (the ``with``
    statement does both).
    """
    return ShmForest.freeze(manager, functions, **kwargs)


def try_freeze(manager, functions, **kwargs) -> Optional[ShmForest]:
    """:func:`freeze`, or ``None`` where shared memory is missing.

    A platform without ``multiprocessing.shared_memory`` is the
    callers' signal to take the sequential in-process path.
    """
    if not shm_available():
        return None
    return ShmForest.freeze(manager, functions, **kwargs)


def default_pool(workers: Optional[int] = None) -> ParallelPool:
    """The process-wide :class:`ParallelPool`, created (or grown) on demand.

    A ``workers`` request larger than the current pool replaces it with
    a bigger one; the pool is shut down automatically at interpreter
    exit (or explicitly via :func:`shutdown_default_pool`).
    """
    global _DEFAULT_POOL
    with _POOL_LOCK:
        pool = _DEFAULT_POOL
        if pool is not None and not pool._closed and (
            workers is None or pool.workers >= max(workers, 1)
        ):
            return pool
        if pool is not None:
            pool.close()
        _DEFAULT_POOL = ParallelPool(workers=workers)
        return _DEFAULT_POOL


def shutdown_default_pool() -> None:
    """Close the process-wide pool (idempotent; re-created on next use)."""
    global _DEFAULT_POOL
    with _POOL_LOCK:
        if _DEFAULT_POOL is not None:
            _DEFAULT_POOL.close()
            _DEFAULT_POOL = None


atexit.register(shutdown_default_pool)


def _with_frozen(f, run_parallel, run_sequential, workers: Optional[int]):
    """Freeze ``f``, run the parallel path, always clean the segment up."""
    forest = try_freeze(f.manager, {"f": f})
    if forest is None:
        return run_sequential()
    pool = default_pool(workers)
    try:
        return run_parallel(pool, forest)
    finally:
        pool.detach(forest)
        try:
            forest.unlink()
        except ParError:
            pass
        forest.close()


def parallel_evaluate_batch(f, assignments, workers: Optional[int] = None) -> List[bool]:
    """Evaluate ``f`` at every assignment across the worker pool.

    One-shot convenience: freezes the function's forest, sweeps the
    batch across :func:`default_pool`, unlinks the segment.  Callers
    issuing many batches against the same forest should
    :func:`freeze` once and keep a :class:`ParallelPool` instead.
    Without shared memory this is the sequential
    :meth:`~repro.api.base.FunctionBase.evaluate_batch`.
    """
    return _with_frozen(
        f,
        lambda pool, forest: pool.evaluate_batch(forest, "f", assignments),
        lambda: f.evaluate_batch(assignments),
        workers,
    )


def parallel_satisfiable_batch(f, assignments, workers: Optional[int] = None) -> List[bool]:
    """Cube satisfiability of ``f`` for every partial assignment.

    The parallel counterpart of
    :meth:`~repro.api.base.FunctionBase.satisfiable_batch`, with the
    same freeze / fallback behaviour as :func:`parallel_evaluate_batch`.
    """
    return _with_frozen(
        f,
        lambda pool, forest: pool.satisfiable_batch(forest, "f", assignments),
        lambda: f.satisfiable_batch(assignments),
        workers,
    )


def parallel_sat_count(
    functions: Mapping, workers: Optional[int] = None
) -> Dict[str, int]:
    """Satisfying-assignment counts of a named forest, in parallel.

    ``functions`` is a ``{name: function}`` mapping over one manager;
    the forest is frozen once and the names counted concurrently across
    the pool.  Without shared memory this is the per-function
    :meth:`~repro.api.base.FunctionBase.sat_count`.
    """
    if not functions:
        return {}
    manager = next(iter(functions.values())).manager
    forest = try_freeze(manager, functions)
    if forest is None:
        return {name: f.sat_count() for name, f in functions.items()}
    pool = default_pool(workers)
    try:
        return pool.sat_count(forest, list(functions))
    finally:
        pool.detach(forest)
        try:
            forest.unlink()
        except ParError:
            pass
        forest.close()
