"""Multi-core queries over shared-memory forests.

A :class:`ParallelPool` keeps a persistent crew of worker processes
(:class:`~repro.par.dispatch.WorkerCrew`) that attach
:class:`~repro.par.shm.ShmForest` segments **zero-copy** and answer
queries straight off the mapped arrays.  A batch is encoded once in
the dispatcher into bit columns and split into contiguous lane spans;
each span travels to a worker in **one message** carrying its own
slice of the columns and every requested function name, and comes back
as one raw result bitset per name.  Weighted queries
(:meth:`~ParallelPool.p_one`, :meth:`~ParallelPool.marginals`) run as
one task each, model counts as one task per worker.

``workers=0`` runs the same code path inline (no subprocesses and no
lock — the segment is read-only): the right default for tests and
single-core machines, with identical results and error behaviour.

Worker deaths are survived: the crew respawns the worker (which
re-attaches segments lazily) and the in-flight call is retried once,
with ``batch_retries`` / ``worker_restarts`` surfaced through
:mod:`repro.obs`.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.par.dispatch import CrewError, WorkerCrew, WorkerRestarted
from repro.par.shm import ParError, ShmForest

#: Smallest lane span worth shipping to a worker.
_MIN_LANES = 1024


class _WorkerState:
    """Per-worker-process attachment LRU and counters."""

    def __init__(self, max_attached: int) -> None:
        self.max_attached = max_attached
        self.attached: "OrderedDict[str, ShmForest]" = OrderedDict()
        self.attaches = 0

        from repro import obs

        obs.track(self)

    def forest(self, segment: str) -> ShmForest:
        """The attached forest for ``segment`` (attaching on first use)."""
        forest = self.attached.get(segment)
        if forest is None:
            forest = ShmForest.attach(segment)
            self.attached[segment] = forest
            self.attaches += 1
            while len(self.attached) > self.max_attached:
                _, evicted = self.attached.popitem(last=False)
                evicted.close()
        else:
            self.attached.move_to_end(segment)
        return forest

    def detach(self, segment: str) -> None:
        """Drop (and close) one attachment, if present."""
        forest = self.attached.pop(segment, None)
        if forest is not None:
            forest.close()

    def close(self) -> None:
        """Close every attachment (worker exit)."""
        for forest in self.attached.values():
            forest.close()
        self.attached.clear()

    def collect_metrics(self, registry) -> None:
        """Sample attachment counters into an obs registry."""
        from repro.obs.catalog import family

        family(registry, "repro_par_shm_attaches_total").inc(self.attaches)
        family(registry, "repro_par_attached_segments").inc(len(self.attached))


def _worker_main(in_queue, reply, max_attached: int) -> None:
    """Worker-process loop: serve ``(task_id, op, payload)`` requests."""
    from repro import obs
    from repro.serve.bulk import EncodedBatch

    # A forked worker inherits the parent's registry values and tracked
    # objects; drop them so this worker's "metrics" snapshots cover
    # only its own work (the dispatcher merges them with its own).
    obs.reset()
    state = _WorkerState(max_attached)
    try:
        while True:
            message = in_queue.get()
            if message is None:
                return
            task_id, op, payload = message
            try:
                if op == "sweep":
                    segment, names, count, var_bits, known_bits, cube = payload
                    forest = state.forest(segment)
                    batch = EncodedBatch(count, var_bits, known_bits)
                    result = [
                        forest.sweep_encoded(name, batch, cube=cube) for name in names
                    ]
                elif op == "count":
                    segment, names = payload
                    forest = state.forest(segment)
                    result = {name: forest.sat_count(name) for name in names}
                elif op in ("p_one", "marginals"):
                    segment, name, args, exact = payload
                    query = getattr(state.forest(segment), op)
                    result = query(name, *args, exact=exact)
                elif op == "attach":
                    result = state.forest(payload).functions
                elif op == "detach":
                    state.detach(payload)
                    result = True
                elif op == "metrics":
                    result = obs.snapshot()
                else:  # pragma: no cover - protocol misuse
                    raise ParError(f"unknown worker op {op!r}")
                reply.send((task_id, True, result))
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                reply.send((task_id, False, f"{type(exc).__name__}: {exc}"))
    finally:
        state.close()


class ParallelPool:
    """A persistent worker pool querying shared forests in parallel.

    Parameters
    ----------
    workers:
        Worker process count; ``0`` queries inline in this process
        (default: ``min(4, cpu_count)``).
    max_attached:
        Per-worker LRU capacity of attached segments.
    timeout:
        Seconds to wait for a worker reply before declaring it dead.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        max_attached: int = 8,
        timeout: float = 120.0,
    ) -> None:
        """Spawn the crew (or configure the inline path for ``workers=0``)."""
        if workers is None:
            workers = min(4, os.cpu_count() or 1)
        if workers < 0:
            raise ParError("workers must be >= 0")
        self._crew: Optional[WorkerCrew] = None
        if workers > 0:
            self._crew = WorkerCrew(
                workers,
                _worker_main,
                args=(max_attached,),
                timeout=timeout,
                name="repro-par",
            )
        self._lock = threading.Lock()
        self.tasks_dispatched = 0
        self.batches = 0
        self.batch_retries = 0
        self._closed = False

        from repro import obs

        obs.track(self)

    # -- lifecycle -----------------------------------------------------------

    @property
    def workers(self) -> int:
        """Worker process count (0 when querying inline)."""
        return self._crew.workers if self._crew is not None else 0

    def close(self) -> None:
        """Stop the workers (idempotent); attached segments close with them."""
        self._closed = True
        if self._crew is not None:
            self._crew.close()

    def __enter__(self) -> "ParallelPool":
        """Context-manager entry: the pool itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Close the pool on scope exit."""
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- plumbing ------------------------------------------------------------

    def _count(self, counter: str, delta: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + delta)

    def _retry_once(self, attempt):
        """Run ``attempt()``; after a worker death, once more.

        Every task is a pure read of an immutable segment, so the whole
        call is safe to re-submit to the respawned crew.
        """
        try:
            return attempt()
        except WorkerRestarted:
            self._count("batch_retries")
            return attempt()

    def warm(self, forest: ShmForest) -> List[str]:
        """Attach ``forest`` in every worker now; returns the root names.

        Without warming, each worker attaches lazily on its first task
        (correct, just off the first batch's latency path).
        """
        if self._crew is None:
            return forest.functions
        task_ids = self._crew.broadcast("attach", forest.name)
        return self._crew.collect_all(task_ids)[-1]

    def detach(self, forest: ShmForest) -> None:
        """Drop ``forest``'s attachment in every worker (best effort).

        Call before unlinking a segment so worker mappings do not keep
        its pages alive longer than needed.
        """
        if self._crew is None:
            return
        try:
            task_ids = self._crew.broadcast("detach", forest.name)
            self._crew.abandon(task_ids)
        except CrewError:
            pass

    # -- sweeps --------------------------------------------------------------

    def lane_spans(self, count: int) -> List[Tuple[int, int]]:
        """The contiguous lane ranges a batch of ``count`` queries splits into.

        One range per worker message, balanced over the crew, at least
        ``_MIN_LANES`` and at most :data:`~repro.serve.bulk.DEFAULT_CHUNK`
        lanes wide (inline pools sweep one range at a time).
        """
        from repro.serve.bulk import DEFAULT_CHUNK

        workers = max(self.workers, 1)
        lanes = min(DEFAULT_CHUNK, max(_MIN_LANES, -(-count // workers)))
        return [
            (start, min(start + lanes, count))
            for start in range(0, count, lanes)
        ]

    def _sweep(self, forest: ShmForest, names: Sequence[str], assignments, cube: bool):
        """Encode once, sweep every name, return ``{name: [bool, ...]}``."""
        from repro.serve.bulk import _encode, _slice_encoded

        names = list(names)
        support = None
        if not cube:
            support = frozenset().union(
                *(forest.support(name) for name in names)
            )
        else:
            for name in names:
                forest._root(name)
        encoded = _encode(forest, assignments, support, with_known=cube)
        self._count("batches")
        spans = self.lane_spans(encoded.count)
        parts = [
            encoded if len(spans) == 1 else _slice_encoded(encoded, start, stop)
            for start, stop in spans
        ]
        if self._crew is None:
            rows = [
                [forest.sweep_encoded(name, part, cube=cube) for name in names]
                for part in parts
            ]
        else:

            def attempt():
                crew = self._crew
                task_ids = [
                    crew.submit(
                        "sweep",
                        (forest.name, names, part.count, part.var_bits,
                         part.known_bits, cube),
                    )
                    for part in parts
                ]
                self._count("tasks_dispatched", len(task_ids))
                return crew.collect_all(task_ids)

            rows = self._retry_once(attempt)
        # Spans are contiguous lane ranges in order: shift each span's
        # bitset into place and unpack the whole batch once per name.
        results: Dict[str, List[bool]] = {}
        for column, name in enumerate(names):
            bits = 0
            for (start, _stop), row in zip(spans, rows):
                bits |= row[column] << start
            results[name] = encoded.unpack(bits)
        return results

    def evaluate_batch(self, forest: ShmForest, name: str, assignments) -> List[bool]:
        """Evaluate one named function at every assignment, in order.

        Same input forms and error contract as
        :meth:`~repro.api.base.FunctionBase.evaluate_batch`.
        """
        return self._sweep(forest, [name], assignments, cube=False)[name]

    def evaluate_many(
        self, forest: ShmForest, names: Iterable[str], assignments
    ) -> Dict[str, List[bool]]:
        """Evaluate several functions against one shared batch encoding.

        Assignments must cover the *union* of the named functions'
        supports (the batch is encoded once for all of them).
        """
        return self._sweep(forest, list(names), assignments, cube=False)

    def satisfiable_batch(self, forest: ShmForest, name: str, assignments) -> List[bool]:
        """For each partial assignment: is ``name ∧ cube`` satisfiable?"""
        return self._sweep(forest, [name], assignments, cube=True)[name]

    # -- counting ------------------------------------------------------------

    def sat_count(
        self, forest: ShmForest, names: Optional[Iterable[str]] = None
    ) -> Dict[str, int]:
        """Satisfying-assignment counts, one bottom-up pass per worker.

        ``names`` defaults to every stored root; the names are bucketed
        round-robin across the crew so distinct functions count
        concurrently (the per-slot memo pass is shared within a worker).
        """
        names = list(names) if names is not None else forest.functions
        for name in names:
            forest._root(name)
        if not names:
            return {}
        if self._crew is None:
            return {name: forest.sat_count(name) for name in names}

        def attempt():
            crew = self._crew
            task_ids = [
                crew.submit(
                    "count", (forest.name, names[index::crew.workers]), worker=index
                )
                for index in range(min(crew.workers, len(names)))
            ]
            self._count("tasks_dispatched", len(task_ids))
            merged: Dict[str, int] = {}
            for reply in crew.collect_all(task_ids):
                merged.update(reply)
            return {name: merged[name] for name in names}

        return self._retry_once(attempt)

    def _weighted(self, op: str, forest: ShmForest, name: str, args: tuple, exact: bool):
        """One weighted-counting query as one task (inline for ``workers=0``)."""
        forest._root(name)
        if self._crew is None:
            return getattr(forest, op)(name, *args, exact=exact)

        def attempt():
            task_id = self._crew.submit(op, (forest.name, name, args, exact))
            self._count("tasks_dispatched")
            return self._crew.collect(task_id)

        return self._retry_once(attempt)

    def p_one(self, forest: ShmForest, name: str, weights=None, *, exact: bool = True):
        """``p(name = 1)`` under independent per-variable probabilities.

        Same arguments and result as :meth:`ShmForest.p_one
        <repro.par.shm.ShmForest.p_one>`, computed by one worker.
        """
        return self._weighted("p_one", forest, name, (weights,), exact)

    def marginals(
        self,
        forest: ShmForest,
        name: str,
        weights=None,
        variables=None,
        *,
        exact: bool = True,
    ):
        """Posterior marginals ``p(v = 1 | name = 1)``, computed by one worker.

        Same arguments and result as :meth:`ShmForest.marginals
        <repro.par.shm.ShmForest.marginals>`.
        """
        return self._weighted("marginals", forest, name, (weights, variables), exact)

    # -- observability -------------------------------------------------------

    @property
    def worker_restarts(self) -> int:
        """Workers respawned after dying mid-task (0 inline)."""
        return self._crew.worker_restarts if self._crew is not None else 0

    def metric_snapshots(self) -> List[dict]:
        """Metrics snapshots of every worker process (empty inline)."""
        if self._crew is None or self._closed:
            return []
        try:
            task_ids = self._crew.broadcast("metrics")
            return self._crew.collect_all(task_ids)
        except CrewError:
            return []

    def worker_attaches(self) -> int:
        """Segment attachments made across the workers (0 inline).

        Read from the workers' metrics snapshots (best effort: a dead
        or closed crew reports 0 rather than failing).
        """
        return int(
            sum(
                sample["value"]
                for snapshot in self.metric_snapshots()
                for sample in snapshot["repro_par_shm_attaches_total"]["samples"]
            )
        )

    def collect_metrics(self, registry) -> None:
        """Sample dispatcher counters into an obs registry."""
        from repro.obs.catalog import family

        family(registry, "repro_par_tasks_total").inc(self.tasks_dispatched)
        family(registry, "repro_par_batches_total").inc(self.batches)
        family(registry, "repro_par_batch_retries_total").inc(self.batch_retries)
        family(registry, "repro_par_worker_restarts_total").inc(
            self.worker_restarts
        )

    def stats(self) -> dict:
        """Dispatcher counters (dispatch volume, retries, restarts)."""
        return {
            "workers": self.workers,
            "tasks_dispatched": self.tasks_dispatched,
            "batches": self.batches,
            "batch_retries": self.batch_retries,
            "worker_restarts": self.worker_restarts,
        }
