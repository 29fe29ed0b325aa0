"""Multi-core cohort sweeps over shared-memory forests.

A :class:`ParallelPool` keeps a persistent crew of worker processes
(:class:`~repro.par.dispatch.WorkerCrew`) that attach
:class:`~repro.par.shm.ShmForest` segments **zero-copy** and run the
levelized cohort sweeps of :mod:`repro.serve.bulk` on lane ranges of a
query batch.  The batch is encoded once in the dispatcher, *staged* to
every worker (one pickle per worker, amortized over all of the batch's
sweeps), and then split into contiguous lane chunks — each worker
sweeps its chunks against the mapped arrays and ships back one raw
result bitset, so the per-task wire traffic is tiny in both directions.

``workers=0`` runs the same code path inline (no subprocesses): the
right default for tests and single-core machines, with identical
results and error behaviour.

Worker deaths are survived: the crew respawns the worker (which
re-attaches segments lazily) and the in-flight batch is retried once
under a fresh staging id, with ``batch_retries`` / ``worker_restarts``
surfaced through :mod:`repro.obs`.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.par.dispatch import CrewError, WorkerCrew, WorkerRestarted
from repro.par.shm import ParError, ShmForest

#: Staged batches a worker keeps around (overlapping pipelines).
_MAX_STAGED = 4

#: Smallest lane chunk worth shipping to a worker.
_MIN_LANES = 1024


class _WorkerState:
    """Per-worker-process attachment cache and counters."""

    def __init__(self, max_attached: int) -> None:
        self.max_attached = max_attached
        self.attached: "OrderedDict[str, ShmForest]" = OrderedDict()
        self.staged: "OrderedDict[object, object]" = OrderedDict()
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
        self.staged.clear()

    def collect_metrics(self, registry) -> None:
        """Sample attachment counters into an obs registry."""
        from repro.obs.catalog import family

        family(registry, "repro_par_shm_attaches_total").inc(self.attaches)
        family(registry, "repro_par_attached_segments").inc(len(self.attached))


def _worker_main(in_queue, reply, max_attached: int) -> None:
    """Worker-process loop: serve ``(task_id, op, payload)`` requests."""
    from repro import obs
    from repro.serve.bulk import EncodedBatch, _slice_encoded

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
                    segment, name, batch_id, start, stop, cube = payload
                    batch = state.staged.get(batch_id)
                    if batch is None:
                        raise ParError(f"stale staged batch {batch_id!r}")
                    if stop - start != batch.count:
                        batch = _slice_encoded(batch, start, stop)
                    result = state.forest(segment).sweep_encoded(
                        name, batch, cube=cube
                    )
                elif op == "stage":
                    batch_id, count, var_bits, known_bits = payload
                    state.staged[batch_id] = EncodedBatch(count, var_bits, known_bits)
                    while len(state.staged) > _MAX_STAGED:
                        state.staged.popitem(last=False)
                    result = True
                elif op == "drop":
                    state.staged.pop(payload, None)
                    result = True
                elif op == "count":
                    segment, names = payload
                    forest = state.forest(segment)
                    result = {name: forest.sat_count(name) for name in names}
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
    """A persistent worker pool sweeping shared forests in parallel.

    Parameters
    ----------
    workers:
        Worker process count; ``0`` sweeps inline in this process
        (default: ``min(4, cpu_count)``).
    max_attached:
        Per-worker LRU capacity of attached segments.
    timeout:
        Seconds to wait for a worker reply before declaring it dead.
    respawn:
        Whether dead workers are replaced (in-flight batches retry once).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        max_attached: int = 8,
        timeout: float = 120.0,
        respawn: bool = True,
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
                respawn=respawn,
                name="repro-par",
            )
        self._lock = threading.Lock()
        self._batch_seq = 0
        self.tasks_dispatched = 0
        self.batches = 0
        self.batch_retries = 0
        self._closed = False

        from repro import obs

        obs.track(self)

    # -- lifecycle -----------------------------------------------------------

    @property
    def workers(self) -> int:
        """Worker process count (0 when sweeping inline)."""
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

    def _next_batch_id(self) -> int:
        with self._lock:
            self._batch_seq += 1
            return self._batch_seq

    def _count(self, counter: str, delta: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + delta)

    def warm(self, forest: ShmForest) -> List[str]:
        """Attach ``forest`` in every worker now; returns the root names.

        Without warming, each worker attaches lazily on its first sweep
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

    def _chunk_spans(self, count: int) -> List[Tuple[int, int]]:
        """Contiguous lane ranges balancing ``count`` queries over the crew."""
        from repro.serve.bulk import DEFAULT_CHUNK

        workers = max(self.workers, 1)
        lanes = min(DEFAULT_CHUNK, max(_MIN_LANES, -(-count // workers)))
        return [
            (start, min(start + lanes, count))
            for start in range(0, count, lanes)
        ]

    def _sweep(self, forest: ShmForest, names: Sequence[str], assignments, cube: bool):
        """Encode once, sweep every name, return ``{name: [bool, ...]}``."""
        from repro.serve.bulk import _encode, sweep_chunks

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
        if encoded.count == 0:
            return {name: [] for name in names}
        if self._crew is None:
            return {
                name: sweep_chunks(
                    encoded,
                    lambda part, name=name: forest.sweep_encoded(name, part, cube=cube),
                )
                for name in names
            }
        spans = self._chunk_spans(encoded.count)

        def attempt():
            batch_id = self._next_batch_id()
            crew = self._crew
            stage_ids = crew.broadcast(
                "stage",
                (batch_id, encoded.count, encoded.var_bits, encoded.known_bits),
            )
            try:
                crew.collect_all(stage_ids)
                task_ids = [
                    crew.submit(
                        "sweep",
                        (forest.name, name, batch_id, start, stop, cube),
                    )
                    for name in names
                    for start, stop in spans
                ]
                self._count("tasks_dispatched", len(task_ids))
                raw = crew.collect_all(task_ids)
            finally:
                try:
                    crew.abandon(crew.broadcast("drop", batch_id))
                except CrewError:
                    pass
            # Spans are contiguous lane ranges in order: shift each
            # span's bitset into place and unpack the whole batch once.
            results: Dict[str, List[bool]] = {}
            position = 0
            for name in names:
                bits = 0
                for start, _stop in spans:
                    bits |= raw[position] << start
                    position += 1
                results[name] = encoded.unpack(bits)
            return results

        try:
            return attempt()
        except WorkerRestarted:
            # The dead worker took its staged batch with it; re-stage
            # under a fresh id and retry the whole batch once.
            self._count("batch_retries")
            return attempt()

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
            buckets: List[List[str]] = [[] for _ in range(crew.workers)]
            for i, name in enumerate(names):
                buckets[i % len(buckets)].append(name)
            task_ids = [
                crew.submit("count", (forest.name, bucket), worker=index)
                for index, bucket in enumerate(buckets)
                if bucket
            ]
            self._count("tasks_dispatched", len(task_ids))
            merged: Dict[str, int] = {}
            for reply in crew.collect_all(task_ids):
                merged.update(reply)
            return {name: merged[name] for name in names}

        try:
            return attempt()
        except WorkerRestarted:
            self._count("batch_retries")
            return attempt()

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
