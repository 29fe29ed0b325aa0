"""A persistent worker-process crew with death detection and respawn.

The dispatch layer under :class:`repro.par.pool.ParallelPool` (and,
through it, :class:`repro.serve.pool.ForestPool`): N daemon processes,
one request queue per worker (so work can be *targeted* — a forest
attached by worker 3 is queried on worker 3) and one reply **pipe**
per worker, multiplexed with :func:`multiprocessing.connection.wait`
by whichever caller thread is currently draining.

The failure mode this exists for: a worker that dies mid-task (OOM
killer, segfault, ``kill -9``) used to leave its callers blocked on the
reply channel forever.  Every empty poll interval checks worker
liveness; a dead worker fails all of its in-flight tasks with
:class:`WorkerRestarted` (so callers can re-submit idempotent work), is
respawned, and the restart is counted for the ``worker_restarts``
observability surface.  Replies deliberately do **not** share a queue:
a ``multiprocessing.Queue`` shared by several writers serializes sends
through one cross-process lock, and a worker killed while holding it
would silence every *other* worker too.  With one single-writer pipe
per worker, a kill can only sever that worker's own channel (the parent
sees EOF and reaps it), never its siblings'.
"""

from __future__ import annotations

import itertools
import multiprocessing
import multiprocessing.connection
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.exceptions import BBDDError


class CrewError(BBDDError):
    """A worker-crew failure (timeout, worker exception, closed crew)."""


class WorkerRestarted(CrewError):
    """A worker died mid-task and was respawned; re-submit the work."""


class TaskFailed(CrewError):
    """A task raised inside a live worker; the message carries its error."""


#: Poll interval while waiting for replies (also the liveness cadence).
_POLL = 0.5

#: Sentinel payload parked for tasks lost to a worker death.
_RESTART = "__worker_restarted__"


class WorkerCrew:
    """N persistent worker processes with liveness supervision.

    ``main`` is the worker entry point, called as
    ``main(in_queue, reply, *args)``; it must loop reading
    ``(task_id, op, payload)`` triples from ``in_queue`` (``None`` means
    exit) and ``reply.send((task_id, ok, payload))`` for each.
    Submission is thread-safe; any number of caller threads may be
    blocked in :meth:`collect` concurrently — one of them multiplexes
    the reply pipes and parks results for the others.
    """

    def __init__(
        self,
        workers: int,
        main: Callable,
        args: Tuple = (),
        timeout: float = 120.0,
        name: str = "repro-worker",
    ) -> None:
        """Spawn ``workers`` daemon processes running ``main(*queues, *args)``."""
        if workers < 1:
            raise CrewError("a worker crew needs at least one worker")
        self.timeout = timeout
        self.worker_restarts = 0
        self._main = main
        self._args = args
        self._name = name
        self._ctx = multiprocessing.get_context()
        self._in_queues = [self._ctx.Queue() for _ in range(workers)]
        self._replies: List[Optional[object]] = [None] * workers
        self._processes: List[multiprocessing.Process] = [
            self._spawn(i) for i in range(workers)
        ]
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._draining = False
        self._waiting: Dict[int, int] = {}  # task id -> worker index
        self._results: Dict[int, Tuple[bool, object]] = {}
        self._task_ids = itertools.count()
        self._rr = itertools.count()
        self._closed = False

    @property
    def workers(self) -> int:
        """Number of worker slots (constant across respawns)."""
        return len(self._processes)

    @property
    def processes(self) -> List[multiprocessing.Process]:
        """The live process handles (test hooks kill these)."""
        return list(self._processes)

    def _spawn(self, index: int) -> multiprocessing.Process:
        reader, writer = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=self._main,
            args=(self._in_queues[index], writer) + self._args,
            daemon=True,
            name=f"{self._name}-{index}",
        )
        process.start()
        # Close the parent's copy of the write end: the worker must be
        # the *only* writer, so its death EOFs the pipe (even a partial
        # message then raises in recv instead of blocking forever).
        writer.close()
        self._replies[index] = reader
        return process

    # -- submission ----------------------------------------------------------

    def submit(self, op: str, payload=None, worker: Optional[int] = None) -> int:
        """Queue one task; returns its id for :meth:`collect`.

        ``worker`` targets a specific worker index; by default tasks
        round-robin across the crew.
        """
        with self._lock:
            if self._closed:
                raise CrewError("worker crew is closed")
            if worker is None:
                worker = next(self._rr) % len(self._processes)
            task_id = next(self._task_ids)
            self._waiting[task_id] = worker
            queue = self._in_queues[worker]
        queue.put((task_id, op, payload))
        return task_id

    def broadcast(self, op: str, payload=None) -> List[int]:
        """Queue one task per worker; returns all task ids."""
        return [
            self.submit(op, payload, worker=i)
            for i in range(len(self._processes))
        ]

    # -- collection ----------------------------------------------------------

    def _reap_locked(self) -> None:
        """Fail in-flight tasks of dead workers; respawn them (lock held)."""
        for index, process in enumerate(self._processes):
            if process.is_alive():
                continue
            dead = [t for t, w in self._waiting.items() if w == index]
            for task_id in dead:
                del self._waiting[task_id]
                self._results[task_id] = (False, _RESTART)
            self.worker_restarts += 1
            # A worker killed mid-``Queue.get`` can die holding the
            # queue's reader lock, which would deadlock its replacement;
            # the respawn gets a fresh queue (any messages on the old
            # one belonged to the tasks just failed above) and a fresh
            # reply pipe.
            reader = self._replies[index]
            if reader is not None:
                self._replies[index] = None
                reader.close()
            self._in_queues[index] = self._ctx.Queue()
            self._processes[index] = self._spawn(index)
            if dead:
                self._cond.notify_all()

    def _drain_once(self, wait: float) -> None:
        """Pull replies for up to ``wait`` seconds (lock held on entry/exit)."""
        readers = [r for r in self._replies if r is not None]
        self._draining = True
        self._cond.release()
        received = []
        severed = []
        try:
            if readers:
                try:
                    ready = multiprocessing.connection.wait(readers, wait)
                except OSError:  # pragma: no cover - torn-down handle
                    ready = []
                for reader in ready:
                    try:
                        received.append(reader.recv())
                    except (EOFError, OSError):
                        # The sole writer died (possibly mid-message):
                        # the channel is gone, the reap below respawns.
                        severed.append(reader)
            else:  # pragma: no cover - every pipe severed, reap pending
                time.sleep(wait)
        finally:
            self._cond.acquire()
            self._draining = False
        for reader in severed:
            for index, open_reader in enumerate(self._replies):
                if open_reader is reader:
                    self._replies[index] = None
                    reader.close()
        for reply in received:
            task_id, ok, payload = reply
            if task_id in self._waiting:
                del self._waiting[task_id]
                self._results[task_id] = (ok, payload)
            # else: a reply for an abandoned/reaped task — drop it.
        if not received:
            self._reap_locked()
        self._cond.notify_all()

    def collect(self, task_id: int):
        """Block until ``task_id`` replies; return its payload.

        Raises :class:`WorkerRestarted` when the executing worker died
        (after respawning it), :class:`TaskFailed` when the task raised
        in the worker, and :class:`CrewError` after ``timeout`` seconds
        without an answer.
        """
        deadline = time.monotonic() + self.timeout
        with self._cond:
            while True:
                if task_id in self._results:
                    ok, payload = self._results.pop(task_id)
                    if ok:
                        return payload
                    if payload == _RESTART:
                        raise WorkerRestarted(
                            "a pool worker died mid-task (respawned)"
                        )
                    raise TaskFailed(f"pool worker failed: {payload}")
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._waiting.pop(task_id, None)
                    raise CrewError(
                        f"pool worker did not answer within {self.timeout}s"
                    )
                if self._draining:
                    self._cond.wait(min(_POLL, remaining))
                else:
                    self._drain_once(min(_POLL, remaining))

    def collect_all(self, task_ids: Sequence[int]) -> List[object]:
        """Collect several tasks in order; abandon the rest on failure."""
        results = []
        for i, task_id in enumerate(task_ids):
            try:
                results.append(self.collect(task_id))
            except Exception:
                self.abandon(task_ids[i + 1:])
                raise
        return results

    def abandon(self, task_ids: Sequence[int]) -> None:
        """Forget tasks whose replies no longer matter."""
        with self._lock:
            for task_id in task_ids:
                self._waiting.pop(task_id, None)
                self._results.pop(task_id, None)

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        """Stop all workers (idempotent): sentinel, join, then terminate."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for queue in self._in_queues:
            try:
                queue.put(None)
            except Exception:  # pragma: no cover - queue torn down
                pass
        for process in self._processes:
            process.join(timeout=5.0)
        for process in self._processes:
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=1.0)
        for reader in self._replies:
            if reader is not None:
                reader.close()
        self._replies = [None] * len(self._replies)
