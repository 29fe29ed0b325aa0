"""Multi-process forest serving: workers, sharding, result caching.

A :class:`ForestPool` answers batch queries against forests stored as
``.bbdd`` dump containers (the :mod:`repro.io` format doubles as the
pool's wire/warm-start format):

* each **worker** is a separate process hosting an LRU cache of loaded
  forests (:class:`ForestHost`), so the Python-level evaluation
  parallelism is real — one GIL per worker;
* oversized batches are **sharded** across the workers and reassembled
  in order;
* a **cross-request result cache** in the dispatcher answers repeated
  single queries (the common shape of coalesced interactive traffic)
  without touching a worker at all.

``workers=0`` runs the same code path inline (no subprocesses) — the
right choice for tests, small deployments, and platforms where
spawning is expensive; it still provides the forest cache, sharding
and result cache.

With **shared memory** on (the default wherever
``multiprocessing.shared_memory`` works), the dispatcher loads each
dump once, freezes it into a :class:`repro.par.shm.ShmForest` segment
and the workers *attach* instead of holding private copies — memory
per added worker is O(1) in the forest size.  A dump file that changes
on disk is re-frozen under a bumped generation number and the old
segment retired, so serving hot-reloads without a restart (the result
cache is keyed by segment, so it never answers from the old forest).
Inline pools and private-copy workers do not hot-reload: they keep the
forest they first loaded from a path until it leaves their LRU.  Worker
processes that die mid-batch are detected, respawned (re-attaching
lazily) and the in-flight batch retried once
(:class:`repro.par.dispatch.WorkerCrew`).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Mapping, Optional

from repro.api.base import check_assignment_bit
from repro.par.dispatch import CrewError, WorkerCrew, WorkerRestarted
from repro.serve.bulk import ServeError

#: Default shard size: batches above this split across workers.
DEFAULT_SHARD = 4096


class ForestHost:
    """An LRU cache of forests loaded from dump containers.

    One instance lives in every worker process (and one inline in a
    ``workers=0`` pool).  Forests load through
    :func:`repro.io.open_forest`, so both BBDD and baseline-BDD
    containers serve transparently.
    """

    def __init__(self, max_forests: int = 8) -> None:
        if max_forests < 1:
            raise ServeError("max_forests must be positive")
        self.max_forests = max_forests
        self._forests: "OrderedDict[str, tuple]" = OrderedDict()
        self._segments: "OrderedDict[str, object]" = OrderedDict()
        # An inline (workers=0) pool shares this host across the
        # batching server's executor threads; serialize access so the
        # LRU bookkeeping and the underlying manager stay consistent.
        self._lock = threading.Lock()
        self.loads = 0
        self.hits = 0
        self.shm_attaches = 0

        from repro import obs

        obs.track(self)

    def get(self, path: str) -> tuple:
        """The ``(manager, {name: function})`` pair for ``path``."""
        with self._lock:
            return self._get_locked(path)

    def _get_locked(self, path: str) -> tuple:
        entry = self._forests.get(path)
        if entry is None:
            from repro.io import open_forest

            entry = open_forest(path)
            self._forests[path] = entry
            self.loads += 1
            while len(self._forests) > self.max_forests:
                self._forests.popitem(last=False)
        else:
            self._forests.move_to_end(path)
            self.hits += 1
        return entry

    def names(self, path: str) -> List[str]:
        """The function names stored in ``path`` (loads it if needed)."""
        return sorted(self.get(path)[1])

    def evaluate(self, path: str, name: str, assignments) -> List[bool]:
        """Batch-evaluate one named function of the forest at ``path``."""
        with self._lock:
            _manager, functions = self._get_locked(path)
            f = functions.get(name)
            if f is None:
                raise ServeError(
                    f"no function {name!r} in {path!r}; "
                    f"stored: {', '.join(sorted(functions))}"
                )
            # The sweep runs under the lock too: concurrent inline
            # callers share one manager, whose memo tables are not
            # thread-safe (worker processes are the parallelism axis).
            return f.evaluate_batch(assignments)

    def p_one(self, path: str, name: str, weights: Optional[Mapping]) -> float:
        """``P[f = 1]`` of one stored function under independent weights.

        Float mode (``exact=False``) — the serving surface is JSON, so
        probabilities travel as floats in both directions.
        """
        with self._lock:
            _manager, functions = self._get_locked(path)
            f = functions.get(name)
            if f is None:
                raise ServeError(
                    f"no function {name!r} in {path!r}; "
                    f"stored: {', '.join(sorted(functions))}"
                )
            return f.p_one(weights, exact=False)

    def marginals(
        self,
        path: str,
        name: str,
        weights: Optional[Mapping],
        variables: Optional[List] = None,
    ) -> Dict[str, float]:
        """Posterior marginals of one stored function (float mode)."""
        with self._lock:
            _manager, functions = self._get_locked(path)
            f = functions.get(name)
            if f is None:
                raise ServeError(
                    f"no function {name!r} in {path!r}; "
                    f"stored: {', '.join(sorted(functions))}"
                )
            return f.marginals(weights, variables, exact=False)

    def attach_segment(self, segment: str):
        """The attached :class:`~repro.par.shm.ShmForest` for ``segment``.

        Attachments share the host's LRU budget semantics (a separate
        table, same capacity): an evicted segment is closed, and
        re-attaching later is cheap — the kernel mapping is the only
        cost, the arrays are never copied.
        """
        with self._lock:
            forest = self._segments.get(segment)
            if forest is None:
                from repro.par.shm import ShmForest

                forest = ShmForest.attach(segment)
                self._segments[segment] = forest
                self.shm_attaches += 1
                while len(self._segments) > self.max_forests:
                    _, evicted = self._segments.popitem(last=False)
                    evicted.close()
            else:
                self._segments.move_to_end(segment)
            return forest

    def evaluate_segment(self, segment: str, name: str, assignments) -> List[bool]:
        """Batch-evaluate one named function of an attached segment."""
        forest = self.attach_segment(segment)
        return forest.evaluate_batch(name, assignments)

    def detach_segment(self, segment: str) -> None:
        """Drop (and close) one segment attachment, if present."""
        with self._lock:
            forest = self._segments.pop(segment, None)
        if forest is not None:
            forest.close()

    def close_segments(self) -> None:
        """Close every segment attachment (worker exit)."""
        with self._lock:
            segments = list(self._segments.values())
            self._segments.clear()
        for forest in segments:
            forest.close()

    def collect_metrics(self, registry) -> None:
        """Sample forest-cache counters into an obs registry.

        Runs in whatever process hosts this cache: inline pools feed
        the dispatcher's snapshot directly, worker processes feed the
        snapshot they ship back for the ``"metrics"`` op — so both
        modes land in the same ``repro_serve_forest_*`` families.
        """
        from repro.obs.catalog import family

        family(registry, "repro_serve_forest_loads_total").inc(self.loads)
        family(registry, "repro_serve_forest_hits_total").inc(self.hits)
        family(registry, "repro_serve_shm_attaches_total").inc(self.shm_attaches)


def _worker_main(in_queue, reply, max_forests: int) -> None:
    """Worker-process loop: serve ``(task_id, op, payload)`` requests."""
    from repro import obs

    # A forked worker inherits the parent's registry values and tracked
    # managers; drop them so this worker's "metrics" snapshots cover
    # only its own work (the dispatcher merges them with its own).
    obs.reset()
    host = ForestHost(max_forests)
    try:
        while True:
            message = in_queue.get()
            if message is None:
                return
            task_id, op, payload = message
            try:
                if op == "eval":
                    path, name, assignments = payload
                    result = host.evaluate(path, name, assignments)
                elif op == "eval_shm":
                    segment, name, assignments = payload
                    result = host.evaluate_segment(segment, name, assignments)
                elif op == "p_one":
                    path, name, weights = payload
                    result = host.p_one(path, name, weights)
                elif op == "p_one_shm":
                    segment, name, weights = payload
                    result = host.attach_segment(segment).p_one(
                        name, weights, exact=False
                    )
                elif op == "marginals":
                    path, name, weights, variables = payload
                    result = host.marginals(path, name, weights, variables)
                elif op == "marginals_shm":
                    segment, name, weights, variables = payload
                    result = host.attach_segment(segment).marginals(
                        name, weights, variables, exact=False
                    )
                elif op == "warm":
                    result = host.names(payload)
                elif op == "attach_shm":
                    result = sorted(host.attach_segment(payload).functions)
                elif op == "detach_shm":
                    host.detach_segment(payload)
                    result = None
                elif op == "stats":
                    result = {
                        "loads": host.loads,
                        "forest_hits": host.hits,
                        "shm_attaches": host.shm_attaches,
                    }
                elif op == "metrics":
                    result = obs.snapshot()
                else:  # pragma: no cover - protocol misuse
                    raise ServeError(f"unknown worker op {op!r}")
                reply.send((task_id, True, result))
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                reply.send((task_id, False, f"{type(exc).__name__}: {exc}"))
    finally:
        host.close_segments()


_BIT_TYPES = frozenset((bool, int))
_BITS = frozenset((0, 1))
_STR_TYPE = frozenset((str,))


def _assignment_key(assignment: Mapping, index: int):
    """A hashable, order-insensitive cache key for assignment ``index``.

    The common shape (a ``dict`` with ``str`` keys and ``bool`` or int
    0/1 values) is recognized with C-level set operations and keyed by
    the frozenset of its items, where ``True`` and ``1`` hash and
    compare equal.  Every other assignment takes
    :func:`_normalize_assignment`, which raises on malformed values; its
    tuple keys never equal a frozenset.
    """
    if (
        type(assignment) is dict
        and _BIT_TYPES.issuperset(map(type, assignment.values()))
        and _BITS.issuperset(assignment.values())
        and _STR_TYPE.issuperset(map(type, assignment))
    ):
        return frozenset(assignment.items())
    return _normalize_assignment(assignment, f"assignment {index}")


def _normalize_assignment(assignment: Mapping, where: str) -> tuple:
    """A hashable, order-insensitive key for any assignment mapping.

    Values are validated *before* normalization (the shared strictness
    contract), so a malformed assignment raises identically whether the
    result would have come from the cache or from a worker.
    """
    try:
        pairs = assignment.items()
    except AttributeError:
        raise TypeError(
            f"{where} must be a mapping, got {type(assignment).__name__}"
        ) from None
    items = []
    for key, bit in pairs:
        check_assignment_bit(bit, key, where)
        items.append(((isinstance(key, str), str(key)), bool(bit)))
    return tuple(sorted(items))


class ForestPool:
    """A pool of forest-serving workers with sharding and result caching.

    Parameters
    ----------
    workers:
        Worker process count; ``0`` serves inline in this process
        (default: ``min(4, cpu_count)``).
    max_forests:
        Per-worker LRU capacity of loaded forests.
    cache_size:
        Dispatcher-level result-cache entries (``0`` disables); keys
        are ``(forest, segment, function, assignment)``, so repeated
        queries are answered without dispatching, and a hot-reloaded
        dump (a new segment) never answers from the old forest.
    shard_size:
        Batches larger than this split into shards spread round-robin
        across the workers.
    timeout:
        Seconds to wait for a worker reply before declaring it dead.
    shared_memory:
        ``True`` freezes each dump into a shared-memory segment the
        workers attach zero-copy; ``False`` keeps private per-worker
        copies; ``None`` (default) enables sharing whenever the
        platform supports it and the pool has workers.  Forests whose
        backend cannot freeze fall back to private copies per path.
        Only shared segments hot-reload: inline pools and private
        copies keep serving the forest they first loaded from a path.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        max_forests: int = 8,
        cache_size: int = 4096,
        shard_size: int = DEFAULT_SHARD,
        timeout: float = 120.0,
        shared_memory: Optional[bool] = None,
    ) -> None:
        if workers is None:
            workers = min(4, os.cpu_count() or 1)
        if workers < 0:
            raise ServeError("workers must be >= 0")
        if shard_size < 1:
            raise ServeError("shard_size must be positive")
        self.shard_size = shard_size
        self.timeout = timeout
        self._cache: "OrderedDict[tuple, bool]" = OrderedDict()
        self._cache_size = cache_size
        self.cache_hits = 0
        self.cache_misses = 0
        self.batches_dispatched = 0
        self.shards_dispatched = 0
        self.batch_retries = 0
        self.shm_freezes = 0
        # Guards the result cache and dispatcher counters: the batching
        # server calls in from several executor threads at once.
        self._cond = threading.Condition()
        self._host: Optional[ForestHost] = None
        self._crew: Optional[WorkerCrew] = None
        if shared_memory is None:
            from repro.par.shm import shm_available

            shared_memory = workers > 0 and shm_available()
        self.shared_memory = bool(shared_memory) and workers > 0
        # path -> {"forest": ShmForest, "sig": (mtime_ns, size),
        #          "generation": int}.  The dispatcher owns the frozen
        # segments; workers attach them by name on demand.
        self._shared_lock = threading.Lock()
        self._shared: Dict[str, dict] = {}
        self._shm_failed: set = set()
        from repro import obs

        obs.track(self)
        if workers == 0:
            self._host = ForestHost(max_forests)
        else:
            self._crew = WorkerCrew(
                workers,
                _worker_main,
                args=(max_forests,),
                timeout=timeout,
                name="repro-serve",
            )

    # -- lifecycle ------------------------------------------------------

    @property
    def workers(self) -> int:
        """Worker process count (0 when serving inline)."""
        return self._crew.workers if self._crew is not None else 0

    @property
    def worker_restarts(self) -> int:
        """Workers that died mid-task and were respawned (0 inline)."""
        return self._crew.worker_restarts if self._crew is not None else 0

    def close(self) -> None:
        """Stop the workers and unlink owned segments (idempotent)."""
        if self._crew is not None:
            self._crew.close()
        with self._shared_lock:
            entries = list(self._shared.values())
            self._shared.clear()
        for entry in entries:
            forest = entry["forest"]
            try:
                forest.unlink()
            except Exception:  # pragma: no cover - already unlinked
                pass
            forest.close()

    def __enter__(self) -> "ForestPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best effort
        try:
            self.close()
        except Exception:
            pass

    # -- dispatch -------------------------------------------------------

    def _crewed(self, attempt):
        """Run ``attempt()`` against the crew; retry once after a respawn.

        A worker death mid-batch surfaces as
        :class:`~repro.par.dispatch.WorkerRestarted`; since every pool
        op is idempotent (pure reads over immutable forests), the whole
        attempt is re-submitted once against the respawned crew.  Any
        other crew failure surfaces as :class:`ServeError`, keeping one
        exception surface across inline and worker modes.
        """
        try:
            try:
                return attempt()
            except WorkerRestarted:
                with self._cond:
                    self.batch_retries += 1
                return attempt()
        except CrewError as exc:
            raise ServeError(str(exc)) from exc

    # -- shared segments ------------------------------------------------

    def _segment_for(self, path: str) -> Optional[str]:
        """The live shared-segment name serving ``path`` (or ``None``).

        Freezes the dump on first use.  A dump whose on-disk signature
        (mtime, size) changed since the freeze is re-frozen under a
        bumped generation and the stale segment retired, so serving
        hot-reloads edited dumps without a pool restart.  A backend
        that cannot freeze is remembered per path and served through
        the private-copy ``eval`` path from then on.
        """
        if not self.shared_memory or path in self._shm_failed:
            return None
        try:
            info = os.stat(path)
            signature: Optional[tuple] = (info.st_mtime_ns, info.st_size)
        except OSError:
            signature = None
        retired = None
        with self._shared_lock:
            entry = self._shared.get(path)
            if entry is not None and entry["sig"] == signature:
                return entry["forest"].name
            generation = entry["generation"] + 1 if entry is not None else 0
            try:
                from repro.io import open_forest
                from repro.par.shm import ShmForest

                manager, functions = open_forest(path)
                forest = ShmForest.freeze(
                    manager, functions, generation=generation
                )
            except Exception:
                self._shm_failed.add(path)
                return None
            self._shared[path] = {
                "forest": forest,
                "sig": signature,
                "generation": generation,
            }
            self.shm_freezes += 1
            if entry is not None:
                retired = entry["forest"]
        if retired is not None:
            self._retire_segment(retired)
        return forest.name

    def _retire_segment(self, forest) -> None:
        """Unlink a superseded segment after detaching the workers."""
        if self._crew is not None:
            try:
                self._crew.abandon(
                    self._crew.broadcast("detach_shm", forest.name)
                )
            except CrewError:  # pragma: no cover - closed crew
                pass
        try:
            forest.unlink()
        except Exception:  # pragma: no cover - already unlinked
            pass
        forest.close()

    def warm(self, path) -> List[str]:
        """Pre-load ``path`` into every worker; returns the root names.

        Warm-starting moves the dump decode off the first request's
        latency path.  In shared-memory mode the dispatcher freezes the
        dump once and the workers merely attach (one map each); in
        private-copy mode every worker decodes the dump concurrently.
        """
        path = os.fspath(path)
        if self._host is not None:
            return self._host.names(path)
        segment = self._segment_for(path)
        if segment is not None:
            return self._crewed(
                lambda: self._crew.collect_all(
                    self._crew.broadcast("attach_shm", segment)
                )[-1]
            )
        return self._crewed(
            lambda: self._crew.collect_all(
                self._crew.broadcast("warm", path)
            )[-1]
        )

    def evaluate_batch(self, path, name: str, assignments: Iterable[Mapping]) -> List[bool]:
        """Evaluate many assignments of one stored function.

        Cached results are answered locally; the remaining (deduplicated)
        misses are sharded across the workers and evaluated there with
        the levelized sweep.  Results come back in input order.
        """
        path = os.fspath(path)
        batch = assignments if isinstance(assignments, list) else list(assignments)
        if not batch:
            return []
        # Answers are keyed by the segment that computes them, so a dump
        # re-frozen under a new segment never reuses the old answers.
        segment = self._segment_for(path)
        results: List[Optional[bool]] = [None] * len(batch)
        pending: "OrderedDict[tuple, List[int]]" = OrderedDict()
        misses: List[Mapping] = []
        use_cache = self._cache_size > 0
        # Cache lookups and eviction run under the pool lock: the
        # batching server calls evaluate_batch from several executor
        # threads at once, and an unsynchronized get/move_to_end pair
        # races against another thread's eviction.
        with self._cond:
            for index, assignment in enumerate(batch):
                key = (
                    path,
                    segment,
                    name,
                    _assignment_key(assignment, index),
                )
                if use_cache:
                    cached = self._cache.get(key)
                    if cached is not None:
                        self._cache.move_to_end(key)
                        self.cache_hits += 1
                        results[index] = cached
                        continue
                    self.cache_misses += 1
                positions = pending.get(key)
                if positions is None:
                    pending[key] = [index]
                    misses.append(assignment)
                else:
                    positions.append(index)
        if misses:
            # Dispatch outside the lock (it blocks on the workers).
            values = self._evaluate_misses(path, segment, name, misses)
            with self._cond:
                self.batches_dispatched += 1
                for (key, positions), value in zip(pending.items(), values):
                    value = bool(value)
                    for index in positions:
                        results[index] = value
                    if use_cache:
                        self._cache[key] = value
                        while len(self._cache) > self._cache_size:
                            self._cache.popitem(last=False)
        return results  # type: ignore[return-value]

    def _evaluate_misses(
        self, path: str, segment: Optional[str], name: str, misses: List[Mapping]
    ) -> List[bool]:
        if self._host is not None:
            with self._cond:
                self.shards_dispatched += 1
            return self._host.evaluate(path, name, misses)
        op = "eval" if segment is None else "eval_shm"
        target = path if segment is None else segment
        shard = self.shard_size

        def attempt() -> List[bool]:
            task_ids = [
                self._crew.submit(op, (target, name, misses[start : start + shard]))
                for start in range(0, len(misses), shard)
            ]
            with self._cond:
                self.shards_dispatched += len(task_ids)
            values: List[bool] = []
            for shard_values in self._crew.collect_all(task_ids):
                values.extend(shard_values)
            return values

        return self._crewed(attempt)

    def evaluate(self, path, name: str, assignment: Mapping) -> bool:
        """Evaluate one assignment (a batch of one, through the cache)."""
        return self.evaluate_batch(path, name, [assignment])[0]

    def _weighted(self, op: str, path, name: str, payload_tail: tuple):
        """Dispatch one weighted-counting op to a worker (or inline).

        In shared-memory mode the query runs zero-copy against the
        frozen segment (``<op>_shm``); otherwise the worker's private
        forest copy answers.  Inline pools call the host directly.
        """
        path = os.fspath(path)
        if self._host is not None:
            method = getattr(self._host, op)
            return method(path, name, *payload_tail)
        segment = self._segment_for(path)
        worker_op = op if segment is None else op + "_shm"
        target = path if segment is None else segment

        def attempt():
            task_id = self._crew.submit(worker_op, (target, name) + payload_tail)
            return self._crew.collect_all([task_id])[0]

        return self._crewed(attempt)

    def p_one(self, path, name: str, weights: Optional[Mapping] = None) -> float:
        """``P[f = 1]`` of one stored function under independent weights.

        ``weights`` maps variable names (or indices) to marginal
        probabilities ``P[x = 1]``; unlisted variables default to 1/2.
        Float mode — this is the JSON serving surface of
        :func:`repro.wmc.p_one`.
        """
        return self._weighted("p_one", path, name, (weights,))

    def marginals(
        self,
        path,
        name: str,
        weights: Optional[Mapping] = None,
        variables: Optional[List] = None,
    ) -> Dict[str, float]:
        """Posterior marginals ``P[x = 1 | f = 1]`` of one stored function.

        ``variables`` restricts the query (default: the function's
        support).  Float mode, keyed by variable name — the JSON serving
        surface of :func:`repro.wmc.marginals`.
        """
        return self._weighted("marginals", path, name, (weights, variables))

    def _forest_counters(self) -> tuple:
        """``(loads, hits, shm_attaches)`` of the forest caches.

        Inline pools read the host directly; worker pools ask every
        worker (best effort — a dead pool reports zeros rather than
        failing a stats call).
        """
        if self._host is not None:
            return (self._host.loads, self._host.hits, self._host.shm_attaches)
        if self._crew is None:
            return (0, 0, 0)
        try:
            replies = self._crew.collect_all(
                self._crew.broadcast("stats", None)
            )
        except CrewError:
            return (0, 0, 0)
        loads = sum(reply["loads"] for reply in replies)
        hits = sum(reply["forest_hits"] for reply in replies)
        attaches = sum(reply.get("shm_attaches", 0) for reply in replies)
        return (loads, hits, attaches)

    def metric_snapshots(self) -> List[dict]:
        """Metrics snapshots of every worker process (empty inline).

        Worker snapshots travel over the ordinary result channel; the
        inline host is tracked in this process, so it is already part
        of the local :func:`repro.obs.snapshot` and returns nothing
        here (no double counting).
        """
        if self._host is not None or self._crew is None:
            return []
        try:
            return self._crew.collect_all(
                self._crew.broadcast("metrics", None)
            )
        except CrewError:
            return []

    def collect_metrics(self, registry) -> None:
        """Sample dispatcher counters into an obs registry.

        Covers the result cache and dispatch volume of this process;
        worker-side counters arrive via :meth:`metric_snapshots`.
        """
        from repro.obs.catalog import family

        family(registry, "repro_serve_result_cache_hits_total").inc(
            self.cache_hits
        )
        family(registry, "repro_serve_result_cache_misses_total").inc(
            self.cache_misses
        )
        family(registry, "repro_serve_result_cache_entries").inc(
            len(self._cache)
        )
        family(registry, "repro_serve_batches_dispatched_total").inc(
            self.batches_dispatched
        )
        family(registry, "repro_serve_shards_dispatched_total").inc(
            self.shards_dispatched
        )
        family(registry, "repro_serve_worker_restarts_total").inc(
            self.worker_restarts
        )
        family(registry, "repro_serve_batch_retries_total").inc(
            self.batch_retries
        )
        family(registry, "repro_serve_shm_freezes_total").inc(self.shm_freezes)
        with self._shared_lock:
            segment_bytes = sum(
                entry["forest"].nbytes for entry in self._shared.values()
            )
        family(registry, "repro_serve_shm_segment_bytes").inc(segment_bytes)

    def stats(self) -> dict:
        """Dispatcher counters (cache effectiveness, dispatch volume)."""
        forest_loads, forest_hits, shm_attaches = self._forest_counters()
        with self._shared_lock:
            shared_segments = len(self._shared)
            segment_bytes = sum(
                entry["forest"].nbytes for entry in self._shared.values()
            )
        return {
            "workers": self.workers,
            "shared_memory": self.shared_memory,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_entries": len(self._cache),
            "batches_dispatched": self.batches_dispatched,
            "shards_dispatched": self.shards_dispatched,
            "batch_retries": self.batch_retries,
            "worker_restarts": self.worker_restarts,
            "forest_loads": forest_loads,
            "forest_hits": forest_hits,
            "shm_freezes": self.shm_freezes,
            "shm_attaches": shm_attaches,
            "shared_segments": shared_segments,
            "shm_segment_bytes": segment_bytes,
        }
