"""Forest serving: dump paths mapped to shared segments, result caching.

A :class:`ForestPool` answers batch queries against forests stored as
``.bbdd`` dump containers (the :mod:`repro.io` format doubles as the
pool's warm-start format).  It is a thin layer over one
:class:`repro.par.ParallelPool`:

* the dispatcher loads each dump once and freezes it into a
  :class:`repro.par.shm.ShmForest` segment; the parallel pool's workers
  attach the segment zero-copy and sweep the lane spans of each batch,
  so memory per added worker is O(1) in the forest size (``workers=0``
  sweeps the segment in this process);
* a dump file whose on-disk signature ``(mtime_ns, size)`` changes is
  re-frozen under a bumped generation number, so serving hot-reloads
  without a restart; a superseded or LRU-evicted segment is detached
  and unlinked once the last batch that resolved it has finished;
* a **cross-request result cache** in the dispatcher, keyed by segment,
  answers repeated single queries (the common shape of coalesced
  interactive traffic) without a sweep — and never from a superseded
  forest.

Where a dump cannot be frozen (freezing raises
:class:`~repro.par.shm.ParError`, e.g. on a platform without
``multiprocessing.shared_memory``) the dispatcher answers from the
loaded manager itself, under one lock.  Worker processes that die
mid-batch are detected, respawned and the batch retried once
(:class:`repro.par.dispatch.WorkerCrew`).
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterable, List, Mapping, Optional

from repro.api.base import check_assignment_bit
from repro.par.dispatch import CrewError
from repro.par.pool import ParallelPool
from repro.par.shm import ParError, ShmForest
from repro.serve.bulk import ServeError

_BIT_TYPES = frozenset((bool, int))
_BITS = frozenset((0, 1))
_STR_TYPE = frozenset((str,))

#: Entries a pool's key table holds before it is cleared: one per key
#: order seen, plus one per key set for its sorted tuple.
KEY_TABLE_SIZE = 256


def _assignment_key(assignment: Mapping, index: int, key_table: dict) -> tuple:
    """A hashable, order-insensitive cache key for assignment ``index``.

    The common shape (a ``dict`` with ``str`` keys and ``bool`` or int
    0/1 values) is recognized with C-level set operations and keyed by
    two parts: its sorted key tuple, and its values as ``bytes`` in that
    order (``True`` and ``1`` both give ``b"\\x01"``).  ``key_table``
    maps each key order seen to the sorted tuple of its key set, so every
    assignment over one key set shares one tuple; it is cleared when
    full.  Every other assignment takes :func:`_normalize_assignment`,
    which raises on malformed values; its one-part key never equals a
    two-part one.
    """
    if (
        type(assignment) is dict
        and _BIT_TYPES.issuperset(map(type, assignment.values()))
        and _BITS.issuperset(assignment.values())
        and _STR_TYPE.issuperset(map(type, assignment))
    ):
        order = tuple(assignment)
        keys = key_table.get(order)
        if keys is None:
            if len(key_table) + 2 > KEY_TABLE_SIZE:  # room for order and keys
                key_table.clear()
            keys = tuple(sorted(order))
            keys = key_table.setdefault(keys, keys)
            key_table[order] = keys
        return keys, bytes(map(assignment.__getitem__, keys))
    return (_normalize_assignment(assignment, f"assignment {index}"),)


def _normalize_assignment(assignment: Mapping, where: str) -> tuple:
    """A hashable, order-insensitive key for any assignment mapping.

    Values are validated *before* normalization (the shared strictness
    contract), so a malformed assignment raises identically whether the
    result would have come from the cache or from a sweep.
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


class _Forest:
    """One loaded dump: its segment (or fallback functions) and its users.

    ``generation`` is unique within the pool, so it also keys the
    result cache.  ``users`` counts the calls that resolved this forest
    and have not finished; a ``retired`` forest is dropped when it
    reaches zero.
    """

    __slots__ = ("segment", "functions", "names", "signature", "generation",
                 "users", "retired")

    def __init__(self, segment, functions, names, signature, generation) -> None:
        self.segment: Optional[ShmForest] = segment
        self.functions: Optional[dict] = functions
        self.names: List[str] = names
        self.signature = signature
        self.generation = generation
        self.users = 0
        self.retired = False


class ForestPool:
    """Batch queries against dump files, over one shared-memory worker pool.

    Parameters
    ----------
    workers:
        Worker process count; ``0`` sweeps inline in this process
        (default: ``min(4, cpu_count)``).
    max_forests:
        Dumps kept frozen at once, least recently used evicted first;
        also each worker's attachment capacity.
    cache_size:
        Dispatcher-level result-cache entries (``0`` disables); keys
        are ``(segment generation, function, assignment)``, so repeated
        queries are answered without dispatching, and a hot-reloaded
        dump (a new segment) never answers from the old forest.
    timeout:
        Seconds to wait for a worker reply before declaring it dead.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        max_forests: int = 8,
        cache_size: int = 4096,
        timeout: float = 120.0,
    ) -> None:
        if workers is not None and workers < 0:
            raise ServeError("workers must be >= 0")
        if max_forests < 1:
            raise ServeError("max_forests must be positive")
        self._max_forests = max_forests
        self._cache: "OrderedDict[tuple, bool]" = OrderedDict()
        self._cache_size = cache_size
        # Key order -> the shared sorted key tuple (see _assignment_key).
        self._key_table: Dict[tuple, tuple] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.batches_dispatched = 0
        self.shards_dispatched = 0
        self.forest_loads = 0
        self.shm_freezes = 0
        # Guards the forest table, the result cache and the counters:
        # the batching server calls in from several executor threads.
        self._lock = threading.Lock()
        # Serializes sweeps over fallback managers, whose memo tables
        # are not thread-safe (frozen segments are read-only).
        self._fallback_lock = threading.Lock()
        self._forests: "OrderedDict[str, _Forest]" = OrderedDict()
        # path -> (signature, message) of the last dump that failed to load.
        self._failed: Dict[str, tuple] = {}
        self._generations = itertools.count()
        self._closed = False
        self._par = ParallelPool(workers, max_attached=max_forests, timeout=timeout)
        from repro import obs

        obs.track(self)

    # -- lifecycle ------------------------------------------------------

    @property
    def workers(self) -> int:
        """Worker process count (0 when serving inline)."""
        return self._par.workers

    def close(self) -> None:
        """Stop the workers and unlink every segment (idempotent).

        A segment still in use by a running call is unlinked when that
        call finishes.
        """
        with self._lock:
            self._closed = True
            forests = list(self._forests.values())
            self._forests.clear()
            for forest in forests:
                self._retire(forest)
        self._par.close()

    def __enter__(self) -> "ForestPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best effort
        try:
            self.close()
        except Exception:
            pass

    # -- forests --------------------------------------------------------

    def _load(self, path: str, signature) -> _Forest:
        """Load and freeze ``path``, retiring what served it before (lock held).

        A dump that fails to load is remembered with its signature: the
        same file fails again with the same error without being decoded
        again, while any change on disk retries.
        """
        old = self._forests.pop(path, None)
        if old is not None:
            self._retire(old)
        failed = self._failed.get(path)
        if failed is not None and failed[0] == signature:
            raise ServeError(failed[1])
        from repro.io import load

        try:
            manager, functions = load(path)
        except Exception as exc:
            message = f"cannot load {path!r}: {type(exc).__name__}: {exc}"
            self._failed[path] = (signature, message)
            raise ServeError(message) from exc
        self._failed.pop(path, None)
        generation = next(self._generations)
        try:
            segment = ShmForest.freeze(manager, functions, generation=generation)
        except ParError:
            segment = None
            self.forest_loads += 1
        else:
            self.shm_freezes += 1
        forest = _Forest(
            segment,
            functions if segment is None else None,
            sorted(functions),
            signature,
            generation,
        )
        self._forests[path] = forest
        while len(self._forests) > self._max_forests:
            _path, evicted = self._forests.popitem(last=False)
            self._retire(evicted)
        return forest

    def _retire(self, forest: _Forest) -> None:
        """Stop serving ``forest``; drop it once unused (lock held)."""
        forest.retired = True
        if forest.users == 0:
            self._drop(forest)

    def _drop(self, forest: _Forest) -> None:
        """Detach and unlink a retired forest's segment (lock held)."""
        segment = forest.segment
        if segment is not None:
            self._par.detach(segment)
            try:
                segment.unlink()
            except ParError:  # pragma: no cover - the exit hook got there first
                pass
            segment.close()

    @contextmanager
    def _serving(self, path, name: Optional[str] = None):
        """The live forest for ``path``, held until the block ends.

        Loads (and freezes) the dump on first use and again, under a
        new generation, when its on-disk signature changed.  ``name``,
        when given, must be stored in it.  Crew failures surface as
        :class:`ServeError`, one exception surface in every mode.
        """
        path = os.fspath(path)
        try:
            info = os.stat(path)
            signature: Optional[tuple] = (info.st_mtime_ns, info.st_size)
        except OSError:
            signature = None
        with self._lock:
            if self._closed:
                raise ServeError("the forest pool is closed")
            forest = self._forests.get(path)
            if forest is None or forest.signature != signature:
                forest = self._load(path, signature)
            else:
                self._forests.move_to_end(path)
            forest.users += 1
        try:
            if name is not None and name not in forest.names:
                raise ServeError(
                    f"no function {name!r} in {path!r}; "
                    f"stored: {', '.join(forest.names)}"
                )
            yield forest
        except CrewError as exc:
            raise ServeError(str(exc)) from exc
        finally:
            with self._lock:
                forest.users -= 1
                if forest.retired and forest.users == 0:
                    self._drop(forest)

    def warm(self, path) -> List[str]:
        """Freeze ``path`` and attach it in every worker; the root names.

        Warm-starting moves the dump decode, the freeze and the
        attachments off the first request's latency path.
        """
        with self._serving(path) as forest:
            if forest.segment is not None:
                self._par.warm(forest.segment)
            return list(forest.names)

    # -- queries --------------------------------------------------------

    def evaluate_batch(self, path, name: str, assignments: Iterable[Mapping]) -> List[bool]:
        """Evaluate many assignments of one stored function.

        Cached results are answered locally; the remaining (deduplicated)
        misses go to the parallel pool as one batch, encoded into bit
        columns once and swept in lane spans.  Results come back in
        input order.
        """
        batch = assignments if isinstance(assignments, list) else list(assignments)
        if not batch:
            return []
        with self._serving(path, name) as forest:
            results: List[Optional[bool]] = [None] * len(batch)
            pending: "OrderedDict[tuple, List[int]]" = OrderedDict()
            misses: List[Mapping] = []
            use_cache = self._cache_size > 0
            # Cache lookups and eviction run under the pool lock: the
            # batching server calls evaluate_batch from several executor
            # threads at once, and an unsynchronized get/move_to_end pair
            # races against another thread's eviction.
            prefix = (forest.generation, name)
            key_table = self._key_table
            with self._lock:
                for index, assignment in enumerate(batch):
                    key = prefix + _assignment_key(assignment, index, key_table)
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
            if not misses:
                return results  # type: ignore[return-value]
            # Sweep outside the lock (it blocks on the workers).
            if forest.segment is None:
                with self._fallback_lock:
                    values = forest.functions[name].evaluate_batch(misses)
                spans = 1
            else:
                values = self._par.evaluate_batch(forest.segment, name, misses)
                spans = len(self._par.lane_spans(len(misses)))
            with self._lock:
                self.batches_dispatched += 1
                self.shards_dispatched += spans
                for (key, positions), value in zip(pending.items(), values):
                    for index in positions:
                        results[index] = value
                    if use_cache:
                        self._cache[key] = value
                        while len(self._cache) > self._cache_size:
                            self._cache.popitem(last=False)
            return results  # type: ignore[return-value]

    def evaluate(self, path, name: str, assignment: Mapping) -> bool:
        """Evaluate one assignment (a batch of one, through the cache)."""
        return self.evaluate_batch(path, name, [assignment])[0]

    def _weighted(self, op: str, path, name: str, args: tuple):
        """One weighted-counting query, float mode (the JSON surface)."""
        with self._serving(path, name) as forest:
            if forest.segment is None:
                with self._fallback_lock:
                    return getattr(forest.functions[name], op)(*args, exact=False)
            return getattr(self._par, op)(forest.segment, name, *args, exact=False)

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

    # -- observability --------------------------------------------------

    def metric_snapshots(self) -> List[dict]:
        """Metrics snapshots of every worker process (empty inline).

        Worker snapshots travel over the ordinary result channel; the
        dispatcher's own counters (this pool and its parallel pool) are
        tracked in this process, so they are already part of the local
        :func:`repro.obs.snapshot`.
        """
        return self._par.metric_snapshots()

    def _segment_bytes(self) -> tuple:
        """``(live segments, their bytes)`` held by the dispatcher (lock held)."""
        segments = [
            forest.segment
            for forest in self._forests.values()
            if forest.segment is not None
        ]
        return len(segments), sum(segment.nbytes for segment in segments)

    def collect_metrics(self, registry) -> None:
        """Sample dispatcher counters into an obs registry.

        Covers the result cache, dispatch volume and segments of this
        process; retries, restarts and worker attachments report under
        the parallel pool's ``repro_par_*`` families.
        """
        from repro.obs.catalog import family

        with self._lock:
            _count, segment_bytes = self._segment_bytes()
            entries = len(self._cache)
        family(registry, "repro_serve_result_cache_hits_total").inc(
            self.cache_hits
        )
        family(registry, "repro_serve_result_cache_misses_total").inc(
            self.cache_misses
        )
        family(registry, "repro_serve_result_cache_entries").inc(entries)
        family(registry, "repro_serve_batches_dispatched_total").inc(
            self.batches_dispatched
        )
        family(registry, "repro_serve_shards_dispatched_total").inc(
            self.shards_dispatched
        )
        family(registry, "repro_serve_forest_loads_total").inc(self.forest_loads)
        family(registry, "repro_serve_shm_freezes_total").inc(self.shm_freezes)
        family(registry, "repro_serve_shm_segment_bytes").inc(segment_bytes)

    def stats(self) -> dict:
        """Dispatcher counters (cache effectiveness, dispatch volume)."""
        shm_attaches = self._par.worker_attaches()
        with self._lock:
            shared_segments, segment_bytes = self._segment_bytes()
            return {
                "workers": self.workers,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "cache_entries": len(self._cache),
                "batches_dispatched": self.batches_dispatched,
                "shards_dispatched": self.shards_dispatched,
                "batch_retries": self._par.batch_retries,
                "worker_restarts": self._par.worker_restarts,
                "forest_loads": self.forest_loads,
                "shm_freezes": self.shm_freezes,
                "shm_attaches": shm_attaches,
                "shared_segments": shared_segments,
                "shm_segment_bytes": segment_bytes,
            }
