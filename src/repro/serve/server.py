"""Asyncio query front end: single queries coalesce into sweeps.

A :class:`BatchingServer` accepts *individual* queries (``await
server.query(name, assignment)``) and transparently merges everything
that arrives within a small latency budget into one batch per named
function, evaluated on a :class:`~repro.serve.pool.ForestPool` off the
event loop.  Interactive traffic therefore gets the amortized
``O(nodes + queries)`` cost of the levelized sweep while each caller
still sees a plain per-query future:

* the first query of a burst arms a flush timer (``batch_window``
  seconds);
* reaching ``max_batch`` pending queries flushes immediately;
* per-query wall-clock latencies land in the
  ``repro_serve_request_latency_seconds`` histogram (:mod:`repro.obs`),
  so deployments can watch the p50/p99 cost of the coalescing
  trade-off in bounded memory, and :meth:`BatchingServer.
  metrics_snapshot` merges the dispatcher's metrics with every pool
  worker's for one scrape-ready view.

:func:`serve_tcp` exposes the same surface over a newline-delimited
JSON TCP protocol (one request object per line, one response object per
line) — the transport behind ``python -m repro.serve``.
"""

from __future__ import annotations

import asyncio
import json
from typing import List, Mapping, Optional, Tuple

from repro import obs
from repro.core.exceptions import BBDDError
from repro.obs.catalog import family as _metric
from repro.par.dispatch import CrewError, TaskFailed
from repro.serve.bulk import ServeError
from repro.serve.pool import ForestPool


def _query_error(exc: Exception) -> bool:
    """True when a batch failed on its queries rather than on the pool.

    Encoder errors surface as ``TypeError`` or a :class:`BBDDError`
    (``VariableError`` included) from an inline pool, and as a
    :class:`ServeError` caused by :class:`TaskFailed` from a worker.
    Any other crew failure (a dead or silent worker) is the pool's.
    """
    cause = exc.__cause__
    if isinstance(cause, CrewError):
        return isinstance(cause, TaskFailed)
    return isinstance(exc, (TypeError, BBDDError))


class BatchingServer:
    """Coalesce single queries against one forest into pool batches.

    Parameters
    ----------
    pool:
        The :class:`~repro.serve.pool.ForestPool` doing the evaluation.
    path:
        The ``.bbdd`` forest container served.
    batch_window:
        Seconds a query may wait for companions before its batch
        flushes (the latency budget of coalescing).
    max_batch:
        Pending-query count that triggers an immediate flush.
    """

    def __init__(
        self,
        pool: ForestPool,
        path,
        batch_window: float = 0.002,
        max_batch: int = 1024,
    ) -> None:
        if batch_window < 0:
            raise ServeError("batch_window must be >= 0")
        if max_batch < 1:
            raise ServeError("max_batch must be positive")
        self.pool = pool
        self.path = path
        self.batch_window = batch_window
        self.max_batch = max_batch
        self._pending: List[Tuple[str, Mapping, float, asyncio.Future]] = []
        self._timer: Optional[asyncio.TimerHandle] = None
        # Strong references to in-flight flush tasks: the event loop
        # keeps only weak ones, and a collected flush task would leave
        # every pending future unresolved.
        self._flush_tasks: set = set()
        self.queries = 0
        self.batches_flushed = 0
        # Event-driven metrics record straight into the global registry
        # (bounded memory — the old unbounded latency list is gone).
        registry = obs.REGISTRY
        self._latency_hist = _metric(
            registry, "repro_serve_request_latency_seconds"
        )
        self._batch_size_hist = _metric(registry, "repro_serve_batch_size")
        self._queue_depth = _metric(registry, "repro_serve_queue_depth")
        self._queries_total = _metric(registry, "repro_serve_queries_total")
        self._flushes_total = _metric(
            registry, "repro_serve_batches_flushed_total"
        )

    def warm(self) -> List[str]:
        """Pre-load the forest into every pool worker; root names."""
        return self.pool.warm(self.path)

    async def query(self, name: str, assignment: Mapping) -> bool:
        """Evaluate one assignment of the stored function ``name``.

        The call resolves when the query's batch does — at most
        ``batch_window`` seconds plus one pool round trip later.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((name, assignment, loop.time(), future))
        self.queries += 1
        self._queries_total.inc()
        self._queue_depth.set(len(self._pending))
        if len(self._pending) >= self.max_batch:
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            self._spawn_flush(loop)
        elif self._timer is None:
            self._timer = loop.call_later(self.batch_window, self._flush_soon)
        return await future

    def _spawn_flush(self, loop) -> None:
        task = loop.create_task(self._flush())
        self._flush_tasks.add(task)
        task.add_done_callback(self._flush_tasks.discard)

    def _flush_soon(self) -> None:
        self._timer = None
        self._spawn_flush(asyncio.get_running_loop())

    async def _flush(self) -> None:
        pending = self._pending
        if not pending:
            return
        self._pending = []
        self._queue_depth.set(0)
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self.batches_flushed += 1
        self._flushes_total.inc()
        loop = asyncio.get_running_loop()
        by_name: dict = {}
        for name, assignment, start, future in pending:
            by_name.setdefault(name, []).append((assignment, start, future))

        async def run_group(name: str, group: list) -> None:
            assignments = [assignment for assignment, _start, _future in group]
            self._batch_size_hist.labels(function=name).observe(len(group))
            try:
                values = await loop.run_in_executor(
                    None, self.pool.evaluate_batch, self.path, name, assignments
                )
            except Exception as exc:  # noqa: BLE001 - delivered per future
                if len(group) > 1 and _query_error(exc):
                    # One malformed query must not fail the queries other
                    # clients coalesced with it: answer each alone, so an
                    # error names only its own query.
                    values = await loop.run_in_executor(
                        None, self._evaluate_each, name, assignments
                    )
                else:
                    values = [exc] * len(group)
            now = loop.time()
            observe = self._latency_hist.observe
            for (_assignment, start, future), value in zip(group, values):
                if isinstance(value, Exception):
                    if not future.done():
                        if not isinstance(value, ServeError):
                            value = ServeError(str(value))
                        future.set_exception(value)
                    continue
                observe(now - start)
                if not future.done():
                    future.set_result(value)

        await asyncio.gather(
            *(run_group(name, group) for name, group in by_name.items())
        )

    def _evaluate_each(self, name: str, assignments: list) -> list:
        """One pool call per query: its value, or the exception it raised."""
        values = []
        for assignment in assignments:
            try:
                values.append(self.pool.evaluate(self.path, name, assignment))
            except Exception as exc:  # noqa: BLE001 - delivered per future
                values.append(exc)
        return values

    async def p_one(self, name: str, weights: Optional[Mapping] = None) -> float:
        """``P[f = 1]`` of the stored function ``name`` (float mode).

        One weighted sweep on the pool (zero-copy against the shared
        segment where available), off the event loop.  ``weights`` maps
        variable names to ``P[x = 1]``; unlisted variables default to
        1/2.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, self.pool.p_one, self.path, name, weights
        )

    async def marginals(
        self,
        name: str,
        weights: Optional[Mapping] = None,
        variables: Optional[List] = None,
    ) -> dict:
        """Posterior marginals ``P[x = 1 | f = 1]`` of ``name`` (float mode)."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, self.pool.marginals, self.path, name, weights, variables
        )

    def latency_percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100) of query latencies.

        Estimated from the ``repro_serve_request_latency_seconds``
        histogram buckets (PromQL-style linear interpolation), so the
        cost stays O(buckets) regardless of traffic volume.  ``q``
        outside 0..100 raises :class:`ServeError` — the interpolation
        would otherwise silently extrapolate past the bucket range and
        report a latency no query ever had.
        """
        if not 0 <= q <= 100:
            raise ServeError(f"percentile must be within 0..100, got {q!r}")
        if not self._latency_hist.count:
            return 0.0
        return self._latency_hist.quantile(q / 100.0)

    def stats(self) -> dict:
        """Coalescing counters plus the pool's dispatcher stats."""
        stats = {
            "queries": self.queries,
            "batches_flushed": self.batches_flushed,
            "mean_batch": (
                self.queries / self.batches_flushed if self.batches_flushed else 0.0
            ),
            "p50_latency_s": self.latency_percentile(50),
            "p99_latency_s": self.latency_percentile(99),
        }
        stats.update(self.pool.stats())
        return stats

    def metrics_snapshot(self) -> dict:
        """The merged metrics snapshot: this process plus pool workers.

        Local instrumentation (serve histograms, tracked managers and
        the inline host) comes from :func:`repro.obs.snapshot`; worker
        processes ship their own snapshots back over the pool's result
        channel and merge in.  Rendered by ``{"op": "metrics"}`` and the
        ``--metrics-port`` HTTP endpoint.
        """
        return obs.merge_snapshots(obs.snapshot(), *self.pool.metric_snapshots())


async def handle_client(server: BatchingServer, reader, writer, on_request=None) -> None:
    """Serve one TCP client speaking newline-delimited JSON.

    Requests: ``{"f": name, "assignment": {...}, "id": any?}``,
    ``{"op": "p_one", "f": name, "weights": {...}?}`` (the weighted
    probability ``P[f = 1]``),
    ``{"op": "marginals", "f": name, "weights": {...}?,
    "variables": [...]?}`` (posterior variable marginals),
    ``{"op": "stats"}`` or ``{"op": "metrics"}`` (the merged
    dispatcher + workers metrics snapshot); responses echo ``id`` and
    carry ``result`` or ``error``.  Each request line is handled as its own task, so a
    client that pipelines many queries on one connection still gets
    them coalesced into sweeps; responses may therefore interleave out
    of request order — correlate by ``id``.
    """
    write_lock = asyncio.Lock()
    tasks = set()

    async def answer(line: bytes) -> None:
        request_id = None
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ServeError(
                    f"request must be a JSON object, got {type(request).__name__}"
                )
            request_id = request.get("id")
            op = request.get("op")
            if op == "stats":
                response = {"id": request_id, "result": server.stats()}
            elif op == "metrics":
                response = {"id": request_id, "result": server.metrics_snapshot()}
            elif "f" not in request:
                raise ServeError('request names no function (missing "f")')
            elif op == "p_one":
                value = await server.p_one(request["f"], request.get("weights"))
                response = {"id": request_id, "result": value}
            elif op == "marginals":
                value = await server.marginals(
                    request["f"],
                    request.get("weights"),
                    request.get("variables"),
                )
                response = {"id": request_id, "result": value}
            else:
                value = await server.query(
                    request["f"], request.get("assignment", {})
                )
                response = {"id": request_id, "result": value}
        except Exception as exc:  # noqa: BLE001 - reported to the client
            response = {"id": request_id, "error": f"{type(exc).__name__}: {exc}"}
        try:
            async with write_lock:
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
        except (ConnectionError, RuntimeError):  # client went away
            return
        if on_request is not None:
            on_request()

    try:
        while True:
            try:
                line = await reader.readline()
            except (asyncio.CancelledError, ConnectionError):
                # Server shutdown (or client reset) while waiting for
                # the next request: end this connection quietly.
                break
            except ValueError:
                # Request line exceeded the stream limit (see
                # :func:`serve_tcp`); the line-based protocol cannot
                # resynchronize, so report and drop the connection.
                async with write_lock:
                    writer.write(
                        json.dumps(
                            {"id": None, "error": "ServeError: request line too long"}
                        ).encode()
                        + b"\n"
                    )
                    await writer.drain()
                break
            if not line:
                break
            task = asyncio.get_running_loop().create_task(answer(line))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
    finally:
        writer.close()


#: Per-line stream limit of the TCP front end: large enough for
#: queries over thousands of variables, finite so a garbage client
#: cannot buffer unboundedly.
TCP_LINE_LIMIT = 1 << 22


async def serve_tcp(
    server: BatchingServer,
    host: str = "127.0.0.1",
    port: int = 0,
    on_request=None,
    limit: int = TCP_LINE_LIMIT,
):
    """Start the TCP front end; returns the listening ``asyncio.Server``."""

    async def _handler(reader, writer):
        await handle_client(server, reader, writer, on_request=on_request)

    return await asyncio.start_server(_handler, host, port, limit=limit)
