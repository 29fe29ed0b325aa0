"""Asyncio query front end: single queries coalesce into sweeps.

A :class:`BatchingServer` accepts *individual* queries and
transparently merges everything that arrives within a small latency
budget into one batch per named function, evaluated on a
:class:`~repro.serve.pool.ForestPool` off the event loop.  Interactive
traffic therefore gets the amortized ``O(nodes + queries)`` cost of
the levelized sweep while each caller still sees a single answer:

* :meth:`BatchingServer.submit` queues a query and calls its
  ``deliver`` callback once the batch answers;
  :meth:`BatchingServer.query` wraps that in a future;
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
line) — the transport behind ``python -m repro.serve``.  Query lines go
straight to :meth:`BatchingServer.submit`; the replies a batch delivers
to one connection leave in one socket write.
"""

from __future__ import annotations

import asyncio
import json
from typing import Callable, List, Mapping, Optional, Tuple

from repro import obs
from repro.core.exceptions import BBDDError
from repro.obs.catalog import family as _metric
from repro.par.dispatch import CrewError
from repro.serve.bulk import ServeError
from repro.serve.pool import ForestPool

#: A query's answer callback: called once with the ``bool`` result or
#: the :class:`ServeError` that failed the query.
Deliver = Callable[[object], None]


def _query_error(exc: Exception) -> bool:
    """True when a batch failed on its queries rather than on the pool.

    The dispatcher encodes every batch, so encoder errors surface there
    as ``TypeError`` or a :class:`BBDDError` (``VariableError``
    included) in every pool mode.  A :class:`ServeError` caused by a
    crew failure (a dead, failing or silent worker) is the pool's.
    """
    if isinstance(exc.__cause__, CrewError):
        return False
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
        self._pending: List[Tuple[str, Mapping, float, Deliver]] = []
        self._timer: Optional[asyncio.TimerHandle] = None
        # Strong references to in-flight flush tasks: the event loop
        # keeps only weak ones, and a collected flush task would leave
        # every pending future unresolved.
        self._flush_tasks: set = set()
        self.queries = 0
        self.batches_flushed = 0
        # Event-driven metrics record straight into the global registry
        # (bounded memory — the old unbounded latency list is gone), once
        # per flush where they can; the queue depth is sampled at scrape
        # time (collect_metrics).
        registry = obs.REGISTRY
        self._latency_hist = _metric(
            registry, "repro_serve_request_latency_seconds"
        )
        self._batch_size_hist = _metric(registry, "repro_serve_batch_size")
        self._queries_total = _metric(registry, "repro_serve_queries_total")
        self._flushes_total = _metric(
            registry, "repro_serve_batches_flushed_total"
        )
        obs.track(self)

    def warm(self) -> List[str]:
        """Freeze the forest and attach it in every pool worker; root names."""
        return self.pool.warm(self.path)

    async def query(self, name: str, assignment: Mapping) -> bool:
        """Evaluate one assignment of the stored function ``name``.

        The call resolves when the query's batch does — at most
        ``batch_window`` seconds plus one pool round trip later.
        """
        future = asyncio.get_running_loop().create_future()

        def deliver(value) -> None:
            if future.done():  # the caller cancelled
                return
            if isinstance(value, Exception):
                future.set_exception(value)
            else:
                future.set_result(value)

        self.submit(name, assignment, deliver)
        return await future

    def submit(self, name: str, assignment: Mapping, deliver: Deliver) -> None:
        """Queue one assignment of the stored function ``name``.

        ``deliver`` is called exactly once, on the event loop, when the
        query's batch answers: with the ``bool`` result, or with the
        :class:`ServeError` that failed this query.  A ``name`` that is
        not a string raises :class:`ServeError` here and queues nothing,
        so it cannot fail the batch it would have joined.
        """
        if not isinstance(name, str):
            raise ServeError(
                f"function name must be a string, got {type(name).__name__}"
            )
        loop = asyncio.get_running_loop()
        self._pending.append((name, assignment, loop.time(), deliver))
        self.queries += 1
        if len(self._pending) >= self.max_batch:
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            self._spawn_flush(loop)
        elif self._timer is None:
            self._timer = loop.call_later(self.batch_window, self._flush_soon)

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
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self.batches_flushed += 1
        self._flushes_total.inc()
        self._queries_total.inc(len(pending))
        loop = asyncio.get_running_loop()
        by_name: dict = {}
        for name, assignment, start, deliver in pending:
            by_name.setdefault(name, []).append((assignment, start, deliver))

        async def run_group(name: str, group: list) -> None:
            assignments = [assignment for assignment, _start, _deliver in group]
            try:
                values = await loop.run_in_executor(
                    None, self.pool.evaluate_batch, self.path, name, assignments
                )
            except Exception as exc:  # noqa: BLE001 - delivered per query
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
            answered = False
            for (_assignment, start, deliver), value in zip(group, values):
                if isinstance(value, Exception):
                    if not isinstance(value, ServeError):
                        value = ServeError(str(value))
                else:
                    observe(now - start)
                    answered = True
                deliver(value)
            if answered:
                # Labelled only once the pool has answered a query of the
                # group: a name the forest does not store fails them all,
                # so client-chosen names cannot add series.
                self._batch_size_hist.labels(function=name).observe(len(group))

        await asyncio.gather(
            *(run_group(name, group) for name, group in by_name.items())
        )

    def _evaluate_each(self, name: str, assignments: list) -> list:
        """One pool call per query: its value, or the exception it raised."""
        values = []
        for assignment in assignments:
            try:
                values.append(self.pool.evaluate(self.path, name, assignment))
            except Exception as exc:  # noqa: BLE001 - delivered per query
                values.append(exc)
        return values

    async def p_one(self, name: str, weights: Optional[Mapping] = None) -> float:
        """``P[f = 1]`` of the stored function ``name`` (float mode).

        One weighted sweep on the pool (zero-copy against the frozen
        segment), off the event loop.  ``weights`` maps
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

    def collect_metrics(self, registry) -> None:
        """Sample the queries waiting for a flush into an obs registry."""
        _metric(registry, "repro_serve_queue_depth").inc(len(self._pending))

    def metrics_snapshot(self) -> dict:
        """The merged metrics snapshot: this process plus pool workers.

        Local instrumentation (serve histograms, the dispatcher's pool
        counters) comes from :func:`repro.obs.snapshot`; worker
        processes ship their own snapshots back over the pool's result
        channel and merge in.  Rendered by ``{"op": "metrics"}`` and the
        ``--metrics-port`` HTTP endpoint.
        """
        return obs.merge_snapshots(obs.snapshot(), *self.pool.metric_snapshots())


#: Unanswered requests one TCP connection may hold.  At the cap the
#: connection reads no further line until a reply goes out, so a client
#: that pipelines without end holds bounded server memory; one
#: connection can still fill a whole default batch (``max_batch``).
MAX_IN_FLIGHT = 1024

#: Requests answered by a task of their own rather than a batch.
_TASK_OPS = ("stats", "metrics", "p_one", "marginals")


def _result_line(request_id, result) -> bytes:
    return json.dumps({"id": request_id, "result": result}).encode() + b"\n"


def _query_line(request_id, value: bool) -> bytes:
    """A query's reply line for its ``bool`` result, as :func:`_result_line`.

    The encoded id goes into a constant template; an ``int`` id, the
    common case, is written by ``str`` rather than the JSON encoder.
    """
    text = str(request_id) if type(request_id) is int else json.dumps(request_id)
    tail = b', "result": true}\n' if value else b', "result": false}\n'
    return b'{"id": ' + text.encode() + tail


def _error_line(request_id, exc: Exception) -> bytes:
    error = f"{type(exc).__name__}: {exc}"
    return json.dumps({"id": request_id, "error": error}).encode() + b"\n"


async def handle_client(server: BatchingServer, reader, writer, on_request=None) -> None:
    """Serve one TCP client speaking newline-delimited JSON.

    Requests: ``{"f": name, "assignment": {...}, "id": any?}``,
    ``{"op": "p_one", "f": name, "weights": {...}?}`` (the weighted
    probability ``P[f = 1]``),
    ``{"op": "marginals", "f": name, "weights": {...}?,
    "variables": [...]?}`` (posterior variable marginals),
    ``{"op": "stats"}`` or ``{"op": "metrics"}`` (the merged
    dispatcher + workers metrics snapshot); responses echo ``id`` and
    carry ``result`` or ``error``.  Every line gets exactly one
    response, and an error answers only the line that caused it.

    A query line is decoded and passed straight to
    :meth:`BatchingServer.submit`, so the queries a client pipelines on
    one connection coalesce into sweeps; ``stats``, ``metrics``,
    ``p_one`` and ``marginals`` run as one task each.  Responses may
    therefore interleave out of request order — correlate by ``id``.
    The responses that become ready in one event-loop pass leave in one
    socket write.  Reading pauses while the connection holds
    :data:`MAX_IN_FLIGHT` unanswered requests, or while the client
    leaves its responses unread (:meth:`~asyncio.StreamWriter.drain`).
    At end of input the outstanding requests are answered before the
    connection closes.
    """
    loop = asyncio.get_running_loop()
    replies: List[bytes] = []  # response lines due out in the next write
    unanswered = 0
    answered = asyncio.Event()
    tasks = set()

    def write_out() -> None:
        count = len(replies)
        data = b"".join(replies)
        replies.clear()
        if writer.is_closing():  # the client went away
            return
        writer.write(data)
        if on_request is not None:
            for _ in range(count):
                on_request()

    def reply(line: bytes) -> None:
        nonlocal unanswered
        if not replies:
            loop.call_soon(write_out)
        replies.append(line)
        unanswered -= 1
        answered.set()

    def deliver_to(request_id) -> Deliver:
        def deliver(value) -> None:
            if isinstance(value, Exception):
                reply(_error_line(request_id, value))
            else:
                reply(_query_line(request_id, value))

        return deliver

    async def answer(request_id, op, request: dict) -> None:
        try:
            if op == "stats":
                result = server.stats()
            elif op == "metrics":
                result = server.metrics_snapshot()
            elif op == "p_one":
                result = await server.p_one(request["f"], request.get("weights"))
            else:
                result = await server.marginals(
                    request["f"], request.get("weights"), request.get("variables")
                )
            line = _result_line(request_id, result)
        except Exception as exc:  # noqa: BLE001 - reported to the client
            line = _error_line(request_id, exc)
        reply(line)

    def dispatch(line: bytes) -> None:
        request_id = None
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ServeError(
                    f"request must be a JSON object, got {type(request).__name__}"
                )
            request_id = request.get("id")
            op = request.get("op")
            if op != "stats" and op != "metrics" and "f" not in request:
                raise ServeError('request names no function (missing "f")')
            if op in _TASK_OPS:
                task = loop.create_task(answer(request_id, op, request))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            else:
                server.submit(
                    request["f"], request.get("assignment", {}), deliver_to(request_id)
                )
        except Exception as exc:  # noqa: BLE001 - reported to the client
            reply(_error_line(request_id, exc))

    try:
        while True:
            try:
                await writer.drain()
                while unanswered >= MAX_IN_FLIGHT:
                    answered.clear()
                    await answered.wait()
                line = await reader.readline()
            except ConnectionError:  # the client reset the connection
                break
            except ValueError:
                # The request line exceeded the stream limit (see
                # :func:`serve_tcp`); the line-based protocol cannot
                # resynchronize, so report it and read no further.
                unanswered += 1
                reply(_error_line(None, ServeError("request line too long")))
                break
            if not line:
                break
            unanswered += 1
            dispatch(line)
        while unanswered:
            answered.clear()
            await answered.wait()
        if replies:
            write_out()
        await writer.drain()
    except ConnectionError:  # the client went away before its answers
        pass
    except asyncio.CancelledError:
        # Server shutdown.  The stream callback of Python 3.11 and 3.12
        # reports a cancelled handler task as an error, so end quietly.
        pass
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
