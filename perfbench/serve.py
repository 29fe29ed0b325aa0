"""Workload ``serve``: single queries over TCP to ``python -m repro.serve``.

Set-up builds the fast-profile C1908 forest, dumps its largest output
(713 nodes) and starts the server with a one-worker shared-memory pool.
The sweep is cheap, so serving overhead dominates.  One asyncio client
holds two TCP connections (the machine this was tuned on has two
cores) and drives two loops:

* an **open loop**: requests due on a seeded Poisson schedule at a
  fixed rate below the knee, each latency timed from its due time;
* **closed-loop rounds**: a fixed number of requests in flight per
  connection, each sent as soon as an earlier one is answered.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys

from repro import io
from repro.circuits.registry import TABLE1_ROWS
from repro.network.build import build

from perfbench.measure import (
    EchoSpeed,
    Workload,
    core_metrics,
    percentile,
    process_peak_rss_mb,
)

CONNECTIONS = 2
#: Requests per second of the open loop, below the knee at about
#: 5,000-6,000 req/s.
OPEN_RATE = 2000.0
#: Share of the run spent in the open loop: about 17,500 requests in
#: a 25 s run, so the p99 rests on about 175 tail samples.
OPEN_SHARE = 0.35
#: Requests in flight per connection in the closed loop.  Measured
#: throughput by level (README.md): 1: ~420 req/s, 4: ~1,200, 16:
#: ~4,400, 64: ~8,000, 128: ~8,400, 256: ~8,300.  From 64 on the server
#: and its worker use one core in all and the client about a quarter,
#: so the server is the limit; 64 is the start of that plateau.
IN_FLIGHT = 64
#: Requests per closed-loop round: about 30 times the 128 in flight, so
#: ramp-up and drain are a small part of a round (about 0.5 s).
CLOSED_REQUESTS = 4000
REPLY_TIMEOUT = 30.0
SMOKE = {"open_seconds": 0.2, "closed_requests": 64}

_BANNER = re.compile(r" on ([^\s:]+):(\d+) ")


class _Connection:
    """One TCP connection; replies are matched to requests by id."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.waiting = {}
        self.task = asyncio.get_running_loop().create_task(self._read())

    async def _read(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            line = await self.reader.readline()
            if not line:
                break
            now = loop.time()
            reply = json.loads(line)
            future = self.waiting.pop(reply.get("id"), None)
            if future is not None and not future.done():
                future.set_result((now, reply))
        for future in self.waiting.values():
            if not future.done():
                future.set_exception(ConnectionError("server closed the connection"))

    def send(self, request_id, line: bytes) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        self.waiting[request_id] = future
        self.writer.write(line)
        return future

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        self.task.cancel()
        try:
            await self.task
        except (asyncio.CancelledError, ConnectionError):
            pass


class ServeWorkload(Workload):
    name = "serve"
    speed_kernel = EchoSpeed
    # Starting the server varies by a third from one start to the next.
    setup_reps = 9
    report = ("serve_p50_ms", "serve_p99_ms", "serve_qps")

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        self.server = None
        self.loop = None
        self.connections = []
        self.next_id = 0

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        rows = {row.name: row for row in TABLE1_ROWS}
        with self.probe.step("network.generate"):
            network = rows["C1908"].build(full=False)
        with self.probe.step("network.build"):
            manager, functions = build(network, backend="bbdd")
        self.fname = max(sorted(functions), key=lambda n: functions[n].node_count())
        self.function = functions[self.fname]
        with self.probe.step("io.dumps"):
            data = io.dumps(manager, {self.fname: self.function})
        self.path = os.path.join(self.ctx.workdir, f"serve-{os.getpid()}.bbdd")
        with open(self.path, "wb") as out:
            out.write(data)
        self.bytes_per_node = len(data) / self.function.node_count()
        self.build_stats = manager.table_stats()
        with self.probe.step("serve.start"):
            self.server, self.address = self._start_server()

    def _start_server(self):
        src = os.path.join(self.ctx.root, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        command = [
            sys.executable,
            "-m",
            "repro.serve",
            self.path,
            "--port",
            "0",
            "--workers",
            "1",
        ]
        server = subprocess.Popen(
            command, stdout=subprocess.PIPE, env=env, cwd=self.ctx.root
        )
        banner = server.stdout.readline().decode()
        match = _BANNER.search(banner)
        if match is None:
            self._stop(server)
            raise RuntimeError(f"repro.serve did not start: {banner!r}")
        return server, (match.group(1), int(match.group(2)))

    @staticmethod
    def _stop(server) -> None:
        if server.poll() is None:
            server.send_signal(signal.SIGTERM)
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
        server.stdout.close()

    def discard_setup(self) -> None:
        self._stop(self.server)
        self.server = None

    # -- the client ----------------------------------------------------------

    def prepare(self) -> None:
        self.support = sorted(self.function.support())
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._connect())
        self.stats_before = self._stats()
        self.closed_requests = (
            SMOKE["closed_requests"] if self.ctx.smoke else CLOSED_REQUESTS
        )
        self.pending_round = self._requests(self.closed_requests)

    async def _connect(self) -> None:
        host, port = self.address
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection(host, port)
            self.connections.append(_Connection(reader, writer))

    def _stats(self) -> dict:
        async def ask():
            reply_future = self.connections[0].send(
                "stats", b'{"op": "stats", "id": "stats"}\n'
            )
            _now, reply = await asyncio.wait_for(reply_future, REPLY_TIMEOUT)
            return reply["result"]

        return self.loop.run_until_complete(ask())

    def _requests(self, count: int):
        """Seeded assignments, their encoded request lines and ids."""
        width = len(self.support)
        assignments = []
        lines = []
        ids = []
        for _ in range(count):
            bits = self.rng.getrandbits(width)
            assignment = {var: bits >> k & 1 for k, var in enumerate(self.support)}
            request_id = self.next_id
            self.next_id += 1
            assignments.append(assignment)
            ids.append(request_id)
            lines.append(
                json.dumps(
                    {"f": self.fname, "assignment": assignment, "id": request_id}
                ).encode()
                + b"\n"
            )
        return assignments, lines, ids

    def _verify(self, assignments, replies, what: str) -> None:
        """Every reply must equal the in-process answer; errors fail."""
        expected = self.function.evaluate_batch(assignments)
        bad = sum(
            1
            for want, reply in zip(expected, replies)
            if reply is None or "error" in reply or reply.get("result") is not want
        )
        self.ledger.count(len(assignments), bad, what)

    async def _gather(self, futures):
        done = await asyncio.gather(
            *(asyncio.wait_for(f, REPLY_TIMEOUT) for f in futures),
            return_exceptions=True,
        )
        return [None if isinstance(item, BaseException) else item for item in done]

    # -- open loop ------------------------------------------------------------

    def phase(self, seconds: float) -> dict:
        duration = SMOKE["open_seconds"] if self.ctx.smoke else OPEN_SHARE * seconds
        count = max(1, int(OPEN_RATE * duration))
        offsets = []
        t = 0.0
        for _ in range(count):
            t += self.rng.expovariate(OPEN_RATE)
            offsets.append(t)
        assignments, lines, ids = self._requests(count)
        with self.probe.step("serve.open_loop"):
            latencies, lateness, replies = self.loop.run_until_complete(
                self._open_loop(offsets, lines, ids)
            )
        self._verify(assignments, replies, "open-loop requests")
        return {
            "serve_p50_ms": 1000 * percentile(latencies, 0.50),
            "serve_p99_ms": 1000 * percentile(latencies, 0.99),
            "client.late_ms": 1000 * percentile(lateness, 0.99),
            "open_loop_requests": count,
        }

    async def _open_loop(self, offsets, lines, ids):
        loop = asyncio.get_running_loop()
        start = loop.time() + 0.01
        futures = []
        due = []
        lateness = []
        for i, offset in enumerate(offsets):
            at = start + offset
            now = loop.time()
            if at > now:
                await asyncio.sleep(at - now)
                now = loop.time()
            connection = self.connections[i % CONNECTIONS]
            futures.append(connection.send(ids[i], lines[i]))
            due.append(at)
            lateness.append(now - at)
        answers = await self._gather(futures)
        latencies = [
            answer[0] - at for answer, at in zip(answers, due) if answer is not None
        ]
        replies = [None if answer is None else answer[1] for answer in answers]
        return latencies, lateness, replies

    # -- closed loop ------------------------------------------------------------

    def round(self):
        assignments, lines, ids = self.pending_round
        with self.probe.step("serve.closed_loop"):
            replies = self.loop.run_until_complete(self._closed_loop(lines, ids))
        return assignments, replies

    async def _closed_loop(self, lines, ids):
        replies = [None] * len(lines)
        cursor = iter(range(len(lines)))

        async def user(connection):
            for i in cursor:
                try:
                    _now, reply = await asyncio.wait_for(
                        connection.send(ids[i], lines[i]), REPLY_TIMEOUT
                    )
                except (asyncio.TimeoutError, ConnectionError):
                    continue
                replies[i] = reply

        await asyncio.gather(
            *(
                user(connection)
                for connection in self.connections
                for _ in range(IN_FLIGHT)
            )
        )
        return replies

    def check(self, outcome, unit) -> dict:
        assignments, replies = outcome
        self._verify(assignments, replies, "closed-loop requests")
        self.pending_round = self._requests(self.closed_requests)
        return {"serve_qps": len(assignments) / unit.step_seconds("serve.closed_loop")}

    # -- results ---------------------------------------------------------------

    def extras(self) -> dict:
        before, after = self.stats_before, self._stats()

        def delta(key):
            return after[key] - before[key]

        hits, misses = delta("cache_hits"), delta("cache_misses")
        flushed = delta("batches_flushed")
        values = core_metrics([self.build_stats])
        values.update(
            {
                "io.bytes_per_node": self.bytes_per_node,
                "par.segment_bytes": after["shm_segment_bytes"],
                "pool.batches_dispatched": delta("batches_dispatched"),
                "pool.shards_dispatched": delta("shards_dispatched"),
                "pool.result_cache_hit_rate": hits / max(hits + misses, 1),
                "pool.worker_restarts": delta("worker_restarts"),
                "pool.batch_retries": delta("batch_retries"),
                "server.batches_flushed": flushed,
                "server.mean_batch": delta("queries") / max(flushed, 1),
                "server.p50_ms": 1000 * after["p50_latency_s"],
                "server.p99_ms": 1000 * after["p99_latency_s"],
            }
        )
        return values

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.server.pid)

    async def _disconnect(self) -> None:
        await asyncio.gather(*(c.close() for c in self.connections))

    def close(self) -> None:
        try:
            if self.loop is not None:
                self.loop.run_until_complete(self._disconnect())
                self.loop.close()
        finally:
            if self.server is not None:
                self._stop(self.server)
            path = getattr(self, "path", None)
            if path is not None and os.path.exists(path):
                os.remove(path)
