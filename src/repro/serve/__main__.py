"""``python -m repro.serve`` — serve a forest container over TCP.

Speaks newline-delimited JSON (one request per line)::

    {"f": "f0", "assignment": {"a": 1, "b": 0}, "id": 7}
    {"op": "stats"}

and answers ``{"id": ..., "result": ...}`` / ``{"id": ..., "error":
...}`` per line.  Single queries arriving within ``--batch-window``
seconds coalesce into one levelized sweep per function.
"""

from __future__ import annotations

import argparse
import asyncio
from typing import Optional, Sequence

from repro.serve.pool import ForestPool
from repro.serve.server import BatchingServer, serve_tcp


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve batched queries against a .bbdd forest dump over TCP.",
    )
    parser.add_argument("forest", help="path to a .bbdd forest container")
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8642, help="TCP port (0 picks a free one)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes (0 = serve inline in this process)",
    )
    parser.add_argument(
        "--max-forests",
        type=int,
        default=8,
        help="dumps kept frozen (and attached per worker), least recently used out",
    )
    parser.add_argument(
        "--batch-window",
        type=float,
        default=0.002,
        help="seconds a query may wait to coalesce into a batch",
    )
    parser.add_argument(
        "--max-batch", type=int, default=1024, help="flush threshold in queries"
    )
    parser.add_argument(
        "--max-requests",
        type=int,
        default=None,
        help="exit after answering this many requests (smoke tests)",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help=(
            "also serve Prometheus text on GET /metrics at this port "
            "(0 picks a free one; off by default)"
        ),
    )
    return parser


async def _serve(args: argparse.Namespace) -> None:
    pool = ForestPool(workers=args.workers, max_forests=args.max_forests)
    server = BatchingServer(
        pool,
        args.forest,
        batch_window=args.batch_window,
        max_batch=args.max_batch,
    )
    names = server.warm()
    done = asyncio.Event()
    answered = 0

    def on_request() -> None:
        nonlocal answered
        answered += 1
        if args.max_requests is not None and answered >= args.max_requests:
            done.set()

    exporter = None
    if args.metrics_port is not None:
        from repro.obs import MetricsHTTPServer

        exporter = MetricsHTTPServer(
            port=args.metrics_port,
            snapshot_fn=server.metrics_snapshot,
            host=args.host,
        ).start()
    # SIGTERM/SIGINT trigger the same graceful path as --max-requests:
    # the finally block below closes the pool, which unlinks every
    # shared-memory segment — an orchestrator's stop must not leak
    # /dev/shm space.  (Unsupported on some platforms/loops.)
    import signal

    loop = asyncio.get_running_loop()
    handled_signals = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, done.set)
            handled_signals.append(signum)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    tcp = await serve_tcp(server, args.host, args.port, on_request=on_request)
    address = tcp.sockets[0].getsockname()
    print(
        f"serving {args.forest} on {address[0]}:{address[1]} "
        f"(functions: {', '.join(names)})",
        flush=True,
    )
    if exporter is not None:
        print(
            f"metrics on http://{args.host}:{exporter.port}/metrics",
            flush=True,
        )
    try:
        await done.wait()
    finally:
        for signum in handled_signals:
            loop.remove_signal_handler(signum)
        tcp.close()
        await tcp.wait_closed()
        if exporter is not None:
            exporter.close()
        pool.close()
        stats = server.stats()
        print(
            f"served {stats['queries']} queries in {stats['batches_flushed']} "
            f"batches (p50 {stats['p50_latency_s'] * 1000:.2f} ms)",
            flush=True,
        )


def main(argv: Optional[Sequence[str]] = None) -> None:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        asyncio.run(_serve(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass


if __name__ == "__main__":
    main()
