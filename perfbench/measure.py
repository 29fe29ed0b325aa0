"""Timing, spans, correctness ledger and the metric catalogue.

Everything here lives in the benchmark, outside the package under
test: spans are opened around the benchmark's own calls into a layer,
so per-layer times are measured from the caller's side.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import socket
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

#: End-to-end metrics: every workload reports all of them, untraced.
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("round_s", "s"),
]

#: Per-layer metrics of the traced run.  A workload reports 0 for a
#: layer it does not reach.
PER_LAYER = [
    ("network.build_s", "s"),
    ("core.apply_calls", "count"),
    ("core.unique_lookups", "count"),
    ("core.unique_hit_rate", "ratio"),
    ("core.computed_lookups", "count"),
    ("core.computed_hit_rate", "ratio"),
    ("core.peak_nodes", "nodes"),
    ("core.gc_runs", "count"),
    ("core.gc_reclaimed", "nodes"),
    ("reorder.sift_s", "s"),
    ("reorder.swaps", "count"),
    ("reorder.swaps_per_s", "1/s"),
    ("reorder.rounds", "count"),
    ("reorder.nodes_before", "nodes"),
    ("reorder.nodes_after", "nodes"),
    ("io.loads_s", "s"),
    ("io.dumps_s", "s"),
    ("io.bytes_per_node", "B/node"),
    ("par.freeze_s", "s"),
    ("par.segment_bytes", "B"),
    ("bulk.eval_col_s", "s"),
    ("bulk.eval_map_s", "s"),
    ("bulk.cube_s", "s"),
    ("wmc.p_one_s", "s"),
    ("wmc.marginals_s", "s"),
    ("wmc.sweeps", "count"),
    ("reach.fixpoint_s", "s"),
    ("reach.iterations", "count"),
    ("reach.images", "count"),
    ("reach.frontier_peak", "nodes"),
    ("reach.visited_peak", "nodes"),
    ("pool.batches_dispatched", "count"),
    ("pool.shards_dispatched", "count"),
    ("pool.result_cache_hit_rate", "ratio"),
    ("pool.worker_restarts", "count"),
    ("pool.batch_retries", "count"),
    ("server.mean_batch", "queries"),
    ("server.batches_flushed", "count"),
    ("server.p50_ms", "ms"),
    ("server.p99_ms", "ms"),
    ("client.late_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.coverage_pct", "%"),
    ("avg_nodes", "nodes"),
    ("eval_qps", "queries/s"),
    ("eval_mapping_qps", "queries/s"),
    ("cube_qps", "queries/s"),
    ("serve_p50_ms", "ms"),
    ("serve_p99_ms", "ms"),
    ("serve_qps", "req/s"),
]

#: Step (span) names whose per-round self time is a per-layer metric,
#: reported as ``<step>_s``.
TIMED_STEPS = (
    "network.build",
    "reorder.sift",
    "io.loads",
    "io.dumps",
    "par.freeze",
    "bulk.eval_col",
    "bulk.eval_map",
    "bulk.cube",
    "wmc.p_one",
    "wmc.marginals",
    "reach.fixpoint",
)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class HostSpeed:
    """How fast the host runs at the moment, read from a fixed kernel.

    A shared host slows down and speeds up by a third within tens of
    seconds, and a round's CPU time moves with its wall time, so more
    rounds alone do not steady a run's median.  The kernel is pure
    benchmark code, so no change to the package moves it, but the
    host's slow spells do.  It is the interpreter work of a decision
    diagram package: a memoized XOR apply over a fixed random DAG with
    a unique table (tuple keys, recursion, small objects).  Run between
    the steps of every measured unit, it turns wall time into
    *reference seconds*, ``wall * NOMINAL_S / kernel time``: about the
    time the unit would take on a host that runs the kernel in
    ``NOMINAL_S``.  The measurements behind these choices are in
    README.md.
    """

    DAG_NODES = 4000
    DAG_LEVELS = 40
    APPLY_PAIRS = 60
    #: Kernel seconds at the reference speed, about the kernel's time on
    #: a quiet 2-core VM (Python 3.11.7), so reference seconds there are
    #: close to wall seconds.
    NOMINAL_S = 0.001
    #: Unit time between two kernel samples, taken at step boundaries.
    QUANTUM_S = 0.1

    def __init__(self) -> None:
        rng = random.Random(2014)
        # Nodes 0 and 1 are the terminals; a node's children lie on
        # deeper levels.
        count = self.DAG_NODES + 2
        level = [self.DAG_LEVELS] * 2 + [
            (i * 37) % self.DAG_LEVELS for i in range(2, count)
        ]
        low = [0, 1] + [0] * self.DAG_NODES
        high = [0, 1] + [1] * self.DAG_NODES
        for i in range(2, count):
            deeper = [
                j for j in (rng.randrange(i) for _ in range(6)) if level[j] > level[i]
            ]
            if len(deeper) >= 2:
                low[i], high[i] = deeper[0], deeper[-1]
        self._dag = (level, low, high)
        self._roots = [rng.randrange(2, count) for _ in range(self.APPLY_PAIRS + 1)]

    def sample(self) -> float:
        """Seconds one pass of the kernel takes now."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._apply()
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()

    def _apply(self) -> int:
        """XOR of consecutive root pairs, memoized, with a unique table."""
        level, low, high = self._dag
        memo = {}
        unique = {}

        def xor(a, b):
            if a < 2 and b < 2:
                return a ^ b
            key = (a, b) if a <= b else (b, a)
            found = memo.get(key)
            if found is not None:
                return found
            top = min(level[a], level[b])
            a0, a1 = (low[a], high[a]) if level[a] == top else (a, a)
            b0, b1 = (low[b], high[b]) if level[b] == top else (b, b)
            r0, r1 = xor(a0, b0), xor(a1, b1)
            if r0 == r1:
                result = r0
            else:
                result = unique.setdefault((top, r0, r1), [len(unique) + 2])[0]
            memo[key] = result
            return result

        roots = self._roots
        for i in range(self.APPLY_PAIRS):
            xor(roots[i], roots[i + 1])
        return len(unique)

    def close(self) -> None:
        pass


#: A line-based JSON server for ``EchoSpeed``: one connection, one reply
#: per request line, until the client hangs up.
_ECHO_SERVER = """
import json, socket
listener = socket.create_server(("127.0.0.1", 0))
print(listener.getsockname()[1], flush=True)
conn, _ = listener.accept()
listener.close()
conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
with conn, conn.makefile("rb") as lines:
    for line in lines:
        request = json.loads(line)
        reply = {"id": request["id"], "result": request["bits"] % 3 == 0}
        conn.sendall(json.dumps(reply).encode() + b"\\n")
"""


class EchoSpeed:
    """How fast the host serves small JSON requests over loopback now.

    The ``HostSpeed`` of ``serve``: its rounds are interpreter work
    spread over a client and a server process talking over loopback
    TCP, and the XOR apply in the client did not track them.  One sample
    sends a burst of request lines to a benchmark-owned server process
    and reads every reply, so it moves with the host's speed at the
    same kind of work, and no change to the package moves it.
    """

    LINES = 200
    #: Sample seconds at the reference speed (see ``HostSpeed``).
    NOMINAL_S = 0.0028
    QUANTUM_S = HostSpeed.QUANTUM_S

    def __init__(self) -> None:
        self._server = subprocess.Popen(
            [sys.executable, "-c", _ECHO_SERVER], stdout=subprocess.PIPE
        )
        self._sock = self._replies = None
        try:
            port = int(self._server.stdout.readline())
            self._sock = socket.create_connection(("127.0.0.1", port))
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._replies = self._sock.makefile("rb")
        except BaseException:
            self.close()
            raise
        self._burst = b"".join(
            json.dumps({"id": i, "bits": i * 2654435761 % 2**32}).encode() + b"\n"
            for i in range(self.LINES)
        )

    def sample(self) -> float:
        """Seconds one burst takes now."""
        t0 = time.perf_counter()
        self._sock.sendall(self._burst)
        for _ in range(self.LINES):
            json.loads(self._replies.readline())
        return time.perf_counter() - t0

    def close(self) -> None:
        """Hang up, so the server exits, and wait for it."""
        for stream in (self._replies, self._sock):
            if stream is not None:
                stream.close()
        self._sock = self._replies = None
        try:
            self._server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._server.kill()
            self._server.wait()
        self._server.stdout.close()


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


class Ledger:
    """Counts operations attempted and failed; any mismatch is a failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr, flush=True)
        return ok

    def count(self, attempted: int, failed: int, what: str) -> None:
        """Record a batch of operations, ``failed`` of which went wrong."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            print(
                f"perfbench: FAILED {failed} of {attempted} {what}",
                file=sys.stderr,
                flush=True,
            )

    def error(self, what: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        print(
            f"perfbench: ERROR {what}: {type(exc).__name__}: {exc}",
            file=sys.stderr,
            flush=True,
        )


class Unit:
    """One setup repetition, measured phase or round.

    ``wall`` leaves out the host-speed samples taken inside the unit;
    ``scale`` turns its seconds into reference seconds (``HostSpeed``).
    """

    __slots__ = ("kind", "traced", "wall", "times", "root", "scale", "pace")

    def __init__(self, kind: str, traced: bool) -> None:
        self.kind = kind
        self.traced = traced
        self.wall = 0.0
        self.times: Dict[str, float] = {}
        self.root: Optional[int] = None
        self.scale = 1.0
        #: Kernel seconds of the host-speed samples.
        self.pace: List[float] = []

    @property
    def seconds(self) -> float:
        """The unit's time in reference seconds."""
        return self.wall * self.scale

    def step_seconds(self, name: str) -> float:
        """A step's time in reference seconds."""
        return self.times[name] * self.scale


class Probe:
    """Times every step; records spans while a traced unit runs.

    ``step(name)`` always accumulates the step's wall time into the
    current unit (two clock reads).  In a traced unit it also records
    a span ``{id, name, start, end, parent, run}``; each unit is a root
    span, so a step's parent is the unit it ran in.  Samples of the
    speed kernel (``HostSpeed``) are taken just before the unit, at
    the first step boundary after every ``QUANTUM_S`` of unit time, and
    at the unit's end; the unit's ``scale`` rests on their median,
    which one sample cut short by another process does not move.
    """

    def __init__(self, run_id: str, speed) -> None:
        self.run_id = run_id
        self.speed = speed
        self.units: List[Unit] = []
        self.spans: List[dict] = []
        self._unit: Optional[Unit] = None
        self._stack: List[int] = []
        self._depth = 0
        self._mark = 0.0
        self._paused = 0.0

    def _open(self, name: str) -> int:
        span_id = len(self.spans)
        self.spans.append(
            {
                "id": span_id,
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
            }
        )
        self._stack.append(span_id)
        return span_id

    def _close(self, span_id: int) -> None:
        self._stack.pop()
        self.spans[span_id]["end"] = time.perf_counter()

    def _sample_speed(self, unit: Unit, force: bool) -> None:
        now = time.perf_counter()
        segment = now - self._mark
        if segment <= 0 or (not force and segment < self.speed.QUANTUM_S):
            return
        unit.pace.append(self.speed.sample())
        self._mark = time.perf_counter()
        self._paused += self._mark - now

    @contextmanager
    def unit(self, kind: str, traced: bool = False):
        unit = Unit(kind, traced)
        self._unit = unit
        if traced:
            unit.root = self._open(kind)
        unit.pace.append(self.speed.sample())
        self._paused = 0.0
        t0 = self._mark = time.perf_counter()
        try:
            yield unit
        finally:
            unit.wall = time.perf_counter() - t0 - self._paused
            self._sample_speed(unit, force=True)
            unit.scale = self.speed.NOMINAL_S / median(unit.pace)
            if traced:
                self._close(unit.root)
            self._unit = None
            self.units.append(unit)

    @contextmanager
    def step(self, name: str):
        unit = self._unit
        span_id = self._open(name) if unit is not None and unit.traced else None
        self._depth += 1
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            self._depth -= 1
            if span_id is not None:
                self._close(span_id)
            if unit is not None:
                unit.times[name] = unit.times.get(name, 0.0) + elapsed
                if self._depth == 0:
                    self._sample_speed(unit, force=False)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> Dict[int, Dict[str, float]]:
        """Per traced unit (root span id): self time summed by span name.

        A span's self time is its duration minus the durations of its
        direct children (steps run sequentially, so children never
        overlap).
        """
        child_time: Dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] = (
                    child_time.get(span["parent"], 0.0) + span["end"] - span["start"]
                )
        root_of: Dict[int, int] = {}
        result: Dict[int, Dict[str, float]] = {}
        for span in self.spans:
            parent = span["parent"]
            root = span["id"] if parent is None else root_of[parent]
            root_of[span["id"]] = root
            own = span["end"] - span["start"] - child_time.get(span["id"], 0.0)
            per_name = result.setdefault(root, {})
            per_name[span["name"]] = per_name.get(span["name"], 0.0) + own
        return result

    def seconds(self, kind: str, traced: bool) -> List[float]:
        """Reference seconds of every unit of one kind."""
        return [u.seconds for u in self.units if u.kind == kind and u.traced == traced]

    def step_seconds(self, name: str, traced: bool) -> float:
        """Median per-unit reference seconds of ``name``: over rounds,
        else over setups.

        Traced units use span self times, untraced ones the step clock.
        A step that never ran reads 0.
        """
        selfs = self.self_times() if traced else {}
        for kind in ("round", "phase", "setup"):
            samples = []
            for unit in self.units:
                if unit.kind != kind or unit.traced != traced:
                    continue
                times = selfs.get(unit.root, {}) if traced else unit.times
                if name in times:
                    samples.append(times[name] * unit.scale)
            if samples:
                return median(samples)
        return 0.0

    def coverage_pct(self) -> float:
        """Median share of traced round wall time covered by layer spans."""
        selfs = self.self_times()
        shares = []
        for unit in self.units:
            if unit.kind != "round" or not unit.traced or unit.wall <= 0:
                continue
            per_name = selfs.get(unit.root, {})
            covered = sum(t for name, t in per_name.items() if name != "round")
            shares.append(100.0 * covered / unit.wall)
        return median(shares)

    def write(self, path: str, extra: List[dict]) -> None:
        """Write spans and counter snapshots as JSON lines."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps({"type": "span", **span}) + "\n")
            for record in extra:
                out.write(json.dumps(record, default=str) + "\n")


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def obs_total(snapshot: dict, name: str) -> float:
    """Sum of every sample of one counter/gauge family in an obs snapshot."""
    entry = snapshot.get(name)
    if entry is None:
        return 0
    return sum(sample.get("value", 0) for sample in entry["samples"])


def core_metrics(stats_list) -> dict:
    """The ``core.*`` counters summed over ``manager.table_stats()`` dicts."""
    total = {key: 0 for key in ("apply_calls", "gc_runs", "gc_reclaimed")}
    lookups = {"unique": [0, 0], "computed": [0, 0]}
    peak = 0
    for stats in stats_list:
        for key in total:
            total[key] += stats[key]
        for table, pair in lookups.items():
            pair[0] += stats[table]["lookups"]
            pair[1] += stats[table]["hits"]
        peak = max(peak, stats["peak_nodes"])
    return {
        "core.apply_calls": total["apply_calls"],
        "core.unique_lookups": lookups["unique"][0],
        "core.unique_hit_rate": lookups["unique"][1] / max(lookups["unique"][0], 1),
        "core.computed_lookups": lookups["computed"][0],
        "core.computed_hit_rate": lookups["computed"][1]
        / max(lookups["computed"][0], 1),
        "core.peak_nodes": peak,
        "core.gc_runs": total["gc_runs"],
        "core.gc_reclaimed": total["gc_reclaimed"],
    }


class Context:
    """What a workload is given: its seed, size and the shared recorders."""

    def __init__(
        self,
        seed: int,
        smoke: bool,
        probe: Probe,
        ledger: Ledger,
        root: str,
        workdir: str,
    ) -> None:
        self.seed = seed
        self.smoke = smoke
        self.probe = probe
        self.ledger = ledger
        self.root = root
        self.workdir = workdir


class Workload:
    """One benchmark workload.

    The runner calls ``setup`` ``setup_reps`` times (timed; every
    repetition but the last is undone by ``discard_setup``), then
    ``prepare`` once (untimed: seeded inputs and reference answers),
    then ``phase`` once (timed; empty unless overridden), then ``round``
    repeatedly (timed) with ``check`` after each (untimed) and
    ``setup_between_rounds`` more timed set-ups.  ``check`` returns the
    round's metric values by name; the runner reports their medians.
    """

    name = ""
    #: The kernel that turns this workload's wall times into reference
    #: seconds.
    speed_kernel = HostSpeed
    setup_reps = 3
    #: Set-up repetitions run again after every round, so that a short
    #: set-up is sampled over the whole run, not at one moment of it.
    setup_between_rounds = 0
    #: Names the report line prints for this workload, beyond the
    #: end-to-end metrics.
    report = ()

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.probe = ctx.probe
        self.ledger = ctx.ledger
        self.rng = random.Random(ctx.seed)

    def setup(self) -> None:
        raise NotImplementedError

    def discard_setup(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def phase(self, seconds: float) -> dict:
        return {}

    def round(self):
        raise NotImplementedError

    def check(self, result, unit: Unit) -> dict:
        return {}

    def extras(self) -> dict:
        """Metric values known once per run (set-up sizes, server counters)."""
        return {}

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def close(self) -> None:
        pass
