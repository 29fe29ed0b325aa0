"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sift --seed 1 --seconds 10 --trace 0

Set-up runs several times and its median is ``setup_s``.  Then rounds
of the workload run until ``--seconds`` have passed (at least one, two
with ``--trace 1``), each followed by an untimed correctness check.
Times are reported in reference seconds: wall time scaled by the
host's speed at that moment, sampled inside every set-up and round
with a fixed kernel: ``measure.HostSpeed``, or ``measure.EchoSpeed``
for ``serve``, whose work runs in a server process.

* ``--trace 0`` reports the end-to-end metrics, medians over the rounds.
* ``--trace 1`` alternates untraced and traced rounds, records spans
  around every call into a layer in the traced ones, writes them with
  the counter snapshots to ``.perfbench/trace-<workload>-<seed>.jsonl``
  and reports the per-layer metrics.

The line before last is a human-readable report (seed, sample counts,
the workload's own metrics); the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.  ``--smoke`` runs
every workload at toy size.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = {
    "sift": ("perfbench.sift", "SiftWorkload"),
    "apply": ("perfbench.apply", "ApplyWorkload"),
    "query": ("perfbench.query", "QueryWorkload"),
    "serve": ("perfbench.serve", "ServeWorkload"),
}

#: Seed kept out of tuning, for confirming a claim on unseen inputs.
HOLDOUT_SEED = 2014

#: Report names of the per-layer times they are read from.
REPORT_ALIASES = {
    "build_s": "network.build_s",
    "sift_s": "reorder.sift_s",
    "fixpoint_s": "reach.fixpoint_s",
    "load_s": "io.loads_s",
    "freeze_s": "par.freeze_s",
    "p_one_s": "wmc.p_one_s",
    "marginals_s": "wmc.marginals_s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="toy-size inputs (the benchmark's tests)"
    )
    return parser.parse_args(argv)


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Run one workload; returns ``(result object, report dict)``."""
    from perfbench.measure import (
        END_TO_END,
        PER_LAYER,
        TIMED_STEPS,
        Context,
        Ledger,
        Probe,
        median,
        metric,
        obs_total,
    )
    from repro import obs

    workdir = os.path.join(ROOT, ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    module, cls = WORKLOADS[workload]
    workload_class = getattr(importlib.import_module(module), cls)
    speed = workload_class.speed_kernel()
    probe = Probe(run_id=f"{workload}-{seed}-{os.getpid()}", speed=speed)
    ledger = Ledger()
    wl = workload_class(Context(seed, smoke, probe, ledger, ROOT, workdir))
    values = {}
    round_values = []
    try:
        for rep in range(wl.setup_reps):
            if rep:
                wl.discard_setup()
            # Every set-up and round starts without garbage left before it.
            gc.collect()
            with probe.unit("setup", traced=trace):
                wl.setup()
        wl.prepare()
        gc.collect()
        start = time.perf_counter()
        with probe.unit("phase", traced=trace):
            values.update(wl.phase(seconds))
        while True:
            traced = trace and len(round_values) % 2 == 1
            gc.collect()
            with probe.unit("round", traced=traced) as unit:
                try:
                    outcome = wl.round()
                except Exception as exc:  # noqa: BLE001 - a failed operation
                    ledger.error(f"{workload} round", exc)
                    break
            round_values.append((traced, wl.check(outcome, unit)))
            del outcome
            for _ in range(wl.setup_between_rounds):
                gc.collect()
                with probe.unit("setup", traced=trace):
                    wl.setup()
            walls = [u.wall for u in probe.units if u.kind == "round"]
            elapsed = time.perf_counter() - start
            if len(round_values) >= (2 if trace else 1) and (
                elapsed + median(walls) / 2 >= seconds
            ):
                break
        values.update(wl.extras())
        peak_rss = wl.peak_rss_mb()
    finally:
        try:
            wl.close()
        finally:
            speed.close()

    # Per-round values: medians over the rounds of the measured kind.
    names = {name for _traced, per_round in round_values for name in per_round}
    for name in names:
        samples = [
            per_round[name]
            for traced, per_round in round_values
            if name in per_round and (traced or not trace)
        ]
        values[name] = median(samples)
    for step in TIMED_STEPS:
        values[f"{step}_s"] = probe.step_seconds(step, traced=trace)

    setups = [u.seconds for u in probe.units if u.kind == "setup"]
    untraced = probe.seconds("round", traced=False)
    e2e = {
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss,
        "round_s": median(untraced),
    }
    if trace:
        traced_rounds = probe.seconds("round", traced=True)
        if traced_rounds and untraced:
            values["obs.trace_overhead_pct"] = 100.0 * (
                median(traced_rounds) / median(untraced) - 1.0
            )
        values["obs.coverage_pct"] = probe.coverage_pct()
        metrics = {name: metric(values.get(name, 0), unit) for name, unit in PER_LAYER}
        snapshot = obs.snapshot()
        counters = {
            name: obs_total(snapshot, name)
            for name, entry in snapshot.items()
            if entry["type"] != "histogram" and obs_total(snapshot, name)
        }
        extra = [
            {"type": "round", "index": i, "traced": traced, "values": per_round}
            for i, (traced, per_round) in enumerate(round_values)
        ]
        extra.append({"type": "obs", "counters": counters})
        extra.append({"type": "metrics", "values": values})
        trace_path = os.path.join(workdir, f"trace-{workload}-{seed}.jsonl")
        probe.write(trace_path, extra)
    else:
        metrics = {name: metric(e2e[name], unit) for name, unit in END_TO_END}

    report = {
        "workload": workload,
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
        "trace": int(trace),
        "smoke": smoke,
        "samples": {
            "setup": len(setups),
            "rounds": len(untraced),
            "traced_rounds": len(probe.seconds("round", traced=True)),
        },
        "metrics": {name: e2e[name] for name, _unit in END_TO_END},
        # Untraced rounds in wall seconds, and reference seconds per wall
        # second: how fast the host ran against HostSpeed.NOMINAL_S.
        "host": {
            "round_wall_s": median(
                u.wall for u in probe.units if u.kind == "round" and not u.traced
            ),
            "round_scale": median(
                u.scale for u in probe.units if u.kind == "round" and not u.traced
            ),
        },
    }
    for name in wl.report:
        report["metrics"][name] = values.get(REPORT_ALIASES.get(name, name), 0)
    if "open_loop_requests" in values:
        report["samples"]["open_loop_requests"] = values["open_loop_requests"]
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    return result, report


def _stop_resource_tracker() -> None:
    """Stop the helper process shared memory starts, and wait for it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main() -> int:
    args = parse_args(sys.argv[1:])
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing is salted per process; fix it so that dict and
        # set layouts, and with them the timings, repeat across runs.
        os.environ["PYTHONHASHSEED"] = "0"
        script = os.path.abspath(__file__)
        os.execv(sys.executable, [sys.executable, script, *sys.argv[1:]])
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"perfbench: no package source at {SRC}; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    # Import the workloads as ``perfbench.*``, never as top-level modules.
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    sys.path[:0] = [SRC, ROOT]
    try:
        result, report = run(
            args.workload, args.seed, args.seconds, bool(args.trace), smoke=args.smoke
        )
    finally:
        _stop_resource_tracker()
    print("perfbench report: " + json.dumps(report))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
