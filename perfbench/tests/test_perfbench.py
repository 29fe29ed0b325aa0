"""Tests of the benchmark itself: contract, smoke runs, failure counting.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
for path in (SRC, ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import run as runner  # noqa: E402
from perfbench.measure import END_TO_END, PER_LAYER  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_json_matches_the_catalogue():
    bench = _benchmark()
    assert set(bench) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert [w["name"] for w in bench["workloads"]] == list(runner.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == PER_LAYER
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in bench[group]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for group in ("end_to_end", "per_layer"):
        for entry in bench[group]:
            assert UNIT.match(entry["unit"])
            assert entry["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", list(runner.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _run(
        "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    bench = _benchmark()
    group = bench["per_layer"] if trace else bench["end_to_end"]
    want = {m["name"]: m["unit"] for m in group}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    report = json.loads(lines[-2].split(": ", 1)[1])
    assert report["workload"] == workload and report["seed"] == 3


def test_host_speed_scales_units_and_leaves_its_samples_out():
    import time

    from perfbench.measure import HostSpeed, Probe, median

    speed = HostSpeed()
    assert speed.sample() > 0
    probe = Probe("test", speed=speed)
    with probe.unit("round") as unit:
        with probe.step("sleep"):
            time.sleep(0.25)
    # Samples before the unit, after the step and at its end.
    assert len(unit.pace) == 3
    assert unit.scale == HostSpeed.NOMINAL_S / median(unit.pace)
    assert 0.25 <= unit.wall < 0.25 + min(unit.pace)
    assert unit.seconds == unit.wall * unit.scale
    assert probe.seconds("round", traced=False) == [unit.seconds]


def test_echo_speed_stops_its_server():
    from perfbench.measure import EchoSpeed

    speed = EchoSpeed()
    try:
        assert speed.sample() > 0
    finally:
        speed.close()
    assert speed._server.returncode == 0


def test_wrong_sift_count_is_a_failure(monkeypatch):
    from perfbench import sift

    wrong = dict(sift.EXPECTED_NODES, C17=sift.EXPECTED_NODES["C17"] + 1)
    monkeypatch.setattr(sift, "EXPECTED_NODES", wrong)
    result, _report = runner.run("sift", seed=1, seconds=0, trace=False, smoke=True)
    assert result["failed"] == 1
    assert result["correct"] is False
    assert result["attempted"] == len(sift.SMOKE_ROWS)


def test_wrong_fixpoint_oracle_is_a_failure(monkeypatch):
    from perfbench import apply

    real_oracle = apply.explicit_reachable

    def short_oracle(network):
        states = set(real_oracle(network))
        states.discard(max(states))
        return states

    monkeypatch.setattr(apply, "explicit_reachable", short_oracle)
    result, _report = runner.run("apply", seed=1, seconds=0, trace=False, smoke=True)
    assert result["failed"] == 2
    assert result["correct"] is False


def test_directory_without_the_package_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run(
        "--workload", "sift", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=str(tmp_path),
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
