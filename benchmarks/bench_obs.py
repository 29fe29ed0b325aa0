"""Observability overhead gates: instrumentation must stay near-free.

Two claims guard the :mod:`repro.obs` design (pull-based collection,
one flag check on the hot path):

* **disabled**: with tracing off — the shipped default — the per-apply
  cost added by instrumentation is a counter bump plus a flag read.
  That extra work is micro-benchmarked directly and must stay under 1%
  of the mean apply time of the reference workload.
* **enabled**: with tracing on, the same apply workload (min over
  repeats, computed tables cleared per round so applies do real work)
  must run within 5% of the disabled time.

Both gates record to ``BENCH_obs.json`` so the overhead trajectory is
tracked alongside the other benches.
"""

import time

import pytest

from _metrics import record_metric
from repro.circuits import mcnc
from repro.network.build import build
from repro.obs import trace

#: Timed rounds per configuration; the gate uses the minimum.
_ROUNDS = 5


def _workload():
    """A manager plus function pairs whose applies do real node work.

    ``alu4`` outputs XOR at around a millisecond per apply — three
    orders of magnitude above the per-apply span-record cost, so the
    5% gate measures instrumentation, not noise floor.
    """
    manager, fns = build(mcnc.alu4(), backend="bbdd")
    edges = [f.edge for f in fns.values()]
    pairs = [(edges[i], edges[(i + 3) % len(edges)]) for i in range(len(edges))]
    return manager, pairs


def _time_applies(manager, pairs) -> float:
    """Seconds for one full pass (cache cleared so applies recompute)."""
    from repro.core.operations import OP_XOR

    manager.clear_cache()
    start = time.perf_counter()
    for f, g in pairs:
        manager.apply_edges(f, g, OP_XOR)
    return time.perf_counter() - start


def _min_time(manager, pairs, rounds: int = _ROUNDS) -> float:
    return min(_time_applies(manager, pairs) for _ in range(rounds))


def _flag_path_cost_ns(samples: int = 200_000) -> float:
    """Nanoseconds per apply of the disabled-path additions.

    Measures exactly the work :meth:`BBDDManager.apply_edges` gained for
    the non-tracing case — an integer counter bump plus a flag read —
    against an empty loop baseline.
    """

    class _Host:
        __slots__ = ("apply_calls", "_trace_state")

        def __init__(self):
            self.apply_calls = 0
            self._trace_state = trace.STATE

    host = _Host()
    indices = range(samples)
    start = time.perf_counter()
    for _ in indices:
        pass
    baseline = time.perf_counter() - start
    start = time.perf_counter()
    for _ in indices:
        host.apply_calls += 1
        if host._trace_state.enabled:
            pass
    loaded = time.perf_counter() - start
    return max(0.0, loaded - baseline) / samples * 1e9


def test_obs_overhead_gates(benchmark):
    """Disabled-path cost < 1% of an apply; tracing-on slowdown <= 5%."""
    manager, pairs = _workload()
    trace.disable()
    # Warm-up pass: populate unique tables and fault in code paths.
    _time_applies(manager, pairs)

    disabled = benchmark.pedantic(
        lambda: _min_time(manager, pairs), rounds=1, iterations=1
    )
    with trace.tracing():
        enabled = _min_time(manager, pairs)

    mean_apply_s = disabled / len(pairs)
    flag_ns = min(_flag_path_cost_ns() for _ in range(3))
    flag_fraction = (flag_ns * 1e-9) / mean_apply_s

    record_metric("obs", "apply_pass_disabled_s", disabled, "s")
    record_metric("obs", "apply_pass_traced_s", enabled, "s")
    record_metric(
        "obs", "traced_overhead_pct", 100.0 * (enabled / disabled - 1.0), "%"
    )
    record_metric("obs", "disabled_path_cost_ns", flag_ns, "ns/apply")
    record_metric(
        "obs", "disabled_path_cost_pct", 100.0 * flag_fraction, "%"
    )
    benchmark.extra_info["traced_over_disabled"] = enabled / disabled
    benchmark.extra_info["disabled_path_ns"] = flag_ns

    assert flag_fraction < 0.01, (
        f"disabled-path instrumentation costs {flag_ns:.1f} ns/apply — "
        f"{100 * flag_fraction:.2f}% of a {mean_apply_s * 1e6:.1f} µs apply"
    )
    assert enabled <= disabled * 1.05, (
        f"tracing-enabled pass {enabled:.4f}s vs disabled {disabled:.4f}s "
        f"({100 * (enabled / disabled - 1):.1f}% > 5%)"
    )


def test_obs_collection_is_pure():
    """Snapshotting twice must not inflate sampled counters."""
    from repro import obs

    manager, pairs = _workload()
    first = obs.snapshot()
    second = obs.snapshot()
    for name in ("repro_manager_apply_total", "repro_manager_nodes"):
        ours_first = [
            s["value"]
            for s in first[name]["samples"]
            if s["labels"].get("backend") == "bbdd"
        ]
        ours_second = [
            s["value"]
            for s in second[name]["samples"]
            if s["labels"].get("backend") == "bbdd"
        ]
        assert ours_first == ours_second
    assert manager is not None  # keep the tracked manager alive


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
