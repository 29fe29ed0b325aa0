"""The metric catalogue: every name the repro layers report.

One table maps each metric name to its kind, help text, label names
and (for histograms) bucket bounds, so instrumentation sites,
collectors and the documentation all agree on one meaning per name.
:func:`declare` pre-registers the whole catalogue in a registry —
the process-global registry is declared at ``repro.obs`` import, so a
``/metrics`` scrape always exposes the full families (zeroed until
traffic arrives) and dashboards never 404 on a quiet process.
:func:`family` is the instrumentation-side accessor: it returns the
family in a given registry, declaring it from the catalogue if needed
(collectors use it against throwaway registries at snapshot time).
"""

from __future__ import annotations

from typing import Mapping

from repro.obs.registry import MetricsRegistry, log_buckets

#: Latency bounds: 10 µs .. ~100 s, 3 per decade.
LATENCY_BUCKETS = log_buckets(1e-5, 1e2)
#: Size bounds (batch sizes, byte counts): 1 .. 1e7, 3 per decade.
SIZE_BUCKETS = log_buckets(1.0, 1e7)

#: ``name -> (kind, help, labelnames, buckets)`` for every catalogued
#: metric; ``buckets`` is None except for histograms.
CATALOG: "Mapping[str, tuple]" = {
    # -- manager cores (bbdd / bdd), sampled from native counters ------
    "repro_manager_unique_lookups_total": (
        "counter", "Unique-table lookups.", ("backend",), None),
    "repro_manager_unique_hits_total": (
        "counter", "Unique-table lookup hits.", ("backend",), None),
    "repro_manager_computed_lookups_total": (
        "counter", "Computed-table (operation cache) lookups.", ("backend",), None),
    "repro_manager_computed_hits_total": (
        "counter", "Computed-table (operation cache) hits.", ("backend",), None),
    "repro_manager_apply_total": (
        "counter", "Top-level apply operations executed.", ("backend",), None),
    "repro_manager_gc_runs_total": (
        "counter", "Garbage collections run.", ("backend",), None),
    "repro_manager_gc_reclaimed_total": (
        "counter", "Nodes reclaimed by garbage collection.", ("backend",), None),
    "repro_manager_nodes": (
        "gauge", "Nodes currently stored.", ("backend",), None),
    "repro_manager_peak_nodes": (
        "gauge", "High-water mark of stored nodes.", ("backend",), None),
    "repro_manager_dead_nodes": (
        "gauge", "Stored nodes with zero references.", ("backend",), None),
    # -- external-memory backend (xmem) --------------------------------
    "repro_xmem_spill_bytes_total": (
        "counter", "Bytes spilled to disk (level blocks + request runs).", (), None),
    "repro_xmem_level_spills_total": (
        "counter", "Level blocks spilled to disk.", (), None),
    "repro_xmem_spilled_nodes_total": (
        "counter", "Node records spilled to disk.", (), None),
    "repro_xmem_level_loads_total": (
        "counter", "Spilled level blocks reloaded into RAM.", (), None),
    "repro_xmem_request_runs_spilled_total": (
        "counter", "Request-queue sorted runs spilled during sweeps.", (), None),
    "repro_xmem_merge_passes_total": (
        "counter", "Run-compaction merge passes over spilled runs.", (), None),
    "repro_xmem_resident_nodes": (
        "gauge", "Node records currently resident in RAM.", (), None),
    "repro_xmem_resident_blocks": (
        "gauge", "Level blocks currently resident in RAM.", (), None),
    "repro_xmem_peak_resident_nodes": (
        "gauge", "High-water mark of resident node records.", (), None),
    "repro_xmem_live_nodes": (
        "gauge", "Live node records across representations.", (), None),
    # -- serve: batching server ----------------------------------------
    "repro_serve_request_latency_seconds": (
        "histogram", "Per-query service latency (arrival to response).",
        (), LATENCY_BUCKETS),
    "repro_serve_batch_size": (
        "histogram", "Coalesced batch sizes per served function.",
        ("function",), SIZE_BUCKETS),
    "repro_serve_queue_depth": (
        "gauge", "Queries waiting for a batch flush, sampled at scrape time.",
        (), None),
    "repro_serve_queries_total": (
        "counter", "Single queries flushed into batches by the batching server.",
        (), None),
    "repro_serve_batches_flushed_total": (
        "counter", "Batch-window flushes executed.", (), None),
    # -- serve: pool dispatcher ----------------------------------------
    "repro_serve_result_cache_hits_total": (
        "counter", "Dispatcher result-cache hits.", (), None),
    "repro_serve_result_cache_misses_total": (
        "counter", "Dispatcher result-cache misses.", (), None),
    "repro_serve_result_cache_entries": (
        "gauge", "Entries resident in the dispatcher result cache.", (), None),
    "repro_serve_batches_dispatched_total": (
        "counter", "Miss batches dispatched to evaluation.", (), None),
    "repro_serve_shards_dispatched_total": (
        "counter", "Lane spans swept for miss batches.", (), None),
    "repro_serve_forest_loads_total": (
        "counter", "Dumps decoded to serve from the dispatcher (no freeze).", (), None),
    "repro_serve_shm_freezes_total": (
        "counter", "Dumps frozen into shared-memory segments.", (), None),
    "repro_serve_shm_segment_bytes": (
        "gauge", "Bytes held in live shared forest segments.", (), None),
    # -- par: shared-memory forests and parallel sweeps ----------------
    "repro_par_tasks_total": (
        "counter", "Sweep/count tasks dispatched to the parallel pool.", (), None),
    "repro_par_batches_total": (
        "counter", "Query batches run through the parallel pool.", (), None),
    "repro_par_batch_retries_total": (
        "counter", "Parallel batches retried after a worker restart.", (), None),
    "repro_par_worker_restarts_total": (
        "counter", "Parallel-pool workers that died and were respawned.", (), None),
    "repro_par_shm_attaches_total": (
        "counter", "Shared-segment attachments made by pool workers.", (), None),
    "repro_par_attached_segments": (
        "gauge", "Segments currently attached in a worker.", (), None),
    # -- wmc: weighted model counting ----------------------------------
    "repro_wmc_sweeps_total": (
        "counter", "Weighted-counting passes: 1 per count, 2 per marginals.", (), None),
    # -- reach: symbolic reachability ----------------------------------
    "repro_reach_iterations_total": (
        "counter", "BFS fixpoint iterations across reachability runs.", (), None),
    "repro_reach_images_total": (
        "counter", "Relational-product image computations executed.", (), None),
    "repro_reach_frontier_nodes_peak": (
        "gauge", "Largest frontier diagram of the latest reachability run.",
        (), None),
    "repro_reach_visited_nodes_peak": (
        "gauge", "Largest visited-set diagram of the latest reachability run.",
        (), None),
}

_KINDS = {"counter", "gauge", "histogram"}


def family(registry: MetricsRegistry, name: str):
    """The catalogued family ``name`` in ``registry`` (declared if new)."""
    try:
        kind, help_text, labelnames, buckets = CATALOG[name]
    except KeyError:
        raise KeyError(f"metric {name!r} is not in the catalogue") from None
    if kind == "counter":
        return registry.counter(name, help_text, labelnames)
    if kind == "gauge":
        return registry.gauge(name, help_text, labelnames)
    return registry.histogram(name, help_text, labelnames, buckets)


def declare(registry: MetricsRegistry) -> None:
    """Pre-declare every catalogued family in ``registry``."""
    for name in CATALOG:
        family(registry, name)
