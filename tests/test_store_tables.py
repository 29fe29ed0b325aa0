"""The node store's two tables, on both table-backed backends.

The unique table (row key -> slot) and the computed table of
Algorithm 1 are plain dicts of :class:`repro.core.store.NodeStore`;
both managers' ``_make`` and apply engines probe them and count the
probes on the store, and ``table_stats()`` reports the counts.  The
``"disabled"`` computed backend is the ablation that memoizes nothing.
"""

import pytest

import repro
from repro.circuits.registry import TABLE1_ROWS
from repro.network.build import build

BACKENDS = ["bbdd", "bdd"]
NAMES = ["a", "b", "c", "d", "e", "f"]
EXPR = "(a ^ b) | (c & ~d) | (e <-> f)"
OTHER = "(a & c) ^ (b | e) ^ f"
FAST_ROWS = ("C17", "z4ml", "decod", "misex1", "count", "9symml")


@pytest.mark.parametrize("backend", BACKENDS)
def test_second_build_shares_the_root_slot_through_unique_hits(backend):
    manager = repro.open(backend, vars=NAMES)
    first = manager.add_expr(EXPR)
    before = manager.table_stats()["unique"]
    # Without cached results the second build reaches ``_make`` again.
    manager.clear_cache()
    second = manager.add_expr(EXPR)
    after = manager.table_stats()["unique"]
    assert second.edge == first.edge
    assert after["entries"] == before["entries"] == manager.size()
    assert after["hits"] > before["hits"]
    assert after["lookups"] > before["lookups"]
    assert after["backend"] == "dict"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("clear", ["clear_cache", "gc"])
def test_table_clears_drop_results_and_the_compiled_root(backend, clear):
    manager = repro.open(backend, vars=NAMES)
    f = manager.add_expr(EXPR)
    assert manager.table_stats()["computed"]["entries"] > 0
    kept = manager.compiled_root(f.edge)
    assert manager.compiled_root(f.edge) is kept
    getattr(manager, clear)()
    assert manager.table_stats()["computed"]["entries"] == 0
    assert manager.compiled_root(f.edge) is not kept
    # Counters are monotone: a clear keeps them.
    assert manager.table_stats()["computed"]["lookups"] > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_disabled_computed_table_keeps_nothing_and_builds_the_same(backend):
    rows = {row.name: row for row in TABLE1_ROWS}
    for name in FAST_ROWS:
        network = rows[name].build(full=False)
        counts = {}
        for computed in ("dict", "disabled"):
            manager, fns = build(network, backend=backend, computed_backend=computed)
            counts[computed] = manager.node_count(list(fns.values()))
            stats = manager.table_stats()["computed"]
            assert stats["backend"] == computed
            if computed == "disabled":
                assert stats["entries"] == stats["hits"] == 0
                assert stats["lookups"] > 0
                f = next(iter(fns.values()))
                assert manager.compiled_root(f.edge) is not manager.compiled_root(
                    f.edge
                )
        assert counts["disabled"] == counts["dict"], name


@pytest.mark.parametrize("backend", BACKENDS)
def test_derived_operations_agree_without_a_computed_table(backend):
    results = {}
    for computed in ("dict", "disabled"):
        manager = repro.open(backend, vars=NAMES, computed_backend=computed)
        f = manager.add_expr(EXPR)
        g = manager.add_expr(OTHER)
        results[computed] = [
            h.truth_mask(NAMES)
            for h in (
                f.restrict("c", True),
                f.restrict("a", False),
                f.exists(["b", "e"]),
                f.and_exists(g, ["a", "d"]),
                f.and_exists(g, ["f"]),
            )
        ]
        if computed == "disabled":
            assert manager.table_stats()["computed"]["entries"] == 0
    assert results["disabled"] == results["dict"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_unknown_computed_backend_raises(backend):
    with pytest.raises(ValueError, match="computed-table backend"):
        repro.open(backend, vars=NAMES, computed_backend="lru")
