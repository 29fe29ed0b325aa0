"""The ``REPRO_CHECK=1`` flat-store debug checker.

The checker walks the parallel arrays after each harness pipeline stage
(post-build and post-sift) and validates what an int-coded refactor can
silently break: dangling child indices, reference-count drift against a
full parent scan, the R1/R2/R4 reduction rules and ``=``-edge
regularity.  These tests cover both directions — clean stores pass, and
hand-corrupted arrays are caught.
"""

import pytest

from repro.bdd import BDDManager
from repro.circuits.registry import TABLE1_ROWS
from repro.core import BBDDManager
from repro.core.exceptions import InvariantViolation
from repro.harness.table1 import run_benchmark

_ROWS = {row.name: row for row in TABLE1_ROWS}


def _forest(n=4, backend="bbdd"):
    m = BBDDManager(n) if backend == "bbdd" else BDDManager(n)
    fs = [
        (m.var(0) ^ m.var(1)) & m.var(2),
        m.var(1).xnor(m.var(3)) | m.var(0),
        ~(m.var(2) & m.var(3)),
    ]
    return m, fs


def _chain_node(m):
    """Any stored chain (non-literal) node index."""
    for node in m._uniq_raw.values():
        if m._sv[node] != -1:  # SV_ONE
            return node
    raise AssertionError("no chain node in forest")


def _held_child(m):
    """A stored row that another stored row holds (a positive parent scan)."""
    for node in m._uniq_raw.values():
        for child in (abs(m._neq[node]), m._eq[node]):
            if child != 1:  # the sink
                return child
    raise AssertionError("no shared row in forest")


def test_ref_count_scan_passes_on_live_forest():
    # Both expansions keep their rows in one store, so both scan exactly.
    for backend in ("bbdd", "bdd"):
        m, fs = _forest(backend=backend)
        m.check_ref_counts()  # lower-bound mode: handles unknown
        m.check_ref_counts([f.edge for f in fs])  # exact mode
        del fs[1]
        m.check_ref_counts([f.edge for f in fs])  # dead nodes scan to zero
        m.gc()
        m.check_ref_counts([f.edge for f in fs])


def test_ref_count_scan_detects_drift():
    for backend in ("bbdd", "bdd"):
        m, fs = _forest(backend=backend)
        node = _held_child(m)
        m._ref[node] += 1  # leaked acquire
        with pytest.raises(InvariantViolation):
            m.check_ref_counts([f.edge for f in fs])
        m._ref[node] -= 2  # lost reference: below the parent-scan floor
        with pytest.raises(InvariantViolation):
            m.check_ref_counts()
        m._ref[node] += 1


def test_checker_detects_dangling_child():
    m, fs = _forest()
    # Tombstone a referenced child without fixing its parents.
    child = None
    for node in m._uniq_raw.values():
        e = m._eq[node]
        if e != 1 and m._sv[node] != -1:  # non-sink =-child of a chain node
            child = e
            break
    assert child is not None
    del m._uniq_raw[m.node_fields(child)]
    m._ref[child] = -1
    with pytest.raises(InvariantViolation):
        m.check_invariants()


def test_checker_detects_reduction_rule_violations():
    # R2: identical children.
    m, fs = _forest()
    node = _chain_node(m)
    m._neq[node] = m._eq[node]
    with pytest.raises(InvariantViolation):
        m.check_invariants()

    # =-edge regularity: complemented =-child.
    m, fs = _forest()
    node = _chain_node(m)
    m._eq[node] = -m._eq[node]
    with pytest.raises(InvariantViolation):
        m.check_invariants()

    # R4 literal shape: a stored literal node must be exactly
    # (!=: complemented sink, =: sink).
    m, fs = _forest()
    literal = next(n for n in m._uniq_raw.values() if m._sv[n] == -1)
    m._eq[literal] = -1
    with pytest.raises(InvariantViolation):
        m.check_invariants()


def test_checker_detects_stale_level_entry():
    """A level set holding a slot that is no longer stored is caught."""
    m, fs = _forest()
    m.check_invariants()  # no index held: nothing to check
    with m._level_index():
        m.check_invariants()
        node = _chain_node(m)
        pv, sv = m._pv[node], m._sv[node]
        del fs[:]
        m.gc()
        assert node in m._free_nodes
        m.check_invariants()
        m._by_pv[pv].add(node)
        with pytest.raises(InvariantViolation, match="stale"):
            m.check_invariants()
        m._by_pv[pv].discard(node)
        m._by_sv[sv].add(node)
        with pytest.raises(InvariantViolation, match="stale"):
            m.check_invariants()


def test_checker_detects_missing_level_entry():
    m, fs = _forest()
    with m._level_index():
        node = _chain_node(m)
        m._by_sv[m._sv[node]].discard(node)
        with pytest.raises(InvariantViolation, match="missing"):
            m.check_invariants()
    # The damaged sets went with the context.
    m.check_invariants()


def test_bdd_checker_detects_stale_and_missing_level_entries():
    m = BDDManager(4)
    a, b, c, d = m.variables()
    f = (a & b) | (c ^ d)
    with m._level_index():
        m.check_invariants()
        node = f.node.index
        var = m._pv[node]
        m._by_pv[var].discard(node)
        with pytest.raises(InvariantViolation, match="missing"):
            m.check_invariants()
        m._by_pv[var].add(node)
        m._by_pv[(var + 1) % 4].add(node)
        with pytest.raises(InvariantViolation, match="stale"):
            m.check_invariants()


def test_harness_stage_hook_gated_by_env(monkeypatch):
    calls = []
    orig = BBDDManager.check_invariants

    def spy(self):
        calls.append(1)
        return orig(self)

    monkeypatch.setattr(BBDDManager, "check_invariants", spy)
    network = _ROWS["C17"].build(full=False)

    monkeypatch.delenv("REPRO_CHECK", raising=False)
    run_benchmark(network, "bbdd")
    assert calls == []  # off by default: no harness slowdown

    monkeypatch.setenv("REPRO_CHECK", "1")
    result = run_benchmark(network, "bbdd")
    assert len(calls) == 2  # post-build and post-sift
    assert result.nodes > 0
    # Other backends run the stages without the BBDD walkers.
    run_benchmark(network, "bdd")
    assert len(calls) == 2


def test_harness_hook_surfaces_corruption(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK", "1")
    orig = BBDDManager.sift

    def corrupt_then_sift(self, **kw):
        # Leak a count on a *live* node: floating garbage would simply
        # be swept by the collection at the head of sifting.
        node = next(
            n
            for n in self._uniq_raw.values()
            if self._sv[n] != -1 and self._ref[n] > 0
        )
        self._ref[node] += 1
        return orig(self, **kw)

    monkeypatch.setattr(BBDDManager, "sift", corrupt_then_sift)
    with pytest.raises(InvariantViolation):
        run_benchmark(_ROWS["C17"].build(full=False), "bbdd")
