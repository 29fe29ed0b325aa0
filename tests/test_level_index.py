"""Per-variable node sets exist only while reordering.

Both table-backed managers keep the sets of nodes per variable (the
level index) only inside ``_level_index()``, which the sifting driver,
``reorder_to`` and the adjacent swaps enter.  These tests pin the index's
lifetime, check it against the store at every step of a sift, and check
the swap counters that account for every change of the stored node count.
"""

import random

import pytest

from repro.bdd import BDDManager
from repro.bdd.reorder import reorder_to_bdd, swap_adjacent_bdd
from repro.circuits.registry import TABLE1_ROWS
from repro.core import BBDDManager, reorder
from repro.core.exceptions import BBDDError, OrderError
from repro.network.build import build

_SWAP = {"bbdd": reorder.swap_adjacent, "bdd": swap_adjacent_bdd}
_REORDER_TO = {"bbdd": reorder.reorder_to, "bdd": reorder_to_bdd}


def _apply(rng, f, g):
    op = rng.randrange(3)
    h = f & g if op == 0 else f | g if op == 1 else f ^ g
    return ~h if rng.random() < 0.3 else h


def _random_forest(backend, rng, n):
    """2-4 random functions of 3-5 terms over ``n`` variables.

    Each term combines 2-3 random literals.  The intermediate results
    are dropped and left behind as garbage, so swaps also sweep.
    """
    m = BBDDManager(n) if backend == "bbdd" else BDDManager(n)
    literals = m.variables()
    funcs = []
    for _ in range(rng.randint(2, 4)):
        f = None
        for _ in range(rng.randint(3, 5)):
            term = rng.choice(literals)
            for _ in range(rng.randint(1, 2)):
                term = _apply(rng, term, rng.choice(literals))
            f = term if f is None else _apply(rng, f, term)
        funcs.append(f)
    return m, funcs


def _level_sets(m):
    return (m._by_pv, m._by_sv)


def _assert_no_level_sets(m):
    assert m._level_depth == 0
    assert all(sets is None for sets in _level_sets(m))
    with pytest.raises(BBDDError):
        m.nodes_with_pv(0)
    if isinstance(m, BBDDManager):
        with pytest.raises(BBDDError):
            m.nodes_with_sv(0)


@pytest.mark.parametrize("backend", ["bbdd", "bdd"])
@pytest.mark.parametrize("seed", range(6))
def test_swap_stats_account_for_every_node(backend, seed):
    """``size()`` after a swap = before - ``nodes_swept`` + ``nodes_created``."""
    rng = random.Random(900 + seed)
    n = rng.randint(4, 7)
    m, funcs = _random_forest(backend, rng, n)
    masks = [f.truth_mask(range(n)) for f in funcs]
    created = 0
    for _ in range(rng.randint(10, 20)):
        stats = reorder.SwapStats()
        before = m.size()
        _SWAP[backend](m, rng.randrange(n - 1), stats)
        assert m.size() == before - stats.nodes_swept + stats.nodes_created
        created += stats.nodes_created
    assert created > 0
    assert [f.truth_mask(range(n)) for f in funcs] == masks


@pytest.mark.parametrize("backend", ["bbdd", "bdd"])
def test_level_sets_exist_only_while_reordering(backend):
    row = next(r for r in TABLE1_ROWS if r.name == "alu4")
    m, functions = build(row.build(full=False), backend=backend)
    n = m.num_vars
    _assert_no_level_sets(m)
    m.sift()
    _assert_no_level_sets(m)
    m.sift(converge=True)
    _assert_no_level_sets(m)
    _REORDER_TO[backend](m, list(reversed(m.order.order)))
    _assert_no_level_sets(m)
    _SWAP[backend](m, 0)
    _assert_no_level_sets(m)
    with pytest.raises(OrderError):
        _SWAP[backend](m, n - 1)
    _assert_no_level_sets(m)
    m.check_invariants()


@pytest.mark.parametrize("backend", ["bbdd", "bdd"])
def test_level_index_is_reentrant_and_dropped_on_errors(backend):
    m, funcs = _random_forest(backend, random.Random(5), 5)
    builds = []
    index_levels = m._index_levels

    def counting():
        builds.append(1)
        index_levels()

    m._index_levels = counting
    with m._level_index():
        held = _level_sets(m)
        with m._level_index():
            _SWAP[backend](m, 1)
        assert _level_sets(m) == held
        m.check_invariants()
    _assert_no_level_sets(m)
    with pytest.raises(RuntimeError):
        with m._level_index():
            raise RuntimeError("boom")
    _assert_no_level_sets(m)
    assert len(builds) == 2
    # A sift builds the sets once, not once per swap.
    result = m.sift()
    assert result.swaps > 1
    assert len(builds) == 3


@pytest.mark.parametrize("seed", range(4))
def test_sift_keeps_level_sets_exact(seed, monkeypatch):
    """The index the sift holds matches the store after every swap and
    after every rewind of the checkpointing driver."""
    rng = random.Random(950 + seed)
    n = rng.randint(5, 7)
    m, funcs = _random_forest("bbdd", rng, n)
    masks = [f.truth_mask(range(n)) for f in funcs]
    checked = {"swaps": 0, "rewinds": 0}
    swap = reorder.swap_adjacent
    restore = m._restore

    def check():
        assert m._by_pv is not None and m._by_sv is not None
        m.check_invariants()

    def checked_swap(manager, k, stats=None):
        swap(manager, k, stats)
        checked["swaps"] += 1
        check()

    def checked_restore(state):
        restore(state)
        checked["rewinds"] += 1
        check()

    monkeypatch.setattr(reorder, "swap_adjacent", checked_swap)
    m._restore = checked_restore
    m.sift(converge=True)
    assert checked["swaps"] > 0 and checked["rewinds"] > 0
    _assert_no_level_sets(m)
    m.check_invariants()
    assert [f.truth_mask(range(n)) for f in funcs] == masks
