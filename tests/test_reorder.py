"""CVO swap theory and sifting: the Fig. 2 validation battery.

The in-place swap is checked against the strongest available oracle: a
from-scratch rebuild under the new order must be structurally identical
(canonicity), and every user handle must keep its function.
"""

import random

import pytest

from repro.circuits.registry import TABLE1_ROWS
from repro.core import BBDDManager
from repro.core import reorder
from repro.core.traversal import count_nodes, reachable_nodes
from repro.network.build import build


def _random_forest(rng, n, count):
    m = BBDDManager(n)
    masks = [rng.getrandbits(1 << n) for _ in range(count)]
    funcs = [m.function(reorder.from_truth_table(m, mask)) for mask in masks]
    return m, masks, funcs


@pytest.mark.parametrize("seed", range(8))
def test_single_swap_preserves_functions(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    m, masks, funcs = _random_forest(rng, n, rng.randint(1, 4))
    k = rng.randrange(n - 1)
    reorder.swap_adjacent(m, k)
    m.check_invariants()
    for f, mask in zip(funcs, masks):
        assert f.truth_mask(range(n)) == mask


@pytest.mark.parametrize("seed", range(8))
def test_swap_sequence_matches_rebuild_oracle(seed):
    rng = random.Random(100 + seed)
    n = rng.randint(3, 7)
    m, masks, funcs = _random_forest(rng, n, rng.randint(1, 3))
    for _ in range(rng.randint(2, 12)):
        reorder.swap_adjacent(m, rng.randrange(n - 1))
    m.check_invariants()
    m2 = BBDDManager(n)
    m2.order.set_order(m.order.order)
    edges2 = [reorder.from_truth_table(m2, mask) for mask in masks]
    m.gc()
    assert count_nodes(m, [f.edge for f in funcs]) == count_nodes(m2, edges2)
    for f, e2 in zip(funcs, edges2):
        assert f.attr == (e2 < 0)
        assert f.truth_mask(range(n)) == m2.function(e2).truth_mask(range(n))


def test_swap_is_pointer_stable():
    m = BBDDManager(4)
    a, b, c, d = m.variables()
    f = (a & b) | (c ^ d)
    root_before = f.node
    reorder.swap_adjacent(m, 1)
    assert f.node is root_before  # handles stay valid without rewriting


def test_swap_locality_untouched_functions():
    """Functions that involve only one of the two swapped variables must
    keep their root node untouched (the paper's locality claim)."""
    m = BBDDManager(5)
    a, b, c, d, e = m.variables()
    g = a.xnor(c)  # depends on neither x1 nor... involves c only
    h = b & e
    g_root, h_root = g.node, h.node
    g_tuple = (g.node.pv, g.node.sv, g.node.neq, g.node.eq)
    reorder.swap_adjacent(m, 3)  # swap x3, x4: g untouched entirely
    assert g.node is g_root
    assert (g.node.pv, g.node.sv, g.node.neq, g.node.eq) == g_tuple
    assert h.node is h_root  # h depends on x4 but not x3: untouched
    m.check_invariants()


def test_sift_shrinks_interleaving_blowup():
    n_pairs = 4
    names = [f"a{i}" for i in range(n_pairs)] + [f"b{i}" for i in range(n_pairs)]
    m = BBDDManager(names)
    f = m.true()
    for i in range(n_pairs):
        f = f & m.var(f"a{i}").xnor(m.var(f"b{i}"))
    mask = f.truth_mask(names)
    result = reorder.sift(m, converge=True)
    m.check_invariants()
    assert f.truth_mask(names) == mask
    assert result.final_size <= result.initial_size
    # The equality-of-vectors function is linear under the sifted order.
    assert f.node_count() <= n_pairs + 1


def test_swap_with_dead_garbage_then_converge_sift():
    """Swapping over a store holding once-live dead nodes must not let a
    reclaimed slot's recycled identity alias a stale unique-table key
    (the flat store's ABA hazard): the dead node's key names child slots
    whose counts it already dropped, so a level sweep may free and
    ``_make`` re-issue them mid-swap."""
    width = 6
    names = [f"a{i}" for i in range(width)] + [f"b{i}" for i in range(width)]
    m = BBDDManager(names)
    # add_expr leaves floating intermediates and once-live dead nodes
    # behind — deliberately no gc() before the raw swap primitive.
    equal = m.add_expr(" & ".join(f"(a{i} <-> b{i})" for i in range(width)))
    mask = equal.truth_mask(names)
    reorder.swap_adjacent(m, width - 1)
    m.check_invariants()
    assert equal.truth_mask(names) == mask
    result = reorder.sift(m, converge=True)
    m.check_invariants()
    assert equal.truth_mask(names) == mask
    # The interleaved comparator chain is linear.
    assert result.final_size <= 2 * width + 1


@pytest.mark.parametrize("seed", range(5))
def test_sift_preserves_random_forests(seed):
    rng = random.Random(200 + seed)
    n = rng.randint(3, 7)
    m, masks, funcs = _random_forest(rng, n, 2)
    result = reorder.sift(m)
    m.check_invariants()
    for f, mask in zip(funcs, masks):
        assert f.truth_mask(range(n)) == mask
    _assert_sizes_are_live(m, result, funcs)


def test_reorder_to_target():
    rng = random.Random(42)
    n = 6
    m, masks, funcs = _random_forest(rng, n, 2)
    perm = list(range(n))
    rng.shuffle(perm)
    reorder.reorder_to(m, perm)
    assert m.order.order == tuple(perm)
    m.check_invariants()
    for f, mask in zip(funcs, masks):
        assert f.truth_mask(range(n)) == mask


def test_sift_max_swaps_budget():
    rng = random.Random(77)
    m, masks, funcs = _random_forest(rng, 6, 3)
    result = reorder.sift(m, max_swaps=5)
    assert result.swaps <= 5
    for f, mask in zip(funcs, masks):
        assert f.truth_mask(range(6)) == mask


def test_from_truth_table_builds_canonically():
    m = BBDDManager(3)
    a, b, c = m.variables()
    f_apply = (a ^ b) | c
    mask = f_apply.truth_mask(range(3))
    f_tt = m.function(reorder.from_truth_table(m, mask))
    assert f_apply == f_tt


# ----------------------------------------------------------------------
# sift sizes and the paths of the swap
# ----------------------------------------------------------------------


def _assert_sizes_are_live(m, result, handles):
    """``final_size``, ``size()`` and the live count agree, and
    ``handles`` are exactly the live handles."""
    edges = [f.edge for f in handles]
    m.check_ref_counts(roots=edges)
    assert result.final_size == m.size() == count_nodes(m, edges)


@pytest.mark.parametrize("name", ["alu4", "C17", "my_adder"])
def test_sift_sizes_count_live_nodes_on_table1_rows(name):
    """A swap leaves nothing unacquired behind, so the sizes sifting
    compares (and reports) are live node counts — on both expansions,
    whose rows share one store."""
    row = next(r for r in TABLE1_ROWS if r.name == name)
    for backend in ("bbdd", "bdd"):
        m, functions = build(row.build(full=False), backend=backend)
        _assert_sizes_are_live(m, m.sift(), list(functions.values()))


def _free_of(mask, n, var):
    """``mask`` with its ``var = 1`` half replaced by its ``var = 0`` half."""
    low = ~(1 << var)
    return sum(1 << i for i in range(1 << n) if (mask >> (i & low)) & 1)


def _held_forest(rng, n):
    """Random functions plus handles on sub-functions.

    Handles on internal nodes keep some B-nodes (couple ``(x, y)``) alive
    through a swap and pin some y-children, which then cannot move.
    ``ite(w <-> v, g, h)`` with ``g`` held gives A-nodes whose rewritten
    child is an existing (y, x) node.
    """
    m = BBDDManager(n)
    funcs = [
        m.function(reorder.from_truth_table(m, rng.getrandbits(1 << n)))
        for _ in range(rng.randint(2, 3))
    ]
    nodes = sorted(reachable_nodes(m, [f.edge for f in funcs]))
    for node in rng.sample(nodes, min(len(nodes), rng.randint(1, 6))):
        funcs.append(m.function(node if rng.random() < 0.5 else -node))
    w, v = rng.sample(range(n), 2)
    g, h = (
        m.function(reorder.from_truth_table(m, _free_of(rng.getrandbits(1 << n), n, w)))
        for _ in range(2)
    )
    funcs += [g, m.var(w).xnor(m.var(v)).ite(g, h)]
    return m, funcs


@pytest.mark.parametrize("seed", range(12))
def test_swap_paths_on_held_forests(seed):
    """Random swaps with apply and gc between them, then a converging
    sift, on forests whose sub-functions are held: after every swap the
    store is canonical, every count is exact and every function holds."""
    rng = random.Random(400 + seed)
    n = rng.randint(4, 8)
    m, funcs = _held_forest(rng, n)
    masks = [f.truth_mask(range(n)) for f in funcs]
    full = (1 << (1 << n)) - 1

    def check():
        m.check_invariants()
        m.check_ref_counts(roots=[f.edge for f in funcs])
        assert [f.truth_mask(range(n)) for f in funcs] == masks

    for _ in range(rng.randint(12, 24)):
        step = rng.random()
        if step < 0.7:
            reorder.swap_adjacent(m, rng.randrange(n - 1))
            check()
        elif step < 0.9:
            i, j, k = (rng.randrange(len(funcs)) for _ in range(3))
            if rng.random() < 0.5:
                funcs[k], masks[k] = funcs[i] & funcs[j], masks[i] & masks[j]
            else:
                funcs[k], masks[k] = funcs[i] ^ ~funcs[j], masks[i] ^ (full & ~masks[j])
        else:
            m.gc()
    result = reorder.sift(m, converge=True)
    check()
    _assert_sizes_are_live(m, result, funcs)
    rebuilt = BBDDManager(n)
    rebuilt.order.set_order(m.order.order)
    edges = [reorder.from_truth_table(rebuilt, mask) for mask in masks]
    assert m.size() == count_nodes(rebuilt, edges)

