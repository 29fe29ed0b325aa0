"""Hypothesis property tests over the core invariants.

These complement the randomized trials in the other modules with
shrinkable, generator-driven coverage of the package's central claims:
operation semantics, canonicity, swap-based reordering, and the
cross-package agreement between BBDDs and the baseline BDDs.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.bdd import BDDManager
from repro.core import BBDDManager
from repro.core import reorder
from repro.core.operations import ALL_OPS
from repro.core.truthtable import TruthTable
from repro.io.migrate import migrate_forest

# max_examples comes from the active hypothesis profile (fast/ci —
# see tests/conftest.py); only per-test shape settings live here.
_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def masked_function(draw, max_vars=5):
    n = draw(st.integers(min_value=2, max_value=max_vars))
    mask = draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    return n, mask


@given(masked_function(), st.sampled_from(ALL_OPS), st.data())
@settings(**_SETTINGS)
def test_apply_semantics_property(fn, op, data):
    n, ma = fn
    mb = data.draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    m = BBDDManager(n)
    fa = m.function(reorder.from_truth_table(m, ma))
    fb = m.function(reorder.from_truth_table(m, mb))
    fc = fa.apply(fb, op)
    assert fc.truth_mask(range(n)) == TruthTable(n, ma).apply(TruthTable(n, mb), op).mask
    m.check_invariants()


@given(masked_function())
@settings(**_SETTINGS)
def test_double_negation_and_self_ops(fn):
    n, mask = fn
    m = BBDDManager(n)
    f = m.function(reorder.from_truth_table(m, mask))
    assert ~~f == f
    assert (f ^ f).is_false
    assert (f & f) == f
    assert (f | ~f).is_true


@given(masked_function(), st.data())
@settings(**_SETTINGS)
def test_swap_preserves_function_property(fn, data):
    n, mask = fn
    m = BBDDManager(n)
    f = m.function(reorder.from_truth_table(m, mask))
    k = data.draw(st.integers(min_value=0, max_value=n - 2))
    reorder.swap_adjacent(m, k)
    m.check_invariants()
    assert f.truth_mask(range(n)) == mask


@given(masked_function())
@settings(**_SETTINGS)
def test_swap_involution_restores_structure(fn):
    n, mask = fn
    m = BBDDManager(n)
    f = m.function(reorder.from_truth_table(m, mask))
    before_order = m.order.order
    before_count = f.node_count()
    reorder.swap_adjacent(m, 0)
    reorder.swap_adjacent(m, 0)
    assert m.order.order == before_order
    assert f.node_count() == before_count
    assert f.truth_mask(range(n)) == mask


@given(masked_function())
@settings(**_SETTINGS)
def test_bbdd_and_bdd_agree(fn):
    n, mask = fn
    m = BBDDManager(n)
    f = m.function(reorder.from_truth_table(m, mask))
    mb = BDDManager(n)
    vs = mb.variables()

    def build(table, j=0):
        if table.mask == 0:
            return mb.false()
        if table.mask == table._full():
            return mb.true()
        f1 = build(table.restrict(j, True), j + 1)
        f0 = build(table.restrict(j, False), j + 1)
        return vs[j].ite(f1, f0)

    g = build(TruthTable(n, mask))
    assert f.truth_mask(range(n)) == g.truth_mask(range(n))
    assert f.sat_count() == g.sat_count()


@st.composite
def sparse_function(draw, max_vars=8):
    """A function over a random *subset* of the manager's variables.

    The support-chained CVO makes couples skip non-support variables,
    which is exactly the regime where sat_one's old partner resolution
    (against the global order) produced unsatisfying assignments.
    """
    n = draw(st.integers(min_value=2, max_value=max_vars))
    k = draw(st.integers(min_value=1, max_value=min(n, 4)))
    chosen = sorted(
        draw(
            st.sets(
                st.integers(min_value=0, max_value=n - 1),
                min_size=k,
                max_size=k,
            )
        )
    )
    sub_mask = draw(st.integers(min_value=1, max_value=(1 << (1 << k)) - 1))
    # Expand the k-variable table to all n variables (don't-care fill).
    mask = 0
    for i in range(1 << n):
        j = 0
        for bit, var in enumerate(chosen):
            j |= ((i >> var) & 1) << bit
        if (sub_mask >> j) & 1:
            mask |= 1 << i
    return n, mask


@given(sparse_function())
@settings(**_SETTINGS)
def test_sat_one_always_satisfies_property(fn):
    n, mask = fn
    m = BBDDManager(n)
    f = m.function(reorder.from_truth_table(m, mask))
    witness = f.sat_one()
    assert witness is not None  # sub_mask >= 1 guarantees satisfiability
    # The witness covers the support, so the strict evaluate accepts it
    # and the function holds under it.
    assert set(witness) >= f.support()
    assert f.evaluate(witness)
    # Cross-check against the truth-table oracle as well.
    index = 0
    for var in range(n):
        if witness.get(m.var_name(var), False):
            index |= 1 << var
    assert (mask >> index) & 1


@st.composite
def expr_forest(draw, max_vars=4, max_funcs=3, max_depth=3):
    """A small forest of random Boolean expression strings."""
    n = draw(st.integers(min_value=2, max_value=max_vars))
    names = [f"v{i}" for i in range(n)]

    def expr(depth):
        if depth >= max_depth or draw(st.booleans()):
            leaf = draw(st.integers(min_value=0, max_value=5))
            if leaf == 0:
                return "TRUE"
            if leaf == 1:
                return "FALSE"
            return draw(st.sampled_from(names))
        op = draw(st.sampled_from(["&", "|", "^", "->", "<->", "~", "ite"]))
        if op == "~":
            return f"~({expr(depth + 1)})"
        if op == "ite":
            return (
                f"ite({expr(depth + 1)}, {expr(depth + 1)}, {expr(depth + 1)})"
            )
        return f"({expr(depth + 1)} {op} {expr(depth + 1)})"

    count = draw(st.integers(min_value=1, max_value=max_funcs))
    return n, names, [expr(0) for _ in range(count)]


@given(expr_forest())
@settings(**_SETTINGS)
def test_backend_equivalence_round_trip_property(forest):
    """Every backend agrees with the BDD oracle through the migrator.

    A random expression forest is built on the flat int store, copied to
    each registered backend with :func:`migrate_forest`, and copied
    back into a fresh int store; ``evaluate_batch``/``sat_count``/
    ``to_expr`` must agree with an independently built BDD oracle at
    every hop.
    """
    n, names, exprs = forest
    oracle_mgr = repro.open(backend="bdd", vars=names)
    oracles = [oracle_mgr.add_expr(s) for s in exprs]
    src = repro.open(backend="bbdd", vars=names)
    fs = [src.add_expr(s) for s in exprs]
    assignments = [
        {name: bool((i >> k) & 1) for k, name in enumerate(names)}
        for i in range(1 << n)
    ]
    expected = [o.evaluate_batch(assignments) for o in oracles]
    for f, o, want in zip(fs, oracles, expected):
        assert f.evaluate_batch(assignments) == want
        assert f.sat_count() == o.sat_count()
    for backend in repro.backends():
        dst = repro.open(backend=backend, vars=names)
        back_mgr = repro.open(backend="bbdd", vars=names)
        for f, o, want in zip(fs, oracles, expected):
            copy = migrate_forest(f, dst)
            assert copy.evaluate_batch(assignments) == want
            assert copy.sat_count() == o.sat_count()
            round_trip = migrate_forest(copy, back_mgr)
            assert round_trip.evaluate_batch(assignments) == want
            assert round_trip.sat_count() == o.sat_count()
            reparsed = back_mgr.add_expr(copy.to_expr())
            assert reparsed.evaluate_batch(assignments) == want
        back_mgr.check_invariants()
    src.check_invariants()


@given(
    st.lists(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        min_size=2,
        max_size=6,
    ),
    st.data(),
)
@settings(**_SETTINGS)
def test_gc_churn_free_list_reuse_property(masks, data):
    """Interleaved builds and drops keep the store's accounting exact.

    At every step the incremental dead counter matches a full scan and
    the flat arrays partition into {slot 0, sink, allocated, free list}.
    After a collection, rebuilding the same forest must be served
    entirely from the free list — the arrays may not grow.
    """
    m = BBDDManager(5, auto_gc=False)

    def check_accounting():
        assert m.dead_count() == m._scan_dead()
        # Slot 0 and the sink are never allocated; everything else is
        # either a live/dead node or on the free list.
        assert len(m._pv) == 2 + m.size() + len(m._free_nodes)

    live = {}
    for i, mask in enumerate(masks):
        live[i] = m.function(reorder.from_truth_table(m, mask))
        check_accounting()
        if live and data.draw(st.booleans()):
            del live[data.draw(st.sampled_from(sorted(live)))]
            check_accounting()
    m.gc()
    assert m.dead_count() == 0 == m._scan_dead()
    check_accounting()
    m.check_invariants()
    # Free-list reuse: the first build reached this capacity with the
    # whole forest (plus construction intermediates) resident, so an
    # identical rebuild fits in the reclaimed slots.
    capacity = len(m._pv)
    rebuilt = [m.function(reorder.from_truth_table(m, mask)) for mask in masks]
    assert len(m._pv) == capacity
    check_accounting()
    for f, mask in zip(rebuilt, masks):
        assert f.truth_mask(range(5)) == mask
    m.check_invariants()


@given(masked_function(), st.data())
@settings(**_SETTINGS)
def test_restrict_quantify_laws(fn, data):
    n, mask = fn
    var = data.draw(st.integers(min_value=0, max_value=n - 1))
    m = BBDDManager(n)
    f = m.function(reorder.from_truth_table(m, mask))
    f1 = f.restrict(var, True)
    f0 = f.restrict(var, False)
    assert f.exists([var]) == (f1 | f0)
    assert f.forall([var]) == (f1 & f0)
    # Restriction removes the variable from the support.
    assert m.var_name(var) not in f1.support()
