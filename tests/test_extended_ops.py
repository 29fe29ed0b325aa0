"""Extended operations: ITE, restrict, compose, quantification, support."""

import random

import pytest

import repro
from repro.core import BBDDManager
from repro.core.reorder import from_truth_table
from repro.core.truthtable import TruthTable


def _pair(n, seed):
    rng = random.Random(seed)
    m = BBDDManager(n)
    masks = [rng.getrandbits(1 << n) for _ in range(3)]
    funcs = [m.function(from_truth_table(m, mask)) for mask in masks]
    tts = [TruthTable(n, mask) for mask in masks]
    return m, funcs, tts


def test_ite_matches_oracle():
    for seed in range(10):
        n = 4
        m, (f, g, h), (tf, tg, th) = _pair(n, seed)
        got = f.ite(g, h)
        want = (tf & tg) | (~tf & th)
        assert got.truth_mask(range(n)) == want.mask


def test_restrict_all_vars_both_values():
    for seed in range(8):
        n = 5
        m, (f, _g, _h), (tf, _tg, _th) = _pair(n, seed)
        for var in range(n):
            for value in (False, True):
                got = f.restrict(var, value)
                assert got.truth_mask(range(n)) == tf.restrict(var, value).mask


def test_restrict_then_support_drops_variable():
    m = BBDDManager(4)
    a, b, c, d = m.variables()
    f = (a & b) ^ (c | d)
    r = f.restrict("x1", True)
    assert "x1" not in r.support()


def test_compose_matches_oracle():
    for seed in range(8):
        n = 4
        m, (f, g, _h), (tf, tg, _th) = _pair(n, seed)
        var = seed % n
        got = f.compose(var, g)
        assert got.truth_mask(range(n)) == tf.compose(var, tg).mask


def test_quantification():
    for seed in range(8):
        n = 4
        m, (f, _g, _h), (tf, _tg, _th) = _pair(n, seed)
        var = seed % n
        assert f.exists([var]).truth_mask(range(n)) == tf.exists(var).mask
        assert f.forall([var]).truth_mask(range(n)) == tf.forall(var).mask


def test_multi_var_quantification():
    n = 5
    m, (f, _g, _h), (tf, _tg, _th) = _pair(n, 99)
    got = f.exists([0, 2, 4])
    want = tf.exists(0).exists(2).exists(4)
    assert got.truth_mask(range(n)) == want.mask


def test_support_exactness_random():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 6)
        mask = rng.getrandbits(1 << n)
        m = BBDDManager(n)
        f = m.function(from_truth_table(m, mask))
        want = frozenset(m.var_name(v) for v in TruthTable(n, mask).support())
        assert f.support() == want


def test_implies_and_and_not():
    m = BBDDManager(2)
    a, b = m.variables()
    assert a.implies(b).evaluate({0: 0, 1: 0})
    assert not a.implies(b).evaluate({0: 1, 1: 0})
    assert a.and_not(b).evaluate({0: 1, 1: 0})
    assert not a.and_not(b).evaluate({0: 1, 1: 1})


# ----------------------------------------------------------------------
# let: structural relabel and the general rebuild, against truth tables
# ----------------------------------------------------------------------

LET_VARS = 8

#: (function kind, support, substitution, relabels).  Substitution
#: values: ("var", k) renames to variable k, ("nvar", k) substitutes
#: its negation, ("and", (j, k)) the function x_j & x_k, ("const", b)
#: restricts.  Over the order [s0, s0', s1, s1', ...] the first case is
#: the reachability frame shift s_i' -> s_i.  ``relabels`` says whether
#: the rename qualifies for the structural relabel (a span in the
#: source still sends it to the rebuild).
LET_CASES = [
    ("random", (1, 3, 5, 7), {1: ("var", 0), 3: ("var", 2), 5: ("var", 4), 7: ("var", 6)}, True),
    ("random", (0, 2, 5), {2: ("var", 3)}, True),
    ("random", (1, 2, 4), {1: ("var", 0), 2: ("var", 3), 4: ("var", 7), 6: ("var", 5)}, True),
    ("random", (0, 2, 4, 6), {0: ("const", 1), 4: ("var", 5)}, True),
    ("random", (2, 5), {0: ("var", 1)}, True),
    ("parity", (1, 2, 3, 4, 5), {1: ("var", 0), 5: ("var", 7)}, True),
    ("parity", (1, 3, 5), {3: ("var", 2), 5: ("var", 3)}, True),
    ("random", (0, 2, 4), {0: ("var", 2), 2: ("var", 0)}, False),
    ("random", (0, 2, 4), {0: ("var", 5), 4: ("var", 1)}, False),
    ("random", (0, 2, 4), {0: ("var", 2)}, False),
    ("random", (0, 2, 4), {2: ("nvar", 3)}, False),
    ("random", (0, 2, 4), {2: ("and", (3, 6))}, False),
]


def _table_over(rng, kind, support):
    """A truth table over LET_VARS variables whose support is ``support``."""
    if kind == "parity":
        table = TruthTable.const(LET_VARS, False)
        for var in support:
            table = table ^ TruthTable.var(LET_VARS, var)
        return table
    while True:
        bits = rng.getrandbits(1 << len(support))
        values = []
        for i in range(1 << LET_VARS):
            code = sum(1 << k for k, var in enumerate(support) if i >> var & 1)
            values.append(bits >> code & 1)
        table = TruthTable.from_values(values)
        if table.support() == frozenset(support):
            return table


def _substituted(table, values):
    """Simultaneous substitution on a truth table: ``values[j]`` is a table."""
    out = []
    for i in range(1 << table.n):
        source = i
        for var, value in values.items():
            if value.value(i):
                source |= 1 << var
            else:
                source &= ~(1 << var)
        out.append(table.value(source))
    return TruthTable.from_values(out)


def _check_let_case(m, rng, kind, support, spec, relabels):
    table = _table_over(rng, kind, support)
    f = m.function(from_truth_table(m, table.mask))
    subst, values, handles, base = {}, {}, {}, f
    for var, (what, arg) in spec.items():
        if what == "const":
            subst[var] = bool(arg)
            values[var] = TruthTable.const(LET_VARS, bool(arg))
            base = base.restrict(var, bool(arg))
            continue
        if what == "var":
            subst[var] = m.var_name(arg)
            values[var] = TruthTable.var(LET_VARS, arg)
            handles[var] = m.var(arg)
        elif what == "nvar":
            subst[var] = handles[var] = m.nvar(arg)
            values[var] = ~TruthTable.var(LET_VARS, arg)
        else:
            j, k = arg
            subst[var] = handles[var] = m.var(j) & m.var(k)
            values[var] = TruthTable.var(LET_VARS, j) & TruthTable.var(LET_VARS, k)
    want = _substituted(table, values)
    got = f.let(subst)
    assert got.truth_mask(range(LET_VARS)) == want.mask, (kind, support, spec)
    # Canonical: the same node as a direct build of the expected table.
    assert got == m.function(from_truth_table(m, want.mask)), (kind, support, spec)
    structural = m.relabel_edge(
        base.edge, {var: handle.edge for var, handle in handles.items()}
    )
    assert (structural is not None) == relabels, (kind, support, spec)
    if structural is not None:
        assert structural == got.edge
    return [f, got]


def test_let_relabel_and_rebuild_match_truth_table():
    """Order-preserving renames relabel; every other map rebuilds; both exact."""
    rng = random.Random(16)
    m = BBDDManager(LET_VARS)
    live = []
    for _round in range(4):
        for kind, support, spec, relabels in LET_CASES:
            live += _check_let_case(m, rng, kind, support, spec, relabels)
    m.check_invariants()
    m.check_ref_counts([h.edge for h in live])
    m.gc()
    m.check_invariants()
    m.check_ref_counts([h.edge for h in live])


# ----------------------------------------------------------------------
# let: the general rebuild on every backend
# ----------------------------------------------------------------------

REBUILD_VARS = 7

#: Substitutions that send ``let`` to the rebuild: swaps, support
#: rotations (the last variable wraps to the top, so no rename keeps
#: the order), values that mention substituted variables, and
#: constants next to function values.  ("var", k) renames to variable
#: k, ("nvar", k) substitutes its negation, ("and"/"xor", (j, k)) the
#: function x_j & x_k / x_j ^ x_k, ("const", b) restricts.
REBUILD_CASES = [
    {0: ("var", 3), 3: ("var", 0)},
    {i: ("var", (i + 1) % REBUILD_VARS) for i in range(REBUILD_VARS)},
    {1: ("var", 4), 4: ("var", 2), 2: ("var", 1)},
    {1: ("and", (1, 3)), 3: ("xor", (1, 5))},
    {0: ("nvar", 0), 6: ("var", 2), 2: ("var", 6)},
    {2: ("const", 1), 5: ("xor", (2, 6)), 6: ("var", 5)},
    {4: ("const", 0), 0: ("and", (4, 0)), 1: ("nvar", 4)},
]


def _build_table(m, table):
    """``table`` built on ``m`` by Shannon expansion, highest index first."""
    level = [m.true() if table.value(i) else m.false() for i in range(1 << table.n)]
    for var in reversed(range(table.n)):
        half = len(level) // 2
        x = m.var(var)
        level = [x.ite(level[i + half], level[i]) for i in range(half)]
    return level[0]


def _rebuild_forest(rng):
    """Truth tables over REBUILD_VARS variables: random, sparse, parity."""
    n = REBUILD_VARS
    tables = [TruthTable(n, rng.getrandbits(1 << n)) for _ in range(2)]
    support = rng.sample(range(n), 4)
    sparse = TruthTable.const(n, False)
    for _ in range(3):
        term = TruthTable.const(n, True)
        for var in rng.sample(support, 2):
            literal = TruthTable.var(n, var)
            term = term & (literal if rng.random() < 0.5 else ~literal)
        sparse = sparse | term
    parity = TruthTable.const(n, True)
    for var in support[:3]:
        parity = parity ^ TruthTable.var(n, var)
    return tables + [sparse, parity, TruthTable.const(n, False)]


def _substitution(m, spec):
    """The ``let`` mapping of ``spec`` and its truth-table values."""
    n = REBUILD_VARS
    subst, values = {}, {}
    for var, (what, arg) in spec.items():
        if what == "const":
            subst[var] = bool(arg)
            values[var] = TruthTable.const(n, bool(arg))
        elif what == "var":
            subst[var] = m.var_name(arg)
            values[var] = TruthTable.var(n, arg)
        elif what == "nvar":
            subst[var] = m.nvar(arg)
            values[var] = ~TruthTable.var(n, arg)
        elif what == "and":
            j, k = arg
            subst[var] = m.var(j) & m.var(k)
            values[var] = TruthTable.var(n, j) & TruthTable.var(n, k)
        else:
            j, k = arg
            subst[var] = m.var(j) ^ m.var(k)
            values[var] = TruthTable.var(n, j) ^ TruthTable.var(n, k)
    return subst, values


def _check_rebuild_round(m, rng):
    """One forest through every REBUILD_CASES map; its live handles."""
    tables = _rebuild_forest(rng)
    forest = [_build_table(m, table) for table in tables]
    results = []
    for spec in REBUILD_CASES:
        subst, values = _substitution(m, spec)
        for table, f in zip(tables, forest):
            got = f.let(subst)
            want = _substituted(table, values)
            assert got.truth_mask(range(REBUILD_VARS)) == want.mask, spec
            results.append(got)
    return forest + results


def _pair_swap_chain(m, pairs, swapped):
    """OR over pairs of ``x_a & ~x_b`` (``x_b & ~x_a`` when swapped)."""
    acc = m.false()
    for i in reversed(range(pairs)):
        a, b = m.var(2 * i), m.var(2 * i + 1)
        acc = (b.and_not(a) if swapped else a.and_not(b)) | acc
    return acc


@pytest.mark.parametrize("backend", ["bbdd", "bdd", "xmem"])
def test_let_rebuild_matches_truth_table(backend, low_recursion_limit):
    """The general ``let`` rebuild equals a truth-table compose oracle.

    Random forests over seven variables go through swaps, support
    rotations, function values that mention the substituted variables
    and constants; GC runs between rounds.  A 1,500-variable chain with
    every pair swapped checks that the rebuild does not recurse.
    """
    rng = random.Random(20)
    m = repro.open(backend, vars=[f"x{i}" for i in range(REBUILD_VARS)])
    if backend == "xmem":
        for _round in range(3):
            _check_rebuild_round(m, rng)
        return
    m.gc_min_nodes = 64
    live = []
    for _round in range(3):
        live += _check_rebuild_round(m, rng)
        m.gc()
        m.check_invariants()
        m.check_ref_counts([h.edge for h in live])
    pairs = 750
    deep = repro.open(backend, vars=[f"y{i}" for i in range(2 * pairs)])
    chain = _pair_swap_chain(deep, pairs, swapped=False)
    swap = {}
    for i in range(pairs):
        swap[2 * i] = deep.var_name(2 * i + 1)
        swap[2 * i + 1] = deep.var_name(2 * i)
    assert chain.let(swap) == _pair_swap_chain(deep, pairs, swapped=True)
