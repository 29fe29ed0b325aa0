"""Extended operations: ITE, restrict, compose, quantification, support."""

import random

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
    for i in range(1 << LET_VARS):
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
