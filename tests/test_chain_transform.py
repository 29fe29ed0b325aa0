"""Algorithm 1's chain transform and the work it costs a build.

When both operands of an expansion are rooted at the couple's PV ``v``
but one of them chains to a later SV ``w2`` than the expansion's
partner ``w``, its cofactors re-root it at ``(w, w2)`` (the fourth case
of :meth:`~repro.core.manager.BBDDManager._cofactors`).  ``_apply``
derives each such pair once per operation.  These tests pin the results
of that case against the truth-table oracle (a memo that outlived its
operation would hand back slots a collection freed) and the work of a
build (without the memo it makes more unique-table probes; a memo keyed
on the node alone, without ``w``, builds a different forest).
"""

import random

import pytest

from repro.circuits.registry import TABLE1_ROWS
from repro.core import BBDDManager
from repro.core.operations import ALL_OPS, op_name
from repro.core.reorder import from_truth_table
from repro.core.truthtable import TruthTable
from repro.network.build import build

N = 6


def test_fast_c1908_build_work():
    """Probes, lookups and peak of the fast-profile C1908 build.

    Deriving each transform at every expansion costs 4,860 unique-table
    probes here; the computed-table lookups and the peak do not depend
    on the memo.
    """
    row = next(r for r in TABLE1_ROWS if r.name == "C1908")
    manager, functions = build(row.build(full=False), backend="bbdd")
    assert manager.node_count(list(functions.values())) == 1298
    stats = manager.table_stats()
    assert stats["unique"]["lookups"] <= 3894
    assert stats["computed"]["lookups"] == 5371
    assert stats["peak_nodes"] == 3015


def _root(manager, f):
    """``(pv, sv)`` of a handle's root row."""
    return manager.node_fields(abs(f.edge))[:2]


def _transform_pairs(seed, count):
    """Truth masks of ``count`` operand pairs whose roots share a PV only.

    ``a`` depends on variables 0 and 1, so its root is the couple
    ``(0, 1)``; ``b`` is made independent of variable 1 (and sometimes 2
    as well), so its root chains from 0 to a later SV, and every
    expansion of the pair at variable 0 re-roots ``b``.
    """
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        a = TruthTable(N, rng.getrandbits(1 << N))
        b = TruthTable(N, rng.getrandbits(1 << N)).restrict(1, rng.random() < 0.5)
        if rng.random() < 0.5:
            b = b.restrict(2, rng.random() < 0.5)
        if {0, 1} <= a.support() and 0 in b.support() and len(b.support()) > 1:
            pairs.append((a.mask, b.mask))
    return pairs


@pytest.mark.parametrize("op", ALL_OPS, ids=op_name)
def test_transform_case_matches_truth_tables(op):
    for ma, mb in _transform_pairs(op, 6):
        m = BBDDManager(N)
        fa = m.function(from_truth_table(m, ma))
        fb = m.function(from_truth_table(m, mb))
        (pa, sa), (pb, sb) = _root(m, fa), _root(m, fb)
        assert pa == pb == 0 and sa != sb, "not the transform case"
        ta, tb = TruthTable(N, ma), TruthTable(N, mb)
        for na in (False, True):
            for nb in (False, True):
                f, tf = (~fa, ~ta) if na else (fa, ta)
                g, tg = (~fb, ~tb) if nb else (fb, tb)
                # The transformed operand second, then first.
                for x, y, tx, ty in ((f, g, tf, tg), (g, f, tg, tf)):
                    result = x.apply(y, op)
                    assert result.truth_mask(range(N)) == tx.apply(ty, op).mask
                    # The same pair again in the same manager, after a
                    # collection that frees the dropped results' slots
                    # and empties the computed table, so the engine
                    # expands it anew under a fresh per-operation memo.
                    m.gc()
                    assert x.apply(y, op) == result
                    m.check_invariants()
