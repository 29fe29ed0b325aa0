"""BBDD manager unit tests: construction, reduction rules, GC."""

import pytest

from repro.core import BBDDManager
from repro.core.exceptions import ForeignManagerError, VariableError


def test_variable_registration():
    m = BBDDManager(["a", "b", "c"])
    assert m.num_vars == 3
    assert m.var_index("b") == 1
    assert m.var_name(2) == "c"
    with pytest.raises(VariableError):
        m.var_index("z")
    with pytest.raises(VariableError):
        BBDDManager(["a", "a"])


def test_new_var_appends():
    m = BBDDManager(2)
    idx = m.new_var("extra")
    assert idx == 2
    assert m.current_order()[-1] == "extra"
    f = m.var("extra") & m.var(0)
    assert f.evaluate({"extra": 1, 0: 1})


def test_constants_and_literals():
    m = BBDDManager(2)
    assert m.true().is_true
    assert m.false().is_false
    a = m.var(0)
    assert a.evaluate({0: 1, 1: 0})
    assert not a.evaluate({0: 0, 1: 0})
    assert (~a).evaluate({0: 0, 1: 1})
    # The literal node is unique (strong canonical form).
    assert m.var(0).node is m.var(0).node


def test_complement_edge_identities():
    m = BBDDManager(3)
    a, b, c = m.variables()
    f = (a & b) | c
    assert ~~f == f
    assert (~f | f).is_true
    assert (~f & f).is_false


def test_reduction_r2_identical_children():
    m = BBDDManager(2)
    a, b = m.variables()
    # (a AND b) OR (a AND NOT b) == a: the couple on b must collapse.
    f = (a & b) | (a & ~b)
    assert f == a


def test_reduction_r4_literal_degeneration():
    m = BBDDManager(3)
    a, b, c = m.variables()
    # (a XNOR b) XNOR b == a (the chain through b cancels to a literal).
    f = a.xnor(b).xnor(b)
    assert f == a
    assert f.node.sv == -1  # SV_ONE: an R4 "BDD node"


def test_sv_elimination_support_chaining():
    m = BBDDManager(5)
    a, b, c, d, e = m.variables()
    # A function of {a, e} must not pay for the b, c, d gap (rule R3).
    g = a.xnor(e)
    assert g.node_count() == 1
    assert g.support() == frozenset({"x0", "x4"})


def test_gc_reclaims_unreferenced():
    m = BBDDManager(4)
    a, b, c, d = m.variables()
    f = (a ^ b) | (c & d)
    size_with_f = m.size()
    del f
    reclaimed = m.gc()
    assert reclaimed > 0
    assert m.size() < size_with_f
    m.check_invariants()
    # Variables still alive through the handles.
    assert m.size() >= 4


def test_gc_keeps_live_nodes():
    m = BBDDManager(3)
    a, b, c = m.variables()
    f = a & b | c
    mask = f.truth_mask(["x0", "x1", "x2"])
    m.gc()
    assert f.truth_mask(["x0", "x1", "x2"]) == mask
    m.check_invariants()


def test_foreign_manager_rejected():
    m1 = BBDDManager(2)
    m2 = BBDDManager(2)
    with pytest.raises(ForeignManagerError):
        m1.var(0) & m2.var(0)


def test_table_stats_shape():
    m = BBDDManager(3)
    a, b, c = m.variables()
    _f = (a & b) ^ c
    stats = m.table_stats()
    assert stats["nodes"] == m.size()
    assert "unique" in stats and "computed" in stats


def test_disabled_cache_still_correct():
    m = BBDDManager(4, computed_backend="disabled")
    a, b, c, d = m.variables()
    f = (a & b) | (c ^ d)
    ref = BBDDManager(4)
    g = (ref.var(0) & ref.var(1)) | (ref.var(2) ^ ref.var(3))
    assert f.truth_mask(range(4)) == g.truth_mask(range(4))
