"""The unified repro.api front end: factory, protocol parity, let, io.

Exercises the backend registry, the shared FunctionBase surface
(including the strict constant coercion), simultaneous ``let``
substitution, the baseline package's new parity operations
(ite/restrict/compose/quantification/sat_one/support), BDD dump/load,
and cross-backend migration.
"""

import io as _io
import itertools
import random

import pytest

import repro
from repro.api import FunctionBase, backends, register_backend
from repro.bdd.manager import BDDManager
from repro.core.exceptions import BBDDError, OperatorError, VariableError
from repro.core.manager import BBDDManager
from repro.core.operations import op_from_name, OP_LE, OP_XNOR

BACKENDS = ["bbdd", "bdd"]
#: The in-core pair plus the external-memory backend: every sweep on the
#: shared FunctionBase/protocol surface runs identically on all three.
ALL_BACKENDS = BACKENDS + ["xmem"]


# ----------------------------------------------------------------------
# factory and registry
# ----------------------------------------------------------------------


def test_open_factory_dispatch():
    assert isinstance(repro.open("bbdd", vars=3), BBDDManager)
    assert isinstance(repro.open("bdd", vars=3), BDDManager)
    assert isinstance(repro.open("BDD", vars=["x"]), BDDManager)  # case-insensitive
    assert set(backends()) >= {"bbdd", "bdd"}


def test_open_unknown_backend_lists_registered():
    with pytest.raises(BBDDError, match="bbdd"):
        repro.open("zdd", vars=2)


def test_register_backend_plugs_into_factory():
    calls = []

    def factory(variables, **kwargs):
        calls.append((variables, kwargs))
        return BBDDManager(variables, **kwargs)

    register_backend("test-backend", factory)
    try:
        m = repro.open("test-backend", vars=2, gc_min_nodes=7)
        assert isinstance(m, BBDDManager)
        assert calls == [(2, {"gc_min_nodes": 7})]
    finally:
        from repro.api import _BACKENDS

        del _BACKENDS["test-backend"]


def test_third_party_backend_uses_protocol_paths():
    """let/migrate on an unknown backend name: no rebuild sniffs the backend name."""
    from repro.io.migrate import migrate_forest

    class CustomManager(BBDDManager):
        backend = "custom"

    register_backend("custom", lambda v, **kw: CustomManager(v, **kw))
    try:
        m = repro.open("custom", vars=["a", "b", "c", "d"])
        f = m.add_expr("(a ^ b) | (c & ~d)")
        g = f.let({"a": "b", "b": "a", "d": m.add_expr("a & c")})
        assert g == m.add_expr("(b ^ a) | (c & ~(a & c))")
        dst = repro.open("bdd", vars=["a", "b", "c", "d"])
        moved = migrate_forest(f, dst)
        assert moved.truth_mask(["a", "b", "c", "d"]) == f.truth_mask(
            ["a", "b", "c", "d"]
        )
    finally:
        from repro.api import _BACKENDS

        del _BACKENDS["custom"]


def test_backend_without_freeze_export_fails_loudly():
    """``freeze_export`` is required: every reader of rows or columns says so."""
    from repro import io as rio
    from repro.api.base import DDManager
    from repro.io.migrate import migrate_forest
    from repro.par.shm import ShmForest, shm_available

    class NoColumnsManager(BBDDManager):
        backend = "no-columns"
        freeze_export = DDManager.freeze_export

    register_backend("no-columns", lambda v, **kw: NoColumnsManager(v, **kw))
    try:
        m = repro.open("no-columns", vars=["a", "b", "c"])
        f = m.add_expr("(a & b) | c")
        dst = repro.open("bbdd", vars=["a", "b", "c"])
        calls = {
            "evaluate_batch": lambda: f.evaluate_batch([{"a": 1, "b": 0, "c": 1}]),
            "satisfiable_batch": lambda: f.satisfiable_batch([{"a": 1}]),
            "sat_count": f.sat_count,
            "p_one": f.p_one,
            "dumps": lambda: rio.dumps(m, {"f": f}),
            "migrate_forest": lambda: migrate_forest(f, dst),
        }
        if shm_available():
            calls["freeze"] = lambda: ShmForest.freeze(m, {"f": f})
        for name, call in calls.items():
            with pytest.raises(NotImplementedError, match="'no-columns'"):
                call()
    finally:
        from repro.api import _BACKENDS

        del _BACKENDS["no-columns"]


def test_manager_let_rejects_foreign_function():
    from repro.core.exceptions import ForeignManagerError

    m1 = repro.open("bbdd", vars=["a"])
    m2 = repro.open("bbdd", vars=["a"])
    with pytest.raises(ForeignManagerError):
        m2.let({"a": True}, m1.var("a"))


def test_open_passes_table_backends():
    m = repro.open("bbdd", vars=4, computed_backend="disabled")
    f = m.add_expr("x0 ^ x1 ^ x2 ^ x3")
    assert f.sat_count() == 8
    assert m.table_stats()["computed"]["backend"] == "disabled"


# ----------------------------------------------------------------------
# shared wrapper: coercion, operators, equivalence
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_constant_coercion_accepts_bool_and_01(backend):
    m = repro.open(backend, vars=["a"])
    a = m.var("a")
    assert (a & True) == a
    assert (a & 1) == a
    assert (a & 0).is_false
    assert (a | False) == a
    assert (a ^ 1) == ~a
    assert a.ite(1, 0) == a
    assert a.equivalent(a)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("junk", [2, -1, 1.0, 0.0, "1", None, [1]])
def test_constant_coercion_rejects_non_bits(backend, junk):
    """Only bool/int 0-or-1 coerce; number-likes that == 1 must not."""
    m = repro.open(backend, vars=["a"])
    a = m.var("a")
    with pytest.raises(TypeError):
        a & junk


#: Variable keys that are neither a name nor a non-bool int index.
BAD_VAR_KEYS = [True, False, 1.0, None]


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("key", BAD_VAR_KEYS, ids=repr)
def test_var_index_takes_names_and_plain_ints_only(backend, key):
    """``True`` is not variable 1, and ``1.0``/``None`` fail typed, not later."""
    m = repro.open(backend, vars=["a", "b", "c"])
    assert m.var_index("b") == m.var_index(1) == 1
    f = m.add_expr("(a & b) | c")
    with pytest.raises(VariableError):
        m.var_index(key)
    with pytest.raises(VariableError):
        m.var(key)
    with pytest.raises(VariableError):
        f.p_one({key: 1.0})
    with pytest.raises(VariableError):
        f.evaluate({key: 1})
    with pytest.raises(VariableError):
        f.restrict(key, True)
    for index in (-1, 3):
        with pytest.raises(VariableError):
            m.var_index(index)


@pytest.mark.parametrize("key", BAD_VAR_KEYS + [-1, 3], ids=repr)
def test_frozen_forest_var_index_matches_managers(key):
    from repro.par import ShmForest, shm_available

    if not shm_available():
        pytest.skip("multiprocessing.shared_memory unavailable")
    m = repro.open("bbdd", vars=["a", "b", "c"])
    with ShmForest.freeze(m, {"f": m.add_expr("(a & b) | c")}) as forest:
        assert forest.var_index("b") == forest.var_index(1) == 1
        with pytest.raises(VariableError):
            forest.var_index(key)
        with pytest.raises(VariableError):
            forest.p_one("f", {key: 1.0})


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_foreign_manager_rejected(backend):
    from repro.core.exceptions import ForeignManagerError

    m1 = repro.open(backend, vars=["a"])
    m2 = repro.open(backend, vars=["a"])
    with pytest.raises(ForeignManagerError):
        m1.var("a") & m2.var("a")


def test_op_from_name_aliases_and_error():
    for alias in ("nand", "NOR", "Equiv", "imp", "implies", "xnor"):
        op_from_name(alias)
    assert op_from_name("equiv") == OP_XNOR
    assert op_from_name("imp") == OP_LE
    with pytest.raises(OperatorError, match="NAND"):
        op_from_name("frobnicate")
    with pytest.raises(BBDDError):
        op_from_name("frobnicate")
    with pytest.raises(ValueError):  # backward compatible
        op_from_name("frobnicate")


# ----------------------------------------------------------------------
# let: rename / restrict / compose, simultaneous semantics
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_let_rename_restrict_compose(backend):
    m = repro.open(backend, vars=["a", "b", "c"])
    f = m.add_expr("(a & b) | c")
    assert f.let({"a": "c"}) == m.add_expr("(c & b) | c")
    assert f.let({"c": False}) == m.add_expr("a & b")
    assert f.let({"c": 1}).is_true
    g = m.add_expr("a ^ b")
    assert f.let({"c": g}) == m.add_expr("(a & b) | (a ^ b)")


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_let_is_simultaneous(backend):
    m = repro.open(backend, vars=["a", "b"])
    f = m.add_expr("a & ~b")
    swapped = f.let({"a": "b", "b": "a"})
    assert swapped == m.add_expr("b & ~a")
    # Sequential compose would collapse to FALSE; simultaneous must not.
    assert not swapped.is_false


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_let_values_may_mention_substituted_vars(backend):
    m = repro.open(backend, vars=["a", "b"])
    f = m.add_expr("a ^ b")
    g = f.let({"a": m.add_expr("a & b"), "b": m.add_expr("a | b")})
    assert g == m.add_expr("(a & b) ^ (a | b)")


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_let_rejects_bad_values(backend):
    m = repro.open(backend, vars=["a", "b"])
    f = m.var("a")
    with pytest.raises(TypeError):
        f.let({"a": 2})
    with pytest.raises(VariableError):
        f.let({"nope": True})
    other = repro.open(backend, vars=["a"])
    from repro.core.exceptions import ForeignManagerError

    with pytest.raises(ForeignManagerError):
        f.let({"a": other.var("a")})


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_let_bulk_rename_is_linear(backend):
    """A 24-variable simultaneous rename must not cofactor-expand (2^24)."""
    n = 24
    names = []
    for i in range(n):
        names += [f"x{i}", f"y{i}", f"z{i}"]
    m = repro.open(backend, vars=names)
    f = m.add_expr(" & ".join(f"(x{i} <-> z{i})" for i in range(n)))
    g = f.let({f"x{i}": f"y{i}" for i in range(n)})
    assert g == m.add_expr(" & ".join(f"(y{i} <-> z{i})" for i in range(n)))


def test_to_expr_rejects_grammar_colliding_names():
    from repro.api.expr import ExprError

    m = repro.open("bbdd", vars=["TRUE", "x"])
    f = m.var("TRUE") & m.var("x")
    with pytest.raises(ExprError):
        f.to_expr()
    m2 = repro.open("bdd", vars=["a[0]"])
    with pytest.raises(ExprError):
        m2.var("a[0]").to_expr()


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_manager_level_let_and_to_expr(backend):
    m = repro.open(backend, vars=["a", "b"])
    f = m.add_expr("a & b")
    assert m.let({"a": "b"}, f) == m.var("b")
    assert m.add_expr(m.to_expr(f)) == f


# ----------------------------------------------------------------------
# BDD backend parity (the historical feature gap)
# ----------------------------------------------------------------------


def _truth_tables_agree(f, g, names):
    return f.truth_mask(names) == g.truth_mask(names)


def test_bdd_restrict_compose_quantify_against_bbdd():
    names = ["a", "b", "c", "d"]
    rng = random.Random(7)
    for _ in range(20):
        # Random 4-var function via a random expression over minterms.
        mask = rng.getrandbits(16) or 1
        terms = []
        for i in range(16):
            if (mask >> i) & 1:
                bits = [
                    (names[j] if (i >> j) & 1 else f"~{names[j]}") for j in range(4)
                ]
                terms.append("(" + " & ".join(bits) + ")")
        expr = " | ".join(terms)
        mb = repro.open("bbdd", vars=names)
        md = repro.open("bdd", vars=names)
        # Collect at every safe point: the ops hold bare edges across
        # applies, so a missing operation guard shows up as a wrong
        # answer or a use-after-sweep.
        for m in (mb, md):
            m.gc_min_nodes = 1
            m.gc_threshold = 0.05
        fb, fd = mb.add_expr(expr), md.add_expr(expr)
        var = rng.choice(names)
        value = bool(rng.getrandbits(1))
        assert fb.restrict(var, value).truth_mask(names) == fd.restrict(
            var, value
        ).truth_mask(names)
        assert fb.exists([var]).truth_mask(names) == fd.exists([var]).truth_mask(names)
        assert fb.forall([var]).truth_mask(names) == fd.forall([var]).truth_mask(names)
        g_expr = "a ^ d"
        assert fb.compose(var, mb.add_expr(g_expr)).truth_mask(names) == fd.compose(
            var, md.add_expr(g_expr)
        ).truth_mask(names)
        h_expr = "(a | ~c) & (b ^ d)"
        others = [n for n in names if n != var][: rng.randint(0, 2)]
        assert fb.and_exists(mb.add_expr(h_expr), [var] + others).truth_mask(
            names
        ) == fd.and_exists(md.add_expr(h_expr), [var] + others).truth_mask(names)
        assert fb.support() == fd.support()
        assert fb.sat_count() == fd.sat_count()
        md.check_invariants()
        md.check_ref_counts([fd.edge])
    assert md.auto_gc_runs > 0


def test_bdd_quantify_restrict_laws():
    m = repro.open("bdd", vars=5)
    rng = random.Random(3)
    for _ in range(10):
        minterms = [rng.randrange(32) for _ in range(8)]
        expr = " | ".join(
            "("
            + " & ".join(
                (f"x{j}" if (i >> j) & 1 else f"~x{j}") for j in range(5)
            )
            + ")"
            for i in minterms
        )
        f = m.add_expr(expr)
        var = rng.randrange(5)
        f1, f0 = f.restrict(var, True), f.restrict(var, False)
        assert f.exists([var]) == (f1 | f0)
        assert f.forall([var]) == (f1 & f0)
        assert m.var_name(var) not in f1.support()


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_sat_one_satisfies_on_both_backends(backend):
    rng = random.Random(11)
    names = [f"v{i}" for i in range(6)]
    for _ in range(20):
        m = repro.open(backend, vars=names)
        minterms = {rng.randrange(64) for _ in range(rng.randint(1, 5))}
        expr = " | ".join(
            "("
            + " & ".join(
                (names[j] if (i >> j) & 1 else f"~{names[j]}") for j in range(6)
            )
            + ")"
            for i in sorted(minterms)
        )
        f = m.add_expr(expr)
        witness = f.sat_one()
        assert witness is not None
        assert set(witness) >= f.support()
        assert f.evaluate(witness)
        assert (~m.true()).sat_one() is None


def test_bdd_ite_and_equivalent():
    m = repro.open("bdd", vars=["s", "a", "b"])
    s, a, b = m.var("s"), m.var("a"), m.var("b")
    f = s.ite(a, b)
    assert f == (s & a) | (~s & b)
    assert f.equivalent((s & a) | (~s & b))
    assert not f.equivalent(a)


# ----------------------------------------------------------------------
# BDD dump/load and cross-backend migration
# ----------------------------------------------------------------------


def test_bdd_dump_load_round_trip():
    from repro import io as rio

    names = ["a", "b", "c", "d"]
    m = repro.open("bdd", vars=names)
    f = m.add_expr("(a ^ b) | (c & d)")
    g = m.add_expr("a <-> c")
    data = rio.dumps(m, {"f": f, "g": g})
    m2, funcs = rio.loads(data)
    assert m2.backend == "bdd"
    assert funcs["f"].truth_mask(names) == f.truth_mask(names)
    assert funcs["g"].truth_mask(names) == g.truth_mask(names)
    # Into an existing manager with a superset and different order.
    m3 = repro.open("bdd", vars=["d", "x", "c", "b", "a"])
    moved = m3.load(_io.BytesIO(data))
    assert moved["f"].truth_mask(names) == f.truth_mask(names)
    # Under a rename.
    m4 = repro.open("bdd", vars=["p", "q", "r", "s"])
    renamed = rio.loads(
        data, manager=m4, rename={"a": "p", "b": "q", "c": "r", "d": "s"}
    )[1]
    assert renamed["g"].truth_mask(["p", "q", "r", "s"]) == g.truth_mask(names)


def test_dump_kind_flags_are_enforced():
    """FLAG_BDD picks the record grammar and the fresh manager's backend;
    either kind of dump also loads into the other kind of manager."""
    from repro import io as rio
    from repro.io.format import FLAG_BDD, read_header

    names = ["a", "b", "c"]
    for backend, other in (("bbdd", "bdd"), ("bdd", "bbdd")):
        m = repro.open(backend, vars=names)
        f = m.add_expr("(a ^ b) | c")
        data = rio.dumps(m, {"f": f})
        flags = read_header(_io.BytesIO(data)).flags
        assert bool(flags & FLAG_BDD) == (backend == "bdd")
        fresh, funcs = rio.loads(data)
        assert fresh.backend == backend
        assert funcs["f"].truth_mask(names) == f.truth_mask(names)
        moved = repro.open(other, vars=names).load(_io.BytesIO(data))
        assert moved["f"].truth_mask(names) == f.truth_mask(names)


@pytest.mark.parametrize("src_backend", ALL_BACKENDS)
@pytest.mark.parametrize("dst_backend", ALL_BACKENDS)
def test_cross_backend_migration_matrix(src_backend, dst_backend):
    """Migration and dump/load agree on every (src, dst) backend pair."""
    from repro import io as rio
    from repro.io.migrate import migrate_forest

    names = ["a", "b", "c", "d"]
    permuted = ["d", "c", "b", "a", "extra"]
    src = repro.open(src_backend, vars=names)
    dst = repro.open(dst_backend, vars=permuted)
    f = src.add_expr("(a ^ b) | (c & ~d)")
    g = src.add_expr("(a <-> c) & b")
    moved = migrate_forest({"f": f}, dst)["f"]
    assert isinstance(moved, FunctionBase)
    assert moved.manager is dst
    assert moved.truth_mask(names) == f.truth_mask(names)
    # A two-function mapping moves both ways — migrated, and dumped and
    # loaded under the permuted superset order — and arrives whole.
    data = rio.dumps(src, {"f": f, "g": g})
    copies = [
        migrate_forest({"f": f, "g": g}, repro.open(dst_backend, vars=permuted)),
        dst.load(_io.BytesIO(data)),
    ]
    for copy in copies:
        for name, h in (("f", f), ("g", g)):
            assert copy[name].truth_mask(names) == h.truth_mask(names)
        copy["f"].manager.check_invariants()
        if dst_backend == "xmem":
            # One representation for the whole mapping.
            assert copy["f"].node.rep is copy["g"].node.rep


# ----------------------------------------------------------------------
# the shared protocol drives both packages through one code path
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_network_build_generic_entry_point(backend):
    from repro.circuits import arith
    from repro.network.build import build
    from repro.network.network import LogicNetwork

    net = LogicNetwork("adder2")
    a = net.add_inputs(["a0", "a1"])
    b = net.add_inputs(["b0", "b1"])
    sums, cout = arith.ripple_adder(net, a, b)
    for i, s in enumerate(sums):
        net.set_output(f"s{i}", s)
    net.set_output("cout", cout)
    manager, functions = build(net, backend=backend)
    assert manager.backend == backend
    for av, bv in itertools.product(range(4), repeat=2):
        asg = {
            "a0": av & 1, "a1": (av >> 1) & 1,
            "b0": bv & 1, "b1": (bv >> 1) & 1,
        }
        total = (
            int(functions["s0"].evaluate(asg))
            | (int(functions["s1"].evaluate(asg)) << 1)
            | (int(functions["cout"].evaluate(asg)) << 2)
        )
        assert total == av + bv


@pytest.mark.parametrize("backend", BACKENDS)
def test_table1_single_backend_run(backend):
    from repro.circuits.registry import TABLE1_ROWS
    from repro.harness.table1 import render_table1, run_table1

    rows = [r for r in TABLE1_ROWS if r.name in ("C17", "parity")]
    summary = run_table1(rows=rows, full=False, backends=(backend,))
    assert summary["backends"] == [backend]
    assert all(f"{backend}_nodes" in r for r in summary["rows"])
    text = render_table1(summary)
    assert "single-backend" in text


@pytest.mark.parametrize("backend", BACKENDS)
def test_checkpoint_forest_round_trips_any_backend(backend, tmp_path):
    """save_forest/load_forest dispatch on the dump's backend flag."""
    from repro.io.checkpoint import CheckpointStore

    store = CheckpointStore(tmp_path)
    names = ["a", "b", "c"]
    m = repro.open(backend, vars=names)
    f = m.add_expr("(a ^ b) | c")
    store.save_forest("k", m, {"f": f})
    loaded_manager, funcs = store.load_forest("k")
    assert loaded_manager.backend == backend
    assert funcs["f"].truth_mask(names) == f.truth_mask(names)


def test_manager_sift_protocol():
    for backend in BACKENDS:
        names = [f"a{i}" for i in range(3)] + [f"b{i}" for i in range(3)]
        m = repro.open(backend, vars=names)
        f = m.true()
        for i in range(3):
            f = f & m.var(f"a{i}").xnor(m.var(f"b{i}"))
        mask = f.truth_mask(names)
        result = m.sift(converge=True)
        assert result.final_size <= result.initial_size
        assert f.truth_mask(names) == mask
