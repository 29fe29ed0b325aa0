"""The external-memory levelized backend (repro.xmem).

Differential coverage against the in-core BBDD package (the oracle):
random expressions agree on truth tables, sat counts, support and
canonical equality; spilling actually happens under a tiny
``node_budget`` and spilled representations keep answering; dumps are
standard ``.bbdd`` containers that round-trip through the in-core
loader (and vice versa); migration runs structurally in all directions.
"""

import io as _io
import random

import pytest

import repro
from repro.core.exceptions import BBDDError
from repro.core.operations import ALL_OPS
from repro.io.migrate import migrate_forest

NAMES = [f"v{i}" for i in range(5)]


def _random_expr(rng, names, depth=4):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(names + ["TRUE", "FALSE"])
    pick = rng.random()
    if pick < 0.15:
        return f"~({_random_expr(rng, names, depth - 1)})"
    if pick < 0.25:
        parts = [_random_expr(rng, names, depth - 1) for _ in range(3)]
        return f"ite({parts[0]}, {parts[1]}, {parts[2]})"
    if pick < 0.33:
        quant = rng.choice(["\\E", "\\A"])
        return f"({quant} {rng.choice(names)}: {_random_expr(rng, names, depth - 1)})"
    op = rng.choice(["&", "|", "^", "->", "<->"])
    return (
        f"({_random_expr(rng, names, depth - 1)} {op} "
        f"{_random_expr(rng, names, depth - 1)})"
    )


def test_xmem_matches_bbdd_oracle_randomized():
    rng = random.Random(0xE4)
    for _ in range(40):
        expr = _random_expr(rng, NAMES)
        mx = repro.open("xmem", vars=NAMES)
        mb = repro.open("bbdd", vars=NAMES)
        fx, fb = mx.add_expr(expr), mb.add_expr(expr)
        assert fx.truth_mask(NAMES) == fb.truth_mask(NAMES)
        assert fx.sat_count() == fb.sat_count()
        assert fx.support() == fb.support()
        assert mx.add_expr(fx.to_expr()) == fx  # canonical round trip
        other = _random_expr(rng, NAMES)
        gx, gb = mx.add_expr(other), mb.add_expr(other)
        op = rng.choice(ALL_OPS)
        assert fx.apply(gx, op).truth_mask(NAMES) == fb.apply(gb, op).truth_mask(
            NAMES
        )
        mx.check_invariants()


def test_xmem_derived_ops_match_oracle():
    rng = random.Random(7)
    for _ in range(15):
        expr = _random_expr(rng, NAMES)
        mx = repro.open("xmem", vars=NAMES)
        mb = repro.open("bbdd", vars=NAMES)
        fx, fb = mx.add_expr(expr), mb.add_expr(expr)
        var = rng.choice(NAMES)
        value = bool(rng.getrandbits(1))
        assert fx.restrict(var, value).truth_mask(NAMES) == fb.restrict(
            var, value
        ).truth_mask(NAMES)
        assert fx.exists([var]).truth_mask(NAMES) == fb.exists([var]).truth_mask(
            NAMES
        )
        assert fx.forall([var]).truth_mask(NAMES) == fb.forall([var]).truth_mask(
            NAMES
        )
        g_expr = "v0 ^ v4"
        assert fx.compose(var, mx.add_expr(g_expr)).truth_mask(
            NAMES
        ) == fb.compose(var, mb.add_expr(g_expr)).truth_mask(NAMES)


def test_xmem_equality_is_structural_across_representations():
    m = repro.open("xmem", vars=["a", "b", "c"])
    f = m.add_expr("(a & b) | c")
    g = m.add_expr("(b & a) | c")  # separately computed representation
    assert f == g
    assert hash(f) == hash(g)
    assert f != ~g
    assert ~f == ~g
    assert f.equivalent(g)
    assert len({f, g}) == 1


def test_xmem_spills_under_budget_and_stays_correct():
    names = [f"x{i}" for i in range(24)]
    budget = 40
    mx = repro.open("xmem", vars=names, node_budget=budget, request_chunk=8)
    mb = repro.open("bbdd", vars=names)
    rng = random.Random(1)
    pairs = []
    for k in range(8):
        fx, fb = mx.true(), mb.true()
        for i in range(0, 24, 2):
            u, v = names[(i + k) % 24], names[(i + k + 1) % 24]
            xor_like = rng.random() < 0.5
            tx = mx.var(u).xnor(mx.var(v))
            tb = mb.var(u).xnor(mb.var(v))
            fx = fx & tx if xor_like else fx ^ tx
            fb = fb & tb if xor_like else fb ^ tb
        pairs.append((fx, fb))
    stats = mx.stats()
    assert stats["live_nodes"] > 3 * budget  # forest far beyond the budget
    assert stats["resident_nodes"] <= budget  # steady-state residency bounded
    assert stats["spill_writes"] > 0  # levels actually spilled
    assert stats["request_runs_spilled"] > 0  # request queues spilled runs
    arng = random.Random(9)
    for _ in range(64):
        assignment = {n: bool(arng.getrandbits(1)) for n in names}
        for fx, fb in pairs:
            assert fx.evaluate(assignment) == fb.evaluate(assignment)


def test_xmem_dump_interoperates_with_bbdd_container():
    names = ["a", "b", "c", "d"]
    mx = repro.open("xmem", vars=names)
    f = mx.add_expr("(a ^ b) | (c & ~d)")
    g = mx.add_expr("a <-> c")
    buffer = _io.BytesIO()
    mx.dump({"f": f, "g": g}, buffer)
    data = buffer.getvalue()
    # The dump is a plain .bbdd container: the in-core loader reads it.
    from repro import io as rio

    m2, funcs = rio.loads(data)
    assert m2.backend == "bbdd"
    assert funcs["f"].truth_mask(names) == f.truth_mask(names)
    assert funcs["g"].truth_mask(names) == g.truth_mask(names)
    # ... and xmem reads BBDD dumps, into different orders and renames.
    back = rio.dumps(m2, funcs)
    mx2 = repro.open("xmem", vars=["d", "x", "c", "b", "a"])
    reloaded = mx2.load(_io.BytesIO(back))
    assert reloaded["f"].truth_mask(names) == f.truth_mask(names)
    mx3 = repro.open("xmem", vars=["p", "q", "r", "s"])
    renamed = mx3.load(
        _io.BytesIO(data), rename={"a": "p", "b": "q", "c": "r", "d": "s"}
    )
    assert renamed["g"].truth_mask(["p", "q", "r", "s"]) == g.truth_mask(names)


def test_xmem_dump_load_shares_one_representation():
    names = ["a", "b", "c"]
    mx = repro.open("xmem", vars=names)
    f = mx.add_expr("a & b")
    g = mx.add_expr("a & b | c")
    buffer = _io.BytesIO()
    mx.dump({"f": f, "g": g, "t": mx.true()}, buffer)
    buffer.seek(0)
    loaded = mx.load(buffer)  # back into the same manager: canonical equality
    assert loaded["f"] == f and loaded["g"] == g and loaded["t"].is_true
    assert loaded["f"].node.rep is loaded["g"].node.rep  # shared forest file


def test_xmem_swapped_dump_arguments_raise_bbdd_error(tmp_path):
    mx = repro.open("xmem", vars=["a"])
    f = mx.var("a")
    with pytest.raises(BBDDError, match="dump"):
        mx.dump(str(tmp_path / "f.bbdd"), [f])
    with pytest.raises(BBDDError, match="load"):
        mx.load([f])


def test_xmem_migration_all_directions():
    names = ["a", "b", "c", "d"]
    expr = "(a ^ b) | (c & ~d)"
    for src_backend in ("bbdd", "bdd", "xmem"):
        for dst_backend in ("bbdd", "bdd", "xmem"):
            src = repro.open(src_backend, vars=names)
            dst = repro.open(dst_backend, vars=["d", "c", "b", "a", "extra"])
            f = src.add_expr(expr)
            moved = migrate_forest({"f": f}, dst)["f"]
            assert moved.manager is dst
            assert moved.truth_mask(names) == f.truth_mask(names)
    # constants migrate too
    src = repro.open("xmem", vars=["a"])
    dst = repro.open("bbdd", vars=["a"])
    assert migrate_forest(src.true(), dst).is_true
    assert migrate_forest(~src.true(), dst).is_false


def test_xmem_migration_with_rename():
    src = repro.open("xmem", vars=["a", "b"])
    dst = repro.open("xmem", vars=["x", "y"])
    f = src.add_expr("a & ~b")
    moved = migrate_forest(f, dst, rename={"a": "x", "b": "y"})
    assert moved == dst.add_expr("x & ~y")


def test_xmem_deep_chain_is_level_iterative():
    # The sweeps iterate levels, never recursing on operand depth.
    n = 300
    m = repro.open("xmem", vars=n)
    f = m.add_expr(" ^ ".join(f"x{i}" for i in range(n)))
    assert len(f.support()) == n
    oracle = repro.open("bbdd", vars=n).add_expr(" ^ ".join(f"x{i}" for i in range(n)))
    assert f.node_count() == oracle.node_count()
    witness = f.sat_one()
    assert witness is not None and f.evaluate(witness)


def test_xmem_sift_unsupported():
    m = repro.open("xmem", vars=3)
    assert m.supports_sift is False
    with pytest.raises(BBDDError, match="reordering"):
        m.sift()


def test_xmem_node_budget_validation():
    with pytest.raises(BBDDError):
        repro.open("xmem", vars=2, node_budget=0)


def test_xmem_count_nodes_matches_oracle_sizes():
    # Canonical levelized reps are node-for-node the in-core diagrams.
    rng = random.Random(3)
    for _ in range(10):
        expr = _random_expr(rng, NAMES)
        mx = repro.open("xmem", vars=NAMES)
        mb = repro.open("bbdd", vars=NAMES)
        fx, fb = mx.add_expr(expr), mb.add_expr(expr)
        assert fx.node_count() == fb.node_count()
