"""Round-trip, migration, streaming and checkpoint tests for repro.io."""

import io as stdio
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import io as rio
from repro.circuits.registry import TABLE1_ROWS, TABLE2_ROWS
from repro.core import BBDDManager, reorder
from repro.core.dot import to_dot
from repro.core.exceptions import BBDDError, ForeignManagerError, VariableError
from repro.core.traversal import levelize
from repro.harness.table1 import run_table1
from repro.io.__main__ import main as io_main
from repro.io.checkpoint import CheckpointStore
from repro.io.format import FLAG_BDD, FORMAT_VERSION, FormatError, read_header, unpack_ref
from repro.io.stream import LevelStreamReader
from repro.network.build import build

# max_examples comes from the active hypothesis profile (fast/ci —
# see tests/conftest.py); only per-test shape settings live here.
_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

VARS = ["a", "b", "c", "d"]


def _small_forest(backend="bbdd"):
    m = repro.open(backend, vars=VARS)
    a, b, c, d = m.variables()
    return m, {
        "f": (a ^ b) | (c & d),
        "g": a.xnor(b),
        "maj": (a & b) | (a & c) | (b & c),
        "t": m.true(),
        "z": m.false(),
    }


def _masks(functions, variables=VARS):
    return {name: f.truth_mask(variables) for name, f in functions.items()}


# ----------------------------------------------------------------------
# binary round trips
# ----------------------------------------------------------------------


def test_binary_roundtrip_fresh_manager():
    m, fns = _small_forest()
    m2, loaded = rio.loads(rio.dumps(m, fns))
    assert set(loaded) == set(fns)
    assert _masks(loaded) == _masks(fns)
    assert loaded["t"].is_true and loaded["z"].is_false
    # Same order => node-for-node identical canonical forest.
    live = {n: f for n, f in fns.items() if not f.is_constant}
    assert m2.node_count(list(loaded.values())) == m.node_count(list(fns.values()))
    for name, f in live.items():
        assert loaded[name].node_count() == f.node_count()
    m2.check_invariants()


def test_binary_roundtrip_permuted_order():
    m, fns = _small_forest()
    data = rio.dumps(m, fns)
    m2 = BBDDManager(list(reversed(VARS)))
    loaded = m2.load(stdio.BytesIO(data))
    assert _masks(loaded) == _masks(fns)
    m2.check_invariants()


def test_binary_roundtrip_superset_variables():
    m, fns = _small_forest()
    data = rio.dumps(m, fns)
    m2 = BBDDManager(["a", "x0", "b", "x1", "c", "d", "x2"])
    loaded = m2.load(stdio.BytesIO(data))
    assert _masks(loaded) == _masks(fns)
    # Interleaved foreign variables never enter the rebuilt support.
    assert loaded["f"].support() == fns["f"].support()
    m2.check_invariants()


def test_binary_roundtrip_rename():
    m, fns = _small_forest()
    data = rio.dumps(m, fns)
    m2 = BBDDManager(["p", "q", "r", "s"])
    loaded = m2.load(
        stdio.BytesIO(data), rename={"a": "p", "b": "q", "c": "r", "d": "s"}
    )
    assert {n: f.truth_mask(["p", "q", "r", "s"]) for n, f in loaded.items()} == _masks(
        fns
    )


def test_load_rename_into_fresh_manager():
    # rename with no explicit target manager: the fresh manager is
    # created with the *renamed* variable names.
    m, fns = _small_forest()
    m2, loaded = rio.loads(
        rio.dumps(m, fns), rename={"a": "p", "b": "q", "c": "r", "d": "s"}
    )
    assert m2.current_order() == ("p", "q", "r", "s")
    assert {n: f.truth_mask(["p", "q", "r", "s"]) for n, f in loaded.items()} == _masks(
        fns
    )
    data = rio.to_dict(m, fns)
    m3, loaded3 = rio.from_dict(data, rename={"a": "w"})
    assert m3.current_order() == ("w", "b", "c", "d")
    assert loaded3["f"].truth_mask(["w", "b", "c", "d"]) == fns["f"].truth_mask(VARS)


def test_load_missing_variable_raises():
    m, fns = _small_forest()
    data = rio.dumps(m, fns)
    m2 = BBDDManager(["a", "b", "c"])  # no "d"
    with pytest.raises(VariableError):
        m2.load(stdio.BytesIO(data))


def test_bad_magic_raises():
    with pytest.raises(FormatError):
        rio.loads(b"NOPE" + b"\x00" * 16)


def test_truncated_dump_raises():
    m, fns = _small_forest()
    data = rio.dumps(m, fns)
    with pytest.raises(FormatError):
        rio.loads(data[: len(data) - 3])


# ----------------------------------------------------------------------
# streaming and scanning
# ----------------------------------------------------------------------


def test_scan_reports_forest_shape():
    m, fns = _small_forest()
    data = rio.dumps(m, fns)
    info = rio.scan(stdio.BytesIO(data))
    assert info.node_count == m.node_count(list(fns.values()))
    assert info.header.num_roots == len(fns)
    assert info.file_bytes == len(data)
    assert sum(count for _p, count in info.header.levels) == info.node_count
    assert info.summary()["bytes_per_node"] > 0


def test_iter_levels_is_bottom_up_and_backward_referencing():
    m, fns = _small_forest()
    reader = LevelStreamReader(stdio.BytesIO(rio.dumps(m, fns)))
    next_id = 1
    last_position = None
    for position, rows in reader.iter_levels():
        if last_position is not None:
            assert position < last_position  # deepest level first
        last_position = position
        for row_position, sv_position, t_ref, f_ref in rows:
            assert row_position == position
            if sv_position is None:  # literal: the constant children
                assert (t_ref, f_ref) == (0, 1)
            else:  # couple: SV below PV, both children already written
                assert sv_position > position
                assert unpack_ref(t_ref)[0] < next_id
                assert unpack_ref(f_ref)[0] < next_id
            next_id += 1
    roots = reader.read_roots()
    assert {name for name, _ref in roots} == set(fns)


def test_levelize_orders_children_first():
    m, fns = _small_forest()
    levels = levelize(m, [f.edge for f in fns.values()])
    seen = {1}  # the sink's index
    for _position, nodes in levels:
        for node in nodes:
            view = m.node_view(node)
            if view.is_chain:
                assert view.neq.index in seen and view.eq.index in seen
            seen.add(node)


# ----------------------------------------------------------------------
# JSON interchange
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["bbdd", "xmem"])
def test_json_roundtrip(backend):
    m, fns = _small_forest(backend)
    data = rio.to_dict(m, fns)
    assert data["format"] == "bbdd-json"
    assert data["order"] == VARS
    m2, loaded = rio.from_dict(data)
    assert _masks(loaded) == _masks(fns)
    m2.check_invariants()
    # The same rows as the binary writer: one record per stored node.
    assert len(data["nodes"]) == rio.scan(stdio.BytesIO(rio.dumps(m, fns))).node_count


def test_json_roundtrip_permuted_order(tmp_path):
    m, fns = _small_forest()
    path = tmp_path / "forest.json"
    rio.dump_json(m, fns, str(path))
    m2 = BBDDManager(["c", "a", "d", "b"])
    _m, loaded = rio.load_json(str(path), manager=m2)
    assert _masks(loaded) == _masks(fns)
    m2.check_invariants()


def test_json_refuses_shannon_forests():
    """The JSON form holds couples and literals; BDD forests go binary."""
    m, fns = _small_forest("bdd")
    with pytest.raises(BBDDError, match="repro.io.dump"):
        rio.to_dict(m, fns)
    # A forest of literals has no Shannon node to refuse.
    m2, loaded = rio.from_dict(rio.to_dict(m, {"a": m.var("a")}))
    assert loaded["a"].truth_mask(VARS) == m.var("a").truth_mask(VARS)


def test_json_rejects_foreign_documents():
    with pytest.raises(FormatError):
        rio.from_dict({"format": "something-else"})


# ----------------------------------------------------------------------
# live cross-manager migration
# ----------------------------------------------------------------------


def test_migrate_to_permuted_superset_manager():
    m, fns = _small_forest()
    m2 = BBDDManager(["d", "b", "extra", "a", "c"])
    moved = rio.migrate_forest(fns, m2)
    assert _masks(moved) == _masks(fns)
    m2.check_invariants()
    # Shared structure is migrated once: total target nodes stay bounded
    # by a fresh canonical build, not by per-function copies.
    assert m2.node_count(list(moved.values())) <= sum(
        f.node_count() for f in moved.values()
    )


def test_migrate_with_rename_and_shapes():
    m = BBDDManager(["a", "b"])
    f = m.var("a") ^ m.var("b")
    m2 = BBDDManager(["x", "y"])
    moved = rio.migrate_forest(f, m2, rename={"a": "x", "b": "y"})
    assert moved.truth_mask(["x", "y"]) == f.truth_mask(["a", "b"])
    assert rio.migrate_forest([], m2) == []
    assert rio.migrate_forest({}, m2) == {}


def test_migrate_same_manager_rejected():
    m, fns = _small_forest()
    with pytest.raises(BBDDError):
        rio.migrate_forest(fns, m)


@pytest.mark.parametrize("backend", ["bbdd", "bdd", "xmem"])
def test_foreign_handles_are_rejected(backend):
    """A handle of another manager is never dumped or counted as this one's."""
    m, _fns = _small_forest(backend)
    other = repro.open(backend, vars=["x", "y", "z", "w"])
    f = other.add_expr("(x & y) | z")
    calls = {
        "dumps": lambda: rio.dumps(m, {"f": f}),
        "to_dict": lambda: rio.to_dict(m, {"f": f}),
        "dump": lambda: m.dump({"f": f}, stdio.BytesIO()),
        "node_count": lambda: m.node_count([f]),
    }
    for name, call in calls.items():
        with pytest.raises(ForeignManagerError):
            call()


# ----------------------------------------------------------------------
# convenience APIs
# ----------------------------------------------------------------------


def test_function_dump_and_manager_load(tmp_path):
    m, fns = _small_forest()
    path = tmp_path / "f.bbdd"
    fns["f"].dump(str(path), name="f")
    manager, loaded = rio.load(str(path))
    assert loaded["f"].truth_mask(VARS) == fns["f"].truth_mask(VARS)
    assert manager.current_order() == m.current_order()

    path2 = tmp_path / "forest.bbdd"
    m.dump(fns, str(path2))
    again = m.load(str(path2))
    for name, f in fns.items():
        assert again[name] == f  # same manager: pointer equality


# ----------------------------------------------------------------------
# property tests
# ----------------------------------------------------------------------


@st.composite
def masked_function(draw, max_vars=5):
    n = draw(st.integers(min_value=2, max_value=max_vars))
    mask = draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    return n, mask


@given(masked_function())
@settings(**_SETTINGS)
def test_roundtrip_preserves_semantics_and_size_property(fn):
    n, mask = fn
    m = BBDDManager(n)
    f = m.function(reorder.from_truth_table(m, mask))
    m2, loaded = rio.loads(rio.dumps(m, {"f": f}))
    assert loaded["f"].truth_mask(range(n)) == mask
    assert loaded["f"].node_count() == f.node_count()
    m2.check_invariants()


@given(masked_function(), st.data())
@settings(**_SETTINGS)
def test_roundtrip_into_permuted_manager_property(fn, data):
    n, mask = fn
    m = BBDDManager(n)
    f = m.function(reorder.from_truth_table(m, mask))
    permutation = data.draw(st.permutations(range(n)))
    m2 = BBDDManager([f"x{i}" for i in permutation])
    loaded = m2.load(stdio.BytesIO(rio.dumps(m, {"f": f})))
    assert loaded["f"].truth_mask([f"x{i}" for i in range(n)]) == mask
    m2.check_invariants()


# ----------------------------------------------------------------------
# registry sweep (acceptance: every circuit, both table backends)
# ----------------------------------------------------------------------


def _registry_networks():
    from repro.synth.flow import datapath_order

    for row in TABLE1_ROWS:
        yield row.name, row.build(full=False)
    for row in TABLE2_ROWS:
        # Raw datapath input orders are exponential for BBDDs (that is the
        # point of the flow's interleaving heuristic); build the way the
        # Table II flow does.
        network = row.build(full=False).copy()
        network.inputs = datapath_order(network.inputs)
        yield row.name, network


def _spot_check(network, originals, reloaded, rng, vectors=8):
    for _ in range(vectors):
        assignment = {name: rng.random() < 0.5 for name in network.inputs}
        for name, f in originals.items():
            assert reloaded[name].evaluate(assignment) == f.evaluate(assignment), name


@pytest.mark.slow
@pytest.mark.parametrize("backend", ["dict"])
def test_registry_dump_reload_sweep(backend):
    rng = random.Random(0xBBDD)
    for name, network in _registry_networks():
        manager, functions = build(network, backend="bbdd", computed_backend=backend)
        data = rio.dumps(manager, functions)

        # Same order: canonical node-for-node reconstruction.
        fresh, reloaded = rio.loads(data)
        assert fresh.node_count(list(reloaded.values())) == manager.node_count(
            list(functions.values())
        ), name
        for out, f in functions.items():
            assert reloaded[out].node_count() == f.node_count(), (name, out)
        _spot_check(network, functions, reloaded, rng)

        # Permuted order: semantics survive re-canonicalization.  An
        # adjacent transposition is a genuine permutation that disables
        # the structural fast path (every node re-enters via ITE) while
        # keeping the rebuilt diagrams near their canonical size — a
        # full reversal would make variable-order-sensitive circuits
        # (adders, comparators) exponentially large.
        names = list(manager.var_names)
        names[0], names[1] = names[1], names[0]
        permuted = BBDDManager(names, computed_backend=backend)
        replayed = permuted.load(stdio.BytesIO(data))
        _spot_check(network, functions, replayed, rng)
        if network.num_inputs <= 10:
            order = list(network.inputs)
            for out, f in functions.items():
                assert replayed[out].truth_mask(order) == f.truth_mask(order), (
                    name,
                    out,
                )
        permuted.check_invariants()


# ----------------------------------------------------------------------
# harness checkpointing
# ----------------------------------------------------------------------


def test_checkpoint_store_roundtrip(tmp_path):
    store = CheckpointStore(tmp_path)
    record = {"name": "C17", "bbdd_nodes": 10}
    store.save_result("table1-C17-fast", record)
    assert store.has_result("table1-C17-fast")
    assert store.load_result("table1-C17-fast") == record
    m, fns = _small_forest()
    store.save_forest("table1-C17-fast", m, fns)
    _m2, loaded = store.load_forest("table1-C17-fast")
    assert _masks(loaded) == _masks(fns)
    assert store.keys() == ["table1-C17-fast"]
    store.clear()
    assert not store.has_result("table1-C17-fast")
    assert store.load_forest("table1-C17-fast") is None


def test_table1_checkpoint_resume(tmp_path):
    rows = [r for r in TABLE1_ROWS if r.name in ("C17", "parity")]
    first = run_table1(rows=rows, full=False, checkpoint_dir=str(tmp_path))
    assert all(not r["cached"] for r in first["rows"])
    store = CheckpointStore(tmp_path)
    assert store.has_forest("table1-C17-fast")
    assert store.has_forest("table1-parity-fast")

    second = run_table1(rows=rows, full=False, checkpoint_dir=str(tmp_path))
    assert all(r["cached"] for r in second["rows"])
    for before, after in zip(first["rows"], second["rows"]):
        assert before["bbdd_nodes"] == after["bbdd_nodes"]
        assert before["bdd_nodes"] == after["bdd_nodes"]

    # The persisted forest really is the benchmark's BBDD forest.
    manager, functions = store.load_forest("table1-parity-fast")
    record = next(r for r in first["rows"] if r["name"] == "parity")
    assert manager.node_count(list(functions.values())) == record["bbdd_nodes"]


def test_checkpoint_keys_distinguish_run_settings(tmp_path):
    rows = [r for r in TABLE1_ROWS if r.name == "parity"]
    run_table1(rows=rows, full=False, sift=True, checkpoint_dir=str(tmp_path))
    nosift = run_table1(rows=rows, full=False, sift=False, checkpoint_dir=str(tmp_path))
    # A no-sift run must not reuse rows measured with sifting enabled.
    assert not nosift["rows"][0]["cached"]
    assert nosift["rows"][0]["bbdd_sift"] == 0.0
    again = run_table1(rows=rows, full=False, sift=False, checkpoint_dir=str(tmp_path))
    assert again["rows"][0]["cached"]


def test_rebuilder_rejects_malformed_records():
    m = BBDDManager(["a", "b"])
    from repro.io.migrate import ForestRebuilder

    rb = ForestRebuilder(m, ["a", "b"])
    with pytest.raises(FormatError):
        rb.add_rows([(9, None, 0, 1)])  # PV position out of range
    with pytest.raises(FormatError):
        rb.add_rows([(1, 5, 0, 0)])  # SV position out of range
    with pytest.raises(FormatError):
        rb.add_rows([(1, 0, 0, 0)])  # SV above PV
    with pytest.raises(FormatError):
        rb.add_rows([(0, None, 2, 1)])  # child id 1 not replayed yet
    with pytest.raises(FormatError):
        rio.from_dict(
            {
                "format": "bbdd-json",
                "version": 1,
                "variables": ["a"],
                "order": ["a"],
                "nodes": [{"id": 1, "var": "zzz"}],
                "roots": {},
            }
        )
    with pytest.raises(FormatError):
        # Negative child ids must not wrap through Python indexing.
        rio.from_dict(
            {
                "format": "bbdd-json",
                "version": 1,
                "variables": ["a", "b"],
                "order": ["a", "b"],
                "nodes": [
                    {"id": 1, "var": "b"},
                    {"id": 2, "pv": "a", "sv": "b", "neq": [-1, False], "eq": [1, False]},
                ],
                "roots": {"f": [2, False]},
            }
        )


# ----------------------------------------------------------------------
# dot export validation (satellite fix)
# ----------------------------------------------------------------------


def test_to_dot_rejects_mismatched_names():
    m = BBDDManager(["a", "b"])
    f = m.var("a") & m.var("b")
    with pytest.raises(BBDDError):
        to_dot(m, [f], names=["f", "extra"])
    with pytest.raises(BBDDError):
        to_dot(m, [f, ~f], names=["only-one"])
    # Matching names and the auto-naming default both still work.
    assert "digraph" in to_dot(m, [f], names=["f"])
    assert "f0" in to_dot(m, [f])


# ----------------------------------------------------------------------
# golden v1 container, compressed round trips, retired chain dumps
# ----------------------------------------------------------------------

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_V1 = os.path.join(DATA, "golden_v1.bbdd")
#: The same three functions written by the 2.0 baseline-BDD writer.
GOLDEN_V1_BDD = os.path.join(DATA, "golden_v1_bdd.bbdd")
GOLDEN_VARS = ["a", "b", "c", "d"]
GOLDEN_MASKS = {"maj": 0xE8E8, "parity": 0x6996, "bic": 0x9990}

#: Dumps of the parity tower a <-> (b <-> (c <-> (d <-> e))) written by
#: the 1.3 chain-reduced managers (header flag 0x2), bbdd and bdd, plain
#: and compressed.  Every reader must refuse them the same way.
CHAIN_DUMPS = [
    "chain_parity5_bbdd.bbdd",
    "chain_parity5_bbdd_compressed.bbdd",
    "chain_parity5_bdd.bbdd",
    "chain_parity5_bdd_compressed.bbdd",
]
CHAIN_VARS = ["a", "b", "c", "d", "e"]


def test_golden_v1_reloads_bit_exactly():
    for path, flags, backend in (
        (GOLDEN_V1, 0, "bbdd"),
        (GOLDEN_V1_BDD, FLAG_BDD, "bdd"),
    ):
        with open(path, "rb") as fileobj:
            data = fileobj.read()
        header = read_header(stdio.BytesIO(data))
        assert header.version == FORMAT_VERSION
        assert header.flags == flags
        manager, functions = rio.loads(data)
        assert manager.backend == backend
        assert set(functions) == set(GOLDEN_MASKS)
        for name, mask in GOLDEN_MASKS.items():
            assert functions[name].truth_mask(GOLDEN_VARS) == mask, (path, name)
        # A plain manager re-dumps the v1 container byte for byte.
        assert rio.dumps(manager, functions) == data, path


@st.composite
def masked_function(draw, max_vars=4):
    n = draw(st.integers(min_value=2, max_value=max_vars))
    mask = draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    return n, mask


def _build_from_mask(manager, names, mask):
    """Sum-of-minterms build through the shared protocol surface."""
    f = manager.false()
    variables = [manager.var(name) for name in names]
    for idx in range(1 << len(names)):
        if not (mask >> idx) & 1:
            continue
        term = manager.true()
        for bit, v in enumerate(variables):
            term = term & (v if (idx >> bit) & 1 else ~v)
        f = f | term
    return f


@pytest.mark.parametrize("backend", ["bbdd", "bdd", "xmem"])
@given(masked_function(), st.booleans())
@settings(**_SETTINGS)
def test_compressed_roundtrip_across_backends(backend, fn, compress):
    n, mask = fn
    names = [f"v{i}" for i in range(n)]
    manager = repro.open(backend, vars=names)
    f = _build_from_mask(manager, names, mask)
    buf = stdio.BytesIO()
    manager.dump({"f": f}, buf, compress=compress)
    fresh = repro.open(backend, vars=names)
    loaded = fresh.load(stdio.BytesIO(buf.getvalue()))
    assert loaded["f"].truth_mask(names) == mask


def test_scan_cli_reports_every_container_kind(tmp_path):
    m, fns = _small_forest()
    compressed = str(tmp_path / "small.bbdd")
    m.dump(fns, compressed, compress=True)
    out = stdio.StringIO()
    assert io_main(["scan", compressed, GOLDEN_V1], out=out) == 0
    text = out.getvalue()
    assert "version:        2" in text
    assert "(compressed)" in text
    assert "version:        1" in text
    assert "0x0 (none)" in text
    assert "backend kind:   bbdd" in text
    assert "bytes per node:" in text


def test_scan_cli_missing_file_exits_nonzero(tmp_path, capsys):
    out = stdio.StringIO()
    missing = str(tmp_path / "nope.bbdd")
    assert io_main(["scan", missing], out=out) == 1
    captured = capsys.readouterr()
    assert "nope.bbdd" in captured.err
    assert out.getvalue() == ""


@pytest.mark.parametrize("name", CHAIN_DUMPS)
def test_chain_reduced_dumps_are_rejected(name, capsys):
    path = os.path.join(DATA, name)
    with open(path, "rb") as fileobj:
        data = fileobj.read()
    retired = "chain-reduced dumps are no longer read"

    def rejects(read, names_file=True):
        with pytest.raises(FormatError) as info:
            read()
        message = str(info.value)
        assert retired in message
        if names_file:
            assert path in message

    def stream_read():
        with open(path, "rb") as fileobj:
            LevelStreamReader(fileobj)

    # Every reader fails the same way, whatever the record kind.
    rejects(lambda: rio.load(path))
    rejects(lambda: rio.loads(data), names_file=False)
    rejects(lambda: rio.scan(path))
    rejects(stream_read)
    rejects(lambda: BBDDManager(CHAIN_VARS).load(path))
    rejects(lambda: repro.open("bdd", vars=CHAIN_VARS).load(path))
    rejects(lambda: repro.open("xmem", vars=CHAIN_VARS).load(path))
    # The CLI prints that error and exits 1.
    out = stdio.StringIO()
    assert io_main(["scan", path], out=out) == 1
    assert retired in capsys.readouterr().err
    assert out.getvalue() == ""


def test_json_span_records_are_rejected():
    """1.3 JSON dumps marked span nodes with a ``bot`` field."""
    document = {
        "format": "bbdd-json",
        "version": 1,
        "variables": CHAIN_VARS,
        "order": CHAIN_VARS,
        "nodes": [
            {"id": 1, "pv": "a", "sv": "b", "bot": "d", "neq": [0, True],
             "eq": [0, False]},
        ],
        "roots": {"par": [1, False]},
    }
    with pytest.raises(FormatError, match="chain-reduced dumps are no longer read"):
        rio.from_dict(document)
