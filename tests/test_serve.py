"""The repro.serve query service: bulk sweeps, pool, coalescing server.

Covers the levelized batch-evaluation sweep against the per-query
oracle on every backend (hypothesis property, duplicates, empty batch,
beyond-``request_chunk`` batches on xmem), the batched cube
satisfiability, the strict assignment error contract (missing support
variables are *named*, batch errors carry the position, constants
reject malformed mappings), the forest pool (lane spans, hot reload
racing in-flight batches, the no-shared-memory fallback, result
caching), the asyncio batching server, its TCP front end (a
seeded fuzz of hostile lines, the per-connection in-flight cap), and
the ``python -m repro.serve`` CLI.
"""

import asyncio
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api.base import Columns
from repro.circuits.registry import TABLE1_ROWS
from repro.core.exceptions import VariableError
from repro.network.build import build
from repro.network.simulate import exhaustive_masks, output_truth_masks
from repro.par import ShmForest
from repro.serve import (
    BatchingServer,
    ColumnBatch,
    ForestPool,
    ServeError,
    serve_tcp,
)
from repro.par.dispatch import WorkerRestarted
from repro.serve import server as serve_server
from repro.serve.bulk import (
    EncodedBatch,
    cohort_sweep,
    cube_sweep,
    encode_columns,
    encode_mappings,
)

# A reply the server drops would otherwise leave a TCP test waiting
# forever; the hard deadline turns that hang into a failure.
pytestmark = pytest.mark.timeout(60)

BACKENDS = ["bbdd", "bdd"]
ALL_BACKENDS = BACKENDS + ["xmem"]

NAMES = ["a", "b", "c", "d", "e"]


def open_backend(backend, names=NAMES, **kwargs):
    if backend == "xmem":
        kwargs.setdefault("node_budget", 64)
        kwargs.setdefault("request_chunk", 16)
    return repro.open(backend, vars=names, **kwargs)


def random_function(manager, rng, terms=4):
    f = manager.false()
    for _ in range(terms):
        cube = manager.true()
        for name in rng.sample(NAMES, rng.randrange(1, 4)):
            literal = manager.var(name)
            cube &= literal if rng.getrandbits(1) else ~literal
        f = (f | cube) if rng.getrandbits(1) else (f ^ cube)
    return f


# ----------------------------------------------------------------------
# bulk evaluation: the hypothesis property across all backends
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@settings(deadline=None)
@given(data=st.data())
def test_evaluate_batch_matches_looped_evaluate(backend, data):
    """evaluate_batch(assignments) == [evaluate(a) for a in assignments]."""
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    manager = open_backend(backend)
    f = random_function(manager, rng)
    assignments = [
        {name: rng.getrandbits(1) for name in NAMES}
        for _ in range(data.draw(st.integers(0, 40)))
    ]
    # Duplicates must round-trip identically (and hit dedup paths).
    if assignments:
        assignments.extend(rng.choices(assignments, k=5))
    assert f.evaluate_batch(assignments) == [f.evaluate(a) for a in assignments]


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_evaluate_batch_column_input(backend):
    manager = open_backend(backend)
    f = manager.add_expr("(a ^ b) | (c & d) | (a <-> e)")
    rng = random.Random(11)
    batch = [{name: rng.getrandbits(1) for name in NAMES} for _ in range(257)]
    columns = {name: 0 for name in NAMES}
    for i, assignment in enumerate(batch):
        for name in NAMES:
            if assignment[name]:
                columns[name] |= 1 << i
    want = [f.evaluate(a) for a in batch]
    assert f.evaluate_batch(ColumnBatch(columns, len(batch))) == want
    assert f.evaluate_batch(batch) == want
    assert manager.evaluate_batch(f, batch) == want


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_evaluate_batch_edge_cases(backend):
    manager = open_backend(backend)
    f = manager.add_expr("a & b")
    assert f.evaluate_batch([]) == []
    assert manager.true().evaluate_batch([{}, {"a": 1}]) == [True, True]
    assert manager.false().evaluate_batch([{}]) == [False]
    # Heterogeneous key orders within one batch (run splitting).
    batch = [{"a": 1, "b": 1}, {"b": 1, "a": 1}, {"a": 1, "b": 0, "c": 0}]
    assert f.evaluate_batch(batch) == [True, True, False]
    # Support variables may come by index, extras may be omitted.
    assert f.evaluate_batch([{0: 1, 1: 1}]) == [True]


def test_evaluate_batch_xmem_streams_beyond_request_chunk():
    """Batches far above request_chunk sweep within the node budget,
    and so do batched cubes and ``p_one`` on the same forest."""
    manager = open_backend("xmem", node_budget=48, request_chunk=8)
    f = manager.add_expr("(a ^ b) | (c & d) | (b <-> e)")
    rng = random.Random(5)
    batch = [{name: rng.getrandbits(1) for name in NAMES} for _ in range(512)]
    want = [f.evaluate(a) for a in batch]
    count = sum(
        f.evaluate({name: code >> i & 1 for i, name in enumerate(NAMES)})
        for code in range(1 << len(NAMES))
    )
    assert f.evaluate_batch(batch) == want
    assert manager.stats()["resident_nodes"] <= 48
    # Complete assignments as cubes: satisfiable exactly where true.
    assert f.satisfiable_batch(batch) == want
    assert manager.stats()["resident_nodes"] <= 48
    assert f.p_one() == Fraction(count, 1 << len(NAMES))
    assert manager.stats()["resident_nodes"] <= 48


# ----------------------------------------------------------------------
# batched cube satisfiability
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@settings(deadline=None)
@given(data=st.data())
def test_satisfiable_batch_matches_restrict_oracle(backend, data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    manager = open_backend(backend)
    f = random_function(manager, rng)
    cubes = [
        {
            name: rng.getrandbits(1)
            for name in rng.sample(NAMES, rng.randrange(0, len(NAMES) + 1))
        }
        for _ in range(data.draw(st.integers(0, 25)))
    ]
    got = f.satisfiable_batch(cubes)
    for cube, sat in zip(cubes, got):
        cofactor = f
        for name, value in cube.items():
            cofactor = cofactor.restrict(name, bool(value))
        assert (not cofactor.is_false) == sat


def test_satisfiable_batch_relational_consistency():
    """Free variables shared by consecutive couples stay consistent.

    ``a <-> c`` with ``a`` fixed and ``c`` fixed opposite is
    unsatisfiable even though the middle couples leave ``b`` free — the
    naive both-ways sweep would follow an inconsistent path.
    """
    manager = open_backend("bbdd")
    f = manager.add_expr("a <-> c")
    assert f.satisfiable_batch(
        [{"a": 1, "c": 0}, {"a": 1, "c": 1}, {"a": 1}, {}]
    ) == [False, True, True, True]
    g = manager.add_expr("(a ^ b) | (c & d) | (a <-> e)")
    assert g.satisfiable_batch([{"a": 1, "b": 1, "e": 0, "d": 0}]) == [False]


# ----------------------------------------------------------------------
# the sweep kernels against truth tables, on sifted circuits
# ----------------------------------------------------------------------

KERNEL_LANES = 320


def sifted_circuit(name, backend):
    """A fast Table I row built on ``backend`` and sifted, with oracles.

    After sifting, the order no longer follows variable indices, so a
    row's couple is not its index neighbour.  Returns the manager, its
    functions, ``KERNEL_LANES`` complete assignments, as many cubes
    (every size 0..n at least once) and per output the expected answers
    from the network's exhaustive truth table.
    """
    network = next(r for r in TABLE1_ROWS if r.name == name).build(full=False)
    manager, functions = build(network, backend=backend)
    manager.sift()
    assert list(manager.order.order) != sorted(manager.order.order)
    inputs = list(network.inputs)
    n = len(inputs)
    columns = exhaustive_masks(n)
    everything = (1 << (1 << n)) - 1
    rng = random.Random(n)
    points = [rng.randrange(1 << n) for _ in range(KERNEL_LANES)]
    assignments = [{v: p >> j & 1 for j, v in enumerate(inputs)} for p in points]
    sizes = list(range(n + 1))
    sizes += [rng.randrange(n + 1) for _ in range(KERNEL_LANES - len(sizes))]
    cubes, minterms = [], []
    for size, point in zip(sizes, points):
        cube, region = {}, everything
        for j in rng.sample(range(n), size):
            cube[inputs[j]] = point >> j & 1
            region &= columns[j] if point >> j & 1 else everything ^ columns[j]
        cubes.append(cube)
        minterms.append(region)
    expected = {
        out: (
            [bool(table >> p & 1) for p in points],
            [bool(table & region) for region in minterms],
        )
        for out, table in output_truth_masks(network).items()
    }
    return manager, functions, assignments, cubes, expected


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("circuit", ["alu4", "misex1"])
def test_sweeps_match_truth_tables_after_sift(circuit, backend):
    """Batch answers of the manager and of a frozen forest equal looped
    ``evaluate`` and the truth tables (bdd rows all test one variable)."""
    manager, functions, assignments, cubes, expected = sifted_circuit(
        circuit, backend
    )
    frozen = ShmForest.freeze(manager, functions)
    try:
        for out, f in functions.items():
            values, sat = expected[out]
            assert [f.evaluate(a) for a in assignments] == values
            assert f.evaluate_batch(assignments) == values
            assert frozen.evaluate_batch(out, assignments) == values
            assert f.satisfiable_batch(cubes) == sat
            assert frozen.satisfiable_batch(out, cubes) == sat
            # Alone in its batch, a cube leaves its free variables
            # unconstrained in every lane (the kernel's all-free masks).
            width = len(manager.order.order) + 1
            assert [f.satisfiable_batch([c])[0] for c in cubes[:width]] == (
                sat[:width]
            )
    finally:
        frozen.close()
        frozen.unlink()


def interleaved(columns):
    """The same diagram with rows re-laid parents first, PVs alternating.

    A topological order that picks, whenever it can, a ready row whose
    PV differs from the previous row's: no producer lays rows out this
    way, but the kernels only rely on parents coming first.
    """
    _base, pv, sv, t, f = columns.joined().blocks[0]
    waiting = [0] * len(pv)
    for slot in range(2, len(pv)):
        for ref in (t[slot], f[slot]):
            waiting[abs(ref)] += 1
    ready = [slot for slot in range(2, len(pv)) if not waiting[slot]]
    placed = []
    while ready:
        last = pv[placed[-1]] if placed else None
        pick = next((i for i, s in enumerate(ready) if pv[s] != last), 0)
        slot = ready.pop(pick)
        placed.append(slot)
        for ref in (t[slot], f[slot]):
            waiting[abs(ref)] -= 1
            if abs(ref) > 1 and not waiting[abs(ref)]:
                ready.append(abs(ref))
    new = {old: slot for slot, old in enumerate(placed, 2)}
    new[1] = 1

    def ref_of(ref):
        return new[ref] if ref > 0 else -new[-ref]

    npv = [0, 0] + [pv[s] for s in placed]
    block = (
        0,
        npv,
        [-1, -1] + [sv[s] for s in placed],
        [0, 0] + [ref_of(t[s]) for s in placed],
        [0, 0] + [ref_of(f[s]) for s in placed],
    )
    roots = {name: ref_of(ref) for name, ref in columns.roots.items()}
    return Columns(columns.order, roots, [block], npv)


def test_sweeps_need_no_pv_grouping():
    """Both kernels answer the same on rows whose PVs interleave."""
    manager, functions, assignments, cubes, expected = sifted_circuit(
        "alu4", "bbdd"
    )
    exported = manager.freeze_export(
        [(out, f.edge) for out, f in sorted(functions.items())]
    )
    columns = interleaved(exported)
    pvs = columns.pv_of[2:]
    runs = 1 + sum(a != b for a, b in zip(pvs, pvs[1:]))
    assert runs > 2 * len(set(pvs))  # PVs come back after other PVs
    points = encode_mappings(manager, assignments)
    partial = encode_mappings(manager, cubes, with_known=True)
    for out, ref in columns.roots.items():
        values, sat = expected[out]
        got = cohort_sweep(columns, ref, points.var_bits, points.full)
        assert points.unpack(got) == values
        got = cube_sweep(
            columns, ref, partial.var_bits, partial.known_bits, partial.full
        )
        assert partial.unpack(got) == sat


# ----------------------------------------------------------------------
# the error-message contract (bugfix: missing variables are *named*)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_evaluate_names_missing_support_variables(backend):
    manager = open_backend(backend)
    f = manager.add_expr("(a & d) | e")
    with pytest.raises(VariableError, match=r"misses support variable\(s\): a, d"):
        f.evaluate({"e": 0})
    with pytest.raises(VariableError, match="unknown variable"):
        f.evaluate({"zz": 1})
    with pytest.raises(TypeError, match="variable 'a'"):
        f.evaluate({"a": "yes", "d": 1, "e": 0, "b": 0, "c": 0})
    with pytest.raises(VariableError, match="more than once"):
        f.evaluate({"a": 1, 0: 1, "d": 0, "e": 0})


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_empty_support_constant_rejects_malformed_mappings(backend):
    """Constants validate assignments too instead of accepting anything."""
    manager = open_backend(backend)
    true = manager.true()
    assert true.evaluate({"a": 1}) is True
    with pytest.raises(VariableError, match="unknown variable"):
        true.evaluate({"not-a-var": 1})
    with pytest.raises(TypeError, match="must be a Boolean"):
        true.evaluate({"a": 2})
    with pytest.raises(TypeError, match="must be a Boolean"):
        true.evaluate({"a": None})
    with pytest.raises(VariableError, match="more than once"):
        true.evaluate({"a": 1, 0: 0})


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_evaluate_batch_errors_name_position_and_variables(backend):
    manager = open_backend(backend)
    f = manager.add_expr("(a & d) | e")
    complete = {"a": 1, "b": 0, "c": 0, "d": 1, "e": 0}
    with pytest.raises(
        VariableError, match=r"assignment 1 misses support variable\(s\): a, d"
    ):
        f.evaluate_batch([complete, {"e": 1}])
    with pytest.raises(TypeError, match="assignment 2"):
        f.evaluate_batch([complete, complete, {**complete, "d": "x"}])
    with pytest.raises(TypeError, match="assignment 1"):
        f.evaluate_batch([complete, {**complete, "d": 7}])
    with pytest.raises(VariableError, match="unknown variable"):
        f.evaluate_batch([{**complete, "zz": 1}])
    with pytest.raises(VariableError, match="more than once"):
        f.evaluate_batch([{**complete, 0: 1}])
    with pytest.raises(TypeError, match="assignment 0 must be a mapping"):
        f.evaluate_batch([("a", 1)])
    # A non-mapping whose key tuple matches a mapping's signature joins
    # its run; the error must still name the offending element.
    with pytest.raises(TypeError, match="assignment 1 must be a mapping, got str"):
        f.evaluate_batch([{"a": 1}, "a"])
    with pytest.raises(VariableError, match=r"batch misses support variable\(s\)"):
        f.evaluate_batch(ColumnBatch({"e": 0}, 1))


def test_column_batch_validation():
    with pytest.raises(TypeError, match="int bitmask"):
        ColumnBatch({"a": "0b1"}, 4)
    with pytest.raises(Exception, match="beyond"):
        ColumnBatch({"a": 1 << 5}, 4)
    batch = ColumnBatch.from_assignments([{"a": 1}, {"a": 0, "b": 1}])
    assert batch.count == 2
    assert batch.columns == {"a": 1, "b": 2}


def test_encoded_batch_fallback_loop_matches_sweep():
    """The sweep over encoded lanes agrees with a looped per-query oracle."""
    manager = open_backend("bbdd")
    f = manager.add_expr("(a ^ b) | (c & d)")
    rng = random.Random(2)
    batch = [{name: rng.getrandbits(1) for name in NAMES} for _ in range(64)]
    encoded = encode_mappings(manager, batch)
    assert isinstance(encoded, EncodedBatch)
    looped = [
        manager.evaluate_edge(f.edge, values)
        for values in encoded.iter_value_dicts(manager.num_vars)
    ]
    assert f.evaluate_batch(batch) == looped


def mixed_batch(rng, count, keys, first_run=0):
    """Complete assignments in runs of shuffled key order.

    Values mix bools with int 0/1; ``first_run`` queries share the
    first key order (one long column per key).
    """
    batch = []
    while len(batch) < count:
        order = rng.sample(keys, len(keys))
        run = first_run if not batch and first_run else rng.randrange(1, 8)
        for _ in range(run):
            batch.append({key: rng.choice((False, True, 0, 1)) for key in order})
    return batch[:count]


@pytest.mark.parametrize("count, first_run", [(1, 0), (2, 0), (37, 0), (5000, 4500)])
def test_mapping_and_column_encoders_agree(count, first_run):
    """Mapping and ColumnBatch input encode to the same bits: bit i is
    query i (runs of 4,500 parse more than 4,300 base-2 digits)."""
    manager = open_backend("bbdd")
    keys = ["a", "b", 2, "d", 4]
    batch = mixed_batch(random.Random(count), count, keys, first_run)
    columns = ColumnBatch.from_assignments(batch)
    for with_known in (False, True):
        mapped = encode_mappings(manager, batch, with_known=with_known)
        columnar = encode_columns(manager, columns, with_known=with_known)
        assert mapped.count == columnar.count == count
        assert mapped.full == columnar.full == (1 << count) - 1
        assert mapped.var_bits == columnar.var_bits
        assert mapped.known_bits == columnar.known_bits
    for key in keys:
        bits = mapped.var_bits[manager.var_index(key)]
        assert [bool(bits >> i & 1) for i in range(count)] == [
            bool(assignment[key]) for assignment in batch
        ]


def test_column_batch_from_assignments_errors_name_position():
    with pytest.raises(TypeError, match="assignment 3: value for variable 'b'"):
        ColumnBatch.from_assignments(
            [{"a": 1, "b": 0}] * 3 + [{"a": 1, "b": 2}, {"b": 0}]
        )
    with pytest.raises(TypeError, match="assignment 1: value for variable 'a'"):
        ColumnBatch.from_assignments([{"a": True}, {"a": "yes"}])
    with pytest.raises(TypeError, match="assignment 1 must be a mapping"):
        ColumnBatch.from_assignments([{"a": 1}, ("a",)])


# ----------------------------------------------------------------------
# the worker pool
# ----------------------------------------------------------------------


@pytest.fixture
def forest_path(tmp_path):
    manager = repro.open("bbdd", vars=NAMES)
    f = manager.add_expr("(a ^ b) | (c & d)")
    g = manager.add_expr("a & ~e")
    path = tmp_path / "forest.bbdd"
    manager.dump({"f": f, "g": g}, str(path))
    return str(path)


def reference_batch(count=200, seed=9):
    rng = random.Random(seed)
    return [{name: rng.getrandbits(1) for name in NAMES} for _ in range(count)]


def reference_results(forest, name, batch):
    from repro import io as rio

    _manager, functions = rio.load(forest)
    return [functions[name].evaluate(a) for a in batch]


def test_inline_pool_shards_and_caches(forest_path):
    batch = reference_batch()
    want = reference_results(forest_path, "f", batch)
    with ForestPool(workers=0, cache_size=128) as pool:
        assert pool.warm(forest_path) == ["f", "g"]
        assert pool.evaluate_batch(forest_path, "f", batch) == want
        stats = pool.stats()
        assert stats["workers"] == 0
        # 5 variables => at most 32 distinct assignments: the second
        # call must be answered from the result cache entirely.
        assert pool.evaluate_batch(forest_path, "f", batch) == want
        assert pool.stats()["cache_hits"] >= len(batch)
        assert pool.evaluate(forest_path, "g", {"a": 1, "e": 0}) is True
        # A malformed value must raise identically on a warm cache (the
        # cache key normalization must not coerce it to a hit first).
        with pytest.raises(TypeError, match="must be a Boolean"):
            pool.evaluate(forest_path, "g", {"a": 7, "e": 0})
    with pytest.raises(ServeError, match="no function 'nope'"):
        ForestPool(workers=0).evaluate(forest_path, "nope", {})


def test_multiprocess_pool_round_trip(forest_path, tmp_path):
    batch = reference_batch(150)
    want = reference_results(forest_path, "f", batch)
    # 12 variables: 3000 distinct misses span more than 2 x 1024 lanes.
    wide_names = [f"x{i}" for i in range(12)]
    manager = repro.open("bbdd", vars=wide_names)
    parity = manager.add_expr(" ^ ".join(wide_names))
    wide_path = str(tmp_path / "wide.bbdd")
    manager.dump({"p": parity}, wide_path)
    wide = [
        {name: (i >> bit) & 1 for bit, name in enumerate(wide_names)}
        for i in range(3000)
    ]
    with ForestPool(workers=2, cache_size=0) as pool:
        assert pool.warm(forest_path) == ["f", "g"]
        assert pool.evaluate_batch(forest_path, "f", batch) == want
        stats = pool.stats()
        assert stats["workers"] == 2
        # 5 variables give at most 32 distinct assignments: one span.
        assert (stats["batches_dispatched"], stats["shards_dispatched"]) == (1, 1)
        assert pool.evaluate_batch(wide_path, "p", wide) == parity.evaluate_batch(wide)
        # 3000 lanes over 2 workers: two spans of 1500.
        assert pool.stats()["shards_dispatched"] == 3
        with pytest.raises(ServeError, match="no function 'nope'"):
            pool.evaluate_batch(forest_path, "nope", batch[:2])
        # The pool survives a failed request.
        assert pool.evaluate_batch(forest_path, "g", batch[:8]) == (
            reference_results(forest_path, "g", batch[:8])
        )


def test_multiprocess_pool_concurrent_collect(forest_path):
    """Concurrent dispatcher threads must not steal each other's replies.

    This is exactly the call pattern ``BatchingServer._flush`` produces
    (one executor thread per function group): both threads block on the
    shared result queue, and the demux must park the other thread's
    reply instead of losing its wakeup until the timeout.
    """
    import concurrent.futures

    batch = reference_batch(80, seed=13)
    want_f = reference_results(forest_path, "f", batch)
    want_g = reference_results(forest_path, "g", batch)
    with ForestPool(workers=2, cache_size=0, timeout=20) as pool:
        pool.warm(forest_path)
        with concurrent.futures.ThreadPoolExecutor(4) as executor:
            futures = []
            for _ in range(3):
                futures.append(
                    executor.submit(pool.evaluate_batch, forest_path, "f", batch)
                )
                futures.append(
                    executor.submit(pool.evaluate_batch, forest_path, "g", batch)
                )
            outcomes = [future.result(timeout=30) for future in futures]
    for index, outcome in enumerate(outcomes):
        assert outcome == (want_f if index % 2 == 0 else want_g)


def test_inline_pool_concurrent_cache_access(forest_path):
    """The result cache must survive concurrent executor threads.

    With a small cache, one thread's lookup racing another thread's
    eviction used to raise KeyError from ``move_to_end``; everything
    cache-touching now runs under the pool lock.
    """
    import concurrent.futures

    batch = reference_batch(120, seed=17)
    want_f = reference_results(forest_path, "f", batch)
    want_g = reference_results(forest_path, "g", batch)
    with ForestPool(workers=0, cache_size=20) as pool:
        pool.warm(forest_path)
        with concurrent.futures.ThreadPoolExecutor(8) as executor:
            futures = [
                executor.submit(
                    pool.evaluate_batch,
                    forest_path,
                    "f" if i % 2 == 0 else "g",
                    batch,
                )
                for i in range(16)
            ]
            outcomes = [future.result(timeout=30) for future in futures]
    for index, outcome in enumerate(outcomes):
        assert outcome == (want_f if index % 2 == 0 else want_g)


def test_pool_max_forests_lru(tmp_path):
    """max_forests bounds the frozen segments; the oldest is unlinked."""
    from repro.par.shm import active_segments

    paths = []
    for i in range(3):
        manager = repro.open("bbdd", vars=["x"])
        path = tmp_path / f"forest{i}.bbdd"
        manager.dump({"f": manager.var("x")}, str(path))
        paths.append(str(path))
    before = set(active_segments())
    with ForestPool(workers=0, max_forests=2) as pool:
        first = set()
        for index, path in enumerate(paths):
            assert pool.evaluate(path, "f", {"x": 1}) is True
            if index == 0:
                first = set(active_segments()) - before
        assert len(first) == 1
        # The third path evicted the first, whose segment is unlinked.
        live = set(active_segments()) - before
        assert len(live) == 2 and not live & first
        assert pool.stats()["shm_freezes"] == 3
        assert pool.evaluate(paths[0], "f", {"x": 0}) is False  # re-frozen
        stats = pool.stats()
        assert (stats["shm_freezes"], stats["shared_segments"]) == (4, 2)
    assert set(active_segments()) - before == set()


# ----------------------------------------------------------------------
# the asyncio batching server
# ----------------------------------------------------------------------


def test_batching_server_coalesces(forest_path):
    batch = reference_batch(120, seed=4)
    want = reference_results(forest_path, "f", batch)

    async def scenario():
        pool = ForestPool(workers=0)
        server = BatchingServer(pool, forest_path, batch_window=0.01, max_batch=500)
        assert server.warm() == ["f", "g"]
        results = await asyncio.gather(
            *(server.query("f", assignment) for assignment in batch)
        )
        stats = server.stats()
        pool.close()
        return list(results), stats

    results, stats = asyncio.run(scenario())
    assert results == want
    assert stats["queries"] == len(batch)
    # Queries issued in one burst coalesce into very few sweeps.
    assert stats["batches_flushed"] <= 3
    assert stats["p50_latency_s"] > 0


#: Queries against ``f`` of the forest fixture: valid ones with their
#: answers, then a bad value, a missing support variable and a
#: non-mapping, each coalesced into the same batch.
MIXED_QUERIES = [
    ({"a": 1, "b": 0, "c": 0, "d": 0, "e": 0}, True),
    ({"a": 1, "b": 1, "c": 0, "d": 0, "e": 0}, False),
    ({"a": 2, "b": 0, "c": 0, "d": 0, "e": 0}, "value for variable 'a'"),
    ({"a": 0, "b": 0, "c": 1, "d": 1, "e": 1}, True),
    ({"a": 1, "b": 0, "c": 1}, "misses support variable(s): d"),
    ({"a": 0, "b": 0, "c": 0, "d": 1}, False),
    ([1, 0], "must be a mapping"),
]


@pytest.mark.parametrize("workers", [0, 1])
def test_batching_server_isolates_malformed_queries(forest_path, workers):
    """A malformed query fails alone; its error cites no other query."""

    async def scenario():
        pool = ForestPool(workers=workers)
        server = BatchingServer(pool, forest_path, batch_window=0.05)
        try:
            results = await asyncio.gather(
                *(server.query("f", query) for query, _want in MIXED_QUERIES),
                return_exceptions=True,
            )
            return results, server.stats()["batches_flushed"]
        finally:
            pool.close()

    results, flushes = asyncio.run(scenario())
    assert flushes == 1
    for (query, want), result in zip(MIXED_QUERIES, results):
        if isinstance(want, bool):
            assert result is want, query
        else:
            assert isinstance(result, ServeError), query
            assert want in str(result) and "assignment 0" in str(result), result


def test_batching_server_pool_failure_fails_group(forest_path):
    """A crew failure is the pool's: the group fails without retries."""

    class DeadPool:
        calls = 0

        def evaluate_batch(self, path, name, assignments):
            self.calls += 1
            try:
                raise WorkerRestarted("a pool worker died mid-task (respawned)")
            except WorkerRestarted as exc:
                raise ServeError(str(exc)) from exc

    pool = DeadPool()

    async def scenario():
        server = BatchingServer(pool, forest_path, batch_window=0.05)
        return await asyncio.gather(
            *(server.query("f", query) for query, _want in MIXED_QUERIES[:3]),
            return_exceptions=True,
        )

    results = asyncio.run(scenario())
    assert all("worker died" in str(result) for result in results), results
    assert pool.calls == 1


def test_batch_size_series_only_for_stored_names(forest_path):
    """Unknown function names from clients add no metric series."""
    from repro import obs

    def series():
        family = obs.snapshot()["repro_serve_batch_size"]
        return {sample["labels"]["function"] for sample in family["samples"]}

    before = series()

    async def scenario():
        pool = ForestPool(workers=0)
        server = BatchingServer(pool, forest_path, batch_window=0.01)
        try:
            unknown = await asyncio.gather(
                *(server.query(f"nope{i}", {"a": 1}) for i in range(500)),
                return_exceptions=True,
            )
            known = await server.query("g", {"a": 1, "e": 0})
            return unknown, known
        finally:
            pool.close()

    unknown, known = asyncio.run(scenario())
    assert all(isinstance(result, ServeError) for result in unknown)
    assert known is True
    assert series() - before <= {"f", "g"}
    assert "g" in series()


def test_tcp_malformed_query_does_not_fail_batch(forest_path):
    """Over TCP, one client's malformed queries leave another's intact."""

    async def scenario():
        pool = ForestPool(workers=0)
        server = BatchingServer(pool, forest_path, batch_window=0.05)
        tcp = await serve_tcp(server, "127.0.0.1", 0)
        port = tcp.sockets[0].getsockname()[1]
        # Client 1 sends the valid queries, client 0 the malformed ones.
        clients = [await asyncio.open_connection("127.0.0.1", port) for _ in range(2)]
        sent = [0, 0]
        try:
            for i, (query, want) in enumerate(MIXED_QUERIES):
                client = int(isinstance(want, bool))
                line = {"f": "f", "assignment": query, "id": i}
                clients[client][1].write(json.dumps(line).encode() + b"\n")
                sent[client] += 1
            responses = []
            for (reader, writer), count in zip(clients, sent):
                await writer.drain()
                for _ in range(count):
                    responses.append(json.loads(await reader.readline()))
            return responses, server.stats()["batches_flushed"]
        finally:
            for _reader, writer in clients:
                writer.close()
            tcp.close()
            await tcp.wait_closed()
            pool.close()

    responses, flushes = asyncio.run(scenario())
    assert flushes == 1
    by_id = {response["id"]: response for response in responses}
    assert sorted(by_id) == list(range(len(MIXED_QUERIES)))
    for i, (query, want) in enumerate(MIXED_QUERIES):
        if isinstance(want, bool):
            assert by_id[i] == {"id": i, "result": want}, query
        else:
            error = by_id[i]["error"]
            assert error.startswith("ServeError: ") and want in error, error
            assert "assignment 0" in error, error


def test_batching_server_tcp_protocol(forest_path):
    async def scenario():
        pool = ForestPool(workers=0)
        server = BatchingServer(pool, forest_path, batch_window=0.001)
        tcp = await serve_tcp(server, "127.0.0.1", 0)
        port = tcp.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        requests = [
            {"f": "g", "assignment": {"a": 1, "e": 0}, "id": 1},
            {"f": "g", "assignment": {"a": 0, "e": 0}, "id": 2},
            {"f": "missing", "assignment": {}, "id": 3},
            {"op": "stats", "id": 4},
        ]
        for request in requests:
            writer.write(json.dumps(request).encode() + b"\n")
        await writer.drain()
        responses = [json.loads(await reader.readline()) for _ in requests]
        writer.close()
        tcp.close()
        await tcp.wait_closed()
        pool.close()
        return responses

    responses = asyncio.run(scenario())
    by_id = {response["id"]: response for response in responses}
    assert by_id[1]["result"] is True
    assert by_id[2]["result"] is False
    assert "no function 'missing'" in by_id[3]["error"]
    assert by_id[4]["result"]["queries"] >= 2


def test_tcp_malformed_requests_get_typed_errors(forest_path):
    """Non-object lines and queries without "f" answer ServeError; the
    connection keeps answering valid queries afterwards."""

    async def scenario():
        pool = ForestPool(workers=0)
        server = BatchingServer(pool, forest_path, batch_window=0.001)
        tcp = await serve_tcp(server, "127.0.0.1", 0)
        port = tcp.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        bad = [b"[1]", b'"x"', b"3", b"null", b'{"assignment": {"a": 1}, "id": 5}']
        for line in bad:
            writer.write(line + b"\n")
        await writer.drain()
        errors = [json.loads(await reader.readline()) for _ in bad]
        good = {"f": "g", "assignment": {"a": 1, "e": 0}, "id": 6}
        writer.write(json.dumps(good).encode() + b"\n")
        await writer.drain()
        answer = json.loads(await reader.readline())
        writer.close()
        tcp.close()
        await tcp.wait_closed()
        pool.close()
        return errors, answer

    errors, answer = asyncio.run(scenario())
    messages = sorted(response["error"] for response in errors)
    assert all(m.startswith("ServeError: ") for m in messages), messages
    assert sum("must be a JSON object" in m for m in messages) == 4
    missing = [r for r in errors if r["id"] == 5]
    assert missing and 'missing "f"' in missing[0]["error"]
    assert answer == {"id": 6, "result": True}


def test_tcp_pipelined_queries_coalesce(forest_path):
    """Queries pipelined on ONE connection still merge into few sweeps."""
    batch = reference_batch(60, seed=21)
    want = reference_results(forest_path, "f", batch)

    async def scenario():
        pool = ForestPool(workers=0)
        server = BatchingServer(pool, forest_path, batch_window=0.05)
        server.warm()
        tcp = await serve_tcp(server, "127.0.0.1", 0)
        port = tcp.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        for i, assignment in enumerate(batch):
            writer.write(
                json.dumps({"f": "f", "assignment": assignment, "id": i}).encode()
                + b"\n"
            )
        await writer.drain()
        responses = [json.loads(await reader.readline()) for _ in batch]
        flushes = server.stats()["batches_flushed"]
        writer.close()
        tcp.close()
        await tcp.wait_closed()
        pool.close()
        return responses, flushes

    responses, flushes = asyncio.run(scenario())
    by_id = {response["id"]: response["result"] for response in responses}
    assert [by_id[i] for i in range(len(batch))] == want
    # The whole pipelined burst lands within the batch window.
    assert flushes <= 3


async def _open_tcp(server):
    """Start the TCP front end of ``server``; ``(tcp, reader, writer)``."""
    tcp = await serve_tcp(server, "127.0.0.1", 0)
    port = tcp.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    return tcp, reader, writer


async def _close_tcp(tcp, writer) -> None:
    writer.close()
    tcp.close()
    await tcp.wait_closed()


async def _read_replies(reader, count: int, timeout: float = 20.0) -> list:
    return [
        json.loads(await asyncio.wait_for(reader.readline(), timeout))
        for _ in range(count)
    ]


def test_tcp_non_string_function_name_fails_alone(forest_path):
    """A non-string "f" fails its own request; its batch still answers.

    An unhashable name used to raise while the flush grouped its batch
    by name, so no query of that batch, from any client, was answered.
    """

    async def scenario():
        pool = ForestPool(workers=0)
        server = BatchingServer(pool, forest_path, batch_window=0.05)
        tcp, reader, writer = await _open_tcp(server)
        requests = [
            {"f": "g", "assignment": {"a": 1, "e": 0}, "id": 1},
            {"f": ["g"], "assignment": {"a": 1, "e": 0}, "id": 2},
            {"f": {"g": 1}, "assignment": {}, "id": 3},
            {"f": 7, "assignment": {"a": 1, "e": 0}, "id": 4},
            {"f": "g", "assignment": {"a": 0, "e": 0}, "id": 5},
        ]
        try:
            for request in requests:
                writer.write(json.dumps(request).encode() + b"\n")
            await writer.drain()
            replies = await _read_replies(reader, len(requests))
            with pytest.raises(ServeError, match="must be a string, got list"):
                await server.query(["g"], {"a": 1, "e": 0})
            return replies
        finally:
            await _close_tcp(tcp, writer)
            pool.close()

    by_id = {reply["id"]: reply for reply in asyncio.run(scenario())}
    assert by_id[1] == {"id": 1, "result": True}
    assert by_id[5] == {"id": 5, "result": False}
    for request_id, kind in ((2, "list"), (3, "dict"), (4, "int")):
        assert by_id[request_id] == {
            "id": request_id,
            "error": f"ServeError: function name must be a string, got {kind}",
        }


def test_tcp_reads_pause_at_in_flight_cap(forest_path, monkeypatch):
    """A client pipelining past the cap without reading its replies: the
    connection holds at most the cap unanswered, and every reply
    arrives once the pool answers."""
    import threading

    cap = 8
    monkeypatch.setattr(serve_server, "MAX_IN_FLIGHT", cap)
    batch = reference_batch(5 * cap, seed=31)
    want = reference_results(forest_path, "f", batch)

    class GatedPool:
        """Holds every batch until ``gate`` opens."""

        def __init__(self, pool):
            self.pool = pool
            self.gate = threading.Event()

        def evaluate_batch(self, path, name, assignments):
            if not self.gate.wait(30):
                raise ServeError("gate never opened")
            return self.pool.evaluate_batch(path, name, assignments)

    async def scenario():
        pool = GatedPool(ForestPool(workers=0))
        server = BatchingServer(pool, forest_path, batch_window=0.001)
        tcp, reader, writer = await _open_tcp(server)
        try:
            for i, assignment in enumerate(batch):
                request = {"f": "f", "assignment": assignment, "id": i}
                writer.write(json.dumps(request).encode() + b"\n")
            await writer.drain()
            for _ in range(500):
                if server.queries >= cap:
                    break
                await asyncio.sleep(0.01)
            # Room for the reader to overrun the cap if it did not pause.
            await asyncio.sleep(0.2)
            held = server.queries
            pool.gate.set()
            return held, await _read_replies(reader, len(batch))
        finally:
            pool.gate.set()
            await _close_tcp(tcp, writer)
            pool.pool.close()

    held, replies = asyncio.run(scenario())
    assert held == cap
    by_id = {reply["id"]: reply["result"] for reply in replies}
    assert [by_id[i] for i in range(len(batch))] == want


def test_result_cache_key_contract(tmp_path):
    """Equal assignments share a cache entry; distinct keys never do.

    ``True``/``1`` and key orders share one entry; the variable named
    "3" and variable index 3 (and a float key 3.0) stay apart; and a
    malformed value raises the same error whether or not its coerced
    key would hit the cache.
    """
    # Index 3 is the variable named "0" and index 0 the one named "3".
    manager = repro.open("bbdd", vars=["3", "1", "2", "0"])
    f = manager.var("3") & ~manager.var("0")
    path = str(tmp_path / "digits.bbdd")
    manager.dump({"f": f}, path)
    with ForestPool(workers=0) as pool:
        assert pool.evaluate(path, "f", {"3": True, "0": False}) is True
        assert pool.evaluate(path, "f", {"0": 0, "3": 1}) is True
        stats = pool.stats()
        assert (stats["cache_entries"], stats["cache_hits"]) == (1, 1)
        assert pool.evaluate(path, "f", {3: 1, 0: 0}) is False
        assert pool.evaluate(path, "f", {0: 0, 3: True}) is False
        stats = pool.stats()
        assert (stats["cache_entries"], stats["cache_hits"]) == (2, 2)
        # A float is neither a name nor an index of the frozen forest.
        with pytest.raises(VariableError, match="got 3.0"):
            pool.evaluate(path, "f", {3.0: 1, 0.0: 0})
        stats = pool.stats()
        assert (stats["cache_entries"], stats["cache_hits"]) == (2, 2)
    for bad in (2, 1.0, "1", None):
        messages = []
        for cache_size in (4096, 0):
            with ForestPool(workers=0, cache_size=cache_size) as pool:
                pool.evaluate(path, "f", {"3": 1, "0": 0})
                with pytest.raises(TypeError) as error:
                    pool.evaluate_batch(
                        path, "f", [{"3": 1, "0": 0}, {"3": bad, "0": 0}]
                    )
                messages.append(str(error.value))
        assert messages[0] == messages[1], bad
        assert messages[0] == (
            "assignment 1: value for variable '3' must be a Boolean "
            f"(bool, or int 0/1), got {bad!r}"
        )


def test_result_cache_keys_share_one_key_tuple(tmp_path):
    """Assignments over one key set share one sorted key tuple, whatever
    their key order; the table of key orders stays within its bound."""
    from itertools import islice, permutations

    from repro.serve.pool import KEY_TABLE_SIZE

    names = [f"v{i}" for i in range(7)]
    manager = repro.open("bbdd", vars=names)
    f = manager.add_expr(" ^ ".join(names))
    path = str(tmp_path / "parity.bbdd")
    manager.dump({"f": f}, path)
    with ForestPool(workers=0) as pool:
        assert pool.evaluate(path, "f", dict.fromkeys(names, 0)) is False
        shuffled = {name: int(name == "v3") for name in reversed(names)}
        assert pool.evaluate(path, "f", shuffled) is True
        first, second = pool._cache
        assert first[2] == tuple(names) and first[2] is second[2]
        assert pool.stats()["cache_entries"] == 2
        orders = list(islice(permutations(names), 2000))
        batch = [
            {name: (i >> k) & 1 for k, name in enumerate(order)}
            for i, order in enumerate(orders)
        ]
        want = [bin(i & 0x7F).count("1") % 2 == 1 for i in range(len(batch))]
        assert pool.evaluate_batch(path, "f", batch) == want
        assert 0 < len(pool._key_table) <= KEY_TABLE_SIZE
        tuples = {id(keys) for keys in pool._key_table.values()}
        assert len(tuples) == 1


@pytest.mark.parametrize("value", [True, False])
def test_query_reply_lines_match_json_dumps(value):
    """A query's reply line is byte-identical to the generic encoding."""
    for request_id in (0, -1, 2**70, "req-é\n\"7\"", 1.5, None, {"a": [1, None]}):
        want = (json.dumps({"id": request_id, "result": value}) + "\n").encode()
        assert serve_server._query_line(request_id, value) == want, request_id
        assert serve_server._result_line(request_id, value) == want, request_id


def test_tcp_burst_counts_every_query_once(forest_path):
    """After a pipelined TCP burst, the queries counter (bumped once per
    flush) has grown by exactly the number of queries sent."""
    from repro import obs
    from repro.obs.catalog import family

    batch = reference_batch(300, seed=17)
    want = reference_results(forest_path, "f", batch)
    counter = family(obs.REGISTRY, "repro_serve_queries_total")

    async def scenario():
        pool = ForestPool(workers=0)
        server = BatchingServer(pool, forest_path, batch_window=0.001)
        tcp, reader, writer = await _open_tcp(server)
        try:
            before = counter.value
            for i, assignment in enumerate(batch):
                request = {"f": "f", "assignment": assignment, "id": i}
                writer.write(json.dumps(request).encode() + b"\n")
            await writer.drain()
            replies = await _read_replies(reader, len(batch))
            return counter.value - before, server.stats(), replies
        finally:
            await _close_tcp(tcp, writer)
            pool.close()

    counted, stats, replies = asyncio.run(scenario())
    by_id = {reply["id"]: reply["result"] for reply in replies}
    assert [by_id[i] for i in range(len(batch))] == want
    assert counted == stats["queries"] == len(batch)


def test_queue_depth_is_sampled_at_scrape_time(forest_path):
    """The queue-depth gauge reads every server's pending queries when a
    snapshot is taken, and falls back once they flush."""
    from repro import obs

    def depth() -> int:
        return obs.snapshot()["repro_serve_queue_depth"]["samples"][0]["value"]

    async def scenario():
        pool = ForestPool(workers=0)
        first = BatchingServer(pool, forest_path, batch_window=30.0, max_batch=4)
        second = BatchingServer(pool, forest_path, batch_window=30.0, max_batch=3)
        answers = []
        try:
            base = depth()
            for server, count in ((first, 3), (second, 2)):
                for _ in range(count):
                    server.submit("g", {"a": 1, "e": 0}, answers.append)
            pending = depth() - base
            # Each server's last query fills its batch and flushes it.
            futures = [first.query("g", {"a": 0, "e": 0})]
            futures.append(second.query("g", {"a": 0, "e": 0}))
            results = await asyncio.gather(*futures)
            return pending, depth() - base, answers, results
        finally:
            pool.close()

    pending, after, answers, results = asyncio.run(scenario())
    assert pending == 5
    assert after == 0
    assert answers == [True] * 5 and results == [False, False]


#: Odd values for each field of a fuzzed request object.  No ``id``
#: here collides with the ``valid-<n>`` ids of the valid queries.
FUZZ_FIELDS = {
    "f": [["g"], {"g": 1}, 7, None, True, "", "missing", "f", "g"],
    "assignment": [
        [1, 0],
        "a",
        5,
        None,
        {},
        {"a": 2, "e": 0},
        {"a": "1", "e": 0},
        {"a": 1.0, "e": 0},
        {"a": None, "e": 0},
        {"a": [1], "e": 0},
        {"zz": 1},
        {"a": 1},
        {"a": {"b": 1}, "e": 0},
        {name: 1 for name in NAMES},
    ],
    "id": [None, [1, 2], {"k": [None]}, 1.5, -3, "", True, "id"],
    "op": ["stats", "metrics", "p_one", "marginals", "bogus", 3, None, ["stats"]],
    "weights": [None, {"a": 0.25}, {"a": 2}, {"a": "x"}, {"zz": 0.5}, [1], "w", 3],
    "variables": [None, ["a"], "a", [None], ["zz"], 3, {"a": 1}],
}


def _fuzz_lines(rng, count: int):
    """Seeded hostile request lines with valid queries mixed in.

    Returns ``(lines, valid)``: ``valid`` maps each valid query's id to
    its ``(function name, assignment)``.
    """
    scalars = [None, True, False, 0, 1, -7, 1.5, 1e308, "", "f", "☃"]

    def value(depth: int = 0):
        kind = rng.randrange(3 if depth < 2 else 1)
        if kind == 0:
            return rng.choice(scalars)
        if kind == 1:
            return [value(depth + 1) for _ in range(rng.randrange(3))]
        return {
            rng.choice(["a", "e", "f", "id", "op"]): value(depth + 1)
            for _ in range(rng.randrange(3))
        }

    lines = [b"[" * 5000, b"", b"   ", b"{", b'{"f": "f"']
    valid = {}
    for i in range(count):
        kind = rng.randrange(4)
        if kind == 0:
            raw = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))
            lines.append(raw.replace(b"\n", b" "))
        elif kind == 1:
            lines.append(json.dumps(value()).encode())
        elif kind == 2:
            request = {
                field: rng.choice(choices + [value()])
                for field, choices in FUZZ_FIELDS.items()
                if rng.random() < 0.6
            }
            lines.append(json.dumps(request).encode())
        else:
            name = rng.choice(["f", "g"])
            assignment = {var: rng.getrandbits(1) for var in NAMES}
            request_id = f"valid-{i}"
            valid[request_id] = (name, assignment)
            request = {"f": name, "assignment": assignment, "id": request_id}
            lines.append(json.dumps(request).encode())
    rng.shuffle(lines)
    return lines, valid


@pytest.mark.parametrize("workers", [0, 1])
def test_tcp_fuzz_answers_every_line(forest_path, workers):
    """Random bytes and hostile JSON on one connection: every line gets
    exactly one reply, valid queries get right answers, and the server
    still answers a final stats request."""
    from repro import io as rio

    lines, valid = _fuzz_lines(random.Random(0xF022 + workers), 1000)
    _manager, functions = rio.load(forest_path)

    async def scenario():
        pool = ForestPool(workers=workers, timeout=20)
        server = BatchingServer(pool, forest_path, batch_window=0.002)
        tcp, reader, writer = await _open_tcp(server)
        try:
            for line in lines:
                writer.write(line + b"\n")
            writer.write(b'{"op": "stats", "id": "final"}\n')
            # End of input at once: the server answers what is still
            # outstanding, then closes, which ends the read below.
            writer.write_eof()
            return await asyncio.wait_for(reader.read(), 30)
        finally:
            await _close_tcp(tcp, writer)
            pool.close()

    replies = [json.loads(line) for line in asyncio.run(scenario()).splitlines()]
    assert len(replies) == len(lines) + 1
    for reply in replies:
        assert set(reply) in ({"id", "result"}, {"id", "error"}), reply
    by_id = {}
    for reply in replies:
        if isinstance(reply["id"], str):
            by_id.setdefault(reply["id"], []).append(reply)
    for request_id, (name, assignment) in valid.items():
        want = functions[name].evaluate(assignment)
        assert by_id[request_id] == [{"id": request_id, "result": want}]
    (final,) = by_id["final"]
    assert final["result"]["queries"] >= len(valid)


def test_serve_cli_answers_and_exits(forest_path):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serve",
            forest_path,
            "--port",
            "0",
            "--max-requests",
            "2",
            "--batch-window",
            "0.001",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        banner = process.stdout.readline()
        assert "serving" in banner and "functions: f, g" in banner
        port = int(banner.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])

        async def client():
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            for i, assignment in enumerate([{"a": 1, "e": 0}, {"a": 0, "e": 1}]):
                writer.write(
                    json.dumps({"f": "g", "assignment": assignment, "id": i}).encode()
                    + b"\n"
                )
            await writer.drain()
            answers = [json.loads(await reader.readline()) for _ in range(2)]
            writer.close()
            return answers

        answers = asyncio.run(client())
        assert [a["result"] for a in sorted(answers, key=lambda a: a["id"])] == [
            True,
            False,
        ]
        assert process.wait(timeout=10) == 0
    finally:
        if process.poll() is None:
            process.kill()
        process.stdout.close()


@pytest.mark.timeout(60)
def test_serve_cli_sigterm_unlinks_segments(forest_path):
    """SIGTERM exits gracefully and leaves no shared-memory segments."""
    import signal as signal_mod

    from repro.par.shm import active_segments

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    before = set(active_segments())
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serve",
            forest_path,
            "--port",
            "0",
            "--workers",
            "2",
            "--batch-window",
            "0.001",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        banner = process.stdout.readline()
        assert "serving" in banner
        # Warm-up froze the forest into a segment the workers attach.
        assert set(active_segments()) - before
        process.send_signal(signal_mod.SIGTERM)
        assert process.wait(timeout=15) == 0
        assert set(active_segments()) - before == set()
    finally:
        if process.poll() is None:
            process.kill()
        process.stdout.close()


# ----------------------------------------------------------------------
# observability surfaces
# ----------------------------------------------------------------------


def test_pool_stats_expose_forest_counters_inline(forest_path):
    """An inline pool freezes the dump too, and sweeps it in-process."""
    with ForestPool(workers=0) as pool:
        pool.warm(forest_path)
        pool.evaluate(forest_path, "f", reference_batch(1, seed=3)[0])
        stats = pool.stats()
    assert (stats["forest_loads"], stats["shm_freezes"]) == (0, 1)
    assert stats["shm_attaches"] == 0
    assert stats["batches_dispatched"] == stats["shards_dispatched"] == 1


def test_pool_stats_expose_forest_counters_workers(forest_path):
    with ForestPool(workers=2) as pool:
        pool.warm(forest_path)
        pool.evaluate_batch(forest_path, "f", reference_batch(20, seed=11))
        stats = pool.stats()
    # One freeze in the dispatcher; warming attaches it once per worker.
    assert (stats["forest_loads"], stats["shm_freezes"]) == (0, 1)
    assert stats["shm_attaches"] == pool.workers == 2


def test_pool_shared_memory_attaches_instead_of_loading(forest_path):
    """Pools freeze the dump once; workers never decode it."""
    batch = reference_batch(60, seed=21)
    want = reference_results(forest_path, "f", batch)
    with ForestPool(workers=2, cache_size=0) as pool:
        assert pool.warm(forest_path) == ["f", "g"]
        assert pool.evaluate_batch(forest_path, "f", batch) == want
        stats = pool.stats()
    assert stats["forest_loads"] == 0
    assert stats["shm_attaches"] == 2
    assert stats["shm_freezes"] == 1
    assert stats["shared_segments"] == 1
    assert stats["shm_segment_bytes"] > 0


def test_pool_shared_memory_hot_reload(forest_path, tmp_path):
    """A dump rewritten on disk is re-frozen under a new generation."""
    import os
    import time as time_mod

    def dump(g_expr):
        manager = repro.open("bbdd", vars=NAMES)
        f = manager.add_expr("(a ^ b) | (c & d)")
        manager.dump({"f": f, "g": manager.add_expr(g_expr)}, forest_path)
        os.utime(forest_path)

    batch = reference_batch(40, seed=23)
    # Inline and with workers, without and with the default result
    # cache: cached answers of the old forest must not outlive its
    # segment.
    for workers in (0, 2):
        for options in ({"cache_size": 0}, {}):
            dump("a & ~e")
            with ForestPool(workers=workers, **options) as pool:
                pool.warm(forest_path)
                before = pool.evaluate_batch(forest_path, "g", batch)
                time_mod.sleep(0.01)
                dump("~(a & ~e)")  # inverted vs the fixture
                after = pool.evaluate_batch(forest_path, "g", batch)
                stats = pool.stats()
            assert after == [not value for value in before], (workers, options)
            assert stats["shm_freezes"] == 2
            assert stats["shared_segments"] == 1  # the stale segment was retired


@pytest.mark.timeout(60)
def test_pool_worker_death_respawns_and_retries(forest_path):
    """A worker killed mid-service is respawned; the batch retries once."""
    import time as time_mod

    batch = reference_batch(50, seed=27)
    want = reference_results(forest_path, "f", batch)
    with ForestPool(workers=2, cache_size=0, timeout=30) as pool:
        pool.warm(forest_path)
        assert pool.evaluate_batch(forest_path, "f", batch) == want
        # One span per batch reaches one worker: kill them all, so the
        # next batch meets a dead one whichever the crew picks.
        for process in pool._par._crew.processes:
            process.kill()
        time_mod.sleep(0.2)
        assert pool.evaluate_batch(forest_path, "f", batch) == want
        stats = pool.stats()
    assert stats["worker_restarts"] >= 1
    assert stats["batch_retries"] == 1


def test_pool_close_unlinks_all_segments(forest_path):
    """Closing a pool leaves no segments behind, inline or with workers."""
    from repro.par.shm import active_segments

    before = set(active_segments())
    for workers in (0, 1, 2):
        pool = ForestPool(workers=workers, cache_size=0)
        try:
            pool.warm(forest_path)
            assert set(active_segments()) - before, workers
        finally:
            pool.close()
        assert set(active_segments()) - before == set(), workers


class _Dumps:
    """Writes forests to one path, each under a fresh on-disk signature."""

    def __init__(self, path):
        self.path = path
        self.stamp = 10**18

    def write(self, data: bytes) -> None:
        staging = self.path + ".tmp"
        with open(staging, "wb") as out:
            out.write(data)
        # Explicit mtimes: coarse file-system clocks could otherwise
        # give two quick rewrites of equal size the same signature.
        self.stamp += 10**9
        os.utime(staging, ns=(self.stamp, self.stamp))
        os.replace(staging, self.path)

    def dump(self, expr: str, batch=()):
        """Dump ``f = expr`` over NAMES; returns ``f`` at every query."""
        from repro import io as rio

        manager = repro.open("bbdd", vars=NAMES)
        f = manager.add_expr(expr)
        self.write(rio.dumps(manager, {"f": f}))
        return f.evaluate_batch(list(batch))


@pytest.mark.parametrize("workers", [0, 1])
def test_pool_reloads_after_a_failed_load(tmp_path, monkeypatch, workers):
    """A dump that once failed to load is served again once rewritten."""
    import repro.io

    dumps = _Dumps(str(tmp_path / "flaky.bbdd"))
    decodes = []
    load = repro.io.load

    def counted(path):
        decodes.append(path)
        return load(path)

    monkeypatch.setattr(repro.io, "load", counted)
    query = {"a": 1, "b": 0, "c": 0, "d": 0, "e": 0}
    with ForestPool(workers=workers, timeout=20) as pool:
        dumps.dump("a & b")
        assert pool.evaluate(dumps.path, "f", query) is False
        dumps.write(b"garbage" * 10)
        for _ in range(2):
            with pytest.raises(ServeError, match="FormatError: .*bad magic"):
                pool.evaluate(dumps.path, "f", query)
        # The failure is remembered for its signature, not decoded again.
        assert len(decodes) == 2
        dumps.dump("a | b")
        assert pool.evaluate(dumps.path, "f", query) is True
        dumps.dump("a & b")
        assert pool.evaluate(dumps.path, "f", query) is False
        stats = pool.stats()
    assert (stats["shm_freezes"], stats["shared_segments"]) == (3, 1)


@pytest.mark.timeout(60)
@pytest.mark.parametrize("workers", [0, 1])
def test_pool_hot_reload_races_in_flight_batches(tmp_path, workers):
    """Batches racing a dump replaced every few ms finish on their segment."""
    import threading
    import time as time_mod

    switch = sys.getswitchinterval()
    rng = random.Random(0x4ACE)
    batch = [{name: rng.getrandbits(1) for name in NAMES} for _ in range(64)]
    dumps = _Dumps(str(tmp_path / "racy.bbdd"))
    blobs, answers = [], []
    for expr in ("(a ^ b) | (c & d)", "(a & ~e) ^ (b | c)"):
        answers.append(dumps.dump(expr, batch))
        with open(dumps.path, "rb") as stored:
            blobs.append(stored.read())
    outcomes, errors = [], []
    deadline = time_mod.monotonic() + 2.0
    # Frequent thread switches widen the windows between resolving a
    # segment, sweeping it and releasing it.
    sys.setswitchinterval(1e-5)
    try:
        with ForestPool(workers=workers, cache_size=0, timeout=20) as pool:

            def client():
                while time_mod.monotonic() < deadline:
                    try:
                        outcomes.append(pool.evaluate_batch(dumps.path, "f", batch))
                    except Exception as exc:  # noqa: BLE001 - asserted below
                        errors.append(exc)

            threads = [threading.Thread(target=client) for _ in range(3)]
            for thread in threads:
                thread.start()
            flips = 0
            while time_mod.monotonic() < deadline:
                flips += 1
                dumps.write(blobs[flips % 2])
                time_mod.sleep(0.003)
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            stats = pool.stats()
    finally:
        sys.setswitchinterval(switch)
    assert errors == []
    assert outcomes and all(outcome in answers for outcome in outcomes)
    assert stats["shm_freezes"] > 2  # the pool really reloaded


@pytest.mark.parametrize("workers", [0, 1])
def test_pool_serves_from_the_manager_without_shared_memory(
    forest_path, monkeypatch, workers
):
    """Where freezing fails, the dispatcher answers from the loaded manager."""
    from repro.par import shm

    monkeypatch.setattr(shm, "_shared_memory", None)
    batch = reference_batch(50, seed=41)
    weights = {"a": 0.25}
    want_p, want_m = wmc_reference(forest_path, "f", weights)
    with ForestPool(workers=workers, timeout=20) as pool:
        assert pool.warm(forest_path) == ["f", "g"]
        assert pool.evaluate_batch(forest_path, "f", batch) == (
            reference_results(forest_path, "f", batch)
        )
        assert pool.p_one(forest_path, "f", weights) == pytest.approx(want_p)
        assert pool.marginals(forest_path, "f", weights) == pytest.approx(want_m)
        with pytest.raises(ServeError, match="no function 'nope'"):
            pool.evaluate(forest_path, "nope", {})
        stats = pool.stats()
    assert stats["forest_loads"] == 1
    assert (stats["shm_freezes"], stats["shared_segments"]) == (0, 0)


def test_server_metrics_snapshot_and_op(forest_path):
    from repro import obs

    batch = reference_batch(60, seed=5)

    async def scenario():
        pool = ForestPool(workers=0)
        server = BatchingServer(pool, forest_path, batch_window=0.005)
        server.warm()
        await asyncio.gather(
            *(server.query("f", assignment) for assignment in batch)
        )
        tcp = await serve_tcp(server, "127.0.0.1", 0)
        port = tcp.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(json.dumps({"op": "metrics", "id": 1}).encode() + b"\n")
        await writer.drain()
        reply = json.loads(await reader.readline())
        writer.close()
        tcp.close()
        await tcp.wait_closed()
        snap = server.metrics_snapshot()
        pool.close()
        return reply, snap

    reply, snap = asyncio.run(scenario())
    assert reply["id"] == 1
    remote = reply["result"]
    for payload in (remote, snap):
        latency = payload["repro_serve_request_latency_seconds"]["samples"][0]
        assert latency["count"] >= len(batch)
        assert payload["repro_serve_shm_freezes_total"]["samples"][0]["value"] >= 1
    text = obs.render_prometheus(snap)
    assert "repro_serve_request_latency_seconds_bucket" in text
    assert "repro_xmem_spill_bytes_total" in text


def test_serve_cli_metrics_port(forest_path):
    import urllib.request

    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serve",
            forest_path,
            "--port",
            "0",
            "--metrics-port",
            "0",
            "--max-requests",
            "2",
            "--batch-window",
            "0.001",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        banner = process.stdout.readline()
        assert "serving" in banner
        port = int(banner.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
        metrics_line = process.stdout.readline()
        assert metrics_line.startswith("metrics on http://")
        metrics_url = metrics_line.split(" on ", 1)[1].strip()

        # Scrape before the queries: with --max-requests 2 the server
        # exits as soon as both answers are flushed, taking the exporter
        # with it.  Catalog pre-declaration guarantees every family —
        # including the latency histogram — renders even on a fresh
        # process, so the acceptance assertions hold on this scrape.
        body = urllib.request.urlopen(metrics_url, timeout=5).read().decode()

        async def client():
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            for i, assignment in enumerate([{"a": 1, "e": 0}, {"a": 0, "e": 1}]):
                writer.write(
                    json.dumps({"f": "g", "assignment": assignment, "id": i}).encode()
                    + b"\n"
                )
            await writer.drain()
            answers = [json.loads(await reader.readline()) for _ in range(2)]
            writer.close()
            return answers

        answers = asyncio.run(client())
        assert {a["result"] for a in answers} == {True, False}
        # The acceptance surface: serve latency histogram, manager
        # cache counters and xmem spill bytes all render as text 0.0.4.
        assert "repro_serve_request_latency_seconds_bucket" in body
        assert "# TYPE repro_manager_computed_hits_total counter" in body
        assert "# TYPE repro_xmem_spill_bytes_total counter" in body
        assert process.wait(timeout=10) == 0
    finally:
        if process.poll() is None:
            process.kill()
        process.stdout.close()


# ----------------------------------------------------------------------
# weighted-counting query class and percentile validation
# ----------------------------------------------------------------------


def test_latency_percentile_rejects_out_of_range():
    """q outside 0..100 raises instead of silently extrapolating."""

    async def scenario():
        pool = ForestPool(workers=0)
        server = BatchingServer(pool, "unused.bbdd")
        for bad in (-1, -0.001, 100.5, 101, 1e6):
            with pytest.raises(ServeError, match="0..100"):
                server.latency_percentile(bad)
        # ...while boundary and interior values stay accepted (the
        # latency histogram is process-global, so earlier tests may
        # already have recorded traffic into it).
        for good in (0, 50, 100):
            assert server.latency_percentile(good) >= 0.0
        pool.close()
        return True

    assert asyncio.run(scenario())


def test_stats_percentiles_still_work_after_traffic(forest_path):
    """stats() keeps calling the validated percentile path (50/99)."""

    async def scenario():
        pool = ForestPool(workers=0)
        server = BatchingServer(pool, forest_path, batch_window=0.001)
        await asyncio.gather(
            *(server.query("f", a) for a in reference_batch(20, seed=3))
        )
        stats = server.stats()
        pool.close()
        return stats

    stats = asyncio.run(scenario())
    assert stats["p50_latency_s"] > 0
    assert stats["p99_latency_s"] >= stats["p50_latency_s"]


def wmc_reference(forest, name, weights=None, variables=None):
    """Float-mode p_one/marginals straight off the stored function."""
    from repro import io as rio

    _manager, functions = rio.load(forest)
    f = functions[name]
    return f.p_one(weights, exact=False), f.marginals(
        weights, variables, exact=False
    )


def test_pool_p_one_and_marginals_inline(forest_path):
    weights = {"a": 0.25, "c": 0.75}
    want_p, want_m = wmc_reference(forest_path, "f", weights)
    with ForestPool(workers=0) as pool:
        assert pool.p_one(forest_path, "f", weights) == pytest.approx(want_p)
        got = pool.marginals(forest_path, "f", weights)
        assert got == pytest.approx(want_m)
        only = pool.marginals(forest_path, "f", weights, ["a"])
        assert set(only) == {"a"}
        with pytest.raises(ServeError, match="no function"):
            pool.p_one(forest_path, "nope")


@pytest.mark.timeout(60)
def test_pool_p_one_and_marginals_workers(forest_path):
    """Worker dispatch — zero-copy via the shared segment when available."""
    want_p, want_m = wmc_reference(forest_path, "f")
    with ForestPool(workers=2, timeout=20) as pool:
        pool.warm(forest_path)
        assert pool.p_one(forest_path, "f") == pytest.approx(want_p)
        assert pool.marginals(forest_path, "f") == pytest.approx(want_m)
        with pytest.raises(ServeError):
            pool.p_one(forest_path, "nope")


def test_tcp_p_one_and_marginals_ops(forest_path):
    weights = {"a": 0.125}
    want_p, want_m = wmc_reference(forest_path, "f", weights)

    async def scenario():
        pool = ForestPool(workers=0)
        server = BatchingServer(pool, forest_path, batch_window=0.001)
        tcp = await serve_tcp(server, "127.0.0.1", 0)
        port = tcp.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        requests = [
            {"op": "p_one", "f": "f", "weights": weights, "id": 1},
            {"op": "marginals", "f": "f", "weights": weights, "id": 2},
            {"op": "p_one", "f": "f", "id": 3},
            {"op": "p_one", "f": "missing", "id": 4},
        ]
        for request in requests:
            writer.write(json.dumps(request).encode() + b"\n")
        await writer.drain()
        responses = [json.loads(await reader.readline()) for _ in requests]
        writer.close()
        tcp.close()
        await tcp.wait_closed()
        pool.close()
        return responses

    by_id = {r["id"]: r for r in asyncio.run(scenario())}
    assert by_id[1]["result"] == pytest.approx(want_p)
    assert by_id[2]["result"] == pytest.approx(want_m)
    assert by_id[3]["result"] == pytest.approx(
        wmc_reference(forest_path, "f")[0]
    )
    assert "no function 'missing'" in by_id[4]["error"]
