"""The repro.par subsystem: shared-memory forests and parallel sweeps.

Covers the freeze → attach → query contract against the in-process
manager as oracle (all backends, hypothesis-driven), the segment
lifecycle error surface, true cross-process attachment, the
:class:`~repro.par.pool.ParallelPool` round trip including
worker-death respawn, and the no-leaked-segments guarantee.
"""

import json
import multiprocessing
import os
import random
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from test_api_protocol import ALL_BACKENDS
from test_expr_api import expressions
from repro.par import (
    ParallelPool,
    ParError,
    ShmForest,
    active_segments,
    parallel_sat_count,
    shm_available,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="multiprocessing.shared_memory unavailable"
)

_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NAMES = ["a", "b", "c", "d", "e", "f"]

@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test must unlink the segments it created."""
    before = set(active_segments())
    yield
    assert set(active_segments()) - before == set()


def all_assignments(names):
    for bits in range(1 << len(names)):
        yield {name: (bits >> i) & 1 for i, name in enumerate(names)}


def build(backend, expr="(a ^ b) | (c & d) | (e & ~f)"):
    manager = repro.open(backend, vars=NAMES)
    return manager, manager.add_expr(expr)


def enumerated_count(f, queries):
    """Satisfying assignments among ``queries`` by looped ``evaluate``."""
    return sum(f.evaluate(query) for query in queries)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_frozen_forest_matches_manager(backend):
    manager, f = build(backend)
    g = manager.add_expr("~a | (b ^ c)")
    queries = list(all_assignments(NAMES))
    rng = random.Random(5)
    cubes = [
        {name: rng.getrandbits(1) for name in rng.sample(NAMES, rng.randrange(len(NAMES)))}
        for _ in range(64)
    ]
    with ShmForest.freeze(manager, {"f": f, "g": g}) as forest:
        assert forest.kind == backend
        assert sorted(forest.functions) == ["f", "g"]
        assert forest.num_vars == len(NAMES)
        assert forest.node_count > 0
        for name, func in (("f", f), ("g", g)):
            assert forest.evaluate_batch(name, queries) == func.evaluate_batch(queries)
            assert forest.satisfiable_batch(name, cubes) == func.satisfiable_batch(cubes)
            count = enumerated_count(func, queries)
            assert forest.sat_count(name) == func.sat_count() == count
            named_support = {forest.var_name(i) for i in forest.support(name)}
            assert named_support == func.support()


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_frozen_constants_and_complements(backend):
    manager = repro.open(backend, vars=["x", "y"])
    t, f_ = manager.true(), manager.false()
    g = ~(manager.var("x") & manager.var("y"))
    queries = list(all_assignments(["x", "y"]))
    with ShmForest.freeze(manager, {"t": t, "f": f_, "g": g}) as forest:
        assert forest.evaluate_batch("t", queries) == [True] * 4
        assert forest.evaluate_batch("f", queries) == [False] * 4
        assert forest.evaluate_batch("g", queries) == g.evaluate_batch(queries)
        assert forest.sat_count("t") == 4
        assert forest.sat_count("f") == 0
        assert forest.sat_count("g") == 3


@pytest.mark.xfail(
    strict=True,
    reason="a frozen forest's sweeps read every row of its segment (ROADMAP item 1)",
)
@pytest.mark.parametrize("backend", ["bbdd", "bdd"])
def test_small_root_sweeps_read_only_its_cone(backend, monkeypatch):
    """A small function of a big frozen forest sweeps its cone, not the forest.

    Known failure: the sweeps read every row of the shared arrays.  The
    cones of the coder's outputs reach the literals at the bottom of
    the forest, so a sweep bounded by a root's slot span would still
    read almost every row.
    """
    from repro.api.base import Columns
    from repro.circuits import iscas
    from repro.network.build import build as build_network

    manager, functions = build_network(iscas.c1908(data_width=8), backend=backend)
    name = min(sorted(functions), key=lambda n: functions[n].node_count())
    f = functions[name]
    forest = dict(functions, neg=~f)
    support = sorted(f.support())
    rng = random.Random(7)
    points = [{var: rng.getrandbits(1) for var in support} for _ in range(16)]
    cubes = [{var: rng.getrandbits(1) for var in rng.sample(support, 3)} for _ in range(16)]
    weights = {var: rng.randrange(1, 16, 2) / 16 for var in support}
    queries = {
        "evaluate": lambda func: func.evaluate_batch(points),
        "cubes": lambda func: func.satisfiable_batch(cubes),
        "p_one": lambda func: func.p_one(weights),
        "marginals": lambda func: func.marginals(weights, exact=False),
    }
    wants = {
        (root, query): ask(func)
        for root, func in ((name, f), ("neg", ~f))
        for query, ask in queries.items()
    }
    read = []
    rows = Columns.rows

    def counting_rows(self):
        for row in rows(self):
            read.append(row[0])
            yield row

    monkeypatch.setattr(Columns, "rows", counting_rows)
    with ShmForest.freeze(manager, forest) as frozen:
        assert frozen.node_count > 8 * f.node_count()
        for (root, query), want in wants.items():
            read.clear()
            got = {
                "evaluate": lambda: frozen.evaluate_batch(root, points),
                "cubes": lambda: frozen.satisfiable_batch(root, cubes),
                "p_one": lambda: frozen.p_one(root, weights),
                "marginals": lambda: frozen.marginals(root, weights, exact=False),
            }[query]()
            assert got == want, (root, query)
            assert 0 < len(read) <= f.node_count() + 2, (root, query)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@settings(**_SETTINGS)
@given(data=st.data())
def test_frozen_forest_equivalence_property(backend, data):
    expr = data.draw(expressions(tuple(NAMES[:4])))
    manager = repro.open(backend, vars=NAMES[:4])
    f = manager.add_expr(expr)
    queries = list(all_assignments(NAMES[:4]))
    with ShmForest.freeze(manager, {"f": f}) as forest:
        assert forest.evaluate_batch("f", queries) == f.evaluate_batch(queries)
        count = enumerated_count(f, queries)
        assert forest.sat_count("f") == f.sat_count() == count


def test_sequential_fallback_when_freeze_unavailable(monkeypatch):
    """Without ``multiprocessing.shared_memory`` the surface still answers."""
    from repro.par import shm

    manager, f = build("bbdd")
    queries = list(all_assignments(NAMES))
    want = f.evaluate_batch(queries)
    monkeypatch.setattr(shm, "_shared_memory", None)
    with pytest.raises(ParError, match="shared_memory is unavailable"):
        ShmForest.freeze(manager, {"f": f})
    # The workers= protocol surface falls back without raising.
    assert f.evaluate_batch(queries, workers=2) == want
    assert f.satisfiable_batch([{"a": 1}], workers=2) == f.satisfiable_batch([{"a": 1}])
    assert parallel_sat_count({"f": f}) == {"f": f.sat_count()}


def test_segment_lifecycle_errors():
    manager, f = build("bbdd")
    forest = ShmForest.freeze(manager, {"f": f})
    name = forest.name
    attached = ShmForest.attach(name)
    assert attached.evaluate("f", {n: 1 for n in NAMES}) == f.evaluate(
        {n: 1 for n in NAMES}
    )
    attached.close()
    attached.close()  # double close is fine
    with pytest.raises(ParError, match="closed"):
        attached.evaluate("f", {n: 1 for n in NAMES})
    forest.unlink()
    with pytest.raises(ParError, match="no shared forest segment"):
        ShmForest.attach(name)
    with pytest.raises(ParError):
        forest.unlink()  # double unlink reports, not crashes
    forest.close()


def test_attach_rejects_header_larger_than_segment():
    """A forged header claiming more slots than the segment holds."""
    from multiprocessing import shared_memory

    from repro.par.shm import _HEADER, _MAGIC, SEGMENT_PREFIX

    meta = json.dumps(
        {"kind": "bbdd", "generation": 0, "names": ["a"], "order": [0],
         "roots": {"f": 2}, "supports": {"f": [0]}}
    ).encode()
    shm = shared_memory.SharedMemory(
        create=True, size=4096, name=f"{SEGMENT_PREFIX}forged-{os.getpid()}"
    )
    try:
        _HEADER.pack_into(shm.buf, 0, _MAGIC, len(meta), 1_000_000)
        shm.buf[_HEADER.size:_HEADER.size + len(meta)] = meta
        with pytest.raises(ParError, match="truncated"):
            ShmForest.attach(shm.name)
    finally:
        shm.close()
        shm.unlink()


def test_freeze_rejects_bad_functions():
    manager, f = build("bbdd")
    other = repro.open("bbdd", vars=NAMES)
    with pytest.raises(ParError):
        ShmForest.freeze(manager, {})
    with pytest.raises(ParError):
        ShmForest.freeze(manager, {"g": other.add_expr("a")})


def _attach_and_evaluate(segment, queries, queue):
    from repro.par import ShmForest

    forest = ShmForest.attach(segment)
    try:
        queue.put(forest.evaluate_batch("f", queries))
    finally:
        forest.close()


@pytest.mark.timeout(60)
def test_attach_from_subprocess():
    """A separate process sees the same bits through the segment."""
    manager, f = build("bbdd")
    queries = list(all_assignments(NAMES))
    want = f.evaluate_batch(queries)
    with ShmForest.freeze(manager, {"f": f}) as forest:
        ctx = multiprocessing.get_context()
        queue = ctx.Queue()
        process = ctx.Process(
            target=_attach_and_evaluate, args=(forest.name, queries, queue)
        )
        process.start()
        got = queue.get(timeout=30)
        process.join(timeout=10)
    assert got == want
    assert process.exitcode == 0


@pytest.mark.timeout(120)
def test_parallel_pool_round_trip():
    manager, f = build("bbdd")
    g = manager.add_expr("a <-> (b & e)")
    rng = random.Random(11)
    queries = [{n: rng.getrandbits(1) for n in NAMES} for _ in range(500)]
    cubes = [
        {n: rng.getrandbits(1) for n in rng.sample(NAMES, rng.randrange(len(NAMES)))}
        for _ in range(200)
    ]
    forest = ShmForest.freeze(manager, {"f": f, "g": g})
    try:
        with ParallelPool(workers=2, timeout=60) as pool:
            assert sorted(pool.warm(forest)) == ["f", "g"]
            assert pool.evaluate_batch(forest, "f", queries) == f.evaluate_batch(queries)
            many = pool.evaluate_many(forest, ["f", "g"], queries)
            assert many["g"] == g.evaluate_batch(queries)
            assert pool.satisfiable_batch(forest, "f", cubes) == f.satisfiable_batch(cubes)
            assert pool.sat_count(forest, ["f", "g"]) == {
                "f": f.sat_count(),
                "g": g.sat_count(),
            }
            stats = pool.stats()
            assert stats["workers"] == 2
            assert stats["batches"] >= 3
            assert stats["tasks_dispatched"] >= stats["batches"]
            pool.detach(forest)
    finally:
        forest.unlink()
        forest.close()


def test_parallel_pool_inline_mode():
    """``workers=0`` serves the same answers without subprocesses."""
    manager, f = build("bbdd")
    queries = list(all_assignments(NAMES))
    forest = ShmForest.freeze(manager, {"f": f})
    try:
        with ParallelPool(workers=0) as pool:
            assert pool.workers == 0
            assert pool.evaluate_batch(forest, "f", queries) == f.evaluate_batch(queries)
            assert pool.sat_count(forest, ["f"]) == {"f": f.sat_count()}
    finally:
        forest.unlink()
        forest.close()


@pytest.mark.timeout(120)
def test_parallel_pool_worker_death_respawns():
    manager, f = build("bbdd")
    rng = random.Random(13)
    # Wider than 2 x 1024 lanes: one span per worker, so the killed
    # worker receives a task of the second batch.
    queries = [{n: rng.getrandbits(1) for n in NAMES} for _ in range(2500)]
    want = f.evaluate_batch(queries)
    forest = ShmForest.freeze(manager, {"f": f})
    try:
        with ParallelPool(workers=2, timeout=60) as pool:
            pool.warm(forest)
            assert pool.evaluate_batch(forest, "f", queries) == want
            pool._crew.processes[0].kill()
            time.sleep(0.2)
            assert pool.evaluate_batch(forest, "f", queries) == want
            assert pool.worker_restarts >= 1
    finally:
        forest.unlink()
        forest.close()


def test_one_shot_helpers_and_workers_kwarg():
    manager, f = build("bbdd")
    queries = list(all_assignments(NAMES))
    want = f.evaluate_batch(queries)
    assert f.evaluate_batch(queries, workers=2) == want
    assert parallel_sat_count({"f": f}, workers=2) == {"f": f.sat_count()}
