"""Parity towers (XOR chains) on the plain managers.

BBDD couples absorb the XOR chains that a chain-reduced diagram would
collapse into span nodes, so every backend stores a tower as ordinary
nodes.  These tests pin the compiled query paths on the tower shapes of
:data:`test_wmc.TOWER_BUILDERS`:

* Sweeps: ``evaluate_batch``/``satisfiable_batch`` match the plain
  one-assignment-at-a-time answers bit for bit.
* Shared memory: a frozen :class:`~repro.par.shm.ShmForest` is built
  from four columns per slot and answers like the manager.
"""

import random

import pytest

import repro
from repro.par.shm import ShmForest, shm_available

from test_wmc import TOWER_BUILDERS, TOWER_NAMES

BACKENDS = ["bbdd", "bdd"]
NAMES = TOWER_NAMES
N = len(NAMES)


def _all_assignments():
    return [
        {NAMES[i]: bool((m >> i) & 1) for i in range(N)} for m in range(1 << N)
    ]


def _random_cubes(count=120, seed=0xC0DE):
    rng = random.Random(seed)
    cubes = []
    for _ in range(count):
        chosen = rng.sample(NAMES, rng.randrange(0, N + 1))
        cubes.append({name: bool(rng.getrandbits(1)) for name in chosen})
    return cubes


def _cube_oracle(mask, cube):
    """Is some minterm of ``mask`` (over ``NAMES``) inside ``cube``?"""
    bits = {NAMES.index(name): value for name, value in cube.items()}
    return any(
        (mask >> m) & 1 and all(bool((m >> i) & 1) == v for i, v in bits.items())
        for m in range(1 << N)
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("label", sorted(TOWER_BUILDERS))
def test_batch_sweeps_match_plain(backend, label):
    """The cohort and cube sweeps equal the per-assignment walk."""
    manager = repro.open(backend, vars=NAMES)
    f = TOWER_BUILDERS[label](manager)
    # truth_mask walks the diagram once per assignment, with no sweep.
    mask = f.truth_mask(NAMES)
    assert f.evaluate_batch(_all_assignments()) == [
        bool((mask >> m) & 1) for m in range(1 << N)
    ]
    cubes = _random_cubes()
    assert f.satisfiable_batch(cubes) == [_cube_oracle(mask, cube) for cube in cubes]


@pytest.mark.skipif(not shm_available(), reason="shared memory unavailable")
def test_shm_forest_plain_segments_stay_four_column():
    """A freeze is four columns per slot, and the segment still attaches."""
    manager = repro.open("bbdd", vars=NAMES)
    f = TOWER_BUILDERS["mixed"](manager)
    export = manager.freeze_export([("f", f.edge)])
    for _base, *columns in export.blocks:
        assert len(columns) == 4
        assert len({len(column) for column in columns}) == 1
    assignments = _all_assignments()
    cubes = _random_cubes(count=80, seed=0xBEEF)
    with ShmForest.freeze(manager, {"f": f}) as frozen:
        attached = ShmForest.attach(frozen.name)
        try:
            assert attached.node_count == frozen.node_count
            assert attached.evaluate_batch("f", assignments) == f.evaluate_batch(
                assignments
            )
            assert attached.satisfiable_batch("f", cubes) == f.satisfiable_batch(cubes)
            assert attached.sat_count("f") == f.sat_count()
        finally:
            attached.close()
