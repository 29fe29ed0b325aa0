"""Unique-table and computed-table backend tests."""

import pytest

from repro.core.computed_table import make_computed_table
from repro.core.unique_table import UniqueTable


@pytest.mark.parametrize("backend", ["dict"])
def test_unique_table_protocol(backend):
    table = UniqueTable()
    assert table.stats()["backend"] == backend
    key = (1, 2, 3, False, 4)
    assert table.lookup(key) is None
    table.insert(key, "node")
    assert table.lookup(key) == "node"
    assert len(table) == 1
    assert list(table.values()) == ["node"]
    table.delete(key)
    assert table.lookup(key) is None
    assert len(table) == 0
    with pytest.raises(KeyError):
        table.delete(key)


@pytest.mark.parametrize("backend", ["dict"])
def test_unique_table_many_entries(backend):
    table = UniqueTable()
    keys = [(i, i + 1, i * 7, bool(i & 1), i * 3) for i in range(3000)]
    for i, key in enumerate(keys):
        table.insert(key, i)
    assert len(table) == 3000
    for i, key in enumerate(keys):
        assert table.lookup(key) == i
    for key in keys[::2]:
        table.delete(key)
    assert len(table) == 1500
    assert table.lookup(keys[0]) is None
    assert table.lookup(keys[1]) == 1
    stats = table.stats()
    assert (stats["backend"], stats["entries"]) == (backend, 1500)


@pytest.mark.parametrize("backend", ["dict"])
def test_computed_table_roundtrip(backend):
    cache = make_computed_table(backend)
    assert cache.lookup((1, 2, 8)) is None
    cache.insert((1, 2, 8), "result")
    assert cache.lookup((1, 2, 8)) == "result"
    cache.clear()
    assert cache.lookup((1, 2, 8)) is None
    assert cache.stats()["backend"] == backend


def test_disabled_computed_table():
    cache = make_computed_table("disabled")
    cache.insert((1, 2, 3), "x")
    assert cache.lookup((1, 2, 3)) is None
    assert len(cache) == 0
