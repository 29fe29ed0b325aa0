"""Computed table: the operation cache of Algorithm 1 (Sec. IV-A2/3).

Previously performed Boolean operations ``{f, g, op} -> result`` are
stored for later reuse.  Keys and values are packed ints of the flat
store: an apply entry is ``(f_index, g_index, op) -> signed_result``,
and the derived-op families (ITE/restrict/quantify) prefix a tag int
so the key spaces can never collide.

The table also keeps one more kind of entry: the compiled query form
(:class:`~repro.api.base.Columns`) of the last root a batch query or
count compiled.  It references node slots just like the apply entries,
so it lives exactly as long as they do and every :meth:`clear` drops
it; it sits outside :meth:`lookup`, whose counters stay apply-cache
traffic.

Two backends remain: the dict-backed cache (the default — packed int
keys hash natively) and :class:`DisabledComputedTable` for ablation
runs, which keeps nothing (so every query compiles its root).  The
paper's direct-mapped Cantor-hashed array went away with the Cantor
hash machinery.
"""

from __future__ import annotations


class DictComputedTable:
    """Unbounded dict-backed operation cache (cleared at GC / reorder)."""

    __slots__ = ("_table", "_compiled", "lookups", "hits")

    def __init__(self) -> None:
        self._table: dict = {}
        self._compiled: tuple = (None, None)
        self.lookups = 0
        self.hits = 0

    def lookup(self, key: tuple):
        self.lookups += 1
        entry = self._table.get(key)
        if entry is not None:
            self.hits += 1
        return entry

    def insert(self, key: tuple, value) -> None:
        self._table[key] = value

    def compiled(self, key, build):
        """The compiled columns kept under ``key``, else ``build()``'s.

        One entry: a miss replaces whatever was kept before.
        """
        kept_key, columns = self._compiled
        if columns is None or kept_key != key:
            columns = build()
            self._compiled = (key, columns)
        return columns

    def clear(self) -> None:
        self._table.clear()
        self._compiled = (None, None)

    def __len__(self) -> int:
        return len(self._table)

    def stats(self) -> dict:
        return {
            "backend": "dict",
            "entries": len(self._table),
            "lookups": self.lookups,
            "hits": self.hits,
        }


class DisabledComputedTable:
    """Null cache used by the ablation benches (computed table off)."""

    __slots__ = ("lookups", "hits")

    def __init__(self) -> None:
        self.lookups = 0
        self.hits = 0

    def lookup(self, key: tuple):
        self.lookups += 1
        return None

    def insert(self, key: tuple, value) -> None:
        pass

    def compiled(self, key, build):
        return build()

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def stats(self) -> dict:
        return {"backend": "disabled", "entries": 0, "lookups": self.lookups, "hits": 0}


def make_computed_table(backend: str = "dict"):
    """Factory used by the managers: ``"dict"`` or ``"disabled"``."""
    if backend == "dict":
        return DictComputedTable()
    if backend == "disabled":
        return DisabledComputedTable()
    raise ValueError(f"unknown computed-table backend: {backend!r}")
