"""The unique table: strong canonical form storage (Sec. IV-A1).

Every row of the node store has a distinct entry keyed by its
strong-canonical tuple ``(pv, sv, neq_edge, eq_edge)``: the children
are signed int edges of the flat store, so the ``!=``-attr rides on
the sign.  A BBDD literal is keyed ``(pv, SV_ONE, -1, 1)`` and a BDD
node ``(var, SV_ONE, else, then)``.  A lookup before each insertion
guarantees that structurally equal nodes get the *same index*,
reducing equivalence tests to integer comparisons.

:class:`UniqueTable` is a thin stats-keeping shell around the built-in
dict.  The paper's bucket array (nested Cantor pairings + adaptive
rehashing) was retired with the integer-coded store: packed int-tuple
keys hash natively faster than any pure-Python bucket scheme.

The protocol: ``lookup``, ``insert``, ``delete``,
``__len__``, ``__contains__``, ``values``, ``clear`` and ``stats``.
Hot paths (both managers' ``_make``) bypass the method layer and work
on the raw ``_table`` dict directly, settling the ``_lookups``/``_hits``
counters themselves.
"""

from __future__ import annotations

from typing import Iterable


class UniqueTable:
    """Unique table backed by the built-in dict (packed int-tuple keys)."""

    __slots__ = ("_table", "_lookups", "_hits")

    def __init__(self) -> None:
        self._table: dict = {}
        self._lookups = 0
        self._hits = 0

    def lookup(self, key: tuple):
        self._lookups += 1
        node = self._table.get(key)
        if node is not None:
            self._hits += 1
        return node

    def insert(self, key: tuple, node) -> None:
        self._table[key] = node

    def delete(self, key: tuple) -> None:
        del self._table[key]

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, key: tuple) -> bool:
        return key in self._table

    def values(self) -> Iterable:
        return self._table.values()

    def clear(self) -> None:
        self._table.clear()

    def stats(self) -> dict:
        return {
            "backend": "dict",
            "entries": len(self._table),
            "lookups": self._lookups,
            "hits": self._hits,
        }

