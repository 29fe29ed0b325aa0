"""Baseline ROBDD package — the paper's CUDD comparator substitute.

A from-scratch Reduced Ordered Binary Decision Diagram package with the
same algorithmic content as a state-of-the-art BDD package (Brace/Rudell/
Bryant): complement edges (on else-edges and external edges, then-edges
regular), a strong-canonical unique table, a computed table, the
iterative apply over Shannon expansions, reference-counted garbage
collection and Rudell's sifting with in-place level swaps.

Its nodes live in the BBDD package's node store
(:class:`repro.core.store.NodeStore`): a node is the single-variable row
``(var, SV_ONE, else, then)`` on signed-int edges, with the store's
cascading reference counts, automatic GC, ``new_var`` and checkers.
This package adds only the Shannon expansion: ``_make``, the apply, the
derived operations (:mod:`repro.bdd.ops`) and the level swap
(:mod:`repro.bdd.reorder`).

It mirrors the BBDD package API (``BDDManager`` / ``BDDFunction``), so the
Table I harness drives both packages identically.
"""

from repro.bdd.manager import BDDManager
from repro.bdd.function import BDDFunction

__all__ = ["BDDManager", "BDDFunction"]
