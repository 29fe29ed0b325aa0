"""repro.xmem — the external-memory levelized BBDD backend.

Represents every function as a *levelized node file* (the record shape
of the :mod:`repro.io` binary format, kept live and spillable to disk)
and implements manipulation as level-by-level streaming sweeps in the
style of Sølvsten & van de Pol's external-memory BDD package: a
top-down product-request pass whose per-level queues overflow to sorted
varint runs (:mod:`repro.xmem.runs`), then a bottom-up reduce pass
applying the paper's R1/R2/R4 rules per level
(:mod:`repro.xmem.builder`).  A configurable ``node_budget`` bounds
resident node records; completed representations spill
least-recently-used and reload transparently.

Open it through the unified front end::

    manager = repro.open(backend="xmem", vars=["a", "b"], node_budget=100_000)

The manager implements the :class:`repro.api.base.DDManager` edge
protocol, so the whole shared function surface (operators, ``ite``,
``restrict``/``compose``/quantification, ``let``, ``sat_one``,
``add_expr``/``to_expr``, ``dump``/``load``) works unchanged; dumps are
standard ``.bbdd`` containers written from the same rows as every other
backend's, and loads replay rows into one builder.
"""

from repro.xmem.builder import Builder
from repro.xmem.manager import XmemFunction, XmemManager, XmemNode, open_xmem
from repro.xmem.rep import Levelized, SpillStore
from repro.xmem.runs import SortedRunSpiller

__all__ = [
    "XmemManager",
    "XmemFunction",
    "XmemNode",
    "open_xmem",
    "Levelized",
    "SpillStore",
    "Builder",
    "SortedRunSpiller",
]
