"""Experiment drivers reproducing the paper's tables and figures.

* :mod:`repro.harness.table1` — Table I: BBDD vs. baseline BDD package
  over the MCNC suite (node counts, build and sift times).
* :mod:`repro.harness.table2` — Table II: datapath synthesis case study.
* :mod:`repro.harness.figures` — Fig. 1 (biconditional expansion
  semantics) and Fig. 2 (CVO swap) validation/micro-benchmarks.
* :mod:`repro.harness.bulkeval` — looped vs batched (levelized-sweep)
  query throughput on a Table I circuit, any backend.
* :mod:`repro.harness.report` — plain-text table rendering with
  paper-vs-measured columns.

``run_table1``, ``run_table2`` and ``run_bulkeval`` are imported on
first use, so ``python -m repro.harness.table1`` (or ``table2``,
``bulkeval``) runs its module once, as ``__main__``, instead of also
importing it with the package.
"""

from importlib import import_module

_RUNNERS = {
    "run_table1": "repro.harness.table1",
    "run_table2": "repro.harness.table2",
    "run_bulkeval": "repro.harness.bulkeval",
}

__all__ = list(_RUNNERS)


def __getattr__(name: str):
    if name in _RUNNERS:
        return getattr(import_module(_RUNNERS[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
