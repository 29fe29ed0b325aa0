"""repro — reproduction of "An Efficient Manipulation Package for
Biconditional Binary Decision Diagrams" (Amaru, Gaillardon, De Micheli,
DATE 2014).

Public entry points:

* :func:`repro.open` — the unified, backend-agnostic front end:
  ``repro.open(backend="bbdd", vars=["a", "b"])`` returns a manager
  implementing the :class:`repro.api.DDManager` protocol
  (``add_expr``, ``let``, ``ite``/``restrict``/``compose``/
  quantification, ``dump``/``load``) on any registered backend.
* :class:`repro.core.BBDDManager` / :class:`repro.core.Function` — the
  BBDD manipulation package (the paper's contribution).
* :class:`repro.bdd.BDDManager` — the baseline ROBDD package (the paper's
  CUDD comparator substitute), at full API parity through the protocol.
* :mod:`repro.serve` — the batched query service: vectorized bulk
  evaluation (``Function.evaluate_batch``), a multi-process forest
  pool, and an asyncio server coalescing single queries into levelized
  sweeps (``python -m repro.serve``).
* :mod:`repro.par` — shared-memory parallelism: freeze a forest into a
  zero-copy :class:`repro.par.ShmForest` segment, sweep batches across
  a persistent multi-process :class:`repro.par.ParallelPool`, or pass
  ``workers=`` to ``evaluate_batch``/``satisfiable_batch``.
* :mod:`repro.network` — combinational logic networks with BLIF/Verilog
  frontends.
* :mod:`repro.circuits` — MCNC/ISCAS/datapath benchmark generators.
* :mod:`repro.synth` — the datapath synthesis case study (Table II).
* :mod:`repro.harness` — experiment drivers reproducing the paper's
  tables and figures (``--backend`` selects the package under test).
"""

# repro.core must initialize before repro.api: the api's shared base is
# imported by core.function, so the parent package loads core first and
# the api package then finds it fully initialized.
from repro.core import BBDDManager, Function
from repro.api import open, register_backend, backends

__version__ = "6.0.0"

__all__ = [
    "BBDDManager",
    "Function",
    "open",
    "register_backend",
    "backends",
    "__version__",
]
