"""repro.io — persistence & interchange for decision-diagram forests.

Every path moves a forest as *rows* (see :mod:`repro.io.migrate`), the
one node form every backend exports through ``freeze_export`` and every
backend rebuilds from:

* :mod:`repro.io.format` — the levelized ``.bbdd`` container (varint
  couple or Shannon records, header with names/order/per-level counts);
* :mod:`repro.io.binary` — ``dump``/``load`` (+ ``dumps``/``loads``) of
  any backend's shared forest, with on-the-fly re-reduction on import;
  ``load`` without a manager opens a fresh one of the dump's kind;
* :mod:`repro.io.stream` — the level-at-a-time reader and the
  header-only :func:`~repro.io.stream.scan`;
* :mod:`repro.io.jsondump` — JSON/dict interchange for debugging;
* :mod:`repro.io.migrate` — the row export, the row replay
  (:class:`~repro.io.migrate.ForestRebuilder`) and cross-manager copy
  with variable remapping (:func:`~repro.io.migrate.migrate_forest`);
* :mod:`repro.io.checkpoint` — harness checkpoint store (``--checkpoint``).

Note: the convenience function is exported as :func:`migrate_forest`.
The historical name ``migrate`` is *not* re-bound here — doing so used
to shadow the :mod:`repro.io.migrate` submodule, so
``repro.io.migrate.ForestRebuilder`` raised ``AttributeError``.
``repro.io.migrate`` is the module again.
"""

from repro.io.binary import dump, dumps, load, loads
from repro.io.checkpoint import CheckpointStore
from repro.io.format import FormatError
from repro.io.jsondump import dump_json, from_dict, load_json, to_dict
from repro.io.migrate import ForestRebuilder, migrate_forest
from repro.io.stream import FileInfo, LevelStreamReader, scan

__all__ = [
    "dump",
    "dumps",
    "load",
    "loads",
    "dump_json",
    "load_json",
    "to_dict",
    "from_dict",
    "migrate_forest",
    "ForestRebuilder",
    "scan",
    "FileInfo",
    "LevelStreamReader",
    "CheckpointStore",
    "FormatError",
]
