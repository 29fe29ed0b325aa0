"""repro.io — persistence & interchange for BBDD forests.

The subsystem makes BBDDs durable and portable:

* :mod:`repro.io.format` — the levelized binary format (varint node
  records, header with names/order/per-level counts);
* :mod:`repro.io.binary` — ``dump``/``load`` (+ ``dumps``/``loads``) of
  shared forests with on-the-fly re-reduction on import, and
  :func:`~repro.io.binary.open_forest`, which sniffs a container's
  header flags and loads it with the right decoder (the serving
  warm-start path);
* :mod:`repro.io.stream` — one-level-at-a-time writer/reader and the
  header-only :func:`~repro.io.stream.scan`;
* :mod:`repro.io.bdd_binary` — the same container for baseline-BDD
  forests (Shannon node records, header flag bit 0 set);
* :mod:`repro.io.jsondump` — JSON/dict interchange for debugging;
* :mod:`repro.io.migrate` — cross-manager (and cross-backend) copy with
  variable remapping (:func:`~repro.io.migrate.migrate_forest`,
  :class:`~repro.io.migrate.Migrator`,
  :class:`~repro.io.migrate.ProtocolMigrator`);
* :mod:`repro.io.checkpoint` — harness checkpoint store (``--checkpoint``).

Note: the convenience function is exported as :func:`migrate_forest`.
The historical name ``migrate`` is *not* re-bound here — doing so used
to shadow the :mod:`repro.io.migrate` submodule, so
``repro.io.migrate.ProtocolMigrator`` raised ``AttributeError``.
``repro.io.migrate`` is the module again.
"""

from repro.io.bdd_binary import dump as dump_bdd
from repro.io.bdd_binary import dumps as dumps_bdd
from repro.io.bdd_binary import load as load_bdd
from repro.io.bdd_binary import loads as loads_bdd
from repro.io.binary import dump, dumps, load, loads, open_forest
from repro.io.checkpoint import CheckpointStore
from repro.io.format import FormatError
from repro.io.jsondump import dump_json, from_dict, load_json, to_dict
from repro.io.migrate import ForestRebuilder, Migrator, ProtocolMigrator, migrate_forest
from repro.io.stream import FileInfo, LevelStreamReader, LevelStreamWriter, scan

__all__ = [
    "dump",
    "dumps",
    "load",
    "loads",
    "open_forest",
    "dump_bdd",
    "dumps_bdd",
    "load_bdd",
    "loads_bdd",
    "dump_json",
    "load_json",
    "to_dict",
    "from_dict",
    "migrate_forest",
    "Migrator",
    "ProtocolMigrator",
    "ForestRebuilder",
    "scan",
    "FileInfo",
    "LevelStreamReader",
    "LevelStreamWriter",
    "CheckpointStore",
    "FormatError",
]
