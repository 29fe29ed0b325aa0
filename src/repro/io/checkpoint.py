"""Harness checkpointing: persist per-benchmark results and DD forests.

A :class:`CheckpointStore` owns a directory with two artifact kinds per
checkpoint key:

* ``<key>.json`` — a result row (any JSON-serializable dict), written
  atomically (tmp file + rename) so an interrupted run never leaves a
  half-written checkpoint behind;
* ``<key>.bbdd`` — a levelized binary forest dump (see
  :mod:`repro.io.format`) of the benchmark's decision diagrams.  Saving
  goes through the owning manager's ``dump`` protocol method, so any
  :mod:`repro.api` backend's forest checkpoints; reloading is
  :func:`repro.io.load`, which opens a fresh manager of the kind the
  header flag records.

The Table I/II drivers (:mod:`repro.harness.table1`,
:mod:`repro.harness.table2`) use it for ``--checkpoint DIR`` resume:
rows with a stored result are reused instead of re-run.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, Optional

from repro.core.exceptions import BBDDError
from repro.io.binary import load


def _slug(key: str) -> str:
    """Filesystem-safe checkpoint key."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", key)


class CheckpointStore:
    """Directory-backed store for harness results and forest dumps."""

    def __init__(self, directory) -> None:
        self.directory = str(directory)
        if os.path.exists(self.directory) and not os.path.isdir(self.directory):
            raise BBDDError(
                f"checkpoint path {self.directory!r} exists and is not a directory"
            )
        os.makedirs(self.directory, exist_ok=True)

    def result_path(self, key: str) -> str:
        """Path of the result-row JSON stored under ``key``."""
        return os.path.join(self.directory, _slug(key) + ".json")

    def forest_path(self, key: str) -> str:
        """Path of the forest dump stored under ``key``."""
        return os.path.join(self.directory, _slug(key) + ".bbdd")

    # -- result rows ------------------------------------------------------

    def has_result(self, key: str) -> bool:
        """Whether a result row is stored under ``key``."""
        return os.path.exists(self.result_path(key))

    def save_result(self, key: str, record: Dict) -> None:
        """Atomically persist one JSON-serializable result row."""
        path = self.result_path(key)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fileobj:
            json.dump(record, fileobj, indent=2, sort_keys=True)
        os.replace(tmp, path)

    def load_result(self, key: str) -> Optional[Dict]:
        """The stored result row, or None when ``key`` has none."""
        path = self.result_path(key)
        if not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as fileobj:
            return json.load(fileobj)

    # -- forests ----------------------------------------------------------

    def has_forest(self, key: str) -> bool:
        """Whether a forest dump is stored under ``key``."""
        return os.path.exists(self.forest_path(key))

    def save_forest(self, key: str, manager, functions) -> None:
        """Atomically persist a forest through the manager's dump codec.

        Checkpoints are written compressed (the v2 ``FLAG_COMPRESSED``
        container): they are write-once/read-rarely artifacts, so the
        smaller footprint wins over the deflate cost.
        """
        path = self.forest_path(key)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fileobj:
            manager.dump(functions, fileobj, compress=True)
        os.replace(tmp, path)

    def load_forest(self, key: str, manager=None):
        """Reload a forest dump; returns ``(manager, {name: function})``.

        Returns ``None`` when no forest is stored under ``key``.  Without
        ``manager`` the forest loads into a fresh manager of the dump's
        kind (see :func:`repro.io.load`).
        """
        path = self.forest_path(key)
        if not os.path.exists(path):
            return None
        return load(path, manager=manager)

    # -- maintenance -------------------------------------------------------

    def keys(self) -> list:
        """All keys with a stored result row."""
        return sorted(
            name[: -len(".json")]
            for name in os.listdir(self.directory)
            if name.endswith(".json")
        )

    def clear(self) -> None:
        """Delete every stored result row and forest dump."""
        for name in os.listdir(self.directory):
            if name.endswith((".json", ".bbdd")):
                os.remove(os.path.join(self.directory, name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CheckpointStore {self.directory!r} keys={len(self.keys())}>"
