"""Dump/load of any backend's forest in the levelized ``.bbdd`` container.

``dump`` takes the forest's rows (:func:`repro.io.migrate.export_rows`,
over the manager's ``freeze_export``) and encodes them level by level
in the container's record grammar (layout: header with variable names,
CVO order and per-level node counts; varint node records level by
level, bottom-up; roots trailer — the byte-level spec lives in
:mod:`repro.io.format`).  A baseline-BDD manager's forest is written
as Shannon records under ``FLAG_BDD``; every other forest as couples
and literals.

``load`` reads either grammar back into rows
(:class:`~repro.io.stream.LevelStreamReader`) and replays them through
:class:`~repro.io.migrate.ForestRebuilder`, so a dump can be imported
into a fresh manager, a manager of another backend, a manager with a
*different* variable order, or one with a superset of variables — the
target re-reduces every node on the fly.
"""

from __future__ import annotations

import io as _io
import os
from typing import Dict, Tuple

from repro.core.exceptions import BBDDError

from repro.io.format import FLAG_BDD, FLAG_COMPRESSED, Header, version_for_flags
from repro.io.migrate import ForestRebuilder, Rename, _resolve_rename, export_rows
from repro.io.stream import LevelStreamReader, write_levels


def check_dump_args(functions, target) -> None:
    """Validate the ``dump(functions, target)`` argument order up front.

    The classic slip is ``dump(path, [functions])`` — without this check
    it dies deep inside ``open()`` with a bare ``TypeError``.  Raise a
    :class:`~repro.core.exceptions.BBDDError` that names the expected
    order instead.
    """
    if isinstance(functions, (str, bytes, os.PathLike)) or hasattr(
        functions, "write"
    ):
        raise BBDDError(
            "dump() arguments look swapped: got a path/file object in the "
            "functions slot; the order is dump(functions, target) with the "
            "forest first and the path (or binary file object) second"
        )
    if not (
        hasattr(target, "write")
        or isinstance(target, (str, bytes, os.PathLike))
    ):
        raise BBDDError(
            f"dump() target must be a path or a writable binary file "
            f"object, got {type(target).__name__}; the order is "
            f"dump(functions, target) with the forest first"
        )


def check_load_source(source) -> None:
    """Validate the ``load(source, ...)`` source argument up front.

    Mirrors :func:`check_dump_args`: passing a forest (or a manager)
    where the path belongs raises :class:`BBDDError` naming the expected
    order instead of an opaque ``TypeError`` from ``open()``.
    """
    if hasattr(source, "read") or isinstance(source, (str, bytes, os.PathLike)):
        return
    raise BBDDError(
        f"load() source must be a path or a readable binary file object, "
        f"got {type(source).__name__}; the order is load(source, "
        f"manager=...) with the path first"
    )


def dump(manager, functions, target, compress: bool = False) -> None:
    """Write a forest to ``target`` (a path or binary file object).

    ``functions``: a function, an edge, a sequence of either, or a
    ``{name: function}`` mapping (names are stored and restored), of
    ``manager``.  ``compress=True`` writes a v2 ``FLAG_COMPRESSED``
    container (delta-coded refs + shared deflate stream).
    """
    check_dump_args(functions, target)
    exported = export_rows(manager, functions)
    if hasattr(target, "write"):
        _dump_file(manager, exported, target, compress)
        return
    with open(target, "wb") as fileobj:
        _dump_file(manager, exported, fileobj, compress)


def dumps(manager, functions, compress: bool = False) -> bytes:
    """Serialize a forest to bytes (see :func:`dump`)."""
    buffer = _io.BytesIO()
    dump(manager, functions, buffer, compress=compress)
    return buffer.getvalue()


def _dump_file(manager, exported, fileobj, compress: bool) -> None:
    levels, roots = exported
    flags = FLAG_BDD if manager.backend == "bdd" else 0
    if compress:
        flags |= FLAG_COMPRESSED
    header = Header(
        names=list(manager.var_names),
        order=list(manager.order.order),
        num_roots=len(roots),
        levels=[(position, len(rows)) for position, rows in levels],
        version=version_for_flags(flags),
        flags=flags,
    )
    write_levels(fileobj, header, levels, roots)


def load(
    source,
    manager=None,
    rename: Rename = None,
) -> Tuple[object, Dict[str, object]]:
    """Load a dump; returns ``(manager, {name: function})``.

    With ``manager=None`` a fresh manager is created with the dump's
    variable names and order: a baseline :class:`~repro.bdd.BDDManager`
    for a ``FLAG_BDD`` container, a :class:`~repro.core.BBDDManager`
    otherwise.  An explicit manager may be of any backend and may use a
    different order or a superset of variables; ``rename`` remaps dump
    variable names to target names first.
    """
    check_load_source(source)
    if hasattr(source, "read"):
        return _load_file(source, manager, rename)
    with open(source, "rb") as fileobj:
        return _load_file(fileobj, manager, rename)


def loads(data: bytes, manager=None, rename: Rename = None):
    """Load a dump from bytes (see :func:`load`)."""
    return load(_io.BytesIO(data), manager=manager, rename=rename)


def _load_file(fileobj, manager, rename: Rename):
    reader = LevelStreamReader(fileobj)
    header = reader.header
    if manager is None:
        if reader.shannon:
            from repro.bdd.manager import BDDManager as fresh
        else:
            from repro.core.manager import BBDDManager as fresh

        # A fresh manager takes the dump's names *after* renaming, so
        # the rebuilder (which resolves renamed names) finds them.
        rename_fn = _resolve_rename(rename)
        manager = fresh([rename_fn(name) for name in header.names])
        manager.order.set_order(list(header.order))
    rebuilder = ForestRebuilder(manager, header.ordered_names(), rename=rename)
    # Replay and root wrapping share one GC deferral: replayed nodes are
    # held as bare edges until the function handles reference them.
    with manager.defer_gc():
        for _position, rows in reader.iter_levels():
            rebuilder.add_rows(rows)
        return manager, rebuilder.functions(reader.read_roots())
