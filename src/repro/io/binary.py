"""Dump/load of BBDD forests in the levelized binary format.

``dump`` writes a shared forest of named root edges through
:class:`~repro.io.stream.LevelStreamWriter` (layout: header with
variable names, CVO order and per-level node counts; varint node
records level by level, bottom-up; roots trailer — the full byte-level
spec lives in :mod:`repro.io.format`).  ``load`` replays the records
through :class:`~repro.io.migrate.ForestRebuilder`, so a dump can be
imported into a fresh manager, a manager with a *different* variable
order, or one with a superset of variables — re-reduction (R1/R2/R4,
complement normalization) happens on the fly via ``BBDDManager._make``.
"""

from __future__ import annotations

import io as _io
import os
from typing import Dict, List, Mapping, Tuple

from repro.core.exceptions import BBDDError
from repro.core.function import Function
from repro.core.node import SINK, SV_ONE, Edge
from repro.core.traversal import levelize

from repro.io.format import (
    FLAG_BDD,
    FLAG_COMPRESSED,
    Header,
    SINK_ID,
    pack_ref,
    version_for_flags,
)
from repro.io.migrate import Rename
from repro.io.stream import LevelStreamReader, LevelStreamWriter


def check_dump_args(functions, target) -> None:
    """Validate the ``dump(functions, target)`` argument order up front.

    The classic slip is ``dump(path, [functions])`` — without this check
    it dies deep inside ``open()`` with a bare ``TypeError``.  Raise a
    :class:`~repro.core.exceptions.BBDDError` that names the expected
    order instead.  Shared by the BBDD, BDD and xmem dump entry points.
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


def _named_edges(functions) -> List[Tuple[str, Edge]]:
    """Normalize the accepted forest shapes to ``[(name, edge)]``.

    Accepts a single Function/edge, a sequence of them, or a name-keyed
    mapping; anonymous roots are named ``f0``, ``f1``, ...
    """
    if isinstance(functions, Function):
        return [("f0", functions.edge)]
    if isinstance(functions, int):
        return [("f0", functions)]  # a bare signed-int edge
    if isinstance(functions, Mapping):
        return [
            (name, f.edge if isinstance(f, Function) else f)
            for name, f in functions.items()
        ]
    return [
        (f"f{i}", f.edge if isinstance(f, Function) else f)
        for i, f in enumerate(functions)
    ]


def forest_records(manager, named: List[Tuple[str, Edge]]):
    """Enumerate a forest as serializable records — the one canonical
    record shape both codecs (binary and JSON) emit.

    Returns ``(records, ids)``: ``ids`` maps each node index (and the
    sink, id 0) to its dense bottom-up file id; ``records`` is a list of
    ``(position, sv_position, node, neq, eq)`` in id order, grouped by
    level deepest-first, where ``node`` is the flat-store index,
    ``neq``/``eq`` are ``(child_id, attr)`` pairs and
    ``sv_position``/``neq``/``eq`` are ``None`` for literal (R4) records.
    """
    order = manager.order
    ids = {SINK: SINK_ID}
    records = []
    for position, nodes in levelize(manager, [edge for _name, edge in named]):
        for node in nodes:
            ids[node] = len(records) + 1
            pv, sv, neq, eq = manager.node_fields(node)
            if sv == SV_ONE:
                records.append((position, None, node, None, None))
            else:
                records.append(
                    (
                        position,
                        order.position(sv),
                        node,
                        (ids[-neq if neq < 0 else neq], neq < 0),
                        (ids[eq], False),
                    )
                )
    return records, ids


def dump(manager, functions, target, compress: bool = False) -> None:
    """Write a forest to ``target`` (a path or binary file object).

    ``functions``: a Function, an edge, a sequence of either, or a
    ``{name: Function}`` mapping (names are stored and restored).
    ``compress=True`` writes a v2 ``FLAG_COMPRESSED`` container
    (delta-coded refs + shared deflate stream).
    """
    check_dump_args(functions, target)
    named = _named_edges(functions)
    if hasattr(target, "write"):
        _dump_file(manager, named, target, compress=compress)
        return
    with open(target, "wb") as fileobj:
        _dump_file(manager, named, fileobj, compress=compress)


def dumps(manager, functions, compress: bool = False) -> bytes:
    """Serialize a forest to bytes (see :func:`dump`)."""
    buffer = _io.BytesIO()
    dump(manager, functions, buffer, compress=compress)
    return buffer.getvalue()


def _dump_file(
    manager, named: List[Tuple[str, Edge]], fileobj, compress: bool = False
) -> None:
    records, ids = forest_records(manager, named)
    level_counts: List[Tuple[int, int]] = []
    for position, _sv, _node, _neq, _eq in records:
        if level_counts and level_counts[-1][0] == position:
            level_counts[-1] = (position, level_counts[-1][1] + 1)
        else:
            level_counts.append((position, 1))
    flags = FLAG_COMPRESSED if compress else 0
    header = Header(
        names=list(manager.var_names),
        order=list(manager.order.order),
        num_roots=len(named),
        levels=level_counts,
        version=version_for_flags(flags),
        flags=flags,
    )
    writer = LevelStreamWriter(fileobj, header)
    block = None
    for position, sv_position, _node, neq, eq in records:
        if block is None or block.position != position:
            if block is not None:
                block.close()
            block = writer.begin_level(position)
        if sv_position is None:
            block.write_literal()
        else:
            block.write_chain(
                sv_position - position, pack_ref(*neq), pack_ref(*eq)
            )
    if block is not None:
        block.close()
    writer.write_roots(
        [
            (pack_ref(ids[-edge if edge < 0 else edge], edge < 0), name)
            for name, edge in named
        ]
    )


def load(
    source,
    manager=None,
    rename: Rename = None,
) -> Tuple[object, Dict[str, Function]]:
    """Load a dump; returns ``(manager, {name: Function})``.

    With ``manager=None`` a fresh :class:`BBDDManager` is created with
    the dump's variable names and order.  An explicit manager may use a
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


def open_forest(path) -> Tuple[object, Dict[str, object]]:
    """Load any dump container by sniffing its header flags.

    The serving warm-start path (:class:`repro.serve.pool.ForestPool`
    loads each dump through it before freezing): a ``.bbdd`` container holds either BBDD records (flags 0
    — the in-core loader) or baseline-BDD Shannon records
    (``FLAG_BDD`` — the :mod:`repro.io.bdd_binary` loader); callers who
    just want "the forest in this file, served from core" need not know
    which.  Returns ``(manager, {name: function})`` with a fresh
    manager of the matching in-core backend.
    """
    from repro.io.stream import scan

    info = scan(path)
    if info.header.flags & FLAG_BDD:
        from repro.io import bdd_binary

        return bdd_binary.load(path)
    return load(path)


def _load_file(fileobj, manager, rename: Rename):
    reader = LevelStreamReader(fileobj)
    if reader.header.flags & FLAG_BDD:
        from repro.io.format import FormatError

        raise FormatError(
            "this is a baseline-BDD dump; use repro.io.bdd_binary.load / "
            "BDDManager.load"
        )
    if manager is None:
        from repro.core.manager import BBDDManager
        from repro.io.migrate import _resolve_rename

        # A fresh manager takes the dump's names *after* renaming, so
        # the rebuilder (which resolves renamed names) finds them.
        rename_fn = _resolve_rename(rename)
        header = reader.header
        manager = BBDDManager([rename_fn(name) for name in header.names])
        manager.order.set_order(list(header.order))
    # Replay and root wrapping share one GC deferral: replayed nodes are
    # held as bare edges until the Function handles reference them.
    with manager.defer_gc():
        _rebuilder, roots = reader.load_into(manager, rename=rename)
        return manager, {name: Function(manager, edge) for edge, name in roots}
