"""Structural interchange for the external-memory backend.

Levelized representations *are* the record shape of the
:mod:`repro.io` binary format, so persistence and migration involving
the xmem backend replay records instead of walking protocol ``ite``
chains:

* :func:`dump_forest` / :func:`load_forest` — native ``.bbdd``
  container i/o (flags 0): dumps interoperate with
  :func:`repro.io.load` into an in-core BBDD manager, and xmem loads
  BBDD dumps.
* :class:`XmemForestRebuilder` — the xmem twin of
  :class:`repro.io.migrate.ForestRebuilder`: replays serialized records
  into a :class:`~repro.xmem.builder.Builder`, structurally when the
  target preserves the dump's relative variable order, else through the
  biconditional expansion (one in-builder XNOR + ITE sweep per record).
* :class:`ToXmemMigrator` / :class:`XmemToBBDDMigrator` — the live
  fast paths :func:`repro.io.migrate.migrate_forest` picks for
  BBDD -> xmem, xmem -> xmem and xmem -> BBDD pairs.
"""

from __future__ import annotations

import io as _io
from typing import Dict, List, Tuple

from repro.core.exceptions import BBDDError, VariableError
from repro.core.operations import OP_XNOR
from repro.io.format import (
    FLAG_BDD,
    FLAG_COMPRESSED,
    FormatError,
    Header,
    LITERAL_TAG,
    pack_ref,
    version_for_flags,
)
from repro.io.migrate import ForestRebuilder, Rename, _resolve_rename
from repro.io.stream import LevelStreamReader, LevelStreamWriter

from repro.xmem.builder import Builder
from repro.xmem.engine import apply_refs, ite_refs


class XmemForestRebuilder:
    """Replays serialized forest records into an xmem builder.

    Mirrors :class:`repro.io.migrate.ForestRebuilder` (same record and
    ref conventions: ids in replay order, sink id 0, refs pack
    ``(id << 1) | attr``), but targets packed builder refs.  When the
    manager's order preserves the dump's relative variable order each
    record is one :meth:`Builder.make` call; otherwise the record
    rebuilds semantically from ``f = (pv = sv) ? eq : neq`` with
    in-builder streaming XNOR/ITE sweeps.
    """

    def __init__(
        self,
        manager,
        builder: Builder,
        ordered_names,
        rename: Rename = None,
    ) -> None:
        self.manager = manager
        self.builder = builder
        rename_fn = _resolve_rename(rename)
        try:
            self._var_at = [
                manager.var_index(rename_fn(name)) for name in ordered_names
            ]
        except VariableError as exc:
            raise VariableError(
                f"dump variable missing from target manager: {exc}"
            ) from None
        positions = [manager.order.position(v) for v in self._var_at]
        self.order_preserved = all(
            a < b for a, b in zip(positions, positions[1:])
        )
        self._refs: List[int] = [0]  # file id -> packed builder ref
        self._xnor_cache: Dict[Tuple[int, int], int] = {}

    def add_record(
        self, position: int, sv_delta: int, neq_ref: int, eq_ref: int
    ) -> int:
        n = len(self._var_at)
        if not 0 <= position < n:
            raise FormatError(f"record position {position} out of range 0..{n - 1}")
        if sv_delta and not position + sv_delta < n:
            raise FormatError(
                f"record SV position {position + sv_delta} out of range (PV at "
                f"{position}, {n} variables)"
            )
        builder = self.builder
        if sv_delta == LITERAL_TAG:
            ref = builder.literal(self._var_at[position])
        else:
            pv = self._var_at[position]
            sv = self._var_at[position + sv_delta]
            d = self.edge_for(neq_ref)
            e = self.edge_for(eq_ref)
            if self.order_preserved:
                ref = builder.make(pv, sv, d, e)
            else:
                manager = self.manager
                biq = self._xnor_cache.get((pv, sv))
                if biq is None:
                    biq = apply_refs(
                        manager,
                        builder,
                        builder,
                        builder.literal(pv),
                        builder,
                        builder.literal(sv),
                        OP_XNOR,
                    )
                    self._xnor_cache[(pv, sv)] = biq
                ref = ite_refs(
                    manager, builder, builder, biq, builder, e, builder, d
                )
        self._refs.append(ref)
        return ref

    def edge_for(self, ref: int) -> int:
        node_id = ref >> 1
        if not 0 <= node_id < len(self._refs):
            raise FormatError(f"edge ref to unwritten node id {node_id}")
        return self._refs[node_id] ^ (ref & 1)

    @property
    def replayed(self) -> int:
        return len(self._refs) - 1


# ----------------------------------------------------------------------
# native dump/load
# ----------------------------------------------------------------------


def _named_functions(functions) -> List[Tuple[str, object]]:
    from repro.api.base import FunctionBase

    if isinstance(functions, FunctionBase):
        return [("f0", functions)]
    if hasattr(functions, "items"):
        return list(functions.items())
    return [(f"f{i}", f) for i, f in enumerate(functions)]


def dump_forest(manager, functions, target, compress: bool = False) -> None:
    """Write an xmem forest to ``target`` (path or binary file object)."""
    from repro.io.binary import check_dump_args

    check_dump_args(functions, target)
    named = _named_functions(functions)
    builder = Builder(manager)
    try:
        memos: Dict[int, Dict[int, int]] = {}
        roots = []
        for name, f in named:
            edge = f.edge if hasattr(f, "edge") else f
            rep, ref = manager._unpack(edge)
            if rep is None:
                roots.append((name, ref))
            else:
                memo = memos.setdefault(id(rep), {})
                roots.append((name, builder.import_ref(rep, ref, memo)))
        levels, new_roots = _canonical_parts(builder, [r for _n, r in roots])
        flags = FLAG_COMPRESSED if compress else 0
        header = Header(
            names=list(manager.var_names),
            order=list(manager.order.order),
            num_roots=len(named),
            levels=[(pos, len(records)) for pos, records in levels],
            version=version_for_flags(flags),
            flags=flags,
        )
        if hasattr(target, "write"):
            _write_levels(target, header, levels, named, new_roots)
        else:
            with open(target, "wb") as fileobj:
                _write_levels(fileobj, header, levels, named, new_roots)
    finally:
        builder.dispose()


def _canonical_parts(builder: Builder, roots: List[int]):
    from repro.xmem.rep import canonicalize

    return canonicalize(builder.full_record, roots)


def _write_levels(fileobj, header, levels, named, new_roots) -> None:
    writer = LevelStreamWriter(fileobj, header)
    for pos, records in levels:
        block = writer.begin_level(pos)
        for sv_delta, neq_ref, eq_ref in records:
            if sv_delta == LITERAL_TAG:
                block.write_literal()
            else:
                block.write_chain(sv_delta, neq_ref, eq_ref)
        block.close()
    writer.write_roots(
        [(ref, name) for (name, _f), ref in zip(named, new_roots)]
    )


def load_forest(manager, source, rename: Rename = None) -> dict:
    """Load a ``.bbdd`` dump into ``manager``; returns ``{name: function}``."""
    from repro.io.binary import check_load_source

    check_load_source(source)
    if hasattr(source, "read"):
        return _load_file(manager, source, rename)
    with open(source, "rb") as fileobj:
        return _load_file(manager, fileobj, rename)


def loads_forest(manager, data: bytes, rename: Rename = None) -> dict:
    return load_forest(manager, _io.BytesIO(data), rename=rename)


def _load_file(manager, fileobj, rename: Rename) -> dict:
    reader = LevelStreamReader(fileobj)
    if reader.header.flags & FLAG_BDD:
        raise FormatError(
            "this is a baseline-BDD dump; use repro.io.bdd_binary.load / "
            "BDDManager.load"
        )
    builder = Builder(manager)
    try:
        rebuilder = XmemForestRebuilder(
            manager, builder, reader.header.ordered_names(), rename=rename
        )
        for position, records in reader.iter_levels():
            for sv_delta, neq_ref, eq_ref in records:
                rebuilder.add_record(position, sv_delta, neq_ref, eq_ref)
        roots = [
            (name, rebuilder.edge_for(ref)) for ref, name in reader.read_roots()
        ]
        return _wrap_shared(manager, builder, roots)
    finally:
        builder.dispose()


def _wrap_shared(manager, builder: Builder, named_refs) -> dict:
    """Finish one shared rep for several roots; wrap each as a function."""
    sink_entries = {
        name: bool(ref & 1) for name, ref in named_refs if ref >> 1 == 0
    }
    live = [(name, ref) for name, ref in named_refs if ref >> 1]
    functions = {}
    if live:
        rep, new_roots = builder.finish([ref for _name, ref in live])
        manager._register(rep)
        for (name, _old), ref in zip(live, new_roots):
            functions[name] = manager.function(
                (manager._handle(rep, ref >> 1), bool(ref & 1))
            )
    else:
        builder.dispose()
    for name, attr in sink_entries.items():
        functions[name] = manager.function((manager._sink, attr))
    manager._rebalance()
    return functions


# ----------------------------------------------------------------------
# live migration fast paths (selected by repro.io.migrate._migrator_for)
# ----------------------------------------------------------------------


class ToXmemMigrator:
    """Structural BBDD/xmem -> xmem migration (record replay).

    One builder is shared across every ``function`` call (its unique
    table re-shares structure between migrated functions), and an xmem
    source representation is replayed at most once no matter how many
    of its functions migrate — each call only snapshots its root's
    sub-DAG into a target representation.  The builder's records are
    released when the migrator is garbage collected.
    """

    def __init__(self, src, dst, rename: Rename = None) -> None:
        if src is dst:
            raise BBDDError("source and target managers must differ")
        self.src = src
        self.dst = dst
        self._rename = rename
        self._ordered_names = [src.var_name(v) for v in src.order.order]
        self._builder = Builder(dst)
        #: Per-source-rep replay cache: id(rep) -> (rep, XmemForestRebuilder).
        self._replayed: Dict[int, Tuple[object, XmemForestRebuilder]] = {}

    def _fresh_rebuilder(self) -> XmemForestRebuilder:
        return XmemForestRebuilder(
            self.dst, self._builder, self._ordered_names, rename=self._rename
        )

    def _rebuilder_for(self, rep) -> XmemForestRebuilder:
        entry = self._replayed.get(id(rep))
        if entry is None:
            rebuilder = self._fresh_rebuilder()
            for _nid, pos, sv_delta, neq_ref, eq_ref in rep.iter_records():
                rebuilder.add_record(pos, sv_delta, neq_ref, eq_ref)
            entry = self._replayed[id(rep)] = (rep, rebuilder)
        return entry[1]

    def function(self, f):
        if f.manager is not self.src:
            raise BBDDError("function does not belong to the source manager")
        if self.src.backend == "xmem":
            rep, ref = self.src._unpack(f.edge)
            if rep is None:
                return self.dst.function((self.dst._sink, bool(ref & 1)))
            root = self._rebuilder_for(rep).edge_for(ref)
        else:  # live BBDD nodes -> serializable records -> replay
            from repro.io.binary import forest_records

            edge = f.edge  # signed-int flat-store edge
            if edge == 1 or edge == -1:
                return self.dst.function((self.dst._sink, edge < 0))
            # Each call has its own file-id space; the shared builder's
            # unique table still dedups the created records.
            rebuilder = self._fresh_rebuilder()
            records, ids = forest_records(self.src, [("f", edge)])
            for position, sv_position, _node, neq, eq in records:
                if sv_position is None:
                    rebuilder.add_record(position, LITERAL_TAG, 0, 0)
                else:
                    rebuilder.add_record(
                        position,
                        sv_position - position,
                        pack_ref(*neq),
                        pack_ref(*eq),
                    )
            root = rebuilder.edge_for(
                pack_ref(ids[-edge if edge < 0 else edge], edge < 0)
            )
        if root >> 1 == 0:
            return self.dst.function((self.dst._sink, bool(root & 1)))
        rep, new_roots = self._builder.snapshot([root])
        self.dst._register(rep)
        result = self.dst.function(
            (self.dst._handle(rep, new_roots[0] >> 1), bool(new_roots[0] & 1))
        )
        self.dst._rebalance()
        return result


class XmemToBBDDMigrator:
    """Structural xmem -> BBDD migration (record replay through
    :class:`repro.io.migrate.ForestRebuilder`, which re-reduces on the
    fly and handles renames and order changes)."""

    def __init__(self, src, dst, rename: Rename = None) -> None:
        if src is dst:
            raise BBDDError("source and target managers must differ")
        self.src = src
        self.dst = dst
        self._rename = rename
        self._ordered_names = [src.var_name(v) for v in src.order.order]
        #: Per-source-rep replay cache: id(rep) -> (rep, ForestRebuilder).
        self._replayed: Dict[int, Tuple[object, ForestRebuilder]] = {}

    def _rebuilder_for(self, rep) -> ForestRebuilder:
        entry = self._replayed.get(id(rep))
        if entry is None:
            rebuilder = ForestRebuilder(
                self.dst, self._ordered_names, rename=self._rename
            )
            with self.dst.defer_gc():
                for _nid, pos, sv_delta, neq_ref, eq_ref in rep.iter_records():
                    rebuilder.add_record(pos, sv_delta, neq_ref, eq_ref)
            entry = self._replayed[id(rep)] = (rep, rebuilder)
        return entry[1]

    def function(self, f):
        if f.manager is not self.src:
            raise BBDDError("function does not belong to the source manager")
        rep, ref = self.src._unpack(f.edge)
        if rep is None:
            return self.dst.function(
                self.dst.false_edge if ref & 1 else self.dst.true_edge
            )
        rebuilder = self._rebuilder_for(rep)
        with self.dst.defer_gc():
            return self.dst.function(rebuilder.edge_for(ref))
