"""Dump/load of baseline-BDD forests in the levelized binary format.

Shares the container layout of the BBDD format (:mod:`repro.io.format`:
varint header with names/order/per-level counts, level blocks bottom-up,
roots trailer) but stores Shannon node records instead of biconditional
couples — the header's ``flags`` field carries :data:`FLAG_BDD` so the
two dump kinds can never be confused::

    NodeRecord = then_ref varint   -- edge ref (then-edges are regular,
                                   -- so the ref's attr bit is always 0)
                 else_ref varint   -- edge ref

Edge refs pack ``(id << 1) | attr`` with the 1-sink at id 0 and nodes
numbered in file order (level blocks deepest first), so every reference
points strictly backwards and a sequential reader always sees a node's
children before the node itself.

Version 2 containers (see :mod:`repro.io.format`) set
``FLAG_COMPRESSED``: child refs are delta-coded against the
record's own file id and level payloads pass through one shared
deflate stream (sync-flushed per level, so block sizes stay exact).

``load`` re-reduces on the fly: when the target manager preserves the
dump's relative variable order each record is a single
``BDDManager._make`` call; otherwise the node is rebuilt semantically as
``ite(var, then, else)`` under the target order.
"""

from __future__ import annotations

import io as _io
from typing import Dict, List, Mapping, Tuple

from repro.bdd.function import BDDFunction
from repro.bdd.node import BDDEdge, BDDNode
from repro.core.exceptions import VariableError
from repro.io.format import (
    FLAG_BDD,
    FLAG_COMPRESSED,
    FormatError,
    Header,
    PayloadCompressor,
    PayloadDecompressor,
    SINK_ID,
    decode_name,
    decode_varint,
    delta_ref,
    encode_varint,
    pack_ref,
    read_header,
    read_varint,
    undelta_ref,
    unpack_ref,
    version_for_flags,
)
from repro.io.migrate import Rename, _resolve_rename


def _named_edges(manager, functions) -> List[Tuple[str, BDDEdge]]:
    """Normalize the accepted forest shapes to ``[(name, edge)]``."""
    if isinstance(functions, BDDFunction):
        return [("f0", functions.edge)]
    if (
        isinstance(functions, tuple)
        and len(functions) == 2
        and isinstance(functions[0], BDDNode)
    ):
        return [("f0", functions)]  # a bare (node, attr) edge
    if isinstance(functions, Mapping):
        return [
            (name, f.edge if isinstance(f, BDDFunction) else f)
            for name, f in functions.items()
        ]
    return [
        (f"f{i}", f.edge if isinstance(f, BDDFunction) else f)
        for i, f in enumerate(functions)
    ]


def _levelized(manager, edges) -> List[Tuple[int, List[BDDNode]]]:
    """Reachable nodes grouped by order position, deepest level first."""
    position = manager.order.position
    seen = set()
    stack: List[BDDNode] = []
    for node, _attr in edges:
        if not node.is_sink and node not in seen:
            seen.add(node)
            stack.append(node)
    while stack:
        node = stack.pop()
        for child in (node.then, node.else_):
            if not child.is_sink and child not in seen:
                seen.add(child)
                stack.append(child)
    by_position: Dict[int, List[BDDNode]] = {}
    for node in seen:
        by_position.setdefault(position(node.var), []).append(node)
    return [
        (pos, sorted(by_position[pos], key=lambda n: n.uid))
        for pos in sorted(by_position, reverse=True)
    ]


def dump(manager, functions, target, compress: bool = False) -> None:
    """Write a BDD forest to ``target`` (a path or binary file object).

    ``compress=True`` writes a v2 ``FLAG_COMPRESSED`` container
    (delta-coded refs + shared deflate stream).
    """
    from repro.io.binary import check_dump_args

    check_dump_args(functions, target)
    named = _named_edges(manager, functions)
    if hasattr(target, "write"):
        _dump_file(manager, named, target, compress=compress)
        return
    with open(target, "wb") as fileobj:
        _dump_file(manager, named, fileobj, compress=compress)


def dumps(manager, functions, compress: bool = False) -> bytes:
    """Serialize a BDD forest to bytes (see :func:`dump`)."""
    buffer = _io.BytesIO()
    dump(manager, functions, buffer, compress=compress)
    return buffer.getvalue()


def _dump_file(
    manager, named: List[Tuple[str, BDDEdge]], fileobj, compress: bool = False
) -> None:
    levels = _levelized(manager, [edge for _name, edge in named])
    flags = (FLAG_BDD | FLAG_COMPRESSED) if compress else FLAG_BDD
    header = Header(
        names=list(manager.var_names),
        order=list(manager.order.order),
        num_roots=len(named),
        levels=[(pos, len(nodes)) for pos, nodes in levels],
        version=version_for_flags(flags),
        flags=flags,
    )
    fileobj.write(header.encode())
    compressor = PayloadCompressor() if compress else None
    ids: Dict[BDDNode, int] = {manager.sink: SINK_ID}
    next_id = SINK_ID + 1
    for pos, nodes in levels:
        payload = bytearray()
        for node in nodes:
            ids[node] = next_id
            then_ref = pack_ref(ids[node.then], False)
            else_ref = pack_ref(ids[node.else_], node.else_attr)
            if compress:
                then_ref = delta_ref(then_ref, next_id)
                else_ref = delta_ref(else_ref, next_id)
            next_id += 1
            encode_varint(then_ref, payload)
            encode_varint(else_ref, payload)
        data = bytes(payload)
        if compressor is not None:
            data = compressor.compress(data)
        block = bytearray()
        encode_varint(pos, block)
        encode_varint(len(nodes), block)
        encode_varint(len(data), block)
        fileobj.write(bytes(block))
        fileobj.write(data)
    trailer = bytearray()
    for name, (node, attr) in named:
        encode_varint(pack_ref(ids[node], attr), trailer)
        raw = name.encode("utf-8")
        encode_varint(len(raw), trailer)
        trailer.extend(raw)
    fileobj.write(bytes(trailer))


def load(
    source,
    manager=None,
    rename: Rename = None,
) -> Tuple[object, Dict[str, BDDFunction]]:
    """Load a BDD dump; returns ``(manager, {name: BDDFunction})``.

    With ``manager=None`` a fresh :class:`~repro.bdd.manager.BDDManager`
    is created with the dump's variable names and order.  An explicit
    manager may use a different order or a superset of variables;
    ``rename`` remaps dump variable names to target names first.
    """
    from repro.io.binary import check_load_source

    check_load_source(source)
    if hasattr(source, "read"):
        return _load_file(source, manager, rename)
    with open(source, "rb") as fileobj:
        return _load_file(fileobj, manager, rename)


def loads(data: bytes, manager=None, rename: Rename = None):
    """Load a BDD dump from bytes (see :func:`load`)."""
    return load(_io.BytesIO(data), manager=manager, rename=rename)


def _load_file(fileobj, manager, rename: Rename):
    header = read_header(fileobj)
    if not header.flags & FLAG_BDD:
        raise FormatError(
            "this is a BBDD dump; use repro.io.load / BBDDManager.load"
        )
    rename_fn = _resolve_rename(rename)
    if manager is None:
        from repro.bdd.manager import BDDManager

        manager = BDDManager([rename_fn(name) for name in header.names])
        manager.order.set_order(list(header.order))
    try:
        var_at = [
            manager.var_index(rename_fn(name)) for name in header.ordered_names()
        ]
    except VariableError as exc:
        raise VariableError(
            f"dump variable missing from target manager: {exc}"
        ) from None
    positions = [manager.order.position(v) for v in var_at]
    order_preserved = all(a < b for a, b in zip(positions, positions[1:]))

    edges: List[BDDEdge] = [(manager.sink, False)]

    def edge_for(ref: int) -> BDDEdge:
        node_id, attr = unpack_ref(ref)
        if not 0 <= node_id < len(edges):
            raise FormatError(f"edge ref to unwritten node id {node_id}")
        node, base_attr = edges[node_id]
        return (node, base_attr ^ attr)

    n = len(var_at)
    expected = header.node_count
    decompressor = (
        PayloadDecompressor() if header.flags & FLAG_COMPRESSED else None
    )
    next_id = SINK_ID + 1
    for _ in header.levels:
        position = read_varint(fileobj)
        if not 0 <= position < n:
            raise FormatError(f"record position {position} out of range 0..{n - 1}")
        level_count = read_varint(fileobj)
        nbytes = read_varint(fileobj)
        payload = fileobj.read(nbytes)
        if len(payload) != nbytes:
            raise FormatError("truncated level payload")
        if decompressor is not None:
            payload = decompressor.decompress(payload, level_count)
        var = var_at[position]
        offset = 0
        for _ in range(level_count):
            then_ref, offset = decode_varint(payload, offset)
            else_ref, offset = decode_varint(payload, offset)
            if decompressor is not None:
                then_ref = undelta_ref(then_ref, next_id)
                else_ref = undelta_ref(else_ref, next_id)
            then_edge = edge_for(then_ref)
            else_edge = edge_for(else_ref)
            if order_preserved:
                edge = manager._make(var, then_edge, else_edge)
            else:
                edge = manager.ite_edges(
                    manager.literal_edge(var), then_edge, else_edge
                )
            next_id += 1
            edges.append(edge)
        if offset != len(payload):
            raise FormatError("level payload has trailing bytes")
    if len(edges) - 1 != expected:
        raise FormatError(
            f"dump header promises {expected} nodes, read {len(edges) - 1}"
        )
    functions: Dict[str, BDDFunction] = {}
    for _ in range(header.num_roots):
        ref = read_varint(fileobj)
        length = read_varint(fileobj)
        raw = fileobj.read(length)
        if len(raw) != length:
            raise FormatError("truncated root name")
        functions[decode_name(raw)] = BDDFunction(manager, edge_for(ref))
    return manager, functions
