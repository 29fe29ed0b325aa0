"""Streaming writer/reader for the levelized binary format.

Both halves work one CVO level at a time over the layout defined in
:mod:`repro.io.format` (header / level blocks / roots trailer):

* :class:`LevelStreamWriter` buffers exactly one level's records before
  flushing its block (each block carries its payload byte length), so
  writing a forest never holds more than a level of encoded bytes.
* :class:`LevelStreamReader` exposes :meth:`iter_levels` for sequential
  record iteration and :meth:`load_into` for incremental reconstruction
  through a :class:`~repro.io.migrate.ForestRebuilder` — nodes enter the
  target manager as their records stream in, with on-the-fly R1/R2/R4
  re-reduction.
* :func:`scan` reads only the header and the per-block lengths (seeking
  past record payloads), returning a :class:`FileInfo` — the cheap
  "what's in this file" primitive the level directory exists for.

The v2 extension is handled transparently from the header flags: under
``FLAG_COMPRESSED`` the writer delta-codes child refs and deflates each
block through one shared zlib stream, and the reader undoes both, so
record consumers always see plain packed refs.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.io.format import (
    FLAG_COMPRESSED,
    LITERAL_TAG,
    FormatError,
    Header,
    PayloadCompressor,
    PayloadDecompressor,
    decode_name,
    decode_records,
    delta_ref,
    encode_chain,
    encode_literal,
    encode_varint,
    read_header,
    read_varint,
    undelta_ref,
)
from repro.io.migrate import ForestRebuilder, Rename


class LevelStreamWriter:
    """Writes a dump level by level; one level buffered at a time."""

    def __init__(self, fileobj, header: Header) -> None:
        self._file = fileobj
        self._header = header
        self._pending = dict(header.levels)  # position -> expected count
        self.compressed = bool(header.flags & FLAG_COMPRESSED)
        # One deflate stream shared by every level block (dictionary
        # carries over; blocks stay decodable in file order).
        self._compressor = PayloadCompressor() if self.compressed else None
        fileobj.write(header.encode())
        self._next_id = 1
        self._roots_written = False

    def begin_level(self, position: int) -> "_LevelBuffer":
        """Open the block for ``position`` (declared in the header)."""
        if position not in self._pending:
            raise FormatError(f"level {position} not declared in the header")
        return _LevelBuffer(self, position, self._pending.pop(position))

    def write_roots(self, roots: List[Tuple[int, str]]) -> None:
        """Write the trailer: ``(edge ref, name)`` per root."""
        if self._roots_written:
            raise FormatError("roots trailer already written")
        if self._pending:
            raise FormatError(
                f"levels {sorted(self._pending)} declared but never written"
            )
        if len(roots) != self._header.num_roots:
            raise FormatError(
                f"header declares {self._header.num_roots} roots, got {len(roots)}"
            )
        out = bytearray()
        for ref, name in roots:
            encode_varint(ref, out)
            raw = name.encode("utf-8")
            encode_varint(len(raw), out)
            out.extend(raw)
        self._file.write(bytes(out))
        self._roots_written = True

    def allocate_id(self) -> int:
        """Reserve the next dense node id (children before parents)."""
        node_id = self._next_id
        self._next_id += 1
        return node_id


class _LevelBuffer:
    """One open level block: records accumulate, then flush as a unit."""

    def __init__(self, writer: LevelStreamWriter, position: int, count: int) -> None:
        self._writer = writer
        self.position = position
        self._expected = count
        self._written = 0
        self._payload = bytearray()

    def write_literal(self) -> int:
        """Append a literal record; returns the node's file id."""
        node_id = self._allocate()
        encode_literal(self._payload)
        return node_id

    def write_chain(self, sv_delta: int, neq_ref: int, eq_ref: int) -> int:
        """Append a plain chain record; returns the node's file id."""
        writer = self._writer
        node_id = self._allocate()
        if writer.compressed:
            neq_ref = delta_ref(neq_ref, node_id)
            eq_ref = delta_ref(eq_ref, node_id)
        encode_chain(sv_delta, neq_ref, eq_ref, self._payload)
        return node_id

    def _allocate(self) -> int:
        self._written += 1
        if self._written > self._expected:
            raise FormatError(
                f"level {self.position} overflows its declared count"
            )
        return self._writer.allocate_id()

    def close(self) -> None:
        """Flush the block (header + payload); counts must match."""
        if self._written != self._expected:
            raise FormatError(
                f"level {self.position} wrote {self._written} of "
                f"{self._expected} declared records"
            )
        payload = bytes(self._payload)
        compressor = self._writer._compressor
        if compressor is not None:
            payload = compressor.compress(payload)
        head = bytearray()
        encode_varint(self.position, head)
        encode_varint(self._written, head)
        encode_varint(len(payload), head)
        self._writer._file.write(bytes(head))
        self._writer._file.write(payload)


class LevelStreamReader:
    """Sequential reader over a dump's level blocks and roots trailer."""

    def __init__(self, fileobj) -> None:
        self._file = fileobj
        self.header = read_header(fileobj)
        self.compressed = bool(self.header.flags & FLAG_COMPRESSED)
        self._decompressor = PayloadDecompressor() if self.compressed else None
        self._levels_read = 0
        self._next_id = 1

    def iter_levels(self) -> Iterator[Tuple[int, list]]:
        """Yield ``(position, records)`` per level block, file order.

        Records are raw ``(sv_delta, neq_ref, eq_ref)`` tuples (see
        :func:`repro.io.format.decode_records`).  Compressed payloads
        are inflated and their delta-coded refs rewritten back to plain
        packed refs here, so consumers never see the wire transforms.
        """
        while self._levels_read < len(self.header.levels):
            position = read_varint(self._file)
            count = read_varint(self._file)
            nbytes = read_varint(self._file)
            payload = self._file.read(nbytes)
            if len(payload) != nbytes:
                raise FormatError(f"truncated level block at position {position}")
            declared_pos, declared_count = self.header.levels[self._levels_read]
            if (position, count) != (declared_pos, declared_count):
                raise FormatError(
                    f"level block ({position}, {count}) disagrees with the "
                    f"header directory ({declared_pos}, {declared_count})"
                )
            self._levels_read += 1
            if self._decompressor is not None:
                payload = self._decompressor.decompress(payload, count)
            records = decode_records(payload, count)
            if self.compressed:
                records = self._undelta(records)
            yield position, records

    def _undelta(self, records: list) -> list:
        """Rewrite a level's delta-coded refs to plain packed refs."""
        out = []
        for sv_delta, neq_ref, eq_ref in records:
            node_id = self._next_id
            self._next_id += 1
            if sv_delta == LITERAL_TAG:
                out.append((LITERAL_TAG, 0, 0))
                continue
            out.append(
                (
                    sv_delta,
                    undelta_ref(neq_ref, node_id),
                    undelta_ref(eq_ref, node_id),
                )
            )
        return out

    def read_roots(self) -> List[Tuple[int, str]]:
        """Read the roots trailer (after all levels have been iterated)."""
        if self._levels_read < len(self.header.levels):
            # Drain any remaining level blocks first.
            for _ in self.iter_levels():
                pass
        roots = []
        for _ in range(self.header.num_roots):
            ref = read_varint(self._file)
            length = read_varint(self._file)
            raw = self._file.read(length)
            if len(raw) != length:
                raise FormatError("truncated root name")
            roots.append((ref, decode_name(raw)))
        return roots

    def load_into(self, manager, rename: Rename = None):
        """Incrementally rebuild the forest inside ``manager``.

        Returns ``(rebuilder, roots)`` where ``roots`` is the list of
        ``(edge, name)`` pairs resolved in the target manager.
        """
        rebuilder = ForestRebuilder(
            manager, self.header.ordered_names(), rename=rename
        )
        # The rebuilder's replay table holds bare edges; defer automatic
        # GC until the caller has wrapped (or referenced) the roots.
        with manager.defer_gc():
            for position, records in self.iter_levels():
                for sv_delta, neq_ref, eq_ref in records:
                    rebuilder.add_record(position, sv_delta, neq_ref, eq_ref)
            roots = [
                (rebuilder.edge_for(ref), name) for ref, name in self.read_roots()
            ]
        return rebuilder, roots


class FileInfo:
    """Header-level summary of a dump (no node records decoded)."""

    __slots__ = ("header", "level_bytes", "file_bytes")

    def __init__(self, header: Header, level_bytes: List[int], file_bytes: int) -> None:
        self.header = header
        self.level_bytes = level_bytes  # payload bytes per level, file order
        self.file_bytes = file_bytes

    @property
    def node_count(self) -> int:
        """Total stored node records (from the header)."""
        return self.header.node_count

    @property
    def payload_bytes(self) -> int:
        """Bytes of node-record payload across all level blocks."""
        return sum(self.level_bytes)

    @property
    def bytes_per_node(self) -> float:
        """File bytes divided by node records (compactness metric)."""
        count = self.node_count
        return self.file_bytes / count if count else float(self.file_bytes)

    def summary(self) -> dict:
        """The headline numbers as a plain dict (for reports/CLIs)."""
        return {
            "variables": len(self.header.names),
            "roots": self.header.num_roots,
            "levels": len(self.header.levels),
            "nodes": self.node_count,
            "file_bytes": self.file_bytes,
            "payload_bytes": self.payload_bytes,
            "bytes_per_node": round(self.bytes_per_node, 2),
        }


def scan(source) -> FileInfo:
    """Scan a dump without decoding node records.

    ``source`` is a path or a seekable binary file object.  Reads the
    header and each level block's small prefix, seeking past payloads
    (compressed blocks skip the same way — the ``nbytes`` prefix always
    counts stored bytes).
    """
    if hasattr(source, "read"):
        return _scan_file(source)
    with open(source, "rb") as fileobj:
        return _scan_file(fileobj)


def _scan_file(fileobj) -> FileInfo:
    header = read_header(fileobj)
    level_bytes = []
    for declared_pos, declared_count in header.levels:
        position = read_varint(fileobj)
        count = read_varint(fileobj)
        nbytes = read_varint(fileobj)
        if (position, count) != (declared_pos, declared_count):
            raise FormatError(
                f"level block ({position}, {count}) disagrees with the "
                f"header directory ({declared_pos}, {declared_count})"
            )
        level_bytes.append(nbytes)
        fileobj.seek(nbytes, 1)
    trailer_start = fileobj.tell()
    fileobj.seek(0, 2)
    file_bytes = fileobj.tell()
    if file_bytes < trailer_start:
        raise FormatError("file shorter than its level directory claims")
    return FileInfo(header, level_bytes, file_bytes)
