"""Level blocks of ``.bbdd`` containers: writer, reader and scanner.

All three work one CVO level at a time over the layout defined in
:mod:`repro.io.format` (header / level blocks / roots trailer):

* :func:`write_levels` encodes a forest's rows — the one node form of
  :mod:`repro.io.migrate` — block by block in the record grammar the
  header's ``FLAG_BDD`` picks.
* :class:`LevelStreamReader` yields each level block back as rows,
  whichever the grammar, so a loader replays a level as soon as it is
  read.
* :func:`scan` reads only the header and the per-block lengths (seeking
  past record payloads), returning a :class:`FileInfo` — the cheap
  "what's in this file" primitive the level directory exists for.

The v2 extension is handled transparently from the header flags: under
``FLAG_COMPRESSED`` the writer delta-codes child refs and deflates each
block through one shared zlib stream, and the reader undoes both, so
rows always carry plain packed refs.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.io.format import (
    FLAG_BDD,
    FLAG_COMPRESSED,
    FormatError,
    Header,
    PayloadCompressor,
    PayloadDecompressor,
    Row,
    decode_name,
    decode_rows,
    encode_rows,
    encode_varint,
    read_header,
    read_varint,
)


def write_levels(fileobj, header: Header, levels, roots) -> None:
    """Write a container: ``header``, one block per ``(position, rows)``
    level (in the order the header's directory lists them) and the
    ``(name, ref)`` roots trailer."""
    shannon = bool(header.flags & FLAG_BDD)
    compressor = PayloadCompressor() if header.flags & FLAG_COMPRESSED else None
    fileobj.write(header.encode())
    first_id = 1
    for position, rows in levels:
        payload = encode_rows(rows, first_id, shannon, compressor is not None)
        first_id += len(rows)
        if compressor is not None:
            payload = compressor.compress(payload)
        head = bytearray()
        for value in (position, len(rows), len(payload)):
            encode_varint(value, head)
        fileobj.write(bytes(head))
        fileobj.write(payload)
    trailer = bytearray()
    for name, ref in roots:
        raw = name.encode("utf-8")
        encode_varint(ref, trailer)
        encode_varint(len(raw), trailer)
        trailer.extend(raw)
    fileobj.write(bytes(trailer))


def _block_prefix(fileobj, declared: Tuple[int, int]) -> Tuple[int, int, int]:
    """Read a level block's ``(position, count, nbytes)`` prefix and
    check it against the header directory's entry ``declared``."""
    position = read_varint(fileobj)
    count = read_varint(fileobj)
    nbytes = read_varint(fileobj)
    if (position, count) != declared:
        raise FormatError(
            f"level block ({position}, {count}) disagrees with the "
            f"header directory ({declared[0]}, {declared[1]})"
        )
    return position, count, nbytes


class LevelStreamReader:
    """Sequential reader over a dump's level blocks and roots trailer."""

    def __init__(self, fileobj) -> None:
        self._file = fileobj
        self.header = read_header(fileobj)
        flags = self.header.flags
        #: Whether the records are Shannon nodes (``FLAG_BDD``).
        self.shannon = bool(flags & FLAG_BDD)
        self._decompressor = (
            PayloadDecompressor() if flags & FLAG_COMPRESSED else None
        )
        self._levels_read = 0
        self._next_id = 1

    def iter_levels(self) -> Iterator[Tuple[int, List[Row]]]:
        """Yield ``(position, rows)`` per level block, in file order."""
        levels = self.header.levels
        while self._levels_read < len(levels):
            position, count, nbytes = _block_prefix(
                self._file, levels[self._levels_read]
            )
            payload = self._file.read(nbytes)
            if len(payload) != nbytes:
                raise FormatError(f"truncated level block at position {position}")
            self._levels_read += 1
            first_id = None
            if self._decompressor is not None:
                payload = self._decompressor.decompress(payload, count)
                first_id = self._next_id
            self._next_id += count
            yield position, decode_rows(
                payload, count, position, self.shannon, first_id
            )

    def read_roots(self) -> List[Tuple[str, int]]:
        """Read the roots trailer as ``(name, edge ref)`` pairs.

        Any level blocks not yet iterated are read (and checked) first.
        """
        for _ in self.iter_levels():
            pass
        roots = []
        for _ in range(self.header.num_roots):
            ref = read_varint(self._file)
            length = read_varint(self._file)
            raw = self._file.read(length)
            if len(raw) != length:
                raise FormatError("truncated root name")
            roots.append((decode_name(raw), ref))
        return roots


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
    for declared in header.levels:
        _position, _count, nbytes = _block_prefix(fileobj, declared)
        level_bytes.append(nbytes)
        fileobj.seek(nbytes, 1)
    trailer_start = fileobj.tell()
    fileobj.seek(0, 2)
    file_bytes = fileobj.tell()
    if file_bytes < trailer_start:
        raise FormatError("file shorter than its level directory claims")
    return FileInfo(header, level_bytes, file_bytes)
