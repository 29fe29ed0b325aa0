"""The levelized ``.bbdd`` container: layout constants and codecs.

A ``.bbdd`` file stores a shared forest of root edges level-by-level in
CVO order, bottom level first, so a sequential reader always sees a
node's children before the node itself.  All integers are unsigned
LEB128 varints (7 payload bits per byte, high bit = continuation).

Layout::

    File       = Header LevelBlock* RootsBlock
    Header     = magic "BBDD" (4 bytes)
                 version   varint          -- 1, or 2 when any v2 flag set
                 flags     varint          -- FLAG_* bits below
                 nvars     varint
                 names     nvars x (varint len, utf-8 bytes)
                 order     nvars x varint  -- variable indices, root
                                           -- position 0 to bottom
                 nroots    varint
                 nlevels   varint          -- non-empty levels only
                 directory nlevels x (varint position, varint count)
    LevelBlock = position  varint          -- CVO position of the level's PV
                 count     varint
                 nbytes    varint          -- byte length of the records
                                           -- payload (enables skipping)
                 records   count x NodeRecord, or count x ShannonRecord
                           when the header sets FLAG_BDD
    NodeRecord = svtag     varint          -- 0: literal (R4) node with the
                                           -- fixed sink children; else
                                           -- position(SV) - position(PV)
                 [neq      varint]         -- couples only: edge ref
                 [eq       varint]         -- couples only: edge ref
    ShannonRecord = then   varint          -- edge ref
                    else   varint          -- edge ref
    RootsBlock = nroots x (varint edge ref, varint name len, utf-8 name)

An *edge ref* packs a node id and its complement attribute as
``(id << 1) | attr``.  Node id 0 is the 1-sink; nodes written to the
file take ids 1, 2, ... in file order, so every reference points
strictly backwards.  Level blocks are written deepest CVO position
first.  The header's level directory carries per-level node counts, so
a file can be size-estimated from the header alone; each level block
additionally records its payload byte length, so a scanner can skip
from block to block without decoding node records.

Both record grammars decode to one *row* form, ``(position,
sv_position, t_ref, f_ref)`` (see :func:`decode_rows`): a couple's
``t``/``f`` are its ``neq``/``eq`` edges, a Shannon node's its
``then``/``else`` edges, and a literal is the single-variable row
whose children are the constants ``(TRUE, FALSE)``, refs ``(0, 1)``.

Version 2 (compression)
-----------------------
Version 2 is version 1 plus the optional ``FLAG_COMPRESSED``
extension; writers keep emitting ``version = 1`` when it is not set.
Flag bit ``0x2`` is reserved: releases up to 1.3.x set it on
chain-reduced dumps, and :func:`read_header` rejects any file that
carries it.

``FLAG_COMPRESSED`` keeps the block structure (positions, counts and
the skippable ``nbytes`` prefix stay plain varints) but transforms the
record payloads two ways, after Hansen, Rao & Tiedemann:

* child refs are **delta-coded** against the record's own sequential
  file id: ``delta = id - child_id`` (always >= 1; the sink's delta is
  the full id), packed as ``(delta << 1) | attr``, which keeps local
  references to one or two varint bytes regardless of file size;
* each level payload runs through one **shared** zlib deflate stream
  (``Z_SYNC_FLUSH`` at block boundaries), so the compression dictionary
  persists across levels while blocks stay individually decodable in
  file order.

The roots trailer and the header are never compressed.
"""

from __future__ import annotations

import zlib

from typing import List, Optional, Tuple

from repro.core.exceptions import BBDDError

MAGIC = b"BBDD"
FORMAT_VERSION = 1

#: Highest format version this codec can emit (used only when a v2
#: feature flag is set; flagless dumps stay at :data:`FORMAT_VERSION`).
FORMAT_VERSION_V2 = 2

#: Format versions :func:`read_header` accepts.
SUPPORTED_VERSIONS = frozenset({1, 2})

#: Header flag bit: the dump holds baseline-BDD Shannon records
#: instead of BBDD couple and literal records.
FLAG_BDD = 1

#: Reserved header flag bit: chain-reduced span records, written by
#: releases up to 1.3.x and rejected by :func:`read_header`.
FLAG_CHAIN = 2

#: Why a chain-reduced dump fails to load, and how to convert it.
CHAIN_DUMP_REJECTED = (
    "chain-reduced dumps are no longer read; load the file with a 1.3.x "
    "release into a plain manager and dump it again"
)

#: Header flag bit (v2): level payloads are delta-coded and deflated
#: through a shared zlib stream.
FLAG_COMPRESSED = 4

#: Flags that force the header version up to :data:`FORMAT_VERSION_V2`.
V2_FLAGS = FLAG_COMPRESSED

#: Node id of the 1-sink in every file.
SINK_ID = 0

#: svtag value marking a literal (R4) node record.
LITERAL_TAG = 0

#: One node as it crosses a manager boundary: ``(position, sv_position,
#: t_ref, f_ref)`` — see :mod:`repro.io.migrate`.
Row = Tuple[int, Optional[int], int, int]


def version_for_flags(flags: int) -> int:
    """The lowest header version able to express ``flags``."""
    return FORMAT_VERSION_V2 if flags & V2_FLAGS else FORMAT_VERSION


class FormatError(BBDDError):
    """A dump is malformed, truncated, or of an unsupported version."""


# ----------------------------------------------------------------------
# varints (unsigned LEB128)
# ----------------------------------------------------------------------


def encode_varint(value: int, out: bytearray) -> None:
    """Append ``value`` to ``out`` as an unsigned LEB128 varint."""
    if value < 0:
        raise FormatError(f"varints are unsigned, got {value}")
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_varint(fileobj) -> int:
    """Read one varint from a binary file object."""
    result = 0
    shift = 0
    while True:
        byte = fileobj.read(1)
        if not byte:
            raise FormatError("truncated varint")
        b = byte[0]
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result
        shift += 7


def decode_name(raw: bytes) -> str:
    """Decode a stored name, surfacing bad bytes as :class:`FormatError`."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"stored name is not valid UTF-8: {exc}") from None


def unpack_ref(ref: int) -> Tuple[int, bool]:
    """Split an edge ref back into ``(node id, complement attribute)``."""
    return ref >> 1, bool(ref & 1)


# ----------------------------------------------------------------------
# header
# ----------------------------------------------------------------------


class Header:
    """Decoded file header: variables, order, root count, level directory."""

    __slots__ = ("version", "flags", "names", "order", "num_roots", "levels")

    def __init__(
        self,
        names: List[str],
        order: List[int],
        num_roots: int,
        levels: List[Tuple[int, int]],
        version: int = FORMAT_VERSION,
        flags: int = 0,
    ) -> None:
        self.version = version
        self.flags = flags
        self.names = list(names)
        self.order = list(order)
        self.num_roots = num_roots
        self.levels = list(levels)  # (position, node count), deepest first

    @property
    def node_count(self) -> int:
        """Total node records declared by the per-level counts."""
        return sum(count for _pos, count in self.levels)

    def ordered_names(self) -> List[str]:
        """Variable names root to bottom (the dump's CVO)."""
        return [self.names[v] for v in self.order]

    def encode(self) -> bytes:
        """Serialize the header (magic, version, flags, names, order)."""
        out = bytearray(MAGIC)
        encode_varint(self.version, out)
        encode_varint(self.flags, out)
        encode_varint(len(self.names), out)
        for name in self.names:
            raw = name.encode("utf-8")
            encode_varint(len(raw), out)
            out.extend(raw)
        if sorted(self.order) != list(range(len(self.names))):
            raise FormatError("order must be a permutation of the variables")
        for var in self.order:
            encode_varint(var, out)
        encode_varint(self.num_roots, out)
        encode_varint(len(self.levels), out)
        for position, count in self.levels:
            encode_varint(position, out)
            encode_varint(count, out)
        return bytes(out)


def read_header(fileobj) -> Header:
    """Read and validate the header at the current position of ``fileobj``."""
    source = getattr(fileobj, "name", None)
    shown = f"{source}: " if isinstance(source, str) else ""
    magic = fileobj.read(len(MAGIC))
    if magic != MAGIC:
        raise FormatError(f"{shown}bad magic {magic!r}; not a BBDD dump")
    version = read_varint(fileobj)
    if version not in SUPPORTED_VERSIONS:
        supported = ", ".join(str(v) for v in sorted(SUPPORTED_VERSIONS))
        raise FormatError(
            f"{shown}unsupported format version {version} "
            f"(this reader supports versions {supported})"
        )
    flags = read_varint(fileobj)
    if flags & FLAG_CHAIN:
        raise FormatError(f"{shown}{CHAIN_DUMP_REJECTED}")
    if version < FORMAT_VERSION_V2 and flags & V2_FLAGS:
        raise FormatError(
            f"{shown}version {version} header carries v2 flags {flags:#x}"
        )
    nvars = read_varint(fileobj)
    names = []
    for _ in range(nvars):
        length = read_varint(fileobj)
        raw = fileobj.read(length)
        if len(raw) != length:
            raise FormatError("truncated variable name")
        names.append(decode_name(raw))
    order = [read_varint(fileobj) for _ in range(nvars)]
    if sorted(order) != list(range(nvars)):
        raise FormatError("order is not a permutation of the variables")
    num_roots = read_varint(fileobj)
    nlevels = read_varint(fileobj)
    levels = []
    for _ in range(nlevels):
        position = read_varint(fileobj)
        count = read_varint(fileobj)
        levels.append((position, count))
    return Header(names, order, num_roots, levels, version=version, flags=flags)


# ----------------------------------------------------------------------
# node records
# ----------------------------------------------------------------------


def encode_rows(rows, first_id: int, shannon: bool, delta: bool) -> bytes:
    """Encode one level block's rows; the inverse of :func:`decode_rows`.

    ``first_id`` is the file id of the block's first record, ``shannon``
    picks the grammar (``FLAG_BDD``) and ``delta`` delta-codes the child
    refs (``FLAG_COMPRESSED``).  A grammar that cannot hold a row — a
    couple in Shannon records, a non-literal single-variable node in
    couple records — raises :class:`FormatError`.
    """
    out = bytearray()
    for node_id, (position, sv_position, t_ref, f_ref) in enumerate(rows, first_id):
        if shannon:
            if sv_position is not None:
                raise FormatError("Shannon records cannot hold a couple")
        elif sv_position is None:
            if t_ref != 0 or f_ref != 1:
                raise FormatError(
                    "couple records hold literals and couples only; a "
                    "forest with Shannon nodes needs FLAG_BDD"
                )
            out.append(LITERAL_TAG)
            continue
        else:
            encode_varint(sv_position - position, out)
        if delta:
            t_ref = delta_ref(t_ref, node_id)
            f_ref = delta_ref(f_ref, node_id)
        encode_varint(t_ref, out)
        encode_varint(f_ref, out)
    return bytes(out)


def _varints(payload: bytes) -> List[int]:
    """Every varint of ``payload``, in order."""
    values = []
    append = values.append
    value = shift = 0
    for byte in payload:
        if byte & 0x80:
            value |= (byte & 0x7F) << shift
            shift += 7
        else:
            append(value | byte << shift)
            value = shift = 0
    if shift:
        raise FormatError("truncated varint")
    return values


def decode_rows(
    payload: bytes,
    count: int,
    position: int,
    shannon: bool = False,
    first_id: Optional[int] = None,
) -> List[Row]:
    """Decode one level block of ``count`` records into rows.

    A row is ``(position, sv_position, t_ref, f_ref)`` with plain packed
    refs; ``sv_position`` is None for a single-variable record, and a
    literal's refs are the constants ``(0, 1)``.  ``shannon`` picks the
    grammar (``FLAG_BDD``); ``first_id`` is the file id of the block's
    first record when its refs are delta-coded (``FLAG_COMPRESSED``).
    """
    values = _varints(payload)
    rows: List[Row] = []
    append = rows.append
    i = 0
    try:
        for k in range(count):
            if shannon:
                sv_position = None
            else:
                tag = values[i]
                i += 1
                if tag == LITERAL_TAG:
                    append((position, None, 0, 1))
                    continue
                sv_position = position + tag
            t_ref = values[i]
            f_ref = values[i + 1]
            i += 2
            if first_id is not None:
                t_ref = undelta_ref(t_ref, first_id + k)
                f_ref = undelta_ref(f_ref, first_id + k)
            append((position, sv_position, t_ref, f_ref))
    except IndexError:
        raise FormatError(
            f"level payload at position {position} holds fewer than "
            f"{count} records"
        ) from None
    if i != len(values):
        raise FormatError(
            f"level payload has {len(values) - i} trailing values"
        )
    return rows


# ----------------------------------------------------------------------
# compressed payloads (FLAG_COMPRESSED)
# ----------------------------------------------------------------------


def delta_ref(ref: int, node_id: int) -> int:
    """Delta-code an edge ref against the referencing record's file id."""
    child_id = ref >> 1
    delta = node_id - child_id
    if delta < 1:
        raise FormatError(
            f"edge ref from node {node_id} does not point backwards"
        )
    return (delta << 1) | (ref & 1)


def undelta_ref(dref: int, node_id: int) -> int:
    """Invert :func:`delta_ref`; validates the ref points backwards."""
    delta = dref >> 1
    if not 1 <= delta <= node_id:
        raise FormatError(
            f"delta ref {delta} out of range at node {node_id}"
        )
    return ((node_id - delta) << 1) | (dref & 1)


class PayloadCompressor:
    """One shared deflate stream for all of a file's level payloads.

    ``Z_SYNC_FLUSH`` at block boundaries keeps each block decodable
    as soon as it is read (in file order) while the dictionary built
    on earlier levels keeps compressing later ones.
    """

    __slots__ = ("_stream",)

    def __init__(self, level: int = 9) -> None:
        self._stream = zlib.compressobj(level)

    def compress(self, payload: bytes) -> bytes:
        stream = self._stream
        return stream.compress(payload) + stream.flush(zlib.Z_SYNC_FLUSH)


#: Most bytes one node record can take: three varints
#: of at most ten bytes each (ten LEB128 bytes hold any 64-bit value,
#: and no valid record field is wider).  Shannon records take two.
MAX_RECORD_BYTES = 30


def inflate_records(stream, blob: bytes, count: int) -> bytes:
    """Inflate one level payload of ``count`` records through ``stream``.

    ``stream`` is a ``zlib.decompressobj``.  Inflation stops one byte
    past the most that ``count`` records can take, so a small crafted
    block cannot expand without bound before its records are decoded;
    overshooting that bound raises :class:`FormatError`.
    """
    limit = MAX_RECORD_BYTES * count
    try:
        payload = stream.decompress(blob, limit + 1)
    except zlib.error as exc:
        raise FormatError(f"corrupt compressed payload: {exc}") from None
    if len(payload) > limit or stream.unconsumed_tail:
        raise FormatError(
            f"compressed payload inflates past {limit} bytes, the most "
            f"{count} node records can take"
        )
    return payload


class PayloadDecompressor:
    """Inverse of :class:`PayloadCompressor` — feed blocks in file order."""

    __slots__ = ("_stream",)

    def __init__(self) -> None:
        self._stream = zlib.decompressobj()

    def decompress(self, blob: bytes, count: int) -> bytes:
        """Inflate the next block, which declares ``count`` records."""
        return inflate_records(self._stream, blob, count)
