"""Levelized node files: the external-memory function representation.

A :class:`Levelized` is one function's (or one loaded forest's) node
file, in exactly the record shape of the on-disk format
(:mod:`repro.io.format`): per CVO level, deepest level first, records
``(sv_delta, neq_ref, eq_ref)`` with ``sv_delta == 0`` marking a
literal (R4) node, refs packing ``(id << 1) | attr`` and id 0 the
1-sink.  Ids are dense, assigned bottom-up, so every reference points
to an earlier id — a sequential (streaming) reader always sees children
first.

Representations are immutable after construction and **canonical**:
within each level the records are unique (rule R1) and sorted by their
rewritten key, and ids are assigned in that order, so two equal
functions (under one manager) produce byte-identical representations —
equality reduces to comparing canonical signatures.

Each level block is independently *spillable*: its records can be
encoded to a spill file (the varint codec of :mod:`repro.io.format`,
deflated per block — spill files are private to one process, so the
compression is unconditional) and dropped from RAM, then transparently
reloaded on access.  The manager's :class:`SpillStore` accounts
residency against the ``node_budget``; ``spill_bytes`` counts the
compressed bytes actually written.
"""

from __future__ import annotations

import os
import tempfile
import weakref
import zlib
from bisect import bisect_right
from hashlib import blake2b
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.io.format import FormatError, decode_rows, encode_rows, inflate_records

Record = Tuple[int, int, int]  # (sv_delta, neq_ref, eq_ref); literal = (0, 0, 0)


class SpillStore:
    """Spill-file factory + residency accounting shared by one manager.

    ``resident`` counts node records currently held in RAM across every
    representation (and in-flight builder) of the manager;
    ``peak_resident`` is its high-water mark — the number the
    ``node_budget`` bench gates check.
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self._dir = directory
        self._seq = 0
        self.tick = 0
        self.resident = 0
        self.peak_resident = 0
        self.spilled_nodes = 0
        self.spill_writes = 0
        self.spill_bytes = 0
        self.level_loads = 0
        self.runs_spilled = 0
        self.merge_passes = 0

    @property
    def directory(self) -> str:
        if self._dir is None:
            self._dir = tempfile.mkdtemp(prefix="repro-xmem-")
        return self._dir

    def new_path(self, tag: str) -> str:
        self._seq += 1
        return os.path.join(self.directory, f"{tag}-{self._seq:08d}.bin")

    def note(self, delta: int) -> None:
        self.resident += delta
        if self.resident > self.peak_resident:
            self.peak_resident = self.resident

    def next_tick(self) -> int:
        self.tick += 1
        return self.tick


class _LevelBlock:
    """One level of a representation: resident records or a spill file."""

    __slots__ = ("position", "count", "records", "spill_path")

    def __init__(self, position: int, records: List[Record]) -> None:
        self.position = position
        self.count = len(records)
        self.records: Optional[List[Record]] = records
        self.spill_path: Optional[str] = None

    def encode(self) -> bytes:
        pos = self.position
        rows = [
            (pos, pos + sv_delta, neq_ref, eq_ref) if sv_delta else (pos, None, 0, 1)
            for sv_delta, neq_ref, eq_ref in self.records
        ]
        return encode_rows(rows, 1, shannon=False, delta=False)


def _cleanup_rep(store: SpillStore, state: dict) -> None:
    """Finalizer: release residency and delete this rep's spill files."""
    store.resident -= state["resident"]
    for path in state["paths"]:
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass


class Levelized:
    """An immutable levelized node file with dense bottom-up ids."""

    __slots__ = (
        "store",
        "levels",
        "starts",
        "size",
        "roots",
        "last_use",
        "_state",
        "_handles",
        "_sigs",
        "_supp",
        "__weakref__",
    )

    def __init__(
        self,
        store: SpillStore,
        levels: List[Tuple[int, List[Record]]],
        roots: List[int],
    ) -> None:
        self.store = store
        self.levels = [_LevelBlock(pos, recs) for pos, recs in levels]
        starts = []
        next_id = 1
        for block in self.levels:
            starts.append(next_id)
            next_id += block.count
        self.starts = starts
        self.size = next_id - 1
        self.roots = list(roots)
        self.last_use = store.next_tick()
        self._state = {"resident": self.size, "paths": []}
        store.note(self.size)
        weakref.finalize(self, _cleanup_rep, store, self._state)
        self._handles = weakref.WeakValueDictionary()
        self._sigs: Dict[int, bytes] = {}
        self._supp: Dict[int, frozenset] = {}

    # -- record access ---------------------------------------------------

    def _level_index(self, node_id: int) -> int:
        return bisect_right(self.starts, node_id) - 1

    def _ensure(self, index: int) -> List[Record]:
        block = self.levels[index]
        records = block.records
        if records is None:
            with open(block.spill_path, "rb") as fileobj:
                payload = fileobj.read()
            stream = zlib.decompressobj()
            payload = inflate_records(stream, payload, block.count)
            if not stream.eof:
                # A spill file is one whole deflate stream; without its
                # end (and adler32 trailer) it was cut short.
                raise FormatError(
                    f"spill file {block.spill_path} is truncated: its "
                    "compressed stream has no end"
                )
            records = [
                (sv - pos, t_ref, f_ref) if sv is not None else (0, 0, 0)
                for pos, sv, t_ref, f_ref in decode_rows(
                    payload, block.count, block.position
                )
            ]
            block.records = records
            store = self.store
            store.level_loads += 1
            store.note(block.count)
            self._state["resident"] += block.count
        return records

    def full_record(self, node_id: int) -> Tuple[int, int, int, int]:
        """``(position, sv_delta, neq_ref, eq_ref)`` of node ``node_id``."""
        index = self._level_index(node_id)
        block = self.levels[index]
        sv_delta, neq_ref, eq_ref = self._ensure(index)[node_id - self.starts[index]]
        self.last_use = self.store.next_tick()
        return (block.position, sv_delta, neq_ref, eq_ref)

    def pos_of(self, node_id: int) -> int:
        return self.levels[self._level_index(node_id)].position

    def iter_records(self):
        """Yield ``(node_id, position, sv_delta, neq_ref, eq_ref)`` in id
        order — deepest level first, i.e. children before parents."""
        node_id = 0
        for index, block in enumerate(self.levels):
            for record in self._ensure(index):
                node_id += 1
                yield (node_id, block.position, record[0], record[1], record[2])
        self.last_use = self.store.next_tick()

    # -- spilling --------------------------------------------------------

    def spill_block(self, index: int) -> int:
        """Drop one resident level block to disk; returns freed records.

        A block's spill file is written once (representations are
        immutable) and reused on later spills of the same block.  The
        column producer (:meth:`repro.xmem.manager.XmemManager.
        freeze_export`) uses this to drop levels behind the sweep, so a
        sweep over a beyond-budget representation stays within the
        residency budget.
        """
        block = self.levels[index]
        if block.records is None or block.count == 0:
            return 0
        store = self.store
        if block.spill_path is None:
            path = store.new_path("rep")
            payload = zlib.compress(block.encode(), 6)
            with open(path, "wb") as fileobj:
                fileobj.write(payload)
            block.spill_path = path
            self._state["paths"].append(path)
            store.spill_writes += 1
            store.spilled_nodes += block.count
            store.spill_bytes += len(payload)
        block.records = None
        store.note(-block.count)
        self._state["resident"] -= block.count
        return block.count

    def spill(self) -> int:
        """Drop every resident level block to disk; returns freed records."""
        return sum(self.spill_block(index) for index in range(len(self.levels)))

    @property
    def resident_count(self) -> int:
        return self._state["resident"]

    # -- reachability ----------------------------------------------------

    def reachable_ids(self, ids: Iterable[int]) -> Set[int]:
        seen: Set[int] = set()
        stack = [i for i in ids if i]
        while stack:
            node_id = stack.pop()
            if node_id in seen:
                continue
            seen.add(node_id)
            _pos, sv_delta, neq_ref, eq_ref = self.full_record(node_id)
            if sv_delta:
                for ref in (neq_ref, eq_ref):
                    child = ref >> 1
                    if child and child not in seen:
                        stack.append(child)
        return seen

    def support_of(self, node_id: int, var_at) -> frozenset:
        """Support variable indices of the function rooted at ``node_id``."""
        cached = self._supp.get(node_id)
        if cached is None:
            vars_: Set[int] = set()
            for nid in self.reachable_ids([node_id]):
                pos, sv_delta, _neq, _eq = self.full_record(nid)
                vars_.add(var_at[pos])
                if sv_delta:
                    vars_.add(var_at[pos + sv_delta])
            cached = frozenset(vars_)
            self._supp[node_id] = cached
        return cached

    def digest(self, node_id: int) -> bytes:
        """Content-addressed digest of the sub-DAG at ``node_id``.

        A bottom-up Merkle hash over the canonical structure: a node's
        digest is a 128-bit blake2b over its level position, couple
        shape and its children's digests, so it is independent of the
        representation's id numbering.  Because representations are
        canonical, two nodes (possibly of different representations
        under one manager) denote the same function exactly when their
        digests are equal (up to hash collisions, ~2^-128) — this backs
        function equality and the manager's uid interning in O(1)
        amortized per node instead of materializing sub-DAG structure.
        """
        digests = self._sigs
        cached = digests.get(node_id)
        if cached is None:
            # Children always have smaller ids: one ascending pass fills
            # every missing digest up to node_id.
            for nid, pos, sv_delta, neq_ref, eq_ref in self.iter_records():
                if nid > node_id:
                    break
                if nid in digests:
                    continue
                hasher = blake2b(digest_size=16)
                if sv_delta == 0:
                    hasher.update(b"L%d" % pos)
                else:
                    hasher.update(
                        b"C%d,%d,%d,%d," % (pos, sv_delta, neq_ref & 1, eq_ref & 1)
                    )
                    hasher.update(digests[neq_ref >> 1] if neq_ref >> 1 else b"S")
                    hasher.update(digests[eq_ref >> 1] if eq_ref >> 1 else b"S")
                digests[nid] = hasher.digest()
            cached = digests[node_id]
        return cached


def canonicalize(get_full_record, root_refs: List[int]):
    """Renumber the sub-DAG reachable from ``root_refs`` canonically.

    ``get_full_record(id) -> (position, sv_delta, neq_ref, eq_ref)``.
    Returns ``(levels, new_roots)``: levels as ``[(position, records)]``
    deepest-first with records rewritten to the new dense bottom-up ids
    and sorted by their rewritten key (deterministic because records
    are unique per level), and the root refs remapped.
    """
    seen: Set[int] = set()
    stack = [ref >> 1 for ref in root_refs if ref >> 1]
    records: Dict[int, Tuple[int, int, int, int]] = {}
    while stack:
        node_id = stack.pop()
        if node_id in seen:
            continue
        seen.add(node_id)
        rec = get_full_record(node_id)
        records[node_id] = rec
        if rec[1]:
            for ref in (rec[2], rec[3]):
                child = ref >> 1
                if child and child not in seen:
                    stack.append(child)
    by_pos: Dict[int, List[int]] = {}
    for node_id, rec in records.items():
        by_pos.setdefault(rec[0], []).append(node_id)
    mapping = {0: 0}
    levels: List[Tuple[int, List[Record]]] = []
    next_id = 1
    for pos in sorted(by_pos, reverse=True):
        rewritten = []
        for node_id in by_pos[pos]:
            _p, sv_delta, neq_ref, eq_ref = records[node_id]
            if sv_delta:
                neq = (mapping[neq_ref >> 1] << 1) | (neq_ref & 1)
                eq = (mapping[eq_ref >> 1] << 1) | (eq_ref & 1)
            else:
                neq = eq = 0
            rewritten.append((sv_delta, neq, eq, node_id))
        rewritten.sort(key=lambda t: t[:3])
        level_records: List[Record] = []
        for sv_delta, neq, eq, node_id in rewritten:
            mapping[node_id] = next_id
            next_id += 1
            level_records.append((sv_delta, neq, eq))
        levels.append((pos, level_records))
    new_roots = [(mapping[ref >> 1] << 1) | (ref & 1) for ref in root_refs]
    return levels, new_roots
