"""Spill-to-disk sorted runs of fixed-arity integer tuples.

The external-memory sweeps of :mod:`repro.xmem.engine` generate product
requests per level; a level's request set can exceed the in-RAM budget,
so it is accumulated through a :class:`SortedRunSpiller`: tuples collect
in a resident chunk, full chunks are sorted and written to disk as
*runs* (varint-encoded, one unsigned LEB128 per tuple element — the
same codec as the node files, :mod:`repro.io.format`), and consumption
is a pure-Python k-way merge (:func:`heapq.merge`) over the sorted
resident chunk and the runs, deduplicating adjacent equal tuples.

This is the classic external merge-sort shape of Sølvsten & van de
Pol's time-forward processing, scaled down to one level's working set.

Run compaction merges many runs into fewer, wider runs, group by
group, so the final k-way merge has bounded fan-in.
"""

from __future__ import annotations

import heapq
import os
from typing import Iterator, List, Optional, Tuple

from repro.io.format import encode_varint

#: Bytes read per disk access when streaming a run back.
_READ_CHUNK = 1 << 16

#: Maximum runs merged in one pass: more than this many spilled runs on
#: a level first compact group-by-group into intermediate runs, so the
#: k-way merge never holds an unbounded number of open file descriptors.
_MAX_FANIN = 64


def write_run(path: str, tuples) -> int:
    """Write a *sorted* iterable of int tuples to ``path``; returns the
    count.  Streams with bounded buffering, so merging runs into a new
    run never materializes the merged content."""
    count = 0
    out = bytearray()
    with open(path, "wb") as fileobj:
        for tup in tuples:
            for value in tup:
                encode_varint(value, out)
            count += 1
            if len(out) >= _READ_CHUNK:
                fileobj.write(bytes(out))
                out.clear()
        if out:
            fileobj.write(bytes(out))
    return count


def iter_run(path: str, arity: int, count: int) -> Iterator[tuple]:
    """Stream the tuples of a run back in file order (buffered reads)."""
    with open(path, "rb") as fileobj:
        buffer = b""
        pos = 0
        fields: List[int] = []
        produced = 0
        while produced < count:
            # Refill so at least one maximal varint tuple fits.
            if len(buffer) - pos < 10 * arity:
                buffer = buffer[pos:] + fileobj.read(_READ_CHUNK)
                pos = 0
            value = 0
            shift = 0
            while True:
                byte = buffer[pos]
                pos += 1
                value |= (byte & 0x7F) << shift
                if not byte & 0x80:
                    break
                shift += 7
            fields.append(value)
            if len(fields) == arity:
                yield tuple(fields)
                fields = []
                produced += 1


class SortedRunSpiller:
    """Accumulates int tuples; spills sorted runs; yields a merged stream.

    Parameters
    ----------
    arity:
        Tuple length (every added tuple must match).
    chunk:
        Maximum resident tuples before a sorted run spills to disk.
    new_path:
        Zero-argument callable returning a fresh spill-file path (the
        manager's spill store provides it).
    """

    def __init__(self, arity: int, chunk: int, new_path) -> None:
        self.arity = arity
        self.chunk = max(2, int(chunk))
        self._new_path = new_path
        self._resident: List[tuple] = []
        self._runs: List[Tuple[str, int]] = []  # (path, tuple count)
        self.total = 0
        self.run_bytes = 0
        self.merge_passes = 0

    def add(self, tup: tuple) -> None:
        self._resident.append(tup)
        self.total += 1
        if len(self._resident) >= self.chunk:
            self._spill()

    def _spill(self) -> None:
        self._resident.sort()
        path = self._new_path()
        write_run(path, self._resident)
        self._runs.append((path, len(self._resident)))
        self._resident = []
        try:
            self.run_bytes += os.path.getsize(path)
        except OSError:  # pragma: no cover - stat raced with cleanup
            pass

    @property
    def runs_spilled(self) -> int:
        return len(self._runs)

    def _compact(self) -> None:
        """Merge runs group-by-group until the final fan-in is bounded.

        One pass partitions the runs into groups of ``_MAX_FANIN`` and
        merges each group into a single wider run.
        """
        while len(self._runs) > _MAX_FANIN:
            groups = [
                self._runs[start : start + _MAX_FANIN]
                for start in range(0, len(self._runs), _MAX_FANIN)
            ]
            # A group of one stays as it is, ahead of the merged runs.
            self._runs = [group[0] for group in groups if len(group) == 1]
            for group in groups:
                if len(group) == 1:
                    continue
                self.merge_passes += 1
                out_path = self._new_path()
                streams = [iter_run(path, self.arity, n) for path, n in group]
                count = write_run(out_path, heapq.merge(*streams))
                try:
                    self.run_bytes += os.path.getsize(out_path)
                except OSError:  # pragma: no cover - stat raced with cleanup
                    pass
                for old_path, _count in group:
                    try:
                        os.unlink(old_path)
                    except OSError:  # pragma: no cover - best-effort cleanup
                        pass
                self._runs.append((out_path, count))

    def iter_sorted_unique(self) -> Iterator[tuple]:
        """Merge resident chunk + runs into one sorted, deduplicated stream."""
        self._resident.sort()
        self._compact()
        if self._runs:
            streams = [iter_run(path, self.arity, count) for path, count in self._runs]
            merged: Iterator[tuple] = heapq.merge(self._resident, *streams)
        else:
            merged = iter(self._resident)
        previous: Optional[tuple] = None
        for tup in merged:
            if tup != previous:
                previous = tup
                yield tup

    def cleanup(self) -> None:
        """Delete the spilled run files (call after consumption)."""
        for path, _count in self._runs:
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        self._runs = []
        self._resident = []
