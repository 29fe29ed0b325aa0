"""Command-line inspection of ``.bbdd`` dumps: ``python -m repro.io``.

Currently one subcommand::

    python -m repro.io scan FILE.bbdd [FILE.bbdd ...]

prints a header-level summary of each dump — format version, flags,
backend kind, variable count, per-level node counts and the on-disk
compactness (bytes per node) — without decoding a single node record
(see :func:`repro.io.stream.scan`).  Works on every readable container:
v1 and v2 compressed, both BBDD and baseline-BDD record kinds.  Exits
non-zero (with the error on stderr) when a file is missing, truncated,
chain-reduced or not a ``.bbdd`` container at all.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.exceptions import BBDDError
from repro.io.format import FLAG_BDD, FLAG_COMPRESSED
from repro.io.stream import FileInfo, scan

#: Flag bit -> human label, in print order.
_FLAG_NAMES = (
    (FLAG_BDD, "bdd"),
    (FLAG_COMPRESSED, "compressed"),
)


def _flag_text(flags: int) -> str:
    names = [name for bit, name in _FLAG_NAMES if flags & bit]
    known = 0
    for bit, _name in _FLAG_NAMES:
        known |= bit
    unknown = flags & ~known
    if unknown:
        names.append(f"unknown(0x{unknown:x})")
    return f"0x{flags:x}" + (f" ({', '.join(names)})" if names else " (none)")


def _render_scan(path: str, info: FileInfo, out) -> None:
    header = info.header
    kind = "bdd" if header.flags & FLAG_BDD else "bbdd"
    print(f"{path}:", file=out)
    print(f"  version:        {header.version}", file=out)
    print(f"  flags:          {_flag_text(header.flags)}", file=out)
    print(f"  backend kind:   {kind}", file=out)
    print(f"  variables:      {len(header.names)}", file=out)
    print(f"  roots:          {header.num_roots}", file=out)
    print(f"  nodes:          {info.node_count}", file=out)
    print(f"  file bytes:     {info.file_bytes}", file=out)
    print(f"  payload bytes:  {info.payload_bytes}", file=out)
    print(f"  bytes per node: {info.bytes_per_node:.2f}", file=out)
    print(
        f"  levels:         {len(header.levels)} (position: nodes, payload bytes)",
        file=out,
    )
    # header.levels and the stored blocks share one file order, so the
    # scanned per-level payload sizes line up index by index.
    for (position, count), nbytes in zip(header.levels, info.level_bytes):
        print(f"    {position:>5}: {count} nodes, {nbytes} B", file=out)


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """Entry point; returns the process exit code."""
    out = sys.stdout if out is None else out
    parser = argparse.ArgumentParser(
        prog="python -m repro.io",
        description="Inspect .bbdd forest dumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    scan_parser = sub.add_parser(
        "scan",
        help="print a header-level summary of each dump (no records decoded)",
    )
    scan_parser.add_argument("files", nargs="+", metavar="FILE.bbdd")
    args = parser.parse_args(argv)

    status = 0
    for path in args.files:
        try:
            info = scan(path)
        except (OSError, BBDDError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            status = 1
            continue
        _render_scan(path, info, out)
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
