"""Persistence round trip: dump, scan, reload, migrate — on any backend.

Every backend writes the one levelized binary container from the same
node rows (BBDD couple records vs. BDD Shannon records, told apart by a
header flag); one ``repro.io.load`` reads every dump, into any backend,
and migration is the same row replay without the bytes.

Run:  python examples/persistence_roundtrip.py  (REPRO_BACKEND=bdd|xmem to switch)
"""

import os
import tempfile

import repro
from repro import io as rio


def main() -> None:
    backend = os.environ.get("REPRO_BACKEND", "bbdd")

    # Build a small shared forest: a comparator slice and a majority vote.
    manager = repro.open(backend, vars=["a", "b", "c", "d"])
    equal = manager.add_expr("(a <-> b) & (c <-> d)")
    majority = manager.add_expr("(a & b) | (a & c) | (b & c)")

    suffix = ".bdd" if backend == "bdd" else ".bbdd"
    path = os.path.join(tempfile.mkdtemp(), "forest" + suffix)
    manager.dump({"equal": equal, "majority": majority}, path)
    print(f"[{backend}] dumped to {path} ({os.path.getsize(path)} bytes)")

    # The header alone tells you what is inside — no node decoding.
    info = rio.scan(path)
    print("scan:", info.summary())

    # Reload into a fresh manager (same variables, same order): the
    # canonical forest comes back node for node — in a BDD manager for a
    # BDD dump, a BBDD manager otherwise.
    fresh, funcs = rio.load(path)
    print("fresh reload:", {n: f.node_count() for n, f in funcs.items()})
    order = ["a", "b", "c", "d"]
    assert funcs["equal"].truth_mask(order) == equal.truth_mask(order)

    # Reload under a *different* variable order, into a manager that also
    # holds unrelated variables: records are re-reduced on the fly.
    other = repro.open(backend, vars=["d", "spare", "c", "b", "a"])
    moved = other.load(path)
    assert moved["majority"].truth_mask(order) == majority.truth_mask(order)
    print("permuted+superset reload ok:", other.current_order())

    # Live migration (no file in between), with variable renaming.
    target = repro.open(backend, vars=["p", "q", "r", "s"])
    renamed = rio.migrate_forest(
        {"equal": equal}, target, rename={"a": "p", "b": "q", "c": "r", "d": "s"}
    )
    print("migrated under rename:", renamed["equal"])

    # Migration also crosses backends (the same rows, re-reduced by the target).
    cross = repro.open("bdd" if backend == "bbdd" else "bbdd", vars=order)
    crossed = rio.migrate_forest({"equal": equal}, cross)
    assert crossed["equal"].truth_mask(order) == equal.truth_mask(order)
    print(f"cross-backend migration -> {cross.backend} ok")

    # Any dump loads into any backend too.
    loaded = cross.load(path)
    assert loaded["majority"].truth_mask(order) == majority.truth_mask(order)
    print(f"cross-backend load -> {cross.backend} ok")

    # JSON interchange for debugging — print it, diff it, grep it (it
    # holds couples and literals, so BDD forests use the binary dump).
    if backend != "bdd":
        doc = rio.to_dict(manager, {"equal": equal})
        print("json nodes:", doc["nodes"])


if __name__ == "__main__":
    main()
