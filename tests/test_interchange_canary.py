"""The interchange canary: plain dumps of the 17 fast Table I rows, pinned.

BBDDs and BDDs are canonical, and a freshly built forest's rows come out
in creation order within each level, so the plain dump of every row's
build is a function of the network, the order and the writer alone.  A
change to the node store, ``_make``, an apply engine, ``freeze_export``
or the row writer that moves any byte fails here.  The digest is the
SHA-256 of the concatenated ``repro.io.dumps`` of all rows in
``TABLE1_ROWS`` order; it does not depend on ``PYTHONHASHSEED``.
Compressed dumps depend on the zlib build, so they are not pinned.

The bdd run also pins the baseline's node counts per row, built and
after ``sift()``, and the number of swaps that sift makes.
"""

import hashlib

import pytest

import repro.io as rio
from repro.circuits.registry import TABLE1_ROWS
from repro.network.build import build

#: (SHA-256, byte count) of the concatenated plain dumps per backend.
DUMP_DIGESTS = {
    "bbdd": ("2c96a67f0dcd108e6cc7df6440ac065ead381f234d18bed2b2ea6c76af0b2db7", 69264),
    "bdd": ("666a47476eef2c3bd45c5a74e9839bae003c0d77f2c5815092182c4902dc82b7", 41283),
}

#: bdd node counts per row in TABLE1_ROWS order: built, then sifted.
BDD_BUILT = [1478, 1368, 1299, 1207, 456, 1255, 2446, 49, 94, 200, 96, 305, 10, 24, 25, 31, 16]
BDD_SIFTED = [1162, 598, 1269, 993, 456, 547, 2051, 43, 94, 80, 94, 293, 7, 24, 25, 31, 16]
BDD_SIFT_SWAPS = 9548


@pytest.mark.parametrize("backend", ["bbdd", "bdd"])
def test_fast_rows_dump_to_pinned_bytes(backend):
    blob = bytearray()
    built = []
    sifted = []
    swaps = 0
    for row in TABLE1_ROWS:
        manager, functions = build(row.build(full=False), backend=backend)
        blob += rio.dumps(manager, functions)
        if backend == "bdd":
            handles = list(functions.values())
            built.append(manager.node_count(handles))
            swaps += manager.sift().swaps
            sifted.append(manager.node_count(handles))
    assert (hashlib.sha256(blob).hexdigest(), len(blob)) == DUMP_DIGESTS[backend]
    if backend == "bdd":
        assert built == BDD_BUILT
        assert sifted == BDD_SIFTED
        assert swaps == BDD_SIFT_SWAPS
