"""Hostile-input coverage for the io subsystem, and the io regressions.

* Truncation fuzz: a valid dump cut at *every* byte boundary must fail
  with :class:`~repro.io.format.FormatError` (never ``IndexError`` /
  ``struct.error`` / ``UnicodeDecodeError``) through ``repro.io.load``
  (on both record grammars), an xmem manager's ``load`` and
  ``stream.scan`` — including the empty-forest dump.
* Hostile records: a child rooted above its parent, or a level block
  that disagrees with the header directory, fails with ``FormatError``
  into every backend.
* The ``repro.io.migrate`` module-shadowing regression: importing the
  submodule must yield the module (exposing ``ForestRebuilder``), with
  the renamed :func:`~repro.io.migrate.migrate_forest` re-exported from
  ``repro.io``.
* Swapped ``dump``/``load`` argument validation raises
  :class:`~repro.core.exceptions.BBDDError` naming the expected order.
* Decompression bombs: a small compressed level block (or xmem spill
  file) that would inflate to tens of MB fails with ``FormatError``
  after inflating no more than its declared record count can take.
"""

import io as _io
import tracemalloc
import types
import zlib

import pytest

import repro
from repro import io as rio
from repro.core.exceptions import BBDDError
from repro.io.format import FormatError

NAMES = ["a", "b", "c"]

#: Exception types that must never escape the readers on corrupt input.
_FORBIDDEN = (IndexError, KeyError, UnicodeDecodeError)


def _bbdd_dump() -> bytes:
    m = repro.open("bbdd", vars=NAMES)
    return rio.dumps(m, {"f": m.add_expr("(a ^ b) | c"), "g": m.add_expr("a <-> c")})


def _bdd_dump() -> bytes:
    m = repro.open("bdd", vars=NAMES)
    return rio.dumps(m, {"f": m.add_expr("(a ^ b) | c")})


def _empty_dump() -> bytes:
    m = repro.open("bbdd", vars=NAMES)
    return rio.dumps(m, {})


#: A parity tower over five variables next to a small cone: the
#: compressed dumps exercise FLAG_COMPRESSED (delta refs + shared
#: deflate) on couples, literals and complemented edges.
_TOWER_VARS = ["a", "b", "c", "d", "e"]
_TOWER_EXPR = "a <-> (b <-> (c <-> (d <-> e)))"


def _bbdd_dump_compressed() -> bytes:
    m = repro.open("bbdd", vars=_TOWER_VARS)
    return rio.dumps(
        m,
        {"par": m.add_expr(_TOWER_EXPR), "g": m.add_expr("(a ^ b) | e")},
        compress=True,
    )


def _bdd_dump_compressed() -> bytes:
    m = repro.open("bdd", vars=_TOWER_VARS)
    return rio.dumps(
        m,
        {"par": m.add_expr(_TOWER_EXPR), "g": m.add_expr("(a ^ b) | e")},
        compress=True,
    )


def _assert_formaterror(fn, data):
    try:
        fn(data)
    except FormatError:
        return
    except _FORBIDDEN as exc:  # pragma: no cover - the failure being tested
        pytest.fail(f"non-FormatError escaped: {type(exc).__name__}: {exc}")
    except Exception as exc:  # pragma: no cover - the failure being tested
        pytest.fail(f"unexpected {type(exc).__name__}: {exc}")
    else:
        pytest.fail("truncated input loaded without error")


@pytest.mark.parametrize("make_dump", [_bbdd_dump, _empty_dump, _bbdd_dump_compressed])
def test_bbdd_load_rejects_every_truncation(make_dump):
    data = make_dump()
    # Sanity: the untruncated dump loads.
    rio.loads(data)
    for cut in range(len(data)):
        _assert_formaterror(rio.loads, data[:cut])


@pytest.mark.parametrize("make_dump", [_bdd_dump, _bdd_dump_compressed])
def test_bdd_load_rejects_every_truncation(make_dump):
    data = make_dump()
    rio.loads(data)
    for cut in range(len(data)):
        _assert_formaterror(rio.loads, data[:cut])


def test_compressed_dumps_carry_v2_flags():
    """The fuzz fixtures really hit the v2 compressed code paths."""
    from repro.io.format import (
        FLAG_BDD,
        FLAG_COMPRESSED,
        FORMAT_VERSION_V2,
        read_header,
    )

    bbdd = read_header(_io.BytesIO(_bbdd_dump_compressed()))
    assert bbdd.version == FORMAT_VERSION_V2
    assert bbdd.flags == FLAG_COMPRESSED
    bdd = read_header(_io.BytesIO(_bdd_dump_compressed()))
    assert bdd.version == FORMAT_VERSION_V2
    assert bdd.flags == FLAG_COMPRESSED | FLAG_BDD


def test_xmem_load_rejects_every_truncation():
    data = _bbdd_dump()
    for cut in range(len(data)):
        manager = repro.open("xmem", vars=NAMES)
        _assert_formaterror(lambda d, m=manager: m.load(_io.BytesIO(d)), data[:cut])


def test_scan_rejects_header_truncations():
    data = _bbdd_dump()
    full = rio.scan(_io.BytesIO(data))
    assert full.node_count > 0
    for cut in range(len(data)):
        clipped = data[:cut]
        try:
            rio.scan(_io.BytesIO(clipped))
        except FormatError:
            continue
        except _FORBIDDEN as exc:  # pragma: no cover
            pytest.fail(f"scan leaked {type(exc).__name__} at cut {cut}")
        # scan only validates the header + level directory; cuts inside
        # the roots trailer are legitimately invisible to it.
        assert cut > len(data) - 16, f"scan accepted deep truncation at {cut}"


@pytest.mark.parametrize("make_dump", [_bbdd_dump_compressed, _bdd_dump_compressed])
def test_compressed_payload_byte_flips_never_leak_raw_errors(make_dump):
    """Corrupting deflate data must surface as FormatError, not zlib.error.

    Flips are restricted to the payload region (a flipped *header* byte
    can legitimately fail in name decoding, which is out of scope here).
    A flip that still decodes to a well-formed forest is acceptable.
    """
    from repro.io.format import read_header

    data = make_dump()
    buf = _io.BytesIO(data)
    read_header(buf)
    start = buf.tell()
    for i in range(start, len(data)):
        flipped = data[:i] + bytes([data[i] ^ 0xFF]) + data[i + 1 :]
        try:
            rio.loads(flipped)
        except BBDDError:
            continue
        except Exception as exc:  # pragma: no cover - the failure under test
            pytest.fail(f"flip at {i} leaked {type(exc).__name__}: {exc}")


#: What a deflate bomb below inflates to.
_BOMB_BYTES = 32 << 20


def _deflate_zeros(stream, flush) -> bytes:
    """``_BOMB_BYTES`` zero bytes through ``stream``, fed a MiB at a time."""
    chunk = bytes(1 << 20)
    out = [stream.compress(chunk) for _ in range(_BOMB_BYTES // len(chunk))]
    out.append(stream.flush(flush))
    return b"".join(out)


def _with_bomb(data: bytes) -> bytes:
    """``data`` with its first level payload swapped for a deflate bomb.

    The block keeps its position and declared record count; only the
    payload (and its byte length) changes.
    """
    from repro.io.format import encode_varint, read_header, read_varint

    buf = _io.BytesIO(data)
    read_header(buf)
    start = buf.tell()
    position = read_varint(buf)
    count = read_varint(buf)
    end = read_varint(buf) + buf.tell()
    bomb = _deflate_zeros(zlib.compressobj(9), zlib.Z_SYNC_FLUSH)
    head = bytearray()
    for value in (position, count, len(bomb)):
        encode_varint(value, head)
    return data[:start] + bytes(head) + bomb + data[end:]


@pytest.mark.parametrize(
    "make_dump, load",
    [
        (_bbdd_dump_compressed, rio.loads),
        (_bdd_dump_compressed, rio.loads),
        (
            _bbdd_dump_compressed,
            lambda d: repro.open("xmem", vars=_TOWER_VARS).load(_io.BytesIO(d)),
        ),
    ],
)
def test_decompression_bomb_fails_in_bounded_memory(make_dump, load):
    bomb = _with_bomb(make_dump())
    assert len(bomb) < _BOMB_BYTES // 256
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="inflates past"):
            load(bomb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _BOMB_BYTES // 16, f"inflated {peak} bytes before failing"


def test_xmem_spill_reader_bounds_inflation():
    manager = repro.open("xmem", vars=_TOWER_VARS)
    f = manager.add_expr("(a ^ b) | (c & d & ~e)")
    rep = f.edge[0].rep
    assert rep.spill() > 0
    block = next(block for block in rep.levels if block.spill_path)
    with open(block.spill_path, "wb") as fileobj:
        fileobj.write(_deflate_zeros(zlib.compressobj(9), zlib.Z_FINISH))
    with pytest.raises(FormatError, match="inflates past"):
        f.sat_count()


def test_xmem_spill_reader_rejects_truncated_stream():
    """A spill file missing its adler32 trailer no longer loads."""
    manager = repro.open("xmem", vars=_TOWER_VARS)
    f = manager.add_expr("(a ^ b) | (c & d & ~e)")
    rep = f.edge[0].rep
    assert rep.spill() > 0
    block = next(block for block in rep.levels if block.spill_path)
    with open(block.spill_path, "rb") as fileobj:
        data = fileobj.read()
    with open(block.spill_path, "wb") as fileobj:
        fileobj.write(data[:-4])
    with pytest.raises(FormatError, match="truncated"):
        f.sat_count()


def test_unsupported_version_names_file_and_supported_range(tmp_path):
    path = tmp_path / "future.bbdd"
    # Magic + varint version 9: a container from a future writer.
    path.write_bytes(b"BBDD\x09" + b"\x00" * 16)
    with pytest.raises(FormatError) as excinfo:
        rio.load(str(path))
    message = str(excinfo.value)
    assert "future.bbdd" in message
    assert "unsupported format version 9" in message
    assert "supports versions 1, 2" in message


def test_garbage_and_wrong_magic_rejected():
    for junk in (b"", b"\x00", b"BBD", b"NOPE" + b"\x00" * 64, b"\xff" * 32):
        _assert_formaterror(rio.loads, junk)
        _assert_formaterror(lambda d: rio.scan(_io.BytesIO(d)), junk)


def test_empty_forest_round_trips():
    data = _empty_dump()
    manager, functions = rio.loads(data)
    assert functions == {}
    info = rio.scan(_io.BytesIO(data))
    assert info.node_count == 0 and info.header.num_roots == 0


# ----------------------------------------------------------------------
# hostile records: every backend's load rejects them the same way
# ----------------------------------------------------------------------


def _crafted(blocks, roots, flags=0, directory=None) -> bytes:
    """A v1 container over a, b, c (in that order) from raw level blocks.

    ``blocks`` are ``(position, count, payload)``; ``directory`` is the
    header's level directory, by default the blocks' own.
    """
    from repro.io.format import Header, encode_varint

    if directory is None:
        directory = [(position, count) for position, count, _ in blocks]
    out = bytearray(Header(NAMES, [0, 1, 2], len(roots), directory, flags=flags).encode())
    for position, count, payload in blocks:
        for value in (position, count, len(payload)):
            encode_varint(value, out)
        out += payload
    for name, ref in roots:
        encode_varint(ref, out)
        encode_varint(len(name), out)
        out += name.encode()
    return bytes(out)


def _into(backend, data):
    return repro.open(backend, vars=NAMES).load(_io.BytesIO(data))


def test_child_rooted_above_its_parent_is_rejected():
    """Id 1 is the literal of a; id 2 at position 1 points down to it."""
    from repro.io.format import FLAG_BDD

    # Couple (b, c) whose !=-child is id 1; the =-child is the sink.
    couples = _crafted([(0, 1, b"\x00"), (1, 1, b"\x01\x02\x00")], [("f", 4)])
    # Shannon node on b whose then-child is id 1 (a Shannon literal of a).
    shannon = _crafted(
        [(0, 1, b"\x00\x01"), (1, 1, b"\x02\x00")], [("f", 4)], flags=FLAG_BDD
    )
    document = {
        "format": "bbdd-json",
        "version": 1,
        "variables": NAMES,
        "order": NAMES,
        "nodes": [
            {"id": 1, "var": "a"},
            {"id": 2, "pv": "b", "sv": "c", "neq": [1, False], "eq": [0, False]},
        ],
        "roots": {"f": [2, False]},
    }
    for load in (
        lambda: rio.loads(couples),
        lambda: _into("bbdd", couples),
        lambda: _into("xmem", couples),
        lambda: _into("bdd", shannon),
        lambda: rio.from_dict(document),
    ):
        with pytest.raises(FormatError, match="its children must lie at position"):
            load()


def test_level_block_must_match_the_header_directory():
    """The directory declares (position 2, 1 record); the block says 0."""
    from repro.io.format import FLAG_BDD

    literal = _crafted([(0, 1, b"\x00")], [("f", 2)], directory=[(2, 1)])
    shannon = _crafted(
        [(0, 1, b"\x00\x01")], [("f", 2)], flags=FLAG_BDD, directory=[(2, 1)]
    )
    for data in (literal, shannon):
        for load in (rio.loads, lambda d: _into("bdd", d)):
            with pytest.raises(FormatError, match="disagrees with the header directory"):
                load(data)


# ----------------------------------------------------------------------
# regression: repro.io.migrate is a module again (the shadowing bug)
# ----------------------------------------------------------------------


def test_import_repro_io_migrate_is_a_module():
    import repro.io.migrate as migrate_module

    assert isinstance(migrate_module, types.ModuleType)
    assert hasattr(migrate_module, "ForestRebuilder")
    assert hasattr(migrate_module, "migrate_forest")
    # The package attribute is the module too, not the old function.
    assert rio.migrate is migrate_module
    # And the convenience function is re-exported under its new name.
    assert rio.migrate_forest is migrate_module.migrate_forest
    assert rio.ForestRebuilder is migrate_module.ForestRebuilder


# ----------------------------------------------------------------------
# swapped dump/load arguments raise BBDDError naming the order
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["bbdd", "bdd", "xmem"])
def test_swapped_dump_arguments_raise_bbdd_error(backend, tmp_path):
    m = repro.open(backend, vars=["a", "b"])
    f = m.add_expr("a & b")
    path = str(tmp_path / "forest.bbdd")
    with pytest.raises(BBDDError, match=r"dump\(functions, target\)"):
        m.dump(path, [f])
    with pytest.raises(BBDDError, match="target"):
        m.dump([f], [f])
    with pytest.raises(BBDDError, match="load"):
        m.load([f])
    # The right order still works.
    m.dump({"f": f}, path)
    assert "f" in m.load(path)


def test_module_level_dump_load_validation(tmp_path):
    m = repro.open("bbdd", vars=["a"])
    f = m.var("a")
    with pytest.raises(BBDDError, match="swapped"):
        rio.dump(m, str(tmp_path / "x.bbdd"), [f])
    with pytest.raises(BBDDError, match="load"):
        rio.load(f)
