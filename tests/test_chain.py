"""Chain-reduced diagrams (CBBDD/CBDD) across every layer.

* Golden v1 dump: the checked-in pre-chain container must keep loading
  bit-exactly (and re-dump byte-identically) forever.
* Chain canonicity: parity towers collapse to span nodes under
  ``chain_reduce=True`` on both backends, with invariants intact, and
  strictly fewer stored nodes than the plain managers.
* Reordering: adjacent swaps refuse to run while chain reduction is
  active; ``sift()`` wraps the swap plan in expand/re-merge; the
  expand/reduce pair is a lossless involution.
* Operations: restrict/compose/quantify/ite/sat agree with the plain
  managers on span-heavy functions.
* Sweeps: ``evaluate_batch``/``satisfiable_batch`` and the shared-memory
  :class:`~repro.par.shm.ShmForest` (5-column chain layout plus legacy
  4-column attach) match the plain managers bit for bit.
* Interchange: v2 chain/compressed dumps round-trip across ALL
  backends, chain <-> plain migration is lossless both ways, and the
  ``python -m repro.io scan`` CLI reports every container kind.
"""

import io as stdio
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import io as rio
from repro.core import reorder
from repro.core.exceptions import OrderError
from repro.core.manager import BBDDManager
from repro.core.traversal import structural_profile
from repro.bdd import reorder as bdd_reorder
from repro.io.__main__ import main as io_main
from repro.io.format import (
    FLAG_BDD,
    FLAG_CHAIN,
    FLAG_COMPRESSED,
    FORMAT_VERSION,
    FORMAT_VERSION_CHAIN,
    read_header,
)
from repro.io.migrate import migrate_forest
from repro.par.shm import ShmForest, shm_available

_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

BACKENDS = ["bbdd", "bdd"]
ALL_BACKENDS = BACKENDS + ["xmem"]

GOLDEN_V1 = os.path.join(os.path.dirname(__file__), "data", "golden_v1.bbdd")
GOLDEN_VARS = ["a", "b", "c", "d"]
GOLDEN_MASKS = {"maj": 0xE8E8, "parity": 0x6996, "bic": 0x9990}

N = 8
NAMES = [f"x{i}" for i in range(N)]


def _parity(m, lo=0, hi=N, neg=False):
    """An XNOR tower over ``names[lo:hi]`` — the span-forming shape."""
    f = m.var(NAMES[lo])
    for i in range(lo + 1, hi):
        f = ~f.xnor(m.var(NAMES[i]))
    return ~f if neg else f


#: label -> builder; every shape that exercised a distinct span case
#: during bring-up (pure spans, negated spans, spans under AND/OR, two
#: spans meeting, spans over a strict subset of the variables).
SPAN_BUILDERS = {
    "parity8": lambda m: _parity(m),
    "parity8n": lambda m: _parity(m, neg=True),
    "parity_mid": lambda m: _parity(m, 2, 7),
    "parity_and": lambda m: _parity(m, 1, 6) & m.var("x0"),
    "parity_or": lambda m: _parity(m, 0, 5) | (m.var("x6") & m.var("x7")),
    "two_par": lambda m: _parity(m, 0, 4).xnor(_parity(m, 4, 8)),
    "par_xor_var": lambda m: ~_parity(m, 0, 6).xnor(m.var("x7")),
    "mixed": lambda m: (_parity(m, 0, 5) & m.var("x5"))
    | (~_parity(m, 2, 8) & ~m.var("x0")),
}


def _span_count(manager, function):
    """Number of span nodes reachable from ``function`` (either backend)."""
    if isinstance(manager, BBDDManager):
        return structural_profile(manager, [function.edge])["span_nodes"]
    node, _attr = function.edge
    seen, spans, stack = set(), 0, [] if node.is_sink else [node]
    while stack:
        n = stack.pop()
        if n in seen or n.is_sink:
            continue
        seen.add(n)
        if n.bot != n.var:
            spans += 1
        stack.append(n.then)
        stack.append(n.else_)
    return spans


def _pair(backend, builder):
    """(plain function, chain function) for one builder on one backend."""
    plain = repro.open(backend, vars=NAMES)
    chain = repro.open(backend, vars=NAMES, chain_reduce=True)
    return plain, builder(plain), chain, builder(chain)


# ----------------------------------------------------------------------
# golden v1 regression
# ----------------------------------------------------------------------


def test_golden_v1_reloads_bit_exactly():
    with open(GOLDEN_V1, "rb") as fileobj:
        data = fileobj.read()
    header = read_header(stdio.BytesIO(data))
    assert header.version == FORMAT_VERSION
    assert header.flags == 0
    manager, functions = rio.loads(data)
    assert set(functions) == set(GOLDEN_MASKS)
    for name, mask in GOLDEN_MASKS.items():
        assert functions[name].truth_mask(GOLDEN_VARS) == mask, name
    # A plain manager re-dumps the v1 container byte for byte.
    assert rio.dumps(manager, functions) == data


def test_golden_v1_loads_into_chain_manager():
    chain = repro.open("bbdd", vars=GOLDEN_VARS, chain_reduce=True)
    functions = chain.load(GOLDEN_V1)
    for name, mask in GOLDEN_MASKS.items():
        assert functions[name].truth_mask(GOLDEN_VARS) == mask, name
    # The 4-var parity re-reduces into a span on import.
    assert _span_count(chain, functions["parity"]) >= 1
    chain.check_invariants()


# ----------------------------------------------------------------------
# chain canonicity and store invariants
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_full_parity_collapses_to_one_node(backend):
    chain = repro.open(backend, vars=NAMES, chain_reduce=True)
    f = _parity(chain)
    assert f.node_count() == 1
    assert _span_count(chain, f) == 1
    chain.check_invariants()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("label", sorted(SPAN_BUILDERS))
def test_chain_reduction_never_grows_the_diagram(backend, label):
    plain, fp, chain, fc = _pair(backend, SPAN_BUILDERS[label])
    assert fc.truth_mask(NAMES) == fp.truth_mask(NAMES)
    assert fc.node_count() <= fp.node_count()
    assert fc.sat_count() == fp.sat_count()
    chain.check_invariants()
    plain.check_invariants()


@pytest.mark.parametrize("backend", BACKENDS)
def test_span_builders_really_produce_spans(backend):
    total = 0
    for builder in SPAN_BUILDERS.values():
        chain = repro.open(backend, vars=NAMES, chain_reduce=True)
        total += _span_count(chain, builder(chain))
    assert total >= 5, "span fixtures stopped exercising chain nodes"


# ----------------------------------------------------------------------
# reordering under chain reduction
# ----------------------------------------------------------------------


def test_adjacent_swap_refuses_while_chain_reduced():
    chain = repro.open("bbdd", vars=NAMES, chain_reduce=True)
    _parity(chain)
    with pytest.raises(OrderError, match="chain"):
        reorder.swap_adjacent(chain, 0)
    bdd = repro.open("bdd", vars=NAMES, chain_reduce=True)
    _parity(bdd)
    with pytest.raises(OrderError, match="chain"):
        bdd_reorder.swap_adjacent_bdd(bdd, 0)


def test_bbdd_sift_wraps_chain_expansion():
    chain = repro.open("bbdd", vars=NAMES, chain_reduce=True)
    f = SPAN_BUILDERS["mixed"](chain)
    mask = f.truth_mask(NAMES)
    chain.sift()
    assert chain.chain_reduce is True
    assert f.truth_mask(NAMES) == mask
    chain.check_invariants()


def test_expand_and_reduce_chains_are_inverse():
    chain = repro.open("bbdd", vars=NAMES, chain_reduce=True)
    f = SPAN_BUILDERS["two_par"](chain)
    mask = f.truth_mask(NAMES)
    spans_before = _span_count(chain, f)
    assert spans_before >= 1
    assert chain.expand_chains() >= spans_before
    assert _span_count(chain, f) == 0
    assert f.truth_mask(NAMES) == mask
    chain.check_invariants()
    assert chain.reduce_chains() >= 1
    assert _span_count(chain, f) == spans_before
    assert f.truth_mask(NAMES) == mask
    chain.check_invariants()


# ----------------------------------------------------------------------
# span-aware operations agree with the plain managers
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("label", ["parity8", "parity_mid", "mixed", "two_par"])
def test_span_ops_match_plain(backend, label):
    plain, fp, chain, fc = _pair(backend, SPAN_BUILDERS[label])
    for var in ("x0", "x3", "x7"):
        for value in (False, True):
            assert fc.restrict(var, value).truth_mask(NAMES) == fp.restrict(
                var, value
            ).truth_mask(NAMES), (var, value)
        assert fc.exists([var]).truth_mask(NAMES) == fp.exists([var]).truth_mask(NAMES)
        assert fc.forall([var]).truth_mask(NAMES) == fp.forall([var]).truth_mask(NAMES)
    g_c = chain.add_expr("x1 & ~x6")
    g_p = plain.add_expr("x1 & ~x6")
    assert fc.compose("x3", g_c).truth_mask(NAMES) == fp.compose("x3", g_p).truth_mask(
        NAMES
    )
    assert fc.ite(g_c, ~g_c).truth_mask(NAMES) == fp.ite(g_p, ~g_p).truth_mask(NAMES)
    assert fc.support() == fp.support()
    witness = fc.sat_one()
    if witness is None:
        assert fp.sat_one() is None
    else:
        assert fc.evaluate(witness)
    chain.check_invariants()


# ----------------------------------------------------------------------
# batch sweeps and the shared-memory forest
# ----------------------------------------------------------------------


def _all_assignments():
    return [
        {NAMES[i]: bool((m >> i) & 1) for i in range(N)} for m in range(1 << N)
    ]


def _random_cubes(count=120, seed=0xC0DE):
    rng = random.Random(seed)
    cubes = []
    for _ in range(count):
        chosen = rng.sample(NAMES, rng.randrange(0, N + 1))
        cubes.append({name: bool(rng.getrandbits(1)) for name in chosen})
    return cubes


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("label", sorted(SPAN_BUILDERS))
def test_batch_sweeps_match_plain(backend, label):
    plain, fp, chain, fc = _pair(backend, SPAN_BUILDERS[label])
    assignments = _all_assignments()
    assert fc.evaluate_batch(assignments) == fp.evaluate_batch(assignments)
    cubes = _random_cubes()
    assert fc.satisfiable_batch(cubes) == fp.satisfiable_batch(cubes)


@pytest.mark.skipif(not shm_available(), reason="shared memory unavailable")
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("label", ["parity8", "parity_and", "two_par", "mixed"])
def test_shm_forest_chain_layout(backend, label):
    plain, fp, chain, fc = _pair(backend, SPAN_BUILDERS[label])
    assignments = _all_assignments()
    cubes = _random_cubes(count=80, seed=0xBEEF)
    with ShmForest.freeze(chain, {"f": fc}) as frozen:
        attached = ShmForest.attach(frozen.name)
        try:
            assert attached.evaluate_batch("f", assignments) == fp.evaluate_batch(
                assignments
            )
            assert attached.satisfiable_batch("f", cubes) == fp.satisfiable_batch(cubes)
            assert attached.sat_count("f") == fp.sat_count()
        finally:
            attached.close()


@pytest.mark.skipif(not shm_available(), reason="shared memory unavailable")
def test_shm_forest_plain_segments_stay_four_column():
    """Span-free freezes keep the legacy layout, and it still attaches."""
    plain = repro.open("bbdd", vars=NAMES)
    f = SPAN_BUILDERS["mixed"](plain)
    export = plain.freeze_export([("f", f.edge)])
    assert all(bot is None for _base, _pv, _sv, bot, _t, _f in export.blocks)
    with ShmForest.freeze(plain, {"f": f}) as frozen:
        attached = ShmForest.attach(frozen.name)
        try:
            assert attached.sat_count("f") == f.sat_count()
        finally:
            attached.close()


# ----------------------------------------------------------------------
# interchange: v2 containers, migration, CLI
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_chain_dump_sets_v2_flags(backend):
    chain = repro.open(backend, vars=NAMES, chain_reduce=True)
    f = _parity(chain)
    buf = stdio.BytesIO()
    chain.dump({"par": f}, buf, compress=True)
    header = read_header(stdio.BytesIO(buf.getvalue()))
    assert header.version == FORMAT_VERSION_CHAIN
    assert header.flags & FLAG_CHAIN
    assert header.flags & FLAG_COMPRESSED
    assert bool(header.flags & FLAG_BDD) == (backend == "bdd")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("compress", [False, True])
def test_chain_dump_round_trips_into_plain_and_chain(backend, compress):
    """Chain -> plain and chain -> chain imports are both lossless."""
    _plain, fp, chain, fc = _pair(backend, SPAN_BUILDERS["two_par"])
    mask = fp.truth_mask(NAMES)
    buf = stdio.BytesIO()
    chain.dump({"f": fc}, buf, compress=compress)
    data = buf.getvalue()
    for chain_reduce in (False, True):
        target = repro.open(backend, vars=NAMES, chain_reduce=chain_reduce)
        loaded = target.load(stdio.BytesIO(data))
        assert loaded["f"].truth_mask(NAMES) == mask
        spans = _span_count(target, loaded["f"])
        assert spans >= 1 if chain_reduce else spans == 0
        target.check_invariants()


def test_migrate_forest_chain_to_plain_and_back():
    chain = repro.open("bbdd", vars=NAMES, chain_reduce=True)
    fc = SPAN_BUILDERS["two_par"](chain)
    mask = fc.truth_mask(NAMES)
    plain = repro.open("bbdd", vars=NAMES)
    via_plain = migrate_forest(fc, plain)
    assert via_plain.truth_mask(NAMES) == mask
    assert _span_count(plain, via_plain) == 0
    chain2 = repro.open("bbdd", vars=NAMES, chain_reduce=True)
    back = migrate_forest(via_plain, chain2)
    assert back.truth_mask(NAMES) == mask
    assert _span_count(chain2, back) >= 1
    assert back.node_count() == fc.node_count()


def test_scan_cli_reports_every_container_kind(tmp_path):
    chain = repro.open("bbdd", vars=NAMES, chain_reduce=True)
    f = _parity(chain)
    compressed = str(tmp_path / "par.bbdd")
    chain.dump({"par": f}, compressed, compress=True)
    out = stdio.StringIO()
    assert io_main(["scan", compressed, GOLDEN_V1], out=out) == 0
    text = out.getvalue()
    assert "version:        2" in text
    assert "chain" in text and "compressed" in text
    assert "version:        1" in text
    assert "backend kind:   bbdd" in text
    assert "bytes per node:" in text


def test_scan_cli_missing_file_exits_nonzero(tmp_path, capsys):
    out = stdio.StringIO()
    missing = str(tmp_path / "nope.bbdd")
    assert io_main(["scan", missing], out=out) == 1
    captured = capsys.readouterr()
    assert "nope.bbdd" in captured.err
    assert out.getvalue() == ""


# ----------------------------------------------------------------------
# property round trips across every backend
# ----------------------------------------------------------------------


@st.composite
def masked_function(draw, max_vars=4):
    n = draw(st.integers(min_value=2, max_value=max_vars))
    mask = draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    return n, mask


def _build_from_mask(manager, names, mask):
    """Sum-of-minterms build through the shared protocol surface."""
    f = manager.false()
    variables = [manager.var(name) for name in names]
    for idx in range(1 << len(names)):
        if not (mask >> idx) & 1:
            continue
        term = manager.true()
        for bit, v in enumerate(variables):
            term = term & (v if (idx >> bit) & 1 else ~v)
        f = f | term
    return f


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@given(masked_function(), st.booleans())
@settings(**_SETTINGS)
def test_compressed_roundtrip_across_backends(backend, fn, compress):
    n, mask = fn
    names = [f"v{i}" for i in range(n)]
    manager = repro.open(backend, vars=names)
    f = _build_from_mask(manager, names, mask)
    buf = stdio.BytesIO()
    manager.dump({"f": f}, buf, compress=compress)
    fresh = repro.open(backend, vars=names)
    loaded = fresh.load(stdio.BytesIO(buf.getvalue()))
    assert loaded["f"].truth_mask(names) == mask


@pytest.mark.parametrize("backend", BACKENDS)
@given(masked_function(), st.booleans())
@settings(**_SETTINGS)
def test_plain_chain_compressed_roundtrip_property(backend, fn, compress):
    """plain build == chain build == chain dump -> plain reload."""
    n, mask = fn
    names = [f"v{i}" for i in range(n)]
    plain = repro.open(backend, vars=names)
    fp = _build_from_mask(plain, names, mask)
    chain = repro.open(backend, vars=names, chain_reduce=True)
    fc = _build_from_mask(chain, names, mask)
    assert fc.truth_mask(names) == mask
    assert fc.node_count() <= fp.node_count()
    buf = stdio.BytesIO()
    chain.dump({"f": fc}, buf, compress=compress)
    target = repro.open(backend, vars=names)
    reloaded = target.load(stdio.BytesIO(buf.getvalue()))
    assert reloaded["f"].truth_mask(names) == mask
    # Chain -> plain reload lands on the canonical plain diagram.
    assert reloaded["f"].node_count() == fp.node_count()
    target.check_invariants()
