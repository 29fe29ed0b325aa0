"""Weighted model counting: differential oracles over every backend.

Three ground truths anchor :mod:`repro.wmc`:

* the **counting identity** — uniform ``1/2`` weights on the support
  reduce the weighted count to ``sat_count / 2^|support|``, with the
  satisfying assignments counted by looped ``evaluate``;
* **brute-force enumeration** — exact-Fraction ``p_one`` must match a
  term-by-term sum over all assignments, bit for bit;
* the **restrict oracle** — each posterior marginal must satisfy
  ``p(v=1 | f=1) = p_v * p_one(f|v=1) / p_one(f)``.

Every property runs on the full backend matrix (bbdd/bdd/xmem).  The
two-pass marginals kernel is checked on the shapes that exercise each
of its joint sites — parity towers, gap variables above the root and
between levels, variables outside the support, zero/one weights — and
on every query path: manager functions and frozen shared-memory
forests, and against the protocol-level Shannon reference.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.api.base import ForeignManagerError
from repro.par import ShmForest
from repro.wmc import WmcError, p_one, posterior, resolve_weights, shannon_count

from test_api_protocol import ALL_BACKENDS

_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TOWER_NAMES = [f"x{i}" for i in range(8)]


def _parity(m, lo=0, hi=len(TOWER_NAMES), neg=False):
    """An XNOR tower over ``TOWER_NAMES[lo:hi]``."""
    f = m.var(TOWER_NAMES[lo])
    for i in range(lo + 1, hi):
        f = ~f.xnor(m.var(TOWER_NAMES[i]))
    return ~f if neg else f


#: label -> builder: parity towers alone, negated, under AND/OR, two
#: towers meeting, and towers over a strict subset of the variables.
TOWER_BUILDERS = {
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


def variant_managers(names):
    """Yield ``(backend, manager)`` across every backend."""
    for backend in ALL_BACKENDS:
        yield backend, repro.open(backend, vars=names)


@st.composite
def weighted_expr(draw, max_vars=6, max_depth=4):
    """A random expression plus random per-variable Fraction weights."""
    n = draw(st.integers(min_value=2, max_value=max_vars))
    names = [f"v{i}" for i in range(n)]

    def expr(depth):
        if depth >= max_depth or draw(st.booleans()):
            leaf = draw(st.integers(min_value=0, max_value=5))
            if leaf == 0:
                return "TRUE"
            if leaf == 1:
                return "FALSE"
            return draw(st.sampled_from(names))
        op = draw(st.sampled_from(["&", "|", "^", "->", "<->", "~"]))
        if op == "~":
            return f"~({expr(depth + 1)})"
        return f"({expr(depth + 1)} {op} {expr(depth + 1)})"

    weights = {
        name: Fraction(draw(st.integers(min_value=0, max_value=8)), 8)
        for name in names
        if draw(st.booleans())
    }
    return names, expr(0), weights


def brute_force_p_one(names, f, weights):
    """Exact ``p(f = 1)`` by summing the weight of every assignment."""
    probability = {
        name: weights.get(name, Fraction(1, 2)) for name in names
    }
    totals = Fraction(0)
    for code in range(1 << len(names)):
        assignment = {
            name: bool(code >> i & 1) for i, name in enumerate(names)
        }
        if f.evaluate(assignment):
            term = Fraction(1)
            for name in names:
                p = probability[name]
                term *= p if assignment[name] else 1 - p
            totals += term
    return totals


# ----------------------------------------------------------------------
# the counting identity
# ----------------------------------------------------------------------


@given(weighted_expr())
@settings(**_SETTINGS)
def test_uniform_weights_reduce_to_sat_count(case):
    """Uniform 1/2 weights on the support = ``sat_count / 2^|support|``.

    The satisfying assignments are counted by looped ``evaluate`` over
    every assignment, independently of the column kernels.
    """
    names, text, _weights = case
    assignments = [
        {name: bool(code >> i & 1) for i, name in enumerate(names)}
        for code in range(1 << len(names))
    ]
    for label, manager in variant_managers(names):
        f = manager.add_expr(text)
        count = sum(f.evaluate(a) for a in assignments)
        assert f.sat_count() == count, (label, text)
        support = sorted(f.support())
        uniform = {name: Fraction(1, 2) for name in support}
        # The count ranges over all manager variables; each satisfying
        # assignment weighs 1/2^|support| (non-support weights are 1).
        expected = Fraction(count, 1 << len(support))
        got = f.weighted_count(uniform)
        assert got == expected, (label, text)
        # And with no weights at all the count is exactly sat_count.
        assert f.weighted_count() == count, (label, text)


# ----------------------------------------------------------------------
# brute-force enumeration
# ----------------------------------------------------------------------


@given(weighted_expr())
@settings(**_SETTINGS)
def test_p_one_exact_matches_enumeration(case):
    """Exact-Fraction ``p_one`` is bit-identical to full enumeration."""
    names, text, weights = case
    oracle = None
    for label, manager in variant_managers(names):
        f = manager.add_expr(text)
        if oracle is None:
            oracle = brute_force_p_one(names, f, weights)
        got = f.p_one(weights)
        assert isinstance(got, Fraction) or got in (0, 1)
        assert got == oracle, (label, text, weights)
        # Float mode tracks the exact value to rounding error.
        assert f.p_one(weights, exact=False) == pytest.approx(float(oracle))


def test_p_one_enumeration_larger_random_expressions():
    """Randomized ≤14-variable expressions against full enumeration."""
    rng = random.Random(20140807)
    names = [f"v{i}" for i in range(14)]
    for _trial in range(3):
        terms = []
        for _ in range(6):
            picked = rng.sample(names, rng.randint(2, 4))
            literals = [
                name if rng.random() < 0.5 else f"~{name}" for name in picked
            ]
            terms.append("(" + " & ".join(literals) + ")")
        text = " | ".join(terms)
        weights = {
            name: Fraction(rng.randint(0, 16), 16)
            for name in rng.sample(names, 7)
        }
        oracle = None
        for label, manager in variant_managers(names):
            f = manager.add_expr(text)
            if oracle is None:
                oracle = brute_force_p_one(names, f, weights)
            assert f.p_one(weights) == oracle, (label, text)


# ----------------------------------------------------------------------
# the restrict oracle for marginals
# ----------------------------------------------------------------------


@given(weighted_expr())
@settings(**_SETTINGS)
def test_marginals_match_restrict_oracle(case):
    """``p(v=1|f=1) = p_v * p_one(f|v=1) / p_one(f)`` per support var."""
    names, text, weights = case
    for label, manager in variant_managers(names):
        f = manager.add_expr(text)
        denominator = f.p_one(weights)
        if not denominator:
            with pytest.raises(WmcError, match="undefined"):
                f.marginals(weights)
            continue
        got = f.marginals(weights)
        assert sorted(got) == sorted(f.support())
        for name in got:
            p_v = weights.get(name, Fraction(1, 2))
            expected = p_v * p_one(f.restrict(name, True), weights) / denominator
            assert got[name] == expected, (label, text, name)


# ----------------------------------------------------------------------
# surface, fallback and error behavior
# ----------------------------------------------------------------------


def test_manager_and_function_spellings_agree():
    manager = repro.open("bbdd", vars=["a", "b", "c"])
    f = manager.add_expr("(a & b) | c")
    weights = {"a": Fraction(1, 4)}
    assert manager.p_one(f, weights) == f.p_one(weights)
    assert manager.weighted_count(f) == f.weighted_count()
    assert manager.marginals(f, weights) == f.marginals(weights)


def test_constants_and_sparse_support():
    for label, manager in variant_managers(["a", "b", "c", "d"]):
        assert manager.true().p_one() == 1, label
        assert manager.false().p_one() == 0, label
        assert manager.true().weighted_count() == 16, label
        # A function touching one of four variables: the others cancel.
        f = manager.var("c")
        assert f.p_one({"c": Fraction(1, 8)}) == Fraction(1, 8), label
        assert f.marginals() == {"c": Fraction(1)}, label


def test_shannon_count_fallback_matches_sweep():
    """The protocol-level Shannon reference equals the levelized sweep."""
    names = [f"v{i}" for i in range(5)]
    manager = repro.open("bbdd", vars=names)
    f = manager.add_expr("(v0 ^ v1) | (v2 & v3 & ~v4)")
    weights = {"v0": Fraction(1, 3), "v3": Fraction(5, 7)}
    w1, w0, one, zero = resolve_weights(manager, weights, probabilities=True)
    direct = shannon_count(manager, f.edge, w1, w0, one, zero)
    assert direct == f.p_one(weights)


def test_weight_validation_errors():
    manager = repro.open("bbdd", vars=["a", "b"])
    f = manager.var("a")
    with pytest.raises(WmcError, match=r"\[0, 1\]"):
        f.p_one({"a": 2})
    with pytest.raises(WmcError, match=r"\[0, 1\]"):
        f.p_one({"a": Fraction(-1, 2)})
    other = repro.open("bbdd", vars=["a", "b"])
    with pytest.raises(ForeignManagerError):
        manager.p_one(other.var("a"))


@pytest.mark.parametrize("shape", ["single", "pair"])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_non_finite_weights_raise_wmc_error(exact, shape):
    """inf, -inf and NaN are typed errors on every query path."""
    manager = repro.open("bbdd", vars=["a", "b"])
    f = manager.add_expr("a | b")
    with ShmForest.freeze(manager, {"f": f}) as forest:
        for bad in (math.inf, -math.inf, math.nan):
            values = [bad] if shape == "single" else [(bad, 1), (1, bad)]
            for value in values:
                weights = {"a": value}
                queries = [
                    lambda: f.weighted_count(weights, exact=exact),
                    lambda: f.p_one(weights, exact=exact),
                    lambda: f.marginals(weights, exact=exact),
                    lambda: forest.weighted_count("f", weights, exact=exact),
                    lambda: forest.p_one("f", weights, exact=exact),
                    lambda: forest.marginals("f", weights, exact=exact),
                ]
                for query in queries:
                    with pytest.raises(WmcError):
                        query()


def _sweeps():
    from repro import obs
    from repro.obs.catalog import family

    return family(obs.REGISTRY, "repro_wmc_sweeps_total").value


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_wmc_counts_sweeps(backend):
    """One sweep per count, two per marginals — on every path, errors too."""
    manager = repro.open(backend, vars=["a", "b"])
    f = manager.add_expr("a | b")
    before = _sweeps()
    f.p_one()
    f.weighted_count()
    assert _sweeps() - before == 2
    before = _sweeps()
    f.marginals()
    assert _sweeps() - before == 2
    # The undefined posterior still ran (and counts) both passes.
    before = _sweeps()
    with pytest.raises(WmcError, match="undefined"):
        manager.add_expr("a & ~a").marginals()
    with pytest.raises(WmcError, match="undefined"):
        f.marginals({"a": 0, "b": 0})
    assert _sweeps() - before == 4
    with ShmForest.freeze(manager, {"f": f, "zero": manager.false()}) as forest:
        before = _sweeps()
        forest.p_one("f")
        forest.weighted_count("f")
        assert _sweeps() - before == 2
        before = _sweeps()
        forest.marginals("f")
        with pytest.raises(WmcError, match="undefined"):
            forest.marginals("zero")
        assert _sweeps() - before == 4


# ----------------------------------------------------------------------
# the two-pass marginals kernel, site by site
# ----------------------------------------------------------------------


def _restrict_oracle(f, weights, names):
    """``p(v=1|f=1)`` per name from cofactor ``p_one`` sweeps."""
    denominator = f.p_one(weights)
    return {
        name: weights.get(name, Fraction(1, 2))
        * p_one(f.restrict(name, True), weights)
        / denominator
        for name in names
    }


def test_marginals_on_parity_spans_match_restrict_oracle():
    """Parity towers: every couple of a linear run decides two joints."""
    rng = random.Random(2014)
    weights = {name: Fraction(rng.randint(1, 15), 16) for name in TOWER_NAMES}
    for shape, builder in sorted(TOWER_BUILDERS.items()):
        for label, manager in variant_managers(TOWER_NAMES):
            f = builder(manager)
            got = f.marginals(weights, TOWER_NAMES)
            assert got == _restrict_oracle(f, weights, TOWER_NAMES), (label, shape)
            floats = f.marginals(weights, TOWER_NAMES, exact=False)
            assert floats == pytest.approx({k: float(v) for k, v in got.items()})


def test_marginals_on_sparse_support_with_gap_variables():
    """Gaps above the root, between levels and below the last test."""
    names = [f"v{i}" for i in range(10)]
    texts = [
        "(v3 & v5) | (v8 ^ v5)",
        "v4 ^ v7",
        "(v2 <-> v6) & ~v9",
        "v6",
        # A parity tower with a gap below its first variable.
        "v2 ^ v7 ^ v8 ^ v9",
    ]
    rng = random.Random(2014)
    for text in texts:
        weights = {name: Fraction(rng.randint(1, 31), 32) for name in names[::2]}
        for label, manager in variant_managers(names):
            f = manager.add_expr(text)
            got = f.marginals(weights, names)
            assert got == _restrict_oracle(f, weights, names), (label, text)
            for name in set(names) - set(f.support()):
                # Outside the support the posterior is the prior.
                assert got[name] == weights.get(name, Fraction(1, 2)), (label, name)


def test_marginals_with_zero_and_one_weights():
    names = [f"v{i}" for i in range(6)]
    text = "(v0 & v1) | (v2 ^ v3) | (v4 & ~v5)"
    weights = {"v0": 0, "v1": 1, "v2": Fraction(1), "v3": Fraction(3, 4), "v5": 0}
    for label, manager in variant_managers(names):
        f = manager.add_expr(text)
        got = f.marginals(weights, names)
        assert got == _restrict_oracle(f, weights, names), label
        assert got["v0"] == 0 and got["v1"] == 1 and got["v2"] == 1, label
        floats = f.marginals(weights, names, exact=False)
        assert floats == pytest.approx({k: float(v) for k, v in got.items()})


def test_float_marginals_of_rare_events_keep_relative_precision():
    """Tiny ``p(f)`` must not cost float posteriors their precision.

    ``NOR(x1..x10)`` at ``p = 0.99`` holds with probability ``1e-20``;
    a sibling NOR of nine adds a parity pair and a variable above the
    root.  Every float posterior must match the exact one to a relative
    ``1e-12`` — the posteriors that are exactly 0 included.
    """
    xs = [f"x{i}" for i in range(1, 11)]
    names = ["a"] + xs + ["y", "z"]
    weights = dict.fromkeys(xs, Fraction(99, 100))
    weights.update(a=Fraction(1, 5), y=Fraction(3, 10), z=Fraction(3, 5))
    floats = {name: float(p) for name, p in weights.items()}
    texts = {
        "nor10": "~(" + " | ".join(xs) + ")",
        "nor9_xor": "~(" + " | ".join(xs[:9]) + ") & (y ^ z)",
    }
    for label, manager in variant_managers(names):
        forest = {key: manager.add_expr(text) for key, text in texts.items()}
        with ShmForest.freeze(manager, forest) as frozen:
            for key, f in forest.items():
                want = f.marginals(weights, names)
                assert want == _restrict_oracle(f, weights, names), (label, key)
                for got in (
                    f.marginals(floats, names, exact=False),
                    frozen.marginals(key, floats, names, exact=False),
                ):
                    for name in names:
                        assert math.isclose(
                            got[name], float(want[name]), rel_tol=1e-12
                        ), (label, key, name, got[name], want[name])


def test_weighted_count_negative_and_float_weights_match_shannon():
    """Integer scaling is exact for negative pairs and 53-bit floats."""
    names = [f"v{i}" for i in range(7)]
    rng = random.Random(7)
    negative = {}
    for name in names:
        hi = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        negative[name] = (hi, rng.choice([-3, -2, -1, 1, 2, 3]) - hi)
    cancelling = dict(negative, v2=(Fraction(-5, 3), Fraction(5, 3)))
    floats = {name: (rng.random(), rng.uniform(-2, 2)) for name in names[:5]}
    texts = ["(v0 ^ v1) | (v2 & v3 & ~v4)", "v1 <-> (v5 ^ v6)", "v0 | v6"]
    for text in texts:
        for label, manager in variant_managers(names):
            f = manager.add_expr(text)
            assert f.weighted_count(cancelling) == 0, (label, text)
            for weights in (negative, floats, {k: negative[k] for k in ("v0", "v6")}):
                columns = resolve_weights(manager, weights, probabilities=False)
                want = shannon_count(manager, f.edge, *columns)
                assert f.weighted_count(weights) == want, (label, text)
            # And the 53-bit floats as exact probabilities.
            probs = {name: rng.random() for name in names}
            columns = resolve_weights(manager, probs, probabilities=True)
            assert f.p_one(probs) == shannon_count(manager, f.edge, *columns)


def test_shm_forest_marginals_equal_manager_marginals():
    names = TOWER_NAMES
    rng = random.Random(11)
    weights = {name: Fraction(rng.randint(0, 16), 16) for name in names[1:]}
    pairs = {name: (Fraction(rng.randint(-8, 8), 3), 1) for name in names[::2]}
    for label, manager in variant_managers(names):
        forest = {
            "tower": TOWER_BUILDERS["par_xor_var"](manager),
            "mixed": TOWER_BUILDERS["mixed"](manager),
            "sparse": manager.add_expr("(x2 & x5) | ~x7"),
            "one": manager.true(),
        }
        with ShmForest.freeze(manager, forest) as frozen:
            for name, f in forest.items():
                assert frozen.p_one(name, weights) == f.p_one(weights), (label, name)
                assert frozen.weighted_count(name, pairs) == f.weighted_count(pairs)
                want = f.marginals(weights, names)
                assert frozen.marginals(name, weights, names) == want, (label, name)
                assert frozen.marginals(name, weights) == f.marginals(weights)
                assert frozen.marginals(
                    name, weights, names, exact=False
                ) == pytest.approx(f.marginals(weights, names, exact=False))


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_default_marginals_list_keys_in_name_order_everywhere(backend):
    """A manager and its frozen forest list the default keys alike.

    The variables are declared out of name order, so index order and
    name order differ.
    """
    manager = repro.open(backend, vars=["z", "a", "m", "b"])
    f = manager.add_expr("(z & a) | (m ^ b)")
    want = f.marginals()
    assert list(want) == ["a", "b", "m", "z"]
    with ShmForest.freeze(manager, {"f": f}) as frozen:
        got = frozen.marginals("f")
    assert list(got) == list(want)
    assert got == want


def test_protocol_fallback_marginals_match_kernel():
    """The protocol-level Shannon reference answers what the column kernel does."""
    names = [f"v{i}" for i in range(6)]
    weights = {"v0": Fraction(1, 3), "v3": Fraction(5, 7), "v5": 0}
    for label, manager in variant_managers(names):
        probabilities = resolve_weights(manager, weights, probabilities=True)
        signed = resolve_weights(manager, {"v1": (2, -3)}, probabilities=False)
        units = resolve_weights(manager, None, probabilities=False)
        for text in ("(v0 ^ v1) | (v2 & v3 & ~v4)", "v3", "TRUE"):
            f = manager.add_expr(text)
            count, joint = shannon_count(
                manager, f.edge, *probabilities, joints=range(len(names))
            )
            assert posterior(count, joint, manager.var_name) == f.marginals(
                weights, names
            ), (label, text)
            assert shannon_count(manager, f.edge, *signed) == f.weighted_count(
                {"v1": (2, -3)}
            ), (label, text)
            assert shannon_count(manager, f.edge, *units) == f.sat_count(), (label, text)


# ----------------------------------------------------------------------
# compiled columns kept by the computed table
# ----------------------------------------------------------------------

#: The backends whose managers keep the last compiled root.
KEEPING = ["bbdd", "bdd"]
KEEP_NAMES = [f"v{i}" for i in range(6)]
KEEP_WEIGHTS = {"v0": Fraction(1, 3), "v2": Fraction(3, 4), "v5": Fraction(1, 7)}


def _check_queries(f):
    """Batch queries, p_one and sat_count against enumeration."""
    points = [
        {name: bool(code >> i & 1) for i, name in enumerate(KEEP_NAMES)}
        for code in range(1 << len(KEEP_NAMES))
    ]
    looped = [f.evaluate(point) for point in points]
    assert f.evaluate_batch(points) == looped
    rng = random.Random(7)
    cubes = [
        {name: rng.getrandbits(1) for name in rng.sample(KEEP_NAMES, k)}
        for k in (0, 1, 2, 3, 4, 6)
        for _ in range(4)
    ]
    assert f.satisfiable_batch(cubes) == [
        any(
            hit and all(point[name] == bit for name, bit in cube.items())
            for point, hit in zip(points, looped)
        )
        for cube in cubes
    ]
    assert f.p_one(KEEP_WEIGHTS) == brute_force_p_one(KEEP_NAMES, f, KEEP_WEIGHTS)
    assert f.sat_count() == sum(looped)


def _scenarios():
    for backend in KEEPING:
        for scenario in ("sift", "gc", "auto_gc", "new_var"):
            yield pytest.param(backend, scenario, id=f"{backend}-{scenario}")


@pytest.mark.parametrize("backend, scenario", list(_scenarios()))
def test_compiled_columns_live_as_long_as_computed_table(backend, scenario):
    """Queries keep the last compiled root; every table clear drops it.

    A clear that kept the columns would answer ``g`` with ``f``'s
    columns once ``g``'s root takes the slot ``f``'s root freed.
    """
    manager = repro.open(backend, vars=KEEP_NAMES)
    # Held literals stay live, so a dropped function frees only its own
    # nodes and the next function's root can take their slots.
    _literals = [manager.var(name) for name in KEEP_NAMES]
    f = manager.add_expr("(v0 ^ v3) | (v1 & ~v4) | (v2 <-> v5)")
    _check_queries(f)
    if scenario == "sift":
        # The identity order splits every pair of f, so sifting moves
        # variables (and rewinds its excursions).
        manager.sift()
        assert manager.current_order() != tuple(KEEP_NAMES)
        _check_queries(f)
        _check_queries(manager.add_expr("(v0 & v5) ^ (v1 | v4)"))
    elif scenario == "gc":
        manager.gc()
        small = manager.add_expr("v0 & v1")
        _check_queries(small)
        freed = small.edge
        del small
        manager.gc()
        g = manager.add_expr("v2 & v3")
        assert g.edge == freed  # the slot reuse this scenario needs
        _check_queries(g)
    elif scenario == "auto_gc":
        manager.gc()
        manager.gc_min_nodes = 1
        manager.gc_threshold = 0.05
        small = manager.add_expr("v0 & v1")
        _check_queries(small)
        freed = small.edge
        del small
        runs = manager.auto_gc_runs
        g = manager.add_expr("v2 & v3")
        assert manager.auto_gc_runs > runs
        h = manager.add_expr("v1 & v2")
        assert h.edge == freed  # the slot reuse this scenario needs
        _check_queries(h)
        _check_queries(g)
    else:
        models = f.sat_count()
        manager.new_var("v6")
        assert f.sat_count() == 2 * models
        assert f.p_one(KEEP_WEIGHTS) == brute_force_p_one(KEEP_NAMES, f, KEEP_WEIGHTS)
