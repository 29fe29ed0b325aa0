"""Weighted-counting gates: exact ``p_one`` versus the truth-table oracle.

For every Table I circuit whose fast profile has at most 20 inputs, the
exhaustive bit-parallel simulator (:func:`repro.network.simulate.
output_truth_masks`) computes the representative output's full truth
table, and a memoized Shannon fold over that word with pseudo-random
``k/16`` weights gives the ground-truth ``P[f = 1]`` as an exact
Fraction.  The acceptance gate: ``f.p_one(weights)`` must equal that
oracle **bit for bit** on every circuit across all three backends
(bbdd/bdd/xmem) — the levelized sweep is an optimization of the
semantics, never an approximation.

The sweep-vs-enumeration timing of the largest circuit lands in
``benchmarks/out/BENCH_wmc.json`` so the asymptotic win (O(nodes) per
query versus O(2^n) enumeration) stays visible run over run.  On the
circuit with the most inputs, exact marginals must equal the restrict
oracle bit for bit, and float marginals over the whole support may cost
at most :data:`MARGINALS_COST_LIMIT` float ``p_one`` sweeps — two
passes, not one re-sweep per variable.
"""

import random
import time
import zlib
from fractions import Fraction

from repro.circuits.registry import TABLE1_ROWS
from repro.network.build import build
from repro.network.simulate import output_truth_masks
from _metrics import record_metric

INPUT_LIMIT = 20
BACKENDS = ("bbdd", "bdd", "xmem")
WEIGHT_SEED = 0x20140807

#: Float marginals over the full support versus one float ``p_one``.
MARGINALS_COST_LIMIT = 3.0


def _oracle_fold(word, names, probs):
    """Exact ``P[f = 1]`` by memoized Shannon folding of a truth word.

    ``word`` is the exhaustive truth table over ``names`` (input ``j``
    is bit ``j`` of the pattern index).  The fold splits on the highest
    variable; full and empty subwords terminate immediately because
    probability mass over a subcube always sums to one.
    """
    memo = {}

    def fold(w, k):
        if w == 0:
            return Fraction(0)
        full = (1 << (1 << k)) - 1
        if w == full:
            return Fraction(1)
        key = (k, w)
        hit = memo.get(key)
        if hit is not None:
            return hit
        half = 1 << (k - 1)
        p = probs[names[k - 1]]
        value = (1 - p) * fold(w & ((1 << half) - 1), k - 1) + p * fold(
            w >> half, k - 1
        )
        memo[key] = value
        return value

    return fold(word, len(names))


def _eligible_circuits():
    """Fast-profile Table I circuits with at most ``INPUT_LIMIT`` inputs."""
    for row in TABLE1_ROWS:
        network = row.build(full=False)
        if network.num_inputs <= INPUT_LIMIT:
            yield row.name, network


def test_p_one_bit_exact_on_table1_circuits(capsys):
    """Gate: exact-Fraction ``p_one`` == truth-table oracle, everywhere."""
    checked = 0
    slowest = (0.0, None)
    enumeration_s = {}
    sweep_s = {}
    for name, network in _eligible_circuits():
        # crc32, not hash(): string hashes are salted per process.
        rng = random.Random(WEIGHT_SEED ^ zlib.crc32(name.encode()))
        weights = {
            signal: Fraction(rng.randint(0, 16), 16)
            for signal in network.inputs
        }
        t0 = time.perf_counter()
        truth = output_truth_masks(network)
        # The representative output: the one touching the most of the
        # circuit (densest truth word ties break deterministically).
        output = max(
            truth, key=lambda out: (bin(truth[out]).count("1"), out)
        )
        oracle = _oracle_fold(truth[output], network.inputs, weights)
        t_oracle = time.perf_counter() - t0
        enumeration_s[name] = t_oracle

        for backend in BACKENDS:
            manager, functions = build(network, backend=backend)
            f = functions[output]
            t0 = time.perf_counter()
            got = f.p_one(weights)
            t_sweep = time.perf_counter() - t0
            sweep_s.setdefault(name, {})[backend] = t_sweep
            # -- the acceptance gate ----------------------------------
            assert got == oracle, (
                f"{name}/{output} on {backend}: p_one {got} != oracle "
                f"{oracle} ({network.num_inputs} inputs)"
            )
        checked += 1
        if t_oracle > slowest[0]:
            slowest = (t_oracle, name)

    assert checked >= 8, f"only {checked} circuits under {INPUT_LIMIT} inputs"
    big = slowest[1]
    with capsys.disabled():
        print(
            f"\nwmc: {checked} circuits bit-exact across {len(BACKENDS)} "
            f"backends; largest ({big}) oracle {enumeration_s[big]:.3f}s vs "
            f"sweep {max(sweep_s[big].values()):.4f}s"
        )
    record_metric("wmc", "circuits_bit_exact", checked, "count")
    record_metric("wmc", "oracle_enumeration_s", enumeration_s[big], "s")
    for backend, t_sweep in sweep_s[big].items():
        record_metric("wmc", f"p_one_sweep_{backend}_s", t_sweep, "s")


def _best_seconds(fn, repeats=5):
    """The fastest of ``repeats`` timed calls of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_marginals_throughput_on_largest_circuit(capsys, once):
    """All posterior marginals of the widest eligible circuit, gated.

    Exact marginals equal the restrict oracle
    ``p_v * p_one(f | v = 1) / p_one(f)`` bit for bit; float marginals
    over the full support cost at most ``MARGINALS_COST_LIMIT`` float
    ``p_one`` sweeps.
    """
    name, network = max(
        _eligible_circuits(), key=lambda item: item[1].num_inputs
    )
    manager, functions = build(network, backend="bbdd")
    f = max(functions.values(), key=lambda g: g.node_count())
    rng = random.Random(WEIGHT_SEED)
    weights = {
        signal: Fraction(rng.randint(1, 15), 16) for signal in network.inputs
    }

    t0 = time.perf_counter()
    posterior = once(f.marginals, weights)
    elapsed = time.perf_counter() - t0
    support = sorted(f.support())
    assert sorted(posterior) == support
    denominator = f.p_one(weights)
    for var in support:
        oracle = weights[var] * f.restrict(var, True).p_one(weights) / denominator
        assert posterior[var] == oracle, f"{name}: marginal of {var}"

    p_one_s = _best_seconds(lambda: f.p_one(weights, exact=False))
    marginals_s = _best_seconds(lambda: f.marginals(weights, exact=False))
    ratio = marginals_s / p_one_s
    with capsys.disabled():
        print(
            f"wmc: {name} marginals over {len(support)} vars "
            f"({f.node_count()} nodes) exact {elapsed:.3f}s; float "
            f"{marginals_s:.4f}s = {ratio:.2f}x p_one {p_one_s:.4f}s"
        )
    assert ratio <= MARGINALS_COST_LIMIT, (
        f"{name}: float marginals cost {ratio:.2f}x p_one "
        f"(limit {MARGINALS_COST_LIMIT}x)"
    )
    record_metric("wmc", "marginals_vars", len(support), "count")
    record_metric("wmc", "marginals_s", elapsed, "s")
    record_metric("wmc", "marginals_float_s", marginals_s, "s")
    record_metric("wmc", "marginals_cost_vs_p_one", ratio, "ratio")
