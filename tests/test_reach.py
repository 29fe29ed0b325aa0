"""Symbolic reachability: differential oracles over every backend.

Two ground truths anchor :mod:`repro.reach`:

* **explicit-state BFS** — the symbolic fixpoint's reachable set must
  enumerate to exactly the codes explicit simulation finds, on random
  transition systems up to 12 state bits;
* the **unfused oracle** — ``and_exists(f, g, V)`` must equal
  ``exists(f & g, V)`` on every backend (the fused relational product
  is an optimization, never a semantic change).

Plus the fixtures the fixpoint contract promises: termination on a
known-cyclic FSM, the ``max_iterations`` guard, and the latch-aware
BLIF round trip the frontends feed from.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.network.blif import parse_blif, write_blif
from repro.network.network import LogicNetwork
from repro.reach import (
    ReachError,
    explicit_reachable,
    from_network,
    initial_codes,
    models,
    primed,
    reachable,
)

from test_api_protocol import ALL_BACKENDS

_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

def random_transition_network(rng, bits, inputs=0):
    """A random sequential network: ``bits`` latches, random next-state.

    Each next-state function is a random small expression over the
    current state (and optional primary inputs) built from the network
    convenience gates, so the explicit oracle and the symbolic builder
    see the identical structure.
    """
    net = LogicNetwork(f"rand{bits}")
    states = [f"s{i}" for i in range(bits)]
    extra = [net.add_input(f"x{j}") for j in range(inputs)]
    for i, state in enumerate(states):
        net.add_latch(f"d{i}", state, rng.randint(0, 1))
    net.reserve_names([f"d{i}" for i in range(bits)])
    signals = states + extra
    for i in range(bits):
        a, b, c = (rng.choice(signals) for _ in range(3))
        kind = rng.randrange(5)
        if kind == 0:
            out = net.xor(a, b)
        elif kind == 1:
            out = net.and_(a, net.inv(b))
        elif kind == 2:
            out = net.or_(a, net.and_(b, c))
        elif kind == 3:
            out = net.mux(a, b, net.inv(c))
        else:
            out = net.xnor(a, b)
        net.add_gate("BUF", [out], name=f"d{i}")
    net.set_output("q", states[0])
    net.validate()
    return net


# ----------------------------------------------------------------------
# symbolic vs explicit-state BFS
# ----------------------------------------------------------------------


def test_random_systems_match_explicit_bfs():
    """Random ≤12-bit transition systems: symbolic == explicit, all backends."""
    rng = random.Random(14)
    cases = [(3, 0), (4, 1), (5, 2), (6, 0), (8, 1), (10, 0), (12, 0)]
    for bits, inputs in cases:
        net = random_transition_network(rng, bits, inputs)
        oracle = explicit_reachable(net)
        for backend in ALL_BACKENDS:
            system = from_network(net, backend=backend)
            result = reachable(system)
            codes = system.state_codes(result.states)
            assert codes == oracle, (net.name, backend)
            assert result.state_count == len(oracle)
            assert result.iterations <= len(oracle)


def test_model_families_match_explicit_bfs():
    """The shipped FSM families agree with the oracle on every backend."""
    nets = [
        models.counter(4),
        models.lfsr(5),
        models.cellular_automaton(5, seed=0b101),
    ]
    for net in nets:
        oracle = explicit_reachable(net)
        for backend in ALL_BACKENDS:
            system = from_network(net, backend=backend)
            result = reachable(system)
            assert system.state_codes(result.states) == oracle, (
                net.name,
                backend,
            )


def test_dont_care_resets_expand_both_initial_states():
    net = models.lfsr(3)
    net.latches[1] = (net.latches[1][0], net.latches[1][1], 2)
    assert len(initial_codes(net)) == 2
    oracle = explicit_reachable(net)
    system = from_network(net)
    result = reachable(system)
    assert system.state_codes(result.states) == oracle


# ----------------------------------------------------------------------
# the unfused and_exists oracle
# ----------------------------------------------------------------------


@st.composite
def conjoined_pair(draw, max_vars=6, max_depth=3):
    """Two random expressions plus a quantified-variable subset."""
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

    subset = [name for name in names if draw(st.booleans())]
    return names, expr(0), expr(0), subset


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@given(case=conjoined_pair())
@settings(**_SETTINGS)
def test_and_exists_equals_unfused(backend, case):
    """``and_exists(f, g, V) == exists(f & g, V)`` on every backend."""
    names, f_text, g_text, subset = case
    manager = repro.open(backend, vars=names)
    f = manager.add_expr(f_text)
    g = manager.add_expr(g_text)
    fused = f.and_exists(g, subset)
    assert fused == (f & g).exists(subset), (backend, f_text, g_text, subset)
    # Manager spelling, operand order and the empty set behave too.
    assert manager.and_exists(g, f, subset) == fused
    assert f.and_exists(g, []) == (f & g)


def _parity_tower_operand(rng, names):
    """A random operand around a 5-variable parity tower.

    On BBDDs the tower is a run of linear couples, so quantifying a
    couple's secondary variable substitutes into children rooted at
    ``v``, rooted at ``w`` and rooted deeper.
    """
    k = rng.randrange(len(names) - 4)
    tower = " ^ ".join(names[k : k + 5])
    a, b = rng.sample(names, 2)
    shape = rng.randrange(4)
    if shape == 0:
        return f"({a} | {b}) & ({tower})"
    if shape == 1:
        return f"({tower}) ^ ({a} & {b})"
    if shape == 2:
        return f"~({tower})"
    return f"({a} -> {b}) & ~({tower})"


def test_and_exists_chain_spans_match_restrict_oracle():
    """Parity towers (XOR chains): fused and unfused == restrict-OR.

    The oracle is computed once per case on a separate bbdd manager by
    OR-ing the two restricts of each quantified variable in turn; every
    backend must agree with it.
    """
    rng = random.Random(2026)
    names = [f"v{i}" for i in range(8)]
    managers = [repro.open(backend, vars=names) for backend in ALL_BACKENDS]
    oracle_manager = repro.open("bbdd", vars=names)
    for _case in range(600):
        f_text = _parity_tower_operand(rng, names)
        g_text = _parity_tower_operand(rng, names)
        subset = [name for name in names if rng.getrandbits(1)]
        oracle = oracle_manager.add_expr(f_text) & oracle_manager.add_expr(g_text)
        for name in subset:
            oracle = oracle.restrict(name, False) | oracle.restrict(name, True)
        want = oracle.truth_mask(names)
        for manager in managers:
            f = manager.add_expr(f_text)
            g = manager.add_expr(g_text)
            case = (manager.backend, f_text, g_text, subset)
            assert f.and_exists(g, subset).truth_mask(names) == want, case
            assert (f & g).exists(subset).truth_mask(names) == want, case
    for manager in managers:
        manager.check_invariants()


# ----------------------------------------------------------------------
# fixpoint contract
# ----------------------------------------------------------------------


def test_fixpoint_terminates_on_known_cyclic_fsm():
    """The enabled counter cycles through all states and still converges."""
    system = from_network(models.counter(5))
    result = reachable(system)
    assert result.state_count == 32
    assert result.iterations == 32
    assert result.frontier_peak >= 1
    assert result.visited_peak >= result.frontier_peak
    # Re-running from the full fixpoint converges immediately.
    again = reachable(system, init=result.states)
    assert again.iterations <= 1
    assert again.state_count == 32


def test_max_iterations_guard():
    system = from_network(models.counter(4))
    with pytest.raises(ReachError, match="3 iterations"):
        reachable(system, max_iterations=3)
    assert reachable(system, max_iterations=16).state_count == 16


def test_from_network_requires_latches():
    net = LogicNetwork("comb")
    net.add_input("a")
    net.set_output("q", "a")
    with pytest.raises(ReachError, match="no latches"):
        from_network(net)
    with pytest.raises(ReachError, match="no latches"):
        explicit_reachable(net)


def test_primed_names_and_order_interleaving():
    system = from_network(models.lfsr(3))
    manager = system.manager
    assert system.primed == [primed(s) for s in system.current]
    order = [manager.var_name(v) for v in manager.order.order]
    assert order[:6] == ["s0", "s0'", "s1", "s1'", "s2", "s2'"]


# ----------------------------------------------------------------------
# latch-aware BLIF round trip
# ----------------------------------------------------------------------


def test_blif_latch_round_trip():
    net = models.cellular_automaton(4, seed=0b0110)
    text = write_blif(net)
    back = parse_blif(text)
    assert back.latches == net.latches
    # Latch states must not reappear as .inputs.
    inputs_line = next(
        line for line in text.splitlines() if line.startswith(".inputs")
    )
    assert "c0" not in inputs_line
    assert explicit_reachable(back) == explicit_reachable(net)


def test_blif_latch_defaults_and_init():
    net = parse_blif(
        """
        .model seq
        .inputs x
        .outputs y
        .latch nxt st 1
        .latch nxt st2
        .names x st nxt
        11 1
        .names st y
        1 1
        .end
        """
    )
    assert net.latches == [("nxt", "st", 1), ("nxt", "st2", 0)]
    assert initial_codes(net) == [1]
