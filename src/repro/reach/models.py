"""Sequential benchmark FSMs for the reachability harness.

Three families with known orbits, each a sequential
:class:`~repro.network.network.LogicNetwork` (latches + combinational
next-state core), smallest to hardest:

* :func:`counter` — a binary up-counter; with the enable input every
  state both advances and stutters, and all ``2^bits`` states are
  reachable on one cycle (the known-cyclic termination fixture);
* :func:`lfsr` — a Fibonacci linear-feedback shift register, the
  linear/XOR-heavy shape biconditional couples absorb;
* :func:`cellular_automaton` — an elementary rule-110 ring, the
  *nonlinear* stress model whose transition relation is the largest of
  the three (the benchmark gate's workload).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.network.network import LogicNetwork


def counter(bits: int, enable: bool = True) -> LogicNetwork:
    """A ``bits``-wide binary up-counter, reset to zero.

    ``s' = s + 1 (mod 2^bits)`` each cycle — gated by the primary input
    ``en`` when ``enable`` is set (the counter may also hold, so image
    steps include self-loops).  Every state is reachable from the reset
    state and the orbit is one full cycle.
    """
    net = LogicNetwork(f"counter{bits}" + ("e" if enable else ""))
    states = [f"s{i}" for i in range(bits)]
    if enable:
        net.add_input("en")
    for i, state in enumerate(states):
        net.add_latch(f"d{i}", state, 0)
    net.reserve_names([f"d{i}" for i in range(bits)])
    carry = "en" if enable else net.const(True)
    for i, state in enumerate(states):
        net.add_gate("XOR", [state, carry], name=f"d{i}")
        if i + 1 < bits:
            carry = net.and_(state, carry)
    net.set_output("q", states[-1])
    net.validate()
    return net


def lfsr(bits: int, taps: Optional[Sequence[int]] = None) -> LogicNetwork:
    """A Fibonacci LFSR shifting towards bit 0, seeded with ``...0001``.

    ``taps`` are the state bits XORed into the new top bit (default:
    bit 0 and the middle bit).  No primary inputs — the orbit is a pure
    function of the seed.
    """
    net = LogicNetwork(f"lfsr{bits}")
    states = [f"s{i}" for i in range(bits)]
    for i, state in enumerate(states):
        net.add_latch(f"d{i}", state, 1 if i == 0 else 0)
    net.reserve_names([f"d{i}" for i in range(bits)])
    if taps is None:
        taps = (0, bits // 2) if bits > 1 else (0,)
    feedback = [states[t] for t in sorted(set(taps))]
    for i in range(bits - 1):
        net.add_gate("BUF", [states[i + 1]], name=f"d{i}")
    if len(feedback) == 1:
        net.add_gate("BUF", feedback, name=f"d{bits - 1}")
    else:
        net.add_gate("XOR", feedback, name=f"d{bits - 1}")
    net.set_output("q", states[0])
    net.validate()
    return net


def cellular_automaton(cells: int, seed: int = 1) -> LogicNetwork:
    """An elementary rule-110 cellular automaton on a ring of ``cells``.

    Each cell updates from its neighborhood ``(p, q, r)`` as
    ``(q | r) & ~(p & q & r)`` — nonlinear, so the transition relation
    has none of the XOR structure the other models exploit.  ``seed``
    is the initial configuration (bit ``i`` = cell ``i``).
    """
    net = LogicNetwork(f"ca{cells}")
    states = [f"c{i}" for i in range(cells)]
    for i, state in enumerate(states):
        net.add_latch(f"d{i}", state, seed >> i & 1)
    net.reserve_names([f"d{i}" for i in range(cells)])
    for i in range(cells):
        left = states[(i - 1) % cells]
        mid = states[i]
        right = states[(i + 1) % cells]
        either = net.or_(mid, right)
        all_three = net.and_(left, mid, right)
        net.add_gate("AND", [either, net.inv(all_three)], name=f"d{i}")
    net.set_output("q", states[0])
    net.validate()
    return net
