"""Symbolic reachability: BFS fixpoints checked against explicit search.

Builds the transition systems of an enabled 6-bit counter and an 8-bit
LFSR, runs the breadth-first fixpoint (each image is one fused
``and_exists`` followed by a ``let`` that shifts the next-state
variables back onto the current frame), and compares the reachable
state codes with the explicit bit-parallel BFS oracle.  Exits non-zero
on any mismatch.

Run:  python examples/reachability.py    (REPRO_BACKEND=bdd to switch)
"""

import os
import sys

from repro.reach import explicit_reachable, from_network, models, reachable


def main() -> int:
    backend = os.environ.get("REPRO_BACKEND", "bbdd")
    print("backend:", backend)
    mismatches = 0
    for network in (models.counter(6), models.lfsr(8)):
        system = from_network(network, backend=backend)
        result = reachable(system)
        codes = system.state_codes(result.states)
        oracle = explicit_reachable(network)
        agree = codes == oracle and result.state_count == len(oracle)
        print(
            f"{network.name}: {result.state_count} states in "
            f"{result.iterations} images (frontier peak "
            f"{result.frontier_peak} nodes); explicit BFS finds "
            f"{len(oracle)}: {'ok' if agree else 'MISMATCH'}"
        )
        mismatches += not agree
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
