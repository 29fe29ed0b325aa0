"""Combinational logic networks and the BLIF/Verilog frontends.

The paper's packages consume gate-level descriptions: CUDD reads BLIF, the
BBDD package reads structural Verilog flattened onto primitive Boolean
operations (XOR, AND, OR, INV, BUF).  This subpackage provides the shared
network IR, both frontends, bit-parallel simulation and the
network-to-decision-diagram builders used by every experiment harness.
"""

from repro.network.network import Gate, LogicNetwork, NetlistError
from repro.network.build import build
from repro.network.simulate import simulate, exhaustive_masks

__all__ = [
    "Gate",
    "LogicNetwork",
    "NetlistError",
    "build",
    "simulate",
    "exhaustive_masks",
]
