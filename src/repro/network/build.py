"""Network-to-decision-diagram builders.

Both packages are driven identically (the Table I pipeline): variables are
created in the network's input order (the paper's "initial order provided
in the file"), gates are translated bottom-up with the package's recursive
apply, and the outputs are returned as function handles on a shared
manager.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.operations import OP_AND, OP_OR, OP_XNOR, OP_XOR, flip_output

_GATE_TO_OP = {
    "AND": OP_AND,
    "OR": OP_OR,
    "XOR": OP_XOR,
    "XNOR": OP_XNOR,
    "NAND": flip_output(OP_AND),
    "NOR": flip_output(OP_OR),
}


def _build(manager, network, make_manager_edge) -> Dict[str, object]:
    """Shared builder core: fold every gate through ``apply_edges``.

    Signal edges are held bare across the whole bottom-up pass, so
    automatic GC is deferred until the outputs are wrapped in handles.
    """
    with manager.defer_gc():
        return _build_deferred(manager, network, make_manager_edge)


def _build_deferred(manager, network, make_manager_edge) -> Dict[str, object]:
    from repro.core.exceptions import BBDDError

    edges: Dict[str, tuple] = {}
    for j, name in enumerate(network.inputs):
        # Bind inputs by *name* when the manager knows them — a supplied
        # manager may order its variables differently (or hold extras,
        # e.g. the next-state variables of a transition-system order);
        # managers with anonymous positional variables fall back to the
        # input's position.
        try:
            edges[name] = manager.literal_edge(name)
        except BBDDError:
            edges[name] = manager.literal_edge(j)

    for signal in network.topological_order():
        gate = network.gates[signal]
        op = gate.op
        if op == "CONST0":
            edges[signal] = manager.false_edge
            continue
        if op == "CONST1":
            edges[signal] = manager.true_edge
            continue
        fanins = [edges[f] for f in gate.fanins]
        if op == "BUF":
            edges[signal] = fanins[0]
        elif op == "INV":
            edges[signal] = manager.negate_edge(fanins[0])
        elif op == "MUX":
            s, a, b = fanins
            sa = manager.apply_edges(s, a, OP_AND)
            sb = manager.apply_edges(manager.negate_edge(s), b, OP_AND)
            edges[signal] = manager.apply_edges(sa, sb, OP_OR)
        elif op == "MAJ":
            a, b, c = fanins
            ab = manager.apply_edges(a, b, OP_AND)
            ac = manager.apply_edges(a, c, OP_AND)
            bc = manager.apply_edges(b, c, OP_AND)
            edges[signal] = manager.apply_edges(
                manager.apply_edges(ab, ac, OP_OR), bc, OP_OR
            )
        else:
            table = _GATE_TO_OP[op]
            if op in ("NAND", "NOR"):
                # Fold as the positive op, complement the final edge.
                positive = OP_AND if op == "NAND" else OP_OR
                acc = fanins[0]
                for nxt in fanins[1:]:
                    acc = manager.apply_edges(acc, nxt, positive)
                edges[signal] = manager.negate_edge(acc)
            else:
                acc = fanins[0]
                for nxt in fanins[1:]:
                    acc = manager.apply_edges(acc, nxt, table)
                edges[signal] = acc

    return {name: make_manager_edge(edges[sig]) for name, sig in network.outputs}


def build(
    network,
    backend: str = "bbdd",
    manager=None,
    **manager_kwargs,
) -> Tuple[object, Dict[str, object]]:
    """Build decision diagrams for all outputs of ``network``.

    The one backend-agnostic entry point: ``backend`` names any
    registered :mod:`repro.api` backend (``"bbdd"``, ``"bdd"``,
    ``"xmem"``, ...) and the returned manager/handles implement the
    uniform protocol, so every client drives all packages through the
    identical code path.  Returns ``(manager, {output name: function})``;
    a fresh manager with the network's input order is created unless one
    is supplied.  Extra keyword arguments go to the backend factory
    (``computed_backend`` for the table-backed packages,
    ``node_budget`` for xmem, ...).
    """
    if manager is None:
        from repro.api import open as _open

        manager = _open(backend, vars=list(network.inputs), **manager_kwargs)
    functions = _build(manager, network, manager.function)
    return manager, functions

