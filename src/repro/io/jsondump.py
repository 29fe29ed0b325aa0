"""JSON/dict interchange codec for BBDD forests (debuggability format).

The dict form mirrors the binary layout (see :mod:`repro.io.format`)
but names everything explicitly, so a dump is greppable and diffable:

.. code-block:: python

    {
      "format": "bbdd-json",
      "version": 1,
      "variables": ["a", "b", "c"],        # manager namespace
      "order": ["a", "b", "c"],            # CVO, root to bottom
      "nodes": [                           # bottom-up; id = index + 1
        {"id": 1, "var": "c"},                            # literal (R4)
        {"id": 2, "pv": "a", "sv": "b",                   # chain node
         "neq": [1, true], "eq": [1, false]},             # [id, attr]
      ],
      "roots": {"f": [2, false]}           # name -> [id, attr]; id 0 = sink
    }

Loading replays the node list through the same
:class:`~repro.io.migrate.ForestRebuilder` as the binary reader, so all
the cross-order / superset-variable migration semantics apply here too.
"""

from __future__ import annotations

import json
from typing import Dict, Tuple

from repro.core.function import Function

from repro.io.binary import _named_edges, forest_records
from repro.io.format import CHAIN_DUMP_REJECTED, FormatError
from repro.io.migrate import ForestRebuilder, Rename

JSON_FORMAT = "bbdd-json"
JSON_VERSION = 1


def to_dict(manager, functions) -> dict:
    """Encode a forest as the documented dict form."""
    named = _named_edges(functions)
    records, ids = forest_records(manager, named)
    nodes = []
    for _position, sv_position, node, neq, eq in records:
        pv, sv, _d, _e = manager.node_fields(node)
        if sv_position is None:
            nodes.append({"id": ids[node], "var": manager.var_name(pv)})
        else:
            nodes.append(
                {
                    "id": ids[node],
                    "pv": manager.var_name(pv),
                    "sv": manager.var_name(sv),
                    "neq": [neq[0], neq[1]],
                    "eq": [eq[0], eq[1]],
                }
            )
    return {
        "format": JSON_FORMAT,
        "version": JSON_VERSION,
        "variables": list(manager.var_names),
        "order": [manager.var_name(v) for v in manager.order.order],
        "nodes": nodes,
        "roots": {
            name: [ids[-edge if edge < 0 else edge], edge < 0]
            for name, edge in named
        },
    }


def from_dict(
    data: dict,
    manager=None,
    rename: Rename = None,
) -> Tuple[object, Dict[str, Function]]:
    """Rebuild a forest from its dict form; see :func:`repro.io.binary.load`."""
    if data.get("format") != JSON_FORMAT:
        raise FormatError(f"not a {JSON_FORMAT} document")
    if data.get("version") != JSON_VERSION:
        raise FormatError(f"unsupported {JSON_FORMAT} version {data.get('version')}")
    ordered_names = list(data["order"])
    if sorted(ordered_names) != sorted(data["variables"]):
        raise FormatError("order is not a permutation of the variables")
    if manager is None:
        from repro.core.manager import BBDDManager
        from repro.io.migrate import _resolve_rename

        # Fresh manager: take the dump's order *after* renaming (the
        # rebuilder resolves renamed names against the manager).
        rename_fn = _resolve_rename(rename)
        manager = BBDDManager([rename_fn(name) for name in ordered_names])
    rebuilder = ForestRebuilder(manager, ordered_names, rename=rename)
    position_of = {name: pos for pos, name in enumerate(ordered_names)}
    with manager.defer_gc():
        return _replay(rebuilder, manager, data, position_of)


def _replay(rebuilder, manager, data, position_of):

    def position_for(name):
        try:
            return position_of[name]
        except KeyError:
            raise FormatError(f"unknown variable {name!r} in dump") from None

    for expected_id, record in enumerate(data["nodes"], start=1):
        if record["id"] != expected_id:
            raise FormatError(
                f"node ids must be dense and bottom-up; expected {expected_id}, "
                f"got {record['id']}"
            )
        if "var" in record:
            rebuilder.add_record(position_for(record["var"]), 0, 0, 0)
            continue
        if "bot" in record:
            raise FormatError(CHAIN_DUMP_REJECTED)
        position = position_for(record["pv"])
        sv_position = position_for(record["sv"])
        if sv_position <= position:
            raise FormatError(
                f"chain SV {record['sv']!r} does not lie below PV {record['pv']!r}"
            )
        neq_id, neq_attr = record["neq"]
        eq_id, eq_attr = record["eq"]
        rebuilder.add_record(
            position,
            sv_position - position,
            (neq_id << 1) | bool(neq_attr),
            (eq_id << 1) | bool(eq_attr),
        )
    functions = {}
    for name, (node_id, attr) in data["roots"].items():
        edge = rebuilder.edge_for((node_id << 1) | bool(attr))
        functions[name] = Function(manager, edge)
    return manager, functions


def dump_json(manager, functions, target, indent=2) -> None:
    """Write the dict form as JSON to a path or text file object."""
    data = to_dict(manager, functions)
    if hasattr(target, "write"):
        json.dump(data, target, indent=indent)
        return
    with open(target, "w", encoding="utf-8") as fileobj:
        json.dump(data, fileobj, indent=indent)


def load_json(source, manager=None, rename: Rename = None):
    """Load a JSON dump from a path or text file object."""
    if hasattr(source, "read"):
        data = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fileobj:
            data = json.load(fileobj)
    return from_dict(data, manager=manager, rename=rename)
