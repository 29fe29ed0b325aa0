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
        {"id": 2, "pv": "a", "sv": "b",                   # couple
         "neq": [1, true], "eq": [1, false]},             # [id, attr]
      ],
      "roots": {"f": [2, false]}           # name -> [id, attr]; id 0 = sink
    }

Both directions go through the rows of :mod:`repro.io.migrate`:
:func:`to_dict` reads the same rows as the binary writer (so a BBDD or
an xmem forest exports), and :func:`from_dict` replays through the
same :class:`~repro.io.migrate.ForestRebuilder` as the binary reader,
so all the cross-order / superset-variable semantics apply here too.
The form holds couples and literals only: a baseline-BDD forest with
Shannon nodes raises :class:`~repro.core.exceptions.BBDDError` and
belongs in a binary dump.
"""

from __future__ import annotations

import json
from typing import Dict, Tuple

from repro.core.exceptions import BBDDError

from repro.io.format import CHAIN_DUMP_REJECTED, FormatError
from repro.io.migrate import ForestRebuilder, Rename, _resolve_rename, export_rows

JSON_FORMAT = "bbdd-json"
JSON_VERSION = 1


def _ref(ref: int) -> list:
    return [ref >> 1, bool(ref & 1)]


def to_dict(manager, functions) -> dict:
    """Encode a forest as the documented dict form."""
    levels, roots = export_rows(manager, functions)
    ordered = list(manager.current_order())
    nodes = []
    for _position, rows in levels:
        for position, sv_position, t_ref, f_ref in rows:
            node = {"id": len(nodes) + 1}
            if sv_position is not None:
                node.update(
                    pv=ordered[position],
                    sv=ordered[sv_position],
                    neq=_ref(t_ref),
                    eq=_ref(f_ref),
                )
            elif (t_ref, f_ref) == (0, 1):
                node["var"] = ordered[position]
            else:
                raise BBDDError(
                    "this forest has Shannon nodes, which the JSON form "
                    "cannot hold; write it with repro.io.dump instead"
                )
            nodes.append(node)
    return {
        "format": JSON_FORMAT,
        "version": JSON_VERSION,
        "variables": list(manager.var_names),
        "order": ordered,
        "nodes": nodes,
        "roots": {name: _ref(ref) for name, ref in roots},
    }


def from_dict(
    data: dict,
    manager=None,
    rename: Rename = None,
) -> Tuple[object, Dict[str, object]]:
    """Rebuild a forest from its dict form; see :func:`repro.io.binary.load`."""
    if data.get("format") != JSON_FORMAT:
        raise FormatError(f"not a {JSON_FORMAT} document")
    if data.get("version") != JSON_VERSION:
        raise FormatError(f"unsupported {JSON_FORMAT} version {data.get('version')}")
    ordered_names = list(data["order"])
    if sorted(ordered_names) != sorted(data["variables"]):
        raise FormatError("order is not a permutation of the variables")
    position_of = {name: pos for pos, name in enumerate(ordered_names)}

    def position_for(name):
        try:
            return position_of[name]
        except KeyError:
            raise FormatError(f"unknown variable {name!r} in dump") from None

    rows = []
    for expected_id, record in enumerate(data["nodes"], start=1):
        if record["id"] != expected_id:
            raise FormatError(
                f"node ids must be dense and bottom-up; expected {expected_id}, "
                f"got {record['id']}"
            )
        if "var" in record:
            rows.append((position_for(record["var"]), None, 0, 1))
            continue
        if "bot" in record:
            raise FormatError(CHAIN_DUMP_REJECTED)
        neq_id, neq_attr = record["neq"]
        eq_id, eq_attr = record["eq"]
        rows.append(
            (
                position_for(record["pv"]),
                position_for(record["sv"]),
                neq_id << 1 | bool(neq_attr),
                eq_id << 1 | bool(eq_attr),
            )
        )
    if manager is None:
        from repro.core.manager import BBDDManager

        # Fresh manager: take the dump's order *after* renaming (the
        # rebuilder resolves renamed names against the manager).
        rename_fn = _resolve_rename(rename)
        manager = BBDDManager([rename_fn(name) for name in ordered_names])
    rebuilder = ForestRebuilder(manager, ordered_names, rename=rename)
    with manager.defer_gc():
        rebuilder.add_rows(rows)
        return manager, rebuilder.functions(
            (name, node_id << 1 | bool(attr))
            for name, (node_id, attr) in data["roots"].items()
        )


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
