"""Rows: the one node form that crosses a manager boundary.

Every interchange path — the binary container, JSON and live
migration — moves a forest as *rows*, one per node, children first::

    (position, sv_position, t_ref, f_ref)

``position`` is the order position of the node's primary variable and
``sv_position`` that of a couple's secondary variable, or None for a
single-variable test.  ``t_ref``/``f_ref`` are packed edge refs
``(id << 1) | attr`` of the children on the branches where the test
holds / fails — it holds where ``pv != sv`` on a couple and where
``pv`` is 1 on a single-variable node.  Rows take ids 1, 2, ... in
order and id 0 is the 1-sink, so a literal is the single-variable row
with refs ``(0, 1)`` (TRUE, FALSE).  The shape is the couple of the
paper and the baseline's Shannon node alike, so any dump loads into
any manager.

* :func:`named_edges` normalizes every accepted forest shape, and
  :func:`export_rows` turns a forest into rows through the manager's
  ``freeze_export`` (level by level, deepest first; equal records of a
  level merge, so several xmem representations share their nodes).
* :class:`ForestRebuilder` replays rows into any manager (see
  `Rebuild semantics` below); the codecs (:mod:`repro.io.binary`,
  :mod:`repro.io.jsondump`) and :func:`migrate_forest` all use it.
* :func:`migrate_forest` copies live functions into another manager —
  export and replay with no bytes in between.
* :meth:`FunctionBase.let <repro.api.base.FunctionBase.let>` replays a
  function's rows into its own manager with every variable substituted
  (:func:`repro.api.base.rebuild_function`).

Rebuild semantics
-----------------
Each row is validated once: its positions must be in range, a couple's
secondary variable must lie below its primary, and its children must
be written already and rooted no higher than the couple's secondary
variable (for a single-variable row, strictly below the row's level).
When the target's order preserves the relative order of the source's
variables (extra target variables may interleave freely), each row asks
the target's ``make_row`` for one structural node, which re-applies
the reduction rules.  Otherwise, or when the target cannot store the
row as it is (a couple in a Shannon manager, a Shannon node in a BBDD
one), the row rebuilds as ``ite(test, t, f)`` under the target order.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.base import FunctionBase, own_edge
from repro.core.exceptions import BBDDError, VariableError
from repro.core.operations import OP_XOR

from repro.io.format import FormatError, Row

Rename = Union[None, Mapping[str, str], Callable[[str], str]]


def _resolve_rename(rename: Rename) -> Callable[[str], str]:
    if rename is None:
        return lambda name: name
    if callable(rename):
        return rename
    mapping = dict(rename)
    return lambda name: mapping.get(name, name)


def named_edges(manager, functions) -> List[Tuple[object, object]]:
    """Normalize the accepted forest shapes of ``manager`` to ``[(name, edge)]``.

    Accepts a function handle or a bare edge (a flat-store signed int
    or an xmem ``(node, attr)`` pair), a sequence of either, or a name-keyed
    mapping; anonymous roots are named ``f0``, ``f1``, ...  A handle of
    another manager raises
    :class:`~repro.core.exceptions.ForeignManagerError`.
    """
    if isinstance(functions, FunctionBase):
        return [("f0", own_edge(manager, functions))]
    if isinstance(functions, int) or (
        isinstance(functions, tuple)
        and len(functions) == 2
        and isinstance(functions[1], bool)
    ):
        return [("f0", functions)]
    if isinstance(functions, Mapping):
        items = functions.items()
    else:
        items = ((f"f{i}", f) for i, f in enumerate(functions))
    return [(name, own_edge(manager, f)) for name, f in items]


def export_rows(manager, functions):
    """A forest of ``manager`` as ``(levels, roots)`` rows.

    ``levels`` lists ``(position, rows)`` deepest level first, rows in
    slot order within a level, and ``roots`` the ``(name, ref)`` pairs
    in the forest's order.  Equal rows of a level merge into one, so
    ids stay dense and shared.
    """
    columns = manager.freeze_export(named_edges(manager, functions)).joined()
    ((_base, pv, sv, t, f),) = columns.blocks
    position = columns.positions()
    by_level: Dict[int, List[int]] = {}
    for slot in range(2, len(pv)):
        level = position[pv[slot]]
        bucket = by_level.get(level)
        if bucket is None:
            bucket = by_level[level] = []
        bucket.append(slot)
    ids = [0] * len(pv)  # slot -> file id; the sink's slot 1 is id 0
    next_id = 1
    levels = []
    for level in sorted(by_level, reverse=True):
        unique: Dict[Row, int] = {}
        rows: List[Row] = []
        for slot in by_level[level]:
            a = t[slot]
            b = f[slot]
            s = sv[slot]
            row = (
                level,
                None if s < 0 else position[s],
                ids[a] << 1 if a > 0 else ids[-a] << 1 | 1,
                ids[b] << 1 if b > 0 else ids[-b] << 1 | 1,
            )
            node_id = unique.get(row)
            if node_id is None:
                node_id = unique[row] = next_id
                next_id += 1
                rows.append(row)
            ids[slot] = node_id
        levels.append((level, rows))
    roots = [
        (name, ids[r] << 1 if r > 0 else ids[-r] << 1 | 1)
        for name, r in columns.roots.items()
    ]
    return levels, roots


class ForestRebuilder:
    """Replays rows inside a target manager (any backend).

    Parameters
    ----------
    manager:
        The target manager; rows go to its ``row_target()`` (see
        :meth:`repro.api.base.DDManager.row_target`).
    ordered_names:
        The source's variable names, root to bottom (its order).
    rename:
        Optional variable renaming applied before resolving names in the
        target manager (a mapping or a callable; unknown names raise
        :class:`~repro.core.exceptions.VariableError`).
    """

    def __init__(
        self,
        manager,
        ordered_names: Sequence[str],
        rename: Rename = None,
    ) -> None:
        self.manager = manager
        rename_fn = _resolve_rename(rename)
        try:
            self._var_at = [
                manager.var_index(rename_fn(name)) for name in ordered_names
            ]
        except VariableError as exc:
            raise VariableError(
                f"dump variable missing from target manager: {exc}"
            ) from None
        positions = [manager.order.position(v) for v in self._var_at]
        #: Whether the source's relative variable order survives in the
        #: target — the precondition for structural ``make_row`` calls.
        self.order_preserved = all(
            a < b for a, b in zip(positions, positions[1:])
        )
        self._target = manager.row_target()
        #: Rebuilt target edges by id; id 0 is the sink.
        self._edges: List[object] = [self._target.true_edge]
        #: Source position of every id's root; the sink is below them all.
        self._levels: List[int] = [len(self._var_at)]
        self._tests: Dict[Tuple[int, Optional[int]], object] = {}

    def add_rows(self, rows) -> None:
        """Replay rows in order; each takes the next id.

        Rows come from untrusted input, so every malformed one raises
        :class:`FormatError` before it reaches the target.
        """
        target = self._target
        make = target.make_row if self.order_preserved else None
        negate = target.negate_edge
        var_at = self._var_at
        edges = self._edges
        levels = self._levels
        n = len(var_at)
        for position, sv_position, t_ref, f_ref in rows:
            if not 0 <= position < n:
                raise FormatError(
                    f"record position {position} out of range 0..{n - 1}"
                )
            if sv_position is None:
                sv = None
                below = position + 1
            elif position < sv_position < n:
                sv = var_at[sv_position]
                below = sv_position
            else:
                raise FormatError(
                    f"record SV position {sv_position} out of range (PV at "
                    f"{position}, {n} variables)"
                )
            count = len(edges)
            t_id = t_ref >> 1
            f_id = f_ref >> 1
            if not (
                0 <= t_id < count
                and 0 <= f_id < count
                and levels[t_id] >= below
                and levels[f_id] >= below
            ):
                raise self._child_error(position, below, t_id, f_id)
            t = edges[t_id]
            if t_ref & 1:
                t = negate(t)
            f = edges[f_id]
            if f_ref & 1:
                f = negate(f)
            pv = var_at[position]
            edge = None if make is None else make(pv, sv, t, f)
            if edge is None:
                edge = self._ite(pv, sv, t, f)
            edges.append(edge)
            levels.append(position)

    def _child_error(self, position: int, below: int, *children) -> FormatError:
        """The error for a row whose child is unwritten or rooted too high."""
        for child in children:
            if not 0 <= child < len(self._edges):
                return FormatError(f"edge ref to unwritten node id {child}")
            if self._levels[child] < below:
                return FormatError(
                    f"record at position {position} has child {child} rooted "
                    f"at position {self._levels[child]}; its children must "
                    f"lie at position {below} or below"
                )
        raise AssertionError("no bad child")  # pragma: no cover

    def _ite(self, pv: int, sv: Optional[int], t, f):
        """``ite(test, t, f)`` under the target's order (semantic path)."""
        target = self._target
        test = self._tests.get((pv, sv))
        if test is None:
            test = target.literal_edge(pv)
            if sv is not None:
                test = target.apply_edges(test, target.literal_edge(sv), OP_XOR)
            self._tests[(pv, sv)] = test
        return target.ite_edges(test, t, f)

    def functions(self, roots) -> dict:
        """``{name: function}`` of the target for ``(name, ref)`` roots."""
        names = []
        edges = []
        for name, ref in roots:
            node_id = ref >> 1
            if not 0 <= node_id < len(self._edges):
                raise FormatError(f"edge ref to unwritten node id {node_id}")
            edge = self._edges[node_id]
            names.append(name)
            edges.append(self._target.negate_edge(edge) if ref & 1 else edge)
        function = self.manager.function
        return {
            name: function(edge)
            for name, edge in zip(names, self._target.finish_rows(edges))
        }


def migrate_forest(functions, dst, rename: Rename = None):
    """Copy functions into the manager ``dst``, remapping variables by name.

    ``functions`` may be a single function handle, a sequence, or a
    name-keyed mapping; the result mirrors the input shape.  All inputs
    must share one source manager, which may use any backend: the
    forest is exported once as rows and replayed children first into
    ``dst`` (see :class:`ForestRebuilder`), so a mapping keeps its
    sharing and an xmem target gets one representation for all of it.
    """
    if isinstance(functions, FunctionBase):
        return migrate_forest([functions], dst, rename)[0]
    if isinstance(functions, Mapping):
        items = dict(functions)
    else:
        items = dict(enumerate(functions))
    moved: dict = {}
    if items:
        src = next(iter(items.values())).manager
        if src is dst:
            raise BBDDError("source and target managers must differ")
        levels, roots = export_rows(src, items)
        rebuilder = ForestRebuilder(
            dst, [src.var_name(v) for v in src.order.order], rename=rename
        )
        with dst.defer_gc():
            for _position, rows in levels:
                rebuilder.add_rows(rows)
            moved = rebuilder.functions(roots)
    if isinstance(functions, Mapping):
        return moved
    return list(moved.values())
