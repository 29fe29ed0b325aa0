"""Vectorized batch evaluation: the levelized cohort sweep.

The looped alternative — one root-to-sink walk per assignment — costs
``O(nodes_on_path)`` *per query*.  This module instead pushes the whole
batch through the diagram **top-down, one level at a time**: every node
carries a *cohort*, a pair of big-integer bitsets recording which
queries currently sit on that node with even/odd complement parity.
One node is then processed exactly once per batch, for **all** queries
at once, so bulk evaluation is ``O(nodes + queries)`` instead of
``O(nodes × queries)``.

A node's branching condition depends only on its couple (its PV and
SV), never on the node, so a sweep derives each couple's lane masks
once — :func:`cohort_sweep` per run of rows sharing a PV,
:func:`cube_sweep` per variable of the batch — and a node then splits
its cohort with a few word-parallel ANDs (and XORs).  The masks a
sweep keeps take at most a small constant multiple of the batch's own
columns (one per variable, three per cube-constrained variable),
however many couples the forest holds.

Two input forms are supported, and both end in the same lane layout —
one bit per query, bit ``i`` = query ``i``:

* an iterable of assignment *mappings* (the :meth:`FunctionBase.evaluate
  <repro.api.base.FunctionBase.evaluate>` format) — each run of
  consecutive mappings sharing one key tuple is transposed into bit
  columns at C speed (:func:`bytes` to a 0/1 byte column, then one
  base-2 :func:`int` parse per column);
* a :class:`ColumnBatch` — assignments already stored *columnar* (one
  bitmask per variable), the natural format of a vectorized query
  service.  Packing cost disappears entirely.

Every bitset of a sweep uses that layout, and ``full`` has one set bit
per query.

Both sweeps read the compiled query form, :class:`~repro.api.base.Columns`:
the ``pv``/``sv``/``t``/``f`` columns in parents-first slot
order with signed child references.  Managers produce it through
:meth:`DDManager.freeze_export <repro.api.base.DDManager.freeze_export>`
and frozen forests (:class:`repro.par.shm.ShmForest`) hand over their
mapped arrays.  The child's primary variable (``pv_of``) is what lets
the *cube* sweep (:func:`satisfiable_batch`) carry relational state
across consecutive couples: taking a branch at a chain node
``(pv, sv)`` pins the value of ``sv``, which is tested next exactly
when the child's PV is ``sv``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.api.base import check_assignment_bit, duplicate_assignment_error
from repro.core.exceptions import BBDDError, VariableError

#: Query count above which one sweep is split into sub-batches (bounds
#: the size of the cohort bitsets parked on the frontier).
DEFAULT_CHUNK = 1 << 15

#: ``bytes.translate`` table from a 0/1 byte column to base-2 digits;
#: every other byte becomes ``2``, which ``int(..., 2)`` rejects.
_DIGITS = b"01" + b"2" * 254


class ServeError(BBDDError):
    """A query-service failure (pool worker death, unknown function, ...)."""


class ColumnBatch:
    """A batch of assignments stored columnar: one bitmask per variable.

    ``columns`` maps variables (names or indices are both fine — they
    are resolved against the manager at evaluation time) to integers
    whose bit ``i`` is the variable's value in query ``i``; ``count``
    is the number of queries.  Variables absent from ``columns`` are
    False everywhere (they must not be in the function's support — the
    same contract as :meth:`FunctionBase.evaluate
    <repro.api.base.FunctionBase.evaluate>`).

    This is the zero-copy input of :func:`evaluate_batch`: a service
    that keeps its request batches columnar never pays the per-query
    transpose that mapping input needs.
    """

    __slots__ = ("columns", "count")

    def __init__(self, columns: Mapping, count: int) -> None:
        if count < 0:
            raise BBDDError("ColumnBatch count must be non-negative")
        mask = (1 << count) - 1
        for var, bits in columns.items():
            if not isinstance(bits, int) or isinstance(bits, bool):
                raise TypeError(
                    f"column for variable {var!r} must be an int bitmask, "
                    f"got {type(bits).__name__}"
                )
            if bits & ~mask:
                raise BBDDError(
                    f"column for variable {var!r} has bits set beyond "
                    f"query {count - 1}"
                )
        self.columns = dict(columns)
        self.count = count

    def __len__(self) -> int:
        return self.count

    @classmethod
    def from_assignments(cls, assignments: Iterable[Mapping]) -> "ColumnBatch":
        """Pack an iterable of assignment mappings into columns.

        A convenience for callers that want to pay the transpose once
        and reuse the batch against several functions.  Keys are kept
        as given (they are resolved at evaluation time).
        """
        batch = list(assignments)
        columns: Dict[object, int] = {}
        for start, keys, run in _key_runs(batch):
            for key, bits in zip(keys, _run_columns(run, start)):
                columns[key] = columns.get(key, 0) | (bits << start)
        return cls(columns, len(batch))


class EncodedBatch:
    """A batch resolved against one manager, ready for the sweep.

    Internal interchange between the front-end encoders below, the
    :class:`~repro.api.base.DDManager` batch protocol and the sweep:
    ``var_bits`` maps variable *indices* to bitsets (bit ``i`` = query
    ``i``), ``full`` has one set bit per query, ``known_bits`` (cube
    queries only) maps variable indices to the queries that constrain
    that variable.
    """

    __slots__ = ("count", "full", "var_bits", "known_bits")

    def __init__(
        self,
        count: int,
        var_bits: Dict[int, int],
        known_bits: Optional[Dict[int, int]] = None,
    ) -> None:
        self.count = count
        self.full = (1 << count) - 1
        self.var_bits = var_bits
        self.known_bits = known_bits

    def unpack(self, bits: int) -> List[bool]:
        """Decode a result bitset (one answer bit per query) to bools."""
        count = self.count
        if count == 0:
            return []
        # bin() renders MSB first; a guard bit pads to exactly ``count``
        # digits, the reversal restores query order and map() keeps the
        # per-query work at C speed.
        digits = bin(bits | (1 << count))[3:]
        return list(map("1".__eq__, digits[::-1]))

    def iter_value_dicts(self, num_vars: int) -> Iterator[Dict[int, bool]]:
        """Per-query complete ``{index: bool}`` dicts (a looped oracle)."""
        items = list(self.var_bits.items())
        for i in range(self.count):
            lane = 1 << i
            values = {v: False for v in range(num_vars)}
            for var, bits in items:
                if bits & lane:
                    values[var] = True
            yield values


# ----------------------------------------------------------------------
# the sweeps
# ----------------------------------------------------------------------


def cohort_sweep(columns, root: int, var_bits: Dict[int, int], full: int) -> int:
    """Push complete-assignment query cohorts through compiled columns.

    ``columns`` is a :class:`~repro.api.base.Columns` and ``root`` a
    signed slot reference into it (``±1`` for a constant).  Returns the
    result bitset: the lanes that reach the 1-sink with even
    accumulated complement parity.  Every lane follows exactly one
    root-to-sink path.

    A row's branch mask (the lanes taking its t-branch) depends only on
    its couple.  It is derived once per run of rows sharing a PV (keyed
    by SV, dropped when the PV changes), so a node splits its cohort
    with two ANDs and two XORs.  The extra state is one mask per SV
    under the current PV, so at most one mask per variable, however
    many couples the forest holds.  Every producer lays rows out level
    by level, hence grouped by PV; rows in any other parents-first
    order get the same answers, they only reuse fewer masks.
    """
    node = -root if root < 0 else root
    start = (0, full) if root < 0 else (full, 0)
    if node == 1:
        return start[0]
    cohorts: Dict[int, Tuple[int, int]] = {node: start}
    sat_even = 0
    pop = cohorts.pop
    get = cohorts.get
    get_bits = var_bits.get
    run_pv = None
    pv_bits = 0
    masks: Dict[int, int] = {}
    for slot, pv, sv, t, f in columns.rows():
        pair = pop(slot, None)
        if pair is None:
            continue
        if pv != run_pv:
            run_pv = pv
            pv_bits = get_bits(pv, 0)
            masks = {}
        t_mask = masks.get(sv)
        if t_mask is None:
            t_mask = masks[sv] = pv_bits if sv < 0 else pv_bits ^ get_bits(sv, 0)
        even, odd = pair
        ce = even & t_mask
        co = odd & t_mask
        # The rest of the cohort takes the f-branch.
        fe = even ^ ce
        fo = odd ^ co
        if ce or co:
            if t < 0:
                ce, co = co, ce
                t = -t
            if t == 1:
                sat_even |= ce
            else:
                pair = get(t)
                cohorts[t] = (ce, co) if pair is None else (
                    pair[0] | ce, pair[1] | co
                )
        if fe or fo:
            if f < 0:
                fe, fo = fo, fe
                f = -f
            if f == 1:
                sat_even |= fe
            else:
                pair = get(f)
                cohorts[f] = (fe, fo) if pair is None else (
                    pair[0] | fe, pair[1] | fo
                )
    return sat_even


def cube_sweep(
    columns,
    root: int,
    var_bits: Dict[int, int],
    known_bits: Optional[Dict[int, int]],
    full: int,
) -> int:
    """Push *partial*-assignment (cube) cohorts through compiled columns.

    Each lane asks "is ``f ∧ cube`` satisfiable"; a lane whose test is
    undecided by its cube flows into **both** branches and cohorts merge
    by union.  On BBDDs that alone would over-approximate: along a path
    the same variable appears first as a couple's SV and then as the
    next couple's PV, so two locally-free branch choices can demand
    contradictory values of it.  The sweep therefore tracks, per lane,
    whether the node's PV is *pinned* to 0 / pinned to 1 by the branch
    taken at the parent couple, or *floating* — six bitset planes
    (pin-state × parity):

    * arriving at a node, a floating lane whose PV the cube constrains
      becomes pinned to the cube's value (a pin never contradicts the
      cube: branches pin only variables the lane's cube leaves free);
    * a chain branch whose SV the cube leaves free pins the SV's value
      (``sv = pv ⊕ branch``) — passed to the branch target exactly when
      the target's PV *is* that SV (otherwise the variable is skipped,
      can never be tested again, and the pin collapses to floating);
    * single-variable tests (literal/Shannon nodes) always pass
      floating — their branch constrains only the variable just tested.

    Returns the result bitset: bit ``i`` means some cube-consistent
    path evaluates to True — satisfiability of ``f ∧ cube``.

    What the cubes say of a variable does not depend on the row, so its
    masks (the lanes leaving it free, fixing it to 1, fixing it to 0)
    are derived once per variable the batch constrains, before the
    sweep: at most three masks per column of ``known_bits``, however
    many couples the forest holds.  A variable no cube constrains reads
    the all-free triple.
    """
    node = -root if root < 0 else root
    if node == 1:
        return 0 if root < 0 else full
    start = (0, 0, 0, 0, 0, full) if root < 0 else (0, 0, 0, 0, full, 0)
    cohorts: Dict[int, tuple] = {node: start}
    sat_even = 0
    pop = cohorts.pop
    get = cohorts.get
    pv_of = columns.pv_of
    # Per constrained variable: the lanes whose cube leaves it free,
    # fixes it to 1, fixes it to 0; any other variable is free in every
    # lane.
    masks: Dict[int, Tuple[int, int, int]] = {}
    get_bits = var_bits.get
    for var, known in (known_bits or {}).items():
        if known:
            ones = known & get_bits(var, 0)
            masks[var] = (full & ~known, ones, known ^ ones)
    get_masks = masks.get
    unconstrained = (full, 0, 0)

    def route(ref, e0, o0, e1, o1, ef, of):
        nonlocal sat_even
        if not (e0 or o0 or e1 or o1 or ef or of):
            return
        if ref < 0:
            e0, o0, e1, o1, ef, of = o0, e0, o1, e1, of, ef
            ref = -ref
        if ref == 1:
            sat_even |= e0 | e1 | ef
            return
        c = get(ref)
        cohorts[ref] = (e0, o0, e1, o1, ef, of) if c is None else (
            c[0] | e0, c[1] | o0, c[2] | e1, c[3] | o1, c[4] | ef, c[5] | of,
        )

    for slot, pv, sv, t, f in columns.rows():
        state = pop(slot, None)
        if state is None:
            continue
        e0, o0, e1, o1, ef, of = state
        # Floating lanes the cube constrains become pinned.
        free, ones, zeros = get_masks(pv, unconstrained)
        e0 |= ef & zeros
        o0 |= of & zeros
        e1 |= ef & ones
        o1 |= of & ones
        ef &= free
        of &= free
        # Now e0/o0 hold lanes with pv = 0, e1/o1 with pv = 1, ef/of
        # with pv genuinely free (neither cube- nor pin-constrained).
        if sv < 0:
            # Single-variable test: free lanes take both branches and
            # nothing is pinned downstream.
            route(t, 0, 0, 0, 0, e1 | ef, o1 | of)
            route(f, 0, 0, 0, 0, e0 | ef, o0 | of)
            continue
        free, ones, zeros = get_masks(sv, unconstrained)
        # Lanes with a free sv pin it (sv = pv ⊕ branch): a0/b0
        # (even/odd parity) to 0 and a1/b1 to 1 on the t-branch, the
        # other way round on the f-branch.  Lanes whose sv the cube
        # decides float on.
        a0 = e1 & free
        b0 = o1 & free
        a1 = e0 & free
        b1 = o0 & free
        tef = (e0 & ones) | (e1 & zeros) | ef
        tof = (o0 & ones) | (o1 & zeros) | of
        fef = (e0 & zeros) | (e1 & ones) | ef
        fof = (o0 & zeros) | (o1 & ones) | of
        # A branch whose target does not test sv skips it: sv can never
        # be tested again there, so its pin collapses to floating.
        child = -t if t < 0 else t
        if child == 1 or pv_of[child] != sv:
            route(t, 0, 0, 0, 0, tef | a0 | a1, tof | b0 | b1)
        else:
            route(t, a0, b0, a1, b1, tef, tof)
        child = -f if f < 0 else f
        if child == 1 or pv_of[child] != sv:
            route(f, 0, 0, 0, 0, fef | a0 | a1, fof | b0 | b1)
        else:
            route(f, a1, b1, a0, b0, fef, fof)
    return sat_even


# ----------------------------------------------------------------------
# encoding mappings / columns against a manager
# ----------------------------------------------------------------------


def _resolve_keys(manager, keys, where: str) -> List[int]:
    """Map one key tuple to variable indices, rejecting duplicates."""
    indices = []
    seen = set()
    for key in keys:
        index = manager.var_index(key)
        if index in seen:
            raise duplicate_assignment_error(manager, index, where)
        seen.add(index)
        indices.append(index)
    return indices


def _missing_error(manager, missing, where: str) -> VariableError:
    names = ", ".join(manager.var_name(v) for v in sorted(missing))
    return VariableError(f"{where} misses support variable(s): {names}")


def _key_runs(batch: List[Mapping]) -> Iterator[Tuple[int, tuple, list]]:
    """``(start, keys, run)`` per run of consecutive mappings sharing keys.

    Consecutive assignments with one key tuple are the overwhelmingly
    common shape of a service batch; a heterogeneous batch degrades to
    shorter runs, never to wrong answers.  Non-mappings raise
    ``TypeError`` naming their batch position.
    """
    count = len(batch)
    try:
        sigs = list(map(tuple, batch))
    except TypeError:
        for i, assignment in enumerate(batch):
            if not isinstance(assignment, Mapping):
                raise TypeError(
                    f"assignment {i} must be a mapping, "
                    f"got {type(assignment).__name__}"
                ) from None
        raise
    start = 0
    while start < count:
        sig = sigs[start]
        stop = start + 1
        while stop < count and sigs[stop] == sig:
            stop += 1
        run = batch[start:stop]
        for offset, assignment in enumerate(run):
            # A non-mapping (e.g. a key tuple) can share a mapping's
            # key signature; reject it before any run-level error can
            # misattribute the problem.
            if type(assignment) is not dict and not isinstance(assignment, Mapping):
                raise TypeError(
                    f"assignment {start + offset} must be a mapping, "
                    f"got {type(assignment).__name__}"
                )
        yield start, sig, run
        start = stop


def _column_scan(run, start: int):
    """Slow path of one run: per-item validation with precise messages."""
    for offset, assignment in enumerate(run):
        for key, bit in assignment.items():
            check_assignment_bit(bit, key, f"assignment {start + offset}")
    raise BBDDError("batch encoding failed without an invalid value")


def _run_columns(run: List[Mapping], start: int) -> List[int]:
    """Transpose one key run into bit columns, one per key in key order.

    Bit ``i`` of a column is the key's value in query ``i`` of the run
    (batch position ``start + i``, used in error messages).
    Iterating the run backwards puts the last query first, so each 0/1
    byte column translates straight into a base-2 literal (MSB first);
    a value other than a Boolean or int 0/1 fails :func:`bytes` or the
    parse, and the run is rescanned for a message naming its position.
    """
    columns = []
    for column in zip(*(a.values() for a in reversed(run))):
        try:
            columns.append(int(bytes(column).translate(_DIGITS), 2))
        except (TypeError, ValueError):
            _column_scan(run, start)
            raise
    return columns


def encode_mappings(
    manager,
    batch: List[Mapping],
    support: Optional[frozenset] = None,
    with_known: bool = False,
) -> EncodedBatch:
    """Transpose assignment mappings into bit columns (one bit per query).

    Each key run (:func:`_key_runs`) is resolved and validated once and
    transposed at C speed (:func:`_run_columns`).

    With ``support`` given, every assignment must cover it (missing
    variables raise :class:`~repro.core.exceptions.VariableError`
    naming them and the offending batch position).  With
    ``with_known=True`` the batch is treated as *cubes*: assignments
    may be partial and the queries constraining each variable are
    recorded in ``known_bits``.
    """
    var_bits: Dict[int, int] = {}
    known_bits: Optional[Dict[int, int]] = {} if with_known else None
    for start, keys, run in _key_runs(batch):
        where = f"assignment {start}" if len(run) == 1 else (
            f"assignments {start}..{start + len(run) - 1}"
        )
        indices = _resolve_keys(manager, keys, where)
        if support is not None:
            missing = support.difference(indices)
            if missing:
                raise _missing_error(manager, missing, where)
        run_ones = ((1 << len(run)) - 1) << start
        for index, bits in zip(indices, _run_columns(run, start)):
            var_bits[index] = var_bits.get(index, 0) | (bits << start)
            if known_bits is not None:
                known_bits[index] = known_bits.get(index, 0) | run_ones
    return EncodedBatch(len(batch), var_bits, known_bits)


def encode_columns(
    manager,
    batch: ColumnBatch,
    support: Optional[frozenset] = None,
    with_known: bool = False,
) -> EncodedBatch:
    """Resolve a :class:`ColumnBatch` against a manager."""
    var_bits: Dict[int, int] = {}
    for key, bits in batch.columns.items():
        index = manager.var_index(key)
        if index in var_bits:
            raise VariableError(
                f"batch assigns variable {manager.var_name(index)!r} "
                "more than once"
            )
        var_bits[index] = bits
    if support is not None:
        missing = support.difference(var_bits)
        if missing:
            raise _missing_error(manager, missing, "batch")
    known_bits = None
    if with_known:
        full = (1 << batch.count) - 1
        known_bits = {index: full for index in var_bits}
    return EncodedBatch(batch.count, var_bits, known_bits)


def _slice_encoded(batch: EncodedBatch, start: int, stop: int) -> EncodedBatch:
    """The queries ``start..stop-1`` of an encoded batch (used for chunking)."""
    mask = (1 << (stop - start)) - 1
    var_bits = {}
    for var, bits in batch.var_bits.items():
        sliced = (bits >> start) & mask
        if sliced:
            var_bits[var] = sliced
    known_bits = None
    if batch.known_bits is not None:
        known_bits = {
            var: (bits >> start) & mask
            for var, bits in batch.known_bits.items()
            if (bits >> start) & mask
        }
    return EncodedBatch(stop - start, var_bits, known_bits)


def _encode(manager, assignments, support, with_known: bool) -> EncodedBatch:
    if isinstance(assignments, ColumnBatch):
        return encode_columns(manager, assignments, support, with_known)
    if isinstance(assignments, EncodedBatch):
        return assignments
    batch = assignments if isinstance(assignments, list) else list(assignments)
    return encode_mappings(manager, batch, support, with_known)


# ----------------------------------------------------------------------
# public batch queries
# ----------------------------------------------------------------------


def sweep_chunks(batch: EncodedBatch, sweep) -> List[bool]:
    """Answer ``batch`` with one ``sweep(part)`` per :data:`DEFAULT_CHUNK` lanes.

    The chunk loop of every batch path: ``sweep`` returns the
    result bitset of one lane range (see :func:`cohort_sweep` and
    :func:`cube_sweep`), and chunking bounds the size of the cohort
    bitsets parked on the level frontier.
    """
    results: List[bool] = []
    for start in range(0, batch.count, DEFAULT_CHUNK):
        stop = min(start + DEFAULT_CHUNK, batch.count)
        part = batch if stop - start == batch.count else _slice_encoded(
            batch, start, stop
        )
        results.extend(part.unpack(sweep(part)))
    return results


def evaluate_batch(f, assignments) -> List[bool]:
    """Evaluate ``f`` at every assignment with one sweep per chunk.

    ``assignments`` is an iterable of mappings (each must cover the
    function's support, like :meth:`FunctionBase.evaluate
    <repro.api.base.FunctionBase.evaluate>`) or a :class:`ColumnBatch`.
    Returns one ``bool`` per assignment, in order.
    """
    manager = f.manager
    support = manager.support_edge(f.edge)
    encoded = _encode(manager, assignments, support, with_known=False)
    return manager.evaluate_batch_edges(f.edge, encoded)


def satisfiable_batch(f, assignments) -> List[bool]:
    """For each partial assignment (cube): is ``f ∧ cube`` satisfiable?

    Assignments may constrain any subset of the variables; a query
    whose test variable is unconstrained at some node flows into both
    branches, so the whole batch still needs only one top-down sweep
    per chunk.  ``f.satisfiable_batch([{}])`` is ``[not f.is_false]``.
    """
    manager = f.manager
    encoded = _encode(manager, assignments, None, with_known=True)
    return manager.satisfiable_batch_edges(f.edge, encoded)
