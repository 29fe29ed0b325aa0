"""Bottom-up construction of levelized representations (the reduce core).

:class:`Builder` is where the paper's reduction rules run for the
external-memory backend.  It accumulates node records bottom-up and
enforces, per :meth:`Builder.make` call, exactly the canonical form of
:meth:`repro.core.manager.BBDDManager._make`:

* **R2** — identical children collapse to the child;
* **SV-elimination / R4** — a candidate couple that does not depend on
  its secondary variable re-chains past it (iterated; literal
  degeneration is the terminal case).  The check reads the children's
  *records*, which the builder (or the level-by-level reduce pass
  feeding it) always has, since children are built before parents;
* ``=``-edge regularity normalization, then per-level unique-record
  resolution — **R1** scoped to the level, which is all a canonical
  levelized file needs;

:meth:`Builder.finish` then prunes to the reachable sub-DAG and assigns
the canonical bottom-up numbering (see
:func:`repro.xmem.rep.canonicalize`), yielding an immutable
:class:`~repro.xmem.rep.Levelized`.

All edges in and out of the builder are packed refs ``(id << 1) | attr``
with id 0 the 1-sink — the file format's edge encoding used live.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Tuple

from repro.core.exceptions import BBDDError
from repro.core.node import SV_ONE

from repro.xmem.rep import Levelized, canonicalize


def _release_builder(store, box: dict) -> None:
    """Finalizer: return a collected builder's records to the store."""
    store.resident -= box.pop("count", 0)


class Builder:
    """Accumulates canonical node records for one operation's output."""

    def __init__(self, manager) -> None:
        self._manager = manager
        self._store = manager._store
        self._position = manager.order.position
        self._var_at = manager.order.order  # position -> variable index
        self._records: List[Tuple[int, int, int, int]] = []  # (pos, svd, neq, eq)
        self._unique: Dict[Tuple[int, int, int, int], int] = {}
        # Residency accounting shared with a GC finalizer, so builders
        # held open across calls (e.g. by a migrator) release their
        # records even without an explicit dispose().
        self._box = {"count": 0}
        self._done = False
        weakref.finalize(self, _release_builder, self._store, self._box)

    # -- container protocol (shared with Levelized) ----------------------

    def full_record(self, node_id: int) -> Tuple[int, int, int, int]:
        return self._records[node_id - 1]

    def pos_of(self, node_id: int) -> int:
        return self._records[node_id - 1][0]

    @property
    def size(self) -> int:
        return len(self._records)

    # -- construction ----------------------------------------------------

    def _insert(self, key: Tuple[int, int, int, int]) -> int:
        node_id = self._unique.get(key)
        if node_id is None:
            self._records.append(key)
            node_id = len(self._records)
            self._unique[key] = node_id
            self._box["count"] += 1
            self._store.note(1)
            if not node_id & 0x3F:
                # Opportunistic mid-operation rebalance: spill idle
                # finished reps while the output grows (operand reps stay
                # hot in the LRU order, so they are spilled last).
                self._manager._rebalance()
        return node_id

    def literal(self, var: int) -> int:
        """Packed (regular) ref of the R4 literal node for ``var``."""
        return self._insert((self._position(var), 0, 0, 0)) << 1

    def make(self, pv: int, sv: int, d: int, e: int) -> int:
        """Get-or-create node ``(pv, sv, !=-child d, =-child e)``.

        ``d``/``e`` are packed refs into this builder; the result is a
        packed ref.  Applies R2, the SV-elimination cascade (R4 as its
        terminal case) and the ``=``-edge regularity normalization —
        the same rules, in the same order, as the in-core ``_make``.
        """
        position = self._position
        var_at = self._var_at
        records = self._records
        while True:
            if d == e:
                return e  # R2
            if sv == SV_ONE:
                # Boundary couple: children must be constants; the node
                # degenerates to the literal of pv (attr of the =-edge
                # rides out on the result).
                if d >> 1 or e >> 1:
                    raise BBDDError("boundary-couple children must be constants")
                return self.literal(pv) | (e & 1)
            dn = d >> 1
            en = e >> 1
            if dn and en:
                sv_pos = position(sv)
                dp, dsvd, dneq, deq = records[dn - 1]
                ep, esvd, eneq, eeq = records[en - 1]
                if dp == sv_pos and ep == sv_pos:
                    # Both children rooted at sv: the candidate may not
                    # depend on sv at all (Shannon-view equality on the
                    # packed records).
                    da = d & 1
                    ea = e & 1
                    if dsvd == 0 and esvd == 0:
                        # Both the literal of sv; d != e forces opposite
                        # attributes — rule R4 proper.
                        return self.literal(pv) | ea
                    if (
                        dsvd
                        and esvd
                        and dsvd == esvd
                        and (dneq ^ da) == (eeq ^ ea)
                        and (deq ^ da) == (eneq ^ ea)
                    ):
                        # Re-chain past sv: f = (pv = t) ? A : B with
                        # A/B the children of d.
                        sv = var_at[dp + dsvd]
                        d, e = deq ^ da, dneq ^ da
                        continue
            break
        attr = e & 1
        if attr:
            # Normalize: =-edges are stored regular; complement both
            # children and return a complemented external ref.
            d ^= 1
            e ^= 1
        pos = self._position(pv)
        sv_delta = self._position(sv) - pos
        if sv_delta < 1:
            raise BBDDError(
                f"couple (v{pv}, v{sv}) inconsistent with the variable order"
            )
        node_id = self._insert((pos, sv_delta, d, e))
        return (node_id << 1) | attr

    # -- importing finished representations ------------------------------

    def import_ref(self, rep, ref: int, memo: Dict[int, int]) -> int:
        """Copy the sub-DAG of packed ref ``ref`` (in ``rep``) into this
        builder; returns the equivalent builder ref.  ``memo`` maps rep
        node ids to builder refs and may be shared across calls for one
        ``rep`` to keep the walk linear.
        """
        node_id = ref >> 1
        if node_id == 0:
            return ref
        var_at = self._var_at
        stack = [node_id]
        while stack:
            top = stack[-1]
            if top in memo:
                stack.pop()
                continue
            pos, sv_delta, neq_ref, eq_ref = rep.full_record(top)
            if sv_delta == 0:
                memo[top] = self.literal(var_at[pos])
                stack.pop()
                continue
            pending = [
                child
                for child in (neq_ref >> 1, eq_ref >> 1)
                if child and child not in memo
            ]
            if pending:
                stack.extend(pending)
                continue
            d = memo[neq_ref >> 1] ^ (neq_ref & 1) if neq_ref >> 1 else neq_ref
            e = memo[eq_ref >> 1] ^ (eq_ref & 1) if eq_ref >> 1 else eq_ref
            memo[top] = self.make(var_at[pos], var_at[pos + sv_delta], d, e)
            stack.pop()
        return memo[node_id] ^ (ref & 1)

    # -- lifecycle -------------------------------------------------------

    def finish(self, roots: List[int]):
        """Prune + canonically renumber; returns ``(rep, new_roots)``.

        ``roots`` are packed builder refs; refs to the sink pass
        through unchanged (with no rep nodes of their own).
        """
        levels, new_roots = canonicalize(self.full_record, roots)
        rep = Levelized(self._store, levels, new_roots)
        self.dispose()
        return rep, new_roots

    def dispose(self) -> None:
        """Release residency accounting (idempotent; also for aborts)."""
        if not self._done:
            self._done = True
            self._store.note(-self._box["count"])
            self._box["count"] = 0
            self._records = []
            self._unique = {}
