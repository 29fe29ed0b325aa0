"""Read-only shared-memory forests: freeze once, attach from any process.

A :class:`ShmForest` is a manager's forest flattened into one
``multiprocessing.shared_memory`` segment: a small JSON header (backend
kind, generation number, variable names, CVO order, named signed root
references and per-root supports) followed by the compiled query form
of :class:`repro.api.base.Columns` — little-endian int64 arrays
``pv``/``sv``/``t``/``f``, one slot per node in parents-first order,
as :meth:`~repro.api.base.DDManager.freeze_export` produces them.  The
kernels read the mapped arrays directly: the cohort and cube sweeps of
:mod:`repro.serve.bulk`, and ``sat_count`` and weighted counting from
:mod:`repro.wmc.sweep`.  Child processes :meth:`ShmForest.attach` the
segment **zero-copy**: the kernel maps the same physical pages into
every worker, so memory per added worker is O(1) regardless of forest
size.  The column coding is documented on
:class:`~repro.api.base.Columns` (slots 0 and 1 are reserved; ``1``
denotes the sink).

Lifecycle: the freezing process *owns* the segment and must eventually
:meth:`~ShmForest.unlink` it (attachers only :meth:`~ShmForest.close`).
A module :mod:`atexit` hook unlinks every segment still owned by this
process, so crashes of well-behaved programs do not leak ``/dev/shm``
entries; :func:`active_segments` lists this package's segments for leak
checks.
"""

from __future__ import annotations

import atexit
import json
import os
import secrets
import struct
import threading
import weakref
from array import array
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.api.base import Columns, resolve_var_index
from repro.core.exceptions import BBDDError, VariableError

try:  # pragma: no cover - exercised implicitly on import
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platforms without shm support
    _shared_memory = None


class ParError(BBDDError):
    """A shared-memory / parallel-sweep failure (freeze, attach, lifecycle)."""


#: Prefix of every shared-memory segment this package creates.
SEGMENT_PREFIX = "repro-par-"

_MAGIC = b"RPARFRZ1"
_HEADER = struct.Struct("<8sQQ")  # magic, meta byte length, node slots

#: Live forests of this process (attached or owned), for the exit hook.
_LIVE: "weakref.WeakSet[ShmForest]" = weakref.WeakSet()

_SEGMENT_COUNTER = 0


def shm_available() -> bool:
    """True when ``multiprocessing.shared_memory`` works on this platform."""
    return _shared_memory is not None


def active_segments() -> List[str]:
    """Names of this package's segments currently present in ``/dev/shm``.

    POSIX only (returns ``[]`` where ``/dev/shm`` does not exist); used
    by the leak tests and by operators checking for orphaned segments.
    """
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(e for e in entries if e.startswith(SEGMENT_PREFIX))


def _new_segment_name(generation: int) -> str:
    """A collision-resistant segment name (pid + counter + random token)."""
    global _SEGMENT_COUNTER
    _SEGMENT_COUNTER += 1
    return (
        f"{SEGMENT_PREFIX}{os.getpid()}-{_SEGMENT_COUNTER}-"
        f"{secrets.token_hex(4)}-g{generation}"
    )


def _align8(offset: int) -> int:
    """Round ``offset`` up to the next multiple of eight."""
    return (offset + 7) & ~7


_TRACKER_LOCK = threading.Lock()


def _attach_untracked(name: str):
    """Open an existing segment without resource-tracker registration.

    ``SharedMemory(name=...)`` registers attaches with the tracker just
    like owners (bpo-39959 / Python < 3.13): under ``spawn`` a worker
    exiting would then warn about — and unlink — segments it merely
    attached, and under ``fork`` (one tracker shared by the whole
    process tree) an attach-side *unregister* would instead erase the
    owner's registration.  Suppressing registration during the open is
    correct for both: only the freezing owner stays registered, which
    is exactly the crash safety net wanted.
    """
    from multiprocessing import resource_tracker

    with _TRACKER_LOCK:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return _shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _cleanup_at_exit() -> None:
    """Unlink every still-owned segment at interpreter exit."""
    for forest in list(_LIVE):
        try:
            if forest.owner and not forest._unlinked:
                forest.unlink()
            forest.close()
        except Exception:  # pragma: no cover - best-effort teardown
            pass


atexit.register(_cleanup_at_exit)


def _named_functions(manager, functions) -> List[Tuple[str, object]]:
    """Normalize the accepted forest shapes to ``[(name, edge)]``.

    Accepts a single function handle, a sequence of them, or a
    name-keyed mapping; anonymous roots are named ``f0``, ``f1``, ...
    Rejects empty forests, duplicate names and functions of a different
    manager.
    """
    from repro.api.base import FunctionBase

    if isinstance(functions, FunctionBase):
        pairs = [("f0", functions)]
    elif isinstance(functions, Mapping):
        pairs = list(functions.items())
    else:
        pairs = [(f"f{i}", f) for i, f in enumerate(functions)]
    if not pairs:
        raise ParError("cannot freeze an empty forest")
    named: List[Tuple[str, object]] = []
    seen = set()
    for name, f in pairs:
        name = str(name)
        if name in seen:
            raise ParError(f"duplicate function name {name!r} in forest")
        seen.add(name)
        if not isinstance(f, FunctionBase):
            raise ParError(
                f"forest entries must be function handles, got "
                f"{type(f).__name__} for {name!r}"
            )
        if f.manager is not manager:
            raise ParError(
                f"function {name!r} belongs to a different manager"
            )
        named.append((name, f.edge))
    return named


class ShmForest:
    """A read-only forest living in one shared-memory segment.

    Create with :meth:`freeze` (the owning process) or :meth:`attach`
    (workers).  The query surface mirrors the function handles —
    :meth:`evaluate_batch`, :meth:`satisfiable_batch`, :meth:`evaluate`,
    :meth:`sat_count` — but keyed by stored root *name*, and it runs
    entirely on the mapped arrays: no manager, no node objects, no
    copies.  Also poses as enough of a manager (``var_index`` /
    ``var_name`` / ``num_vars``) for the :mod:`repro.serve.bulk`
    encoders to resolve assignments against it directly.
    """

    def __init__(self, shm, owner: bool) -> None:
        """Wrap an open segment; internal — use :meth:`freeze`/:meth:`attach`."""
        self._shm = shm
        self.owner = owner
        self._unlinked = False
        self._closed = False
        self._views: List[memoryview] = []
        self._memos: Optional[List[int]] = None
        try:
            buf = shm.buf
            magic, meta_len, n = _HEADER.unpack_from(buf, 0)
            if magic != _MAGIC:
                raise ParError(
                    f"segment {shm.name!r} is not a frozen forest "
                    f"(bad magic {magic!r})"
                )
            meta = json.loads(bytes(buf[_HEADER.size:_HEADER.size + meta_len]))
            self._meta = meta
            self._n = n
            self._names: List[str] = list(meta["names"])
            self._roots: Dict[str, int] = {
                name: int(ref) for name, ref in meta["roots"].items()
            }
            self._supports: Dict[str, frozenset] = {
                name: frozenset(vars_) for name, vars_ in meta["supports"].items()
            }
            self._index: Dict[str, int] = {
                name: i for i, name in enumerate(self._names)
            }
            base = _align8(_HEADER.size + meta_len)
            span = 8 * n
            if base + 4 * span > shm.size:
                raise ParError(
                    f"segment {shm.name!r} is truncated: its header claims "
                    f"{n} slots, more than its {shm.size} bytes hold"
                )
            arrays = []
            for k in range(4):
                view = memoryview(buf)[base + k * span: base + (k + 1) * span]
                arrays.append(view.cast("q"))
                self._views.append(view)
            self._views.extend(arrays)
            pv, sv, t, f = arrays
            self._columns = Columns(
                meta["order"], self._roots, [(0, pv, sv, t, f)], pv
            )
        except ParError:
            self._release_views()
            shm.close()
            raise
        except Exception as exc:
            self._release_views()
            shm.close()
            raise ParError(
                f"segment {shm.name!r} does not hold a valid frozen forest: "
                f"{exc}"
            ) from exc
        _LIVE.add(self)

    # -- construction --------------------------------------------------------

    @classmethod
    def freeze(
        cls,
        manager,
        functions,
        *,
        generation: int = 0,
        name: Optional[str] = None,
    ) -> "ShmForest":
        """Flatten ``functions`` of ``manager`` into a new owned segment.

        ``functions`` is a function handle, a sequence of them, or a
        ``{name: function}`` mapping (names key the query surface).
        ``generation`` is stored verbatim — the hot-reload protocol of
        :class:`repro.serve.pool.ForestPool` bumps it per re-freeze so
        workers can tell segments of the same dump apart.  The columns
        come from the manager's
        :meth:`~repro.api.base.DDManager.freeze_export`.  Without
        ``multiprocessing.shared_memory`` this raises :class:`ParError`;
        callers then take the sequential in-process path.
        """
        if _shared_memory is None:
            raise ParError(
                "multiprocessing.shared_memory is unavailable on this "
                "platform; shared forests cannot be frozen"
            )
        named = _named_functions(manager, functions)
        export = manager.freeze_export(named)
        supports = {
            fname: sorted(manager.support_edge(edge)) for fname, edge in named
        }
        ((_base, *columns),) = export.joined().blocks
        meta = json.dumps(
            {
                "kind": manager.backend,
                "generation": generation,
                "names": list(manager.var_names),
                "order": list(export.order),
                "roots": export.roots,
                "supports": supports,
            },
            separators=(",", ":"),
        ).encode("utf-8")
        n = len(columns[0])
        base = _align8(_HEADER.size + len(meta))
        total = base + len(columns) * 8 * n
        shm = _shared_memory.SharedMemory(
            create=True,
            size=total,
            name=name or _new_segment_name(generation),
        )
        try:
            buf = shm.buf
            _HEADER.pack_into(buf, 0, _MAGIC, len(meta), n)
            buf[_HEADER.size:_HEADER.size + len(meta)] = meta
            offset = base
            for column in columns:
                raw = array("q", column).tobytes()
                buf[offset:offset + len(raw)] = raw
                offset += 8 * n
        except Exception:
            shm.close()
            shm.unlink()
            raise
        return cls(shm, owner=True)

    @classmethod
    def attach(cls, name: str) -> "ShmForest":
        """Attach an existing segment by name (zero-copy, non-owning)."""
        if _shared_memory is None:
            raise ParError(
                "multiprocessing.shared_memory is unavailable on this "
                "platform; shared forests cannot be attached"
            )
        try:
            shm = _attach_untracked(name)
        except FileNotFoundError:
            raise ParError(
                f"no shared forest segment named {name!r} (unlinked, or "
                "never frozen)"
            ) from None
        return cls(shm, owner=False)

    # -- metadata ------------------------------------------------------------

    @property
    def name(self) -> str:
        """The shared-memory segment name (what :meth:`attach` takes)."""
        return self._shm.name

    @property
    def nbytes(self) -> int:
        """Allocated size of the segment in bytes."""
        return self._shm.size

    @property
    def kind(self) -> str:
        """Backend registry name the forest was frozen from."""
        return self._meta["kind"]

    @property
    def generation(self) -> int:
        """The generation number stored at freeze time (hot reloads)."""
        return int(self._meta["generation"])

    @property
    def node_count(self) -> int:
        """Stored node slots (reserved sink slots excluded)."""
        return self._n - 2

    @property
    def functions(self) -> List[str]:
        """The stored root names, in insertion order."""
        return list(self._roots)

    @property
    def num_vars(self) -> int:
        """Number of variables of the frozen manager."""
        return len(self._names)

    def var_index(self, var: Union[int, str]) -> int:
        """Resolve a variable name or index (the manager contract)."""
        return resolve_var_index(self._index, len(self._names), var)

    def var_name(self, index: int) -> str:
        """The name of variable ``index``."""
        if 0 <= index < len(self._names):
            return self._names[index]
        raise VariableError(f"variable index {index} out of range")

    def support(self, name: str) -> frozenset:
        """Variable indices function ``name`` depends on."""
        self._check_open()
        self._root(name)
        return self._supports.get(name, frozenset())

    def _root(self, name: str) -> int:
        """The signed root reference of ``name`` (``±1`` = constant)."""
        ref = self._roots.get(name)
        if ref is None:
            stored = ", ".join(sorted(self._roots)) or "<none>"
            raise ParError(
                f"forest has no function named {name!r} (stored: {stored})"
            )
        return ref

    def _check_open(self) -> None:
        if self._closed:
            raise ParError(
                f"shared forest {getattr(self, '_name_hint', '')!s} is "
                "closed (or unlinked); re-attach before querying"
            )

    # -- sweeps --------------------------------------------------------------

    def sweep_encoded(self, name: str, batch, cube: bool = False) -> int:
        """One cohort sweep of an :class:`~repro.serve.bulk.EncodedBatch`.

        Returns the raw result bitset (one answer bit per lane) — the
        worker hot path: callers slice, sweep and OR lane ranges
        without materializing bool lists per chunk.
        """
        from repro.serve.bulk import cohort_sweep, cube_sweep

        self._check_open()
        ref = self._root(name)
        if cube:
            return cube_sweep(
                self._columns, ref, batch.var_bits, batch.known_bits, batch.full
            )
        return cohort_sweep(self._columns, ref, batch.var_bits, batch.full)

    # -- public queries ------------------------------------------------------

    def evaluate_batch(self, name: str, assignments):
        """Evaluate function ``name`` at every assignment, in order.

        Accepts the same input forms as
        :meth:`~repro.api.base.FunctionBase.evaluate_batch` (mappings
        covering the support, or a
        :class:`~repro.serve.bulk.ColumnBatch`).
        """
        from repro.serve.bulk import _encode, sweep_chunks

        self._check_open()
        encoded = _encode(self, assignments, self.support(name), with_known=False)
        return sweep_chunks(encoded, lambda part: self.sweep_encoded(name, part))

    def satisfiable_batch(self, name: str, assignments):
        """For each partial assignment: is ``name ∧ cube`` satisfiable?"""
        from repro.serve.bulk import _encode, sweep_chunks

        self._check_open()
        self._root(name)
        encoded = _encode(self, assignments, None, with_known=True)
        return sweep_chunks(
            encoded, lambda part: self.sweep_encoded(name, part, cube=True)
        )

    def evaluate(self, name: str, assignment: Mapping) -> bool:
        """Evaluate function ``name`` at one assignment mapping."""
        return self.evaluate_batch(name, [assignment])[0]

    # -- counting ------------------------------------------------------------

    def sat_count(self, name: str) -> int:
        """Satisfying assignments of ``name`` over all variables.

        The per-slot counts of the whole store are computed once, on
        the first call, and answer every root.
        """
        from repro.wmc.sweep import sat_count, sat_memos

        self._check_open()
        ref = self._root(name)
        if self._memos is None:
            self._memos = sat_memos(self._columns)
        return sat_count(self._columns, ref, self._memos)

    def _weighted(self, name: str, w1, w0, one, zero, joints=None):
        """The :func:`~repro.wmc.sweep.wmc_sweep` kernel off the segment arrays."""
        from repro.wmc.sweep import wmc_sweep

        self._check_open()
        return wmc_sweep(
            self._columns, self._root(name), w1, w0, one, zero, joints=joints
        )

    def weighted_count(self, name: str, weights=None, *, exact: bool = True):
        """Weighted model count of function ``name`` (see :mod:`repro.wmc`).

        Runs the levelized mass sweep directly over the shared arrays —
        no manager, no decode, safe from any attached process.
        """
        from repro.wmc.sweep import resolve_weights

        w1, w0, one, zero = resolve_weights(
            self, weights, probabilities=False, exact=exact
        )
        return self._weighted(name, w1, w0, one, zero)

    def p_one(self, name: str, weights=None, *, exact: bool = True):
        """``p(name = 1)`` under independent per-variable probabilities."""
        from repro.wmc.sweep import resolve_weights

        w1, w0, one, zero = resolve_weights(
            self, weights, probabilities=True, exact=exact
        )
        return self._weighted(name, w1, w0, one, zero)

    def marginals(self, name: str, weights=None, variables=None, *, exact: bool = True):
        """Posterior marginals ``p(v = 1 | name = 1)`` per support variable."""
        from repro.wmc.sweep import marginal_variables, posterior, resolve_weights

        w1, w0, one, zero = resolve_weights(
            self, weights, probabilities=True, exact=exact
        )
        indices = marginal_variables(self, self.support(name), variables)
        count, joint = self._weighted(name, w1, w0, one, zero, joints=indices)
        return posterior(count, joint, self.var_name)

    # -- lifecycle -----------------------------------------------------------

    def _release_views(self) -> None:
        for view in reversed(self._views):
            try:
                view.release()
            except Exception:  # pragma: no cover - already released
                pass
        self._views = []

    def close(self) -> None:
        """Release this process's mapping (idempotent).

        Attachers call only this; the owner additionally calls
        :meth:`unlink` (before or after — POSIX keeps the segment's
        pages alive while any mapping remains).
        """
        if self._closed:
            return
        self._closed = True
        self._name_hint = self._shm.name
        self._columns = None
        self._memos = None
        self._release_views()
        try:
            self._shm.close()
        except Exception:  # pragma: no cover - interpreter teardown
            pass

    def unlink(self) -> None:
        """Remove the segment from the system (owner's responsibility).

        Attached mappings elsewhere stay valid until they close; new
        :meth:`attach` calls fail afterwards.  Raises :class:`ParError`
        on a second unlink.
        """
        if self._unlinked:
            raise ParError(
                f"shared forest segment {self._shm.name!r} is already unlinked"
            )
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - externally removed
            pass

    def __enter__(self) -> "ShmForest":
        """Context-manager entry: the forest itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Unlink (owner, if not yet) and close on scope exit."""
        if self.owner and not self._unlinked:
            self.unlink()
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            if self.owner and not self._unlinked:
                self.unlink()
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        """Segment name, backend kind and sizes, for debugging."""
        state = "closed" if self._closed else f"{self.node_count} nodes"
        return (
            f"<ShmForest {self._shm.name} kind={self._meta['kind']} "
            f"{state} {'owner' if self.owner else 'attached'}>"
        )
