"""The counting kernels over compiled columns and their protocol-level reference.

Weighted model counting assigns every variable ``v`` a pair of weights
``(w1(v), w0(v))`` and asks for the total weight of the on-set,

.. math:: WMC(f) = \\sum_{a : f(a)=1} \\; \\prod_v w_{a_v}(v),

which specializes to probabilistic inference (``w1 + w0 = 1`` makes it
``p(f = 1)`` for independent inputs) and to plain ``sat_count``
(``w1 = w0 = 1``).  :func:`wmc_sweep` is the one kernel behind every
structural query path — manager functions
(:meth:`repro.api.base.DDManager.weighted_count_edge`) and frozen
shared-memory forests (:class:`repro.par.shm.ShmForest`) — and reads
the compiled query form the batch evaluator reads,
:class:`repro.api.base.Columns`: ``pv``/``sv``/``t``/``f`` in
parents-first slot order with signed child references.
:func:`sat_count` is the unweighted count over the same columns.

**The mass pass** (top-down) gives the count.  Each node accumulates
*mass* — the summed weight of all root paths reaching it — keyed by the
path's complement parity and by the value the path fixed for the
node's primary variable.  The primary-value key is what makes the pass
exact on BBDDs: a couple ``(v, w)`` branches on ``v = w`` / ``v != w``,
so the ``=``-branch of independent inputs carries ``p·q + (1−p)(1−q)``
— the mass that arrived with ``v = 1`` pairs with ``w = 1`` and the
``v = 0`` mass with ``w = 0``.  Variables skipped between levels
(sparse supports, chain gaps) contribute their weight *sum* as a free
factor, an exact quotient of prefix products.

**Marginals take two passes** — belief propagation on the DAG, per
Tucci's "BDDs are a subset of Bayesian nets".  A bottom-up *acceptance
pass* stores, per node, the weight of the completions below it that
reach the 1-sink given its primary variable's value — for the node's
function and for its complement, each computed directly.  The mass
pass then adds up every variable's joint ``WMC(f ∧ v)`` at the one
place each root path decides ``v``: at nodes whose primary variable is
``v``, at couple edges whose secondary variable is ``v`` (when the
child does not keep the per-value split).  Paths that never test ``v`` —
it is skipped between levels or lies above the root — leave ``v``
free, so their share is ``p_v`` times their accepted weight, which the
mass pass gathers per skipped position range.  Nothing is obtained by
subtraction, so with non-negative weights every float result keeps a
small relative error, however unlikely ``f`` is.

**Exact mode runs on integers.**  Every weight is scaled by ``L``, the
least common multiple of all weight denominators, so each assignment's
product picks up exactly one factor ``L`` per variable and the passes
run on Python ints (gap factors are exact integer quotients; in
probability mode they are powers of ``L``).  One division at the end,
``Fraction(acc, L**n)``, gives results bit-identical to summing
:class:`fractions.Fraction` terms — the differential-oracle contract —
at a fraction of the cost.  Float mode runs the same passes on machine
doubles.  :func:`shannon_count` computes the same quantities through
the public protocol (``root_var`` / ``restrict_edge``) with a per-node
memo in the caller's arithmetic; the tests compare the column kernel
against it.
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite, lcm
from operator import floordiv, truediv
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.exceptions import BBDDError


class WmcError(BBDDError):
    """Raised for malformed weights or undefined conditional queries."""


def _count_sweeps(count: int) -> None:
    """Bump the ``repro_wmc_sweeps_total`` observability counter."""
    from repro import obs
    from repro.obs.catalog import family

    family(obs.REGISTRY, "repro_wmc_sweeps_total").inc(count)


def _scalar(value, exact: bool):
    """One finite weight as a :class:`~fractions.Fraction` or a float."""
    try:
        scalar = Fraction(value) if exact else float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise WmcError(f"weight {value!r} is not a finite number") from exc
    if not exact and not isfinite(scalar):
        raise WmcError(f"weight {value!r} is not a finite number")
    return scalar


def resolve_weights(
    manager,
    weights,
    *,
    probabilities: bool,
    exact: bool = True,
) -> Tuple[list, list, object, object]:
    """Per-variable weight columns from a user mapping.

    :param manager: anything with ``num_vars`` and ``var_index`` —
        a manager, or a frozen :class:`repro.par.shm.ShmForest`.
    :param weights: mapping of variable (name or index) to either a
        single number ``p`` (meaning ``(p, 1 - p)``) or, when
        ``probabilities`` is false, a ``(w1, w0)`` pair.  ``None``
        means all defaults.
    :param probabilities: probability mode — values must be single
        numbers in ``[0, 1]`` and unmentioned variables default to
        ``1/2``; in plain weighted-count mode unmentioned variables
        default to ``(1, 1)`` (they sum out), and weights may be any
        numbers, including negative.
    :param exact: exact :class:`~fractions.Fraction` arithmetic
        (default) or floats.
    :returns: ``(w1, w0, one, zero)`` — two columns indexed by
        variable index plus the scalar constants of the chosen
        arithmetic.
    :raises WmcError: for non-numeric or non-finite weights, pairs in
        probability mode, or probabilities outside ``[0, 1]``.
    """
    one = Fraction(1) if exact else 1.0
    zero = one - one
    n = manager.num_vars
    if probabilities:
        half = one / 2
        w1 = [half] * n
        w0 = [one - half] * n
    else:
        w1 = [one] * n
        w0 = [one] * n
    if weights:
        for var, value in weights.items():
            index = manager.var_index(var)
            if isinstance(value, (tuple, list)):
                if probabilities:
                    raise WmcError(
                        "probability weights are single numbers in [0, 1]; "
                        f"got the pair {value!r} for {var!r} "
                        "(pairs are for weighted_count)"
                    )
                if len(value) != 2:
                    raise WmcError(
                        f"weight pair for {var!r} must have exactly two "
                        f"entries (w1, w0); got {value!r}"
                    )
                hi = _scalar(value[0], exact)
                lo = _scalar(value[1], exact)
            else:
                hi = _scalar(value, exact)
                lo = one - hi
                if probabilities and not zero <= hi <= one:
                    raise WmcError(
                        f"probability for {var!r} must lie in [0, 1]; "
                        f"got {value!r}"
                    )
            w1[index] = hi
            w0[index] = lo
    return w1, w0, one, zero


def marginal_variables(manager, support, variables=None) -> List[int]:
    """The variable indices a marginals query reports, in reply order.

    ``variables`` None stands for every variable of ``support`` (a set
    of indices), in name order; otherwise one name or index, or an
    iterable of them, kept in the order given.  Managers and frozen
    forests resolve the query here, so both list its keys alike.
    """
    if variables is None:
        return sorted(support, key=manager.var_name)
    if isinstance(variables, (str, int)):
        variables = [variables]
    return [manager.var_index(var) for var in variables]


def posterior(count, joint: Dict[int, object], var_name) -> dict:
    """Posterior marginals ``joint[v] / count``, keyed by variable name.

    :raises WmcError: when ``count`` — ``p(f = 1)`` — is zero.
    """
    if not count:
        raise WmcError(
            "marginals are undefined: p(f = 1) is 0 under these weights"
        )
    return {var_name(index): value / count for index, value in joint.items()}


def _cone(columns, node: int) -> List[int]:
    """The slots of joined ``columns`` reachable from slot ``node``.

    Parents first.  Shared multi-root stores hold every stored node;
    the acceptance pass needs only the swept root's cone.
    """
    ((_base, _pv, _sv, t, f),) = columns.blocks
    reached = bytearray(len(t))
    reached[node] = 1
    cone = []
    for slot in range(node, len(t)):
        if reached[slot]:
            cone.append(slot)
            ref = t[slot]
            reached[-ref if ref < 0 else ref] = 1
            ref = f[slot]
            reached[-ref if ref < 0 else ref] = 1
    return cone


def wmc_sweep(
    columns,
    root: int,
    w1: Sequence,
    w0: Sequence,
    one,
    zero,
    *,
    joints: Optional[Sequence[int]] = None,
):
    """Weighted count of one diagram, plus per-variable joints on request.

    :param columns: the compiled query form
        (:class:`repro.api.base.Columns`) holding the root — a
        manager's compiled root or a frozen forest's whole store (mass
        is seeded when the root's slot comes up, so unrelated slots
        simply carry none).
    :param root: signed slot reference of the root; ``±1`` is a
        constant, ``-1`` meaning ``FALSE``.
    :param w1: weight of assigning 1, indexed by variable.
    :param w0: weight of assigning 0, indexed by variable.
    :param one: multiplicative unit of the arithmetic in use — a float
        selects float mode, anything else exact integer-scaled mode.
    :param zero: additive unit of the arithmetic in use.
    :param joints: variable indices whose joints ``WMC(f ∧ v)`` to
        compute with the two-pass scheme; None for the count alone.
    :returns: the weighted count in the scalar type of ``one`` (a
        :class:`~fractions.Fraction` in exact mode), or with
        ``joints`` the pair ``(count, {index: joint})``.

    Counts one sweep on ``repro_wmc_sweeps_total`` for a count and two
    for joints, before any work, so failing queries are counted too.
    The count streams the column blocks once; joints join them and
    keep the root's cone in memory for the acceptance pass —
    ``O(nodes)``, also on out-of-core backends.
    """
    _count_sweeps(1 if joints is None else 2)
    node = -root if root < 0 else root
    if joints is not None and node != 1:
        columns = columns.joined()
    exact = not isinstance(one, float)
    if exact:
        scale = lcm(*(w.denominator for w in w1), *(w.denominator for w in w0))
        w1 = [w.numerator * (scale // w.denominator) for w in w1]
        w0 = [w.numerator * (scale // w.denominator) for w in w0]
        kernel = _Kernel(columns, w1, w0, 1, 0, floordiv)
    else:
        kernel = _Kernel(columns, w1, w0, one, zero, truediv)
    zero = kernel.zero
    indices = joints or ()
    n = len(columns.order)
    if any(s == zero for s in kernel.sums):
        # Some variable's weights sum to zero: every full-assignment
        # product is zero.
        count, joint = zero, dict.fromkeys(indices, zero)
    elif node == 1:
        count = zero if root < 0 else kernel.total
        # Every variable is free on the constant's single path.
        joint = kernel.joints(indices, [zero] * n, {(0, n): count})
    elif joints is None:
        count = kernel.down(root, columns.rows())
    else:
        tested = [zero] * n
        skips: Dict[Tuple[int, int], object] = {}
        up = kernel.up(columns, _cone(columns, node))
        count = kernel.down(root, columns.rows(), up, tested, skips)
        joint = kernel.joints(indices, tested, skips)
    if exact:
        denominator = scale ** n
        count = Fraction(count, denominator)
        if joints is not None:
            joint = {i: Fraction(v, denominator) for i, v in joint.items()}
    return count if joints is None else (count, joint)


class _Kernel:
    """The two passes of :func:`wmc_sweep` over one set of weights.

    Per node, masses live in a four-slot list indexed ``2 * parity +
    value`` (``value`` is the primary variable's).  The acceptance pass
    stores ``(a1, a0, b, c1, c0, d)``: the completions below the node
    that reach the 1-sink given ``pv = 1`` / ``pv = 0`` and their
    weighted sum from the node's own position — ``a1, a0, b`` for the
    regular function, ``c1, c0, d`` for its complement.  Both are
    sums of products of non-negative weights, so float mode keeps a
    small *relative* error even when ``p(f)`` is tiny; deriving one
    from the other by subtraction would not.  ``prefix[k]`` /
    ``suffix[k]`` are the weight-sum products of the positions before
    ``k`` / from ``k`` on.
    """

    def __init__(self, columns, w1, w0, one, zero, quot) -> None:
        self.w1 = w1
        self.w0 = w0
        self.one = one
        self.zero = zero
        self.quot = quot
        order = columns.order
        self.pos = columns.positions()
        self.pv_of = columns.pv_of
        self.sums = [hi + lo for hi, lo in zip(w1, w0)]
        prefix = [one]
        suffix = [one]
        for var in order:
            prefix.append(prefix[-1] * self.sums[var])
        for var in reversed(order):
            suffix.append(suffix[-1] * self.sums[var])
        suffix.reverse()
        self.prefix = prefix
        self.suffix = suffix
        self.total = prefix[-1]

    def gap(self, start: int, stop: int):
        """Weight-sum product of the free positions ``start .. stop - 1``."""
        if start == stop:
            return self.one
        return self.quot(self.prefix[stop], self.prefix[start])

    def accept(self, up, ref: int, start: int) -> Tuple[object, object]:
        """Acceptance of edge ``ref`` and of its complement, from ``start`` on."""
        child = -ref if ref < 0 else ref
        if child == 1:
            full = self.suffix[start]
            return (self.zero, full) if ref < 0 else (full, self.zero)
        entry = up[child]
        x, y = (entry[5], entry[2]) if ref < 0 else (entry[2], entry[5])
        q = self.pos[self.pv_of[child]]
        if q == start:
            return x, y
        g = self.gap(start, q)
        return x * g, y * g

    def up(self, columns, cone) -> list:
        """The acceptance pass: ``(a1, a0, b, c1, c0, d)`` per cone slot."""
        ((_base, pvc, svc, tc, fc),) = columns.blocks
        w1, w0, pos = self.w1, self.w0, self.pos
        accept, gap = self.accept, self.gap
        up: list = [None] * len(pvc)
        for slot in reversed(cone):
            pv = pvc[slot]
            sv = svc[slot]
            t = tc[slot]
            f = fc[slot]
            p = pos[pv]
            if sv < 0:
                a1, c1 = accept(up, t, p + 1)
                a0, c0 = accept(up, f, p + 1)
            else:
                # Couple (pv, sv): pv != sv -> t.  A child rooted at sv
                # answers per sv value; deeper children do not care.
                # t*/f* accept the edges' functions, u*/v* their
                # complements, given sv = 1 / sv = 0.
                ps = pos[sv]
                child = -t if t < 0 else t
                if child != 1 and pvc[child] == sv:
                    e = up[child]
                    i = 3 if t < 0 else 0
                    t1, t0, u1, u0 = e[i], e[i + 1], e[3 - i], e[4 - i]
                else:
                    t1, u1 = accept(up, t, ps + 1)
                    t0, u0 = t1, u1
                child = -f if f < 0 else f
                if child != 1 and pvc[child] == sv:
                    e = up[child]
                    i = 3 if f < 0 else 0
                    f1, f0, v1, v0 = e[i], e[i + 1], e[3 - i], e[4 - i]
                else:
                    f1, v1 = accept(up, f, ps + 1)
                    f0, v0 = f1, v1
                g = gap(p + 1, ps)
                hi = w1[sv] * g
                lo = w0[sv] * g
                a1 = hi * f1 + lo * t0
                a0 = hi * t1 + lo * f0
                c1 = hi * v1 + lo * u0
                c0 = hi * u1 + lo * v0
            hi = w1[pv]
            lo = w0[pv]
            up[slot] = (a1, a0, hi * a1 + lo * a0, c1, c0, hi * c1 + lo * c0)
        return up

    def down(self, root, rows, up=None, tested=None, skips=None):
        """The mass pass: the weighted count, parents first.

        ``rows`` are the columns' ``(slot, pv, sv, t, f)`` rows.
        With ``up`` (the acceptance pass) it also adds, per variable,
        the joint weight of the paths that test it into ``tested``, and
        the accepted weight of every edge that skips positions into
        ``skips``, keyed by the skipped range ``(start, stop)``.
        """
        w1, w0, pos, pv_of = self.w1, self.w0, self.pos, self.pv_of
        prefix, suffix, zero = self.prefix, self.suffix, self.zero
        accept, gap = self.accept, self.gap
        last = len(prefix) - 1
        node = -root if root < 0 else root
        masses: Dict[int, list] = {}
        acc = zero

        def skip(start, stop, weight):
            """Accepted ``weight`` of paths leaving ``start .. stop - 1`` free."""
            span = (start, stop)
            skips[span] = skips.get(span, zero) + weight

        def push(ref, m0, m1, start):
            """Route masses of parity 0 / 1 down edge ``ref`` from ``start``."""
            nonlocal acc
            if ref < 0:
                m0, m1 = m1, m0
                ref = -ref
            if ref == 1:
                accepted = m0 * suffix[start]
                acc += accepted
                if up is not None and start != last:
                    skip(start, last, accepted)
                return
            pv = pv_of[ref]
            q = pos[pv]
            if q != start:
                g = gap(start, q)
                m0 = m0 * g
                m1 = m1 * g
                if up is not None:
                    entry = up[ref]
                    skip(start, q, m0 * entry[2] + m1 * entry[5])
            slots = masses.get(ref)
            if slots is None:
                slots = masses[ref] = [zero, zero, zero, zero]
            hi = w1[pv]
            lo = w0[pv]
            slots[0] += m0 * lo
            slots[1] += m0 * hi
            slots[2] += m1 * lo
            slots[3] += m1 * hi

        def couple_edge(ref, sv, s1, s0, t1, t0):
            """One couple branch carrying ``sv = 1`` / ``sv = 0`` masses.

            ``s*`` arrive with parity 0 and ``t*`` with parity 1.  A
            child rooted at ``sv`` keeps the per-value split.
            """
            child = -ref if ref < 0 else ref
            if child != 1 and pv_of[child] == sv:
                if ref < 0:
                    s1, s0, t1, t0 = t1, t0, s1, s0
                slots = masses.get(child)
                if slots is None:
                    slots = masses[child] = [zero, zero, zero, zero]
                slots[0] += s0
                slots[1] += s1
                slots[2] += t0
                slots[3] += t1
                return
            if up is not None:
                x0, x1 = accept(up, ref, pos[sv] + 1)
                tested[sv] += s1 * x0 + t1 * x1
            push(ref, s1 + s0, t1 + t0, pos[sv] + 1)

        for slot, pv, sv, t, f in rows:
            if slot == node:
                # Seed at the root's own slot: gap factors above it are
                # free, and its pv weight splits the initial mass.
                p = pos[pv]
                base = prefix[p]
                slots = masses.setdefault(slot, [zero, zero, zero, zero])
                i = 2 if root < 0 else 0
                slots[i] += base * w0[pv]
                slots[i + 1] += base * w1[pv]
                if up is not None and p:
                    skip(0, p, base * up[slot][5 if root < 0 else 2])
            m = masses.pop(slot, None)
            if m is None:
                # Stored but unreachable from this root (shared stores
                # hold every slot): no mass, nothing to do.
                continue
            lo0, hi0, lo1, hi1 = m
            p = pos[pv]
            if up is not None:
                a1, a0, _b, c1, c0, _d = up[slot]
                joint = hi0 * a1 + hi1 * c1
                through = joint + lo0 * a0 + lo1 * c0
                tested[pv] += joint
            if sv < 0:
                # Single-variable test (literal / Shannon): value 1 -> t.
                push(t, hi0, hi1, p + 1)
                push(f, lo0, lo1, p + 1)
            else:
                # Couple (pv, sv): pv != sv -> t.  The =-branch pairs
                # the pv=1 mass with sv=1 and pv=0 with sv=0; the
                # !=-branch crosses them.
                ps = pos[sv]
                g = gap(p + 1, ps)
                if up is not None and ps != p + 1:
                    skip(p + 1, ps, through)
                hi = w1[sv] * g
                lo = w0[sv] * g
                couple_edge(t, sv, lo0 * hi, hi0 * lo, lo1 * hi, hi1 * lo)
                couple_edge(f, sv, hi0 * hi, lo0 * lo, hi1 * hi, lo1 * lo)
        return acc

    def joints(self, indices, tested, skips) -> dict:
        """``WMC(f ∧ v)`` per index: tested paths plus ``p_v`` of the free.

        The free weight of a position is the accepted weight of every
        path that skips it, summed over the skipped ranges — additions
        of non-negative terms only, like the rest of the pass.
        """
        w1, sums, pos, zero = self.w1, self.sums, self.pos, self.zero
        free = [zero] * (len(self.prefix) - 1)
        for (start, stop), weight in skips.items():
            for position in range(start, stop):
                free[position] += weight
        return {
            v: tested[v] + self.quot(w1[v] * free[pos[v]], sums[v])
            for v in indices
        }


def sat_memos(columns) -> List[int]:
    """Per-slot satisfying-assignment counts of a whole column store.

    ``memo[i]`` counts assignments of the variables at order positions
    ``>= position(pv[i])`` satisfying slot ``i``'s regular function.
    Children always sit at higher slots, so one descending pass over the
    joined columns is a complete bottom-up evaluation.
    """
    columns = columns.joined()
    ((_base, pv, sv, t, f),) = columns.blocks
    pos = columns.positions()
    n_vars = len(columns.order)
    memo = [0] * len(pv)
    for i in range(len(pv) - 1, 1, -1):
        p = pos[pv[i]]
        svi = sv[i]
        base = p + 1 if svi < 0 else pos[svi]
        total = 0
        for ref in (t[i], f[i]):
            child = -ref if ref < 0 else ref
            if child == 1:
                sub = 0 if ref < 0 else 1 << (n_vars - base)
            else:
                q = pos[pv[child]]
                sub = memo[child]
                if ref < 0:
                    sub = (1 << (n_vars - q)) - sub
                sub <<= q - base
            total += sub
        memo[i] = total << (base - (p + 1))
    return memo


def sat_count(columns, root: int, memo: Optional[List[int]] = None) -> int:
    """Satisfying assignments of signed slot ``root`` over all variables.

    The column count behind every ``sat_count`` with a producer: a
    manager's compiled root and frozen forests.  ``memo`` is a
    :func:`sat_memos` of the same columns (computed here when None),
    so a store answers many roots from one pass.
    """
    n_vars = len(columns.order)
    node = -root if root < 0 else root
    if node == 1:
        return 0 if root < 0 else 1 << n_vars
    if memo is None:
        memo = sat_memos(columns)
    p = columns.positions()[columns.pv_of[node]]
    count = memo[node]
    if root < 0:
        count = (1 << (n_vars - p)) - count
    return count << p


def shannon_count(
    manager,
    edge,
    w1: Sequence,
    w0: Sequence,
    one,
    zero,
    *,
    joints: Optional[Sequence[int]] = None,
):
    """Weighted count through the public protocol, one memo per node.

    The protocol-level reference: a memoized Shannon recursion over
    ``root_var`` / ``restrict_edge`` (iterative, like
    :meth:`FunctionBase.to_expr <repro.api.base.FunctionBase.to_expr>`).
    Each node computes the *normalized* mass
    ``(w1(v)·p(f|v=1) + w0(v)·p(f|v=0)) / (w1(v) + w0(v))`` so skipped
    variables need no position bookkeeping; the total weight
    ``prod(w1 + w0)`` multiplies back in at the end.  With ``joints``
    a second, top-down pass over the memoized nodes returns
    ``(count, {index: WMC(f ∧ v)})`` like :func:`wmc_sweep`.  Without
    positions, the paths that leave ``v`` free are the count minus the
    paths that test it, so float posteriors here are accurate to a few
    ulps *absolute* rather than relative.
    """
    _count_sweeps(1 if joints is None else 2)
    sums = []
    total = one
    for hi, lo in zip(w1, w0):
        s = hi + lo
        if s == zero:
            return zero if joints is None else (zero, dict.fromkeys(joints, zero))
        sums.append(s)
        total = total * s
    memo: Dict[object, object] = {}
    pending: Dict[object, tuple] = {}
    finished = []
    edge_uid = manager.edge_uid
    with manager.defer_gc():
        stack = [edge]
        while stack:
            e = stack[-1]
            uid = edge_uid(e)
            if uid in memo:
                stack.pop()
                continue
            entry = pending.pop(uid, None)
            if entry is not None:
                var, hi_e, lo_e = entry
                hi_uid = edge_uid(hi_e)
                lo_uid = edge_uid(lo_e)
                memo[uid] = (w1[var] * memo[hi_uid] + w0[var] * memo[lo_uid]) / sums[var]
                finished.append((uid, var, hi_uid, lo_uid))
                stack.pop()
                continue
            if manager.edge_is_sink(e):
                memo[uid] = zero if manager.edge_is_false(e) else one
                stack.pop()
                continue
            var = manager.root_var(e)
            hi_e = manager.restrict_edge(e, var, True)
            lo_e = manager.restrict_edge(e, var, False)
            pending[uid] = (var, hi_e, lo_e)
            stack.append(lo_e)
            stack.append(hi_e)
    root = edge_uid(edge)
    accepted = memo[root]
    if joints is None:
        return accepted * total
    # Top-down over the post-order reversed (parents first): reach[u]
    # is the normalized weight of the paths reaching node u.
    reach = {root: one}
    tested = [zero] * len(sums)
    consumed = [zero] * len(sums)
    for uid, var, hi_uid, lo_uid in reversed(finished):
        r = reach.pop(uid)
        high = r * w1[var] / sums[var]
        tested[var] += high * memo[hi_uid]
        consumed[var] += r * memo[uid]
        reach[hi_uid] = reach.get(hi_uid, zero) + high
        reach[lo_uid] = reach.get(lo_uid, zero) + r * w0[var] / sums[var]
    joint = {
        v: (tested[v] + (accepted - consumed[v]) * w1[v] / sums[v]) * total
        for v in joints
    }
    return accepted * total, joint
