"""The weighted-counting kernel and its protocol-pure fallback.

Weighted model counting assigns every variable ``v`` a pair of weights
``(w1(v), w0(v))`` and asks for the total weight of the on-set,

.. math:: WMC(f) = \\sum_{a : f(a)=1} \\; \\prod_v w_{a_v}(v),

which specializes to probabilistic inference (``w1 + w0 = 1`` makes it
``p(f = 1)`` for independent inputs) and to plain ``sat_count``
(``w1 = w0 = 1``).  :func:`wmc_sweep` is the one kernel behind every
structural query path — manager functions
(:meth:`repro.api.base.DDManager.weighted_count_edge`) and frozen
shared-memory forests (:class:`repro.par.shm.ShmForest`) — and runs
over the parents-first 9-tuple item streams the batch evaluator uses.

**The mass pass** (top-down) gives the count.  Each node accumulates
*mass* — the summed weight of all root paths reaching it — keyed by the
path's complement parity and by the value the path fixed for the
node's primary variable.  The primary-value key is what makes the pass
exact on BBDDs: a couple ``(v, w)`` branches on ``v = w`` / ``v != w``,
so the ``=``-branch of independent inputs carries ``p·q + (1−p)(1−q)``
— the mass that arrived with ``v = 1`` pairs with ``w = 1`` and the
``v = 0`` mass with ``w = 0``.  Variables skipped between levels
(sparse supports, chain gaps) contribute their weight *sum* as a free
factor, an exact quotient of prefix products; chain-reduced span nodes
fold their partner run with an even/odd parity convolution.

**Marginals take two passes** — belief propagation on the DAG, per
Tucci's "BDDs are a subset of Bayesian nets".  A bottom-up *acceptance
pass* stores, per node, the weight of the completions below it that
reach the 1-sink given its primary variable's value — for the node's
function and for its complement, each computed directly.  The mass
pass then adds up every variable's joint ``WMC(f ∧ v)`` at the one
place each root path decides ``v``: at nodes whose primary variable is
``v``, at couple edges whose secondary variable is ``v`` (when the
child does not keep the per-value split), and across span partner runs
through prefix/suffix parity folds.  Paths that never test ``v`` —
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
doubles.  For backends without a levelized stream, :func:`shannon_count`
computes the same quantities through the public protocol
(``root_var`` / ``restrict_edge``) with a per-node memo in the
caller's arithmetic — linear in the diagram, correct for any backend.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import floordiv, truediv
from typing import Dict, Optional, Sequence, Tuple

from repro.core.exceptions import BBDDError


class WmcError(BBDDError):
    """Raised for malformed weights or undefined conditional queries."""


def _count_sweeps(count: int) -> None:
    """Bump the ``repro_wmc_sweeps_total`` observability counter."""
    from repro import obs
    from repro.obs.catalog import family

    family(obs.REGISTRY, "repro_wmc_sweeps_total").inc(count)


def _scalar(value, exact: bool):
    """One weight as a :class:`~fractions.Fraction` or a float."""
    try:
        return Fraction(value) if exact else float(value)
    except (TypeError, ValueError) as exc:
        raise WmcError(f"weight {value!r} is not a number") from exc


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
    :raises WmcError: for non-numeric weights, pairs in probability
        mode, or probabilities outside ``[0, 1]``.
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


def posterior(count, joint: Dict[int, object], var_name) -> dict:
    """Posterior marginals ``joint[v] / count``, keyed by variable name.

    :raises WmcError: when ``count`` — ``p(f = 1)`` — is zero.
    """
    if not count:
        raise WmcError(
            "marginals are undefined: p(f = 1) is 0 under these weights"
        )
    return {var_name(index): value / count for index, value in joint.items()}


def _cone(root_key, items) -> list:
    """The parents-first ``items`` reachable from ``root_key``.

    Shared multi-root stores stream every stored node; the acceptance
    pass needs only the swept root's cone.
    """
    reached = {root_key}
    kept = []
    for item in items:
        if item[0] in reached:
            kept.append(item)
            reached.add(item[3])
            reached.add(item[6])
    return kept


def wmc_sweep(
    stream,
    root_attr: bool,
    order: Sequence[int],
    w1: Sequence,
    w0: Sequence,
    one,
    zero,
    *,
    joints: Optional[Sequence[int]] = None,
):
    """Weighted count of one diagram, plus per-variable joints on request.

    :param stream: ``(root_key, items)`` — the root's node key and the
        parents-first 9-tuple items of ``batch_stream`` /
        :meth:`repro.par.shm.ShmForest._items` (mass is seeded when the
        root's item appears, so shared multi-root stores can stream
        every stored node) — or None for a constant root.
    :param root_attr: complement attribute of the root edge; for a
        constant root, True means ``FALSE``.
    :param order: variable indices by order position.
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
    With joints, the root's cone is held in memory for the acceptance
    pass — ``O(nodes)``, also on out-of-core backends.
    """
    _count_sweeps(1 if joints is None else 2)
    exact = not isinstance(one, float)
    if exact:
        scale = lcm(*(w.denominator for w in w1), *(w.denominator for w in w0))
        w1 = [w.numerator * (scale // w.denominator) for w in w1]
        w0 = [w.numerator * (scale // w.denominator) for w in w0]
        kernel = _Kernel(order, w1, w0, 1, 0, floordiv)
    else:
        kernel = _Kernel(order, w1, w0, one, zero, truediv)
    zero = kernel.zero
    indices = joints or ()
    if any(s == zero for s in kernel.sums):
        # Some variable's weights sum to zero: every full-assignment
        # product is zero.
        count, joint = zero, dict.fromkeys(indices, zero)
    elif stream is None:
        count = zero if root_attr else kernel.total
        # Every variable is free on the constant's single path.
        tested = [zero] * len(order)
        joint = kernel.joints(indices, tested, {(0, len(order)): count})
    elif joints is None:
        count = kernel.down(stream[0], root_attr, stream[1])
    else:
        root_key, items = stream
        items = _cone(root_key, items)
        tested = [zero] * len(order)
        skips: Dict[Tuple[int, int], object] = {}
        count = kernel.down(
            root_key, root_attr, items, kernel.up(items), tested, skips
        )
        joint = kernel.joints(indices, tested, skips)
    if exact:
        denominator = scale ** len(order)
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

    def __init__(self, order, w1, w0, one, zero, quot) -> None:
        self.w1 = w1
        self.w0 = w0
        self.one = one
        self.zero = zero
        self.quot = quot
        self.sums = [hi + lo for hi, lo in zip(w1, w0)]
        self.pos = [0] * len(w1)
        for position, var in enumerate(order):
            self.pos[var] = position
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

    def fold(self, run) -> Tuple[object, object]:
        """Weights of even / odd parity over a span's partner run."""
        w1, w0 = self.w1, self.w0
        even, odd = self.one, self.zero
        for var in run:
            even, odd = even * w0[var] + odd * w1[var], even * w1[var] + odd * w0[var]
        return even, odd

    def gap(self, start: int, stop: int):
        """Weight-sum product of the free positions ``start .. stop - 1``."""
        if start == stop:
            return self.one
        return self.quot(self.prefix[stop], self.prefix[start])

    def accept(self, up, key, pv, flip, start: int) -> Tuple[object, object]:
        """Acceptance of one edge and of its complement, from ``start`` on."""
        if key is None:
            full = self.suffix[start]
            return (self.zero, full) if flip else (full, self.zero)
        entry = up[key]
        x, y = (entry[5], entry[2]) if flip else (entry[2], entry[5])
        q = self.pos[pv]
        if q == start:
            return x, y
        g = self.gap(start, q)
        return x * g, y * g

    def up(self, items) -> dict:
        """The acceptance pass: ``{key: (a1, a0, b, c1, c0, d)}``."""
        w1, w0, pos = self.w1, self.w0, self.pos
        accept, gap = self.accept, self.gap
        up: dict = {}
        for key, pv, sv, tk, tf, tpv, fk, ff, fpv in reversed(items):
            p = pos[pv]
            if sv is None:
                a1, c1 = accept(up, tk, tpv, tf, p + 1)
                a0, c0 = accept(up, fk, fpv, ff, p + 1)
            elif type(sv) is tuple:
                # Span: odd parity of pv + partners -> t.
                even, odd = self.fold(sv)
                g = gap(p + 1, pos[sv[0]])
                below = pos[sv[-1]] + 1
                xt, yt = accept(up, tk, tpv, tf, below)
                xf, yf = accept(up, fk, fpv, ff, below)
                a1 = g * (even * xt + odd * xf)
                a0 = g * (odd * xt + even * xf)
                c1 = g * (even * yt + odd * yf)
                c0 = g * (odd * yt + even * yf)
            else:
                # Couple (pv, sv): pv != sv -> t.  A child rooted at sv
                # answers per sv value; deeper children do not care.
                # t*/f* accept the edges' functions, u*/v* their
                # complements, given sv = 1 / sv = 0.
                ps = pos[sv]
                if tpv == sv:
                    e = up[tk]
                    i = 3 if tf else 0
                    t1, t0, u1, u0 = e[i], e[i + 1], e[3 - i], e[4 - i]
                else:
                    t1, u1 = accept(up, tk, tpv, tf, ps + 1)
                    t0, u0 = t1, u1
                if fpv == sv:
                    e = up[fk]
                    i = 3 if ff else 0
                    f1, f0, v1, v0 = e[i], e[i + 1], e[3 - i], e[4 - i]
                else:
                    f1, v1 = accept(up, fk, fpv, ff, ps + 1)
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
            up[key] = (a1, a0, hi * a1 + lo * a0, c1, c0, hi * c1 + lo * c0)
        return up

    def down(self, root_key, root_attr, items, up=None, tested=None, skips=None):
        """The mass pass: the weighted count, parents first.

        With ``up`` (the acceptance pass) it also adds, per variable,
        the joint weight of the paths that test it into ``tested``, and
        the accepted weight of every edge that skips positions into
        ``skips``, keyed by the skipped range ``(start, stop)``.
        """
        w1, w0, pos = self.w1, self.w0, self.pos
        prefix, suffix, zero = self.prefix, self.suffix, self.zero
        accept, gap = self.accept, self.gap
        last = len(prefix) - 1
        masses: Dict[object, list] = {}
        acc = zero

        def skip(start, stop, weight):
            """Accepted ``weight`` of paths leaving ``start .. stop - 1`` free."""
            span = (start, stop)
            skips[span] = skips.get(span, zero) + weight

        def push(key, pv, flip, m0, m1, start):
            """Route masses of parity 0 / 1 down one edge from ``start``."""
            nonlocal acc
            if flip:
                m0, m1 = m1, m0
            if key is None:
                accepted = m0 * suffix[start]
                acc += accepted
                if up is not None and start != last:
                    skip(start, last, accepted)
                return
            q = pos[pv]
            if q != start:
                g = gap(start, q)
                m0 = m0 * g
                m1 = m1 * g
                if up is not None:
                    entry = up[key]
                    skip(start, q, m0 * entry[2] + m1 * entry[5])
            slots = masses.get(key)
            if slots is None:
                slots = masses[key] = [zero, zero, zero, zero]
            hi = w1[pv]
            lo = w0[pv]
            slots[0] += m0 * lo
            slots[1] += m0 * hi
            slots[2] += m1 * lo
            slots[3] += m1 * hi

        def couple_edge(key, pv, flip, sv, s1, s0, t1, t0):
            """One couple branch carrying ``sv = 1`` / ``sv = 0`` masses.

            ``s*`` arrive with parity 0 and ``t*`` with parity 1.  A
            child rooted at ``sv`` keeps the per-value split.
            """
            if pv == sv:
                if flip:
                    s1, s0, t1, t0 = t1, t0, s1, s0
                slots = masses.get(key)
                if slots is None:
                    slots = masses[key] = [zero, zero, zero, zero]
                slots[0] += s0
                slots[1] += s1
                slots[2] += t0
                slots[3] += t1
                return
            if up is not None:
                x0, x1 = accept(up, key, pv, flip, pos[sv] + 1)
                tested[sv] += s1 * x0 + t1 * x1
            push(key, pv, flip, s1 + s0, t1 + t0, pos[sv] + 1)

        for key, pv, sv, tk, tf, tpv, fk, ff, fpv in items:
            if key == root_key:
                # Seed at the root's own item: gap factors above it are
                # free, and its pv weight splits the initial mass.
                p = pos[pv]
                base = prefix[p]
                slots = masses.setdefault(key, [zero, zero, zero, zero])
                i = 2 if root_attr else 0
                slots[i] += base * w0[pv]
                slots[i + 1] += base * w1[pv]
                if up is not None and p:
                    skip(0, p, base * up[key][5 if root_attr else 2])
            m = masses.pop(key, None)
            if m is None:
                # Stored but unreachable from this root (shared stores
                # stream every slot): no mass, nothing to do.
                continue
            lo0, hi0, lo1, hi1 = m
            p = pos[pv]
            if up is not None:
                a1, a0, _b, c1, c0, _d = up[key]
                joint = hi0 * a1 + hi1 * c1
                through = joint + lo0 * a0 + lo1 * c0
                tested[pv] += joint
            if sv is None:
                # Single-variable test (literal / Shannon): value 1 -> t.
                push(tk, tpv, tf, hi0, hi1, p + 1)
                push(fk, fpv, ff, lo0, lo1, p + 1)
            elif type(sv) is tuple:
                # Span: odd parity of pv + partners -> t.  Fold the
                # partner run into even/odd weights, then route from
                # below the run.
                even, odd = self.fold(sv)
                first = pos[sv[0]]
                g = gap(p + 1, first)
                even *= g
                odd *= g
                below = pos[sv[-1]] + 1
                push(tk, tpv, tf, hi0 * even + lo0 * odd, hi1 * even + lo1 * odd, below)
                push(fk, fpv, ff, lo0 * even + hi0 * odd, lo1 * even + hi1 * odd, below)
                if up is not None:
                    if first != p + 1:
                        skip(p + 1, first, through)
                    xt0, xt1 = accept(up, tk, tpv, tf, below)
                    xf0, xf1 = accept(up, fk, fpv, ff, below)
                    self._span_joints(
                        sv,
                        g * (hi0 * xt0 + hi1 * xt1 + lo0 * xf0 + lo1 * xf1),
                        g * (lo0 * xt0 + lo1 * xt1 + hi0 * xf0 + hi1 * xf1),
                        tested,
                    )
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
                couple_edge(tk, tpv, tf, sv, lo0 * hi, hi0 * lo, lo1 * hi, hi1 * lo)
                couple_edge(fk, fpv, ff, sv, hi0 * hi, lo0 * lo, hi1 * hi, lo1 * lo)
        return acc

    def _span_joints(self, run, even_part, odd_part, tested):
        """Joints of a span's partners from its parity-split throughput.

        ``even_part`` / ``odd_part`` are the node's accepted mass per
        unit weight of an even / odd partner run; with partner ``r``
        fixed to 1 the run is even exactly when the *other* partners
        are odd, which prefix/suffix folds give in O(1) per partner.
        """
        w1, w0, zero = self.w1, self.w0, self.zero
        prefix = [(self.one, zero)]
        for var in run:
            even, odd = prefix[-1]
            prefix.append((even * w0[var] + odd * w1[var], even * w1[var] + odd * w0[var]))
        after_even, after_odd = self.one, zero
        for j in range(len(run) - 1, -1, -1):
            var = run[j]
            before_even, before_odd = prefix[j]
            others_even = before_even * after_even + before_odd * after_odd
            others_odd = before_even * after_odd + before_odd * after_even
            tested[var] += w1[var] * (others_odd * even_part + others_even * odd_part)
            after_even, after_odd = (
                after_even * w0[var] + after_odd * w1[var],
                after_even * w1[var] + after_odd * w0[var],
            )

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

    The per-node fallback for backends without ``batch_stream``: a
    memoized Shannon recursion over ``root_var`` / ``restrict_edge``
    (iterative, like :func:`repro.api.base.rebuild_function`'s
    protocol path).  Each node computes the *normalized* mass
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
