"""Weighted model counting and probabilistic inference (`repro.wmc`).

Treats a decision diagram as the arithmetic circuit of its Boolean
function (the "BDDs are a subset of Bayesian nets" view): per-variable
weights flow through the same top-down levelized sweep batch
evaluation uses, giving the weighted count and the probability
``p(f = 1)`` under independent inputs in one ``O(nodes)`` pass, and
the posterior marginals of every variable in two — a bottom-up
acceptance pass, then the top-down mass pass adding up each
variable's joint (:mod:`repro.wmc.sweep`).  Results are exact by
default: the passes run on integers scaled by the least common
multiple of the weight denominators, and each result is divided once
at the end into a :class:`fractions.Fraction`.

The conveniences here take :class:`repro.api.base.FunctionBase`
handles; the same queries are methods on functions
(``f.p_one(...)``, ``f.weighted_count(...)``, ``f.marginals(...)``),
on managers (``manager.weighted_count(f, ...)``) and on frozen
shared-memory forests (:class:`repro.par.shm.ShmForest` answers them
zero-copy straight off the segment arrays, through the same kernel).
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.wmc.sweep import (
    WmcError,
    marginal_variables,
    posterior,
    resolve_weights,
    shannon_count,
    wmc_sweep,
)

__all__ = [
    "WmcError",
    "marginals",
    "p_one",
    "posterior",
    "resolve_weights",
    "shannon_count",
    "weighted_count",
    "wmc_sweep",
]


def weighted_count(f, weights: Optional[Mapping] = None, *, exact: bool = True):
    """The weighted model count of ``f`` over all manager variables.

    :param f: a function handle of any backend.
    :param weights: mapping of variable to a ``(w1, w0)`` pair or a
        single number ``p`` (shorthand for ``(p, 1 - p)``); unmentioned
        variables weigh ``(1, 1)``, so with uniform ``1/2`` weights on
        the support this equals ``sat_count / 2^|support|`` and with no
        weights at all it is exactly ``sat_count``.
    :param exact: exact Fraction results (default) or floats.
    """
    manager = f.manager
    w1, w0, one, zero = resolve_weights(
        manager, weights, probabilities=False, exact=exact
    )
    return manager.weighted_count_edge(f.edge, w1, w0, one, zero)


def p_one(f, weights: Optional[Mapping] = None, *, exact: bool = True):
    """``p(f = 1)`` under independent per-variable probabilities.

    :param f: a function handle of any backend.
    :param weights: mapping of variable to ``p(v = 1)`` in ``[0, 1]``;
        unmentioned variables default to ``1/2``.
    :param exact: exact Fraction results (default) or floats.
    """
    manager = f.manager
    w1, w0, one, zero = resolve_weights(
        manager, weights, probabilities=True, exact=exact
    )
    return manager.weighted_count_edge(f.edge, w1, w0, one, zero)


def marginals(
    f,
    weights: Optional[Mapping] = None,
    variables=None,
    *,
    exact: bool = True,
) -> dict:
    """Posterior marginals ``p(v = 1 | f = 1)`` per support variable.

    Two passes for any number of variables: each joint
    ``p(f = 1, v = 1)`` comes out of one acceptance pass and one mass
    pass, divided by ``p(f = 1)``.  :param variables: restricts/extends
    the queried set (default: the support, in name order).

    :raises WmcError: when ``p(f = 1)`` is zero — the posterior is
        undefined.
    """
    manager = f.manager
    w1, w0, one, zero = resolve_weights(
        manager, weights, probabilities=True, exact=exact
    )
    indices = marginal_variables(manager, manager.support_edge(f.edge), variables)
    count, joint = manager.weighted_count_edge(
        f.edge, w1, w0, one, zero, joints=indices
    )
    return posterior(count, joint, manager.var_name)
