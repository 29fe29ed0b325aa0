"""repro.api — the unified, backend-agnostic front end.

One declarative surface over every decision-diagram backend (in the
style of tulip-control/``dd``):

* :func:`open` — factory: ``repro.open(backend="bbdd", vars=["a", "b"])``
  returns a manager implementing the :class:`~repro.api.base.DDManager`
  protocol; :func:`register_backend` plugs in new backends (sharded,
  external-memory, parallel, ...) without touching any client.
* :class:`~repro.api.base.DDManager` / :class:`~repro.api.base.FunctionBase`
  — the manager protocol and the shared function wrapper both backends
  implement (operators, ``ite``/``restrict``/``compose``/``exists``/
  ``forall``, ``sat_one``/``sat_count``, ``let`` substitution,
  ``dump``/``load``).
* :mod:`repro.api.expr` — the Boolean expression language behind
  ``manager.add_expr(s)`` and ``f.to_expr()``.

Built-in backends: ``"bbdd"`` (:class:`repro.core.BBDDManager`, the
paper's package), ``"bdd"`` (:class:`repro.bdd.BDDManager`, the CUDD
comparator substitute) and ``"xmem"``
(:class:`repro.xmem.XmemManager`, the external-memory levelized
backend — ``repro.open(backend="xmem", node_budget=...)``).
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Union

from repro.api.base import DDManager, FunctionBase
from repro.api.expr import ExprError, add_expr, parse
from repro.core.exceptions import BBDDError

#: Registered backend factories: name -> callable(variables, **kwargs).
_BACKENDS: Dict[str, Callable] = {}


def register_backend(name: str, factory: Callable) -> None:
    """Register (or replace) a backend factory under ``name``.

    ``factory(variables, **kwargs)`` must return a manager implementing
    the :class:`DDManager` protocol.  Names are case-insensitive.
    """
    _BACKENDS[name.lower()] = factory


def backends() -> tuple:
    """Names of the registered backends, sorted."""
    return tuple(sorted(_BACKENDS))


def _bbdd_factory(variables, **kwargs):
    from repro.core.manager import BBDDManager

    return BBDDManager(variables, **kwargs)


def _bdd_factory(variables, **kwargs):
    from repro.bdd.manager import BDDManager

    return BDDManager(variables, **kwargs)


def _xmem_factory(variables, **kwargs):
    from repro.xmem.manager import XmemManager

    return XmemManager(variables, **kwargs)


register_backend("bbdd", _bbdd_factory)
register_backend("bdd", _bdd_factory)
register_backend("xmem", _xmem_factory)


def open(
    backend: str = "bbdd",
    vars: Union[int, Sequence[str], None] = None,
    **kwargs,
) -> DDManager:
    """Create a decision-diagram manager of the requested backend.

    Parameters
    ----------
    backend:
        A registered backend name (``"bbdd"``, ``"bdd"``, or anything
        added with :func:`register_backend`); case-insensitive.
    vars:
        Number of variables or a sequence of distinct names (variables
        can also be appended later where the backend supports it).
    kwargs:
        Passed through to the backend factory (e.g. ``computed_backend``,
        the BBDD GC knobs).
    """
    try:
        factory = _BACKENDS[backend.lower()]
    except (KeyError, AttributeError):
        raise BBDDError(
            f"unknown backend {backend!r}; registered backends: "
            f"{', '.join(backends())}"
        ) from None
    return factory(0 if vars is None else vars, **kwargs)


__all__ = [
    "DDManager",
    "FunctionBase",
    "ExprError",
    "add_expr",
    "parse",
    "open",
    "register_backend",
    "backends",
]
