"""User-facing handle on a baseline-package BDD function.

:class:`BDDFunction` is the ROBDD instantiation of the shared
:class:`repro.api.base.FunctionBase` wrapper — the entire manipulation
API (operators, ``ite``, ``restrict``, ``compose``, ``exists``/
``forall``, ``sat_one``, ``let``, ``to_expr``, ``dump``) comes from the
base against the :class:`~repro.api.base.DDManager` edge protocol, so
the two backends expose an identical surface.
"""

from __future__ import annotations

from repro.api.base import FunctionBase, install_function_helpers


class BDDFunction(FunctionBase):
    """A Boolean function represented by a ROBDD edge (mirrors Function)."""

    __slots__ = ()

    def __repr__(self) -> str:
        if self.is_true:
            return "<BDDFunction TRUE>"
        if self.is_false:
            return "<BDDFunction FALSE>"
        return f"<BDDFunction root=v{self.node.pv}{'~' if self.attr else ''}>"


def _install_manager_helpers() -> None:
    """Install the shared conveniences (here to avoid an import cycle)."""
    from repro.bdd.manager import BDDManager

    install_function_helpers(BDDManager, BDDFunction)


_install_manager_helpers()
