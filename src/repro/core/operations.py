"""Two-operand Boolean operator algebra for Algorithm 1.

Every two-operand Boolean operator ``op`` is encoded as a 4-bit truth table
``t`` where bit ``(a << 1) | b`` holds ``op(a, b)``.  This encoding makes
the paper's ``updateop`` step (adjusting the operator for the complement
attributes riding on the operand edges) a pure bit permutation, and makes
every trivial/terminal case of Algorithm 1 a constant-time table lookup.

Bit layout reminder::

    bit 0 -> op(0, 0)
    bit 1 -> op(0, 1)
    bit 2 -> op(1, 0)
    bit 3 -> op(1, 1)
"""

from __future__ import annotations

# The sixteen two-operand operators, by their conventional names.
OP_FALSE = 0b0000
OP_NOR = 0b0001
OP_LT = 0b0010  # (NOT a) AND b        (only op(0,1) = 1, bit 1)
OP_NOT_A = 0b0011
OP_GT = 0b0100  # a AND (NOT b)        (only op(1,0) = 1, bit 2)
OP_NOT_B = 0b0101
OP_XOR = 0b0110
OP_NAND = 0b0111
OP_AND = 0b1000
OP_XNOR = 0b1001
OP_B = 0b1010
OP_LE = 0b1011  # (NOT a) OR b  ==  a IMPLIES b
OP_A = 0b1100
OP_GE = 0b1101  # a OR (NOT b)  ==  b IMPLIES a
OP_OR = 0b1110
OP_TRUE = 0b1111

_NAMES = {
    OP_FALSE: "FALSE",
    OP_NOR: "NOR",
    OP_GT: "GT",
    OP_NOT_B: "NOT_B",
    OP_LT: "LT",
    OP_NOT_A: "NOT_A",
    OP_XOR: "XOR",
    OP_NAND: "NAND",
    OP_AND: "AND",
    OP_XNOR: "XNOR",
    OP_A: "A",
    OP_GE: "GE",
    OP_B: "B",
    OP_LE: "LE",
    OP_OR: "OR",
    OP_TRUE: "TRUE",
}

_BY_NAME = {name: op for op, name in _NAMES.items()}
# Common aliases accepted by the user-facing API.
_BY_NAME.update(
    {
        "IMPLIES": OP_LE,
        "IMP": OP_LE,
        "IMPLY": OP_LE,
        "EQUIV": OP_XNOR,
        "EQ": OP_XNOR,
        "IFF": OP_XNOR,
        "XNOR2": OP_XNOR,
        "DIFF": OP_GT,
        "NIMP": OP_GT,
    }
)


def op_name(op: int) -> str:
    """Return the conventional name of the 4-bit operator table ``op``."""
    return _NAMES[op & 0xF]


def op_from_name(name: str) -> int:
    """Return the 4-bit table for an operator *name*.

    Case-insensitive; accepts the conventional names (``AND``, ``NAND``,
    ``NOR``, ``XNOR``, ...) and the common aliases (``equiv``, ``imp``,
    ``implies``, ...).  Unknown names raise
    :class:`~repro.core.exceptions.OperatorError` (a ``BBDDError`` and
    ``ValueError``) listing the valid names.
    """
    from repro.core.exceptions import OperatorError

    try:
        return _BY_NAME[name.upper()]
    except (KeyError, AttributeError):
        valid = ", ".join(sorted(_BY_NAME))
        raise OperatorError(
            f"unknown Boolean operator name: {name!r}; valid names "
            f"(case-insensitive): {valid}"
        ) from None


def op_eval(op: int, a: int, b: int) -> int:
    """Evaluate ``op(a, b)`` for scalar bits ``a``, ``b``."""
    return (op >> ((a << 1) | b)) & 1


def flip_a(op: int) -> int:
    """Operator table for ``op(NOT a, b)`` (push a complement on operand a).

    This is one half of the paper's ``updateop``: swap the ``a = 0`` rows
    with the ``a = 1`` rows of the table.
    """
    return ((op & 0b0011) << 2) | ((op & 0b1100) >> 2)


def flip_b(op: int) -> int:
    """Operator table for ``op(a, NOT b)`` (push a complement on operand b)."""
    return ((op & 0b0101) << 1) | ((op & 0b1010) >> 1)


def flip_output(op: int) -> int:
    """Operator table for ``NOT op(a, b)``."""
    return (~op) & 0xF


def swap_operands(op: int) -> int:
    """Operator table for ``op(b, a)``."""
    return (op & 0b1001) | ((op & 0b0010) << 1) | ((op & 0b0100) >> 1)


def is_commutative(op: int) -> bool:
    """True when ``op(a, b) == op(b, a)`` for all bits."""
    return ((op >> 1) & 1) == ((op >> 2) & 1)


# ---------------------------------------------------------------------------
# Terminal-case resolution (the ``identical_terminal`` list of Algorithm 1).
#
# When an operand collapses (constant operand, or both operands are the same
# node), the result is a function of the single surviving operand.  We
# describe such a unary outcome with a pair ``(r0, r1)`` = (result when the
# survivor is 0, result when it is 1):
#
#   (0, 0) -> constant 0        (1, 1) -> constant 1
#   (0, 1) -> survivor          (1, 0) -> complemented survivor
# ---------------------------------------------------------------------------

UNARY_FALSE = "0"
UNARY_TRUE = "1"
UNARY_ID = "id"
UNARY_NOT = "not"

_UNARY = {
    (0, 0): UNARY_FALSE,
    (1, 1): UNARY_TRUE,
    (0, 1): UNARY_ID,
    (1, 0): UNARY_NOT,
}


def restrict_a(op: int, value: int) -> str:
    """Unary outcome of ``op`` when operand *a* is the constant ``value``.

    The survivor of the restriction is operand *b*.
    """
    base = value << 1
    r0 = (op >> base) & 1
    r1 = (op >> (base | 1)) & 1
    return _UNARY[(r0, r1)]


def restrict_b(op: int, value: int) -> str:
    """Unary outcome of ``op`` when operand *b* is the constant ``value``."""
    r0 = (op >> value) & 1
    r1 = (op >> (0b10 | value)) & 1
    return _UNARY[(r0, r1)]


def diagonal(op: int) -> str:
    """Unary outcome of ``op(f, f)`` as a function of ``f``."""
    return _UNARY[(op & 1, (op >> 3) & 1)]


ALL_OPS = tuple(range(16))
# Operators that actually require recursion (both operands matter); the
# remaining tables short-circuit at the first apply call.
BINARY_OPS = tuple(
    op
    for op in ALL_OPS
    if op not in (OP_FALSE, OP_TRUE, OP_A, OP_NOT_A, OP_B, OP_NOT_B)
)
