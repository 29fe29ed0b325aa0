"""Boolean expression language for the unified front end.

A small operator-precedence parser over the grammar (precedence low to
high; ``->`` is right-associative, the other binary operators are
left-associative)::

    expr    := quant
    quant   := ('\\E' | '\\A') names ':' quant | iff
    iff     := imp ('<->' imp)*
    imp     := or ('->' imp)?
    or      := xor ('|' xor)*
    xor     := and ('^' and)*
    and     := unary ('&' unary)*
    unary   := '~' unary | atom
    atom    := '(' expr ')' | 'ite' '(' expr ',' expr ',' expr ')'
             | 'TRUE' | 'FALSE' | name
    names   := name (',' name)*

Quantifiers scope to the end of the expression (parenthesize to bound
them): ``\\E x, y: x & y | z`` quantifies the whole disjunction.

The AST is plain tuples — ``('var', name)``, ``('const', bool)``,
``('not', e)``, ``('and'|'or'|'xor'|'imp'|'iff', a, b)``,
``('ite', f, g, h)``, ``('exists'|'forall', [names], e)``.  Both the
parser and :func:`add_expr`, which evaluates the AST against any
:class:`~repro.api.base.DDManager` backend, run **iteratively** over
explicit stacks, so operator chains of arbitrary length
(``x0 ^ x1 ^ ... ^ x4000``) and arbitrarily deep nesting parse and
build without touching the Python recursion limit.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from repro.core.exceptions import BBDDError


class ExprError(BBDDError, ValueError):
    """A Boolean expression string failed to tokenize or parse."""


_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:"
    r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><->|->|\\E|\\A|[~&|^(),:])"
    r"|(?P<bad>\S)"
    r")"
)

#: Token sentinel appended at end of input.
_END = ("end", "")

#: Names the lexer/parser claims for itself.
_KEYWORDS = frozenset({"TRUE", "FALSE", "ite"})

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def exportable_name(name: str) -> str:
    """Validate that a variable name survives an expression round trip.

    ``to_expr`` output must re-tokenize to the same function, so names
    must be grammar identifiers and must not collide with the
    ``TRUE``/``FALSE``/``ite`` keywords; anything else raises
    :class:`ExprError` (silently emitting it would parse back to a
    *different* function).
    """
    if name in _KEYWORDS or _NAME_RE.match(name) is None:
        raise ExprError(
            f"variable name {name!r} cannot be exported to the expression "
            "grammar (not an identifier, or a TRUE/FALSE/ite keyword); "
            "rename it or persist with dump() instead"
        )
    return name


def tokenize(text: str) -> List[Tuple[str, str]]:
    """Split ``text`` into ``(kind, value)`` tokens (kind: name/op/end)."""
    tokens: List[Tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:  # only trailing whitespace remains
            break
        if match.group("bad") is not None:
            raise ExprError(
                f"unexpected character {match.group('bad')!r} at offset "
                f"{match.start('bad')} in expression"
            )
        if match.group("name") is not None:
            tokens.append(("name", match.group("name")))
        else:
            tokens.append(("op", match.group("op")))
        pos = match.end()
    tokens.append(_END)
    return tokens


#: Binary operators: token -> (AST kind, precedence, right-associative).
_BINARY = {
    "<->": ("iff", 1, False),
    "->": ("imp", 2, True),
    "|": ("or", 3, False),
    "^": ("xor", 4, False),
    "&": ("and", 5, False),
}

#: Operator-stack entries that are not binary operators: a pending
#: ``~`` and the frames that open a nested ``expr`` (a parenthesized
#: group, an ``ite`` argument list, a quantifier body).
_NOT = "~"
_GROUP = "("
_ITE = "ite"
_QUANT = "quant"


class _Parser:
    """Operator-precedence parser over the token stream.

    Iterative, like :func:`build`: one operand stack and one operator
    stack replace the recursive descent, so nesting depth is bounded
    by memory, not by the Python stack.  Frames on the operator stack
    mark where each nested ``expr`` began; binary operators reduce only
    down to the nearest frame.  Tokens are consumed in the same order
    as the grammar's recursive descent, so the AST and every error
    message are those of the grammar above.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token helpers --------------------------------------------------

    def peek(self) -> Tuple[str, str]:
        """The current token without consuming it."""
        return self.tokens[self.pos]

    def next(self) -> Tuple[str, str]:
        """Consume and return the current token."""
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, value: str) -> None:
        """Consume one token, requiring it to be ``value``."""
        kind, got = self.next()
        if kind == "end" or got != value:
            shown = "end of input" if kind == "end" else repr(got)
            raise ExprError(
                f"expected {value!r} but found {shown} in {self.text!r}"
            )

    def name(self, what: str) -> str:
        """Consume one identifier token (``what`` labels the error)."""
        kind, value = self.next()
        if kind != "name":
            shown = "end of input" if kind == "end" else repr(value)
            raise ExprError(f"expected {what} but found {shown}")
        return value

    # -- grammar --------------------------------------------------------

    def begin_expr(self, ops: list) -> None:
        """Start an ``expr``: push a frame per leading quantifier."""
        while self.peek() in (("op", "\\E"), ("op", "\\A")):
            _kind, value = self.next()
            names = [self.name("quantified variable")]
            while self.peek() == ("op", ","):
                self.next()
                names.append(self.name("quantified variable"))
            self.expect(":")
            ops.append((_QUANT, "exists" if value == "\\E" else "forall", names))

    def parse(self) -> tuple:
        """Parse a full expression; trailing tokens are an error."""
        operands: list = []
        ops: list = []
        self.begin_expr(ops)
        while True:
            # Operand position: prefix operators, then one atom.
            kind, value = self.next()
            while kind == "op" and value == "~":
                ops.append((_NOT,))
                kind, value = self.next()
            if kind == "op" and value == "(":
                ops.append((_GROUP,))
                self.begin_expr(ops)
                continue
            if kind != "name":
                shown = "end of input" if kind == "end" else repr(value)
                raise ExprError(
                    f"expected an operand but found {shown} in {self.text!r}"
                )
            if value == "ite" and self.peek() == ("op", "("):
                self.next()
                ops.append([_ITE, 0])
                self.begin_expr(ops)
                continue
            if value == "TRUE":
                atom = ("const", True)
            elif value == "FALSE":
                atom = ("const", False)
            else:
                atom = ("var", value)
            # Operator position: finish atoms, reduce and close frames
            # until a binary operator asks for the next operand.
            while True:
                while ops and ops[-1][0] == _NOT:
                    ops.pop()
                    atom = ("not", atom)
                operands.append(atom)
                kind, value = self.peek()
                binary = _BINARY.get(value) if kind == "op" else None
                if binary is not None:
                    self.next()
                    _kind, prec, right = binary
                    while ops and ops[-1][0] in _BINARY:
                        top = _BINARY[ops[-1][0]][1]
                        if top < prec or (top == prec and right):
                            break
                        self.reduce(ops, operands)
                    ops.append((value,))
                    break
                # The innermost expr ends here.
                while ops and ops[-1][0] in _BINARY:
                    self.reduce(ops, operands)
                while ops and ops[-1][0] == _QUANT:
                    _tag, quant, names = ops.pop()
                    operands.append((quant, names, operands.pop()))
                if not ops:
                    if kind != "end":
                        raise ExprError(
                            f"unexpected trailing {value!r} in {self.text!r}"
                        )
                    return operands.pop()
                frame = ops[-1]
                if frame[0] == _ITE and frame[1] < 2:
                    self.expect(",")
                    frame[1] += 1
                    self.begin_expr(ops)
                    break
                self.expect(")")
                ops.pop()
                if frame[0] == _ITE:
                    h = operands.pop()
                    g = operands.pop()
                    atom = ("ite", operands.pop(), g, h)
                else:
                    atom = operands.pop()

    @staticmethod
    def reduce(ops: list, operands: list) -> None:
        """Apply the binary operator on top of ``ops`` to two operands."""
        b = operands.pop()
        a = operands.pop()
        operands.append((_BINARY[ops.pop()[0]][0], a, b))


def parse(text: str) -> tuple:
    """Parse an expression string into its tuple AST."""
    if not isinstance(text, str):
        raise ExprError(f"expression must be a string, got {type(text).__name__}")
    return _Parser(text).parse()


# ----------------------------------------------------------------------
# evaluation against a manager
# ----------------------------------------------------------------------

_EVAL = 0
_COMBINE = 1


def build(manager, ast: tuple):
    """Evaluate a parsed AST into a function of ``manager``.

    Iterative over an explicit stack, so left-deep operator chains of
    arbitrary length evaluate without recursion.
    """
    results: list = []
    tasks = [(_EVAL, ast)]
    while tasks:
        tag, node = tasks.pop()
        kind = node[0]
        if tag == _COMBINE:
            if kind == "not":
                results.append(~results.pop())
            elif kind == "ite":
                h = results.pop()
                g = results.pop()
                f = results.pop()
                results.append(f.ite(g, h))
            elif kind in ("exists", "forall"):
                body = results.pop()
                if kind == "exists":
                    results.append(body.exists(node[1]))
                else:
                    results.append(body.forall(node[1]))
            else:
                b = results.pop()
                a = results.pop()
                if kind == "and":
                    results.append(a & b)
                elif kind == "or":
                    results.append(a | b)
                elif kind == "xor":
                    results.append(a ^ b)
                elif kind == "imp":
                    results.append(a.implies(b))
                else:  # iff
                    results.append(a.xnor(b))
            continue
        if kind == "const":
            results.append(manager.true() if node[1] else manager.false())
        elif kind == "var":
            results.append(manager.var(node[1]))
        elif kind == "not":
            tasks.append((_COMBINE, node))
            tasks.append((_EVAL, node[1]))
        elif kind == "ite":
            tasks.append((_COMBINE, node))
            # Push in reverse so operands are *evaluated* (and their
            # results stacked) in source order.
            tasks.append((_EVAL, node[3]))
            tasks.append((_EVAL, node[2]))
            tasks.append((_EVAL, node[1]))
        elif kind in ("exists", "forall"):
            tasks.append((_COMBINE, node))
            tasks.append((_EVAL, node[2]))
        else:
            tasks.append((_COMBINE, node))
            tasks.append((_EVAL, node[2]))
            tasks.append((_EVAL, node[1]))
    return results[-1]


def add_expr(manager, text: str):
    """Parse ``text`` and build it as a function of ``manager``."""
    return build(manager, parse(text))
