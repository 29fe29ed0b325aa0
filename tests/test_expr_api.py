"""The Boolean expression language and the parser round-trip property.

Covers the tentpole acceptance property — ``manager.add_expr(f.to_expr())
== f`` under hypothesis on *both* backends — plus a semantic oracle for
``add_expr`` and a cross-backend equivalence sweep (the same expression
built via BBDD and BDD agrees on sat_count and on 64 random
assignments).
"""

import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.api.expr import ExprError, parse

# max_examples comes from the active hypothesis profile (fast/ci —
# see tests/conftest.py); only per-test shape settings live here.
_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NAMES = ["a", "b", "c", "d"]
BACKENDS = ["bbdd", "bdd"]
ALL_BACKENDS = BACKENDS + ["xmem"]


def expressions(names=tuple(NAMES)):
    """Random expression strings over ``names`` (whole grammar)."""
    names = list(names)
    atoms = st.sampled_from(names + ["TRUE", "FALSE"])

    def extend(children):
        binary = st.tuples(
            children, st.sampled_from(["&", "|", "^", "->", "<->"]), children
        ).map(lambda t: f"({t[0]} {t[1]} {t[2]})")
        negation = children.map(lambda e: f"~({e})")
        ite = st.tuples(children, children, children).map(
            lambda t: f"ite({t[0]}, {t[1]}, {t[2]})"
        )
        quant = st.tuples(
            st.sampled_from(["\\E", "\\A"]),
            st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True),
            children,
        ).map(lambda t: f"({t[0]} {', '.join(t[1])}: {t[2]})")
        return st.one_of(binary, negation, ite, quant)

    return st.recursive(atoms, extend, max_leaves=12)


def eval_ast(ast, assignment):
    """Reference interpreter for the expression AST over plain bools."""
    kind = ast[0]
    if kind == "const":
        return ast[1]
    if kind == "var":
        return assignment[ast[1]]
    if kind == "not":
        return not eval_ast(ast[1], assignment)
    if kind == "ite":
        return (
            eval_ast(ast[2], assignment)
            if eval_ast(ast[1], assignment)
            else eval_ast(ast[3], assignment)
        )
    if kind in ("exists", "forall"):
        results = []
        for bits in range(1 << len(ast[1])):
            sub = dict(assignment)
            for j, name in enumerate(ast[1]):
                sub[name] = bool((bits >> j) & 1)
            results.append(eval_ast(ast[2], sub))
        return any(results) if kind == "exists" else all(results)
    a = eval_ast(ast[1], assignment)
    b = eval_ast(ast[2], assignment)
    if kind == "and":
        return a and b
    if kind == "or":
        return a or b
    if kind == "xor":
        return a != b
    if kind == "imp":
        return (not a) or b
    return a == b  # iff


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@given(expr=expressions())
@settings(**_SETTINGS)
def test_add_expr_to_expr_round_trip(backend, expr):
    """The acceptance property: add_expr(f.to_expr()) == f (canonicity)."""
    m = repro.open(backend, vars=NAMES)
    f = m.add_expr(expr)
    text = f.to_expr()
    assert m.add_expr(text) == f
    # The canonical output is deterministic.
    assert f.to_expr() == text


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@given(expr=expressions(), data=st.data())
@settings(**_SETTINGS)
def test_add_expr_matches_reference_semantics(backend, expr, data):
    m = repro.open(backend, vars=NAMES)
    f = m.add_expr(expr)
    ast = parse(expr)
    bits = data.draw(st.integers(min_value=0, max_value=(1 << len(NAMES)) - 1))
    assignment = {name: bool((bits >> i) & 1) for i, name in enumerate(NAMES)}
    assert f.evaluate(assignment) == eval_ast(ast, assignment)


@given(expr=expressions(names=("a", "b", "c", "d", "e", "f")))
@settings(**_SETTINGS)
def test_cross_backend_equivalence_sweep(expr):
    """The same expression built on every backend denotes one function."""
    names = ["a", "b", "c", "d", "e", "f"]
    built = [repro.open(b, vars=names).add_expr(expr) for b in ALL_BACKENDS]
    assert len({f.sat_count() for f in built}) == 1
    rng = random.Random(0xBBDD)
    for _ in range(64):
        assignment = {name: bool(rng.getrandbits(1)) for name in names}
        assert len({f.evaluate(assignment) for f in built}) == 1


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_expression_precedence_and_forms(backend):
    m = repro.open(backend, vars=["a", "b", "c"])
    a, b, c = (m.var(n) for n in "abc")
    assert m.add_expr("a & b | c") == (a & b) | c
    assert m.add_expr("a | b & c") == a | (b & c)
    assert m.add_expr("a ^ b & c") == a ^ (b & c)
    assert m.add_expr("~a & b") == ~a & b
    assert m.add_expr("a -> b -> c") == a.implies(b.implies(c))  # right-assoc
    assert m.add_expr("a -> b <-> ~a | b").is_true
    assert m.add_expr("ite(a, b, c)") == a.ite(b, c)
    assert m.add_expr("TRUE").is_true and m.add_expr("FALSE").is_false
    assert m.add_expr("\\E a: a & b") == b
    assert m.add_expr("\\A a, b: a | b").is_false
    assert m.add_expr("\\E a, b: a & b").is_true


@pytest.mark.slow
@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_long_operator_chain_is_recursion_safe(backend, low_recursion_limit):
    # Deeper than the (lowered) interpreter recursion limit: an engine
    # recursing on operand depth would crash; the iterative/level-sweep
    # engines must not notice.
    n = low_recursion_limit + 200
    m = repro.open(backend, vars=n)
    f = m.add_expr(" ^ ".join(f"x{i}" for i in range(n)))
    assert len(f.support()) == n


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "a &",
        "& a",
        "a b",
        "ite(a, b)",
        "(a | b",
        "\\E : a",
        "\\E a a: b",
        "a ? b",
        "a @ b",
    ],
)
def test_parser_rejects_malformed(bad):
    m = repro.open("bbdd", vars=["a", "b"])
    with pytest.raises(ExprError):
        m.add_expr(bad)
    # ExprError doubles as ValueError and BBDDError.
    from repro.core.exceptions import BBDDError

    assert issubclass(ExprError, (ValueError, BBDDError))


def test_add_expr_unknown_variable():
    from repro.core.exceptions import VariableError

    m = repro.open("bdd", vars=["a"])
    with pytest.raises(VariableError):
        m.add_expr("a & nope")


# ----------------------------------------------------------------------
# deep expressions: the parser keeps its own stacks
# ----------------------------------------------------------------------


def _alternating_chain(manager, n):
    """``x0 & (x1 | (x2 & (x3 | ...)))``: a Shannon tree of depth ``n``."""
    f = manager.var(n - 1)
    for i in range(n - 2, -1, -1):
        f = (manager.var(i) & f) if i % 2 == 0 else (manager.var(i) | f)
    return f


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_deep_to_expr_round_trips(backend, low_recursion_limit):
    """``add_expr(f.to_expr()) == f`` when the ``ite`` nest is 400 deep."""
    manager = repro.open(backend, vars=400)
    f = _alternating_chain(manager, 400)
    text = f.to_expr()
    assert text.count("ite(") >= 399
    assert manager.add_expr(text) == f


DEEP = 10_000


def test_deep_expressions_parse(low_recursion_limit):
    m = repro.open("bbdd", vars=["a", "b", "c"])
    a, b, c = m.var("a"), m.var("b"), m.var("c")
    assert m.add_expr("(" * DEEP + "a & b" + ")" * DEEP) == a & b
    assert m.add_expr("~" * DEEP + "a") == a
    assert m.add_expr("~" * (DEEP + 1) + "a") == ~a
    names = ["a", "b", "c"]
    chain = [names[i % 3] for i in range(5001)]  # 5,000 arrows
    want = m.var(chain[-1])
    for name in reversed(chain[:-1]):
        want = m.var(name).implies(want)
    assert m.add_expr(" -> ".join(chain)) == want
    assert m.add_expr("ite(a, " * 1000 + "b" + ", c)" * 1000) == a.ite(b, c)
    assert m.add_expr("\\E a: " * 1000 + "a & b") == b


@pytest.mark.parametrize(
    "text, message",
    [
        ("(" * DEEP, "expected an operand but found end of input"),
        ("(" * DEEP + "a" + ")" * (DEEP - 1), "expected ')' but found end of input"),
        ("(" * (DEEP - 1) + "a" + ")" * DEEP, "unexpected trailing ')'"),
        ("~" * DEEP, "expected an operand but found end of input"),
        ("ite(a, " * 1000 + "b", "expected ',' but found end of input"),
        ("a -> " * 5000, "expected an operand but found end of input"),
    ],
    ids=[
        "unclosed-parens",
        "one-paren-short",
        "one-paren-extra",
        "tilde-without-operand",
        "unclosed-ite",
        "dangling-arrow",
    ],
)
def test_deep_unbalanced_expressions_raise_expr_error(
    text, message, low_recursion_limit
):
    m = repro.open("bbdd", vars=["a", "b"])
    with pytest.raises(ExprError, match=re.escape(message)):
        m.add_expr(text)
