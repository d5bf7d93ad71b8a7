"""Every callable that ``ctxcalc`` exports refuses an argument of the wrong
kind with a typed error, a ``ContextCalcError``, never a raw ``TypeError``
or ``ValueError``.

``WRONG_KINDS`` holds the calls, one row per export, each row one or more
calls with one argument of a wrong kind and the others right.  A class
that takes no argument is reached through the entry that takes it.  The
exception classes are not in the table, and ``EXEMPT`` names the exports
that check nothing on purpose, each with its reason; a test checks that
the two cover every export, so a new export needs a row.  A wrong number
of arguments is Python's ``TypeError``, out of scope here.
"""

import inspect
import random

import pytest

import ctxcalc
from ctxcalc import (
    Box,
    Context,
    ContextOrder,
    ContextSet,
    Dimension,
    DimensionRegistry,
    Environment,
    EquationSet,
    EvalContext,
    MicroContext,
    TagKind,
    box_contains,
    box_enumerate,
    box_make,
    choice,
    conjunction,
    define_streams,
    difference,
    directed_range,
    disjunction,
    eval_prefix,
    eval_stream,
    evaluate,
    hiding,
    join,
    lift_choice,
    lift_difference,
    lift_hiding,
    lift_override,
    lift_projection,
    lift_substitution,
    make_context,
    override,
    parse_expr,
    parse_stream_expr,
    projection,
    set_intersection,
    set_union,
    substitution,
    to_text,
    tokenize,
    undirected_range,
)
from ctxcalc.errors import ContextCalcError

REG = DimensionRegistry()
REG.register("d", TagKind.INT, [0, 1, 2])
D = REG.get("d")
C = make_context(REG, [("d", 1)])
S = ContextSet([C])
DIMS = frozenset([D])
PREDICATE = parse_expr("Box[d | d > 0]").predicate
BOX = Box([D], PREDICATE)
STREAM = parse_stream_expr("1")
EQS = EquationSet()
AT = EvalContext({"time": 0})


def rng():
    return random.Random(0)


def pairwise(op, right):
    """``op`` with a wrong kind on the left, then on the right."""
    return (lambda: op(5, right), lambda: op(right, 5))


WRONG_KINDS = {
    "Box": (lambda: Box(5, PREDICATE), lambda: Box([D], 5), lambda: Box([5], PREDICATE)),
    "box_make": (lambda: box_make(5, PREDICATE), lambda: box_make([D], 5)),
    "Context": (lambda: Context(5), lambda: Context([5])),
    "ContextOrder": (lambda: ContextOrder(5), lambda: ContextOrder["x"],
                     lambda: ContextOrder[[1]]),
    "ContextSet": (lambda: ContextSet(5), lambda: ContextSet([5])),
    "Dimension": (lambda: Dimension(5, TagKind.INT), lambda: Dimension("d", 5),
                  lambda: Dimension("d", TagKind.INT, 5)),
    # takes no argument; its entries do
    "DimensionRegistry": (lambda: DimensionRegistry().register(5, TagKind.INT),
                          lambda: DimensionRegistry().register("x", 5),
                          lambda: REG.get(5)),
    "Environment": (lambda: Environment(5, rng()), lambda: Environment(REG, 5)),
    "EquationSet": (lambda: EquationSet(5), lambda: EquationSet([5])),
    "EvalContext": (lambda: EvalContext(5), lambda: EvalContext({5: 1}),
                    lambda: EvalContext({"time": "x"})),
    "MicroContext": (lambda: MicroContext(5, 1), lambda: MicroContext(D, "x")),
    "TagKind": (lambda: TagKind(5), lambda: TagKind["x"], lambda: TagKind[[1]]),
    # takes no argument; it is passed to the stream evaluators
    "Warehouse": (lambda: eval_stream(STREAM, AT, EQS, warehouse=5),
                  lambda: eval_prefix(STREAM, warehouse=5)),
    "box_contains": (lambda: box_contains(5, C), lambda: box_contains(BOX, 5)),
    "box_enumerate": (lambda: box_enumerate(5), lambda: box_enumerate(S)),
    "choice": (lambda: choice(5, rng()), lambda: choice([C], 5)),
    "conjunction": pairwise(conjunction, C),
    "define_streams": (lambda: define_streams(5), lambda: define_streams([5])),
    "difference": pairwise(difference, C),
    "directed_range": pairwise(directed_range, C),
    "disjunction": pairwise(disjunction, C),
    "eval_prefix": (lambda: eval_prefix(5), lambda: eval_prefix(STREAM, dim=5),
                    lambda: eval_prefix(STREAM, count="x"),
                    lambda: eval_prefix(STREAM, eqs=5)),
    "eval_stream": (lambda: eval_stream(5, AT, EQS), lambda: eval_stream(STREAM, 5, EQS),
                    lambda: eval_stream(STREAM, AT, 5),
                    lambda: eval_stream(STREAM, AT, EQS, budget="x")),
    "evaluate": (lambda: evaluate(5, Environment(REG, rng())),
                 lambda: evaluate(parse_expr("{(d,1)}"), 5)),
    "hiding": (lambda: hiding(5, DIMS), lambda: hiding(C, 5),
               lambda: hiding(C, frozenset([5]))),
    "join": pairwise(join, S),
    "lift_choice": (lambda: lift_choice(5, S, rng()), lambda: lift_choice(S, 5, rng()),
                    lambda: lift_choice(S, S, 5)),
    "lift_difference": pairwise(lift_difference, S),
    "lift_hiding": (lambda: lift_hiding(5, DIMS), lambda: lift_hiding(S, 5)),
    "lift_override": pairwise(lift_override, S),
    "lift_projection": (lambda: lift_projection(5, DIMS), lambda: lift_projection(S, 5)),
    "lift_substitution": (lambda: lift_substitution(5, C),
                          lambda: lift_substitution(S, 5),
                          lambda: lift_substitution(S, S)),
    "make_context": (lambda: make_context(5, [("d", 1)]), lambda: make_context(REG, 5),
                     lambda: make_context(REG, [5])),
    "override": pairwise(override, C),
    "parse_expr": (lambda: parse_expr(5), lambda: parse_expr(b"{(d,1)}")),
    "parse_stream_expr": (lambda: parse_stream_expr(5),),
    "projection": (lambda: projection(5, DIMS), lambda: projection(C, 5)),
    "set_intersection": pairwise(set_intersection, S),
    "set_union": pairwise(set_union, S) + (lambda: set_union(S, C),),
    "substitution": pairwise(substitution, C),
    "to_text": (lambda: to_text(5), lambda: to_text(C)),
    "tokenize": (lambda: tokenize(5), lambda: tokenize(b"x")),
    "undirected_range": pairwise(undirected_range, C) + (lambda: undirected_range(C, S),),
}

# Plain records that the package builds for itself and that check nothing:
# a wrong field is the builder's defect, not an input to refuse.
EXEMPT = {
    "EnumValue": "a plain record of an enum member, built by Dimension",
    "Token": "a plain record of a lexer token, built by tokenize",
}


def exported_callables():
    for name in dir(ctxcalc):
        value = getattr(ctxcalc, name)
        if name.startswith("_") or not callable(value):
            continue
        if inspect.isclass(value) and issubclass(value, BaseException):
            continue
        yield name


def test_the_table_covers_every_exported_callable():
    exported = set(exported_callables())
    assert set(WRONG_KINDS) | set(EXEMPT) == exported
    assert not set(WRONG_KINDS) & set(EXEMPT)


@pytest.mark.parametrize("call", [
    pytest.param(call, id=f"{name}-{i}")
    for name, calls in WRONG_KINDS.items() for i, call in enumerate(calls)])
def test_a_wrong_kind_argument_raises_a_typed_error(call):
    with pytest.raises(ContextCalcError):
        call()
