"""Evaluation of parsed expressions against an environment of bindings.

An operator is defined by the operand kinds it accepts: ``ROWS`` maps
(operator, left kind, right kind) to what it computes for that pair, a
context operator or its lift to context sets.  The kinds are context,
context set (a Box is one, enumerated once its row is found) and
dimension set; a pair with no row raises ``KindMismatch``.  The
environment's rng drives every choice operator, so results are
reproducible under a fixed seed; chained choices pick pairwise, one
uniform two-way pick per ``|`` node.

A run of ``(+)`` over contexts, ``c0 (+) c1 (+) ... (+) cn``, costs one
``ops.override`` call, not n.  Override is associative when its right
operands are simple: ``(c0 (+) c1) (+) c2`` and ``c0 (+) (c1 (+) c2)``
both drop c0's pairs on the dimensions of c1 and c2, keep c1's pairs off
c2's dimensions, and keep all of c2.  So the run's right operands are
united by dimension, the last binding winning, into one simple context
that overrides c0 once; the running context is not copied per operator.
The operands are still evaluated left to right.  A run ends at any other
operator, at an operand that is not a simple context, or at the end of
the chain; the operator rows combine what ended it as before, so a
non-simple operand raises from ``ops.override`` itself, before the next
operand is evaluated.
"""

from __future__ import annotations

import random
from typing import Dict, Union

from .errors import KindMismatch, UnboundVariable
from .model import (
    Context,
    ContextSet,
    DimensionRegistry,
    check_registry,
    make_context,
    make_context_set,
)
from .parser import (
    CONTEXT, BoxLit, Const, ContextLit, DimSetLit, Node, Ref, SetLit,
    left_chain,
)
from .sets import (
    Box,
    box_enumerate,
    box_make,
    join,
    lift_choice,
    lift_difference,
    lift_hiding,
    lift_override,
    lift_projection,
    lift_substitution,
    set_intersection,
    set_union,
)
from . import ops
# Not through ``ops.``: the benchmark's tracer replaces this module's
# ``ops`` with a namespace of the wrapped context operators alone.
from .ops import check_rng

Value = Union[Context, ContextSet, Box, frozenset, bool]


class Environment:
    """Named bindings plus the registry and rng evaluation runs against.

    Bindings may hold contexts, context sets, boxes, or dimension sets.
    Rebinding a name replaces its previous value.  An environment is a
    mutable record, equal only to itself.  The constructor, which runs
    once per session, checks the registry and the rng and raises
    ``KindMismatch`` for a wrong one.
    """

    __slots__ = ("registry", "rng", "bindings")

    def __init__(self, registry: DimensionRegistry, rng: random.Random):
        check_registry(registry)
        check_rng(rng)
        self.registry = registry
        self.rng = rng
        self.bindings: Dict[str, Value] = {}

    def bind(self, name: str, value: Value):
        self.bindings[name] = value

    def lookup(self, name: str) -> Value:
        try:
            return self.bindings[name]
        except KeyError:
            raise UnboundVariable(f"unbound variable {name!r}") from None


_CTX, _SET, _DIMS = "context", "context set", "dimension set"
_KINDS = {Context: _CTX, ContextSet: _SET, Box: _SET, frozenset: _DIMS,
          bool: "boolean"}


def _kind(value) -> str:
    return _KINDS.get(type(value), type(value).__name__)


# Each row is called as row(left, right, rng).  The rows name ops.<name>
# and this module's set operators inside their bodies, so both are looked
# up when a row runs: rebinding them (the benchmark's tracer wraps them)
# reaches the evaluator, which functions stored in the table would not.
# A run of (+) over contexts reaches ops.override once, through
# ``_override``, and the ("(+)", context, context) row only for an operand
# that ends a run (a non-simple one), so a tracer sees one call per run.
ROWS = {
    ("!", _CTX, _DIMS): lambda a, b, rng: ops.projection(a, b),
    ("!", _SET, _DIMS): lambda a, b, rng: lift_projection(a, b),
    ("^", _CTX, _DIMS): lambda a, b, rng: ops.hiding(a, b),
    ("^", _SET, _DIMS): lambda a, b, rng: lift_hiding(a, b),
    ("/", _CTX, _CTX): lambda a, b, rng: ops.substitution(a, b),
    ("/", _SET, _CTX): lambda a, b, rng: lift_substitution(a, b),
    ("|", _CTX, _CTX): lambda a, b, rng: ops.choice([a, b], rng),
    ("|", _SET, _SET): lambda a, b, rng: lift_choice(a, b, rng),
    ("&", _CTX, _CTX): lambda a, b, rng: ops.conjunction(a, b),
    ("%", _CTX, _CTX): lambda a, b, rng: ops.disjunction(a, b),
    ("(+)", _CTX, _CTX): lambda a, b, rng: ops.override(a, b),
    ("(+)", _SET, _SET): lambda a, b, rng: lift_override(a, b),
    ("(-)", _CTX, _CTX): lambda a, b, rng: ops.difference(a, b),
    ("(-)", _SET, _SET): lambda a, b, rng: lift_difference(a, b),
    ("<=>", _CTX, _CTX): lambda a, b, rng: ops.undirected_range(a, b),
    ("=>", _CTX, _CTX): lambda a, b, rng: ops.directed_range(a, b),
    ("><", _SET, _SET): lambda a, b, rng: join(a, b),
    ("[&]", _SET, _SET): lambda a, b, rng: set_intersection(a, b),
    ("[+]", _SET, _SET): lambda a, b, rng: set_union(a, b),
    # contexts are frozensets of their micro contexts
    ("==", _CTX, _CTX): lambda a, b, rng: a == b,
    ("<<=", _CTX, _CTX): lambda a, b, rng: a <= b,
    (">>=", _CTX, _CTX): lambda a, b, rng: a >= b,
}


def _leaf(node: Node, env: Environment) -> Value:
    if isinstance(node, Ref):
        return env.lookup(node.name)
    if isinstance(node, ContextLit):
        return make_context(env.registry, node.pairs)
    if isinstance(node, DimSetLit):
        return frozenset(env.registry.get(n) for n in node.names)
    if isinstance(node, SetLit):
        return make_context_set(env.registry, [i.pairs for i in node.items])
    if isinstance(node, BoxLit):
        return box_make([env.registry.get(n) for n in node.dims], node.predicate)
    if isinstance(node, Const):
        return node.value
    raise KindMismatch(f"not a context expression node: {node!r}")


def evaluate(node: Node, env: Environment) -> Value:
    """Evaluate a parsed expression to a context, set, box, dimension set,
    or boolean.  A chain of left operands is walked with a loop, innermost
    operator first; only right operands are evaluated recursively."""
    if not isinstance(env, Environment):
        raise KindMismatch(f"not an environment: {type(env).__name__}")
    node, chain = left_chain(node, CONTEXT)
    value = _leaf(node, env)
    run = []  # the simple right operands of a run of (+) over contexts
    for n in chain:
        right = evaluate(n.right, env)
        if (n.op == "(+)" and type(value) is Context
                and type(right) is Context and right.is_simple()):
            run.append(right)
            continue
        if run:
            value, run = _override(value, run), []
        value = _apply(n.op, value, right, env)
    return _override(value, run) if run else value


def _override(value: Context, run: list) -> Context:
    """``value (+) run[0] (+) ... (+) run[-1]`` as one ``ops.override``."""
    if len(run) == 1:
        return ops.override(value, run[0])
    pairs = {m.dimension: m for c in run for m in c}  # the last binding wins
    return ops.override(value, Context._of_micros(pairs.values()))


def _apply(op: str, left: Value, right: Value, env: Environment) -> Value:
    row = ROWS.get((op, _kind(left), _kind(right)))
    if row is None:
        raise KindMismatch(
            f"operator {op!r} cannot combine a {_kind(left)} "
            f"with a {_kind(right)}"
        )
    if isinstance(left, Box):
        left = box_enumerate(left)
    if isinstance(right, Box):
        right = box_enumerate(right)
    return row(left, right, env.rng)
