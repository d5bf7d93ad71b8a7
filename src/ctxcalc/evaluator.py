"""Evaluation of parsed expressions against an environment of bindings.

An operator is defined by the operand kinds it accepts: ``ROWS`` maps
(operator, left kind, right kind) to what it computes for that pair, a
context operator or its lift to context sets.  The kinds are context,
context set (a Box is one, enumerated once its row is found) and
dimension set; a pair with no row raises ``KindMismatch``.  The
environment's rng drives every choice operator, so results are
reproducible under a fixed seed; chained choices pick pairwise, one
uniform two-way pick per ``|`` node.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Union

from .errors import KindMismatch, UnboundVariable
from .model import (
    Context,
    ContextOrder,
    ContextSet,
    DimensionRegistry,
    MicroContext,
)
from .parser import (
    BinOp,
    BoxLit,
    ContextLit,
    DimSetLit,
    Node,
    PairLit,
    SetLit,
    SymbolLit,
    VarRef,
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

Value = Union[Context, ContextSet, Box, frozenset, bool]


@dataclass
class Environment:
    """Named bindings plus the registry and rng evaluation runs against.

    Bindings may hold contexts, context sets, boxes, or dimension sets.
    Rebinding a name replaces its previous value.
    """

    registry: DimensionRegistry
    rng: random.Random
    bindings: Dict[str, Value] = field(default_factory=dict)

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


def _substitute_pair(s: ContextSet, pair: Context, rng) -> ContextSet:
    if not pair.is_micro():
        raise KindMismatch(
            "set substitution needs a <dimension, tag> pair on the right"
        )
    micro = next(iter(pair.entries))
    return lift_substitution(s, micro.dimension, micro.tag)


_AT_MOST = (ContextOrder.EQUAL, ContextOrder.SUBSET)
_AT_LEAST = (ContextOrder.EQUAL, ContextOrder.SUPERSET)

# Each row is called as row(left, right, rng).  The rows name ops.<name>
# and this module's set operators inside their bodies, so both are looked
# up when a row runs: rebinding them (the benchmark's tracer wraps them)
# reaches the evaluator, which functions stored in the table would not.
ROWS = {
    ("!", _CTX, _DIMS): lambda a, b, rng: ops.projection(a, b),
    ("!", _SET, _DIMS): lambda a, b, rng: lift_projection(a, b),
    ("^", _CTX, _DIMS): lambda a, b, rng: ops.hiding(a, b),
    ("^", _SET, _DIMS): lambda a, b, rng: lift_hiding(a, b),
    ("/", _CTX, _CTX): lambda a, b, rng: ops.substitution(a, b),
    ("/", _SET, _CTX): _substitute_pair,
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
    ("==", _CTX, _CTX): lambda a, b, rng: a.compare(b) is ContextOrder.EQUAL,
    ("<<=", _CTX, _CTX): lambda a, b, rng: a.compare(b) in _AT_MOST,
    (">>=", _CTX, _CTX): lambda a, b, rng: a.compare(b) in _AT_LEAST,
}


def _micro(env: Environment, name: str, raw) -> MicroContext:
    tag = raw.name if isinstance(raw, SymbolLit) else raw
    return MicroContext(env.registry.get(name), tag)  # which coerces the tag


def _context_from_literal(env: Environment, node: ContextLit) -> Context:
    return Context(_micro(env, name, raw) for name, raw in node.pairs)


def _leaf(node: Node, env: Environment) -> Value:
    if isinstance(node, VarRef):
        return env.lookup(node.name)
    if isinstance(node, ContextLit):
        return _context_from_literal(env, node)
    if isinstance(node, DimSetLit):
        return frozenset(env.registry.get(n) for n in node.names)
    if isinstance(node, SetLit):
        return ContextSet(_context_from_literal(env, item) for item in node.items)
    if isinstance(node, PairLit):
        return Context([_micro(env, node.dim, node.tag)])
    if isinstance(node, BoxLit):
        return box_make([env.registry.get(n) for n in node.dims], node.predicate)
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(node: Node, env: Environment) -> Value:
    """Evaluate a parsed expression to a context, set, box, dimension set,
    or boolean.  A chain of left operands is walked with a loop, innermost
    operator first; only right operands are evaluated recursively."""
    spine = []
    while isinstance(node, BinOp):
        spine.append(node)
        node = node.left
    value = _leaf(node, env)
    for op in reversed(spine):
        value = _apply(op.op, value, evaluate(op.right, env), env)
    return value


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


# The two expression families share one evaluator; these names mirror the
# two parse entry points.
evaluate_context_expr = evaluate
evaluate_context_set_expr = evaluate
