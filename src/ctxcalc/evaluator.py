"""Evaluation of parsed expressions against an environment of bindings.

Operand kinds are dynamic: the same operator symbol dispatches to the
context or the lifted set operator depending on what its operands turn
out to be.  A box used where a context set is expected is enumerated on
the spot.  The environment's rng drives every choice operator, so results
are reproducible under a fixed seed; chained choices pick pairwise, one
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


def _kind_name(value) -> str:
    if isinstance(value, Context):
        return "context"
    if isinstance(value, ContextSet):
        return "context set"
    if isinstance(value, Box):
        return "box"
    if isinstance(value, frozenset):
        return "dimension set"
    if isinstance(value, bool):
        return "boolean"
    return type(value).__name__


def _as_context_set(value):
    """Coerce a value to a context set if possible, else None."""
    if isinstance(value, ContextSet):
        return value
    if isinstance(value, Box):
        return box_enumerate(value)
    return None


def _mismatch(op, left, right):
    return KindMismatch(
        f"operator {op!r} cannot combine a {_kind_name(left)} "
        f"with a {_kind_name(right)}"
    )


def _micro(env: Environment, name: str, raw) -> MicroContext:
    tag = raw.name if isinstance(raw, SymbolLit) else raw
    return MicroContext(env.registry.get(name), tag)  # which coerces the tag


def _context_from_literal(env: Environment, node: ContextLit) -> Context:
    return Context(_micro(env, name, raw) for name, raw in node.pairs)


def evaluate(node: Node, env: Environment) -> Value:
    """Evaluate a parsed expression to a context, set, box, dimension set,
    or boolean."""
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
    if isinstance(node, BinOp):
        return _apply(node.op, evaluate(node.left, env), evaluate(node.right, env), env)
    raise TypeError(f"not an expression node: {node!r}")


def _apply(op: str, left: Value, right: Value, env: Environment) -> Value:
    if op in ("!", "^"):
        if not isinstance(right, frozenset):
            raise KindMismatch(
                f"operator {op!r} needs a dimension set on the right, "
                f"got a {_kind_name(right)}"
            )
        if isinstance(left, Context):
            fn = ops.projection if op == "!" else ops.hiding
            return fn(left, right)
        ls = _as_context_set(left)
        if ls is not None:
            fn = lift_projection if op == "!" else lift_hiding
            return fn(ls, right)
        raise _mismatch(op, left, right)

    if op == "/":
        if isinstance(left, Context) and isinstance(right, Context):
            return ops.substitution(left, right)
        ls = _as_context_set(left)
        if ls is not None and isinstance(right, Context) and right.is_micro():
            micro = next(iter(right.entries))
            return lift_substitution(ls, micro.dimension, micro.tag)
        if ls is not None:
            raise KindMismatch(
                "set substitution needs a <dimension, tag> pair on the right"
            )
        raise _mismatch(op, left, right)

    if op == "|":
        if isinstance(left, Context) and isinstance(right, Context):
            return ops.choice([left, right], env.rng)
        ls, rs = _as_context_set(left), _as_context_set(right)
        if ls is not None and rs is not None:
            return lift_choice(ls, rs, env.rng)
        raise _mismatch(op, left, right)

    if op in ("&", "%"):
        if isinstance(left, Context) and isinstance(right, Context):
            fn = ops.conjunction if op == "&" else ops.disjunction
            return fn(left, right)
        raise _mismatch(op, left, right)

    if op in ("(+)", "(-)"):
        if isinstance(left, Context) and isinstance(right, Context):
            fn = ops.override if op == "(+)" else ops.difference
            return fn(left, right)
        ls, rs = _as_context_set(left), _as_context_set(right)
        if ls is not None and rs is not None:
            fn = lift_override if op == "(+)" else lift_difference
            return fn(ls, rs)
        raise _mismatch(op, left, right)

    if op in ("<=>", "=>"):
        if isinstance(left, Context) and isinstance(right, Context):
            fn = ops.undirected_range if op == "<=>" else ops.directed_range
            return fn(left, right)
        raise _mismatch(op, left, right)

    if op in ("><", "[&]", "[+]"):
        ls, rs = _as_context_set(left), _as_context_set(right)
        if ls is not None and rs is not None:
            fn = {"><": join, "[&]": set_intersection, "[+]": set_union}[op]
            return fn(ls, rs)
        raise _mismatch(op, left, right)

    if op in ("==", "<<=", ">>="):
        if isinstance(left, Context) and isinstance(right, Context):
            verdict = left.compare(right)
            if op == "==":
                return verdict is ContextOrder.EQUAL
            if op == "<<=":
                return verdict in (ContextOrder.EQUAL, ContextOrder.SUBSET)
            return verdict in (ContextOrder.EQUAL, ContextOrder.SUPERSET)
        raise _mismatch(op, left, right)

    raise KindMismatch(f"unknown operator {op!r}")


# The two expression families share one evaluator; these names mirror the
# two parse entry points.
evaluate_context_expr = evaluate
evaluate_context_set_expr = evaluate
