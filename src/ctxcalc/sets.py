"""Operators over sets of simple contexts, plus intensional Box sets.

The lifted operators apply a context operator member-wise (or pairwise);
the relational operators treat context sets like relations over their
shared dimensions.  A Box describes a context set by a dimension list and
a predicate over the current tags instead of by enumeration.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Tuple, Union

from .errors import (
    IllTypedPredicate,
    NonSimpleOperand,
    UnboundedBox,
)
from .model import (
    Context,
    ContextSet,
    Dimension,
    EnumValue,
    MicroContext,
    TagKind,
    TagValue,
    format_tag,
    kind_of,
)
from .streams import OPERATORS, PREDICATE, Const, NotOp, Pointwise, Ref
from . import ops


# --- lifted operators -------------------------------------------------------

def lift_projection(s: ContextSet, dims: frozenset) -> ContextSet:
    """Project every member onto ``dims``."""
    return ContextSet(ops.projection(c, dims) for c in s)


def lift_hiding(s: ContextSet, dims: frozenset) -> ContextSet:
    """Hide ``dims`` in every member."""
    return ContextSet(ops.hiding(c, dims) for c in s)


def lift_substitution(s: ContextSet, dimension: Dimension, tag) -> ContextSet:
    """Substitute the micro context (dimension, tag) into every member."""
    micro = Context([MicroContext(dimension, tag)])
    return ContextSet(ops.substitution(c, micro) for c in s)


def lift_choice(s1: ContextSet, s2: ContextSet, rng: random.Random) -> ContextSet:
    """Return one of the two sets, picked uniformly by the rng."""
    return (s1, s2)[rng.randrange(2)]


def lift_override(s1: ContextSet, s2: ContextSet) -> ContextSet:
    """Pairwise override over the cartesian product of the two sets."""
    return ContextSet(ops.override(a, b) for a in s1 for b in s2)


def lift_difference(s1: ContextSet, s2: ContextSet) -> ContextSet:
    """Pairwise difference over the cartesian product of the two sets."""
    return ContextSet(ops.difference(a, b) for a in s1 for b in s2)


# --- relational operators -----------------------------------------------------

def _shared_dims(s1: ContextSet, s2: ContextSet) -> frozenset:
    return s1.dims_union() & s2.dims_union()


def join(s1: ContextSet, s2: ContextSet) -> ContextSet:
    """Natural join: unite pairs that agree on the shared dimensions."""
    shared = _shared_dims(s1, s2)
    members = []
    for a in s1:
        pa = ops.projection(a, shared)
        for b in s2:
            if pa == ops.projection(b, shared):
                members.append(ops.disjunction(a, b))
    return ContextSet(members)


def set_intersection(s1: ContextSet, s2: ContextSet) -> ContextSet:
    """Pairwise conjunction over the cartesian product of the two sets."""
    return ContextSet(ops.conjunction(a, b) for a in s1 for b in s2)


def set_union(s1: ContextSet, s2: ContextSet) -> ContextSet:
    """Pairwise union where each member keeps the other's unshared part."""
    shared = _shared_dims(s1, s2)
    members = []
    for a in s1:
        for b in s2:
            members.append(ops.disjunction(a, ops.hiding(b, shared)))
            members.append(ops.disjunction(b, ops.hiding(a, shared)))
    return ContextSet(members)


# --- box predicates -----------------------------------------------------------
#
# A predicate is a tag expression of the stream language; the names below
# are the predicate vocabulary for the stream node classes.

Lit = Const
Name = Ref  # a dimension variable or an enum symbol
Arith = Cmp = Logic = Pointwise
Not = NotOp

BoolExpr = Union[Const, Ref, Pointwise, NotOp]

_INT = (TagKind.INT, None)
_BOOL = (TagKind.BOOL, None)
_ARITHMETIC = ("+", "-", "*")
_LOGIC = ("and", "or")


def _resolve_symbol(name: str, dims) -> EnumValue:
    """Resolve a non-dimension identifier as an enum symbol of one box dim."""
    hits = [
        member
        for d in dims
        if d.tag_type is TagKind.ENUM
        for member in d.domain
        if member.symbol == name
    ]
    if len(hits) == 1:
        return hits[0]
    if not hits:
        raise IllTypedPredicate(f"unbound name {name!r} in box predicate")
    raise IllTypedPredicate(f"ambiguous enum symbol {name!r} in box predicate")


def _predicate_kind(node: BoolExpr, dims_by_name) -> tuple:
    """Kind of a predicate node: (TagKind, enumeration-or-None)."""
    if isinstance(node, Const):
        k = kind_of(node.value)
        return k, node.value.enumeration if k is TagKind.ENUM else None
    if isinstance(node, Ref):
        dim = dims_by_name.get(node.name)
        if dim is not None:
            if dim.tag_type is TagKind.ENUM:
                return TagKind.ENUM, dim.domain[0].enumeration
            return dim.tag_type, None
        member = _resolve_symbol(node.name, dims_by_name.values())
        return TagKind.ENUM, member.enumeration
    if isinstance(node, Pointwise) and (node.op in OPERATORS or node.op in _LOGIC):
        sides = (node.left, node.right)
        lk, rk = (_predicate_kind(side, dims_by_name) for side in sides)
        if node.op in _LOGIC:
            if lk != _BOOL or rk != _BOOL:
                raise IllTypedPredicate(f"{node.op!r} needs boolean operands")
        elif node.op in _ARITHMETIC:
            if lk != _INT or rk != _INT:
                raise IllTypedPredicate(f"arithmetic {node.op!r} needs integer operands")
            return _INT
        elif lk != rk:
            raise IllTypedPredicate(f"comparison {node.op!r} over mismatched kinds")
        return _BOOL
    if isinstance(node, NotOp):
        if _predicate_kind(node.operand, dims_by_name) != _BOOL:
            raise IllTypedPredicate("'not' needs a boolean operand")
        return _BOOL
    raise IllTypedPredicate(f"not a predicate node: {node!r}")


def eval_predicate(node: BoolExpr, dims_by_name, assignment) -> TagValue:
    """Evaluate a predicate under an assignment of dimension names to tags."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Ref):
        if node.name in assignment:
            return assignment[node.name]
        return _resolve_symbol(node.name, dims_by_name.values())
    if isinstance(node, Pointwise):
        a = eval_predicate(node.left, dims_by_name, assignment)
        if node.op == "and":
            return bool(a) and bool(eval_predicate(node.right, dims_by_name, assignment))
        if node.op == "or":
            return bool(a) or bool(eval_predicate(node.right, dims_by_name, assignment))
        b = eval_predicate(node.right, dims_by_name, assignment)
        return OPERATORS[node.op](a, b)
    if isinstance(node, NotOp):
        return not eval_predicate(node.operand, dims_by_name, assignment)
    raise IllTypedPredicate(f"not a predicate node: {node!r}")


def predicate_text(node: BoolExpr, min_bp: int = 0) -> str:
    """Render a predicate in the syntax the box-literal parser accepts,
    bracketed if it binds looser than min_bp."""
    if isinstance(node, Const):
        return format_tag(node.value)
    if isinstance(node, Ref):
        return node.name
    if isinstance(node, NotOp):
        rule = PREDICATE.prefix["not"]
        text = f"not {predicate_text(node.operand, rule.bp + 1)}"
    elif isinstance(node, Pointwise):
        rule = PREDICATE.infix[node.op]
        text = (
            f"{predicate_text(node.left, rule.left_bp)} {node.op} "
            f"{predicate_text(node.right, rule.right_bp)}"
        )
    else:
        raise IllTypedPredicate(f"not a predicate node: {node!r}")
    if rule.bp < min_bp:
        return f"({text})"
    return text


# --- boxes ----------------------------------------------------------------------

@dataclass(frozen=True)
class Box:
    """An intensional context set: ordered dimensions plus a tag predicate.

    Membership is always decidable; enumeration needs every dimension to
    carry a declared finite domain.
    """

    dims: Tuple[Dimension, ...]
    predicate: BoolExpr

    def __str__(self):
        names = ", ".join(d.name for d in self.dims)
        return f"Box[{names} | {predicate_text(self.predicate)}]"


def box_make(dims, predicate: BoolExpr) -> Box:
    """Validate and build a box; the predicate must be boolean-kinded."""
    dims = tuple(dims)
    if not dims:
        raise IllTypedPredicate("a box needs at least one dimension")
    by_name = {d.name: d for d in dims}
    if len(by_name) != len(dims):
        raise IllTypedPredicate("box dimensions must be distinct")
    if _predicate_kind(predicate, by_name) != _BOOL:
        raise IllTypedPredicate("box predicate must be boolean")
    return Box(dims, predicate)


def box_contains(box: Box, c: Context) -> bool:
    """Whether a simple context over exactly the box dimensions satisfies
    the predicate."""
    if not c.is_simple():
        raise NonSimpleOperand("box membership is defined for simple contexts")
    if c.dims() != frozenset(box.dims):
        return False
    by_name = {d.name: d for d in box.dims}
    assignment = {m.dimension.name: m.tag for m in c}
    return bool(eval_predicate(box.predicate, by_name, assignment))


def box_enumerate(box: Box) -> ContextSet:
    """Materialize the box over the declared domains of its dimensions."""
    for d in box.dims:
        if d.domain is None:
            raise UnboundedBox(
                f"dimension {d.name!r} has no finite domain to enumerate"
            )
    by_name = {d.name: d for d in box.dims}
    members = []
    for combo in itertools.product(*(d.domain for d in box.dims)):
        assignment = {d.name: v for d, v in zip(box.dims, combo)}
        if eval_predicate(box.predicate, by_name, assignment):
            members.append(
                Context(MicroContext(d, v) for d, v in zip(box.dims, combo))
            )
    return ContextSet(members)
