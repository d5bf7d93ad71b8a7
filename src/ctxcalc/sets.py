"""Operators over sets of simple contexts, plus intensional Box sets.

The lifted operators apply a context operator member-wise (or pairwise);
the relational operators treat context sets like relations over their
shared dimensions.  A Box describes a context set by a dimension list and
a predicate over the current tags instead of by enumeration.  A predicate
is a tree of ``parser`` nodes (``Const``, ``Ref``, ``Pointwise`` and
``NotOp``) in the syntax of ``parser.PREDICATE``.  ``Box`` (also named
``box_make``) is its one constructor: it checks the Box, binds its enum
symbols and stores the plan that ``box_enumerate`` walks.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from typing import Tuple

from .errors import (
    IllTypedPredicate,
    KindMismatch,
    NonSimpleOperand,
    UnboundedBox,
)
from .model import (
    Context,
    ContextSet,
    Dimension,
    Record,
    TagKind,
    TagValue,
    kind_of,
)
from .parser import (
    OPERATORS, PREDICATE, Const, NotOp, Pointwise, Ref, StreamExpr, left_chain,
    references, unparse,
)
from . import ops


# --- lifted operators -------------------------------------------------------

def _check_sets(*operands):
    """Raise ``KindMismatch`` unless every operand is a ``ContextSet``.

    The operators build their results unchecked (``ContextSet._of_simple``)
    because simple operands give simple results; an operand of another
    type could hold a non-simple context and break that.
    """
    for s in operands:
        if not isinstance(s, ContextSet):
            raise KindMismatch(f"not a context set: {type(s).__name__}")


def _check_dims(dims):
    """Raise ``KindMismatch`` unless ``dims`` is a set of dimensions."""
    if not (isinstance(dims, (set, frozenset))
            and all(isinstance(d, Dimension) for d in dims)):
        raise KindMismatch(f"not a set of dimensions: {dims!r}")


def _shared_dims(s1: ContextSet, s2: ContextSet) -> frozenset:
    return s1.dims_union() & s2.dims_union()


def lift_projection(s: ContextSet, dims: frozenset) -> ContextSet:
    """Project every member onto ``dims``."""
    _check_sets(s)
    _check_dims(dims)
    return ContextSet._of_simple(ops.projection(c, dims) for c in s)


def lift_hiding(s: ContextSet, dims: frozenset) -> ContextSet:
    """Hide ``dims`` in every member."""
    _check_sets(s)
    _check_dims(dims)
    return ContextSet._of_simple(ops.hiding(c, dims) for c in s)


def lift_substitution(s: ContextSet, pair: Context) -> ContextSet:
    """Substitute ``pair``, a context of one micro context (a ``<d, t>``
    pair), into every member."""
    _check_sets(s)
    if not (isinstance(pair, Context) and pair.is_micro()):
        raise KindMismatch(
            "set substitution needs a <dimension, tag> pair on the right"
        )
    return ContextSet._of_simple(ops.substitution(c, pair) for c in s)


def lift_choice(s1: ContextSet, s2: ContextSet, rng: random.Random) -> ContextSet:
    """Return one of the two sets, picked uniformly by the rng."""
    _check_sets(s1, s2)
    ops.check_rng(rng)
    return (s1, s2)[rng.randrange(2)]


def lift_override(s1: ContextSet, s2: ContextSet) -> ContextSet:
    """Pairwise override over the cartesian product of the two sets.

    Override drops the left operand's bindings on the right operand's
    dimensions, so ``c1 (+) c2 == (c1 ^ dims(c2)) (+) c2``.  The members of
    s2 are grouped by their dimension sets; for each group D, each distinct
    remainder ``c1 ^ D`` of s1 is overridden with each member of the group.
    """
    _check_sets(s1, s2)
    groups: dict = {}
    for b in s2:
        groups.setdefault(b.dims(), []).append(b)
    return ContextSet._of_simple(
        ops.override(r, b)
        for taken, group in groups.items()
        for r in {ops.hiding(a, taken) for a in s1}
        for b in group
    )


def lift_difference(s1: ContextSet, s2: ContextSet) -> ContextSet:
    """Pairwise difference over the cartesian product of the two sets.

    Only a binding on a dimension shared by the two sets can be removed, so
    ``c1 (-) c2 == c1 (-) (c2 ! S)`` with S the shared dimensions; each
    member of s1 loses each distinct projection of s2 onto S.
    """
    _check_sets(s1, s2)
    shared = _shared_dims(s1, s2)
    cuts = {ops.projection(b, shared) for b in s2}
    return ContextSet._of_simple(ops.difference(a, b) for a in s1 for b in cuts)


# --- relational operators -----------------------------------------------------

def join(s1: ContextSet, s2: ContextSet) -> ContextSet:
    """Natural join: unite pairs that agree on the shared dimensions.

    A hash join: the members of s2 are bucketed by their projection onto
    the shared dimensions, and each member of s1 probes its own bucket, so
    the cost is |s1| + |s2| plus the pairs that agree.
    """
    _check_sets(s1, s2)
    shared = _shared_dims(s1, s2)
    buckets: dict = {}
    for b in s2:
        buckets.setdefault(ops.projection(b, shared), []).append(b)
    return ContextSet._of_simple(
        ops.disjunction(a, b)
        for a in s1
        for b in buckets.get(ops.projection(a, shared), ())
    )


def set_intersection(s1: ContextSet, s2: ContextSet) -> ContextSet:
    """Pairwise conjunction over the cartesian product of the two sets.

    A common binding lies on a dimension shared by the two sets, so
    ``c1 & c2 == (c1 ! S) & (c2 ! S)`` with S the shared dimensions; each
    distinct projection of s1 onto S is conjoined with each of s2's.
    """
    _check_sets(s1, s2)
    shared = _shared_dims(s1, s2)
    cuts1 = {ops.projection(a, shared) for a in s1}
    cuts2 = {ops.projection(b, shared) for b in s2}
    return ContextSet._of_simple(
        ops.conjunction(a, b) for a in cuts1 for b in cuts2)


def set_union(s1: ContextSet, s2: ContextSet) -> ContextSet:
    """Pairwise union where each member keeps the other's unshared part.

    The distinct unshared remainders of each side are built once; each
    member is then united with every remainder of the other side, so the
    work is that of the output rather than of 2·|s1|·|s2| candidates.
    """
    _check_sets(s1, s2)
    shared = _shared_dims(s1, s2)
    rest1 = {ops.hiding(a, shared) for a in s1}
    rest2 = {ops.hiding(b, shared) for b in s2}
    return ContextSet._of_simple(
        ops.disjunction(c, r)
        for side, rest in ((s1, rest2), (s2, rest1))
        for c in side
        for r in rest
    )


# --- box predicates -----------------------------------------------------------

_INT = (TagKind.INT, None)
_BOOL = (TagKind.BOOL, None)
_ARITHMETIC = ("+", "-", "*")
_LOGIC = ("and", "or")
_LINEAR = ("+", "-")


def _bind_predicate(node: StreamExpr, dims_by_name) -> tuple:
    """The predicate with each name that is not a dimension replaced by the
    one enum member of a dimension that it names, and the kind of the
    result: (TagKind, enumeration-or-None).  One walk binds and checks."""
    node, chain = left_chain(node, PREDICATE)
    if isinstance(node, Ref) and all(name != node.name for name in dims_by_name):
        hits = [d.symbols[node.name] for d in dims_by_name.values() if d.symbols
                and isinstance(node.name, str) and node.name in d.symbols]
        if not hits:
            raise IllTypedPredicate(f"unbound name {node.name!r} in box predicate")
        if len(hits) > 1:
            raise IllTypedPredicate(
                f"ambiguous enum symbol {node.name!r} in box predicate")
        node = Const(hits[0])
    if isinstance(node, Const):
        k = kind_of(node.value)
        kind = k, node.value.enumeration if k is TagKind.ENUM else None
    elif isinstance(node, Ref):
        dim = dims_by_name[node.name]
        if dim.tag_type is TagKind.ENUM:
            kind = TagKind.ENUM, dim.domain[0].enumeration
        else:
            kind = dim.tag_type, None
    elif isinstance(node, NotOp):
        operand, operand_kind = _bind_predicate(node.operand, dims_by_name)
        if operand_kind != _BOOL:
            raise IllTypedPredicate("'not' needs a boolean operand")
        node, kind = NotOp(operand), _BOOL
    else:
        raise IllTypedPredicate(f"not a predicate node: {node!r}")
    for n in chain:
        right, rk = _bind_predicate(n.right, dims_by_name)
        lk, kind = kind, _BOOL
        if n.op in _LOGIC:
            if lk != _BOOL or rk != _BOOL:
                raise IllTypedPredicate(f"{n.op!r} needs boolean operands")
        elif n.op in _ARITHMETIC:
            if lk != _INT or rk != _INT:
                raise IllTypedPredicate(f"arithmetic {n.op!r} needs integer operands")
            kind = _INT
        elif lk != rk:
            raise IllTypedPredicate(f"comparison {n.op!r} over mismatched kinds")
        node = Pointwise(n.op, node, right)
    return node, kind


def _eval_predicate(node: StreamExpr, assignment) -> TagValue:
    """Evaluate a bound, kind-checked predicate (see ``Box``) under an
    assignment of a tag to each dimension name it reads."""
    if isinstance(node, Ref):
        return assignment[node.name]
    if isinstance(node, Const):
        return node.value
    if isinstance(node, NotOp):
        return not _eval_predicate(node.operand, assignment)
    # a Pointwise: left_chain inlined, as this runs once per Box candidate
    chain = []
    while isinstance(node, Pointwise):
        chain.append(node)
        node = node.left
    value = _eval_predicate(node, assignment)
    for n in reversed(chain):
        value = OPERATORS[n.op](value, _eval_predicate(n.right, assignment))
    return value


def predicate_text(node: StreamExpr) -> str:
    """Render a predicate in the syntax the box-literal parser accepts."""
    return unparse(node, PREDICATE)


# --- boxes ----------------------------------------------------------------------

class Box(Record):
    """An intensional context set: ordered dimensions plus a tag predicate.

    The constructor is the one validator and analysis of a Box.  It takes
    any iterable of dimensions and raises ``IllTypedPredicate`` checking
    the dimensions, then, in one walk of the predicate, the names (an enum
    symbol is bound to its member, so every ``Ref`` left names a dimension)
    and the kinds: the predicate must be boolean, so evaluating it is total.
    It stores the plan that ``box_enumerate`` walks, outside equality and
    ``repr``: ``_tests[i]``, the ``and`` conjuncts whose last dimension
    read is ``dims[i]`` (a conjunct that reads none is tested with
    ``dims[0]``); ``_solved[i]``, the pair ``(f, s)`` with which one of
    them solves ``dims[i]`` (see ``_solved_side``), or None.
    """

    __slots__ = ("dims", "predicate", "_tests", "_solved")
    _fields = ("dims", "predicate")

    def __init__(self, dims: Tuple[Dimension, ...], predicate: StreamExpr):
        if not isinstance(dims, Iterable):
            raise IllTypedPredicate(f"not a list of box dimensions: {dims!r}")
        dims = tuple(dims)
        if not dims:
            raise IllTypedPredicate("a box needs at least one dimension")
        for d in dims:
            if not isinstance(d, Dimension):
                raise IllTypedPredicate(f"not a box dimension: {d!r}")
        by_name = {d.name: d for d in dims}
        if len(by_name) != len(dims):
            raise IllTypedPredicate("box dimensions must be distinct")
        predicate, kind = _bind_predicate(predicate, by_name)
        if kind != _BOOL:
            raise IllTypedPredicate("box predicate must be boolean")
        level_of = {name: i for i, name in enumerate(by_name)}
        tests, stack = [[] for _ in dims], [predicate]
        while stack:  # the top-level ``and`` conjuncts, left to right
            conjunct = stack.pop()
            if isinstance(conjunct, Pointwise) and conjunct.op == "and":
                stack += (conjunct.right, conjunct.left)
            else:
                level = max(map(level_of.get, references(conjunct)), default=0)
                tests[level].append(conjunct)
        # every name in tests[i] other than dims[i] is bound before it
        solved = tuple(
            next(filter(None, (_solved_side(t, d) for t in level_tests)), None)
            for d, level_tests in zip(dims, tests))
        put = object.__setattr__
        put(self, "dims", dims)
        put(self, "predicate", predicate)
        put(self, "_tests", tuple(map(tuple, tests)))
        put(self, "_solved", solved)

    def __str__(self):
        names = ", ".join(d.name for d in self.dims)
        return f"Box[{names} | {predicate_text(self.predicate)}]"


box_make = Box


def box_contains(box: Box, c: Context) -> bool:
    """Whether a simple context over exactly the box dimensions satisfies
    the predicate."""
    if not isinstance(box, Box):
        raise KindMismatch(f"not a box: {box!r}")
    if not isinstance(c, Context):
        raise KindMismatch(f"not a context: {c!r}")
    if not c.is_simple():
        raise NonSimpleOperand("box membership is defined for simple contexts")
    if c.dims() != frozenset(box.dims):
        return False
    assignment = {m.dimension.name: m.tag for m in c}
    return bool(_eval_predicate(box.predicate, assignment))


def _solved_side(conjunct: StreamExpr, d: Dimension) -> tuple:
    """For an ``==`` conjunct ``L == R`` that fixes dimension d, the pair
    ``(f, s)`` that ``box_enumerate`` solves d with; else None.

    The conjunct fixes d when d occurs in it exactly once: as one side of
    the ``==``, or reached from the root through binary ``+`` and ``-``
    only, which the kind check admits only over an int dimension.  When d
    is a side, f is the other side and s is 0: d equals f.  Otherwise f is
    ``L - R``, which is ``s·d + c`` for a sign s of +1 or -1 and a c that
    does not read d, so d is ``-s · f`` evaluated with d bound to 0.
    Predicate arithmetic is over integers, so the solution is exact.  One
    pass over the conjunct finds d and its sign.
    """
    if not (isinstance(conjunct, Pointwise) and conjunct.op == "=="):
        return None
    # each node with its sign in L - R, or 0 below any node other than the
    # root, + and -
    sign = None
    stack = [(conjunct.right, -1), (conjunct.left, 1)]
    while stack:
        node, s = stack.pop()
        if isinstance(node, Ref):
            if node.name == d.name:
                if s == 0 or sign is not None:
                    return None
                sign = s
        elif isinstance(node, Pointwise):
            if s and node.op in _LINEAR:
                stack += ((node.right, -s if node.op == "-" else s), (node.left, s))
            else:
                stack += ((node.right, 0), (node.left, 0))
        elif isinstance(node, NotOp):
            stack.append((node.operand, 0))
    if sign is None:
        return None
    left, right = conjunct.left, conjunct.right
    if isinstance(left, Ref) and left.name == d.name:
        return right, 0
    if isinstance(right, Ref) and right.name == d.name:
        return left, 0
    return Pointwise("-", left, right), sign


def _admits(tests, assignment) -> bool:
    """Whether one candidate tag passes the conjuncts its binding completes."""
    for t in tests:
        if not _eval_predicate(t, assignment):
            return False
    return True


# The tags of a bool dimension declared without a domain, and their index:
# a bool dimension has exactly these two.
_BOOL_TAGS = ((False, True), {False: 0, True: 1})


def box_enumerate(box: Box) -> ContextSet:
    """Materialize the box over the declared domains of its dimensions (a
    bool dimension declared without one ranges over false and true) by
    walking the plan the Box stored when it was built (see ``Box``): the
    dimensions are bound depth first, in Box order, and ``_tests[i]`` is
    tested as soon as ``dims[i]`` is bound, so a failing prefix prunes
    every extension of it.  A solved dimension is not swept: the domain's
    own tag equal to its solved value, if any, is the only candidate.  With
    ``_solved[i] == (f, s)``, that value is f evaluated with ``dims[i]``
    bound to 0, negated when s is 1.  Each member is made of its
    dimensions' own micro contexts (``Dimension.micro``), so a pair is
    built once, not once per member or per call.  The result equals
    filtering the full product of the domains.
    """
    if not isinstance(box, Box):
        raise KindMismatch(f"not a box: {box!r}")
    dims, tests, solved = box.dims, box._tests, box._solved
    domains = []
    for d in dims:
        if d.domain is not None:
            domains.append((d.domain, d.index))
        elif d.tag_type is TagKind.BOOL:
            domains.append(_BOOL_TAGS)
        else:
            raise UnboundedBox(
                f"dimension {d.name!r} has no finite domain to enumerate"
            )
    assignment: dict = {}

    def candidates(i):
        domain, index = domains[i]
        if solved[i] is None:
            return domain
        f, s = solved[i]
        assignment[dims[i].name] = 0
        value = _eval_predicate(f, assignment)
        k = index.get(-s * value if s else value)
        return () if k is None else (domain[k],)

    # pending[i] yields the untried candidates of dimension i under the
    # tags bound to the dimensions before it.
    members = []
    pending = [iter(candidates(0))]
    while pending:
        i = len(pending) - 1
        d = dims[i]
        for v in pending[-1]:
            assignment[d.name] = v
            if _admits(tests[i], assignment):
                break
        else:
            pending.pop()
            continue
        if i + 1 < len(dims):
            pending.append(iter(candidates(i + 1)))
            continue
        members.append(Context._of_micros([e.micro(assignment[e.name]) for e in dims]))
    return ContextSet._of_simple(members)
