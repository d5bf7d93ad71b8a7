"""Demand-driven evaluator for multidimensional stream equations.

A stream expression denotes a value at every evaluation context (a finite
map from dimension names to natural tags).  Evaluation computes only the
positions actually demanded and memoizes named stream values in a
warehouse keyed by (name, context).  ``None`` is the undefined value and
propagates through every pointwise operation.

The filtering operators unfold their defining recursions iteratively:

    X wvr Y   value t of the subsequence of X at positions where Y holds
    X asa Y   value 0 of (X wvr Y), at every position
    X upon Y  X advanced once for every position below t where Y holds

A per-query demand budget turns divergent scans (a guard that is never
true) into a DemandExhausted error instead of a hang.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass
from functools import partial
from typing import Mapping, Optional, Tuple, Union

from .errors import (
    DemandExhausted,
    DuplicateName,
    KindMismatch,
    UnresolvedReference,
)
from .lexer import INT, NAME, NONE, RIGHT, Cursor, Grammar, Rule, tokenize

TIME = "time"

Value = Union[int, bool, None]

DEFAULT_BUDGET = 1_000_000


class EvalContext:
    """Immutable map from dimension names to natural tags.

    Absent dimensions read as 0, and zero entries are normalized away so
    equal positions hash identically in the warehouse.
    """

    __slots__ = ("_tags", "_key")

    def __init__(self, tags: Mapping[str, int] = ()):
        items = dict(tags)
        for d, t in items.items():
            if not isinstance(t, int) or isinstance(t, bool) or t < 0:
                raise KindMismatch(
                    f"tag for dimension {d!r} must be a natural number, got {t!r}"
                )
        clean = {d: t for d, t in items.items() if t != 0}
        object.__setattr__(self, "_tags", clean)
        object.__setattr__(self, "_key", frozenset(clean.items()))

    def __setattr__(self, name, value):
        raise AttributeError("EvalContext is immutable")

    def tag(self, dim: str) -> int:
        return self._tags.get(dim, 0)

    def with_tag(self, dim: str, t: int) -> "EvalContext":
        new = dict(self._tags)
        new[dim] = t
        return EvalContext(new)

    def __eq__(self, other):
        return isinstance(other, EvalContext) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        inner = ", ".join(f"{d}: {t}" for d, t in sorted(self._tags.items()))
        return f"EvalContext({{{inner}}})"


# --- stream expression AST ---------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: Value


@dataclass(frozen=True)
class Literal:
    """A finite prefix varying along one dimension; nil past the end."""

    values: Tuple[Value, ...]
    dim: str = TIME


@dataclass(frozen=True)
class Ref:
    name: str


@dataclass(frozen=True)
class Pointwise:
    op: str  # + - * == != < <= > >= and or
    left: "StreamExpr"
    right: "StreamExpr"


@dataclass(frozen=True)
class NotOp:
    operand: "StreamExpr"


@dataclass(frozen=True)
class If:
    cond: "StreamExpr"
    then: "StreamExpr"
    orelse: "StreamExpr"


@dataclass(frozen=True)
class First:
    operand: "StreamExpr"
    dim: str = TIME


@dataclass(frozen=True)
class Next:
    operand: "StreamExpr"
    dim: str = TIME


@dataclass(frozen=True)
class Prev:
    operand: "StreamExpr"
    dim: str = TIME


@dataclass(frozen=True)
class Fby:
    left: "StreamExpr"
    right: "StreamExpr"
    dim: str = TIME


@dataclass(frozen=True)
class Wvr:
    left: "StreamExpr"
    right: "StreamExpr"
    dim: str = TIME


@dataclass(frozen=True)
class Asa:
    left: "StreamExpr"
    right: "StreamExpr"
    dim: str = TIME


@dataclass(frozen=True)
class Upon:
    left: "StreamExpr"
    right: "StreamExpr"
    dim: str = TIME


@dataclass(frozen=True)
class At:
    """Intensional navigation: the operand at a shifted tag along dim."""

    operand: "StreamExpr"
    dim: str
    index: "StreamExpr"


@dataclass(frozen=True)
class Query:
    """Intensional query: the current tag along dim."""

    dim: str


StreamExpr = Union[
    Const, Literal, Ref, Pointwise, NotOp, If,
    First, Next, Prev, Fby, Wvr, Asa, Upon, At, Query,
]


def references(expr: StreamExpr):
    """All stream names an expression refers to."""
    out = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Ref):
            out.add(node.name)
        elif dataclasses.is_dataclass(node):
            for f in dataclasses.fields(node):
                value = getattr(node, f.name)
                if dataclasses.is_dataclass(value):
                    stack.append(value)
    return out


class EquationSet:
    """A validated, immutable mapping from stream names to expressions."""

    def __init__(self, equations: Mapping[str, StreamExpr]):
        self._eqs = dict(equations)

    def get(self, name: str) -> StreamExpr:
        try:
            return self._eqs[name]
        except KeyError:
            raise UnresolvedReference(f"no equation for stream {name!r}") from None

    def names(self):
        return list(self._eqs)

    def __contains__(self, name):
        return name in self._eqs

    def __len__(self):
        return len(self._eqs)


def define_streams(equations) -> EquationSet:
    """Validate a set of stream equations.

    ``equations`` is a mapping or an iterable of (name, expression) pairs.
    Names must be unique and every reference must resolve within the set;
    recursion is allowed.
    """
    if isinstance(equations, Mapping):
        pairs = list(equations.items())
    else:
        pairs = list(equations)
    eqs = {}
    for name, expr in pairs:
        if name in eqs:
            raise DuplicateName(f"stream {name!r} is defined twice")
        eqs[name] = expr
    for name, expr in eqs.items():
        check_references(name, expr, eqs)
    return EquationSet(eqs)


def check_references(name: str, expr: StreamExpr, defined):
    """Raise UnresolvedReference unless every stream that equation
    ``name = expr`` refers to is ``name`` itself or in ``defined``."""
    for ref in references(expr):
        if ref != name and ref not in defined:
            raise UnresolvedReference(
                f"stream {name!r} references undefined stream {ref!r}"
            )


class Warehouse:
    """Memo cache for named stream values, keyed by (name, context).

    Entries are write-once: equations are referentially transparent, so a
    key always recomputes to the same value and duplicate concurrent
    computation is benign.
    """

    def __init__(self):
        self._cache = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, key):
        if key in self._cache:
            self.hits += 1
            return True, self._cache[key]
        return False, None

    def store(self, key, value):
        self.misses += 1
        self._cache[key] = value

    def __len__(self):
        return len(self._cache)


class _Demand:
    __slots__ = ("remaining",)

    def __init__(self, budget: int):
        self.remaining = budget

    def spend(self):
        self.remaining -= 1
        if self.remaining < 0:
            raise DemandExhausted("demand budget exhausted")


@dataclass
class _State:
    eqs: EquationSet
    warehouse: Optional[Warehouse]
    demand: _Demand


# The value of every pointwise operator except the logical ones, which
# stay control flow.  Box predicates evaluate with the same table.
OPERATORS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _eval(expr: StreamExpr, ctx: EvalContext, st: _State) -> Value:
    st.demand.spend()

    if isinstance(expr, Const):
        return expr.value

    if isinstance(expr, Literal):
        t = ctx.tag(expr.dim)
        return expr.values[t] if t < len(expr.values) else None

    if isinstance(expr, Ref):
        key = (expr.name, ctx)
        if st.warehouse is not None:
            hit, value = st.warehouse.lookup(key)
            if hit:
                return value
        value = _eval(st.eqs.get(expr.name), ctx, st)
        if st.warehouse is not None:
            st.warehouse.store(key, value)
        return value

    if isinstance(expr, Pointwise):
        a = _eval(expr.left, ctx, st)
        b = _eval(expr.right, ctx, st)
        if a is None or b is None:
            return None
        fn = OPERATORS.get(expr.op)
        if fn is not None:
            return fn(a, b)
        if expr.op == "and":
            return bool(a) and bool(b)
        if expr.op == "or":
            return bool(a) or bool(b)
        raise KindMismatch(f"unknown pointwise operator {expr.op!r}")

    if isinstance(expr, NotOp):
        a = _eval(expr.operand, ctx, st)
        return None if a is None else not a

    if isinstance(expr, If):
        cond = _eval(expr.cond, ctx, st)
        if cond is None:
            return None
        return _eval(expr.then if cond else expr.orelse, ctx, st)

    if isinstance(expr, Query):
        return ctx.tag(expr.dim)

    if isinstance(expr, At):
        index = _eval(expr.index, ctx, st)
        if index is None:
            return None
        if not isinstance(index, int) or isinstance(index, bool) or index < 0:
            raise KindMismatch(
                f"navigation tag must be a natural number, got {index!r}"
            )
        return _eval(expr.operand, ctx.with_tag(expr.dim, index), st)

    if isinstance(expr, First):
        return _eval(expr.operand, ctx.with_tag(expr.dim, 0), st)

    if isinstance(expr, Next):
        t = ctx.tag(expr.dim)
        return _eval(expr.operand, ctx.with_tag(expr.dim, t + 1), st)

    if isinstance(expr, Prev):
        t = ctx.tag(expr.dim)
        if t == 0:
            return None
        return _eval(expr.operand, ctx.with_tag(expr.dim, t - 1), st)

    if isinstance(expr, Fby):
        t = ctx.tag(expr.dim)
        if t == 0:
            return _eval(expr.left, ctx, st)
        return _eval(expr.right, ctx.with_tag(expr.dim, t - 1), st)

    if isinstance(expr, Wvr):
        # Scan the guard from position 0, counting down the demanded
        # position through the true spots.
        remaining = ctx.tag(expr.dim)
        s = 0
        while True:
            st.demand.spend()
            guard = _eval(expr.right, ctx.with_tag(expr.dim, s), st)
            if guard is None:
                return None
            if guard:
                if remaining == 0:
                    return _eval(expr.left, ctx.with_tag(expr.dim, s), st)
                remaining -= 1
            s += 1

    if isinstance(expr, Asa):
        return _eval(Wvr(expr.left, expr.right, expr.dim), ctx.with_tag(expr.dim, 0), st)

    if isinstance(expr, Upon):
        # The left stream advances once per true guard strictly below the
        # demanded position; the guard itself always advances.
        remaining = ctx.tag(expr.dim)
        sx = 0
        sy = 0
        while remaining > 0:
            st.demand.spend()
            guard = _eval(expr.right, ctx.with_tag(expr.dim, sy), st)
            if guard is None:
                return None
            if guard:
                sx += 1
            sy += 1
            remaining -= 1
        return _eval(expr.left, ctx.with_tag(expr.dim, sx), st)

    raise KindMismatch(f"not a stream expression: {expr!r}")


def eval_stream(
    expr: StreamExpr,
    ctx: EvalContext,
    eqs: EquationSet,
    warehouse: Optional[Warehouse] = None,
    budget: int = DEFAULT_BUDGET,
) -> Value:
    """Evaluate one stream expression at one context."""
    if budget <= 0:
        raise DemandExhausted("demand budget must be positive")
    return _eval(expr, ctx, _State(eqs, warehouse, _Demand(budget)))


def eval_prefix(
    expr,
    dim: str = TIME,
    count: int = 10,
    eqs: Optional[EquationSet] = None,
    warehouse: Optional[Warehouse] = None,
    budget: int = DEFAULT_BUDGET,
) -> list:
    """Evaluate an expression (or stream name) at tags 0..count-1 along dim."""
    if isinstance(expr, str):
        expr = Ref(expr)
    if eqs is None:
        eqs = EquationSet({})
    return [
        eval_stream(expr, EvalContext({dim: t}), eqs, warehouse, budget)
        for t in range(count)
    ]


# --- stream and predicate syntax ---------------------------------------------

_PREFIX_BP = 9  # first next prev not -

_POINTWISE = {
    "or": Rule(2, partial(Pointwise, "or")),
    "and": Rule(3, partial(Pointwise, "and")),
    **{op: Rule(5, partial(Pointwise, op), NONE)
       for op in ("==", "!=", "<", "<=", ">", ">=")},
    "+": Rule(6, partial(Pointwise, "+")),
    "-": Rule(6, partial(Pointwise, "-")),
    "*": Rule(7, partial(Pointwise, "*")),
}


def _predicate_atom(cur: Cursor) -> StreamExpr:
    value = cur.tag(Ref)
    return value if isinstance(value, Ref) else Const(value)


PREDICATE = Grammar(
    prefix={"not": Rule(4, NotOp, RIGHT)},
    infix=_POINTWISE,
    atom=_predicate_atom,
)


def _dim(cur: Cursor) -> str:
    cur.expect(".")
    return cur.expect(NAME).text


def _opt_dim(cur: Cursor) -> str:
    return _dim(cur) if cur.peek().kind == "." else TIME


def _if_head(cur: Cursor):
    """``cond then x else``: what sits between 'if' and its last operand."""
    cond = cur.expression(STREAM)
    cur.expect_word("then")
    then = cur.expression(STREAM)
    cur.expect_word("else")
    return cond, then


def _negate(operand: StreamExpr) -> StreamExpr:
    if isinstance(operand, Const) and isinstance(operand.value, int):
        return Const(-operand.value)
    return Pointwise("-", Const(0), operand)


_LITERAL_WORDS = {"nil": None, "true": True, "false": False}


def _literal_item(cur: Cursor) -> Value:
    tok = cur.peek()
    if tok.kind in (INT, "-"):
        return cur.signed_int()
    if tok.kind == NAME and tok.text in _LITERAL_WORDS:
        cur.advance()
        return _LITERAL_WORDS[tok.text]
    cur.fail("expected a stream literal element")


def _stream_atom(cur: Cursor) -> StreamExpr:
    tok = cur.peek()
    if tok.kind == INT or (tok.kind == NAME and tok.text in _LITERAL_WORDS):
        return Const(_literal_item(cur))
    if tok.kind == NAME:
        if tok.text in _KEYWORDS:
            cur.fail(f"unexpected keyword {tok.text!r}")
        cur.advance()
        return Ref(tok.text)
    if tok.kind == "#":
        cur.advance()
        return Query(_dim(cur))
    if tok.kind == "[":
        cur.advance()
        values = [] if cur.peek().kind == "]" else cur.comma_list(_literal_item)
        cur.expect("]")
        return Literal(tuple(values))
    cur.fail(f"unexpected {tok.text or 'end of input'!r}")


STREAM = Grammar(
    prefix={
        "if": Rule(0, lambda orelse, head: If(*head, orelse), RIGHT, _if_head),
        "not": Rule(_PREFIX_BP, NotOp, RIGHT),
        "-": Rule(_PREFIX_BP, _negate, RIGHT),
        "first": Rule(_PREFIX_BP, First, RIGHT, _opt_dim),
        "next": Rule(_PREFIX_BP, Next, RIGHT, _opt_dim),
        "prev": Rule(_PREFIX_BP, Prev, RIGHT, _opt_dim),
    },
    infix={
        **_POINTWISE,
        "fby": Rule(1, Fby, RIGHT, _opt_dim),
        "wvr": Rule(1, Wvr, RIGHT, _opt_dim),
        "asa": Rule(1, Asa, RIGHT, _opt_dim),
        "upon": Rule(1, Upon, RIGHT, _opt_dim),
        "@": Rule(8, lambda operand, index, dim: At(operand, dim, index),
                   suffix=_dim),
    },
    atom=_stream_atom,
)
# Words that cannot name a stream (true, false and nil are constants).
_KEYWORDS = {"then", "else"} | {
    word for word in (*STREAM.prefix, *STREAM.infix) if word.isalpha()
}


def parse_stream_expr(source) -> StreamExpr:
    """Parse a complete stream expression from text or tokens."""
    cur = Cursor(tokenize(source) if isinstance(source, str) else list(source))
    expr = cur.expression(STREAM)
    cur.close()
    return expr


def parse_stream_expr_prefix(tokens) -> Tuple[StreamExpr, list]:
    """Parse a leading stream expression; return it and the leftover
    tokens (used by commands that take trailing arguments)."""
    cur = Cursor(list(tokens))
    expr = cur.expression(STREAM)
    return expr, cur.tokens[cur.i:]
