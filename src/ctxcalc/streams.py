"""Demand-driven evaluator for multidimensional stream equations, and the
stream grammar.

The node classes, which context and Box-predicate trees share, ``TIME``
and the pointwise ``OPERATORS`` live in ``parser``.  This module keeps
what is the stream language's own: the grammar table ``STREAM``, whose
infix rules are ``parser.PREDICATE``'s plus the filters, ``fby`` and
``@``; the words that cannot name a stream, ``KEYWORDS``; the two stream
parse functions; and eduction.

A stream expression denotes a value at every evaluation context: a finite
set of (dimension, tag) pairs with natural tags, an absent dimension
reading as 0.  ``EvalContext`` stores a context as one tuple, its nonzero
pairs sorted by dimension name.  Evaluation computes only the positions
actually demanded and memoizes named stream values in a warehouse keyed
by (name, context).  ``None`` is the undefined value and propagates
through every pointwise operation.

The filtering operators read their guard Y through a scan cursor:

    X wvr Y   X at the t-th position where Y holds, counting from 0
    X asa Y   X at the first position where Y holds, at every position
    X upon Y  X at the number of positions below t where Y holds

A cursor belongs to one guard along one dimension in one context (the
evaluation context with that dimension set to 0), so every filter over
that guard shares it.  It holds the positions where the guard was found
true, the next position to read, and whether a nil guard stopped the scan
there.  A filter reads the cursor and scans further only when it needs a
position not yet read, so a prefix of n values reads each guard position
once.  The cursor stores positions, not values: X is still evaluated
through the warehouse.  Cursors live as long as the warehouse's values.

Every call evaluates through a warehouse: the caller's, which keeps its
values and cursors for later calls over the same equation set (see
``Warehouse``), or a new one that lives for the call alone.  Either way
a named value, once computed, is not computed again within the call.

Each node type has one handler, found in the table ``_HANDLERS`` by the
node's exact type; a type with no entry gets a handler that raises
KindMismatch.  A handler spends its node's unit on entry and evaluates
each child with one call through the table, so a nested demand costs one
host frame per node, no more.

A demand budget, shared by every position of one call, turns divergent
scans (a guard that is never true) into a DemandExhausted error instead of
a hang, and so does a chain of demands nested deeper than the
interpreter's recursion limit.  A unit is spent by each handler for its
node, by the left-chain loop of ``Pointwise`` for each chain node below
the first, in the order recursion would spend them, and by ``_scan`` for
each guard position it reads.  The budget is a C-level counter, an
``itertools.repeat`` of its length: a unit is spent by one
``next(st.ticks)``, no Python call, and the first unit past the budget
raises StopIteration, which ``_evaluate`` turns into DemandExhausted; so a
call answers with exactly the budget it did when each unit was a method
call.  The loop walks a left chain of pointwise operators
(``1 + 1 + ... + 1``) without recursion, and applies each operator as it
goes, so only nested demands, not long expressions, use up the recursion
limit.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, insort
from collections.abc import Iterable
from itertools import repeat
from typing import Mapping, Optional, Tuple

from .errors import (
    ContextCalcError, DemandExhausted, DuplicateName, ExprSyntaxError, KindMismatch,
    UnresolvedReference,
)
from .lexer import BOOLEANS, INT, NAME, RIGHT, Cursor, Grammar, Rule, cursor_of
from .parser import (
    OPERATORS, PREDICATE, TIME, Asa, At, Const, Fby, First, If, Literal, Next,
    NotOp, Pointwise, Prev, Query, Ref, StreamExpr, Upon, Value, Wvr, references,
)

DEFAULT_BUDGET = 1_000_000


def _check_tag(dim: str, t):
    if not isinstance(t, int) or isinstance(t, bool) or t < 0:
        raise KindMismatch(
            f"tag for dimension {dim!r} must be a natural number, got {t!r}"
        )


class EvalContext(tuple):
    """A position: the nonzero (dimension, tag) pairs, sorted by dimension.

    The pairs are the only stored form, so the tuple type gives equality,
    hashing and immutability.  Absent dimensions read as 0, and zero tags
    are dropped, so equal positions are equal tuples in the warehouse.
    """

    __slots__ = ()

    def __new__(cls, tags: Mapping[str, int] = ()):
        try:
            items = dict(tags)
        except (TypeError, ValueError):
            raise KindMismatch(f"not a mapping of dimensions to tags: {tags!r}") from None
        for d, t in items.items():
            if not isinstance(d, str):
                raise KindMismatch(f"dimension name must be a string, got {d!r}")
            _check_tag(d, t)
        return tuple.__new__(cls, sorted((d, t) for d, t in items.items() if t != 0))

    def tag(self, dim: str) -> int:
        for d, t in self:
            if d == dim:
                return t
        return 0

    def with_tag(self, dim: str, t: int) -> "EvalContext":
        """This context with dim moved to t.  Only the new tag is checked:
        the other pairs were checked when they were built."""
        if type(t) is not int or t < 0:
            _check_tag(dim, t)
        if not self or (len(self) == 1 and self[0][0] == dim):
            return tuple.__new__(EvalContext, ((dim, t),) if t else ())
        pairs = [p for p in self if p[0] != dim]
        if t:
            insort(pairs, (dim, t))
        return tuple.__new__(EvalContext, pairs)

    def __repr__(self):
        inner = ", ".join(f"{d}: {t}" for d, t in self)
        return f"EvalContext({{{inner}}})"


class EquationSet(dict):
    """Stream equations by name, checked where they come in and never
    changed after.

    The constructor is ``define_streams``: it takes a mapping or an
    iterable of (name, expression) pairs, whose names must be unique
    strings and whose references must resolve within the set; recursion
    is allowed.  A set grows by ``add`` alone, which item assignment
    calls: a new name whose references resolve to itself or to the
    equations already here.  No writer changes or drops an equation
    (``update``, ``setdefault``, ``|=``, ``del``, ``pop``, ``popitem``,
    ``clear`` raise ``ContextCalcError``), so a warehouse's values stay
    true for the set they came from.  Copies and pickles rebuild through
    the constructor.  Looking up a name with no equation raises
    UnresolvedReference.
    """

    def __init__(self, equations=()):
        if isinstance(equations, Mapping):
            equations = equations.items()
        elif not isinstance(equations, Iterable):
            raise ExprSyntaxError(f"stream equations must be iterable, got {equations!r}")
        for pair in equations:
            if (not isinstance(pair, (tuple, list)) or len(pair) != 2
                    or not isinstance(pair[0], str)):
                raise ExprSyntaxError(f"not a (name, expression) pair: {pair!r}")
            name, expr = pair
            if name in self:
                raise DuplicateName(f"stream {name!r} is defined twice")
            dict.__setitem__(self, name, expr)
        for name, expr in self.items():
            check_references(name, expr, self)

    def __missing__(self, name):
        raise UnresolvedReference(f"no equation for stream {name!r}")

    def add(self, name: str, expr: StreamExpr):
        """Add equation ``name = expr``; it may refer to itself and to the
        equations already here."""
        if name in self:
            raise DuplicateName(f"stream {name!r} is already defined")
        check_references(name, expr, self)
        dict.__setitem__(self, name, expr)

    __setitem__ = add

    def _refuse(self, *args, **kwargs):
        raise ContextCalcError("a stream equation cannot be changed or removed")

    update = setdefault = __ior__ = __delitem__ = pop = popitem = clear = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


# The public name of the constructor, which checks a set of equations.
define_streams = EquationSet


def check_references(name: str, expr: StreamExpr, defined):
    """Raise UnresolvedReference unless every stream that equation
    ``name = expr`` refers to is ``name`` itself or in ``defined``."""
    for ref in references(expr):
        if ref != name and ref not in defined:
            raise UnresolvedReference(
                f"stream {name!r} references undefined stream {ref!r}"
            )


class Warehouse:
    """Memo cache for named stream values, keyed by (name, context), and
    for the filters' scan cursors (see ``_scan``).  ``hits`` counts the
    values read from it and ``misses`` the values computed and stored.

    Entries are write-once: equations are referentially transparent, so a
    key always recomputes to the same value and duplicate concurrent
    computation is benign.

    A warehouse serves one equation set, ``equations``, the one its
    entries came from.  Equations enter a set through its constructor or
    ``EquationSet.add`` alone, and none is changed or dropped after, so
    the set may grow but an entry never goes stale.  An evaluation given
    another set empties the values and cursors first; ``hits`` and
    ``misses`` keep counting.  A plain mapping of equations becomes a new
    set on each call, so it empties the warehouse each time.
    """

    def __init__(self):
        self._cache = {}
        self.cursors = {}
        self.equations = None  # the set the entries came from
        self.hits = 0
        self.misses = 0

    def __len__(self):
        return len(self._cache)


class _Scan:
    """How far a guard has been read along one dimension in one context."""

    __slots__ = ("trues", "next", "stopped")

    def __init__(self):
        self.trues = []  # positions where the guard holds, ascending
        self.next = 0  # the next position to read, or the nil one
        self.stopped = False  # a nil guard at ``next`` ended the scan


class _State:
    """One evaluation call: its warehouse, which holds its equations, and
    the demand it may still spend, as ``ticks``: ``next(ticks)`` spends a
    unit and raises StopIteration when none is left, and
    ``operator.length_hint(ticks)`` is the number left.  A budget past
    ``sys.maxsize``, more units than any call can spend, counts as that."""

    __slots__ = ("warehouse", "ticks")

    def __init__(self, warehouse: Warehouse, budget: int):
        self.warehouse = warehouse
        self.ticks = repeat(None, min(budget, sys.maxsize))


# --- one handler per node type ---------------------------------------------
#
# A handler takes (node, context, state) and spends its unit with
# next(st.ticks).  The helper it may call, _scan, returns before it demands
# a child, so it adds no frame to a nested demand.
#
# No handler may run inside a generator frame: there the StopIteration of
# a spent budget would end the generator as if exhausted, and from Python
# 3.7 on (PEP 479) it turns into a RuntimeError instead of reaching
# _evaluate.  _evaluate calls the top handler from a list comprehension,
# which is a plain frame (or none) and only pulls positions from a
# generator.


def _const(expr, ctx, st):
    next(st.ticks)
    return expr.value


def _literal(expr, ctx, st):
    next(st.ticks)
    t = ctx.tag(expr.dim)
    return expr.values[t] if t < len(expr.values) else None


_MISSING = object()


def _ref(expr, ctx, st):
    next(st.ticks)
    key = (expr.name, ctx)
    wh = st.warehouse
    value = wh._cache.get(key, _MISSING)
    if value is not _MISSING:
        wh.hits += 1
        return value
    body = wh.equations[expr.name]
    value = wh._cache[key] = _HANDLERS[type(body)](body, ctx, st)
    wh.misses += 1
    return value


def _pointwise_chain(expr, ctx, st):
    # A left chain is walked with a loop, spending one unit per node in
    # the order recursion would, so its length costs no host stack.
    next(st.ticks)
    chain = [expr]
    node = expr.left
    while isinstance(node, Pointwise):
        next(st.ticks)
        chain.append(node)
        node = node.left
    a = _HANDLERS[type(node)](node, ctx, st)
    for n in reversed(chain):
        b = n.right
        b = _HANDLERS[type(b)](b, ctx, st)
        if a is None or b is None:  # nil before the operator is looked up
            a = None
            continue
        fn = OPERATORS.get(n.op)
        if fn is None:
            raise KindMismatch(f"unknown pointwise operator {n.op!r}")
        try:
            a = fn(a, b)
        except (TypeError, OverflowError):  # operands the API, not the grammar, built
            raise KindMismatch(f"{n.op!r} cannot combine {a!r} and {b!r}") from None
    return a


def _not(expr, ctx, st):
    next(st.ticks)
    x = expr.operand
    a = _HANDLERS[type(x)](x, ctx, st)
    return None if a is None else not a


def _if(expr, ctx, st):
    next(st.ticks)
    x = expr.cond
    cond = _HANDLERS[type(x)](x, ctx, st)
    if cond is None:
        return None
    x = expr.then if cond else expr.orelse
    return _HANDLERS[type(x)](x, ctx, st)


def _query(expr, ctx, st):
    next(st.ticks)
    return ctx.tag(expr.dim)


def _at(expr, ctx, st):
    next(st.ticks)
    x = expr.index
    index = _HANDLERS[type(x)](x, ctx, st)
    if index is None:
        return None
    x = expr.operand
    return _HANDLERS[type(x)](x, ctx.with_tag(expr.dim, index), st)


def _first(expr, ctx, st):
    next(st.ticks)
    x = expr.operand
    return _HANDLERS[type(x)](x, ctx.with_tag(expr.dim, 0), st)


def _next(expr, ctx, st):
    next(st.ticks)
    x = expr.operand
    return _HANDLERS[type(x)](x, ctx.with_tag(expr.dim, ctx.tag(expr.dim) + 1), st)


def _prev(expr, ctx, st):
    next(st.ticks)
    t = ctx.tag(expr.dim)
    if t == 0:
        return None
    x = expr.operand
    return _HANDLERS[type(x)](x, ctx.with_tag(expr.dim, t - 1), st)


def _fby(expr, ctx, st):
    next(st.ticks)
    t = ctx.tag(expr.dim)
    if t == 0:
        x = expr.left
        return _HANDLERS[type(x)](x, ctx, st)
    x = expr.right
    return _HANDLERS[type(x)](x, ctx.with_tag(expr.dim, t - 1), st)


def _wvr_asa(expr, ctx, st):
    # wvr picks the t-th true guard position, asa always the first.
    next(st.ticks)
    n = ctx.tag(expr.dim) if type(expr) is Wvr else 0
    scan = _scan(expr, ctx, st, lambda sc: len(sc.trues) > n)
    if len(scan.trues) <= n:
        return None
    x = expr.left
    return _HANDLERS[type(x)](x, ctx.with_tag(expr.dim, scan.trues[n]), st)


def _upon(expr, ctx, st):
    next(st.ticks)
    t = ctx.tag(expr.dim)
    scan = _scan(expr, ctx, st, lambda sc: sc.next >= t)
    if scan.next < t:
        return None
    x = expr.left
    return _HANDLERS[type(x)](x, ctx.with_tag(expr.dim, bisect_left(scan.trues, t)), st)


def _not_a_stream(expr, ctx, st):
    next(st.ticks)
    raise KindMismatch(f"not a stream expression: {expr!r}")


class _Handlers(dict):
    """Node type -> handler.  A type with no entry gets _not_a_stream."""

    def __missing__(self, cls):
        return _not_a_stream


_HANDLERS = _Handlers({
    Const: _const,
    Literal: _literal,
    Ref: _ref,
    Pointwise: _pointwise_chain,
    NotOp: _not,
    If: _if,
    Query: _query,
    At: _at,
    First: _first,
    Next: _next,
    Prev: _prev,
    Fby: _fby,
    Wvr: _wvr_asa,
    Asa: _wvr_asa,
    Upon: _upon,
})


def _scan(expr, ctx: EvalContext, st: _State, done) -> _Scan:
    """The cursor of the guard of filter ``expr`` in ``ctx``, read further
    until ``done(cursor)`` holds or a nil guard stops it."""
    y = expr.right
    base = ctx.with_tag(expr.dim, 0)
    key = (y, expr.dim, base)
    cursors = st.warehouse.cursors
    scan = cursors.get(key)
    if scan is None:
        scan = cursors[key] = _Scan()
    while not scan.stopped and not done(scan):
        next(st.ticks)
        s = scan.next
        guard = _HANDLERS[type(y)](y, base.with_tag(expr.dim, s), st)
        if guard is None:
            scan.stopped = True
        else:
            if guard:
                scan.trues.append(s)
            scan.next = s + 1
    return scan


def _evaluate(expr, contexts, eqs, warehouse, budget) -> list:
    """The values of ``expr`` at each context, with one demand budget and
    one warehouse for them all: ``warehouse``, or a new one if it is None
    (anything else is a ``KindMismatch``).  Equations that are not an
    ``EquationSet`` go through ``define_streams`` first."""
    if not isinstance(budget, int):
        raise KindMismatch(f"demand budget must be an integer, got {budget!r}")
    if not isinstance(eqs, EquationSet):
        eqs = define_streams(eqs)
    if budget <= 0:
        raise DemandExhausted("demand budget must be positive")
    wh = Warehouse() if warehouse is None else warehouse
    if not isinstance(wh, Warehouse):
        raise KindMismatch(f"not a warehouse: {warehouse!r}")
    if wh.equations is not eqs:  # the entries of another set do not hold
        wh._cache, wh.cursors, wh.equations = {}, {}, eqs
    st = _State(wh, budget)
    handler = _HANDLERS[type(expr)]
    try:
        return [handler(expr, ctx, st) for ctx in contexts]
    except StopIteration:  # next(st.ticks) past the budget
        raise DemandExhausted("demand budget exhausted") from None
    except RecursionError:
        # A handler calls the handler of each child it demands.
        raise DemandExhausted(
            "stream demand nests too deeply "
            f"(recursion limit {sys.getrecursionlimit()})"
        ) from None


def eval_stream(
    expr: StreamExpr,
    ctx: EvalContext,
    eqs: EquationSet,
    warehouse: Optional[Warehouse] = None,
    budget: int = DEFAULT_BUDGET,
) -> Value:
    """Evaluate one stream expression at one context, memoizing in
    ``warehouse`` if given and otherwise in a warehouse of its own."""
    if not isinstance(ctx, EvalContext):
        raise KindMismatch(f"not an evaluation context: {ctx!r}")
    return _evaluate(expr, [ctx], eqs, warehouse, budget)[0]


def eval_prefix(
    expr,
    dim: str = TIME,
    count: int = 10,
    eqs: Optional[EquationSet] = None,
    warehouse: Optional[Warehouse] = None,
    budget: int = DEFAULT_BUDGET,
) -> list:
    """Evaluate an expression (or stream name) at tags 0..count-1 along
    dim; ``budget`` bounds the demand of the whole prefix, and one
    warehouse, ``warehouse`` or a new one, memoizes it."""
    if isinstance(expr, str):
        expr = Ref(expr)
    if not isinstance(dim, str):
        raise KindMismatch(f"dimension name must be a string, got {dim!r}")
    if not isinstance(count, int):
        raise KindMismatch(f"count must be an integer, got {count!r}")
    if eqs is None:
        eqs = EquationSet()
    # Each position is built as EvalContext stores it, lazily: dim is a
    # string and t a natural, so neither needs a check, and a prefix longer
    # than its budget builds no more positions than it reads.
    new = tuple.__new__
    contexts = (new(EvalContext, ((dim, t),) if t else ()) for t in range(count))
    return _evaluate(expr, contexts, eqs, warehouse, budget)


# --- stream syntax ------------------------------------------------------------

_PREFIX_BP = 9  # first next prev not -


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


_LITERAL_WORDS = {"nil": None, **BOOLEANS}


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
        if tok.text in KEYWORDS:
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
    cur.unexpected()


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
        **PREDICATE.infix,
        "fby": Rule(1, Fby, RIGHT, _opt_dim),
        "wvr": Rule(1, Wvr, RIGHT, _opt_dim),
        "asa": Rule(1, Asa, RIGHT, _opt_dim),
        "upon": Rule(1, Upon, RIGHT, _opt_dim),
        "@": Rule(8, lambda operand, index, dim: At(operand, dim, index),
                   suffix=_dim),
    },
    atom=_stream_atom,
)
# Words that cannot name a stream.
KEYWORDS = {"then", "else", *_LITERAL_WORDS} | {
    word for word in (*STREAM.prefix, *STREAM.infix) if word.isalpha()
}


def parse_stream_expr(source) -> StreamExpr:
    """Parse a complete stream expression from text or a cursor."""
    cur = cursor_of(source)
    expr = cur.expression(STREAM)
    cur.close()
    return expr


def parse_stream_expr_prefix(source) -> Tuple[StreamExpr, Cursor]:
    """Parse a leading stream expression from text or a cursor; return it
    and the cursor, on the first token after it (used by commands that
    take trailing arguments)."""
    cur = cursor_of(source)
    return cur.expression(STREAM), cur
