"""The syntax tree of the expression language, its context and Box-predicate
grammars, and its printer.

Every tree the package builds is made of the node classes below: the
stream nodes, which the context and Box-predicate trees share, and the
four literals only a context expression has; a ``<d, t>`` pair is the
one-pair ``ContextLit`` it denotes, and a bare-name tag in a context
literal is its text, as a string is.  A variable, stream name or
dimension name, or a name in a Box predicate, is a ``Ref``; a constant
(``true`` and ``false`` in a context tree, an integer, string or tag in a
predicate) is a ``Const``; an infix operator of any grammar is a
``Pointwise`` keyed by its symbol or keyword.  ``streams`` evaluates the
stream nodes and keeps the stream grammar, ``evaluator`` evaluates
context trees and ``sets`` binds and evaluates Box predicates.

The nodes are plain slotted classes on ``model.Record``, immutable and
equal when of one class with equal fields.  A node's ``_fields`` names
its fields, its children among them, in source order: it is the
interface a walker reads (``references`` does), and ``repr`` prints the
fields in that order.  A new node is a class that lists its ``_fields``
and, when its trailing fields are optional, their ``_defaults`` (the
dimension of ``First`` or ``Fby`` is ``TIME`` unless given); ``Record``
builds its initializer from them.

Two of the three grammar tables for the operator-precedence core in
``lexer`` are here.  ``CONTEXT`` covers context and context-set
expressions in one grammar, since both share one token syntax and most
operator symbols; operand kinds are checked during evaluation, not during
parsing.  Its binding powers are the indices of ``PRECEDENCE_LEVELS``, and
``a <= b`` is accepted as argument-swapped sugar for ``b => a``.
``PREDICATE`` is the grammar of a Box literal's predicate, and its infix
rules are the pointwise operators of the stream grammar too: each sits
beside its ``OPERATORS`` entry, the function that computes it.

``unparse`` is the one printer.  It walks a chain of left operands with
``left_chain``, writes each infix operator from the grammar's table, and
brackets an operand whose binding power is below the rule's ``left_bp`` or
``right_bp``; whatever is not an infix operator of the grammar goes to the
one leaf printer, which raises ``KindMismatch`` for a value that is no
node.  ``to_text`` and ``sets.predicate_text`` are ``unparse`` with
``CONTEXT`` and ``PREDICATE``.

To add an operator, touch three places: its symbol in ``lexer.SYMBOLS``
(a keyword operator needs none), its precedence row (``PRECEDENCE_LEVELS``
or ``PREDICATE`` here, or ``streams.STREAM``), and what it computes:
``evaluator.ROWS`` for a context or set operator, or its ``OPERATORS``
entry, beside its ``PREDICATE`` row, for a pointwise one.
"""

from __future__ import annotations

import operator
import re
from functools import partial
from typing import Union

from .errors import ExprSyntaxError, KindMismatch
from .lexer import (
    BOOLEANS, CTX, END, NAME, NONE, RIGHT, SET, Cursor, Grammar, Rule, cursor_of,
)
from .model import Record, format_tag

# --- the syntax tree ----------------------------------------------------------

TIME = "time"

Value = Union[int, bool, None]


class Const(Record):
    __slots__ = _fields = ("value",)  # a Value


class Literal(Record):
    """A finite prefix varying along one dimension; nil past the end."""

    __slots__ = _fields = ("values", "dim")  # a tuple of Values, a name
    _defaults = (TIME,)


class Ref(Record):
    __slots__ = _fields = ("name",)


class Pointwise(Record):
    # + - * == != < <= > >= and or in stream and Box-predicate trees; in a
    # context tree, an operator of ``PRECEDENCE_LEVELS``
    __slots__ = _fields = ("op", "left", "right")


class NotOp(Record):
    __slots__ = _fields = ("operand",)


class If(Record):
    __slots__ = _fields = ("cond", "then", "orelse")


class First(Record):
    __slots__ = _fields = ("operand", "dim")
    _defaults = (TIME,)


class Next(Record):
    __slots__ = _fields = ("operand", "dim")
    _defaults = (TIME,)


class Prev(Record):
    __slots__ = _fields = ("operand", "dim")
    _defaults = (TIME,)


class Fby(Record):
    __slots__ = _fields = ("left", "right", "dim")
    _defaults = (TIME,)


class Wvr(Record):
    __slots__ = _fields = ("left", "right", "dim")
    _defaults = (TIME,)


class Asa(Record):
    __slots__ = _fields = ("left", "right", "dim")
    _defaults = (TIME,)


class Upon(Record):
    __slots__ = _fields = ("left", "right", "dim")
    _defaults = (TIME,)


class At(Record):
    """Intensional navigation: the operand at a shifted tag along dim."""

    __slots__ = _fields = ("operand", "dim", "index")


class Query(Record):
    """Intensional query: the current tag along dim."""

    __slots__ = _fields = ("dim",)


StreamExpr = Union[
    Const, Literal, Ref, Pointwise, NotOp, If,
    First, Next, Prev, Fby, Wvr, Asa, Upon, At, Query,
]

# A tag literal in a context tree is an int, str or bool; a bare name is
# its text, which its dimension reads (an enum symbol becomes its member).


class ContextLit(Record):
    __slots__ = _fields = ("pairs",)  # (dimension, tag literal) pairs


class DimSetLit(Record):
    __slots__ = _fields = ("names",)


class SetLit(Record):
    __slots__ = _fields = ("items",)  # ContextLits


class BoxLit(Record):
    __slots__ = _fields = ("dims", "predicate")


Node = Union[Ref, ContextLit, DimSetLit, SetLit, BoxLit, Const, Pointwise]


def references(expr: StreamExpr):
    """The names an expression refers to, as a set-like view that iterates
    them in source order, each once."""
    out = {}
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Ref):
            out[node.name] = None
        elif isinstance(node, Record):
            # fields are in source order; push them so the first pops first
            children = [getattr(node, name) for name in node._fields]
            stack += [c for c in reversed(children) if isinstance(c, Record)]
    return out.keys()


# --- the Box-predicate grammar ------------------------------------------------

# The value of every pointwise operator, for streams and Box predicates;
# ``and`` and ``or`` take truth values (``operator.and_`` gives 3 & 4 == 0).
OPERATORS = {
    "and": lambda a, b: bool(a) and bool(b),
    "or": lambda a, b: bool(a) or bool(b),
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


def _predicate_atom(cur: Cursor) -> StreamExpr:
    value = cur.tag(Ref)
    return value if isinstance(value, Ref) else Const(value)


PREDICATE = Grammar(
    prefix={"not": Rule(4, NotOp, RIGHT)},
    infix={
        "or": Rule(2, partial(Pointwise, "or")),
        "and": Rule(3, partial(Pointwise, "and")),
        **{op: Rule(5, partial(Pointwise, op), NONE)
           for op in ("==", "!=", "<", "<=", ">", ">=")},
        "+": Rule(6, partial(Pointwise, "+")),
        "-": Rule(6, partial(Pointwise, "-")),
        "*": Rule(7, partial(Pointwise, "*")),
    },
    atom=_predicate_atom,
)

# --- the context grammar ------------------------------------------------------

# Loosest to tightest; operators within a level associate left to right.
PRECEDENCE_LEVELS = (
    ("==", "<<=", ">>="),
    ("><", "[&]", "[+]"),
    ("<=>", "=>", "<="),
    ("(+)", "(-)"),
    ("&", "%"),
    ("|",),
    ("!", "^", "/"),
)
BINDING = {
    op: level for level, ops in enumerate(PRECEDENCE_LEVELS) for op in ops
}


def _name(cur: Cursor) -> str:
    return cur.expect(NAME).text


def _context_pair(cur: Cursor, open_kind="(", close_kind=")"):
    cur.expect(open_kind)
    dim = _name(cur)
    cur.expect(",")
    tag = cur.tag(str)
    cur.expect(close_kind)
    return dim, tag


# In the text of a plain literal, which the lexer checked whole: a pair,
# as the dimension name and the tag, and a member of a set literal, as the
# text between its braces.
_PAIR = re.compile(r"(\w+)\s*,\s*(-?[0-9]+)")
_MEMBER = re.compile(r"\{([^{}]*)\}")


def _context_lit(text: str) -> ContextLit:
    """The context literal of a plain literal's pairs in text."""
    return ContextLit(tuple([(name, int(tag)) for name, tag in _PAIR.findall(text)]))


def _brace_literal(cur: Cursor) -> Node:
    """A context, context-set or dimension-set literal.  A plain context
    literal is one ``CTX`` token, whose pairs are read from its text, and a
    plain set literal one ``SET`` token, whose members are read from its
    text after its own '{', each as a ``CTX`` token's text is; either gives
    the tree the token path gives.  Any other literal is read a token at a
    time, a set literal's items among them, which may be ``CTX`` tokens."""
    tok = cur.tokens[cur.i]
    if tok.kind == CTX or tok.kind == SET:
        try:
            if tok.kind == CTX:
                node = _context_lit(tok.text)
            else:
                members = _MEMBER.findall(tok.text, 1)
                node = SetLit(tuple([_context_lit(member) for member in members]))
        except ValueError:
            # an integer past the digit limit: the token path reports it at
            # its digits' column
            cur.split()
            return _brace_literal(cur)
        cur.i += 1
        return node
    cur.expect("{")
    tok = cur.peek()
    if tok.kind == "}":
        cur.advance()
        return ContextLit(())
    if tok.kind == "(":
        pairs = cur.comma_list(_context_pair)
        cur.expect("}")
        return ContextLit(tuple(pairs))
    if tok.kind == "{" or tok.kind == CTX or tok.kind == SET:
        items = cur.comma_list(_set_item)
        cur.expect("}")
        return SetLit(tuple(items))
    if tok.kind == NAME:
        names = cur.comma_list(_name)
        cur.expect("}")
        return DimSetLit(tuple(names))
    cur.fail("expected a context, set, or dimension-set literal")


def _set_item(cur: Cursor) -> ContextLit:
    """A member of a set literal, refused at its first column unless it is
    a context literal."""
    column = cur.peek().column
    item = _brace_literal(cur)
    if not isinstance(item, ContextLit):
        raise ExprSyntaxError.at(
            "a set literal may only contain context literals", column)
    return item


def _box_literal(cur: Cursor) -> BoxLit:
    cur.expect(NAME)  # Box
    cur.expect("[")
    names = cur.comma_list(_name)
    cur.expect("|")
    predicate = cur.expression(PREDICATE)
    cur.close("]")
    return BoxLit(tuple(names), predicate)


def _atom(cur: Cursor) -> Node:
    tok = cur.peek()
    if tok.kind == NAME:
        if tok.text == "Box" and cur.tokens[cur.i + 1].kind == "[":
            return _box_literal(cur)
        cur.advance()
        if tok.text in BOOLEANS:
            return Const(BOOLEANS[tok.text])
        return Ref(tok.text)
    if tok.kind == CTX or tok.kind == SET or tok.kind == "{":
        return _brace_literal(cur)
    if tok.kind == "<":
        return ContextLit((_context_pair(cur, "<", ">"),))
    if tok.kind == END:
        cur.fail("unexpected end of input")
    cur.unexpected()


def _swapped_range(left, right):
    return Pointwise("=>", right, left)


CONTEXT = Grammar(
    prefix={},
    infix={
        op: Rule(level, _swapped_range if op == "<=" else partial(Pointwise, op))
        for op, level in BINDING.items()
    },
    atom=_atom,
)


def parse_expr(source) -> Node:
    """Parse a context or context-set expression from text or a cursor."""
    cur = cursor_of(source)
    node = cur.expression(CONTEXT)
    cur.close()
    return node


# --- the printer --------------------------------------------------------------


def left_chain(node, grammar: Grammar) -> tuple:
    """The operand that ends node's chain of left operands, and the infix
    operator nodes above it, innermost first.  An infix node is one whose
    ``op`` is a string in the grammar's infix table; any other node,
    whatever its ``op``, is a leaf.  The walkers of a chain fold it with a
    loop and recurse only into right operands, so a long chain such as
    ``x == 1 or x == 2 or ...`` costs them no recursion."""
    chain = []
    infix = grammar.infix
    while isinstance(op := getattr(node, "op", None), str) and op in infix:
        chain.append(node)
        node = node.left
    chain.reverse()
    return node, chain


def _leaf_text(node, min_bp: int) -> str:
    """Text of a node that is no infix operator of the grammar printed,
    bracketed if it binds looser than min_bp; only ``not`` can."""
    if isinstance(node, Ref):
        return node.name
    if isinstance(node, Const):
        return format_tag(node.value)
    if isinstance(node, NotOp):
        rule = PREDICATE.prefix["not"]
        text = f"not {unparse(node.operand, PREDICATE, rule.bp + 1)}"
        return f"({text})" if rule.bp < min_bp else text
    if isinstance(node, ContextLit):
        pairs = ", ".join(f"({d}, {format_tag(t)})" for d, t in node.pairs)
        return "{" + pairs + "}"
    if isinstance(node, DimSetLit):
        return "{" + ", ".join(node.names) + "}"
    if isinstance(node, SetLit):
        return "{" + ", ".join(to_text(item) for item in node.items) + "}"
    if isinstance(node, BoxLit):
        names = ", ".join(node.dims)
        return f"Box[{names} | {unparse(node.predicate, PREDICATE)}]"
    raise KindMismatch(f"not an expression node: {node!r}")


def unparse(node, grammar: Grammar, min_bp: int = 0) -> str:
    """Render a tree in the syntax of grammar, bracketed if it binds looser
    than min_bp; the text parses back to an equal tree."""
    node, chain = left_chain(node, grammar)
    # min_bp of each chain node: the left_bp of the node above it
    rules = [grammar.infix[n.op] for n in chain]
    bps = [rule.left_bp for rule in rules] + [min_bp]
    text = _leaf_text(node, bps[0])
    for n, rule, bp in zip(chain, rules, bps[1:]):
        text = f"{text} {n.op} {unparse(n.right, grammar, rule.right_bp)}"
        if rule.bp < bp:
            text = f"({text})"
    return text


def to_text(node: Node) -> str:
    """Render a parse tree back to source text that reparses to an equal
    tree."""
    return unparse(node, CONTEXT)
