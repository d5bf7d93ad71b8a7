"""Parser and pretty printer for context and context-set expressions.

Both expression families share one token syntax and overlap on most
operator symbols (projection, hiding, substitution, choice, override,
difference), so a single grammar covers them and the operand kinds are
checked during evaluation, not during parsing.  ``CONTEXT`` is the table
this grammar gives the operator-precedence core in ``lexer``; its binding
powers are the indices of ``PRECEDENCE_LEVELS``.  ``a <= b`` is accepted
as argument-swapped sugar for ``b => a``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Tuple, Union

from .lexer import END, NAME, Cursor, Grammar, Rule, tokenize
from .model import format_tag
from .sets import BoolExpr, predicate_text
from .streams import PREDICATE

# --- AST -----------------------------------------------------------------


@dataclass(frozen=True)
class VarRef:
    name: str


@dataclass(frozen=True)
class SymbolLit:
    """A bare identifier in tag position (an enum symbol)."""

    name: str


TagLiteral = Union[int, str, bool, SymbolLit]


@dataclass(frozen=True)
class ContextLit:
    pairs: Tuple[Tuple[str, TagLiteral], ...]


@dataclass(frozen=True)
class DimSetLit:
    names: Tuple[str, ...]


@dataclass(frozen=True)
class SetLit:
    items: Tuple[ContextLit, ...]


@dataclass(frozen=True)
class PairLit:
    """A <dimension, tag> pair, the right operand of set substitution."""

    dim: str
    tag: TagLiteral


@dataclass(frozen=True)
class BoxLit:
    dims: Tuple[str, ...]
    predicate: BoolExpr


@dataclass(frozen=True)
class BoolLit:
    """The literal ``true`` or ``false``, as comparisons print their result."""

    value: bool


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"


Node = Union[VarRef, ContextLit, DimSetLit, SetLit, PairLit, BoxLit, BoolLit, BinOp]

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

# --- literals ------------------------------------------------------------------

# The words that are boolean literals, and so cannot name a variable.
BOOLEANS = {"true": True, "false": False}


def _name(cur: Cursor) -> str:
    return cur.expect(NAME).text


def _context_pair(cur: Cursor, open_kind="(", close_kind=")"):
    cur.expect(open_kind)
    dim = _name(cur)
    cur.expect(",")
    tag = cur.tag(SymbolLit)
    cur.expect(close_kind)
    return dim, tag


def _brace_literal(cur: Cursor) -> Node:
    cur.expect("{")
    tok = cur.peek()
    if tok.kind == "}":
        cur.advance()
        return ContextLit(())
    if tok.kind == "(":
        pairs = cur.comma_list(_context_pair)
        cur.expect("}")
        return ContextLit(tuple(pairs))
    if tok.kind == "{":
        items = cur.comma_list(_brace_literal)
        cur.expect("}")
        for item in items:
            if not isinstance(item, ContextLit):
                cur.fail("a set literal may only contain context literals")
        return SetLit(tuple(items))
    if tok.kind == NAME:
        names = cur.comma_list(_name)
        cur.expect("}")
        return DimSetLit(tuple(names))
    cur.fail("expected a context, set, or dimension-set literal")


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
            return BoolLit(BOOLEANS[tok.text])
        return VarRef(tok.text)
    if tok.kind == "{":
        return _brace_literal(cur)
    if tok.kind == "<":
        return PairLit(*_context_pair(cur, "<", ">"))
    if tok.kind == END:
        cur.fail("unexpected end of input")
    cur.fail(f"unexpected {tok.text!r}")


def _swapped_range(left, right):
    return BinOp("=>", right, left)


CONTEXT = Grammar(
    prefix={},
    infix={
        op: Rule(level, _swapped_range if op == "<=" else partial(BinOp, op))
        for op, level in BINDING.items()
    },
    atom=_atom,
)


def parse_expr(source) -> Node:
    """Parse a context or context-set expression from text or tokens."""
    cur = Cursor(tokenize(source) if isinstance(source, str) else list(source))
    node = cur.expression(CONTEXT)
    cur.close()
    return node


def parse_context_expr(source) -> Node:
    """Parse a context expression.

    The grammar is shared with context-set expressions; operand kinds are
    enforced during evaluation.
    """
    return parse_expr(source)


def parse_context_set_expr(source) -> Node:
    """Parse a context-set expression (same grammar as parse_context_expr)."""
    return parse_expr(source)


# --- pretty printing ---------------------------------------------------------


def _tag_literal_text(tag: TagLiteral) -> str:
    return tag.name if isinstance(tag, SymbolLit) else format_tag(tag)


def _operand_text(child: Node, min_bp: int) -> str:
    text = to_text(child)
    if isinstance(child, BinOp) and BINDING[child.op] < min_bp:
        return f"({text})"
    return text


def to_text(node: Node) -> str:
    """Render a parse tree back to source text that reparses to an equal
    tree.  A chain of left operands is rendered with a loop, innermost
    operator first; only right operands are rendered recursively."""
    chain = []
    while isinstance(node, BinOp):
        chain.append(node)
        node = node.left
    chain.reverse()
    if isinstance(node, VarRef):
        text = node.name
    elif isinstance(node, ContextLit):
        pairs = ", ".join(
            f"({d}, {_tag_literal_text(t)})" for d, t in node.pairs
        )
        text = "{" + pairs + "}"
    elif isinstance(node, DimSetLit):
        text = "{" + ", ".join(node.names) + "}"
    elif isinstance(node, SetLit):
        text = "{" + ", ".join(to_text(item) for item in node.items) + "}"
    elif isinstance(node, PairLit):
        text = f"<{node.dim}, {_tag_literal_text(node.tag)}>"
    elif isinstance(node, BoxLit):
        names = ", ".join(node.dims)
        text = f"Box[{names} | {predicate_text(node.predicate)}]"
    elif isinstance(node, BoolLit):
        text = format_tag(node.value)
    else:
        raise TypeError(f"not an expression node: {node!r}")
    for n, above in zip(chain, chain[1:] + [None]):
        rule = CONTEXT.infix[n.op]
        text = f"{text} {n.op} {_operand_text(n.right, rule.right_bp)}"
        if above is not None and rule.bp < CONTEXT.infix[above.op].left_bp:
            text = f"({text})"
    return text
