"""Tokenizer and the operator-precedence parser shared by the context,
context-set, Box-predicate and stream grammars.

Each grammar is a table for one Pratt loop (Pratt, "Top down operator
precedence", 1973): prefix and infix ``Rule``s keyed by operator kind or
keyword, plus an atom rule for everything else.  The three tables are
``parser.CONTEXT`` (context and set operators, from ``PRECEDENCE_LEVELS``),
``streams.PREDICATE`` (Box predicates) and ``streams.STREAM`` (stream
equations; its infix rules extend the predicate ones at the same binding
powers).  A rule gives a binding power (larger binds tighter), an
associativity (``NONE`` does not chain: ``a < b < c`` is an error) and a
node builder.  A prefix rule applies only where the expected operand may
bind as loosely as the rule: ``if`` (power 0) may start an expression but
is no operand, and the Box-predicate ``not`` binds looser than comparison.
Parentheses are parsed here, the same way for every grammar.  The printers
(``parser.to_text``, ``sets.predicate_text``) bracket an operand whose
binding power is below the rule's ``left_bp`` or ``right_bp``.

To add an operator, touch three places: its symbol in ``SYMBOLS`` (a
keyword operator needs none), its precedence row in the grammar's table
(``parser.PRECEDENCE_LEVELS``, ``streams.PREDICATE`` or ``streams.STREAM``),
and the rows that say what it computes: ``evaluator.ROWS`` for a context
or set operator, one ``streams.OPERATORS`` entry for a pointwise one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import ExprSyntaxError, UnbalancedParens, UnknownToken

NAME = "name"
INT = "int"
STRING = "string"
END = "end"

# Fixed lexemes, longest first so maximal munch wins.
SYMBOLS = (
    "(+)", "(-)", "<=>", "<<=", ">>=", "[&]", "[+]",
    "=>", "<=", ">=", "==", "!=", "><",
    "^", "!", "|", "/", "&", "%", "<", ">",
    "{", "}", "(", ")", "[", "]", ",", ".", "@", "#",
    "+", "-", "*", "=",
)

# Single-character synonyms for the ASCII operator spellings.
UNICODE_ALIASES = {
    "⊕": "(+)",   # circled plus
    "⊖": "(-)",   # circled minus
    "↑": "^",     # up arrow
    "↓": "!",     # down arrow
    "⇔": "<=>",   # left-right double arrow
    "⇒": "=>",    # rightwards double arrow
    "⇐": "<=",    # leftwards double arrow
    "∩": "&",     # intersection
    "∪": "%",     # union
    "⋈": "><",    # bowtie
    "⊓": "[&]",   # square cap
    "⊞": "[+]",   # squared plus
    "⊆": "<<=",   # subset or equal
    "⊇": ">>=",   # superset or equal
    "≠": "!=",    # not equal
    "≤": "<=",    # less than or equal
    "≥": ">=",    # greater than or equal
    "⟨": "<",     # left angle bracket
    "⟩": ">",     # right angle bracket
}

_SYMBOL_KIND = {**{s: s for s in SYMBOLS}, **UNICODE_ALIASES}

# Digits are ASCII only.  A name is a run of word characters; whether it
# starts with a letter or '_' is checked after the match, because no regex
# class means str.isalpha().
_TOKEN = re.compile(
    r"\s*(?:(?P<symbol>"
    + "|".join(re.escape(s) for s in SYMBOLS if len(s) > 1)
    + "|["
    + "".join(re.escape(s) for s in _SYMBOL_KIND if len(s) == 1)
    + r"])|(?P<int>[0-9]+)|(?P<name>\w+)|\"(?P<string>[^\"]*)\"|(?P<bad>\S))"
)


@dataclass(frozen=True)
class Token:
    kind: str  # NAME | INT | STRING | END | one of SYMBOLS
    text: str
    pos: int  # 0-based offset into the source

    @property
    def column(self) -> int:
        return self.pos + 1


def tokenize(text: str) -> list:
    """Break source text into tokens, ending with an end-of-input marker."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        lexeme = m.group(kind)
        pos = m.start(kind)
        if kind == "symbol":
            tokens.append(Token(_SYMBOL_KIND[lexeme], lexeme, pos))
        elif kind == STRING:
            tokens.append(Token(STRING, lexeme, pos - 1))
        elif lexeme == '"':
            raise ExprSyntaxError(
                f"unterminated string starting at column {pos + 1}",
                position=pos + 1,
            )
        elif kind == "bad" or (
            kind == NAME and not (lexeme[0].isalpha() or lexeme[0] == "_")
        ):
            raise UnknownToken(
                f"unknown token {lexeme[0]!r} at position {pos + 1}", position=pos + 1
            )
        else:
            tokens.append(Token(kind, lexeme, pos))
    tokens.append(Token(END, "", len(text)))
    return tokens


# --- the operator-precedence core -------------------------------------------

LEFT, RIGHT, NONE = "left", "right", "none"
_UNLIMITED = 1 << 30
# How deeply operands may nest (parentheses, prefix operators, right
# operands); the parser recurses once per level, and so do the evaluators.
MAX_DEPTH = 200


class Rule:
    """One operator of a grammar table.

    An infix rule builds ``build(left, right)``; a prefix rule, which is
    right-associative, builds ``build(operand)``.  A ``suffix`` rule parses
    the tokens between the operator and its right operand, and its result
    is passed to ``build`` as one more argument.
    """

    __slots__ = ("bp", "build", "assoc", "suffix", "left_bp", "right_bp")

    def __init__(self, bp: int, build: Callable, assoc=LEFT, suffix=None):
        self.bp, self.build, self.assoc, self.suffix = bp, build, assoc, suffix
        # the loosest binding power the left operand may have unbracketed
        self.left_bp = bp if assoc == LEFT else bp + 1
        # the binding power the right operand is parsed at
        self.right_bp = bp if assoc == RIGHT else bp + 1


class Grammar(NamedTuple):
    prefix: dict  # operator kind or keyword -> Rule
    infix: dict  # operator kind or keyword -> Rule
    atom: Callable  # Cursor -> node, for everything that is not an operator


class Cursor:
    """A position in a token list, and the Pratt loop that reads it."""

    __slots__ = ("tokens", "i", "depth")

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != END:
            self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != kind:
            raise ExprSyntaxError(
                f"expected {kind!r} but found {tok.text or 'end of input'!r} "
                f"at position {tok.column}",
                position=tok.column,
            )
        if kind != END:
            self.i += 1
        return tok

    def expect_word(self, word: str):
        tok = self.peek()
        if tok.kind != NAME or tok.text != word:
            raise ExprSyntaxError(
                f"expected {word!r} at position {tok.column}", position=tok.column
            )
        self.advance()

    def fail(self, message: str):
        tok = self.peek()
        raise ExprSyntaxError(
            f"{message} at position {tok.column}", position=tok.column
        )

    def comma_list(self, item: Callable) -> list:
        """One or more ``item(cursor)`` separated by commas."""
        items = [item(self)]
        while self.tokens[self.i].kind == ",":
            self.i += 1
            items.append(item(self))
        return items

    def signed_int(self) -> int:
        """An integer literal with an optional leading '-'."""
        if self.tokens[self.i].kind == "-":
            self.i += 1
            return -int(self.expect(INT).text)
        return int(self.expect(INT).text)

    def tag(self, name: Callable):
        """A tag literal: a signed integer, a string, true or false.  Any
        other bare name is returned as ``name(text)``."""
        tok = self.tokens[self.i]
        if tok.kind in (INT, "-"):
            return self.signed_int()
        if tok.kind not in (STRING, NAME):
            self.fail("expected a tag literal")
        self.i += 1
        if tok.kind == STRING:
            return tok.text
        if tok.text in ("true", "false"):
            return tok.text == "true"
        return name(tok.text)

    def close(self, kind: str = END) -> Token:
        """Consume the token that ends an expression."""
        tok = self.peek()
        if tok.kind == kind:
            return self.advance()
        if tok.kind == ")":
            raise UnbalancedParens(
                f"unmatched ')' at position {tok.column}", position=tok.column
            )
        if kind == END:
            self.fail(f"unexpected {tok.text!r}")
        return self.expect(kind)

    def expression(self, grammar: Grammar, min_bp: int = 0):
        """Parse the longest expression whose operators all bind at least
        as tightly as min_bp."""
        # An operator binding tighter than limit was refused by the operand
        # just parsed (a second comparison, say), so this loop refuses it
        # too: after an operator the next one binds looser, or as loosely
        # when both associate to the left.
        limit = _UNLIMITED
        tok = self.tokens[self.i]
        if self.depth == MAX_DEPTH:
            self.fail(f"expression nests deeper than {MAX_DEPTH} levels")
        self.depth += 1
        if tok.kind == "(":
            self.i += 1
            left = self.expression(grammar)
            if self.tokens[self.i].kind != ")":
                raise UnbalancedParens(
                    f"unclosed '(' at position {tok.column}", position=tok.column
                )
            self.i += 1
        else:
            rule = grammar.prefix.get(tok.text if tok.kind == NAME else tok.kind)
            if rule is not None and rule.bp >= min_bp:
                self.i += 1
                left = self._apply(grammar, rule)
                limit = rule.bp
            else:
                left = grammar.atom(self)
        infix = grammar.infix
        while True:
            tok = self.tokens[self.i]
            rule = infix.get(tok.text if tok.kind == NAME else tok.kind)
            if rule is None or not min_bp <= rule.bp < limit:
                self.depth -= 1
                return left
            self.i += 1
            left = self._apply(grammar, rule, left)
            limit = rule.bp + 1 if rule.assoc == LEFT else rule.bp

    def _apply(self, grammar: Grammar, rule: Rule, *left):
        """Parse what follows rule's operator and build its node; ``left``
        is the left operand of an infix rule, empty for a prefix rule."""
        extra = () if rule.suffix is None else (rule.suffix(self),)
        return rule.build(*left, self.expression(grammar, rule.right_bp), *extra)
