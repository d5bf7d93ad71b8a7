"""Tokenizer and the operator-precedence parser shared by the context,
context-set, Box-predicate and stream grammars.

A token is a name, an ASCII integer, a double-quoted string (a backslash
escapes the next character), one of the fixed ``SYMBOLS``, or a whole
plain context literal.  One symbol, ``:``, is read only by the REPL's
``dim`` command; the three grammars refuse it.  ``tokenize`` reads each
token with one match of one regex, which has a group per token class and
one more for any other non-blank character; the search skips the blanks
between tokens, and the match's group number picks the branch that builds
the token or raises.

A plain context literal is ``{`` with one or more ``(name, int)`` pairs
and ``}``, blanks allowed anywhere: the name starts with an ASCII letter or
``_``, and the int is ASCII digits with an optional ``-`` directly before
them.  It is one ``CTX`` token, which ``parser`` reads in one branch.  A
plain set literal, ``{`` with one or more plain context literals separated
by commas and ``}``, is likewise one ``SET`` token.  Any other brace text
takes the token path, a token per lexeme: a string, boolean or
enum-symbol tag, ``- 5``, a non-ASCII digit, an empty ``{}``, the outer
braces of a set that holds another kind of member, a dimension set, or a
malformed literal.  Where a grammar takes no context or set literal, the
cursor puts the tokens of a ``CTX`` or ``SET`` token's text in its place
(``Cursor.split``: its ``{``, then the tokens of the rest, so a set
literal becomes ``{``, its members' ``CTX`` tokens and commas, and ``}``)
before it expects another kind (``Cursor.expect``) or names it in an
error (``Cursor.unexpected``), so the line reads on, or fails, as it would
a token at a time; so does the parser for a literal whose integer is past
the digit limit, which the token path reports at the digits' column.

Each grammar is a table for one Pratt loop (Pratt, "Top down operator
precedence", 1973): prefix and infix ``Rule``s keyed by operator kind or
keyword, plus an atom rule for everything else.  The three tables are
``parser.CONTEXT`` (context and set operators), ``parser.PREDICATE`` (Box
predicates) and ``streams.STREAM`` (stream equations; its infix rules
extend the predicate ones at the same binding powers).  A rule gives a
binding power (larger binds tighter), an associativity (``NONE`` does not
chain: ``a < b < c`` is an error) and a node builder.  A prefix rule
applies only where the expected operand may bind as loosely as the rule:
``if`` (power 0) may start an expression but is no operand, and the
Box-predicate ``not`` binds looser than comparison.  Parentheses are
parsed here, the same way for every grammar.

A parse entry takes text or a cursor (``cursor_of``); ``tokenize`` refuses
anything else, a token list too.  A ``Cursor`` is the package's own reader,
not exported: the REPL builds one over the tokens of each command line,
and the parse entries trust it, as ``Cursor.expression`` does.

A syntax error is placed at a 1-based column and written by the one
formatter, ``ContextCalcError.at`` (see ``errors``); ``Cursor.fail`` raises
it at the token the cursor is on.

This module knows no node class: the syntax tree, the grammar tables
other than the stream one, and the printer are in ``parser``.
"""

from __future__ import annotations

import re
import sys
from typing import Callable, NamedTuple

from .errors import ExprSyntaxError, UnbalancedParens, UnknownToken

NAME = "name"
INT = "int"
STRING = "string"
CTX = "ctx"
SET = "set"
END = "end"

# The words that are boolean literals in every grammar, and so name
# nothing: no variable, stream, dimension or enum symbol.
BOOLEANS = {"true": True, "false": False}

# Fixed lexemes, longest first so maximal munch wins.
SYMBOLS = (
    "(+)", "(-)", "<=>", "<<=", ">>=", "[&]", "[+]",
    "=>", "<=", ">=", "==", "!=", "><",
    "^", "!", "|", "/", "&", "%", "<", ">",
    "{", "}", "(", ")", "[", "]", ",", ".", "@", "#",
    "+", "-", "*", "=", ":",
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

# One group per token class; a match's ``lastindex`` is the number of its
# class's group.  ``set``, a whole plain set literal, comes first, then
# ``ctx``, a whole plain context literal, so each wins over the ``{`` symbol;
# each can be matched in one way only, so a literal that fails to match
# fails in time linear in its text.  Digits are ASCII only.  A name is a run
# of word characters; whether it starts with a letter or '_' is checked after
# the match, because no regex class means str.isalpha().  Inside a string a
# backslash escapes the next character: \" is a quote and \\ a backslash.
# ``bad`` matches any other non-blank character, so ``finditer`` skips
# exactly the blanks between tokens.
_PAIR = r"\(\s*[A-Za-z_]\w*\s*,\s*-?[0-9]+\s*\)"
_CTX_LITERAL = rf"\{{\s*{_PAIR}(?:\s*,\s*{_PAIR})*\s*\}}"
_SET_LITERAL = rf"\{{\s*{_CTX_LITERAL}(?:\s*,\s*{_CTX_LITERAL})*\s*\}}"
_TOKEN = re.compile(
    rf"(?P<set>{_SET_LITERAL})|(?P<ctx>{_CTX_LITERAL})|(?P<symbol>"
    + "|".join(re.escape(s) for s in SYMBOLS if len(s) > 1)
    + "|["
    + "".join(re.escape(s) for s in _SYMBOL_KIND if len(s) == 1)
    + r"])|(?P<int>[0-9]+)|(?P<name>\w+)"
    + r"|\"(?P<string>[^\"\\]*(?:\\.[^\"\\]*)*)\"|(?P<bad>\S)",
    re.DOTALL,
)
_SET, _CTX, _SYMBOL, _INT, _NAME, _STRING = map(
    _TOKEN.groupindex.get, ("set", "ctx", "symbol", "int", "name", "string"))
# The kinds of the tokens that hold a whole literal.
_WHOLE = (CTX, SET)
_ESCAPED = re.compile(r"\\(.)", re.DOTALL)


class Token(NamedTuple):
    kind: str  # NAME | INT | STRING | CTX | SET | END | one of SYMBOLS
    text: str  # for CTX and SET, the literal's source text, '{' to '}'
    pos: int  # 0-based offset into the source

    @property
    def column(self) -> int:
        return self.pos + 1


_new = tuple.__new__


def tokenize(text: str) -> list:
    """Break source text into tokens, ending with an end-of-input marker.
    A token is built as the tuple it is, without the Python-level
    ``Token.__new__``."""
    if not isinstance(text, str):
        raise ExprSyntaxError(f"expected source text, got {type(text).__name__}")
    tokens = []
    append = tokens.append
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        lexeme = m[group]
        if group == _CTX:
            append(_new(Token, (CTX, lexeme, m.start())))
        elif group == _SYMBOL:
            append(_new(Token, (_SYMBOL_KIND[lexeme], lexeme, m.start())))
        elif group == _INT:
            append(_new(Token, (INT, lexeme, m.start())))
        elif group == _NAME and (lexeme[0].isalpha() or lexeme[0] == "_"):
            append(_new(Token, (NAME, lexeme, m.start())))
        elif group == _STRING:
            if "\\" in lexeme:
                lexeme = _ESCAPED.sub(r"\1", lexeme)
            append(_new(Token, (STRING, lexeme, m.start())))
        elif group == _SET:
            append(_new(Token, (SET, lexeme, m.start())))
        elif lexeme == '"':
            column = m.start() + 1
            raise ExprSyntaxError(
                f"unterminated string starting at column {column}", position=column)
        else:  # a stray character, or a name that starts with a digit
            raise UnknownToken.at(f"unknown token {lexeme[0]!r}", m.start() + 1)
    append(_new(Token, (END, "", len(text))))
    return tokens


# --- the operator-precedence core -------------------------------------------

LEFT, RIGHT, NONE = "left", "right", "none"
_UNLIMITED = 1 << 30
# How deeply operands may nest (parentheses, prefix operators, right
# operands); the parser recurses once per level, and so do the context and
# Box-predicate evaluators and printers.  A chain of left operands is no
# nesting: the parser and those walkers read it with a loop, at any length.
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
            if tok.kind in _WHOLE:
                self.split()
                return self.expect(kind)
            self.fail(f"expected {kind!r} but found {tok.text or 'end of input'!r}")
        if kind != END:
            self.i += 1
        return tok

    def expect_word(self, word: str):
        tok = self.peek()
        if tok.kind != NAME or tok.text != word:
            self.fail(f"expected {word!r}")
        self.advance()

    def fail(self, message: str):
        """Raise ``ExprSyntaxError`` at the token the cursor is on."""
        raise ExprSyntaxError.at(message, self.peek().column)

    def unexpected(self):
        """Raise ``ExprSyntaxError`` that names the token the cursor is on,
        a plain context or set literal by its '{' as the token path names
        it."""
        if self.tokens[self.i].kind in _WHOLE:
            self.split()
        self.fail(f"unexpected {self.peek().text or 'end of input'!r}")

    def split(self):
        """Put the tokens the token path reads from the plain context or
        set literal the cursor is on in its place: its '{', then the tokens
        of the rest of its text, which holds no literal of the kind split:
        a context literal's rest holds no '{', and a set literal's rest
        holds only context literals, commas and its '}'."""
        tok = self.tokens[self.i]
        start = tok.pos + 1
        self.tokens[self.i:self.i + 1] = [Token("{", "{", tok.pos), *(
            Token(kind, text, pos + start)
            for kind, text, pos in tokenize(tok.text[1:])[:-1])]

    def comma_list(self, item: Callable) -> list:
        """One or more ``item(cursor)`` separated by commas."""
        items = [item(self)]
        while self.tokens[self.i].kind == ",":
            self.i += 1
            items.append(item(self))
        return items

    def signed_int(self) -> int:
        """An integer literal with an optional leading '-'; one of more
        digits than ``int`` converts from text is a syntax error."""
        negative = self.tokens[self.i].kind == "-"
        if negative:
            self.i += 1
        tok = self.expect(INT)
        try:
            n = int(tok.text)
        except ValueError:
            raise ExprSyntaxError.at(
                f"integer literal longer than {sys.get_int_max_str_digits()} digits",
                tok.column) from None
        return -n if negative else n

    def tag(self, name: Callable):
        """A tag literal: a signed integer, a string, true or false.  Any
        other bare name is returned as ``name(text)``, called before the
        cursor moves past it."""
        tok = self.tokens[self.i]
        if tok.kind in (INT, "-"):
            return self.signed_int()
        if tok.kind == STRING:
            value = tok.text
        elif tok.kind != NAME:
            self.fail("expected a tag literal")
        elif tok.text in BOOLEANS:
            value = BOOLEANS[tok.text]
        else:
            value = name(tok.text)
        self.i += 1
        return value

    def close(self, kind: str = END) -> Token:
        """Consume the token that ends an expression."""
        tok = self.peek()
        if tok.kind == kind:
            return self.advance()
        if tok.kind == ")":
            raise UnbalancedParens.at("unmatched ')'", tok.column)
        if kind == END:
            self.unexpected()
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
                raise UnbalancedParens.at("unclosed '('", tok.column)
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


def cursor_of(source) -> Cursor:
    """The cursor a parse entry reads from text or a cursor: a ``Cursor``
    itself, where it stands, or a new one over the tokens of the text."""
    return source if type(source) is Cursor else Cursor(tokenize(source))
