"""The three grammars on the shared operator-precedence core: pinned
parses for each language rule, parenthesis errors, and printer round
trips."""

import re
from unittest import mock

import pytest
from hypothesis import given
import hypothesis.strategies as st

from ctxcalc import lexer, streams
from ctxcalc.cli import new_session, run_command
from ctxcalc.errors import (
    ContextCalcError,
    ExprSyntaxError,
    IllTypedPredicate,
    TagTypeMismatch,
    UnbalancedParens,
    UnknownToken,
)
from ctxcalc.evaluator import evaluate
from ctxcalc.lexer import (
    CTX, END, INT, NAME, SET, STRING, SYMBOLS, UNICODE_ALIASES, Cursor, tokenize,
)
from ctxcalc.model import DimensionRegistry, TagKind
from ctxcalc.parser import (
    Asa,
    At,
    BoxLit,
    Const,
    DimSetLit,
    Fby,
    If,
    NotOp,
    Pointwise,
    Ref,
    Upon,
    Wvr,
    parse_expr,
    to_text,
)
from ctxcalc.sets import box_enumerate, box_make, predicate_text
from ctxcalc.streams import parse_stream_expr


def box(text):
    """The predicate of a one-dimension Box literal."""
    return parse_expr(f"Box[d | {text}]").predicate


A, B, C, D = Ref("A"), Ref("B"), Ref("C"), Ref("D")

# (parse function, source, expected tree)
PINNED = [
    # Box 'not' binds looser than comparison, stream 'not' tighter.
    (box, "not d1 < d2", NotOp(Pointwise("<", Ref("d1"), Ref("d2")))),
    (box, "not d1 < d2 and d3",
     Pointwise("and", NotOp(Pointwise("<", Ref("d1"), Ref("d2"))), Ref("d3"))),
    (box, "d1 and not not d2", Pointwise("and", Ref("d1"), NotOp(NotOp(Ref("d2"))))),
    (parse_stream_expr, "not A < B", Pointwise("<", NotOp(A), B)),
    # the temporal operators are right-associative and take an optional .dim
    (parse_stream_expr, "A fby B wvr C", Fby(A, Wvr(B, C))),
    (parse_stream_expr, "A asa.space B upon.x C", Asa(A, Upon(B, C, "x"), "space")),
    (parse_stream_expr, "A wvr B or C", Wvr(A, Pointwise("or", B, C))),
    # @.d binds tighter than *
    (parse_stream_expr, "A * B @.space C", Pointwise("*", A, At(B, "space", C))),
    (parse_stream_expr, "A @.x B @.y C", At(At(A, "x", B), "y", C)),
    # a negated integer literal folds to a constant
    (parse_stream_expr, "-3", Const(-3)),
    (parse_stream_expr, "- - 3", Const(3)),
    (parse_stream_expr, "-A", Pointwise("-", Const(0), A)),
    (parse_stream_expr, "A - -3", Pointwise("-", A, Const(-3))),
    (box, "d < -3", Pointwise("<", Ref("d"), Const(-3))),
    # if starts an expression: at the top, in parentheses, in its branches
    (parse_stream_expr, "if A then B else C fby D", If(A, B, Fby(C, D))),
    (parse_stream_expr, "(if A then B else C) + 1",
     Pointwise("+", If(A, B, C), Const(1))),
    (parse_stream_expr, "if A then if B then C else D else A",
     If(A, If(B, C, D), A)),
    # <= is swapped range sugar only in the context grammar
    (parse_expr, "a <= b", Pointwise("=>", Ref("b"), Ref("a"))),
    (parse_stream_expr, "A <= B", Pointwise("<=", A, B)),
    (box, "d1 <= d2", Pointwise("<=", Ref("d1"), Ref("d2"))),
    # arithmetic and logic keep their usual levels
    (box, "d1 + d2 * 3 == 7 or d1 > 1 and true",
     Pointwise(
         "or",
         Pointwise("==",
                   Pointwise("+", Ref("d1"), Pointwise("*", Ref("d2"), Const(3))),
                   Const(7)),
         Pointwise("and", Pointwise(">", Ref("d1"), Const(1)), Const(True)))),
    (box, '(d1 - 1) - 2 == "s"',
     Pointwise("==", Pointwise("-", Pointwise("-", Ref("d1"), Const(1)), Const(2)),
               Const("s"))),
    # true and false are literals in the context grammar too, not names
    (parse_expr, "x == true", Pointwise("==", Ref("x"), Const(True))),
    (parse_expr, "(false)", Const(False)),
    (parse_expr, "true_x", Ref("true_x")),
]


@pytest.mark.parametrize("parse,text,tree", PINNED, ids=[p[1] for p in PINNED])
def test_pinned_parse(parse, text, tree):
    assert parse(text) == tree


@pytest.mark.parametrize("parse,text", [
    # comparisons never chain
    (box, "d1 < d2 < d3"),
    (box, "d1 == d2 != d3"),
    (parse_stream_expr, "A < B < C"),
    (parse_stream_expr, "A == B >= C"),
    (box, "d1 and d2 < d3 < d4"),
    (box, "not d1 < d2 < d3"),
    (parse_stream_expr, "A and B < C < D"),
    (parse_stream_expr, "-A < B < C"),
    # if is not an operand
    (parse_stream_expr, "A fby if B then C else D"),
    (parse_stream_expr, "A + if B then C else D"),
    # a Box predicate takes no stream operators, and '-' only before an int
    (box, "d fby d"),
    (box, "-d"),
    # a context expression has no prefix operators
    (parse_expr, "not a"),
])
def test_syntax_errors(parse, text):
    with pytest.raises(ExprSyntaxError):
        parse(text)


def test_box_predicate_nodes_are_stream_nodes():
    assert box("d1 < d2") == parse_stream_expr("d1 < d2")
    assert box("not true") == parse_stream_expr("not true")


# --- parentheses ------------------------------------------------------------------


@pytest.mark.parametrize("parse,text,position", [
    (parse_expr, "(c1 (+) c2", 1),
    (parse_expr, "c1 (+) c2)", 10),
    (parse_expr, "Box[d | (d < 1]", 9),
    (parse_expr, "Box[d | d < 1)]", 14),
    (parse_stream_expr, "(A fby B", 1),
    (parse_stream_expr, "A fby (B + 1", 7),
    (parse_stream_expr, "A fby B)", 8),
])
def test_unbalanced_parens_have_a_position(parse, text, position):
    with pytest.raises(UnbalancedParens) as err:
        parse(text)
    assert err.value.position == position
    assert str(err.value).endswith(f"at position {position}")


# --- lexer --------------------------------------------------------------------------


@pytest.mark.parametrize("text,position", [
    ("{(d,²)}", 5),
    ("{(d,1³)}", 6),
    ("¹", 1),
    ("x + ٣", 5),
])
def test_non_ascii_digits_are_unknown_tokens(text, position):
    with pytest.raises(UnknownToken) as err:
        tokenize(text)
    assert err.value.position == position


# Input to a parse entry that is neither text nor a cursor; each used to
# end in a raw TypeError or AttributeError, or was read as tokens.
NOT_SOURCE = [123, None, b"x", [1, 2], [], ("a",), tokenize("a")[:-1],
              [*tokenize("a"), 5], tokenize("a"), tuple(tokenize("a"))]


@pytest.mark.parametrize("source", NOT_SOURCE)
@pytest.mark.parametrize("parse", [
    parse_expr, parse_stream_expr, streams.parse_stream_expr_prefix])
def test_a_parse_entry_refuses_what_is_not_source_with_a_typed_error(parse, source):
    with pytest.raises(ExprSyntaxError, match="expected source text, got "):
        parse(source)


@pytest.mark.parametrize("source", [None, b"x", 5, ["a"]])
def test_tokenize_refuses_what_is_not_text(source):
    with pytest.raises(ExprSyntaxError, match="expected source text, got "):
        tokenize(source)


def _cursor_past(line: str, kind: str) -> Cursor:
    """A cursor over the tokens of line, moved past its first ``kind``."""
    tokens = tokenize(line)
    cur = Cursor(tokens)
    cur.i = [t.kind for t in tokens].index(kind) + 1
    return cur


def test_a_parse_entry_reads_a_cursor_from_where_it_stands():
    assert parse_expr(_cursor_past("let x = a | b", "=")) == parse_expr("a | b")
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(_cursor_past("let x = a |", "="))
    assert err.value.position == 12  # counted from the start of the line
    assert str(err.value) == "unexpected end of input at position 12"
    expr, cur = streams.parse_stream_expr_prefix(_cursor_past("show A + 1 time 3", NAME))
    assert expr == parse_stream_expr("A + 1")
    assert [cur.advance().text for _ in range(3)] == ["time", "3", ""]


def test_names_may_contain_non_ascii_word_characters():
    tokens = tokenize("x² _1 ü 12ab")
    assert [(t.kind, t.text) for t in tokens[:-1]] == [
        (NAME, "x²"), (NAME, "_1"), (NAME, "ü"), (INT, "12"), (NAME, "ab"),
    ]


def test_surrounding_whitespace_is_skipped():
    tokens = tokenize(" \ta\n ")
    assert [(t.kind, t.text, t.pos) for t in tokens] == [(NAME, "a", 2), (END, "", 5)]


def test_unterminated_string_position():
    with pytest.raises(ExprSyntaxError) as err:
        tokenize('{(s, "abc)}')
    assert err.value.position == 6


# Every lexeme, and characters that start none: digits beyond ASCII, letters
# beyond ASCII, quotes, backslashes and three kinds of blank.
_LEXER_PIECES = [
    *SYMBOLS, *UNICODE_ALIASES, "0", "7", "42", "²", "٣", "a", "Z", "ü", "é",
    "_", '"', "\\", "$", " ", "\t", "\n",
]
_SYMBOL_STARTS = {s[0] for s in SYMBOLS} | set(UNICODE_ALIASES)


def _unescape(body: str) -> str:
    """A string literal's body with each backslash escape replaced by the
    character it escapes."""
    out, chars = [], iter(body)
    for ch in chars:
        out.append(next(chars) if ch == "\\" else ch)
    return "".join(out)


@given(st.lists(st.sampled_from(_LEXER_PIECES), max_size=30).map("".join))
def test_tokens_cover_the_text_in_order(text):
    """Either the tokens lie in order at their offsets and cover every
    non-blank character exactly once, or the error names the first
    character that starts no token."""
    try:
        tokens = tokenize(text)
    except (UnknownToken, ExprSyntaxError) as err:
        offset = err.position - 1
        ch = text[offset]
        if type(err) is UnknownToken:
            assert not ch.isspace() and ch not in _SYMBOL_STARTS
            assert not ("0" <= ch <= "9" or ch.isalpha() or ch == "_")
        else:  # an unterminated string
            assert ch == '"'
        tokenize(text[:offset])  # everything before it reads
        return
    assert tokens[-1] == (END, "", len(text))
    covered = [0] * len(text)
    for tok, after in zip(tokens, tokens[1:]):
        assert tok.pos < after.pos
        if tok.kind == STRING:
            literal = text[tok.pos:after.pos].rstrip()
            assert literal[0] == literal[-1] == '"' and len(literal) > 1
            assert _unescape(literal[1:-1]) == tok.text
            end = tok.pos + len(literal)
        else:
            assert text.startswith(tok.text, tok.pos) and tok.text
            end = tok.pos + len(tok.text)
        for i in range(tok.pos, end):
            covered[i] += 1
    assert all(n <= 1 for n in covered)
    assert all(n == 1 for ch, n in zip(text, covered) if not ch.isspace())


# --- a plain context literal is one token -------------------------------------

# The tokenizer's regex with ``set`` and ``ctx`` groups that never match: the
# other groups keep their numbers, and every literal takes the token path.
# The ``set`` group holds the context literal's text, so it goes first.
_TOKEN_PATH = re.compile(
    lexer._TOKEN.pattern.replace(lexer._SET_LITERAL, "(?!)", 1)
    .replace(lexer._CTX_LITERAL, "(?!)", 1), lexer._TOKEN.flags)


def test_the_token_path_regex_has_no_context_literal_token():
    assert _TOKEN_PATH.pattern != lexer._TOKEN.pattern
    assert [t.kind for t in tokenize(" {(d, -1),(e,2)} ")] == [CTX, END]
    with mock.patch.object(lexer, "_TOKEN", _TOKEN_PATH):
        assert "".join(t.text for t in tokenize(" {(d, -1),(e,2)} ")) == "{(d,-1),(e,2)}"


_BLANKS = st.sampled_from(["", "", " ", "  ", "\t", "\n"])
# the parts of a plain literal: ASCII names, among them words, and integers,
# among them negative ones and ones past the digit limit
_PLAIN_NAMES = st.sampled_from(["d", "e", "true", "Box", "_x1", "q"])
_INT_TAGS = st.one_of(
    st.integers().map(str),
    st.sampled_from(["0", "-0", "007", "9" * 4300, "9" * 4301, "-" + "9" * 4301]),
)
# and what no plain literal holds: names that start with a digit or hold a
# non-ASCII letter or digit, and other tags or near misses of an integer
_ODD_NAMES = st.sampled_from(["ü", "x²", "d٣", "٣", "5x", "1"])
_ODD_TAGS = st.sampled_from(["- 5", "--5", "5x", "²", "٣", "1٣", '"s"', "true", "sym", "-"])
# where a line may hold the literal: places that take a context literal,
# and places that refuse one
_HEADS = ["eval ", "eval {", "eval {(d, 1)} (+) ", "eval <", "show ", "let x = ",
          "seed ", "dim m : enum ", "stream S = ", "eval Box[d | "]
_TAILS = ["", "}", " (+) {(e, 2)}", ", {(e, 2)}}", " x", ")", "]"]


@st.composite
def _literal_texts(draw):
    """Text of a plain context literal of one to three pairs, with blanks
    anywhere, or of a literal one change away from it: a name or a tag that
    no plain literal holds, one piece dropped, or a comma added."""
    count = draw(st.integers(1, 3))
    pieces = ["{"]
    for i in range(count):
        pieces += [","] * (i > 0) + ["(", draw(_PLAIN_NAMES), ",", draw(_INT_TAGS), ")"]
    pieces.append("}")
    change = draw(st.sampled_from([None, "name", "tag", "drop", "comma"]))
    pair = 1 + 6 * draw(st.integers(0, count - 1))  # where a pair's '(' is
    if change == "name":
        pieces[pair + 1] = draw(_ODD_NAMES)
    elif change == "tag":
        pieces[pair + 3] = draw(_ODD_TAGS)
    elif change == "drop":
        del pieces[draw(st.integers(0, len(pieces) - 1))]
    elif change == "comma":
        pieces.insert(draw(st.integers(1, len(pieces) - 1)), ",")
    return "".join(draw(_BLANKS) + piece for piece in pieces) + draw(_BLANKS)


def _outcome(read, *args):
    try:
        return "ok", repr(read(*args))
    except ContextCalcError as err:
        return type(err), str(err), err.position


def _read(text: str, line: str) -> tuple:
    """The parse of text and what the REPL does with line, each a value or
    an error."""
    s = new_session(seed=0)
    for declaration in ("dim d : int", "dim e : int"):
        run_command(s, declaration)
    return _outcome(parse_expr, text), _outcome(run_command, s, line)


@given(_literal_texts(), st.sampled_from(_HEADS), st.sampled_from(_TAILS))
def test_a_context_literal_reads_as_the_token_path_reads_it(text, head, tail):
    """The one-token path and the token-per-lexeme path give the same tree,
    or the same error class, message and position, alone or in a line."""
    line = head + text + tail
    one_token = _read(text, line)
    with mock.patch.object(lexer, "_TOKEN", _TOKEN_PATH):
        assert _read(text, line) == one_token


# --- a plain set literal is one token -----------------------------------------

# Members that a drawn set repeats or mixes: a repeated pair, a non-simple
# member, a dimension the session does not declare, and plain members.
_SET_MEMBERS = st.sampled_from([
    "{(d,1)}", "{(e, 2), (d, 1)}", "{(d,1),(d,1)}", "{(d,1),(d,2)}",
    "{(d, 1), (e, 0), (d, 1)}", "{(q,1)}", "{ (d ,-3) }",
])


@st.composite
def _set_texts(draw):
    """Text of a set literal of one to four members, each a plain context
    literal or a near miss of one (``_literal_texts``), some repeated, with
    blanks anywhere, or one change away from it: a comma dropped or added,
    or its closing brace dropped."""
    members = draw(st.lists(st.one_of(_literal_texts(), _SET_MEMBERS),
                            min_size=1, max_size=4))
    if draw(st.booleans()):
        members.insert(draw(st.integers(0, len(members))), draw(st.sampled_from(members)))
    separators = [draw(_BLANKS) + "," + draw(_BLANKS) for _ in members[1:]]
    change = draw(st.sampled_from([None, None, "comma", "extra", "close"]))
    if change == "comma" and separators:
        separators[draw(st.integers(0, len(separators) - 1))] = " "
    elif change == "extra":
        separators.append(",")
    body = "".join(m + sep for m, sep in zip(members, [*separators, ""]))
    close = "" if change == "close" else draw(_BLANKS) + "}"
    return "{" + draw(_BLANKS) + body + close + draw(_BLANKS)


@given(_set_texts(), st.sampled_from(_HEADS), st.sampled_from(_TAILS))
def test_a_set_literal_reads_as_the_token_path_reads_it(text, head, tail):
    """The one-token path and the token-per-lexeme path give the same tree,
    or the same error class, message and position, alone or in a line; in
    the session ``d`` and ``e`` are int dimensions and ``q`` is none."""
    line = head + text + tail
    one_token = _read(text, line)
    with mock.patch.object(lexer, "_TOKEN", _TOKEN_PATH):
        assert _read(text, line) == one_token


def test_a_plain_set_literal_is_one_token():
    assert [t.kind for t in tokenize(" { {(d, -1),(e,2)} ,{(d,3)}} ")] == [SET, END]
    # a member that is no plain context literal, and an empty set
    assert [t.kind for t in tokenize('{{(d, 1)}, {(d, "x")}}')][:2] == ["{", CTX]
    assert [t.kind for t in tokenize("{{}}")] == ["{", "{", "}", "}", END]


def test_an_unclosed_set_literal_lexes_member_by_member():
    """A literal that the ``set`` group cannot close falls back to a token
    per member, as the lexer without that group reads it, at any size."""
    n = 20_000
    body = "{" + ", ".join(f"{{(d, {i}), (e,-{i})}}" for i in range(n))
    kinds = ["{", *[CTX, ","] * (n - 1), CTX, END]
    assert [t.kind for t in tokenize(body)] == kinds
    no_set = re.compile(lexer._TOKEN.pattern.replace(lexer._SET_LITERAL, "(?!)", 1),
                        lexer._TOKEN.flags)
    with mock.patch.object(lexer, "_TOKEN", no_set):
        assert [t.kind for t in tokenize(body)] == kinds
    assert [t.kind for t in tokenize(body + "}")] == [SET, END]


# --- Box predicate round trip -------------------------------------------------


_KEYWORDS = {"and", "or", "not", "true", "false", "Box"}
_names = st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_]{0,3}", fullmatch=True).filter(
    lambda n: n not in _KEYWORDS
)
_pred_leaves = st.one_of(
    _names.map(Ref),
    st.integers(-50, 50).map(Const),
    st.text("abc xyz", max_size=4).map(Const),
    st.booleans().map(Const),
)
_predicates = st.recursive(
    _pred_leaves,
    lambda kids: st.one_of(
        kids.map(NotOp),
        st.builds(Pointwise, st.sampled_from(["and", "or"]), kids, kids),
        st.builds(Pointwise, st.sampled_from(["+", "-", "*"]), kids, kids),
        st.builds(Pointwise, st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
                  kids, kids),
    ),
    max_leaves=10,
)


@given(_predicates)
def test_predicate_text_round_trip(pred):
    text = f"Box[d1, d2 | {predicate_text(pred)}]"
    assert parse_expr(text) == BoxLit(("d1", "d2"), pred)


def test_predicate_text_brackets():
    assert predicate_text(NotOp(NotOp(Ref("a")))) == "not (not a)"
    assert predicate_text(Pointwise("<", NotOp(Ref("a")), Ref("b"))) == "(not a) < b"
    assert predicate_text(
        Pointwise("-", Ref("a"), Pointwise("-", Ref("b"), Const(-1)))
    ) == "a - (b - -1)"


# --- long left-associated chains ------------------------------------------------
# The parser reads a left chain with a loop, so its length is unbounded; the
# Box checks, the evaluators and the printers must not recurse along it.

CHAIN = 1500


def chain_session():
    session = new_session()
    run_command(session, "dim x : int 1 2 3")
    return session


ALL_X = "{{(x, 1)}, {(x, 2)}, {(x, 3)}}"


@pytest.mark.parametrize("predicate, members", [
    (" or ".join(f"x == {k}" for k in range(1, CHAIN + 1)), ALL_X),
    ("x" + " + 1" * (CHAIN - 1) + f" > {CHAIN - 1}", ALL_X),
    # x innermost of the left chain: the equality is solved for x through
    # every term
    ("x" + " + 1" * (CHAIN - 1) + f" == {CHAIN + 1}", "{{(x, 2)}}"),
], ids=["or-chain", "plus-chain", "linear-chain"])
def test_a_long_box_predicate_chain_prints_and_enumerates(predicate, members):
    session = chain_session()
    assert run_command(session, f"let B = Box[x | {predicate}]") == [
        f"B = Box[x | {predicate}]"
    ]
    assert run_command(session, "eval B ! {x}") == [members]


def test_a_long_stream_chain_shows():
    session = new_session()
    chain = " + ".join(["1"] * CHAIN)
    assert run_command(session, f"stream T = {chain}") == ["stream T"]
    assert run_command(session, "show T 2") == [f"{CHAIN} {CHAIN}"]


def left_spine(node):
    """A left chain as its innermost operand and (operator, right operand)
    pairs, compared without recursing along the chain."""
    spine = []
    while isinstance(node, Pointwise):
        spine.append((node.op, node.right))
        node = node.left
    return node, spine


def test_to_text_of_a_long_chain_reparses_to_an_equal_tree():
    ops = ["(+)", "(-)"]
    text = " ".join(["c"] + [f"{ops[k % 2]} c{k}" for k in range(CHAIN - 1)])
    tree = parse_expr(text)
    assert to_text(tree) == text
    assert left_spine(parse_expr(to_text(tree))) == left_spine(tree)
    bracketed = Pointwise("!", tree, DimSetLit(("x",)))
    assert to_text(bracketed) == f"({text}) ! {{x}}"
    assert left_spine(parse_expr(to_text(bracketed))) == left_spine(bracketed)


# --- boolean results print as literals that read back ------------------------------

pairs_st = st.dictionaries(st.sampled_from("de"), st.integers(0, 2), max_size=2).map(
    lambda d: "{" + ", ".join(f"({k}, {v})" for k, v in d.items()) + "}")


@given(pairs_st, st.sampled_from(["==", "<<=", ">>="]), pairs_st)
def test_a_printed_comparison_reads_back_as_the_same_boolean(left, op, right):
    s = new_session()
    run_command(s, "dim d : int")
    run_command(s, "dim e : int")
    line = f"{left} {op} {right}"
    value = evaluate(parse_expr(line), s.env)
    [text] = run_command(s, f"eval {line}")
    assert evaluate(parse_expr(text), s.env) is value
    assert to_text(parse_expr(text)) == text


# --- enum comparisons ----------------------------------------------------------------


def enum_registry():
    reg = DimensionRegistry()
    reg.register("month", TagKind.ENUM, ["Ja", "Fe", "Mr"])
    reg.register("day", TagKind.ENUM, ["Mo", "Tu"])
    return reg


def test_enum_values_order_within_one_enumeration():
    ja, fe, mr = enum_registry().get("month").domain
    assert ja < fe <= mr and mr > ja >= ja
    assert sorted([mr, ja, fe]) == [ja, fe, mr]
    mo = enum_registry().get("day").domain[0]
    with pytest.raises(TagTypeMismatch):
        ja < mo
    with pytest.raises(TagTypeMismatch):
        ja >= 1


def test_box_enum_comparisons():
    reg = enum_registry()
    month = reg.get("month")
    b = box_make([month], Pointwise(">=", Ref("month"), Ref("Fe")))
    assert {str(c) for c in box_enumerate(b)} == {"{(month, Fe)}", "{(month, Mr)}"}
    with pytest.raises(IllTypedPredicate):
        box_make([month, reg.get("day")], Pointwise("<", Ref("month"), Ref("day")))


# --- the show command -----------------------------------------------------------


def test_show_does_not_revalidate_equations(monkeypatch):
    session = new_session()
    run_command(session, "stream A = [1,2,3]")

    def refuse(equations):
        raise AssertionError("show validated the equations again")

    monkeypatch.setattr(streams, "define_streams", refuse)
    assert run_command(session, "show A time 3") == ["1 2 3"]
    assert run_command(session, "show A 2") == ["1 2"]
    with pytest.raises(ExprSyntaxError):
        run_command(session, "show A 2 time")


def test_dim_domain_rejects_a_dangling_minus():
    session = new_session()
    with pytest.raises(ExprSyntaxError):
        run_command(session, "dim k : int 1 -")
    assert run_command(session, 'dim k : int -2 0 3') == ["dim k : int -2 0 3"]
