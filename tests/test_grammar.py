"""The three grammars on the shared operator-precedence core: pinned
parses for each language rule, parenthesis errors, and printer round
trips."""

import pytest
from hypothesis import given
import hypothesis.strategies as st

from ctxcalc import streams
from ctxcalc.cli import new_session, run_command
from ctxcalc.errors import (
    ExprSyntaxError,
    IllTypedPredicate,
    TagTypeMismatch,
    UnbalancedParens,
    UnknownToken,
)
from ctxcalc.lexer import END, INT, NAME, tokenize
from ctxcalc.model import DimensionRegistry, TagKind
from ctxcalc.parser import BinOp, BoxLit, VarRef, parse_expr
from ctxcalc.sets import (
    Arith,
    Cmp,
    Lit,
    Logic,
    Name,
    Not,
    box_enumerate,
    box_make,
    predicate_text,
)
from ctxcalc.streams import (
    Asa,
    At,
    Const,
    Fby,
    If,
    NotOp,
    Pointwise,
    Ref,
    Upon,
    Wvr,
    parse_stream_expr,
)


def box(text):
    """The predicate of a one-dimension Box literal."""
    return parse_expr(f"Box[d | {text}]").predicate


A, B, C, D = Ref("A"), Ref("B"), Ref("C"), Ref("D")

# (parse function, source, expected tree)
PINNED = [
    # Box 'not' binds looser than comparison, stream 'not' tighter.
    (box, "not d1 < d2", Not(Cmp("<", Name("d1"), Name("d2")))),
    (box, "not d1 < d2 and d3",
     Logic("and", Not(Cmp("<", Name("d1"), Name("d2"))), Name("d3"))),
    (box, "d1 and not not d2", Logic("and", Name("d1"), Not(Not(Name("d2"))))),
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
    (box, "d < -3", Cmp("<", Name("d"), Lit(-3))),
    # if starts an expression: at the top, in parentheses, in its branches
    (parse_stream_expr, "if A then B else C fby D", If(A, B, Fby(C, D))),
    (parse_stream_expr, "(if A then B else C) + 1",
     Pointwise("+", If(A, B, C), Const(1))),
    (parse_stream_expr, "if A then if B then C else D else A",
     If(A, If(B, C, D), A)),
    # <= is swapped range sugar only in the context grammar
    (parse_expr, "a <= b", BinOp("=>", VarRef("b"), VarRef("a"))),
    (parse_stream_expr, "A <= B", Pointwise("<=", A, B)),
    (box, "d1 <= d2", Cmp("<=", Name("d1"), Name("d2"))),
    # arithmetic and logic keep their usual levels
    (box, "d1 + d2 * 3 == 7 or d1 > 1 and true",
     Logic("or",
           Cmp("==", Arith("+", Name("d1"), Arith("*", Name("d2"), Lit(3))), Lit(7)),
           Logic("and", Cmp(">", Name("d1"), Lit(1)), Lit(True)))),
    (box, '(d1 - 1) - 2 == "s"',
     Cmp("==", Arith("-", Arith("-", Name("d1"), Lit(1)), Lit(2)), Lit("s"))),
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
    assert Cmp("<", Name("d1"), Name("d2")) == Pointwise("<", Ref("d1"), Ref("d2"))
    assert Not(Lit(True)) == NotOp(Const(True))


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


# --- Box predicate round trip -------------------------------------------------


_KEYWORDS = {"and", "or", "not", "true", "false", "Box"}
_names = st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_]{0,3}", fullmatch=True).filter(
    lambda n: n not in _KEYWORDS
)
_pred_leaves = st.one_of(
    _names.map(Name),
    st.integers(-50, 50).map(Lit),
    st.text("abc xyz", max_size=4).map(Lit),
    st.booleans().map(Lit),
)
_predicates = st.recursive(
    _pred_leaves,
    lambda kids: st.one_of(
        kids.map(Not),
        st.builds(Logic, st.sampled_from(["and", "or"]), kids, kids),
        st.builds(Arith, st.sampled_from(["+", "-", "*"]), kids, kids),
        st.builds(Cmp, st.sampled_from(["==", "!=", "<", "<=", ">", ">="]), kids, kids),
    ),
    max_leaves=10,
)


@given(_predicates)
def test_predicate_text_round_trip(pred):
    text = f"Box[d1, d2 | {predicate_text(pred)}]"
    assert parse_expr(text) == BoxLit(("d1", "d2"), pred)


def test_predicate_text_brackets():
    assert predicate_text(Not(Not(Name("a")))) == "not (not a)"
    assert predicate_text(Cmp("<", Not(Name("a")), Name("b"))) == "(not a) < b"
    assert predicate_text(Arith("-", Name("a"), Arith("-", Name("b"), Lit(-1)))) == (
        "a - (b - -1)"
    )


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
    b = box_make([month], Cmp(">=", Name("month"), Name("Fe")))
    assert {str(c) for c in box_enumerate(b)} == {"{(month, Fe)}", "{(month, Mr)}"}
    with pytest.raises(IllTypedPredicate):
        box_make([month, reg.get("day")], Cmp("<", Name("month"), Name("day")))


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
