import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from ctxcalc.errors import (
    ContextCalcError,
    ExprSyntaxError,
    KindMismatch,
    NonSimpleOperand,
    TagOutsideDomain,
    TagTypeMismatch,
    UnbalancedParens,
    UnboundVariable,
    UnknownToken,
)
from ctxcalc.cli import new_session, run_command
from ctxcalc.evaluator import Environment, evaluate
from ctxcalc.lexer import END, NAME, tokenize
from ctxcalc.model import (
    NULL_CONTEXT,
    ContextSet,
    DimensionRegistry,
    TagKind,
    make_context,
)
from ctxcalc.parser import (
    BINDING,
    PRECEDENCE_LEVELS,
    BoxLit,
    Const,
    ContextLit,
    DimSetLit,
    NotOp,
    Pointwise,
    Ref,
    SetLit,
    parse_expr,
    to_text,
)

from conftest import int_registry


# --- tokenizer ---------------------------------------------------------------


def test_tokenize_worked_expression():
    tokens = tokenize("c3 ^ D (+) c1 | c2")
    assert len(tokens) == 8  # seven lexemes plus the end marker
    assert [t.kind for t in tokens[:-1]] == [
        NAME, "^", NAME, "(+)", NAME, "|", NAME,
    ]
    assert tokens[-1].kind == END


def test_tokenize_empty():
    tokens = tokenize("")
    assert [t.kind for t in tokens] == [END]


def test_tokenize_unknown_token_position():
    with pytest.raises(UnknownToken) as err:
        tokenize("c1 $$ c2")
    assert err.value.position == 4


def test_tokenize_unicode_synonyms():
    pairs = [
        ("c ↓ D", "c ! D"),
        ("c ↑ D", "c ^ D"),
        ("a ⊕ b", "a (+) b"),
        ("a ⊖ b", "a (-) b"),
        ("a ∩ b", "a & b"),
        ("a ∪ b", "a % b"),
        ("a ⇔ b", "a <=> b"),
        ("a ⇒ b", "a => b"),
        ("a ⋈ b", "a >< b"),
        ("a ⊓ b", "a [&] b"),
        ("a ⊞ b", "a [+] b"),
        ("a ⊆ b", "a <<= b"),
        ("a ⊇ b", "a >>= b"),
    ]
    for unicode_text, ascii_text in pairs:
        assert parse_expr(unicode_text) == parse_expr(ascii_text)


def test_tokenize_maximal_munch():
    kinds = [t.kind for t in tokenize("<=> <<= <= < >>= >< > ==")]
    assert kinds[:-1] == ["<=>", "<<=", "<=", "<", ">>=", "><", ">", "=="]


# --- parser -----------------------------------------------------------------


def test_parse_worked_expression_shape():
    ast = parse_expr("c3 ^ D (+) c1 | c2")
    assert ast == Pointwise(
        "(+)",
        Pointwise("^", Ref("c3"), Ref("D")),
        Pointwise("|", Ref("c1"), Ref("c2")),
    )


def test_parse_same_level_left_assoc():
    assert parse_expr("c1 (+) c2 (-) c3") == Pointwise(
        "(-)", Pointwise("(+)", Ref("c1"), Ref("c2")), Ref("c3")
    )


def test_parse_parenthesized_variable():
    assert parse_expr("(c1)") == Ref("c1")


def test_parse_set_expression_shapes():
    assert parse_expr("s1 >< s2 [&] s3") == Pointwise(
        "[&]", Pointwise("><", Ref("s1"), Ref("s2")), Ref("s3")
    )
    assert parse_expr("s1 ^ D [+] s2") == Pointwise(
        "[+]", Pointwise("^", Ref("s1"), Ref("D")), Ref("s2")
    )
    assert parse_expr("s1") == Ref("s1")


def test_parse_swapped_directed_range_sugar():
    assert parse_expr("a <= b") == Pointwise("=>", Ref("b"), Ref("a"))


def test_parse_literals():
    assert parse_expr("{}") == ContextLit(())
    assert parse_expr("{(d, 1), (e, 4)}") == ContextLit((("d", 1), ("e", 4)))
    assert parse_expr("{d, e}") == DimSetLit(("d", "e"))
    assert parse_expr("{{(d, 1)}, {(d, 2)}}") == SetLit(
        (ContextLit((("d", 1),)), ContextLit((("d", 2),)))
    )
    assert parse_expr("<d, 5>") == ContextLit((("d", 5),))
    assert parse_expr('{(s, "text"), (b, true), (m, Ja), (d, -2)}') == ContextLit(
        (("s", "text"), ("b", True), ("m", "Ja"), ("d", -2))
    )


PAIR_SETUP = (
    "dim d : int",
    "dim s : str",
    "dim b : bool",
    "dim m : enum {Ja, Nein}",
    'let c = {(d, 1), (s, "x"), (b, false), (m, Nein)}',
    "let S = {{(d, 1), (s, \"x\"), (b, false), (m, Nein)}, {(d, 2)}}",
)


@pytest.mark.parametrize("pair", [
    "<d, 7>", "<d, -3>", '<s, "y">', "<b, true>", "<m, Ja>", "⟨d, 7⟩",
    '⟨s, "y"⟩',
])
def test_pair_reads_as_its_one_pair_context_literal(pair):
    # a <d, t> pair is the context of degree 1 it denotes
    literal = "{(" + pair[1:-1] + ")}"
    assert parse_expr(pair) == parse_expr(literal)
    session = new_session()
    for line in PAIR_SETUP:
        run_command(session, line)
    for left, op in (("S", "/"), ("c", "(+)"), ("c", "==")):
        assert run_command(session, f"eval {left} {op} {pair}") == run_command(
            session, f"eval {left} {op} {literal}"
        )


TAG_SETUP = (
    "dim m : enum {jan, feb, mar}",
    "dim s : str",
    "dim d : int",
    "dim b : bool",
)


def _outcome(session, line):
    try:
        return run_command(session, line)
    except ContextCalcError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("bare, quoted, error", [
    ("{(m, feb)}", '{(m, "feb")}', None),
    ("<m, feb>", '<m, "feb">', None),
    ("{{(m, feb)}}", '{{(m, "feb")}}', None),
    ("{(m, apr)}", '{(m, "apr")}', TagOutsideDomain),
    ("{(s, north)}", '{(s, "north")}', None),
    ("{(d, red)}", '{(d, "red")}', TagTypeMismatch),
    ("{(b, x)}", '{(b, "x")}', TagTypeMismatch),
])
def test_a_bare_name_tag_is_its_text(bare, quoted, error):
    # a bare-name tag in a context literal is the string it spells, which
    # its dimension reads: an enum symbol becomes its member
    assert parse_expr(bare) == parse_expr(quoted)
    session = new_session()
    for line in TAG_SETUP:
        run_command(session, line)
    got = _outcome(session, f"eval {bare}")
    assert got == _outcome(session, f"eval {quoted}")
    if error is None:
        assert isinstance(got, list)
    else:
        assert got[0] is error


def test_parse_box_literal():
    ast = parse_expr("Box[d1, d2 | d1 < d2]")
    assert ast == BoxLit(("d1", "d2"), Pointwise("<", Ref("d1"), Ref("d2")))


def test_parse_errors():
    with pytest.raises(ExprSyntaxError):
        parse_expr("c1 (+)")
    with pytest.raises(ExprSyntaxError):
        parse_expr("")
    with pytest.raises(UnbalancedParens):
        parse_expr("(c1")
    with pytest.raises(UnbalancedParens):
        parse_expr("c1)")
    with pytest.raises(ExprSyntaxError):
        parse_expr("{(d,1), e}")


def test_precedence_pairs_table_driven():
    # For operators on different levels the tighter one groups first;
    # on equal levels association is left to right.
    for hi in range(len(PRECEDENCE_LEVELS)):
        for lo in range(hi):
            for tight in PRECEDENCE_LEVELS[hi]:
                for loose in PRECEDENCE_LEVELS[lo]:
                    if "<=" in (tight, loose):
                        continue  # swapped sugar changes operand order
                    ast = parse_expr(f"a {loose} b {tight} c")
                    assert ast == Pointwise(
                        loose,
                        Ref("a"),
                        Pointwise(tight, Ref("b"), Ref("c")),
                    ), (loose, tight)
                    ast = parse_expr(f"a {tight} b {loose} c")
                    assert ast == Pointwise(
                        loose,
                        Pointwise(tight, Ref("a"), Ref("b")),
                        Ref("c"),
                    ), (tight, loose)
    for level in PRECEDENCE_LEVELS:
        for op1 in level:
            for op2 in level:
                if "<=" in (op1, op2):
                    continue
                ast = parse_expr(f"a {op1} b {op2} c")
                assert ast == Pointwise(
                    op2, Pointwise(op1, Ref("a"), Ref("b")), Ref("c")
                ), (op1, op2)


# --- pretty printing round trips -------------------------------------------------


_OPS = [op for level in PRECEDENCE_LEVELS for op in level if op != "<="]

# A Box literal's predicate prints through the predicate grammar's table,
# inside a context expression printed through the context grammar's.
_predicates = st.recursive(
    st.one_of(
        st.sampled_from(["d1", "d2", "Ja"]).map(Ref),
        st.integers(-3, 3).map(Const),
        st.booleans().map(Const),
        st.just(Const('a "b" \\')),
    ),
    lambda kids: st.one_of(
        kids.map(NotOp),
        st.builds(Pointwise, st.sampled_from(["and", "or"]), kids, kids),
        st.builds(Pointwise, st.sampled_from(["+", "-", "*"]), kids, kids),
        st.builds(Pointwise, st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
                  kids, kids),
    ),
    max_leaves=6,
)
_leaves = st.one_of(
    st.sampled_from("abcs").map(Ref),
    st.booleans().map(Const),
    st.just(ContextLit((("d", 1), ("e", 4)))),
    st.just(ContextLit(())),
    st.just(ContextLit(
        (("d", -2), ("s", 'a "b" \\'), ("b", False), ("m", "Ja")))),
    st.just(DimSetLit(("d", "e"))),
    st.just(SetLit((ContextLit((("d", 2),)),))),
    st.just(ContextLit((("d", 3),))),
    st.just(BoxLit(("d1", "d2"), Pointwise("<", Ref("d1"), Ref("d2")))),
    st.builds(BoxLit, st.just(("d1", "d2")), _predicates),
)
_exprs = st.recursive(
    _leaves,
    lambda children: st.builds(Pointwise, st.sampled_from(_OPS), children, children),
    max_leaves=12,
)


@given(_exprs)
def test_round_trip(expr):
    assert parse_expr(to_text(expr)) == expr


def test_round_trip_forced_parens():
    text = "(a (+) b) ! D"
    ast = parse_expr(text)
    assert ast == Pointwise("!", Pointwise("(+)", Ref("a"), Ref("b")), Ref("D"))
    assert parse_expr(to_text(ast)) == ast


# --- evaluation -------------------------------------------------------------


def example_env(seed=1):
    reg = DimensionRegistry()
    for n in "xyzw":
        reg.register(n, TagKind.INT)
    env = Environment(registry=reg, rng=random.Random(seed))
    env.bind("c1", make_context(reg, [("x", 3), ("y", 4), ("z", 5)]))
    env.bind("c2", make_context(reg, [("y", 5)]))
    env.bind("c3", make_context(reg, [("x", 5), ("y", 6), ("w", 5)]))
    env.bind("D", frozenset([reg.get("w")]))
    return reg, env


def test_evaluate_worked_expression_both_branches():
    reg, env = example_env(seed=1)  # first candidate
    got = evaluate(parse_expr("c3 ^ D (+) c1 | c2"), env)
    assert got == make_context(reg, [("x", 3), ("y", 4), ("z", 5)])
    env.rng.seed(0)  # second candidate
    got = evaluate(parse_expr("c3 ^ D (+) c1 | c2"), env)
    assert got == make_context(reg, [("x", 5), ("y", 5)])


def test_evaluate_comparisons():
    _, env = example_env()
    assert evaluate(parse_expr("c1 == c1"), env) is True
    assert evaluate(parse_expr("c2 <<= c1"), env) is False
    assert evaluate(parse_expr("{(y, 4)} <<= c1"), env) is True
    assert evaluate(parse_expr("c1 >>= {(y, 4)}"), env) is True


def test_evaluate_range_inside_set_expression():
    reg = int_registry("def")
    env = Environment(registry=reg, rng=random.Random(0))
    env.bind("s1", ContextSet([make_context(reg, [("d", 2), ("e", 7)])]))
    got = evaluate(parse_expr("({(d, 1)} <=> {(d, 3)}) >< s1"), env)
    assert got == ContextSet([make_context(reg, [("d", 2), ("e", 7)])])


def test_evaluate_pair_literal_substitution_on_sets():
    reg = int_registry("de")
    env = Environment(registry=reg, rng=random.Random(0))
    env.bind("s", ContextSet([make_context(reg, [("d", 1), ("e", 2)])]))
    got = evaluate(parse_expr("s / <d, 9>"), env)
    assert got == ContextSet([make_context(reg, [("d", 9), ("e", 2)])])


def test_evaluate_box_literal_and_coercion():
    reg = DimensionRegistry()
    reg.register("d1", TagKind.INT, [1, 2, 3])
    reg.register("d2", TagKind.INT, [1, 2, 3])
    env = Environment(registry=reg, rng=random.Random(0))
    env.bind("s", ContextSet([make_context(reg, [("d1", 1), ("d2", 2)])]))
    got = evaluate(parse_expr("Box[d1, d2 | d1 < d2] [&] s"), env)
    # box members {1,2} {1,3} {2,3} intersected pairwise with {1,2}
    assert got == ContextSet(
        [
            make_context(reg, [("d1", 1), ("d2", 2)]),
            make_context(reg, [("d1", 1)]),
            NULL_CONTEXT,
        ]
    )


def test_evaluate_errors():
    reg, env = example_env()
    with pytest.raises(UnboundVariable):
        evaluate(parse_expr("nope"), env)
    with pytest.raises(KindMismatch):
        evaluate(parse_expr("c1 >< c2"), env)
    with pytest.raises(KindMismatch):
        evaluate(parse_expr("c1 ! c2"), env)
    with pytest.raises(KindMismatch):
        evaluate(parse_expr("D (+) c1"), env)
    with pytest.raises(KindMismatch):
        evaluate(parse_expr("(c1 <=> c1) & c2"), env)
    with pytest.raises(NonSimpleOperand):
        evaluate(parse_expr("c1 (+) {(x, 1), (x, 2)}"), env)


def test_evaluation_deterministic_given_seed():
    text = "c3 ^ D (+) c1 | c2"
    results = set()
    for _ in range(20):
        _, env = example_env(seed=5)
        results.add(str(evaluate(parse_expr(text), env)))
    assert len(results) == 1


def test_changing_seed_only_affects_choice():
    _, env1 = example_env(seed=1)
    _, env2 = example_env(seed=0)
    left = "c3 ^ D"
    assert evaluate(parse_expr(left), env1) == evaluate(parse_expr(left), env2)
