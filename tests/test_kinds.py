"""The evaluator's (operator, operand kinds) table, iterative chains,
typed errors at the parser, model and ``dim`` boundaries, and the
worked-example transcripts."""

import io
import random
import sys
from pathlib import Path

import pytest

from ctxcalc import cli, evaluator, ops, streams
from ctxcalc.cli import new_session, repl, run_command
from ctxcalc.evaluator import evaluate
from ctxcalc.errors import (
    ContextCalcError,
    ExprSyntaxError,
    IllFormedDomain,
    KindMismatch,
)
from ctxcalc.lexer import MAX_DEPTH
from ctxcalc.model import (
    Context,
    ContextSet,
    Dimension,
    DimensionRegistry,
    TagKind,
)
from ctxcalc.parser import BINDING, Const, Fby, Pointwise, parse_expr, to_text
from ctxcalc.sets import predicate_text
from ctxcalc.streams import parse_stream_expr

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# --- the kind matrix ----------------------------------------------------------

OPERANDS = {
    "context": "{(d,1),(e,2)}",
    "micro": "{(d,2)}",
    "set": "{{(d,1)},{(d,2)}}",
    "box": "Box[d | d > 1]",
    "dims": "{d}",
    "bool": "({(d,1)} == {(d,1)})",
}
_CTX = {("context", "context"), ("context", "micro"),
        ("micro", "context"), ("micro", "micro")}
_SETS = {("set", "set"), ("set", "box"), ("box", "set"), ("box", "box")}
_PROJECT = {(a, "dims") for a in ("context", "micro", "set", "box")}
# The operand pairs each operator accepts; every other pair is a kind error.
ACCEPTS = {
    "!": _PROJECT,
    "^": _PROJECT,
    "/": _CTX | {("set", "micro"), ("box", "micro")},
    "|": _CTX | _SETS,
    "(+)": _CTX | _SETS,
    "(-)": _CTX | _SETS,
    "&": _CTX,
    "%": _CTX,
    "<=>": _CTX,
    "=>": _CTX,
    "<=": _CTX,
    "==": _CTX,
    "<<=": _CTX,
    ">>=": _CTX,
    "><": _SETS,
    "[&]": _SETS,
    "[+]": _SETS,
}


def _matrix_session():
    session = new_session(seed=3)
    run_command(session, "dim d : int 1 2 3")
    run_command(session, "dim e : int 1 2 3")
    return session


def test_equal_empty_values_keep_their_kinds():
    # The empty context and the empty dimension set are equal frozensets
    # in Python, and a context set is not a frozenset; the evaluator and
    # the renderer must dispatch on the exact type, not on equality.
    values = (Context(), ContextSet(), frozenset())
    assert values[0] == values[2] and values[1] not in (values[0], values[2])
    assert [evaluator._kind(v) for v in values] == [
        "context", "context set", "dimension set"]
    assert [cli._value_record(v)[0] for v in values] == [
        "context", "context_set", "dim_set"]


def test_accepts_covers_every_operator():
    assert set(ACCEPTS) == set(BINDING)


@pytest.mark.parametrize("op", sorted(BINDING))
def test_kind_matrix(op):
    session = _matrix_session()
    for left, ltext in OPERANDS.items():
        for right, rtext in OPERANDS.items():
            line = f"eval ({ltext}) {op} ({rtext})"
            if (left, right) in ACCEPTS[op]:
                assert len(run_command(session, line)) == 1, line
            else:
                with pytest.raises(KindMismatch):
                    run_command(session, line)


def test_kind_mismatch_names_operator_and_kinds():
    session = _matrix_session()
    with pytest.raises(KindMismatch, match=r"'><' cannot combine a context "
                                           r"with a dimension set"):
        run_command(session, "eval {(d,1)} >< {d}")
    with pytest.raises(KindMismatch, match="<dimension, tag> pair"):
        run_command(session, "eval {{(d,1)}} / {(d,2),(e,1)}")


def test_every_operator_has_a_row():
    with_rows = {op for op, _, _ in evaluator.ROWS}
    assert with_rows == set(BINDING) - {"<="}
    assert len(evaluator.ROWS) == 22


def test_unbounded_box_without_a_row_is_a_kind_error():
    session = _matrix_session()
    run_command(session, "dim u : int")
    with pytest.raises(KindMismatch):
        run_command(session, "eval Box[u | u > 1] >< {u}")


def test_rows_reach_rebound_operators(monkeypatch):
    calls = []

    def join(a, b):
        calls.append("join")
        return a

    monkeypatch.setattr(evaluator, "join", join)
    session = _matrix_session()
    run_command(session, "eval {{(d,1)}} >< {{(e,1)}}")
    assert calls == ["join"]


# A value that is no node of the grammar, handed to the public API.
NOT_NODES = {"int": 3, "str": "c", "fby": Fby(Const(1), Const(2))}


@pytest.mark.parametrize(
    "node", [*NOT_NODES.values(), Pointwise("+", Const(1), Const(2)),
             Pointwise(["x"], Const(1), Const(2))],
    ids=[*NOT_NODES, "stream-plus", "unhashable-op"])
def test_a_value_that_is_no_context_node_is_a_kind_mismatch(node):
    env = _matrix_session().env
    with pytest.raises(KindMismatch):
        evaluate(node, env)
    with pytest.raises(KindMismatch):
        to_text(node)


@pytest.mark.parametrize("node", NOT_NODES.values(), ids=NOT_NODES)
def test_a_value_that_is_no_predicate_node_is_a_kind_mismatch(node):
    with pytest.raises(KindMismatch):
        predicate_text(node)


# --- iterative chains ---------------------------------------------------------


def test_long_left_chain_evaluates():
    session = new_session()
    run_command(session, "dim d : int")
    chain = " (+) ".join(f"{{(d,{i})}}" for i in range(2000))
    assert run_command(session, "eval " + chain) == ["{(d, 1999)}"]


def test_chain_evaluates_left_before_right_and_inner_before_outer():
    # every '|' draws from the seeded rng, so the order of draws shows
    session = new_session(seed=11)
    run_command(session, "dim d : int")
    pairs = [tuple(evaluate(parse_expr(f"{{(d,{i + k})}}"), session.env)
                   for k in (0, 100)) for i in range(8)]
    chain = " | ".join(f"({a} | {b})" for a, b in pairs)
    picks = [run_command(session, "eval " + chain)[0] for _ in range(20)]
    rng, expected = random.Random(11), []
    for _ in range(20):
        value = ops.choice(list(pairs[0]), rng)
        for pair in pairs[1:]:
            value = ops.choice([value, ops.choice(list(pair), rng)], rng)
        expected.append(str(value))
    assert picks == expected and len(set(picks)) > 1


# --- nesting depth ------------------------------------------------------------

DEEP = 2000


def _nested(inner):
    return "(" * DEEP + inner + ")" * DEEP


@pytest.mark.parametrize("parse, text", [
    (parse_expr, _nested("{(d,1)}")),
    (parse_expr, "Box[d | " + _nested("d > 1") + "]"),
    (parse_expr, "Box[d | " + "not " * DEEP + "d > 1]"),
    (parse_stream_expr, _nested("A")),
    (parse_stream_expr, "not " * DEEP + "A"),
    (parse_stream_expr, "- " * DEEP + "A"),
])
def test_deep_nesting_is_a_syntax_error(parse, text):
    with pytest.raises(ExprSyntaxError) as info:
        parse(text)
    assert info.value.position > 0
    assert "nests deeper" in str(info.value)


@pytest.mark.parametrize("parse, text", [
    (parse_expr, "(" * 150 + "{(d,1)}" + ")" * 150),
    (parse_expr, "Box[d | " + "not " * 150 + "d > 1]"),
    (parse_stream_expr, "not " * 150 + "A"),
])
def test_nesting_below_the_limit_parses(parse, text):
    assert MAX_DEPTH > 150
    parse(text)


def test_repl_survives_a_deep_line():
    stdin = io.StringIO("eval " + _nested("{}") + "\ndim d : int\n")
    out, err = io.StringIO(), io.StringIO()
    assert repl(new_session(), stdin=stdin, out=out, err=err) == 0
    assert "nests deeper" in err.getvalue()
    assert out.getvalue() == "dim d : int\n"


# --- typed errors at the model and dim boundary -----------------------------


def test_empty_dimension_name_is_typed():
    with pytest.raises(ExprSyntaxError):
        Dimension("", TagKind.INT)
    with pytest.raises(ExprSyntaxError):
        DimensionRegistry().register("", TagKind.INT)


@pytest.mark.parametrize("spec", [
    "enum{1a, b c}", "enum{a b}", "enum{A,,B}", "enum{A} x", "enumx", "enum{A",
])
def test_bad_enum_symbols_are_syntax_errors(spec):
    with pytest.raises(ExprSyntaxError):
        run_command(new_session(), f"dim m : {spec}")


def test_enum_dims_echo_and_empty_enum():
    session = new_session()
    assert run_command(session, "dim month : enum{Ja,Fe,Mr}") == [
        "dim month : enum{Ja,Fe,Mr}"
    ]
    assert run_command(session, "dim m : enum { A , B }") == ["dim m : enum{A,B}"]
    with pytest.raises(IllFormedDomain):
        run_command(session, "dim e : enum{}")


# --- stream definitions check only the new equation -------------------------


def test_stream_lines_check_only_the_new_equation(monkeypatch):
    calls = []
    references = streams.references

    def counted(expr):
        calls.append(expr)
        return references(expr)

    monkeypatch.setattr(streams, "references", counted)
    session = new_session()
    run_command(session, "stream S0 = 0 fby S0 + 1")
    for k in range(1, 50):
        run_command(session, f"stream S{k} = S{k - 1} + 1")
    assert len(calls) == 50
    assert run_command(session, "show S49 3") == ["49 50 51"]
    with pytest.raises(ContextCalcError):
        run_command(session, "stream X = S0 + Y")
    assert "X" not in session.equations


# --- worked-example transcripts -----------------------------------------------


WORKED_EXAMPLES = ROOT / "scripts" / "worked_examples.ctx"


# The script run by the file runner, then piped into the REPL, which reads
# it a line at a time from stdin (rows without --script).
@pytest.mark.parametrize("flags, golden", [
    (["--script", str(WORKED_EXAMPLES)], "worked_examples_seed7.txt"),
    (["--script", str(WORKED_EXAMPLES), "--json"], "worked_examples_seed7.json.txt"),
    ([], "worked_examples_seed7.txt"),
    (["--json"], "worked_examples_seed7.json.txt"),
])
def test_worked_examples_match_golden(capsys, monkeypatch, flags, golden):
    stdin = io.StringIO(WORKED_EXAMPLES.read_text(encoding="utf-8"))
    monkeypatch.setattr(sys, "stdin", stdin)
    assert cli.main(["--seed", "7", *flags]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode("utf-8") == (GOLDEN / golden).read_bytes()
