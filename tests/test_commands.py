"""The REPL's command grammar.

Every command line but ``load`` is one token stream over the whole line,
so an error position counts from the start of the line.  The session's
stream equations live in one ``streams.EquationSet``.
"""

from __future__ import annotations

import io
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxcalc import cli, streams
from ctxcalc.cli import new_session, repl, run_command, run_script
from ctxcalc.errors import (
    ContextCalcError,
    DemandExhausted,
    DuplicateName,
    ExprSyntaxError,
    InternalError,
    UnbalancedParens,
    UnknownToken,
    UnresolvedReference,
)
from ctxcalc.evaluator import Environment, evaluate
from ctxcalc.lexer import NAME, SYMBOLS, Token, tokenize
from ctxcalc.model import DimensionRegistry, TagKind, make_context
from ctxcalc.parser import parse_expr

SETUP = (
    "dim d : int",
    "dim e : int 1 2 3",
    "let a = {(d, 1)}",
    "stream A = [1, 2, 3]",
)


def session():
    s = new_session(seed=3)
    for line in SETUP:
        run_command(s, line)
    return s


# --- command lines and what they print ----------------------------------------

OUTPUTS = [
    ("dim k : int", ["dim k : int"]),
    ("dim k:int -2 0 3", ["dim k : int -2 0 3"]),
    ('dim s : str "a" "b\\"c" "d\\\\e"', ['dim s : str "a" "b\\"c" "d\\\\e"']),
    ("dim b : bool false true", ["dim b : bool false true"]),
    ("dim m : enum { A , B }", ["dim m : enum{A,B}"]),
    ("  let b = a (+) {(e, 2)}", ["b = {(d, 1), (e, 2)}"]),
    ("stream B = A + 1", ["stream B"]),
    ("show A", ["1 2 3 nil nil nil nil nil nil nil"]),
    ("show A time 2", ["1 2"]),
    ("show A == A 2", ["1 1"]),
    ("show (prev A) 3", ["nil 1 2"]),
    ("show A - 1 2", ["0 1"]),
    ("eval a", ["{(d, 1)}"]),
    ("eval a == a", ["true"]),
    ("seed -4", ["seed -4"]),
    ("seed 007", ["seed 7"]),
    ("mode plain", ["mode plain"]),
    ("mode json", []),
    ("   # a comment", []),
    ("", []),
    ("eval true", ["true"]),
    ("eval (false)", ["false"]),
    ("let t = a <<= a", ["t = true"]),
    # the command word ends at any whitespace
    ("dim\tk : int", ["dim k : int"]),
    ("let\tb = a", ["b = {(d, 1)}"]),
    ("stream\tB = A + 1", ["stream B"]),
    ("show\tA 2", ["1 2"]),
    ("eval\ta", ["{(d, 1)}"]),
    ("seed\t-4", ["seed -4"]),
    ("mode\tplain", ["mode plain"]),
]


@pytest.mark.parametrize("line, expected", OUTPUTS)
def test_command_output(line, expected):
    assert run_command(session(), line) == expected


def test_a_box_over_a_bool_dimension_without_a_domain_enumerates():
    s = new_session(seed=3)
    assert run_command(s, "dim d : int 1 2") == ["dim d : int 1 2"]
    assert run_command(s, "dim b : bool") == ["dim b : bool"]
    assert run_command(s, "eval Box[d, b | b] [+] {{(d, 1)}}") == [
        "{{(b, true), (d, 1)}, {(b, true), (d, 2)}}"]
    assert run_command(s, "eval Box[b | b == true] ! {b}") == ["{{(b, true)}}"]


# --- malformed lines: the error class and its column in the line ---------------

ERRORS = [
    # dim
    ("dim m : enum{1a}", ExprSyntaxError, 14),
    ("dim k : int 1 foo", ExprSyntaxError, 15),
    ("dim 1k : int", ExprSyntaxError, 5),
    ("dim k int", ExprSyntaxError, 7),
    ("dim k : float", ExprSyntaxError, 9),
    ('dim k : "int"', ExprSyntaxError, 9),
    ("dim k : enum A", ExprSyntaxError, 14),
    ("dim k : enum{A} B", ExprSyntaxError, 17),
    ("dim k : enum{A,}", ExprSyntaxError, 16),
    ("dim k : int 1 -", ExprSyntaxError, 16),
    ("dim k : int :", ExprSyntaxError, 13),
    # let
    ("let = a", ExprSyntaxError, 5),
    ("let b a", ExprSyntaxError, 7),
    ("let b == a", ExprSyntaxError, 7),
    ("let b =", ExprSyntaxError, 8),
    ("let b = a (+)", ExprSyntaxError, 14),
    ("let a$ = a", UnknownToken, 6),
    ("let true = a", ExprSyntaxError, 5),
    ("let  false = true", ExprSyntaxError, 6),
    # stream
    ("stream 9 = 1", ExprSyntaxError, 8),
    ("stream B 1", ExprSyntaxError, 10),
    ("stream B = fby", ExprSyntaxError, 12),
    ("stream if = 1", ExprSyntaxError, 8),
    ("stream  wvr = A", ExprSyntaxError, 9),
    ("stream then = 1", ExprSyntaxError, 8),
    ("stream true = 1", ExprSyntaxError, 8),
    ("stream nil = A", ExprSyntaxError, 8),
    ("stream B = if A 1", ExprSyntaxError, 17),
    # show
    ("show", ExprSyntaxError, 5),
    ("show A 2 time", ExprSyntaxError, 10),
    ("show A time x", ExprSyntaxError, 13),
    ("show A 2 3", ExprSyntaxError, 10),
    ('show A "x"', ExprSyntaxError, 8),
    ("show if A then 1", ExprSyntaxError, 17),
    # load
    ("load", ExprSyntaxError, 5),
    ("  load", ExprSyntaxError, 7),
    # eval
    ("eval {(d, 1)} $", UnknownToken, 15),
    ("  eval $", UnknownToken, 8),
    ("eval (a", UnbalancedParens, 6),
    ("eval a)", UnbalancedParens, 7),
    # "a set literal may only contain context literals", reported at the
    # first column of the member refused, a dimension set or a nested set
    ("eval {{(d,1)}, {d}}", ExprSyntaxError, 16),
    ("eval {{(d,1)}, {{(d,2)}}}", ExprSyntaxError, 16),
    # a plain set literal where no grammar takes one is named by its '{',
    # and an unclosed one fails at the end of the line
    ("stream S = {{(d,1)}}", ExprSyntaxError, 12),
    ("eval Box[d | {{(d,1)}}]", ExprSyntaxError, 14),
    ("seed {{(d,1)}}", ExprSyntaxError, 6),
    ("eval {{(d,1)},{(d,2)}", ExprSyntaxError, 22),
    # seed
    ("seed", ExprSyntaxError, 5),
    ("seed +3", ExprSyntaxError, 6),
    ("seed 1_000", ExprSyntaxError, 7),
    ("seed 3 4", ExprSyntaxError, 8),
    ("seed x", ExprSyntaxError, 6),
    ("seed ٣", UnknownToken, 6),
    # mode
    ("mode", ExprSyntaxError, 5),
    ("mode xml", ExprSyntaxError, 6),
    ("mode json extra", ExprSyntaxError, 11),
    # ':' belongs to dim only
    ("eval a : a", ExprSyntaxError, 8),
    ("let b = a : a", ExprSyntaxError, 11),
    ("stream B = A : 1", ExprSyntaxError, 14),
    # the boolean words name no dimension and no enum symbol
    ("dim true : int", ExprSyntaxError, 5),
    ("dim m : enum{true, Fe}", ExprSyntaxError, 14),
    ("dim m : enum{A, false}", ExprSyntaxError, 17),
    # quit takes no argument
    ("quit now", ExprSyntaxError, 6),
    (" quit\t# bye", ExprSyntaxError, 7),
]


@pytest.mark.parametrize("line, error, position", ERRORS)
def test_command_error_position_counts_from_the_line(line, error, position):
    s = session()
    before = (dict(s.env.bindings), dict(s.equations), s.mode)
    with pytest.raises(error) as info:
        run_command(s, line)
    assert type(info.value) is error
    assert info.value.position == position
    assert f"at position {position}" in str(info.value)
    assert (dict(s.env.bindings), dict(s.equations), s.mode) == before


# A plain context literal is one token; where a grammar takes no context
# literal, the error names its '{' at the literal's column, or the token
# after the '{' where the grammar takes a '{' (an enum domain).
REFUSED_LITERALS = [
    ("eval {(d,1)} {(d,2)}", "unexpected '{' at position 14"),
    ("show {(d,1)}", "unexpected '{' at position 6"),
    ("stream A = {(d,1)}", "unexpected '{' at position 12"),
    ("stream B = 1 fby {(d,2)}", "unexpected '{' at position 18"),
    ("eval <{(d,1)}, 1>", "expected 'name' but found '{' at position 7"),
    ("eval {(d,1), {(d,2)}}", "expected '(' but found '{' at position 14"),
    ("eval {d, {(d,1)}}", "expected 'name' but found '{' at position 10"),
    ("dim {(d,1)} : int", "expected 'name' but found '{' at position 5"),
    ("seed {(d,1)}", "expected 'int' but found '{' at position 6"),
    ("let {(d,1)} = 3", "expected 'name' but found '{' at position 5"),
    ("eval {{(d,1)} {(d,2)}}", "expected '}' but found '{' at position 15"),
    ("eval Box[d | d == 1 {(d,1)}]", "expected ']' but found '{' at position 21"),
    ("dim m : enum { (a, 1)}", "expected 'name' but found '(' at position 16"),
    # and so is a plain set literal, by its own '{'
    ("show {{(d,1)}}", "unexpected '{' at position 6"),
    ("eval {{(d,1)}} {{(d,2)}}", "unexpected '{' at position 16"),
    ("let {{(d,1)}} = 3", "expected 'name' but found '{' at position 5"),
    ("eval <{{(d,1)}}, 1>", "expected 'name' but found '{' at position 7"),
    ("dim m : enum {{(d,1)}}", "expected 'name' but found '{' at position 15"),
]


@pytest.mark.parametrize("line, message", REFUSED_LITERALS)
def test_a_context_literal_where_none_is_taken_is_named_by_its_brace(line, message):
    with pytest.raises(ExprSyntaxError) as info:
        run_command(session(), line)
    assert type(info.value) is ExprSyntaxError
    assert str(info.value) == message
    assert info.value.position == int(message.rsplit(" ", 1)[1])


def test_unknown_command_names_the_word():
    with pytest.raises(ExprSyntaxError) as info:
        run_command(session(), "  frobnicate $")
    assert str(info.value) == "unknown command 'frobnicate'"
    assert info.value.position == 3


# The lowest digit limit sys.set_int_max_str_digits takes, besides 0.
_LOWEST_LIMIT = 640


@pytest.mark.parametrize("template, position, limit", [
    ("eval {{(d, {})}}", 11, None),
    ("seed -{}", 7, None),
    ("dim k : int 1 {}", 15, None),
    ("stream B = 1 fby {}", 18, None),
    ("show A {}", 8, None),
    # inside a plain context literal the column is that of the digits
    ("eval {{(d, -{})}}", 12, None),
    ("eval {{(d, 1), (e, {})}}", 19, None),
    ("eval {{{{(d, 1)}}, {{(e, {})}}}}", 22, None),
    ("eval {{(d, {})}}", 11, _LOWEST_LIMIT),
], ids=["eval", "seed", "dim", "stream", "show", "negative", "second pair",
        "second member", "lowered limit"])
def test_an_integer_literal_past_the_digit_limit_is_a_syntax_error(
        template, position, limit):
    """The limit is read when the line is read: one digit past it, whatever
    it is set to, is a syntax error at the digits' column."""
    saved = sys.get_int_max_str_digits()
    limit = limit or saved
    sys.set_int_max_str_digits(limit)
    try:
        with pytest.raises(ExprSyntaxError) as info:
            run_command(session(), template.format("9" * (limit + 1)))
    finally:
        sys.set_int_max_str_digits(saved)
    assert info.value.position == position
    assert str(info.value) == (
        f"integer literal longer than {limit} digits at position {position}")


@pytest.mark.parametrize("mode", ["plain", "json"])
def test_a_stream_value_past_the_digit_limit_is_a_typed_error(mode):
    s = new_session(mode=mode)
    run_command(s, "stream P = 2 fby (P * P)")
    # P at time t is 2 ** 2 ** t; 2 ** 16384 has 4,933 digits
    assert len(run_command(s, "show P time 14")) == 1
    with pytest.raises(ContextCalcError) as info:
        run_command(s, "show P time 15")
    assert str(info.value) == (
        f"the value at time 14 has more than {sys.get_int_max_str_digits()} digits")


def test_load_and_quit_take_a_tab_after_the_command_word(tmp_path):
    path = tmp_path / "tabs.ctx"
    path.write_text("dim\td : int\nquit\t\neval {(d, 1)}\n")
    s = new_session()
    assert run_command(s, f"load\t{path}") == ["dim d : int"]


# --- the session's equations ------------------------------------------------------


def test_show_passes_the_session_equations_without_copying(monkeypatch):
    s = session()
    seen = []
    eval_prefix = streams.eval_prefix

    def spy(expr, dim, count, eqs, *rest):
        seen.append(eqs)
        return eval_prefix(expr, dim, count, eqs, *rest)

    monkeypatch.setattr(streams, "eval_prefix", spy)
    assert run_command(s, "show A 2") == ["1 2"]
    assert isinstance(s.equations, streams.EquationSet)
    assert seen[0] is s.equations


def test_second_stream_definition_is_refused():
    s = session()
    run_command(s, "stream X = 1")
    before = dict(s.equations)
    with pytest.raises(DuplicateName):
        run_command(s, "stream X = 2")
    # a duplicate name is reported before an unresolved reference
    with pytest.raises(DuplicateName):
        run_command(s, "stream X = Nope")
    assert s.equations == before
    assert run_command(s, "show X 2") == ["1 1"]


def test_equation_set_refuses_unknown_names():
    eqs = streams.EquationSet()
    eqs.add("X", streams.Next(streams.Ref("X")))
    with pytest.raises(UnresolvedReference):
        eqs["Y"]
    with pytest.raises(UnresolvedReference):
        eqs.add("Z", streams.Ref("Y"))
    assert eqs == {"X": streams.Next(streams.Ref("X"))}


def test_too_deep_demand_is_typed_and_the_repl_goes_on():
    out, err = io.StringIO(), io.StringIO()
    lines = "stream N = 0 fby N + 1\nshow (N @.time 5000) time 1\nshow N time 3\n"
    assert repl(new_session(), io.StringIO(lines), out, err) == 0
    assert out.getvalue() == "stream N\n0 1 2\n"
    assert err.getvalue().startswith("error: stream demand nests too deeply")


def test_a_nested_demand_takes_one_host_frame_per_node():
    # N at time 300 nests 900 demands (N, fby, +) under the recursion
    # limit of 1000, which only one frame per evaluated node leaves room for
    session = new_session()
    run_command(session, "stream N = 0 fby N + 1")
    assert run_command(session, "show (N @.time 300) time 1") == ["300"]


def test_one_budget_bounds_a_whole_show_line():
    # each value of A costs two units, so 40 values fit a budget of 100
    # and 1000 do not, although every single position would
    out, err = io.StringIO(), io.StringIO()
    lines = "stream A = [1, 2]\nshow A 40\nshow A 1000\nshow A 3\n"
    assert repl(new_session(budget=100), io.StringIO(lines), out, err) == 0
    assert out.getvalue().splitlines() == [
        "stream A", " ".join(["1", "2"] + ["nil"] * 38), "1 2 nil"]
    assert err.getvalue() == "error: demand budget exhausted\n"
    # a constant costs one unit per value
    assert run_command(new_session(budget=100), "show 1 100") == [" ".join(["1"] * 100)]
    with pytest.raises(DemandExhausted):
        run_command(new_session(budget=100), "show 1 101")


# --- defects ---------------------------------------------------------------------
# A raw exception is a defect.  The REPL and the file runner report it as a
# typed InternalError that names it; run_command itself lets it through, so
# the fuzz test below still sees it.


def _raise_value_error(session, cur):
    raise ValueError("boom")


def test_a_raw_exception_is_an_internal_error_and_the_repl_goes_on(monkeypatch):
    monkeypatch.setitem(cli._HANDLERS, "eval", _raise_value_error)
    out, err = io.StringIO(), io.StringIO()
    lines = "dim d : int\neval {(d, 1)}\nlet c = {(d, 2)}\nquit\neval {(d, 3)}\n"
    assert repl(new_session(), io.StringIO(lines), out, err) == 0
    assert out.getvalue() == "dim d : int\nc = {(d, 2)}\n"
    # quit still ends the session: the last line never runs
    assert err.getvalue() == "error: internal error: ValueError: boom\n"
    with pytest.raises(ValueError):
        run_command(new_session(), "eval {(d, 1)}")


def test_a_raw_exception_stops_a_script_or_a_load_at_its_line(monkeypatch, tmp_path):
    monkeypatch.setitem(cli._HANDLERS, "eval", _raise_value_error)
    path = tmp_path / "defect.ctx"
    path.write_text("dim d : int\neval {(d, 1)}\ndim e : int\n")
    out, err = io.StringIO(), io.StringIO()
    assert run_script(str(path), out=out, err=err) == 1
    assert out.getvalue() == "dim d : int\n"
    assert err.getvalue() == "error: line 2: internal error: ValueError: boom\n"
    s = new_session()
    with pytest.raises(ContextCalcError) as info:
        run_command(s, f"load {path}")
    assert str(info.value) == f"{path} line 2: internal error: ValueError: boom"
    assert isinstance(info.value.__cause__, InternalError)
    assert s.loading == set()


# --- fuzz -----------------------------------------------------------------------
# Random command lines: a command word, then a soup of lexer symbols,
# keywords, names, strings, small integers and a few whole operands.
# Whatever the line, only a typed ContextCalcError may leave run_command.

_FUZZ_SETUP = SETUP + (
    "dim m : enum { P, Q }",
    "let s = {{(d, 1)}, {(d, 2), (e, 3)}}",
    "stream N = 0 fby N + 1",
    "stream G = N wvr (N > 2)",
)
_SOUP = st.sampled_from(
    [*SYMBOLS, *sorted(streams.KEYWORDS),
     "Box", "int", "str", "bool", "enum", "time", "plain", "json",
     "d", "e", "m", "P", "a", "s", "A", "N", "G", "X",
     '"s"', '""', *"0123456789",
     # a few well-formed operands, so more lines get past the parser
     "{(e, 2)}", "{d}", "N + 1", "(N > 2)",
     # one digit past the longest literal that int() converts from text
     "9" * (sys.get_int_max_str_digits() + 1)]
)
_FUZZ_LINE = st.builds(
    lambda word, soup: " ".join([word, *soup]),
    st.sampled_from(["dim", "let", "stream", "show", "eval", "seed", "mode"]),
    st.lists(_SOUP, max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_FUZZ_LINE, min_size=1, max_size=3))
def test_random_command_lines_raise_only_typed_errors(lines):
    s = new_session(seed=3, budget=20_000)
    for line in _FUZZ_SETUP:
        run_command(s, line)
    for line in lines:
        try:
            run_command(s, line)
        except ContextCalcError:
            pass


# --- files ----------------------------------------------------------------------


def test_load_and_script_share_one_file_loop(tmp_path):
    inner = tmp_path / "inner.ctx"
    inner.write_text("dim d : int\nquit\neval nope\n")
    outer = tmp_path / "outer.ctx"
    outer.write_text(f"load {inner}\neval {{(d, 2)}}\neval nope\n")
    out, err = io.StringIO(), io.StringIO()
    # quit ends the loaded file only; the outer one stops at its line 3
    assert run_script(str(outer), out=out, err=err) == 1
    assert out.getvalue() == "dim d : int\n{(d, 2)}\n"
    assert err.getvalue().startswith("error: line 3: ")


def test_load_reports_the_file_and_line(tmp_path):
    inner = tmp_path / "inner.ctx"
    inner.write_text("dim d : int\nseed +3\n")
    with pytest.raises(ContextCalcError) as info:
        run_command(new_session(), f"load {inner}")
    assert str(info.value).startswith(f"{inner} line 2: ")
    with pytest.raises(ContextCalcError, match="cannot read"):
        run_command(new_session(), f"load {tmp_path / 'missing.ctx'}")


def test_a_file_that_loads_itself_is_refused(tmp_path):
    path = tmp_path / "self.ctx"
    # the file names itself by another spelling of the same path
    path.write_text(f"stream A = 1\nload {tmp_path / '.' / 'self.ctx'}\n")
    s = new_session()
    with pytest.raises(ContextCalcError) as info:
        run_command(s, f"load {path}")
    assert type(info.value) is ContextCalcError
    assert "load cycle" in str(info.value) and "self.ctx" in str(info.value)
    assert str(info.value).startswith(f"{path} line 2: ")
    assert run_command(s, "show A 2") == ["1 1"]
    assert s.loading == set()


def test_a_load_cycle_through_two_files_is_refused(tmp_path):
    a, b = tmp_path / "a.ctx", tmp_path / "b.ctx"
    a.write_text(f"load {b}\n")
    b.write_text(f"dim d : int\nload {a}\n")
    s = new_session()
    with pytest.raises(ContextCalcError, match=f"load cycle: '{a}'"):
        run_command(s, f"load {a}")
    assert run_command(s, "eval {(d, 1)}") == ["{(d, 1)}"]
    err = io.StringIO()
    assert run_script(str(b), out=io.StringIO(), err=err) == 1
    assert "load cycle" in err.getvalue()


def test_a_file_may_be_loaded_twice_without_a_cycle(tmp_path):
    leaf = tmp_path / "leaf.ctx"
    leaf.write_text("eval {(d, 3)}\n")
    top = tmp_path / "top.ctx"
    top.write_text(f"dim d : int\nload {leaf}\nload {leaf}\n")
    s = new_session()
    assert run_command(s, f"load {top}") == ["dim d : int", "{(d, 3)}", "{(d, 3)}"]
    assert run_command(s, f"load {leaf}") == ["{(d, 3)}"]


# --- tokens and string tags ---------------------------------------------------------


def test_token_is_a_named_tuple():
    tok = tokenize("  abc")[0]
    assert isinstance(tok, tuple) and tok == Token(NAME, "abc", 2)
    assert (tok.kind, tok.text, tok.pos, tok.column) == (NAME, "abc", 2, 3)


def test_string_escapes():
    assert tokenize(r'"a\"b\\c\d"')[0].text == 'a"b\\cd'
    with pytest.raises(ExprSyntaxError, match="unterminated"):
        tokenize(r'"a\"')


@settings(max_examples=200, deadline=None)
@given(st.text())
def test_string_tags_print_back_as_text_that_parses(text):
    registry = DimensionRegistry()
    registry.register("s", TagKind.STR)
    context = make_context(registry, [("s", text)])
    env = Environment(registry=registry, rng=random.Random(0))
    assert evaluate(parse_expr(str(context)), env) == context
