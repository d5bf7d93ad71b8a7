import io
import json

import pytest

from ctxcalc.cli import main, new_session, repl, run_command, run_script
from ctxcalc.errors import (
    ContextCalcError,
    DuplicateName,
    ExprSyntaxError,
    UnboundVariable,
)


def run_lines(session, lines):
    out = []
    for line in lines:
        out.extend(run_command(session, line))
    return out


EXAMPLE_SETUP = [
    "dim x : int",
    "dim y : int",
    "dim z : int",
    "dim w : int",
    "let c1 = {(x,3),(y,4),(z,5)}",
    "let c2 = {(y,5)}",
    "let c3 = {(x,5),(y,6),(w,5)}",
]


def test_dim_and_let_and_eval():
    session = new_session(seed=1)
    out = run_lines(session, EXAMPLE_SETUP)
    assert out[0] == "dim x : int"
    assert "c1 = {(x, 3), (y, 4), (z, 5)}" in out
    result = run_command(session, "eval c3 ^ {w} (+) c1 | c2")
    assert result == ["{(x, 3), (y, 4), (z, 5)}"]
    run_command(session, "seed 0")
    result = run_command(session, "eval c3 ^ {w} (+) c1 | c2")
    assert result == ["{(x, 5), (y, 5)}"]


def test_comments_and_blank_lines():
    session = new_session()
    assert run_command(session, "") == []
    assert run_command(session, "   # a comment") == []


def test_unknown_command():
    session = new_session()
    with pytest.raises(ExprSyntaxError):
        run_command(session, "frobnicate x")


def test_error_leaves_session_unchanged():
    session = new_session()
    run_command(session, "dim d : int")
    run_command(session, "let a = {(d, 1)}")
    before = dict(session.env.bindings)
    with pytest.raises(UnboundVariable):
        run_command(session, "let b = missing (+) a")
    assert session.env.bindings == before
    with pytest.raises(ContextCalcError):
        run_command(session, "eval undefined_name")
    assert session.env.bindings == before


def test_stream_show_and_duplicate():
    session = new_session()
    run_command(session, "stream A = [1,2,3,4,5]")
    run_command(session, "stream B = [0,0,1,0,1]")
    assert run_command(session, "show (A wvr B) time 2") == ["3 5"]
    assert run_command(session, "show (A fby B) time 5") == ["1 0 0 1 0"]
    assert run_command(session, "show (prev A) time 3") == ["nil 1 2"]
    assert run_command(session, "show #.time time 4") == ["0 1 2 3"]
    # defaults: time dimension, ten positions
    assert run_command(session, "show A") == ["1 2 3 4 5 nil nil nil nil nil"]
    assert run_command(session, "show A 3") == ["1 2 3"]
    with pytest.raises(DuplicateName):
        run_command(session, "stream A = [9]")


def test_stream_forward_reference_rejected():
    session = new_session()
    with pytest.raises(ContextCalcError):
        run_command(session, "stream X = Y")
    assert session.equations == {}


def test_enum_dimension_command():
    session = new_session()
    out = run_command(session, "dim month : enum{Ja,Fe,Mr}")
    assert out == ["dim month : enum{Ja,Fe,Mr}"]
    assert run_command(session, "eval {(month, Ja)} <=> {(month, Mr)}") == [
        "{{(month, Fe)}, {(month, Ja)}, {(month, Mr)}}"
    ]


def test_dim_with_domain():
    session = new_session()
    run_command(session, "dim k : int 1 2 3")
    with pytest.raises(ContextCalcError):
        run_command(session, "let a = {(k, 9)}")


def test_box_binding_and_eval():
    session = new_session()
    run_command(session, "dim d1 : int 1 2 3")
    run_command(session, "dim d2 : int 1 2 3")
    run_command(session, "let b = Box[d1,d2 | d1 < d2]")
    out = run_command(session, "eval b")
    assert out == ["Box[d1, d2 | d1 < d2]"]
    out = run_command(session, "eval b [&] b")
    assert "{(d1, 1), (d2, 2)}" in out[0]


def test_a_box_bound_by_let_enumerates_alike_on_every_use():
    # the Box is built and planned once, by let; each use walks the plan
    session = new_session()
    run_lines(session, ["dim x : int 1 2 3 4", "dim y : int 1 2 3 4",
                        "let B = Box[x, y | x + y == 5 and x < 4]"])
    first = run_command(session, "eval B ! {x}")
    assert first == ["{{(x, 1)}, {(x, 2)}, {(x, 3)}}"]
    assert run_command(session, "eval B ! {x}") == first


def test_json_mode_records_and_round_trip():
    session = new_session()
    run_lines(session, ["dim d : int", "dim e : int", "mode json"])
    out = run_command(session, "eval {(d,1),(e,4)} ! {d}")
    record = json.loads(out[0])
    assert record["kind"] == "context"
    # a printed context reparses, via let, to an equal value
    run_command(session, f"let copy = {record['value']}")
    assert run_command(session, f"eval copy == {record['value']}") == [
        json.dumps({"kind": "bool", "value": True})
    ]
    # bindings and mode changes are silent in json mode
    assert run_command(session, "let q = {(d, 2)}") == []
    out = run_command(session, "eval {(d,1)} <=> {(d,2)}")
    assert json.loads(out[0])["kind"] == "context_set"


def test_json_stream_prefix():
    session = new_session()
    run_lines(session, ["mode json", "stream A = [1,2,3]"])
    out = run_command(session, "show (prev A) time 3")
    assert json.loads(out[0]) == {"kind": "stream_prefix", "value": [None, 1, 2]}
    out = run_command(session, "show (A == A) time 2")
    assert json.loads(out[0]) == {"kind": "stream_prefix", "value": [1, 1]}


def test_quit_stops_script(tmp_path):
    script = tmp_path / "s.ctx"
    script.write_text("dim d : int\nquit\nbad command here\n")
    buffer = io.StringIO()
    assert run_script(str(script), out=buffer) == 0
    assert buffer.getvalue() == "dim d : int\n"


def test_run_script_reports_failing_line(tmp_path):
    script = tmp_path / "s.ctx"
    script.write_text("dim d : int\nlet a = {(d, 1)}\neval nope\n")
    buffer, errors = io.StringIO(), io.StringIO()
    code = run_script(str(script), out=buffer, err=errors)
    assert code == 1
    assert "line 3" in errors.getvalue()


def test_run_script_empty(tmp_path):
    script = tmp_path / "s.ctx"
    script.write_text("")
    buffer = io.StringIO()
    assert run_script(str(script), out=buffer) == 0
    assert buffer.getvalue() == ""


def test_run_script_missing_file():
    errors = io.StringIO()
    assert run_script("/nonexistent/path.ctx", err=errors) == 2
    assert "cannot read" in errors.getvalue()


def test_a_file_that_is_not_utf8_cannot_be_read(tmp_path):
    script = tmp_path / "latin1.ctx"
    script.write_bytes(b"# caf\xe9\ndim d : int\n")
    out, errors = io.StringIO(), io.StringIO()
    assert run_script(str(script), out=out, err=errors) == 2
    assert out.getvalue() == ""
    assert errors.getvalue().startswith(f"error: cannot read {str(script)!r}: ")
    assert "can't decode byte 0xe9" in errors.getvalue()
    session = new_session()
    with pytest.raises(ContextCalcError) as info:
        run_command(session, f"load {script}")
    assert type(info.value) is ContextCalcError
    assert str(info.value).startswith(f"cannot read {str(script)!r}: ")
    # nothing of the file ran, and the session is not left loading it
    assert run_command(session, "dim d : int") == ["dim d : int"]
    assert not session.loading
    out, errors = io.StringIO(), io.StringIO()
    assert repl(new_session(), io.StringIO(f"load {script}\n"), out, errors) == 0
    assert errors.getvalue().startswith(f"error: cannot read {str(script)!r}: ")


def test_load_command(tmp_path):
    inner = tmp_path / "inner.ctx"
    inner.write_text("dim d : int\nlet a = {(d, 7)}\n")
    session = new_session()
    out = run_command(session, f"load {inner}")
    assert out == ["dim d : int", "a = {(d, 7)}"]
    assert run_command(session, "eval a") == ["{(d, 7)}"]


def test_load_error_names_file_and_line(tmp_path):
    inner = tmp_path / "inner.ctx"
    inner.write_text("dim d : int\neval broken$\n")
    session = new_session()
    with pytest.raises(ContextCalcError) as err:
        run_command(session, f"load {inner}")
    assert "line 2" in str(err.value)


def test_script_determinism_in_process(tmp_path):
    script = tmp_path / "s.ctx"
    script.write_text(
        "dim d : int\n"
        "let a = {(d, 1)}\n"
        "let b = {(d, 2)}\n"
        "eval a | b\n"
        "eval a | b\n"
        "eval a | b\n"
    )
    transcripts = []
    for _ in range(2):
        buffer = io.StringIO()
        assert run_script(str(script), new_session(seed=9), out=buffer) == 0
        transcripts.append(buffer.getvalue())
    assert transcripts[0] == transcripts[1]


def test_main_runs_script(tmp_path, capsys):
    script = tmp_path / "s.ctx"
    script.write_text("dim d : int\neval {(d, 1)}\n")
    assert main(["--script", str(script)]) == 0
    captured = capsys.readouterr()
    assert "{(d, 1)}" in captured.out
