"""Tests of the benchmark itself: generator determinism, the reference
checker against hand-written rows, and the self-time arithmetic."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _lines(wl):
    return [(c.text, c.expect) for c in wl.prefix + wl.commands]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_lines(name):
    first = workloads.build(name, 7)
    assert _lines(first) == _lines(workloads.build(name, 7))
    assert len(first.commands) >= 200
    assert _lines(first) != _lines(workloads.build(name, 8))


# --- reference rows of the worked examples ------------------------------------


def _ctx(*pairs):
    return ("ctx", pairs)


def _bin(op, left, right):
    return ("bin", op, left, right)


@pytest.fixture
def session():
    s = ref.RefSession(0)
    for d in "defxyzw":
        s.dim(d)
    return s


def test_reference_projection_hiding_substitution(session):
    c1 = _ctx(("d", 1), ("e", 4), ("f", 3))
    de = ("dims", ("d", "e"))
    assert session.eval(_bin("!", c1, de)) == ("ok", "{(d, 1), (e, 4)}")
    assert session.eval(_bin("^", c1, de)) == ("ok", "{(f, 3)}")
    got = session.eval(_bin("/", _ctx(("d", 1), ("e", 4), ("d", 3)), _ctx(("d", 4), ("f", 3))))
    assert got == ("ok", "{(d, 4), (e, 4)}")


def test_reference_range_rows(session):
    grid = session.eval(_bin("<=>", _ctx(("e", 3), ("d", 1)), _ctx(("e", 1), ("d", 3))))
    rows = [f"{{(d, {i}), (e, {j})}}" for i in (1, 2, 3) for j in (1, 2, 3)]
    assert grid == ("ok", "{" + ", ".join(rows) + "}")
    assert session.eval(_bin("<=>", _ctx(("e", 3)), _ctx(("f", 4)))) == (
        "ok", "{{(e, 3), (f, 4)}}")
    assert session.eval(_bin("<=>", _ctx(("e", 3)), _ctx(("e", 1), ("f", 4)))) == (
        "ok", "{{(e, 1), (f, 4)}, {(e, 2), (f, 4)}, {(e, 3), (f, 4)}}")
    assert session.eval(_bin("=>", _ctx(("d", 1)), _ctx(("d", 3), ("f", 4)))) == (
        "ok", "{{(d, 1), (f, 4)}, {(d, 2), (f, 4)}, {(d, 3), (f, 4)}}")
    # an ignored directed pair drops its dimension
    assert session.eval(_bin("=>", _ctx(("d", 3), ("f", 4)), _ctx(("d", 1)))) == (
        "ok", "{{(f, 4)}}")
    assert session.eval(_bin("=>", _ctx(("d", 2)), _ctx(("d", 2)))) == ("ok", "{{}}")


def test_reference_choice_follows_the_seeded_rng(session):
    for name, pairs in (("k1", (("x", 3), ("y", 4), ("z", 5))), ("k2", (("y", 5),)),
                        ("k3", (("x", 5), ("y", 6), ("w", 5)))):
        session.let(name, ("ctx", pairs))
    expr = _bin("(+)", _bin("^", ("var", "k3"), ("dims", ("w",))),
                _bin("|", ("var", "k1"), ("var", "k2")))
    session.seed(1)
    assert session.eval(expr) == ("ok", "{(x, 3), (y, 4), (z, 5)}")
    session.seed(0)
    assert session.eval(expr) == ("ok", "{(x, 5), (y, 5)}")


def test_reference_typed_errors(session):
    assert session.eval(_bin("(+)", _ctx(("d", 1)), _ctx(("e", 1), ("e", 2)))) == (
        "err", "NonSimpleOperand")
    assert session.eval(_bin("><", _ctx(("d", 1)), _ctx(("e", 2)))) == ("err", "KindMismatch")
    assert session.eval(_ctx(("q", 1))) == ("err", "UnknownDimension")


STREAM_ROWS = (
    (("first", ("ref", "A")), 5, "1 1 1 1 1"),
    (("next", ("ref", "A")), 4, "2 3 4 5"),
    (("prev", ("ref", "A")), 5, "nil 1 2 3 4"),
    (("fby", ("ref", "A"), ("ref", "B")), 5, "1 0 0 1 0"),
    (("wvr", ("ref", "A"), ("ref", "B")), 2, "3 5"),
    (("asa", ("ref", "A"), ("ref", "B")), 3, "3 3 3"),
    (("upon", ("ref", "A"), ("ref", "B")), 5, "1 1 1 2 2"),
    (("at", ("ref", "P"), ("ref", "Q")), 8, "2 4 8 1 64 128 16 32"),
    (("time",), 8, "0 1 2 3 4 5 6 7"),
)


@pytest.mark.parametrize("node, count, row", STREAM_ROWS)
def test_reference_stream_rows(session, node, count, row):
    for name, values in (("A", (1, 2, 3, 4, 5)), ("B", (0, 0, 1, 0, 1)),
                         ("P", (1, 2, 4, 8, 16, 32, 64, 128)),
                         ("Q", (1, 2, 3, 0, 6, 7, 4, 5))):
        assert session.stream(name, ("lit", values), set())[0] == "ok"
    assert session.show(node, count, workloads.srefs(node)) == ("ok", row)


def test_reference_counter_is_filled_without_recursion():
    s = ref.RefSession(0)
    n = ("fby", ("const", 0), ("pw", "+", ("ref", "N"), ("const", 1)))
    s.stream("N", n, {"N"})
    assert s.show(("at", ("ref", "N"), ("const", 5000)), 1, {"N"}) == ("ok", "5000")


# --- outcome classification -----------------------------------------------------


def test_outcome_classification():
    ok = workloads.Command("eval x", ("ok", "{}"), "eval")
    bad = workloads.Command("eval $", ("err", "ExprSyntaxError"), "malformed")
    typed = ["UnbalancedParens", "ExprSyntaxError", "ContextCalcError", "Exception"]
    raw = ["ValueError", "Exception"]
    d = run.digest("{}")
    assert run.outcome(ok, ["ok", d, "", 0.0], d) == "match"
    assert run.outcome(ok, ["ok", "other", "", 0.0], d) == "wrong"
    assert run.outcome(ok, ["err", raw, "", 0.0], d) == "failed"
    assert run.outcome(bad, ["err", typed, "", 0.0], None) == "match"
    assert run.outcome(bad, ["err", raw, "", 0.0], None) == "failed"
    assert run.outcome(bad, ["ok", d, "", 0.0], None) == "wrong"


def test_times_are_scaled_by_the_neighbouring_probes():
    ref = run.PROBE_REF_S
    out = {"results": [["ok", "", "", 0.030], ["ok", "", "", 0.010]],
           "probes": [2 * ref, 4 * ref, ref]}
    assert run.scaled_latencies(out) == pytest.approx([0.010, 0.004])
    setup = {"setup_s": 0.3, "setup_probes": [ref, 3 * ref, 3 * ref]}
    assert run.scaled_setup(setup) == pytest.approx(0.1)


def test_checker_excuses_only_known_defects():
    """A known-defect line may fail and the run stays correct; any other
    line that fails, by a raw exception or the wrong typed error, makes
    the run incorrect."""
    wl = workloads.Workload("t", commands=[
        workloads.Command("eval x", ("ok", "{}"), "eval"),
        workloads.Command("eval $", ("err", "UnknownToken"), "malformed"),
        workloads.Command("eval {(d,\u00b2)}", ("err", "ContextCalcError"), "known_defect"),
    ])
    d = run.digest("{}")
    raw = ["err", ["ValueError", "Exception"], "", 0.0]
    typed = ["err", ["UnknownToken", "ContextCalcError", "Exception"], "", 0.0]
    other = ["err", ["ExprSyntaxError", "ContextCalcError", "Exception"], "", 0.0]

    def check(*results):
        checker = run.Checker(wl)
        checker.check_pass({"prefix": [], "results": list(results)})
        return checker

    c = check(["ok", d, "", 0.0], typed, raw)
    assert c.correct and (c.attempted, c.failed, c.wrong) == (3, 1, 0)
    assert not check(raw, typed, raw).correct
    assert not check(["ok", d, "", 0.0], other, raw).correct
    assert not check(["ok", "other", "", 0.0], typed, raw).correct


# --- self-time arithmetic ---------------------------------------------------------


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        [0, -1, "cli", 0.0, 10.0],
        [0, 0, "lexer", 1.0, 3.0],
        [0, 0, "parser", 3.0, 7.0],
        [0, 2, "lexer", 4.0, 5.0],
        [0, 0, "trace", 7.0, 7.5],
        [1, -1, "cli", 20.0, 24.0],
        [1, 5, "streams.eval", 20.5, 23.0],
    ]
    assert tracing.self_times(spans) == [3.5, 2.0, 3.0, 1.0, 0.5, 1.5, 2.5]
    per_layer, gap = tracing.layer_self_times(spans)
    assert per_layer == {"cli": 5.0, "lexer": 3.0, "parser": 3.0, "trace": 0.5,
                         "streams.eval": 2.5}
    assert gap == 0.0


def test_self_time_counts_overlapping_children_once():
    spans = [[0, -1, "cli", 0.0, 10.0], [0, 0, "ops", 2.0, 6.0], [0, 0, "sets", 4.0, 8.0]]
    assert tracing.self_times(spans)[0] == 4.0


def test_loglog_slope_fits_within_groups():
    quad = [("a", n, 1e-6 * n * n) for n in (10, 20, 40, 80)]
    quad += [("b", n, 5e-6 * n * n) for n in (15, 30)]
    assert tracing.loglog_slope(quad) == pytest.approx(2.0)
    assert tracing.loglog_slope([("a", 10, 1.0)]) == 0.0


def test_traced_run_wraps_and_unwinds(tmp_path):
    """A tiny traced session: spans nest, self times add up, counts land."""
    src = BENCH.parent / "src"
    code = f"""
import json, sys
sys.path[:0] = [{str(src)!r}, {str(BENCH)!r}]
from ctxcalc import cli
import tracing
t = tracing.Tracer(); t.install()
run = t.command_runner(cli)
s = cli.new_session()
for line in ("dim d : int", "eval {{(d,1)}} (+) {{(d,2)}}", "stream N = 0 fby N + 1",
             "show (N wvr (N > 2)) time 3"):
    print(run(s, line))
print(json.dumps(t.report(s)))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1] == "['{(d, 2)}']" and lines[3] == "['3 4 5']"
    rep = json.loads(lines[-1])
    assert rep["self_sum_gap_s"] < 1e-9
    assert rep["counts"]["ops.calls"] == 1 and rep["counts"]["streams.eval.calls"] == 1
    assert rep["counts"]["model.micro_built"] >= 2


def test_run_fails_without_the_package(tmp_path):
    """In a directory holding only the benchmark, run.py exits non-zero
    and prints no result."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eduction", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
