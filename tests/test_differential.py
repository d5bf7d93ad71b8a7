"""Set expressions run through the REPL and through the benchmark's
independent reference model (``perfbench/reference.py``), compared line by
line: the printed value, or the class of the typed error.

The trees are drawn as the reference takes them, tuples, and rendered to
command text by the benchmark's own printer (``workloads.ctext``).  They
nest sets, ``<=>`` and ``=>`` ranges and the eight set operators ``><``,
``[&]``, ``[+]``, ``(+)``, ``(-)``, ``!``, ``^`` and ``/`` to depth 3, over
four int dimensions with the domain 0..3.  A set literal may hold a
non-simple member, and a range a non-simple operand, so the typed errors
are compared too.  The oracles in ``test_sets.py`` compare values with
``==``, which cannot see a duplicate row; this compares printed text, which
can.
"""

import sys
from pathlib import Path

from hypothesis import given, settings
import hypothesis.strategies as st

from ctxcalc import cli
from ctxcalc.errors import ContextCalcError

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import reference  # noqa: E402
import workloads  # noqa: E402

DIMS = "abcd"
DOMAIN = (0, 1, 2, 3)
PAIRWISE = ("><", "[&]", "[+]", "(+)", "(-)")

pair_st = st.tuples(st.sampled_from(DIMS), st.sampled_from(DOMAIN))
simple_ctx_st = st.dictionaries(
    st.sampled_from(DIMS), st.sampled_from(DOMAIN), max_size=3).map(
    lambda pairs: ("ctx", tuple(pairs.items())))
# up to three pairs, so a dimension may be bound twice: a non-simple context
any_ctx_st = st.lists(pair_st, max_size=3).map(lambda pairs: ("ctx", tuple(pairs)))
# a non-empty literal: "{}" reads as the empty context, not the empty set
set_lit_st = st.one_of(
    st.lists(simple_ctx_st, min_size=2, max_size=6),
    st.lists(any_ctx_st, min_size=1, max_size=3),
).map(lambda items: ("set", tuple(items)))


@st.composite
def range_st(draw):
    """A range whose operands share one or two dimensions, so that it
    sweeps up to 16 members, and each may carry one more pair: a residue,
    or a second tag on a shared dimension."""
    names = draw(st.lists(st.sampled_from(DIMS), min_size=1, max_size=2, unique=True))
    # the right operand's tags are drawn from the top down, so that the
    # draws that hypothesis favours sweep the whole domain
    left, right = (
        ("ctx", tuple((d, draw(st.sampled_from(tags))) for d in names)
         + tuple(draw(st.lists(pair_st, max_size=1))))
        for tags in (DOMAIN, DOMAIN[::-1]))
    return "bin", draw(st.sampled_from(["<=>", "=>"])), left, right


dims_st = st.lists(st.sampled_from(DIMS), min_size=1, max_size=3, unique=True).map(
    lambda names: ("dims", tuple(names)))
leaf_st = set_lit_st | range_st()


def set_expr(depth):
    """A tree whose value is a context set, nested ``depth`` deep at most."""
    if depth == 0:
        return leaf_st
    sub = set_expr(depth - 1)
    pairwise = st.builds(lambda op, left, right: ("bin", op, left, right),
                         st.sampled_from(PAIRWISE), sub, sub)
    # operators first: hypothesis favours the first branches of a one_of
    return st.one_of(
        pairwise,
        st.builds(lambda op, left, right: ("bin", op, left, right),
                  st.sampled_from(["!", "^"]), sub, dims_st),
        st.builds(lambda left, pair: ("bin", "/", left, ("pair", *pair)),
                  sub, pair_st),
        leaf_st,
    )


def new_sessions():
    session, ref = cli.new_session(seed=0), reference.RefSession(0)
    for d in DIMS:
        text = f"dim {d} : int " + " ".join(map(str, DOMAIN))
        assert cli.run_command(session, text) == [ref.dim(d, DOMAIN)[1]]
    return session, ref


def outcome(session, line):
    """``("ok", output text)`` or ``("err", the error's class names)``."""
    try:
        return "ok", "\n".join(cli.run_command(session, line))
    except ContextCalcError as exc:
        return "err", [c.__name__ for c in type(exc).__mro__]


@settings(deadline=None)
@given(set_expr(2), set_expr(2), dims_st, pair_st)
def test_set_expressions_print_what_the_reference_model_prints(
        left, right, names, pair):
    # every set operator over the same two operands, so that each draw
    # meets all eight at the top of a tree, where a wrong row would print
    session, ref = new_sessions()
    trees = [left, right, *(("bin", op, left, right) for op in PAIRWISE),
             ("bin", "!", left, names), ("bin", "^", left, names),
             ("bin", "/", left, ("pair", *pair))]
    for tree in trees:
        line = "eval " + workloads.ctext(tree)
        kind, got = outcome(session, line)
        want_kind, want = ref.eval(tree)
        assert kind == want_kind, (line, got, want)
        if kind == "ok":
            assert got == want, line
        else:
            assert want in got, (line, got)
