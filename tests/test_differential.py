"""Expressions run through the REPL and through the benchmark's independent
reference model (``perfbench/reference.py``), compared line by line: the
printed value, or the class of the typed error.

The trees are drawn as the reference takes them, tuples, and rendered to
command text by the benchmark's own printer (``workloads.ctext``), over
four int dimensions with the domain 0..3 and one, ``e``, with no domain,
whose tags are drawn from -1..2, so that a range over it sweeps the ints
between its tags and not a slice of a domain.  The first property nests sets,
``<=>`` and ``=>`` ranges and the eight set operators ``><``, ``[&]``,
``[+]``, ``(+)``, ``(-)``, ``!``, ``^`` and ``/`` to depth 3.  The others
draw context trees, of context literals and ``<d, t>`` pairs, under every
context operator; set trees with Box operands too; and operands of every
kind (context, set, Box, dimension set, boolean) under every operator.  A
Box ranges over ``a`` and ``b`` with a predicate of ``and``, ``or``,
``not``, comparisons, ``+`` and ``-``, drawn as a tree and rendered both
as text and as the Python function the reference takes.  A context
literal may bind a dimension twice, and a set literal may hold such a
member, so the typed errors are compared too.  The oracles in
``test_sets.py`` compare values with ``==``, which cannot see a duplicate
row; this compares printed text, which can.
"""

import operator
import sys
from functools import partial
from pathlib import Path

from hypothesis import given, settings
import hypothesis.strategies as st

from ctxcalc import cli
from ctxcalc.errors import ContextCalcError

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import reference  # noqa: E402
import workloads  # noqa: E402

DOMAIN = (0, 1, 2, 3)
# e is declared without a domain, and its tags are drawn from a window
OPEN, WINDOW = "e", (-1, 0, 1, 2)
TAGS = {**dict.fromkeys("abcd", DOMAIN), OPEN: WINDOW}
DIMS = "".join(TAGS)
PAIRWISE = ("><", "[&]", "[+]", "(+)", "(-)")

pair_st = st.sampled_from(DIMS).flatmap(
    lambda d: st.tuples(st.just(d), st.sampled_from(TAGS[d])))
simple_ctx_st = st.lists(pair_st, max_size=3, unique_by=lambda pair: pair[0]).map(
    lambda pairs: ("ctx", tuple(pairs)))
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
        ("ctx", tuple((d, draw(st.sampled_from(TAGS[d][::step]))) for d in names)
         + tuple(draw(st.lists(pair_st, max_size=1))))
        for step in (1, -1))
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
        domain = None if d == OPEN else DOMAIN
        text = f"dim {d} : int " + " ".join(map(str, domain or ()))
        assert cli.run_command(session, text.rstrip()) == [ref.dim(d, domain)[1]]
    return session, ref


def outcome(session, line):
    """``("ok", output text)`` or ``("err", the error's class names)``."""
    try:
        return "ok", "\n".join(cli.run_command(session, line))
    except ContextCalcError as exc:
        return "err", [c.__name__ for c in type(exc).__mro__]


def assert_same(session, line, want):
    """Run ``line`` in the REPL and compare with ``want``, the reference's
    ``("ok", text)`` or ``("err", error class name)``."""
    kind, got = outcome(session, line)
    assert kind == want[0], (line, got, want)
    if kind == "ok":
        assert got == want[1], line
    else:
        assert want[1] in got, (line, got)


def check_lines(trees, sessions=None):
    """Evaluate each tree in the REPL and in the reference, and compare,
    in ``sessions`` (new ones by default).  A bare Box is skipped: the
    reference cannot print one.  Each line runs from seed 0, so a choice
    picks alike whatever the lines before it picked."""
    session, ref = sessions or new_sessions()
    for tree in trees:
        if tree[0] == "box":
            continue
        assert cli.run_command(session, "seed 0") == [ref.seed(0)[1]]
        assert_same(session, "eval " + workloads.ctext(tree), ref.eval(tree))


@settings(deadline=None)
@given(set_expr(2), set_expr(2), dims_st, pair_st)
def test_set_expressions_print_what_the_reference_model_prints(
        left, right, names, pair):
    # every set operator over the same two operands, so that each draw
    # meets all eight at the top of a tree, where a wrong row would print
    check_lines([left, right, *(("bin", op, left, right) for op in PAIRWISE),
                 ("bin", "!", left, names), ("bin", "^", left, names),
                 ("bin", "/", left, ("pair", *pair))])


# --- slice 2: every operator, Box operands and mixed kinds ----------------------

CONTEXT_OPERATORS = ("(+)", "(-)", "&", "%", "/", "!", "^", "==", "<<=", ">>=",
                     "<=>", "=>", "|")
SET_OPERATORS = ("><", "[&]", "[+]", "(+)", "(-)", "!", "^", "/", "|")
# the operators that take a dimension set on the right
BY_DIMS = ("!", "^")

# A Box predicate: ("name", d), ("const", n), ("not", p) or (op, left, right).
COMPARISONS = ("==", "!=", "<", "<=", ">", ">=")
PREDICATE_OPS = {
    "or": lambda x, y: x or y, "and": lambda x, y: x and y,
    "+": operator.add, "-": operator.sub,
    **{op: getattr(operator, name) for op, name in zip(
        COMPARISONS, ("eq", "ne", "lt", "le", "gt", "ge"))},
}
# binding powers of the predicate grammar, loosest first; a leaf binds tightest
PREDICATE_LEVEL = {"or": 2, "and": 3, "not": 4, **dict.fromkeys(COMPARISONS, 5),
                   "+": 6, "-": 6, "name": 9, "const": 9}


def predicate_text(node):
    """The predicate in the Box syntax, bracketed only where it must be."""
    def operand(child, needs):  # bracketed if it binds looser than needs
        text = predicate_text(child)
        return f"({text})" if PREDICATE_LEVEL[child[0]] < needs else text

    kind = node[0]
    if kind in ("name", "const"):
        return str(node[1])
    level = PREDICATE_LEVEL[kind]
    if kind == "not":
        return "not " + operand(node[1], level)
    # left-associative: a right operand of the same level is bracketed
    return f"{operand(node[1], level)} {kind} {operand(node[2], level + 1)}"


def predicate_value(node, row):
    """The predicate's value on row, a dict from dimension name to tag."""
    kind = node[0]
    if kind == "name":
        return row[node[1]]
    if kind == "const":
        return node[1]
    if kind == "not":
        return not predicate_value(node[1], row)
    return PREDICATE_OPS[kind](predicate_value(node[1], row),
                               predicate_value(node[2], row))


def term_st(names):
    leaf = (st.sampled_from(names).map(lambda d: ("name", d))
            | st.integers(0, 4).map(lambda n: ("const", n)))
    return st.recursive(
        leaf, lambda sub: st.tuples(st.sampled_from(("+", "-")), sub, sub),
        max_leaves=3)


def predicate_st(names):
    term = term_st(names)
    comparison = st.tuples(st.sampled_from(COMPARISONS), term, term)
    any_predicate = st.recursive(comparison, lambda sub: st.one_of(
        st.tuples(st.sampled_from(("and", "or")), sub, sub),
        sub.map(lambda p: ("not", p))), max_leaves=3)
    # two draws in three have an equality conjunct, which a Box solves a
    # dimension from
    equality = st.tuples(st.just("=="), term, term)
    return st.one_of(
        any_predicate, equality,
        st.tuples(st.just("and"), equality, any_predicate))


@st.composite
def box_st(draw):
    names = tuple(draw(st.lists(st.sampled_from("ab"), min_size=1, max_size=2,
                                unique=True)))
    tree = draw(predicate_st(names))
    return "box", names, predicate_text(tree), partial(predicate_value, tree)


def binary(ops, left, right):
    return st.builds(lambda op, l, r: ("bin", op, l, r), st.sampled_from(ops),
                     left, right)


pair_node_st = pair_st.map(lambda pair: ("pair", *pair))
context_leaf_st = any_ctx_st | pair_node_st


def context_expr(depth):
    """A tree whose value is a context, if it has one."""
    if depth == 0:
        return context_leaf_st
    sub = context_expr(depth - 1)
    return st.one_of(
        binary(("(+)", "(-)", "&", "%", "/", "|"), sub, sub),
        binary(BY_DIMS, sub, dims_st),
        context_leaf_st,
    )


def set_or_box_expr(depth):
    """A tree whose value is a context set, with Box operands."""
    leaf = st.one_of(box_st(), set_lit_st, range_st())
    if depth == 0:
        return leaf
    sub = set_or_box_expr(depth - 1)
    return st.one_of(
        binary(("><", "[&]", "[+]", "(+)", "(-)", "|"), sub, sub),
        binary(BY_DIMS, sub, dims_st),
        binary(("/",), sub, pair_node_st),
        leaf,
    )


# an operand of any kind: context, context set, Box, dimension set or boolean
any_operand_st = st.one_of(
    context_expr(1), set_or_box_expr(1), dims_st,
    binary(("==", "<<=", ">>="), context_expr(1), context_expr(1)),
)


@settings(deadline=None)
@given(context_expr(2), context_expr(2), dims_st)
def test_context_expressions_print_what_the_reference_model_prints(
        left, right, names):
    check_lines([left, right, *(
        ("bin", op, left, names if op in BY_DIMS else right)
        for op in CONTEXT_OPERATORS)])


@settings(deadline=None)
@given(set_or_box_expr(2), set_or_box_expr(2), dims_st, pair_node_st, box_st())
def test_set_and_box_expressions_print_what_the_reference_model_prints(
        left, right, names, pair, box):
    # a Box's members, projected on all its dimensions, as well
    check_lines([left, right, ("bin", "!", box, ("dims", box[1])), *(
        ("bin", op, left, names if op in BY_DIMS else pair if op == "/" else right)
        for op in SET_OPERATORS)])


@settings(deadline=None)
@given(any_operand_st, any_operand_st)
def test_mixed_kind_operands_raise_what_the_reference_model_raises(left, right):
    operators = dict.fromkeys(CONTEXT_OPERATORS + SET_OPERATORS)
    check_lines([("bin", op, a, b) for op in operators
                 for a, b in ((left, right), (right, left))])


# --- slice 3: bound names -----------------------------------------------------

X, Y, UNBOUND = ("var", "X"), ("var", "Y"), ("var", "Z")
# the operators that take a set on each side, the choice among them
SET_PAIRWISE = ("><", "[&]", "[+]", "(+)", "(-)", "|")


def check_let(session, ref, name, tree):
    """Bind ``name`` to ``tree`` in the REPL and in the reference, and
    compare the lines printed, or the errors.  A Box at the top is skipped:
    the reference cannot print one, so the name stays unbound in both."""
    if tree[0] != "box":
        assert_same(session, f"let {name} = {workloads.ctext(tree)}",
                    ref.let(name, tree))


@settings(deadline=None)
@given(set_or_box_expr(2), set_or_box_expr(2), dims_st, pair_node_st)
def test_bound_names_print_what_the_reference_model_prints(
        left, right, names, pair):
    # each operator over the two names both ways round and over one name
    # twice, the aliasing case that no drawn tree makes; then a name never
    # bound, which raises UnboundVariable in both
    session, ref = new_sessions()
    check_let(session, ref, "X", left)
    check_let(session, ref, "Y", right)
    lines = [("bin", op, a, b) for op in SET_PAIRWISE
             for a, b in ((X, Y), (Y, X), (X, X))]
    lines += [("bin", op, v, names) for op in BY_DIMS for v in (X, Y)]
    lines += [("bin", "/", v, pair) for v in (X, Y)]
    check_lines([*lines, X, Y, ("bin", "[+]", X, UNBOUND)], (session, ref))
