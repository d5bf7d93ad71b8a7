import copy
import pickle
import random
import typing

import pytest
from hypothesis import given
import hypothesis.strategies as st

from ctxcalc.errors import (
    ContextCalcError,
    DemandExhausted,
    DuplicateName,
    ExprSyntaxError,
    KindMismatch,
    UnresolvedReference,
)
from ctxcalc import streams
from ctxcalc.parser import (
    Asa,
    At,
    Const,
    Fby,
    First,
    If,
    Literal,
    Next,
    NotOp,
    Pointwise,
    Prev,
    Query,
    Ref,
    StreamExpr,
    Upon,
    Wvr,
    parse_expr,
)
from ctxcalc.streams import (
    EquationSet,
    EvalContext,
    Warehouse,
    define_streams,
    eval_prefix,
    eval_stream,
    parse_stream_expr,
    parse_stream_expr_prefix,
    references,
)

A_VALUES = (1, 2, 3, 4, 5)
B_VALUES = (0, 0, 1, 0, 1)


def example_eqs():
    return define_streams({"A": Literal(A_VALUES), "B": Literal(B_VALUES)})


# --- evaluation contexts -----------------------------------------------------


def test_eval_context_defaults_and_normalization():
    ctx = EvalContext({"time": 0, "space": 2})
    assert ctx.tag("time") == 0
    assert ctx.tag("space") == 2
    assert ctx == EvalContext({"space": 2})
    assert hash(ctx) == hash(EvalContext({"space": 2}))
    assert ctx.with_tag("space", 0) == EvalContext()


def test_eval_context_rejects_bad_tags():
    with pytest.raises(KindMismatch):
        EvalContext({"time": -1})
    with pytest.raises(KindMismatch):
        EvalContext({"time": True})


def test_with_tag_checks_the_new_tag_and_drops_zero():
    ctx = EvalContext({"space": 2}).with_tag("time", 3)
    assert ctx == EvalContext({"space": 2, "time": 3})
    moved = ctx.with_tag("time", 0).with_tag("space", 0)
    assert moved == EvalContext()
    assert hash(moved) == hash(EvalContext())
    assert hash(ctx.with_tag("space", 5)) == hash(EvalContext({"space": 5, "time": 3}))
    for bad in (-1, True, "1"):
        with pytest.raises(KindMismatch):
            ctx.with_tag("time", bad)


DIMS = ("time", "space", "x")
dim_st = st.sampled_from(DIMS)
tags_st = st.dictionaries(dim_st, st.integers(0, 5))
moves_st = st.lists(st.tuples(dim_st, st.integers(0, 5)), max_size=8)
bad_tag_st = st.one_of(
    st.integers(max_value=-1), st.booleans(), st.floats(), st.text(), st.none()
)


def after_moves(tags, moves):
    """A context and its plain-dict oracle after the same with_tag moves."""
    ctx, oracle = EvalContext(tags), dict(tags)
    for d, t in moves:
        ctx = ctx.with_tag(d, t)
        oracle[d] = t
    return ctx, oracle


def nonzero(oracle):
    return {d: t for d, t in oracle.items() if t}


@given(tags_st, moves_st, tags_st, moves_st)
def test_eval_context_agrees_with_a_dict_oracle(tags_a, moves_a, tags_b, moves_b):
    a, oracle_a = after_moves(tags_a, moves_a)
    b, oracle_b = after_moves(tags_b, moves_b)
    for d in DIMS:
        assert a.tag(d) == oracle_a.get(d, 0)
    assert (a == b) == (nonzero(oracle_a) == nonzero(oracle_b))
    if a == b:
        assert hash(a) == hash(b)
    built = EvalContext(oracle_a)
    assert built == a and hash(built) == hash(a)
    with pytest.raises(AttributeError):
        a.tags = oracle_a


@given(tags_st, dim_st, bad_tag_st)
def test_eval_context_refuses_a_tag_that_is_not_natural(tags, dim, bad):
    with pytest.raises(KindMismatch):
        EvalContext({**tags, dim: bad})
    with pytest.raises(KindMismatch):
        EvalContext(tags).with_tag(dim, bad)


# --- equation sets -----------------------------------------------------------


def test_define_streams_ok():
    eqs = example_eqs()
    assert "A" in eqs and "B" in eqs


def test_define_streams_allows_recursion():
    eqs = define_streams({"X": Next(Ref("X"))})
    assert "X" in eqs


def test_define_streams_duplicate_name():
    with pytest.raises(DuplicateName):
        define_streams([("X", Const(1)), ("X", Const(2))])


def test_define_streams_unresolved_reference():
    with pytest.raises(UnresolvedReference):
        define_streams({"X": Ref("Y")})


def test_an_equation_is_never_changed_behind_its_warehouse():
    eqs = define_streams({"A": Literal((1, 2, 3))})
    wh = Warehouse()
    assert eval_prefix("A", count=3, eqs=eqs, warehouse=wh) == [1, 2, 3]
    with pytest.raises(DuplicateName):
        eqs["A"] = Literal((7, 8, 9))
    assert eval_prefix("A", count=3, eqs=eqs, warehouse=wh) == [1, 2, 3]
    assert wh.misses == 3 and dict(eqs) == {"A": Literal((1, 2, 3))}


# Each writer that would change or drop an equation, and what it is given.
REFUSED_WRITERS = {
    "update": lambda eqs: eqs.update({"A": Const(2)}),
    "update-a-new-name": lambda eqs: eqs.update(B=Const(2)),
    "setdefault": lambda eqs: eqs.setdefault("B", Const(2)),
    "in-place-union": lambda eqs: eqs.__ior__({"A": Const(2)}),
    "del": lambda eqs: eqs.__delitem__("A"),
    "pop": lambda eqs: eqs.pop("A"),
    "popitem": lambda eqs: eqs.popitem(),
    "clear": lambda eqs: eqs.clear(),
}


@pytest.mark.parametrize("write", REFUSED_WRITERS.values(), ids=REFUSED_WRITERS.keys())
def test_an_equation_set_refuses_writers_that_change_or_drop(write):
    eqs = define_streams({"A": Const(1)})
    with pytest.raises(ContextCalcError):
        write(eqs)
    assert dict(eqs) == {"A": Const(1)}


def test_item_assignment_adds_a_checked_equation():
    eqs = define_streams({"A": Const(1)})
    eqs["B"] = Pointwise("+", Ref("A"), Ref("B"))
    assert list(eqs) == ["A", "B"]
    with pytest.raises(UnresolvedReference):
        eqs["C"] = Ref("D")
    assert "C" not in eqs


def test_copies_and_pickles_of_an_equation_set_are_equation_sets():
    eqs = define_streams({"A": Literal((1, 2)), "B": Next(Ref("A"))})
    for twin in (copy.copy(eqs), copy.deepcopy(eqs), pickle.loads(pickle.dumps(eqs))):
        assert type(twin) is EquationSet and twin == eqs and twin is not eqs
        with pytest.raises(ContextCalcError):
            twin.clear()


def test_references_walks_nested():
    expr = Fby(Pointwise("+", Ref("A"), Const(1)), Wvr(Ref("B"), Ref("C")))
    assert references(expr) == {"A", "B", "C"}
    # in source order, each once
    expr = parse_stream_expr("if C then (B @.time A) else next D + C wvr E")
    assert list(references(expr)) == ["C", "B", "A", "D", "E"]


def test_an_unresolved_reference_names_the_leftmost_undefined_stream():
    # the name reported must not depend on the string hash seed
    names = [f"U{k}" for k in range(20)]
    expr = parse_stream_expr(" + ".join(["A", *names]))
    with pytest.raises(UnresolvedReference, match="undefined stream 'U0'"):
        define_streams({"A": Const(1)}).add("Z", expr)
    with pytest.raises(UnresolvedReference, match="undefined stream 'U0'"):
        define_streams({"A": Const(1), "Z": expr})


# --- the worked rows ---------------------------------------------------------


def test_first_row():
    assert eval_prefix(First(Ref("A")), "time", 5, example_eqs()) == [1, 1, 1, 1, 1]


def test_next_row():
    assert eval_prefix(Next(Ref("A")), "time", 4, example_eqs()) == [2, 3, 4, 5]


def test_prev_row():
    assert eval_prefix(Prev(Ref("A")), "time", 5, example_eqs()) == [
        None, 1, 2, 3, 4,
    ]


def test_fby_row():
    assert eval_prefix(Fby(Ref("A"), Ref("B")), "time", 5, example_eqs()) == [
        1, 0, 0, 1, 0,
    ]


def test_wvr_row():
    assert eval_prefix(Wvr(Ref("A"), Ref("B")), "time", 2, example_eqs()) == [3, 5]


def test_asa_row():
    assert eval_prefix(Asa(Ref("A"), Ref("B")), "time", 3, example_eqs()) == [3, 3, 3]


def test_upon_row_follows_recursive_definition():
    # Unfolding the defining recursion on A and B gives 1 1 1 2 2.  The
    # commonly quoted row 1 1 1 3 3 does not satisfy the recursion and is
    # kept here only as a non-normative reference value.
    erratum_row = [1, 1, 1, 3, 3]
    derived_row = [1, 1, 1, 2, 2]
    got = eval_prefix(Upon(Ref("A"), Ref("B")), "time", 5, example_eqs())
    assert got == derived_row
    assert got != erratum_row


def test_navigation_row():
    eqs = define_streams(
        {"P": Literal((1, 2, 4, 8, 16, 32, 64, 128)),
         "Q": Literal((1, 2, 3, 0, 6, 7, 4, 5))}
    )
    got = eval_prefix(At(Ref("P"), "time", Ref("Q")), "time", 8, eqs)
    assert got == [2, 4, 8, 1, 64, 128, 16, 32]


def test_query_row():
    assert eval_prefix(Query("time"), "time", 4) == [0, 1, 2, 3]
    assert eval_prefix(Query("time"), "time", 0) == []


# --- independent index-arithmetic oracles ------------------------------------


def oracle_fby(xs, ys, t):
    return xs[0] if t == 0 else ys[t - 1]


def oracle_prev(xs, t):
    return None if t == 0 else xs[t - 1]


def oracle_wvr(xs, ys, t):
    picks = [x for x, y in zip(xs, ys) if y]
    return picks[t] if t < len(picks) else None


def oracle_asa(xs, ys):
    picks = [x for x, y in zip(xs, ys) if y]
    return picks[0] if picks else None


def oracle_upon(xs, ys, t):
    return xs[sum(1 for i in range(t) if ys[i])]


def test_recursive_evaluator_matches_oracles():
    rng = random.Random(20240801)
    for _ in range(200):
        n = rng.randint(1, 12)
        xs = tuple(rng.randint(-5, 5) for _ in range(n))
        ys = tuple(rng.randint(0, 1) for _ in range(n))
        eqs = define_streams({"X": Literal(xs), "Y": Literal(ys)})
        x, y = Ref("X"), Ref("Y")
        assert eval_prefix(Fby(x, y), "time", n, eqs) == [
            oracle_fby(xs, ys, t) for t in range(n)
        ]
        assert eval_prefix(Prev(x), "time", n, eqs) == [
            oracle_prev(xs, t) for t in range(n)
        ]
        assert eval_prefix(Wvr(x, y), "time", n, eqs) == [
            oracle_wvr(xs, ys, t) for t in range(n)
        ]
        assert eval_prefix(Asa(x, y), "time", n, eqs) == [
            oracle_asa(xs, ys)
        ] * n
        assert eval_prefix(Upon(x, y), "time", n, eqs) == [
            oracle_upon(xs, ys, t) for t in range(n)
        ]


# --- navigation axioms ----------------------------------------------------------


def test_navigation_axioms():
    eqs = define_streams({"X": Literal((3, 1, 4, 1, 5, 9, 2, 6))})
    rng = random.Random(7)
    for _ in range(50):
        ctx = EvalContext(
            {d: rng.randint(0, 7) for d in ("time", "space", "level")}
        )
        # reading at the current tag is the identity
        assert eval_stream(
            At(Ref("X"), "time", Query("time")), ctx, eqs
        ) == eval_stream(Ref("X"), ctx, eqs)
        # querying after navigating yields the navigation target
        k = rng.randint(0, 9)
        assert eval_stream(At(Query("time"), "time", Const(k)), ctx, eqs) == k


def test_operator_identities():
    eqs = define_streams(
        {"X": Literal((4, 2, 7, 1, 8)), "Y": Literal((1, 0, 1, 1, 0))}
    )
    x, y = Ref("X"), Ref("Y")
    n = 5
    assert eval_prefix(First(x), "time", n, eqs) == eval_prefix(
        At(x, "time", Const(0)), "time", n, eqs
    )
    assert eval_prefix(Next(Fby(x, y)), "time", 4, eqs) == eval_prefix(
        y, "time", 4, eqs
    )
    got = eval_prefix(Prev(Next(x)), "time", n, eqs)
    assert got[0] is None
    assert got[1:] == eval_prefix(x, "time", n, eqs)[1:]


def test_multidimensional_operators():
    # vary along "space" while time stays fixed
    eqs = define_streams({"X": Literal((10, 20, 30), dim="space")})
    got = eval_prefix(Next(Ref("X"), dim="space"), "space", 2, eqs)
    assert got == [20, 30]
    assert eval_stream(
        First(Ref("X"), dim="space"), EvalContext({"space": 2}), eqs
    ) == 10
    # a time-varying stream is constant along space
    eqs2 = define_streams({"X": Literal((10, 20, 30))})
    assert eval_prefix(Ref("X"), "space", 3, eqs2) == [10, 10, 10]


# --- nil propagation ------------------------------------------------------------


def test_nil_propagates_through_pointwise_ops():
    eqs = define_streams({"X": Literal((1,))})
    ctx = EvalContext({"time": 5})  # past the literal: nil
    assert eval_stream(Pointwise("+", Ref("X"), Const(1)), ctx, eqs) is None
    assert eval_stream(NotOp(Ref("X")), ctx, eqs) is None
    assert eval_stream(If(Ref("X"), Const(1), Const(2)), ctx, eqs) is None
    assert eval_stream(At(Ref("X"), "time", Ref("X")), ctx, eqs) is None


def test_prev_at_zero_is_nil():
    eqs = define_streams({"X": Literal((1, 2))})
    assert eval_stream(Prev(Ref("X")), EvalContext(), eqs) is None


# --- warehouse and budget -------------------------------------------------------


def test_memoized_and_unmemoized_agree():
    eqs = example_eqs()
    expr = Asa(Ref("A"), Ref("B"))
    plain = eval_prefix(expr, "time", 5, eqs)
    cached = eval_prefix(expr, "time", 5, eqs, warehouse=Warehouse())
    assert plain == cached


def test_warehouse_bounds_recomputation():
    eqs = example_eqs()
    wh = Warehouse()
    n = 40
    eval_prefix(Asa(Ref("A"), Ref("B")), "time", n, eqs, warehouse=wh)
    # the first true guard sits at position 2: the scan touches B at
    # 0..2 and A at 2, so misses stay O(scan), not O(n * scan)
    assert wh.misses <= 4
    assert wh.hits >= n - 1


def test_warehouse_entries_stable():
    eqs = define_streams({"X": Literal((1, 2, 3))})
    wh = Warehouse()
    first = eval_prefix(Ref("X"), "time", 3, eqs, warehouse=wh)
    second = eval_prefix(Ref("X"), "time", 3, eqs, warehouse=wh)
    assert first == second


def test_a_warehouse_serves_one_equation_set():
    wh = Warehouse()
    assert eval_prefix("A", "time", 3, define_streams({"A": Const(1)}), wh) == [1, 1, 1]
    assert eval_prefix("A", "time", 3, define_streams({"A": Const(2)}), wh) == [2, 2, 2]
    assert (wh.hits, wh.misses, len(wh)) == (0, 6, 3)
    # a plain mapping becomes a new set on each call
    assert eval_prefix("A", "time", 3, {"A": Const(3)}, wh) == [3, 3, 3]
    assert (wh.hits, wh.misses) == (0, 9)
    # cursors go with the values: the guard B is the same node, over
    # another equation for B
    expr = Asa(Ref("A"), Ref("B"))
    first = define_streams({"A": Query("time"), "B": Literal((0, 1))})
    second = define_streams({"A": Query("time"), "B": Literal((0, 0, 0, 1))})
    assert eval_prefix(expr, "time", 2, first, wh) == [1, 1]
    assert eval_prefix(expr, "time", 2, second, wh) == [3, 3]
    # a set that grows through add keeps its entries: A at 3 is read
    hits = wh.hits
    second.add("C", Pointwise("+", Ref("A"), Const(1)))
    assert eval_prefix("C", "time", 4, second, wh) == [1, 2, 3, 4]
    assert wh.hits > hits and wh.equations is second


def test_a_call_without_a_warehouse_memoizes_within_itself():
    # Unmemoized, F at time t demands F at t - 2 both directly and through
    # F at t - 1, so the demand grows like fib(t) and at time 30 outruns
    # the default budget.
    eqs = define_streams({"F": parse_stream_expr("1 fby (1 fby (F + next F))")})
    assert eval_stream(Ref("F"), EvalContext({"time": 30}), eqs) == 1346269


@pytest.mark.parametrize("index", [Const(-1), Const(True)])
def test_a_bad_navigation_tag_is_refused_by_the_context(index):
    eqs = define_streams({"X": Literal((1, 2))})
    with pytest.raises(KindMismatch, match="tag for dimension 'time' must be a natural"):
        eval_stream(At(Ref("X"), "time", index), EvalContext(), eqs)


def test_all_false_guard_exhausts_budget():
    eqs = example_eqs()
    with pytest.raises(DemandExhausted):
        eval_stream(
            Wvr(Ref("A"), Const(0)), EvalContext(), eqs, budget=10_000
        )


def test_a_prefix_longer_than_its_budget_builds_no_position_it_does_not_read():
    # a list of 10**12 positions built first would end in MemoryError
    eqs = define_streams({"N": parse_stream_expr("0 fby N + 1")})
    with pytest.raises(DemandExhausted, match="budget exhausted"):
        eval_prefix("N", count=10**12, eqs=eqs, budget=1_000)


@pytest.mark.parametrize("terms, budget", [(300, 1200), (1500, 6000)])
def test_a_left_pointwise_chain_spends_one_unit_per_node(terms, budget):
    # a position costs the reference to T and the chain's 2 * terms - 1 nodes
    eqs = define_streams({"T": parse_stream_expr(" + ".join(["1"] * terms))})
    assert eval_prefix("T", count=2, eqs=eqs, budget=budget) == [terms, terms]
    with pytest.raises(DemandExhausted, match="budget exhausted"):
        eval_prefix("T", count=2, eqs=eqs, budget=budget - 1)


# The least budget with which each node type answers a 5-value prefix over
# a fresh warehouse: one unit per node evaluated and one per guard position
# read.  Pinned by the recursive evaluator the handler table replaced.
_A, _B = Ref("A"), Ref("B")
LEAST_BUDGETS = [
    (Const(7), 5, [7, 7, 7, 7, 7]),
    (Literal((1, 2, 3)), 5, [1, 2, 3, None, None]),
    (_A, 10, [1, 2, 3, 4, 5]),
    (Pointwise("+", Pointwise("*", _A, Const(2)), _B), 35, [2, 4, 7, 8, 11]),
    (NotOp(_B), 15, [True, True, False, True, False]),
    (If(_B, _A, Const(0)), 22, [0, 0, 3, 0, 5]),
    (First(_A), 11, [1, 1, 1, 1, 1]),
    (Next(_A), 15, [2, 3, 4, 5, None]),
    (Prev(_A), 13, [None, 1, 2, 3, 4]),
    (Fby(_A, _B), 15, [1, 0, 0, 1, 0]),
    (Wvr(_A, _B), 27, [3, 5, None, None, None]),
    (Asa(_A, _B), 20, [3, 3, 3, 3, 3]),
    (Upon(_A, _B), 24, [1, 1, 1, 2, 2]),
    (At(_A, "time", _B), 22, [1, 1, 2, 1, 2]),
    (Query("time"), 5, [0, 1, 2, 3, 4]),
]


def test_the_budget_cases_cover_every_node_type():
    assert {type(e) for e, _, _ in LEAST_BUDGETS} == set(typing.get_args(StreamExpr))


@pytest.mark.parametrize(
    "expr, budget, values", LEAST_BUDGETS,
    ids=[type(e).__name__ for e, _, _ in LEAST_BUDGETS])
def test_each_node_type_answers_at_its_least_budget(expr, budget, values):
    def prefix(b):
        return eval_prefix(expr, count=5, eqs=example_eqs(), warehouse=Warehouse(), budget=b)

    assert prefix(budget) == values
    with pytest.raises(DemandExhausted, match="budget exhausted"):
        prefix(budget - 1)


def test_every_node_type_has_one_handler():
    assert set(streams._HANDLERS) == set(typing.get_args(StreamExpr))


def test_an_unknown_node_is_refused():
    with pytest.raises(KindMismatch, match="not a stream expression: 'A'"):
        eval_stream("A", EvalContext(), example_eqs())
    with pytest.raises(KindMismatch, match="not a stream expression: 1.5"):
        eval_stream(NotOp(1.5), EvalContext(), example_eqs())
    # a context infix node is a Pointwise, so the chain loop walks it
    for text in ("a ! {x}", "{(d, 1)} (+) {(d, 2)}", "{x}", "true (+) false"):
        with pytest.raises(ContextCalcError):
            eval_stream(parse_expr(text), EvalContext(), example_eqs())


def test_budget_must_be_positive():
    with pytest.raises(DemandExhausted):
        eval_stream(Const(1), EvalContext(), example_eqs(), budget=0)


def test_a_budget_past_the_machine_word_is_spent_as_any_other():
    assert eval_prefix(Const(1), count=2, budget=10**30) == [1, 1]


# Misuses of the eduction API's entries, which used to end in a raw
# TypeError, ValueError, AttributeError or KeyError, with the typed error
# and exact text each ends in now.
EDUCTION_API_ERRORS = [
    ("context-of-an-int",
     lambda: EvalContext(5),
     KindMismatch, "not a mapping of dimensions to tags: 5"),
    ("context-of-a-short-pair",
     lambda: EvalContext([("t",)]),
     KindMismatch, "not a mapping of dimensions to tags: [('t',)]"),
    ("context-with-a-non-string-dimension",
     lambda: EvalContext({1: 2, "a": 3}),
     KindMismatch, "dimension name must be a string, got 1"),
    ("equations-of-an-int",
     lambda: define_streams(5),
     ExprSyntaxError, "stream equations must be iterable, got 5"),
    ("equation-set-of-an-int",
     lambda: EquationSet(5),
     ExprSyntaxError, "stream equations must be iterable, got 5"),
    ("equation-set-that-does-not-resolve",
     lambda: EquationSet({"A": Ref("B")}),
     UnresolvedReference, "stream 'A' references undefined stream 'B'"),
    ("equations-with-a-short-pair",
     lambda: define_streams([("A",)]),
     ExprSyntaxError, "not a (name, expression) pair: ('A',)"),
    ("equations-with-an-unhashable-name",
     lambda: define_streams([(["A"], Const(1))]),
     ExprSyntaxError, "not a (name, expression) pair: (['A'], Const(value=1))"),
    ("eval-at-a-dict",
     lambda: eval_stream(Const(1), {"t": 1}, example_eqs()),
     KindMismatch, "not an evaluation context: {'t': 1}"),
    ("prefix-along-a-non-string-dimension",
     lambda: eval_prefix(Const(1), dim=5),
     KindMismatch, "dimension name must be a string, got 5"),
    ("prefix-of-a-string-count",
     lambda: eval_prefix(Const(1), count="a"),
     KindMismatch, "count must be an integer, got 'a'"),
    ("prefix-with-a-string-budget",
     lambda: eval_prefix(Const(1), budget="a"),
     KindMismatch, "demand budget must be an integer, got 'a'"),
    ("prefix-into-an-int-warehouse",
     lambda: eval_prefix("A", "time", 3, define_streams({"A": Const(1)}), 5),
     KindMismatch, "not a warehouse: 5"),
    ("eval-into-a-string-warehouse",
     lambda: eval_stream(Ref("A"), EvalContext(), example_eqs(), "wh"),
     KindMismatch, "not a warehouse: 'wh'"),
    ("prefix-of-an-undefined-name-in-a-dict",
     lambda: eval_prefix("B", eqs={"A": Const(1)}),
     UnresolvedReference, "no equation for stream 'B'"),
    ("prefix-over-dict-equations-that-do-not-resolve",
     lambda: eval_prefix("A", eqs={"A": Ref("B")}),
     UnresolvedReference, "stream 'A' references undefined stream 'B'"),
    # the grammar builds no such node; the API can
    ("pointwise-over-operands-it-cannot-combine",
     lambda: eval_stream(Pointwise("+", Const("a"), Const(2)), EvalContext(),
                         define_streams([])),
     KindMismatch, "'+' cannot combine 'a' and 2"),
    ("pointwise-past-the-size-of-a-string",
     lambda: eval_stream(Pointwise("*", Const("a"), Const(2 ** 70)), EvalContext(),
                         define_streams([])),
     KindMismatch, "'*' cannot combine 'a' and 1180591620717411303424"),
    ("pointwise-of-an-unknown-operator",
     lambda: eval_stream(Pointwise("**", Const(1), Const(2)), EvalContext(),
                         define_streams([])),
     KindMismatch, "unknown pointwise operator '**'"),
]


@pytest.mark.parametrize(
    "action, error, message", [case[1:] for case in EDUCTION_API_ERRORS],
    ids=[case[0] for case in EDUCTION_API_ERRORS])
def test_eduction_api_errors_keep_their_class_and_text(action, error, message):
    with pytest.raises(error) as info:
        action()
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("expr", [
    Pointwise("**", Const(None), Const(2)),
    Pointwise("**", Const(1), Literal(())),
    # below the top of a left chain, and an operator it could not combine
    Pointwise("-", Pointwise("**", Const("a"), Const(None)), Const(1)),
])
def test_a_nil_operand_gives_nil_before_the_operator_is_looked_up(expr):
    assert eval_stream(expr, EvalContext(), define_streams([])) is None


def test_a_mapping_of_equations_is_read_as_define_streams_reads_it():
    assert eval_prefix("A", count=3, eqs={"A": Literal((4, 5))}) == [4, 5, None]
    assert eval_stream(Ref("A"), EvalContext({"time": 1}), [("A", Literal((4, 5)))]) == 5


# --- stream expression syntax -----------------------------------------------


def test_parse_stream_equation_forms():
    assert parse_stream_expr("[1,2,3,4,5]") == Literal((1, 2, 3, 4, 5))
    assert parse_stream_expr("[1, nil, true, -2]") == Literal((1, None, True, -2))
    assert parse_stream_expr("A fby B") == Fby(Ref("A"), Ref("B"))
    assert parse_stream_expr("A @.time B") == At(Ref("A"), "time", Ref("B"))
    assert parse_stream_expr("#.time") == Query("time")
    assert parse_stream_expr("A wvr B") == Wvr(Ref("A"), Ref("B"))


def test_parse_stream_precedence():
    assert parse_stream_expr("A fby B + 1") == Fby(
        Ref("A"), Pointwise("+", Ref("B"), Const(1))
    )
    assert parse_stream_expr("A fby B fby C") == Fby(
        Ref("A"), Fby(Ref("B"), Ref("C"))
    )
    assert parse_stream_expr("first next A") == First(Next(Ref("A")))
    assert parse_stream_expr("next.space A") == Next(Ref("A"), "space")
    assert parse_stream_expr("A @.time B + 1") == Pointwise(
        "+", At(Ref("A"), "time", Ref("B")), Const(1)
    )
    assert parse_stream_expr("if A then B else C") == If(
        Ref("A"), Ref("B"), Ref("C")
    )
    assert parse_stream_expr("1 + 2 * 3") == Pointwise(
        "+", Const(1), Pointwise("*", Const(2), Const(3))
    )
    assert parse_stream_expr("not A and B") == Pointwise(
        "and", NotOp(Ref("A")), Ref("B")
    )


def test_parse_stream_prefix_leaves_arguments():
    expr, cur = parse_stream_expr_prefix("(A wvr B) time 2")
    assert expr == Wvr(Ref("A"), Ref("B"))
    assert cur.peek().text == "time"
    cur.advance()
    assert cur.peek().text == "2"


def test_parse_stream_errors():
    with pytest.raises(ExprSyntaxError):
        parse_stream_expr("A fby")
    with pytest.raises(ExprSyntaxError):
        parse_stream_expr("[1, (+)]")
    with pytest.raises(ExprSyntaxError):
        parse_stream_expr("A B")


def test_recursive_equation_counts_up():
    # X = 0 fby (X + 1) enumerates the naturals
    eqs = define_streams(
        {"X": Fby(Const(0), Pointwise("+", Ref("X"), Const(1)))}
    )
    assert eval_prefix(Ref("X"), "time", 6, eqs) == [0, 1, 2, 3, 4, 5]
