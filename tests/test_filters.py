"""The filter operators wvr, asa and upon, read through scan cursors.

The oracle below follows the Lucid definitions over Python lists and
imports nothing from ``ctxcalc``:

    X wvr Y  = if first Y then X fby (next X wvr next Y) else next X wvr next Y
    X asa Y  = first (X wvr Y)
    X upon Y = X fby (if first Y then next X upon next Y else X upon next Y)

A list holds a literal's values; past its end the stream is nil.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxcalc.cli import new_session, run_command
from ctxcalc.errors import DemandExhausted
from ctxcalc.parser import (
    Asa,
    At,
    Const,
    Literal,
    Pointwise,
    Query,
    Ref,
    Upon,
    Wvr,
)
from ctxcalc.streams import (
    EvalContext,
    Warehouse,
    define_streams,
    eval_prefix,
    eval_stream,
)

# --- the oracle -----------------------------------------------------------------


def _at(xs, i):
    return xs[i] if i < len(xs) else None


def oracle_wvr(xs, ys, t):
    y = _at(ys, 0)
    if y is None:
        return None
    if y and t == 0:
        return _at(xs, 0)
    return oracle_wvr(xs[1:], ys[1:], t - 1 if y else t)


def oracle_asa(xs, ys, t):
    return oracle_wvr(xs, ys, 0)


def oracle_upon(xs, ys, t):
    if t == 0:
        return _at(xs, 0)
    y = _at(ys, 0)
    if y is None:
        return None
    return oracle_upon(xs[1:] if y else xs, ys[1:], t - 1)


ORACLES = {Wvr: oracle_wvr, Asa: oracle_asa, Upon: oracle_upon}


def test_oracle_on_the_textbook_example():
    xs, ys = [1, 2, 3, 4, 5], [0, 0, 1, 0, 1]
    assert [oracle_wvr(xs, ys, t) for t in range(3)] == [3, 5, None]
    assert [oracle_asa(xs, ys, t) for t in range(3)] == [3, 3, 3]
    assert [oracle_upon(xs, ys, t) for t in range(6)] == [1, 1, 1, 2, 2, 3]


# --- differential tests ------------------------------------------------------------

values = st.lists(st.one_of(st.integers(-3, 3), st.booleans(), st.none()), max_size=10)
guards = st.lists(
    st.sampled_from([True, True, False, 1, 0, 2, None]), max_size=12)
queries = st.lists(
    st.tuples(st.sampled_from(sorted(ORACLES, key=lambda c: c.__name__)),
              st.sampled_from(["X1", "X2"]),
              st.integers(0, 14)),
    min_size=1, max_size=25)


def _orders(qs):
    """The queries as drawn, ascending, descending and each asked twice."""
    return [qs, sorted(qs, key=lambda q: q[2]),
            sorted(qs, key=lambda q: -q[2]), [q for q in qs for _ in (0, 1)]]


@settings(max_examples=300, deadline=None)
@given(values, values, guards, queries)
def test_filters_match_the_oracle_in_any_order(x1, x2, ys, qs):
    eqs = define_streams({"X1": Literal(tuple(x1)), "X2": Literal(tuple(x2)),
                          "Y": Literal(tuple(ys))})
    lists = {"X1": x1, "X2": x2}
    for order in _orders(qs):
        # one warehouse for all filters over the shared guard Y, and none
        for warehouse in (Warehouse(), None):
            for op, x, t in order:
                got = eval_stream(op(Ref(x), Ref("Y")), EvalContext({"time": t}),
                                  eqs, warehouse)
                assert got == ORACLES[op](lists[x], ys, t), (op.__name__, x, t)


@settings(max_examples=200, deadline=None)
@given(values, guards, st.integers(0, 16))
def test_a_prefix_matches_the_oracle(xs, ys, n):
    eqs = define_streams({"X": Literal(tuple(xs)), "Y": Literal(tuple(ys))})
    for op, oracle in ORACLES.items():
        want = [oracle(xs, ys, t) for t in range(n)]
        expr = op(Ref("X"), Ref("Y"))
        assert eval_prefix(expr, "time", n, eqs) == want
        warehouse = Warehouse()
        assert eval_prefix(expr, "time", n, eqs, warehouse) == want
        assert eval_prefix(expr, "time", n, eqs, warehouse) == want


@settings(max_examples=150, deadline=None)
@given(values, guards, st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                                min_size=1, max_size=30))
def test_a_cursor_belongs_to_one_context(xs, gs, points):
    # Along space the guard at (space s, time t) is gs[s + t]: a cursor
    # reused across times would read another guard.
    eqs = define_streams({
        "X": Literal(tuple(xs), "space"),
        "G": Literal(tuple(gs), "space"),
        "Y": At(Ref("G"), "space", Pointwise("+", Query("space"), Query("time"))),
    })
    warehouse = Warehouse()
    for op, oracle in ORACLES.items():
        expr = op(Ref("X"), Ref("Y"), "space")
        for s, t in points:
            got = eval_stream(expr, EvalContext({"space": s, "time": t}), eqs, warehouse)
            assert got == oracle(xs, gs[t:], s), (op.__name__, s, t)


# --- demand ---------------------------------------------------------------------


@pytest.mark.parametrize("op", [Wvr, Asa, Upon])
@pytest.mark.parametrize("with_warehouse", [True, False])
def test_an_all_false_guard_exhausts_the_budget_every_time(op, with_warehouse):
    eqs = define_streams({"X": Query("time")})
    warehouse = Warehouse() if with_warehouse else None
    expr = op(Ref("X"), Const(False))
    at = EvalContext({"time": 10_000 if op is Upon else 3})
    for _ in range(2):
        with pytest.raises(DemandExhausted):
            eval_stream(expr, at, eqs, warehouse, budget=5_000)


@pytest.mark.parametrize("op, t, want", [(Wvr, 3, 61), (Asa, 4, 50), (Upon, 70, 12)])
def test_a_scan_cut_short_by_the_budget_resumes(op, t, want):
    ys = (False,) * 50 + (True,) * 3 + (False,) * 8 + (True,) * 20
    eqs = define_streams({"X": Query("time"), "Y": Literal(ys)})
    assert ORACLES[op](list(range(100)), list(ys), t) == want
    warehouse = Warehouse()
    expr = op(Ref("X"), Ref("Y"))
    at = EvalContext({"time": t})
    with pytest.raises(DemandExhausted):
        eval_stream(expr, at, eqs, warehouse, budget=40)
    assert eval_stream(expr, at, eqs, warehouse, budget=10_000) == want
    assert eval_prefix(expr, "time", t + 1, eqs, warehouse)[t] == want


class _CountedValues(tuple):
    """A literal's values that count how often they are read."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


@pytest.mark.parametrize("op, reads, want", [
    (Wvr, lambda n: 2 * n - 1, lambda t: 2 * t),
    (Asa, lambda n: 1, lambda t: 0),
    (Upon, lambda n: n - 1, lambda t: (t + 1) // 2),
], ids=["wvr", "asa", "upon"])
def test_each_guard_position_is_read_once(op, reads, want):
    n = 300
    # The guard is a literal, not a Ref, so the warehouse holds none of
    # its values: only the cursor saves re-reading them.
    guard = _CountedValues((True, False) * n)
    expr = op(Query("time"), Literal(guard))
    # without a warehouse, within one prefix and one budget (about 6 units
    # per value)
    got = eval_prefix(expr, "time", n, define_streams({}), budget=10 * n)
    assert got == [want(t) for t in range(n)]
    assert guard.reads == reads(n)
    # with a warehouse, across calls over one equation set
    guard.reads = 0
    warehouse, eqs = Warehouse(), define_streams({})
    for t in range(n):
        assert eval_stream(expr, EvalContext({"time": t}), eqs,
                           warehouse) == want(t)
    assert guard.reads == reads(n)


@pytest.mark.parametrize("op, at, cost", [
    (Wvr, 2, 1 + 3 * 2 + 1),
    (Asa, 2, 1 + 2 + 1),
    (Upon, 3, 1 + 3 * 2 + 1),
])
def test_each_guard_position_read_spends_one_unit(op, at, cost):
    # the filter, then a step and the guard per position read, then X
    expr = op(Const(7), Const(True))
    ctx = EvalContext({"time": at})
    assert eval_stream(expr, ctx, define_streams({}), budget=cost) == 7
    with pytest.raises(DemandExhausted):
        eval_stream(expr, ctx, define_streams({}), budget=cost - 1)


def test_a_wvr_prefix_costs_linear_warehouse_hits():
    s = new_session()
    run_command(s, "stream N = 0 fby N + 1")
    run_command(s, "stream G = true fby not G")
    n = 800
    assert run_command(s, f"show (N wvr G) {n}") == [" ".join(str(2 * t) for t in range(n))]
    assert s.warehouse.hits <= 3 * n
