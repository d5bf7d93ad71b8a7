"""Acceptance suite: exact-value golden checks plus randomized property
sweeps.  Each criterion prints one PASS line when it holds (run with
``pytest tests/test_acceptance.py -v -s``); a failed assertion marks the
criterion FAIL through pytest itself.
"""

import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ctxcalc import ops, sets
from ctxcalc.errors import DemandExhausted
from ctxcalc.evaluator import Environment, evaluate
from ctxcalc.model import (
    NULL_CONTEXT,
    Context,
    ContextOrder,
    ContextSet,
    DimensionRegistry,
    MicroContext,
    TagKind,
    make_context,
)
from ctxcalc.parser import (
    Asa,
    At,
    Const,
    Fby,
    First,
    Literal,
    Next,
    NotOp,
    Pointwise,
    Prev,
    Query,
    Ref,
    Upon,
    Wvr,
    parse_expr,
)
from ctxcalc.sets import (
    box_contains,
    box_enumerate,
    box_make,
    join,
    lift_projection,
    set_intersection,
    set_union,
)
from ctxcalc.streams import (
    EvalContext,
    Warehouse,
    define_streams,
    eval_prefix,
    eval_stream,
)
from ctxcalc import streams

from conftest import int_registry, undirected_range_oracle

REG = int_registry("defgh")
REPO_ROOT = Path(__file__).resolve().parent.parent


def ctx(*pairs):
    return make_context(REG, pairs)


def cs(*contexts):
    return ContextSet(contexts)


def _ok(text):
    print(f"PASS {text}")


# --- 1..5: golden context-operator values --------------------------------------


def test_criterion_01_projection():
    c1 = ctx(("d", 1), ("e", 4), ("f", 3))
    dims = frozenset([REG.get("d"), REG.get("e")])
    assert ops.projection(c1, dims) == ctx(("d", 1), ("e", 4))
    _ok("criterion 1: projection golden value")


def test_criterion_02_hiding():
    c1 = ctx(("d", 1), ("e", 4), ("f", 3))
    dims = frozenset([REG.get("d"), REG.get("e")])
    assert ops.hiding(c1, dims) == ctx(("f", 3))
    _ok("criterion 2: hiding golden value")


def test_criterion_03_substitution():
    got = ops.substitution(
        ctx(("d", 1), ("e", 4), ("d", 3)), ctx(("d", 4), ("f", 3))
    )
    assert got == ctx(("e", 4), ("d", 4))
    _ok("criterion 3: substitution golden value")


def test_criterion_04_undirected_ranges():
    got = ops.undirected_range(ctx(("e", 3), ("d", 1)), ctx(("e", 1), ("d", 3)))
    want = ContextSet(
        ctx(("e", i), ("d", j)) for i in (1, 2, 3) for j in (1, 2, 3)
    )
    assert got == want and len(got) == 9
    assert ops.undirected_range(ctx(("e", 3)), ctx(("f", 4))) == cs(
        ctx(("e", 3), ("f", 4))
    )
    assert ops.undirected_range(ctx(("e", 3)), ctx(("e", 1), ("f", 4))) == ContextSet(
        ctx(("e", i), ("f", 4)) for i in (1, 2, 3)
    )
    _ok("criterion 4: undirected range golden values")


def test_criterion_05_directed_ranges():
    assert ops.directed_range(ctx(("d", 1)), ctx(("d", 3), ("f", 4))) == ContextSet(
        ctx(("d", i), ("f", 4)) for i in (1, 2, 3)
    )
    assert ops.directed_range(ctx(("d", 3), ("f", 4)), ctx(("d", 1))) == cs(
        ctx(("f", 4))
    )
    # strict <: equal tags are an ignored pair, leaving only the null context
    assert ops.directed_range(ctx(("d", 2)), ctx(("d", 2))) == cs(NULL_CONTEXT)
    _ok("criterion 5: directed range golden values")


# --- 6: golden expression evaluation ---------------------------------------------


def test_criterion_06_expression():
    ast = parse_expr("c3 ^ D (+) c1 | c2")
    assert ast == Pointwise(
        "(+)",
        Pointwise("^", Ref("c3"), Ref("D")),
        Pointwise("|", Ref("c1"), Ref("c2")),
    )
    reg = DimensionRegistry()
    for n in "xyzw":
        reg.register(n, TagKind.INT)
    env = Environment(registry=reg, rng=random.Random(1))
    env.bind("c1", make_context(reg, [("x", 3), ("y", 4), ("z", 5)]))
    env.bind("c2", make_context(reg, [("y", 5)]))
    env.bind("c3", make_context(reg, [("x", 5), ("y", 6), ("w", 5)]))
    env.bind("D", frozenset([reg.get("w")]))
    assert evaluate(ast, env) == make_context(
        reg, [("x", 3), ("y", 4), ("z", 5)]
    )
    env.rng.seed(0)
    assert evaluate(ast, env) == make_context(reg, [("x", 5), ("y", 5)])
    _ok("criterion 6: expression AST and both choice outcomes")


# --- 7..8: golden stream rows ------------------------------------------------------


def test_criterion_07_stream_rows():
    eqs = define_streams(
        {"A": Literal((1, 2, 3, 4, 5)), "B": Literal((0, 0, 1, 0, 1))}
    )
    a, b = Ref("A"), Ref("B")
    assert eval_prefix(First(a), "time", 5, eqs) == [1, 1, 1, 1, 1]
    assert eval_prefix(Next(a), "time", 4, eqs) == [2, 3, 4, 5]
    assert eval_prefix(Prev(a), "time", 5, eqs) == [None, 1, 2, 3, 4]
    assert eval_prefix(Fby(a, b), "time", 5, eqs) == [1, 0, 0, 1, 0]
    assert eval_prefix(Wvr(a, b), "time", 2, eqs) == [3, 5]
    assert eval_prefix(Asa(a, b), "time", 3, eqs) == [3, 3, 3]
    # the defining recursion yields 1 1 1 2 2; the often-quoted row
    # 1 1 1 3 3 does not satisfy it and is non-normative
    assert eval_prefix(Upon(a, b), "time", 5, eqs) == [1, 1, 1, 2, 2]
    _ok("criterion 7: stream operator rows (upon per the recursion)")


def test_criterion_08_navigation_rows():
    eqs = define_streams(
        {
            "A": Literal((1, 2, 4, 8, 16, 32, 64, 128)),
            "B": Literal((1, 2, 3, 0, 6, 7, 4, 5)),
        }
    )
    got = eval_prefix(At(Ref("A"), "time", Ref("B")), "time", 8, eqs)
    assert got == [2, 4, 8, 1, 64, 128, 16, 32]
    assert eval_prefix(Query("time"), "time", 8, eqs) == list(range(8))
    _ok("criterion 8: navigation and query rows")


# --- 9: randomized context-operator properties -----------------------------------


DIM_NAMES = "defg"
CASES = 1000


def _random_context(rng, max_entries=4, simple=False):
    names = list(DIM_NAMES)
    rng.shuffle(names)
    if simple:
        k = rng.randint(0, 4)
        pairs = [(n, rng.randint(0, 5)) for n in names[:k]]
    else:
        pairs = [
            (rng.choice(names), rng.randint(0, 5))
            for _ in range(rng.randint(0, max_entries))
        ]
    return make_context(REG, pairs)


def _random_dimset(rng):
    return frozenset(
        REG.get(n) for n in DIM_NAMES if rng.random() < 0.5
    )


def test_criterion_09_context_operator_properties():
    rng = random.Random(90910)
    for _ in range(CASES):
        c = _random_context(rng)
        dims = _random_dimset(rng)
        kept, hidden = ops.projection(c, dims), ops.hiding(c, dims)
        assert ops.disjunction(kept, hidden) == c
        assert ops.conjunction(kept, hidden) == NULL_CONTEXT

    for _ in range(CASES):
        c = _random_context(rng)
        s = _random_context(rng, simple=True)
        merged = ops.override(c, s)
        assert merged.dims() == c.dims() | s.dims()
        assert ops.projection(merged, s.dims()) == s
        assert ops.override(c, NULL_CONTEXT) == c
        assert ops.override(NULL_CONTEXT, s) == s

    for _ in range(CASES):
        c = _random_context(rng, simple=True)
        s = Context(
            MicroContext(d, rng.randint(0, 5)) for d in c.dims()
        )
        assert ops.substitution(c, s) == s

    for _ in range(CASES):
        c1 = _random_context(rng, simple=True)
        c2 = _random_context(rng, simple=True)
        assert ops.undirected_range(c1, c2) == ops.undirected_range(c2, c1)

    for _ in range(CASES):
        c1 = _random_context(rng, simple=True)
        c2 = _random_context(rng, simple=True)
        got = ops.undirected_range(c1, c2)
        assert got == undirected_range_oracle(c1, c2)
        assert all(m.is_simple() for m in got)
        assert len({frozenset(m.dims()) for m in got}) == 1

    candidates = [ctx(("d", 1)), ctx(("e", 2)), ctx(("f", 3))]
    for seed in range(100):
        assert ops.choice(candidates, random.Random(seed)) in candidates
    for _ in range(CASES):
        cands = [_random_context(rng) for _ in range(rng.randint(1, 4))]
        assert ops.choice(cands, random.Random(rng.randint(0, 10**6))) in cands

    for _ in range(CASES):
        a, b, c = (_random_context(rng) for _ in range(3))
        assert a.compare(a) is ContextOrder.EQUAL
        if a.compare(b) is ContextOrder.SUBSET:
            assert b.compare(a) is ContextOrder.SUPERSET
        if (
            a.compare(b) is ContextOrder.SUBSET
            and b.compare(c) is ContextOrder.SUBSET
        ):
            assert a.compare(c) is ContextOrder.SUBSET
    _ok("criterion 9: context operator property sweep (1000 cases per law)")


# --- 10: randomized context-set properties ------------------------------------------


def _random_context_set(rng, max_members=3):
    return ContextSet(
        _random_context(rng, simple=True) for _ in range(rng.randint(0, max_members))
    )


def _random_predicate(rng, dim_names, depth=2):
    if depth == 0 or rng.random() < 0.4:
        kind = rng.randrange(3)
        if kind == 0:
            return Pointwise(
                rng.choice(("==", "!=", "<", "<=", ">", ">=")),
                Ref(rng.choice(dim_names)),
                Ref(rng.choice(dim_names)),
            )
        if kind == 1:
            return Pointwise(
                rng.choice(("==", "!=", "<", "<=", ">", ">=")),
                Ref(rng.choice(dim_names)),
                Const(rng.randint(1, 4)),
            )
        return Const(rng.random() < 0.5)
    if rng.random() < 0.3:
        return NotOp(_random_predicate(rng, dim_names, depth - 1))
    return Pointwise(
        rng.choice(("and", "or")),
        _random_predicate(rng, dim_names, depth - 1),
        _random_predicate(rng, dim_names, depth - 1),
    )


def test_criterion_10_context_set_properties():
    rng = random.Random(101010)
    for _ in range(CASES):
        s1 = _random_context_set(rng)
        s2 = _random_context_set(rng)
        assert join(s1, s2) == join(s2, s1)
        assert set_intersection(s1, s2) == set_intersection(s2, s1)
        assert set_union(s1, s2) == set_union(s2, s1)

    # restricted pairwise-intersection identity: families whose every
    # cross pair agrees on the shared dimensions
    for _ in range(CASES):
        base = Context(
            MicroContext(REG.get(n), rng.randint(0, 3))
            for n in "de"
            if rng.random() < 0.7
        )
        s1 = ContextSet(
            ops.disjunction(base, make_context(REG, [("f", rng.randint(0, 3))]))
            for _ in range(rng.randint(1, 3))
        )
        s2 = ContextSet(
            ops.disjunction(base, make_context(REG, [("g", rng.randint(0, 3))]))
            for _ in range(rng.randint(1, 3))
        )
        shared = s1.dims_union() & s2.dims_union()
        assert set_intersection(s1, s2) == lift_projection(join(s1, s2), shared)

    # boxes: enumeration against brute-force membership, domains up to 4^3
    for case in range(60):
        reg = DimensionRegistry()
        k = rng.randint(1, 3)
        names = [f"b{i}" for i in range(k)]
        for n in names:
            reg.register(n, TagKind.INT, list(range(1, rng.randint(2, 5))))
        box_dims = [reg.get(n) for n in names]
        box = box_make(box_dims, _random_predicate(rng, names))
        enumerated = box_enumerate(box)
        for combo in itertools.product(*(d.domain for d in box_dims)):
            c = Context(
                MicroContext(d, v) for d, v in zip(box_dims, combo)
            )
            assert box_contains(box, c) == (c in enumerated)
        for member in enumerated:
            assert box_contains(box, member)
    _ok("criterion 10: context-set and box property sweep")


# --- 11: stream oracle suite ----------------------------------------------------


def test_criterion_11_stream_oracles():
    rng = random.Random(111111)
    for _ in range(200):
        n = rng.randint(1, 12)
        xs = tuple(rng.randint(-9, 9) for _ in range(n))
        ys = tuple(rng.randint(0, 1) for _ in range(n))
        eqs = define_streams({"X": Literal(xs), "Y": Literal(ys)})
        x, y = Ref("X"), Ref("Y")
        picks = [v for v, g in zip(xs, ys) if g]
        assert eval_prefix(Wvr(x, y), "time", n, eqs) == [
            picks[t] if t < len(picks) else None for t in range(n)
        ]
        assert eval_prefix(Asa(x, y), "time", n, eqs) == [
            picks[0] if picks else None
        ] * n
        assert eval_prefix(Upon(x, y), "time", n, eqs) == [
            xs[sum(1 for i in range(t) if ys[i])] for t in range(n)
        ]
        assert eval_prefix(Fby(x, y), "time", n, eqs) == [
            xs[0] if t == 0 else ys[t - 1] for t in range(n)
        ]
        assert eval_prefix(Prev(x), "time", n, eqs) == [
            None if t == 0 else xs[t - 1] for t in range(n)
        ]

    eqs = define_streams({"X": Literal((3, 1, 4, 1, 5, 9, 2, 6))})
    for _ in range(100):
        ctx_ = EvalContext(
            {d: rng.randint(0, 7) for d in ("time", "space", "level")}
        )
        assert eval_stream(
            At(Ref("X"), "time", Query("time")), ctx_, eqs
        ) == eval_stream(Ref("X"), ctx_, eqs)

    rows = define_streams(
        {"A": Literal((1, 2, 3, 4, 5)), "B": Literal((0, 0, 1, 0, 1))}
    )
    expr = Asa(Ref("A"), Ref("B"))
    assert eval_prefix(expr, "time", 5, rows) == eval_prefix(
        expr, "time", 5, rows, warehouse=Warehouse()
    )
    wh = Warehouse()
    eval_prefix(expr, "time", 30, rows, warehouse=wh)
    assert wh.misses <= 4  # the scan stops at the first true guard

    with pytest.raises(DemandExhausted):
        eval_stream(
            Wvr(Ref("A"), Const(0)), EvalContext(), rows, budget=10_000
        )
    _ok("criterion 11: stream evaluator matches the index oracles")


# --- 12: CLI determinism -----------------------------------------------------------


def test_criterion_12_cli_determinism():
    script = REPO_ROOT / "scripts" / "worked_examples.ctx"
    assert script.exists(), "shipped worked-examples script is missing"
    cmd = [
        sys.executable,
        "-m",
        "ctxcalc",
        "--script",
        str(script),
        "--seed",
        "7",
    ]
    first = subprocess.run(cmd, capture_output=True, cwd=REPO_ROOT)
    second = subprocess.run(cmd, capture_output=True, cwd=REPO_ROOT)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # non-empty transcript
    # spot-check the transcript contains the worked values
    text = first.stdout.decode()
    assert "{(d, 1), (e, 4)}" in text
    assert "1 1 1 2 2" in text
    assert "2 4 8 1 64 128 16 32" in text
    _ok("criterion 12: byte-identical CLI transcripts, exit 0")
