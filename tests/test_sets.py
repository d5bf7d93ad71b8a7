import copy
import itertools
import operator
import random
import re

import pytest
from hypothesis import given
import hypothesis.strategies as st

from ctxcalc import model, ops, sets
from ctxcalc.errors import (
    IllTypedPredicate,
    KindMismatch,
    NonSimpleOperand,
    NonSimpleResidue,
    TagTypeMismatch,
    UnboundedBox,
    UnorderedRangeDimension,
)
from ctxcalc.cli import new_session, run_command
from ctxcalc.evaluator import Environment, evaluate
from ctxcalc.model import (
    NULL_CONTEXT,
    Context,
    ContextSet,
    Dimension,
    DimensionRegistry,
    MicroContext,
    TagKind,
    make_context,
)
from ctxcalc.parser import Const, NotOp, Pointwise, Ref, parse_expr
from ctxcalc.sets import (
    Box,
    box_contains,
    box_enumerate,
    box_make,
    join,
    lift_choice,
    lift_difference,
    lift_hiding,
    lift_override,
    lift_projection,
    lift_substitution,
    set_intersection,
    set_union,
)

from conftest import count_pair_work, int_registry

REG = int_registry("defgh")


def ctx(*pairs):
    return make_context(REG, pairs)


def cs(*contexts):
    return ContextSet(contexts)


def dims(*names):
    return frozenset(REG.get(n) for n in names)


simple_st = st.dictionaries(
    st.sampled_from("defg"), st.integers(0, 3), max_size=3
).map(lambda d: make_context(REG, list(d.items())))
set_st = st.lists(simple_st, max_size=4).map(ContextSet)


# --- construction ----------------------------------------------------------


def test_context_set_rejects_non_simple_member():
    with pytest.raises(NonSimpleOperand):
        ContextSet([ctx(("d", 1), ("d", 2))])


def test_context_set_dedupes():
    assert len(cs(ctx(("d", 1)), ctx(("d", 1)))) == 1


# --- lifted operators ---------------------------------------------------------


def test_lift_projection():
    s = cs(ctx(("d", 1), ("e", 2)), ctx(("d", 3), ("e", 4)))
    assert lift_projection(s, dims("d")) == cs(ctx(("d", 1)), ctx(("d", 3)))
    assert lift_projection(s, frozenset()) == cs(NULL_CONTEXT)
    assert lift_projection(cs(), dims("d")) == cs()


def test_lift_hiding():
    s = cs(ctx(("d", 1), ("e", 2)))
    assert lift_hiding(s, dims("d")) == cs(ctx(("e", 2)))
    assert lift_hiding(s, frozenset()) == s
    assert lift_hiding(cs(), dims("d")) == cs()


def test_lift_substitution():
    pair = ctx(("d", 9))
    assert lift_substitution(cs(ctx(("d", 1), ("e", 2))), pair) == cs(
        ctx(("d", 9), ("e", 2))
    )
    assert lift_substitution(cs(ctx(("e", 2))), pair) == cs(ctx(("e", 2)))
    assert lift_substitution(cs(), pair) == cs()
    # the pair's tag is checked when the pair is built
    with pytest.raises(TagTypeMismatch):
        lift_substitution(cs(ctx(("e", 2))), ctx(("d", "nine")))


def test_lift_choice():
    s1, s2 = cs(ctx(("d", 1))), cs(ctx(("e", 2)))
    for seed in range(50):
        assert lift_choice(s1, s2, random.Random(seed)) in (s1, s2)
    fixed = lift_choice(s1, s2, random.Random(7))
    assert all(
        lift_choice(s1, s2, random.Random(7)) == fixed for _ in range(100)
    )
    assert lift_choice(s1, s1, random.Random(0)) == s1


def test_lift_override():
    got = lift_override(cs(ctx(("d", 1))), cs(ctx(("d", 2)), ctx(("e", 3))))
    assert got == cs(ctx(("d", 2)), ctx(("d", 1), ("e", 3)))
    s = cs(ctx(("d", 1)), ctx(("e", 5)))
    assert lift_override(cs(NULL_CONTEXT), s) == s
    assert lift_override(cs(), s) == cs()


def test_lift_difference():
    assert lift_difference(cs(ctx(("d", 1), ("e", 2))), cs(ctx(("e", 2)))) == cs(
        ctx(("d", 1))
    )
    s = cs(ctx(("d", 1)), ctx(("e", 5)))
    assert lift_difference(s, cs(NULL_CONTEXT)) == s
    assert lift_difference(cs(), s) == cs()


# --- relational operators ----------------------------------------------------


def test_join_agreeing_pair():
    got = join(cs(ctx(("d", 1), ("e", 2))), cs(ctx(("d", 1), ("f", 3))))
    assert got == cs(ctx(("d", 1), ("e", 2), ("f", 3)))


def test_join_disagreeing_pair_drops():
    assert join(cs(ctx(("d", 1))), cs(ctx(("d", 2)))) == cs()


def test_join_disjoint_universes():
    assert join(cs(ctx(("e", 2))), cs(ctx(("f", 3)))) == cs(ctx(("e", 2), ("f", 3)))


def test_set_intersection():
    got = set_intersection(cs(ctx(("d", 1), ("e", 2))), cs(ctx(("d", 1), ("f", 3))))
    assert got == cs(ctx(("d", 1)))
    assert set_intersection(cs(ctx(("d", 1))), cs(ctx(("d", 2)))) == cs(NULL_CONTEXT)
    assert set_intersection(cs(), cs(ctx(("d", 1)))) == cs()


def test_set_union_worked_value():
    got = set_union(cs(ctx(("d", 1), ("e", 2))), cs(ctx(("d", 3), ("f", 4))))
    assert got == cs(
        ctx(("d", 1), ("e", 2), ("f", 4)), ctx(("d", 3), ("f", 4), ("e", 2))
    )
    assert set_union(cs(), cs(ctx(("d", 1)))) == cs()


def test_set_union_same_domain_idempotent():
    s = cs(ctx(("d", 1), ("e", 2)), ctx(("d", 3), ("e", 0)))
    assert set_union(s, s) == s


@given(set_st, set_st)
def test_relational_commutativity(s1, s2):
    assert join(s1, s2) == join(s2, s1)
    assert set_intersection(s1, s2) == set_intersection(s2, s1)
    assert set_union(s1, s2) == set_union(s2, s1)


def assert_simple_set(value):
    """The set operators build their results without the constructor's
    simplicity check, so each result must be exactly a ``ContextSet`` (the
    evaluator dispatches on ``type(value)``) of simple contexts, checked
    afresh here: no dimension bound twice."""
    assert type(value) is ContextSet
    for c in value:
        assert type(c) is Context
        assert len({m.dimension for m in c}) == len(c)


@given(set_st, set_st, st.sets(st.sampled_from("defgh")),
       st.sampled_from("defgh"), st.integers(0, 3), simple_st, simple_st)
def test_lift_results_stay_simple(s1, s2, names, name, tag, c1, c2):
    # simple operands give simple results, for every operator that builds
    # its result unchecked; box_enumerate is checked in
    # assert_enumerates_as_filtered
    some = dims(*names)
    for value in (
        lift_projection(s1, some),
        lift_hiding(s1, some),
        lift_substitution(s1, ctx((name, tag))),
        lift_override(s1, s2),
        lift_difference(s1, s2),
        join(s1, s2),
        set_intersection(s1, s2),
        set_union(s1, s2),
        ops.undirected_range(c1, c2),
        ops.directed_range(c1, c2),
    ):
        assert_simple_set(value)


NON_SIMPLE = ctx(("d", 1), ("d", 2))


@pytest.mark.parametrize("action", [
    lambda: lift_projection([NON_SIMPLE], dims("d")),
    lambda: lift_hiding(frozenset([NON_SIMPLE]), dims("e")),
    lambda: lift_substitution([NON_SIMPLE], ctx(("e", 1))),
    lambda: lift_override([NON_SIMPLE], cs()),
    lambda: lift_difference(cs(), [NON_SIMPLE]),
    lambda: join([NON_SIMPLE], cs()),
    lambda: set_intersection(cs(), frozenset()),
    lambda: set_union(ctx(("d", 1)), cs()),
    lambda: lift_choice([NON_SIMPLE], cs(), random.Random(1)),
], ids=["!", "^", "/", "(+)", "(-)", "><", "[&]", "[+]", "|"])
def test_set_operators_take_only_context_sets(action):
    # an operand of another type could hold a non-simple context, which
    # the unchecked result would then keep
    with pytest.raises(KindMismatch, match="^not a context set: "):
        action()


PAIR_NEEDED = "set substitution needs a <dimension, tag> pair on the right"


@pytest.mark.parametrize("action, message", [
    (lambda: box_enumerate(5), "not a box: 5"),
    (lambda: box_enumerate(cs(ctx(("d", 1)))), "not a box: "),
    (lambda: lift_projection(cs(ctx(("d", 1))), 5), "not a set of dimensions: 5"),
    (lambda: lift_projection(cs(ctx(("d", 1))), frozenset(["d"])),
     "not a set of dimensions: "),
    (lambda: lift_hiding(cs(ctx(("d", 1))), 5), "not a set of dimensions: 5"),
    (lambda: lift_hiding(cs(), cs(ctx(("d", 1)))), "not a set of dimensions: "),
    (lambda: lift_substitution(cs(ctx(("d", 1))), "d"), PAIR_NEEDED),
    (lambda: lift_substitution(cs(), None), PAIR_NEEDED),
    (lambda: lift_substitution(cs(), ctx(("d", 1), ("e", 2))), PAIR_NEEDED),
    (lambda: lift_substitution(cs(), NON_SIMPLE), PAIR_NEEDED),
    (lambda: lift_substitution(cs(), cs(ctx(("d", 1)))), PAIR_NEEDED),
], ids=["box-int", "box-set", "!-int", "!-names", "^-int", "^-contexts",
        "/-name", "/-none", "/-two-pairs", "/-non-simple", "/-set"])
def test_set_layer_entries_take_only_their_kinds(action, message):
    # checked once per call, as the context-set operands are
    with pytest.raises(KindMismatch, match="^" + re.escape(message)):
        action()


def _agreeing_sets(base_pairs, extras1, extras2):
    """Two sets whose every cross pair agrees on the shared dimensions."""
    base = make_context(REG, base_pairs)
    s1 = ContextSet(
        ops.disjunction(base, make_context(REG, [e])) for e in extras1
    )
    s2 = ContextSet(
        ops.disjunction(base, make_context(REG, [e])) for e in extras2
    )
    return s1, s2


def test_restricted_intersection_identity():
    # when every cross pair agrees on the shared dimensions, pairwise
    # intersection equals join projected onto them
    s1, s2 = _agreeing_sets(
        [("d", 1)], [("e", 2), ("e", 3)], [("f", 4), ("f", 5)]
    )
    shared = s1.dims_union() & s2.dims_union()
    assert set_intersection(s1, s2) == lift_projection(join(s1, s2), shared)


def test_unrestricted_intersection_identity_fails():
    # a disagreeing pair keeps its (empty) intersection on the left side
    # but is dropped by the join on the right side
    s1, s2 = cs(ctx(("d", 1))), cs(ctx(("d", 2)))
    shared = s1.dims_union() & s2.dims_union()
    assert set_intersection(s1, s2) == cs(NULL_CONTEXT)
    assert lift_projection(join(s1, s2), shared) == cs()


# --- boxes ------------------------------------------------------------------


def box_registry():
    reg = DimensionRegistry()
    reg.register("d1", TagKind.INT, [1, 2, 3])
    reg.register("d2", TagKind.INT, [1, 2, 3])
    return reg


def test_box_enumerate_less_than():
    reg = box_registry()
    b = box_make(
        [reg.get("d1"), reg.get("d2")], Pointwise("<", Ref("d1"), Ref("d2"))
    )
    got = box_enumerate(b)
    want = ContextSet(
        make_context(reg, [("d1", i), ("d2", j)])
        for i in (1, 2, 3)
        for j in (1, 2, 3)
        if i < j
    )
    assert got == want
    assert len(got) == 3


def test_box_contains_exact_domain():
    reg = int_registry("de")
    b = box_make([reg.get("d")], Const(True))
    assert box_contains(b, make_context(reg, [("d", 1)]))
    assert not box_contains(b, make_context(reg, [("d", 1), ("e", 2)]))
    assert not box_contains(b, make_context(reg, [("e", 2)]))


def test_box_contains_needs_simple():
    reg = int_registry("d")
    b = box_make([reg.get("d")], Const(True))
    with pytest.raises(NonSimpleOperand):
        box_contains(b, make_context(reg, [("d", 1), ("d", 2)]))


def test_box_false_is_empty():
    reg = box_registry()
    b = box_make([reg.get("d1")], Const(False))
    assert box_enumerate(b) == cs()
    # a box needs a dimension, however it is built
    with pytest.raises(IllTypedPredicate):
        Box((), Const(True))


def test_box_enumerate_needs_domains():
    reg = int_registry("d")
    b = box_make([reg.get("d")], Const(True))
    with pytest.raises(UnboundedBox):
        box_enumerate(b)


def test_box_predicate_type_errors():
    reg = box_registry()
    d1, d2 = reg.get("d1"), reg.get("d2")
    with pytest.raises(IllTypedPredicate):
        box_make([d1], Ref("zz"))  # unbound name
    with pytest.raises(IllTypedPredicate):
        box_make([d1], Pointwise("<", Ref("d1"), Const("text")))  # mixed kinds
    with pytest.raises(IllTypedPredicate):
        box_make([d1], Const(3))  # not boolean
    with pytest.raises(IllTypedPredicate):
        box_make([d1, d2], Pointwise("and", Ref("d1"), Const(True)))
    # the dimension list is checked first, however the Box is built
    with pytest.raises(IllTypedPredicate, match="not a box dimension: 'd2'"):
        Box([d1, "d2"], Ref("zz"))
    with pytest.raises(IllTypedPredicate, match="box dimensions must be distinct"):
        Box([d1, d1], Ref("zz"))
    with pytest.raises(IllTypedPredicate, match="not a list of box dimensions: 5"):
        Box(5, Const(True))


def test_box_enum_symbol_resolution():
    reg = DimensionRegistry()
    reg.register("month", TagKind.ENUM, ["Ja", "Fe", "Mr"])
    b = box_make([reg.get("month")], Pointwise("<", Ref("month"), Ref("Mr")))
    got = box_enumerate(b)
    want = ContextSet(
        make_context(reg, [("month", s)]) for s in ("Ja", "Fe")
    )
    assert got == want


def test_box_ambiguous_enum_symbol_rejected():
    reg = DimensionRegistry()
    reg.register("month", TagKind.ENUM, ["Ja", "Fe"])
    reg.register("name", TagKind.ENUM, ["Fe", "Jo"])
    dims = [reg.get("month"), reg.get("name")]
    with pytest.raises(IllTypedPredicate, match="ambiguous"):
        box_make(dims, Pointwise("==", Ref("month"), Ref("Fe")))
    b = box_make(dims, Pointwise("==", Ref("name"), Ref("Jo")))
    assert len(box_enumerate(b)) == 2


def month_registry():
    reg = DimensionRegistry()
    reg.register("m", TagKind.ENUM, ["Ja", "Fe", "Mr"])
    return reg


def test_a_box_binds_its_enum_symbols_when_it_is_built():
    reg = month_registry()
    m = reg.get("m")
    b = Box((m,), Pointwise("==", Ref("m"), Ref("Fe")))
    assert b.predicate == Pointwise("==", Ref("m"), Const(m.symbols["Fe"]))
    assert str(b) == "Box[m | m == Fe]"
    # box_make is Box, and takes any iterable of dimensions
    assert box_make is Box
    assert Box([m], Pointwise("==", Ref("m"), Ref("Fe"))) == b
    assert box_make(iter([m]), Pointwise("==", Ref("m"), Ref("Fe"))).dims == (m,)


def test_box_contains_over_enum_symbols():
    reg = month_registry()
    b = box_make([reg.get("m")], Pointwise(
        "and",
        Pointwise(">", Ref("m"), Ref("Ja")),
        Pointwise("!=", Ref("m"), Ref("Mr"))))
    assert [box_contains(b, make_context(reg, [("m", s)]))
            for s in ("Ja", "Fe", "Mr")] == [False, True, False]


def test_a_box_with_an_unbound_name_is_refused_when_it_is_built():
    reg = month_registry()
    with pytest.raises(IllTypedPredicate, match="unbound name 'Ap'"):
        Box((reg.get("m"),), Pointwise("==", Ref("m"), Ref("Ap")))
    # a name error is reported before a kind error
    with pytest.raises(IllTypedPredicate, match="unbound name 'zz'"):
        box_make([reg.get("m")], Pointwise("+", Ref("zz"), Const(1)))


def _month_box():
    m = month_registry().get("m")
    return Box([m], Pointwise("==", Ref("m"), Ref("Fe")))


# Misuses of the Box API that used to end in a raw TypeError or
# AttributeError, with the typed error and exact text each ends in now.
BOX_API_ERRORS = [
    ("unhashable-name",
     lambda: Box([month_registry().get("m")], Ref(["x"])),
     IllTypedPredicate, "unbound name ['x'] in box predicate"),
    ("not-of-a-non-boolean",
     lambda: Box((Dimension("d", TagKind.INT, (1, 2)),
                  Dimension("b", TagKind.BOOL)), NotOp(Ref("d"))),
     IllTypedPredicate, "'not' needs a boolean operand"),
    ("contains-in-a-non-box",
     lambda: box_contains(5, ctx(("d", 1))),
     KindMismatch, "not a box: 5"),
    ("contains-a-non-context",
     lambda: box_contains(_month_box(), 5),
     KindMismatch, "not a context: 5"),
    ("contains-a-context-set",
     lambda: box_contains(_month_box(), cs()),
     KindMismatch, "not a context: ContextSet({})"),
]


@pytest.mark.parametrize(
    "action, error, message", [case[1:] for case in BOX_API_ERRORS],
    ids=[case[0] for case in BOX_API_ERRORS])
def test_box_api_errors_keep_their_class_and_text(action, error, message):
    with pytest.raises(error) as info:
        action()
    assert type(info.value) is error and str(info.value) == message


def test_the_predicate_evaluator_is_private():
    # it trusts a bound, kind-checked predicate, which only a Box holds
    assert not hasattr(sets, "eval_predicate")


def test_a_deep_copy_of_a_box_is_equal_and_enumerates_alike():
    reg = month_registry()
    b = box_make([reg.get("m")], Pointwise("!=", Ref("m"), Ref("Fe")))
    twin = copy.deepcopy(b)
    assert twin == b and hash(twin) == hash(b)
    assert box_enumerate(twin) == box_enumerate(b)
    assert len(box_enumerate(twin)) == 2


def test_box_members_share_domain():
    reg = box_registry()
    b = box_make(
        [reg.get("d1"), reg.get("d2")], Pointwise("<=", Ref("d1"), Ref("d2"))
    )
    domains = {frozenset(c.dims()) for c in box_enumerate(b)}
    assert domains == {frozenset([reg.get("d1"), reg.get("d2")])}


def test_box_enumerate_matches_contains_brute_force():
    reg = box_registry()
    d1, d2 = reg.get("d1"), reg.get("d2")
    b = box_make(
        [d1, d2],
        Pointwise("or", Pointwise("==", Ref("d1"), Const(2)),
                  Pointwise(">", Ref("d2"), Ref("d1"))),
    )
    enumerated = box_enumerate(b)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            c = make_context(reg, [("d1", i), ("d2", j)])
            assert box_contains(b, c) == (c in enumerated)


# --- oracles over plain frozensets of (name, tag) pairs -----------------------


def plain(s):
    return {frozenset((m.dimension.name, m.tag) for m in c) for c in s}


def names_of(members):
    return {name for c in members for name, _ in c}


def join_oracle(p1, p2):
    """Nested-loop natural join."""
    shared = names_of(p1) & names_of(p2)
    return {
        a | b
        for a in p1
        for b in p2
        if {x for x in a if x[0] in shared} == {x for x in b if x[0] in shared}
    }


def union_oracle(p1, p2):
    """The 2·|s1|·|s2| candidates of the pairwise union definition."""
    shared = names_of(p1) & names_of(p2)
    out = set()
    for a in p1:
        for b in p2:
            out.add(a | {x for x in b if x[0] not in shared})
            out.add(b | {x for x in a if x[0] not in shared})
    return out


wide_st = st.lists(
    st.dictionaries(st.sampled_from("defgh"), st.integers(0, 2), max_size=4).map(
        lambda d: make_context(REG, list(d.items()))
    ),
    max_size=8,
).map(ContextSet)


def intersection_oracle(p1, p2):
    """Nested-loop pairwise conjunction."""
    return {a & b for a in p1 for b in p2}


def difference_oracle(p1, p2):
    """Nested-loop pairwise difference."""
    return {a - b for a in p1 for b in p2}


def override_oracle(p1, p2):
    """Nested-loop pairwise override: b wins on the names it binds."""
    return {
        frozenset(x for x in a if x[0] not in names_of([b])) | b
        for a in p1
        for b in p2
    }


@given(wide_st, wide_st)
def test_join_matches_nested_loop(s1, s2):
    assert plain(join(s1, s2)) == join_oracle(plain(s1), plain(s2))


@given(wide_st, wide_st)
def test_set_intersection_matches_nested_loop(s1, s2):
    assert plain(set_intersection(s1, s2)) == intersection_oracle(plain(s1), plain(s2))


@given(wide_st, wide_st)
def test_lift_difference_matches_nested_loop(s1, s2):
    assert plain(lift_difference(s1, s2)) == difference_oracle(plain(s1), plain(s2))


@given(wide_st, wide_st)
def test_lift_override_matches_nested_loop(s1, s2):
    assert plain(lift_override(s1, s2)) == override_oracle(plain(s1), plain(s2))


@given(wide_st, wide_st)
def test_set_union_matches_pairwise_definition(s1, s2):
    assert plain(set_union(s1, s2)) == union_oracle(plain(s1), plain(s2))


def assert_distinct_rows(r):
    """A set operator hands rows it knows are distinct to the result
    unhashed, and ``==``, ``hash`` and ``in`` freeze them, so a duplicate
    row that an oracle's ``==`` would not see shows here: in ``len``, read
    before anything freezes the set, and in the set rebuilt from its
    members through the checked constructor."""
    n = len(r)
    members = list(r)
    assert n == len(members) == len(set(members))
    twin = ContextSet(members)
    assert r == twin and hash(r) == hash(twin)
    assert all(c in r for c in members)


@given(wide_st, wide_st, st.sets(st.sampled_from("defgh")),
       st.sampled_from("defgh"), st.integers(0, 2), simple_st, simple_st)
def test_set_operators_build_no_duplicate_rows(s1, s2, names, name, tag, c1, c2):
    some = dims(*names)
    for value in (
        lift_projection(s1, some),
        lift_hiding(s1, some),
        lift_substitution(s1, ctx((name, tag))),
        lift_choice(s1, s2, random.Random(tag)),
        lift_override(s1, s2),
        lift_difference(s1, s2),
        join(s1, s2),
        set_intersection(s1, s2),
        set_union(s1, s2),
        set_union(s1, s1),
        ops.undirected_range(c1, c2),
        ops.directed_range(c1, c2),
    ):
        assert_distinct_rows(value)


def one_to_one_grids(n, right="f"):
    left = ContextSet(ctx(("d", i), ("e", i)) for i in range(n))
    return left, ContextSet(ctx(("d", i), (right, i)) for i in range(n))


def test_join_builds_only_agreeing_pairs(monkeypatch):
    s1, s2 = one_to_one_grids(600)
    work = count_pair_work(monkeypatch)
    out = join(s1, s2)
    # each of the 600 rows kept hashes its 3 pairs, and each row of either
    # side its 1-pair key: not 600 * 600 pairs
    assert len(out) == 600 and len(work) <= (3 + 2) * 600


def test_set_union_builds_each_member_once(monkeypatch):
    s1, s2 = one_to_one_grids(600, right="e")
    work = count_pair_work(monkeypatch)
    out = set_union(s1, s2)
    # at most each of 1,200 members hashes its 2 pairs once: not
    # 2 * 600 * 600 candidates
    assert out == s1 and len(work) <= 2 * 1200


# Two 32 x 32 grids, over (a, b) and over (b, c), that share dimension b.
# The cartesian product of their members is 1,048,576 pairs.
SIDE = 32
ABC = int_registry("abc")


def grid(x, y):
    return ContextSet(
        make_context(ABC, [(x, i), (y, j)]) for i in range(SIDE) for j in range(SIDE)
    )


def test_set_intersection_conjoins_distinct_projections(monkeypatch):
    s1, s2 = grid("a", "b"), grid("b", "c")
    work = count_pair_work(monkeypatch)
    out = set_intersection(s1, s2)
    agreeing = [make_context(ABC, [("b", j)]) for j in range(SIDE)]
    assert out == ContextSet([*agreeing, NULL_CONTEXT])
    # each side's SIDE * SIDE rows hash their 1-pair projection, and the
    # SIDE * SIDE pairs of distinct projections are compared; the rest is
    # work per distinct projection
    assert len(work) <= 4 * SIDE * SIDE


def test_lift_difference_subtracts_distinct_projections(monkeypatch):
    s1, s2 = grid("a", "b"), grid("b", "c")
    work = count_pair_work(monkeypatch)
    out = lift_difference(s1, s2)
    assert len(out) == SIDE * SIDE + SIDE  # each member, and it without b
    assert len(work) <= SIDE * SIDE * SIDE


def test_lift_override_overrides_distinct_remainders(monkeypatch):
    s1, s2 = grid("a", "b"), grid("b", "c")
    work = count_pair_work(monkeypatch)
    out = lift_override(s1, s2)
    assert len(out) == SIDE**3
    # each of the SIDE**3 rows kept hashes its 3 pairs, and each row of s1
    # its 1-pair remainder
    assert len(work) <= 3 * SIDE**3 + SIDE * SIDE


# Rows that are distinct by construction go into the result unhashed.  Each
# figure below is the exact count of pair hashes and compares; one that
# hashed every member it builds would count each of its pairs again.


def test_a_range_hashes_none_of_its_members(monkeypatch):
    env = Environment(int_registry("ab"), random.Random(0))
    node = parse_expr("{(a,0),(b,0)} <=> {(a,31),(b,31)}")
    work = count_pair_work(monkeypatch)
    out = evaluate(node, env)
    assert len(out) == 1024
    # the two literals' pairs, each hashed into its context once
    assert len(work) == 4


def test_a_box_hashes_none_of_its_members(monkeypatch):
    reg = DimensionRegistry()
    for n in "uv":
        reg.register(n, TagKind.INT, range(25))
    box = Box([reg.get("u"), reg.get("v")],
              parse_expr("Box[u, v | u + v == 24]").predicate)
    work = count_pair_work(monkeypatch)
    out = box_enumerate(box)
    assert len(out) == 25 and len(work) == 0


def ctx_abc(*pairs):
    return make_context(ABC, pairs)


def grids_sharing_b(side=8):
    """Range-built grids over (a, b) and over (b, c), side x side each."""
    return (ops.undirected_range(ctx_abc(("a", 0), ("b", 0)),
                                 ctx_abc(("a", side - 1), ("b", side - 1))),
            ops.undirected_range(ctx_abc(("b", 0), ("c", 0)),
                                 ctx_abc(("b", side - 1), ("c", side - 1))))


def test_a_join_hashes_only_its_keys(monkeypatch):
    g, h = grids_sharing_b()
    work = count_pair_work(monkeypatch)
    out = join(g, h)
    assert len(out) == 512
    # the 1-pair key of each of H's 64 rows, bucketed, and of G's, probed
    assert len(work) == 64 + 64


def test_an_override_hashes_only_its_remainders(monkeypatch):
    g, h = grids_sharing_b()
    work = count_pair_work(monkeypatch)
    out = lift_override(g, h)
    assert len(out) == 512
    # each of G's 64 rows cut to its 1-pair remainder off (b, c), frozen
    assert len(work) == 64


# A set of four schemas, (a), (a, b), (b, c) and (c), that meets each grid
# over several schema pairs, and itself with one side empty after a cut.
MULTI = ContextSet([ctx_abc(("a", 1)), ctx_abc(("a", 1), ("b", 2)),
                    ctx_abc(("b", 3), ("c", 1)), ctx_abc(("c", 4))])
PAIR_B3 = ctx_abc(("b", 3))

# The pair work of each set operator that the pins above leave out, at
# most, so that a change that hashes fewer rows passes and one that hashes
# more fails.  The second side of [+] is an anti-join: for G [+] H that is
# each side's 64 rows cut to their remainder, G's 64 rows bucketed by b
# with their a remainders, and H's 64 b keys grouped and the 8 distinct
# ones looked up, 5 * 64 + 8, where hashing the 512 members of both sides
# to drop the repeats cost 3,200.  In M [+] G the grid's rows lie
# inside the shared dimensions, so the anti-join is a set difference of
# whole rows, which hashes each row of G.
PAIR_WORK_BOUNDS = [
    ("G [+] H", lambda g, h: set_union(g, h), 512, 328),
    ("G (-) H", lambda g, h: lift_difference(g, h), 72, 200),
    ("G [&] H", lambda g, h: set_intersection(g, h), 9, 152),
    ("G / <b, 3>", lambda g, h: lift_substitution(g, PAIR_B3), 8, 128),
    ("M [+] G", lambda g, h: set_union(MULTI, g), 195, 129),
    ("M (+) M", lambda g, h: lift_override(MULTI, MULTI), 9, 27),
    ("M (-) H", lambda g, h: lift_difference(MULTI, h), 7, 394),
    ("M [&] H", lambda g, h: set_intersection(MULTI, h), 6, 395),
    ("M >< H", lambda g, h: join(MULTI, h), 1, 130),
    ("M / <b, 3>", lambda g, h: lift_substitution(MULTI, PAIR_B3), 4, 4),
]


@pytest.mark.parametrize("apply, members, bound",
                         [row[1:] for row in PAIR_WORK_BOUNDS],
                         ids=[row[0] for row in PAIR_WORK_BOUNDS])
def test_set_operator_pair_work_is_bounded(monkeypatch, apply, members, bound):
    g, h = grids_sharing_b()
    work = count_pair_work(monkeypatch)
    out = apply(g, h)
    assert len(out) == members
    assert len(work) <= bound


# --- box enumeration against the filter over the full product ------------------


def box_of(reg, text):
    """The Box of a Box literal over the dimensions of ``reg``."""
    lit = parse_expr(text)
    return Box([reg.get(n) for n in lit.dims], lit.predicate)


def product_filter(reg, names, holds):
    """The members of the full product of the domains of ``names`` (a bool
    dimension without one ranges over false and true) on which ``holds``,
    a function of the tags by name, is true."""
    return ContextSet(
        make_context(reg, zip(names, combo))
        for combo in itertools.product(*(reg.get(n).domain or (False, True)
                                         for n in names))
        if holds(dict(zip(names, combo))))


def box_oracle_registry(bool_domain):
    reg = DimensionRegistry()
    reg.register("x", TagKind.INT, range(5))
    reg.register("y", TagKind.INT, [1, 3, 5, 7])
    reg.register("m", TagKind.ENUM, ["Ja", "Fe", "Mr"])
    reg.register("b", TagKind.BOOL, bool_domain)
    reg.register("s", TagKind.STR, ["", "a", "b"])
    return reg


BREG = box_oracle_registry([False, True])
# the same, but b declared without a domain: it ranges over false and true
BREG_OPEN = box_oracle_registry(None)
registries = st.sampled_from([BREG, BREG_OPEN])
SYMBOLS = {v.symbol: v for v in BREG.get("m").domain}
BOX_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt, ">=": operator.ge,
}


def ev(t, env):
    """Independent evaluator of a predicate written as nested tuples."""
    tag = t[0]
    if tag == "const":
        return t[1]
    if tag == "ref":
        return env[t[1]] if t[1] in env else SYMBOLS[t[1]]
    if tag == "not":
        return not ev(t[1], env)
    if t[1] == "and":
        return bool(ev(t[2], env)) and bool(ev(t[3], env))
    if t[1] == "or":
        return bool(ev(t[2], env)) or bool(ev(t[3], env))
    return BOX_OPS[t[1]](ev(t[2], env), ev(t[3], env))


KINDS = {"x": "int", "y": "int", "m": "enum", "b": "bool", "s": "str"}


def kind(t):
    """Independent kind of a predicate written as nested tuples, or None
    when it is ill-kinded: arithmetic over ints, ``and``, ``or`` and
    ``not`` over bools, a comparison over two operands of one kind."""
    if t[0] == "const":
        return {bool: "bool", int: "int", str: "str"}[type(t[1])]
    if t[0] == "ref":
        return KINDS.get(t[1], "enum")  # a name that is no dimension is a symbol
    if t[0] == "not":
        return "bool" if kind(t[1]) == "bool" else None
    a, b = kind(t[2]), kind(t[3])
    if a is None or a != b:
        return None
    if t[1] in ("and", "or"):
        return "bool" if a == "bool" else None
    if t[1] in ("+", "-", "*"):
        return "int" if a == "int" else None
    return "bool"


def node(t):
    if t[0] == "const":
        return Const(t[1])
    if t[0] == "ref":
        return Ref(t[1])
    if t[0] == "not":
        return NotOp(node(t[1]))
    return Pointwise(t[1], node(t[2]), node(t[3]))


def op(o, a, b, swap=False):
    return ("op", o, b, a) if swap else ("op", o, a, b)


int_term = st.recursive(
    st.sampled_from([("ref", "x"), ("ref", "y")])
    | st.integers(-2, 12).map(lambda v: ("const", v)),
    lambda sub: st.builds(op, st.sampled_from("+-*"), sub, sub),
    max_leaves=3,
)
int_cmp = st.builds(op, st.sampled_from(["==", "!=", "<", ">="]), int_term, int_term)
# + and - over dimensions and constants, with a few products; a sum that
# holds one box dimension once, under + and - only, is solved for it
lin_term = st.recursive(
    st.sampled_from([("ref", "x"), ("ref", "y"), ("ref", "b")])
    | st.integers(-3, 9).map(lambda v: ("const", v))
    | st.builds(op, st.just("*"), st.sampled_from([("ref", "x"), ("ref", "y")]),
                st.integers(-2, 2).map(lambda v: ("const", v))),
    lambda sub: st.builds(op, st.sampled_from("+-"), sub, sub),
    max_leaves=5,
)
X, Y = ("ref", "x"), ("ref", "y")
small = st.integers(-2, 12).map(lambda v: ("const", v))
# x + y == k, k - x == y, x - y + 1 == k, and any sum against any sum
linear_eq = st.one_of(
    st.builds(lambda k, swap: op("==", op("+", X, Y), k, swap), small, st.booleans()),
    st.builds(lambda k, swap: op("==", op("-", k, X), Y, swap), small, st.booleans()),
    st.builds(lambda k, swap: op("==", op("+", op("-", X, Y), ("const", 1)), k, swap),
              small, st.booleans()),
    st.builds(op, st.just("=="), lin_term, lin_term),
)
atom = st.one_of(
    # a bare dimension on one side of == is solved, its value maybe outside
    # the domain
    st.builds(op, st.just("=="), st.sampled_from([("ref", "x"), ("ref", "y")]),
              int_term, st.booleans()),
    int_cmp,
    st.builds(op, st.sampled_from(["==", "<", "!="]), st.just(("ref", "m")),
              st.sampled_from([("ref", s) for s in SYMBOLS]), st.booleans()),
    st.just(("ref", "b")),
    st.builds(op, st.just("=="), st.just(("ref", "b")), int_cmp, st.booleans()),
    # bool against int: True == 1 and False == 0 hash alike
    st.builds(op, st.just("=="), st.just(("ref", "x")), int_cmp, st.booleans()),
    linear_eq,
    st.builds(op, st.sampled_from(["==", "<", "!="]), st.just(("ref", "s")),
              st.sampled_from([("const", v) for v in ("", "a", "b", "c")]),
              st.booleans()),
)
conjunct = st.recursive(
    atom,
    lambda sub: st.builds(op, st.just("or"), sub, sub) | sub.map(lambda t: ("not", t)),
    max_leaves=3,
)


@given(
    st.lists(conjunct, min_size=1, max_size=4),
    st.permutations(["x", "y", "m", "b", "s"]),
    registries,
)
def test_box_enumerate_matches_product_filter(conjuncts, order, reg):
    assert_enumerates_as_filtered(conjuncts, order, reg)


@given(
    st.lists(linear_eq, min_size=1, max_size=2),
    st.permutations(["x", "y", "b"]),
    registries,
)
def test_box_solves_linear_equalities_as_the_product_filter(conjuncts, order, reg):
    # either dimension may be the last bound, so each rewrite rule is met
    # with the solved dimension on either side of + and -
    assert_enumerates_as_filtered(conjuncts, order, reg)


def assert_enumerates_as_filtered(conjuncts, order, reg):
    """The Box over ``order`` enumerates as the filter of the full product
    of its domains by the conjuncts, and ``box_contains`` answers the
    filter on every member of the product."""
    pred = conjuncts[0]
    for c in conjuncts[1:]:
        pred = ("op", "and", pred, c)
    dims = [reg.get(n) for n in order]
    if kind(pred) != "bool":
        with pytest.raises(IllTypedPredicate):
            Box(dims, node(pred))
        return
    box = Box(dims, node(pred))
    got = box_enumerate(box)
    assert_simple_set(got)
    want = set()
    for c in product_filter(reg, order, lambda tags: True):
        tags = {m.dimension.name: m.tag for m in c}
        holds = bool(ev(pred, tags))
        assert box_contains(box, c) is holds
        if holds:
            want.add(frozenset(tags.items()))
    assert plain(got) == want


@given(
    st.lists(conjunct, min_size=1, max_size=3),
    st.permutations(["x", "y", "m", "b", "s"]),
    registries,
)
def test_box_enumerate_builds_no_duplicate_rows(conjuncts, order, reg):
    pred = conjuncts[0]
    for c in conjuncts[1:]:
        pred = ("op", "and", pred, c)
    if kind(pred) == "bool":  # the product-filter property checks the rest
        assert_distinct_rows(box_enumerate(Box([reg.get(n) for n in order],
                                               node(pred))))


def test_a_wide_or_chain_box_enumerates_as_its_product_filter():
    # a left chain of 1,500 terms: compiled and run with no recursion
    # along it, where the interpreter's limit is about 1,000 frames
    reg = DimensionRegistry()
    x = reg.register("x", TagKind.INT, range(3000))
    kept = range(0, 3000, 2)
    pred = Pointwise("==", Ref("x"), Const(kept[0]))
    for k in kept[1:]:
        pred = Pointwise("or", pred, Pointwise("==", Ref("x"), Const(k)))
    box = Box([x], pred)
    assert box_enumerate(box) == ContextSet(
        make_context(reg, [("x", k)]) for k in kept)
    assert box_contains(box, make_context(reg, [("x", 2998)]))


def test_a_box_over_25_dimensions_enumerates_as_its_product_filter():
    # 25 swept or solved levels, more than the 20 nested blocks that one
    # function may hold: the nest binds 16 levels, then calls a function
    # that binds the rest; d18 and d21 are tested there against tags bound
    # in the first, and d24, in a sum of nine, is solved there
    reg = DimensionRegistry()
    names = [f"d{i:02}" for i in range(25)]
    for i, n in enumerate(names):
        reg.register(n, TagKind.INT, [0, 1] if i % 3 == 0 else [i])
    text = (" + ".join(names[::3]) + " == 4 and d18 != d03"
            " and d21 + d01 > d00 + 1")
    box = box_of(reg, f"Box[{', '.join(names)} | {text}]")

    def holds(t):
        return (sum(t[n] for n in names[::3]) == 4 and t["d18"] != t["d03"]
                and t["d21"] + t["d01"] > t["d00"] + 1)
    want = product_filter(reg, names, holds)
    assert len(want) == 20
    assert box_enumerate(box) == want
    member = next(iter(want))
    assert box_contains(box, member)


def test_a_box_over_a_3000_term_plus_chain_enumerates_as_its_product_filter():
    # x + 1 + ... + 1 == y + 2999, a left chain 3,000 terms deep on the
    # left: lowered to straight-line statements, it compiles where one
    # nested expression would exhaust the compiler's recursion; y is
    # solved through it
    reg = DimensionRegistry()
    x = reg.register("x", TagKind.INT, range(6))
    y = reg.register("y", TagKind.INT, range(4))
    chain = Ref("x")
    for _ in range(2999):
        chain = Pointwise("+", chain, Const(1))
    box = Box([x, y], Pointwise("==", chain, Pointwise("+", Ref("y"), Const(2999))))
    want = product_filter(reg, ["x", "y"], lambda t: t["x"] == t["y"])
    assert len(want) == 4
    assert box_enumerate(box) == want
    for c in product_filter(reg, ["x", "y"], lambda t: True):
        assert box_contains(box, c) is (c in want)


def test_boxes_of_one_shape_share_one_compiled_nest(monkeypatch):
    monkeypatch.setattr(sets, "_NESTS", {})
    monkeypatch.setattr(sets, "_PLANS", {})
    reg = box_registry()
    boxes = {k: box_of(reg, f"Box[d1, d2 | d1 + d2 == {k} and d1 < {k - 1}]")
             for k in range(2, 8)}
    # one shape: one source compiled, one plan kept, the constants apart
    assert len(sets._NESTS) == len(sets._PLANS) == 1
    assert len({id(b._nest) for b in boxes.values()}) == 1
    assert {b._consts for b in boxes.values()} == {(k, k - 1) for k in boxes}
    for k, b in boxes.items():
        assert box_enumerate(b) == product_filter(
            reg, ["d1", "d2"], lambda t: t["d1"] + t["d2"] == k and t["d1"] < k - 1)
    # enum members are constants too
    reg = month_registry()
    m = reg.get("m")
    months = [Box([m], Pointwise("!=", Ref("m"), Ref(s))) for s in ("Fe", "Mr")]
    assert months[0]._nest is months[1]._nest and len(sets._NESTS) == 2
    assert [len(box_enumerate(b)) for b in months] == [2, 2]


def test_the_nest_caches_keep_at_most_their_bound(monkeypatch):
    monkeypatch.setattr(sets, "_NESTS", {})
    monkeypatch.setattr(sets, "_PLANS", {})
    monkeypatch.setattr(sets, "_NEST_LIMIT", 8)
    reg = box_registry()
    for n in range(1, 30):  # 29 shapes: d1 + ... + d1 < d2, n terms
        box = box_of(reg, f"Box[d1, d2 | {' + '.join(['d1'] * n)} < d2]")
        assert len(sets._NESTS) <= 8 and len(sets._PLANS) <= 8
        assert box_enumerate(box) == product_filter(
            reg, ["d1", "d2"], lambda t: n * t["d1"] < t["d2"])
    # the oldest go first: the newest shape is kept
    assert box._nest in sets._NESTS.values()


def odd_session():
    """A session whose dimension names are a Python keyword, constant and
    operator, a name the loop nest gives its own variables, and a
    non-ASCII name, and whose str tags hold quotes and Python syntax."""
    session = new_session()
    for line in ("dim for : int 1 2 3", "dim None : int 0 1 2", "dim not : bool",
                 "dim v0 : int 1 2 3 4", "dim é : enum {A, B}",
                 'dim s : str "" "); x = (" "a\\"b"'):
        run_command(session, line)
    return session


# A Box's dimensions and predicate, and the predicate over the tags by
# name (enum members by symbol).
ODD_BOXES = [
    ("for, None, not, v0, é", "for + None == v0 and é != A",
     lambda t: t["for"] + t["None"] == t["v0"] and t["é"].symbol != "A"),
    ("s, v0", 's != "a\\"b" and v0 < 3 or s == "); x = ("',
     lambda t: t["s"] != 'a"b' and t["v0"] < 3 or t["s"] == "); x = ("),
    ("None, s", 's == "); x = (" or None == 0',
     lambda t: t["s"] == "); x = (" or t["None"] == 0),
]


@pytest.mark.parametrize("names, text, holds", ODD_BOXES,
                         ids=[row[1] for row in ODD_BOXES])
def test_no_dimension_name_or_tag_is_source_text(names, text, holds):
    session = odd_session()
    reg = session.env.registry
    box = box_of(reg, f"Box[{names} | {text}]")
    dims = [d.name for d in box.dims]
    product = product_filter(reg, dims, lambda t: True)
    want = product_filter(reg, dims, holds)
    assert 0 < len(want) < len(product)
    assert box_enumerate(box) == want
    assert [box_contains(box, c) for c in product] == [c in want for c in product]
    line = f"eval Box[{names} | {text}] ! {{{names}}}"
    assert run_command(session, line) == [str(want)]


def test_a_box_reads_a_dimension_named_not():
    # the grammar reads ``not`` as its operator, so only the constructor
    # can build a predicate that reads the dimension
    reg = odd_session().env.registry
    names = ["not", "for", "v0"]
    box = Box([reg.get(n) for n in names],
              Pointwise("or", NotOp(Ref("not")), Pointwise("==", Ref("for"), Ref("v0"))))
    product = product_filter(reg, names, lambda t: True)
    want = product_filter(reg, names, lambda t: not t["not"] or t["for"] == t["v0"])
    assert 0 < len(want) < len(product)
    assert box_enumerate(box) == want
    assert [box_contains(box, c) for c in product] == [c in want for c in product]


def count_tries(monkeypatch):
    """A list that grows by one on each candidate tag that box_enumerate
    tries: each tag that a level's ``for`` takes from its domain, and each
    tag that a solved level's index lookup finds in it.  Both read the
    domain that ``sets._domain`` hands the loop nest, so it is handed one
    that counts its reads."""
    tries = []
    real = sets._domain

    class Counted(tuple):
        def __iter__(self):
            for tag in tuple.__iter__(self):
                tries.append(tag)
                yield tag

        def __getitem__(self, k):
            tries.append(tuple.__getitem__(self, k))
            return tries[-1]

    def counted(d):
        domain, index = real(d)
        return Counted(domain), index

    monkeypatch.setattr(sets, "_domain", counted)
    return tries


def test_count_tries_counts_swept_and_solved_candidates(monkeypatch):
    reg = DimensionRegistry()
    for n in "xy":
        reg.register(n, TagKind.INT, range(10))
    tries = count_tries(monkeypatch)
    # x swept, all 10 tried; y solved, tried where 5 - x lies in range(10)
    got = box_enumerate(box_make([reg.get("x"), reg.get("y")],
                                 parse_expr("Box[x, y | x + y == 5]").predicate))
    assert len(got) == 6
    assert sorted(tries) == sorted([*range(10), *range(6)])


def test_box_tries_at_most_one_domain_per_dimension(monkeypatch):
    reg = DimensionRegistry()
    for n in "xyz":
        reg.register(n, TagKind.INT, range(60))
    x, y, z = (reg.get(n) for n in "xyz")
    pred = Pointwise(
        "and",
        Pointwise("and", Pointwise("==", Ref("x"), Const(3)),
                  Pointwise("==", Ref("y"), Const(4))),
        Pointwise("==", Ref("z"), Const(5)),
    )
    tries = count_tries(monkeypatch)
    got = box_enumerate(box_make([x, y, z], pred))
    assert got == cs(make_context(reg, [("x", 3), ("y", 4), ("z", 5)]))
    # each dimension is solved, so its one candidate is its only try; a
    # nest that swept them would try a domain per dimension, 3 * 60, and
    # one that did not prune the full product, 216,000
    assert len(tries) == 3


# Each shape fixes y once x is bound.  ``tries_made`` is the count of
# candidate tags tried over range(60) when the solver rewrote the
# predicate, a bound for any solving rule; sweeping y as well tries
# 60 + 60 * 60.
SOLVING_SHAPES = [
    ("x + y == 7", lambda x: 7 - x, 68),
    ("7 == x + y", lambda x: 7 - x, 68),
    ("7 - x == y", lambda x: 7 - x, 68),
    ("y - x == 2", lambda x: x + 2, 118),
    ("x - y == 2", lambda x: x - 2, 118),
    ("x - (3 - y) == 2", lambda x: 5 - x, 66),
    ("0 - y == 0 - x", lambda x: x, 120),
]


@pytest.mark.parametrize("shape, solution, tries_made", SOLVING_SHAPES,
                         ids=[row[0] for row in SOLVING_SHAPES])
def test_box_solves_a_linear_equality_for_its_last_dimension(
        monkeypatch, shape, solution, tries_made):
    reg = DimensionRegistry()
    for n in "xy":
        reg.register(n, TagKind.INT, range(60))
    x, y = reg.get("x"), reg.get("y")
    tries = count_tries(monkeypatch)
    pred = parse_expr(f"Box[x, y | {shape}]").predicate
    got = box_enumerate(box_make([x, y], pred))
    assert got == ContextSet(
        make_context(reg, [("x", k), ("y", solution(k))])
        for k in range(60) if solution(k) in range(60))
    # x is swept and y is solved: one try per value of x, and one per
    # value of y that it solves to inside the domain, each member's at least
    assert 60 + len(got) <= len(tries) <= tries_made <= 2 * 60


def count_micros(monkeypatch):
    """The (dimension name, tag) of every micro context built from here on,
    by the constructor or unchecked: both build through
    ``MicroContext._of``."""
    built = []
    real = model.MicroContext._of

    def counted(cls, dimension, tag):
        built.append((dimension.name, tag))
        return real(dimension, tag)

    monkeypatch.setattr(model.MicroContext, "_of", classmethod(counted))
    return built


def test_box_builds_each_micro_context_once(monkeypatch):
    reg = DimensionRegistry()
    for n in "xy":
        reg.register(n, TagKind.INT, range(60))
    x, y = reg.get("x"), reg.get("y")
    built = count_micros(monkeypatch)
    box = box_make([x, y], Pointwise("<", Ref("x"), Const(3)))
    got = box_enumerate(box)
    assert len(got) == 180
    # one per distinct (dimension, tag) of the members: 3 of x, 60 of y,
    # where one per member per dimension is 360
    assert len(built) == 3 + 60
    # the dimensions keep their pairs: enumerating again builds none
    built.clear()
    assert box_enumerate(box) == got and built == []


def test_a_range_evaluated_twice_builds_no_new_pair(monkeypatch):
    reg = DimensionRegistry()
    for n in "xy":
        reg.register(n, TagKind.INT, range(60))
    c1 = make_context(reg, [("x", 0), ("y", 5)])
    c2 = make_context(reg, [("x", 9), ("y", 0)])
    built = count_micros(monkeypatch)
    got = ops.undirected_range(c1, c2)
    assert len(got) == 60
    # one per swept (dimension, tag): 10 of x and 6 of y, less the four
    # endpoints the literals already built
    assert len(built) == 10 + 6 - 4
    built.clear()
    assert ops.undirected_range(c1, c2) == got
    assert ops.directed_range(c2, c1) == ContextSet(
        make_context(reg, [("y", k)]) for k in range(6))
    assert built == []


def range_registry():
    reg = DimensionRegistry()
    for n in "kn":
        reg.register(n, TagKind.INT)  # no domain
    reg.register("m", TagKind.ENUM, ["Ja", "Fe", "Mr", "Ap", "My", "Jn"])
    reg.register("s", TagKind.STR)
    return reg


# A range's operands, and the pairs its first evaluation builds: each
# swept (dimension, tag) that no literal built, once.
RANGE_PAIR_BUILDS = [
    # n sweeps the ints 0..9 and k -2..3, less the four endpoints
    ("int dimensions without a domain", [("n", 0), ("k", 3)],
     [("n", 9), ("k", -2)], 10 + 6 - 4),
    # Fe..My: the literals built the endpoints, asked for by symbol, and
    # the sweep asks by member, which finds them, so only Mr and Ap are new
    ("an enum dimension", [("m", "Fe")], [("m", "My")], 2),
]


@pytest.mark.parametrize("left, right, builds",
                         [row[1:] for row in RANGE_PAIR_BUILDS],
                         ids=[row[0] for row in RANGE_PAIR_BUILDS])
def test_a_range_builds_each_new_pair_once(monkeypatch, left, right, builds):
    reg = range_registry()
    c1, c2 = make_context(reg, left), make_context(reg, right)
    built = count_micros(monkeypatch)
    got = ops.undirected_range(c1, c2)
    assert len(built) == len(set(built)) == builds
    built.clear()
    assert ops.undirected_range(c1, c2) == got and built == []


# Ranges that fail a check after n, first in name order, has passed its
# own: a sweep of n would build 1,001 pairs.
FAILING_RANGES = [
    ("second shared dimension unordered", [("n", 0), ("s", "a")],
     [("n", 1000), ("s", "b")], UnorderedRangeDimension),
    ("residue binds m twice", [("n", 0), ("m", "Ja"), ("m", "Fe")],
     [("n", 1000)], NonSimpleResidue),
]


@pytest.mark.parametrize("left, right, error",
                         [row[1:] for row in FAILING_RANGES],
                         ids=[row[0] for row in FAILING_RANGES])
def test_a_failing_range_builds_no_pair(monkeypatch, left, right, error):
    reg = range_registry()
    c1, c2 = make_context(reg, left), make_context(reg, right)
    built = count_micros(monkeypatch)
    for range_op in (ops.undirected_range, ops.directed_range):
        with pytest.raises(error):
            range_op(c1, c2)
    assert built == []


def test_an_enum_pair_by_symbol_is_the_pair_by_member(monkeypatch):
    reg = range_registry()
    m = reg.get("m")
    built = count_micros(monkeypatch)
    (literal,) = make_context(reg, [("m", "Fe")])
    ((member,),) = box_enumerate(box_of(reg, "Box[m | m == Fe]"))
    assert member is literal is m.micro(m.symbols["Fe"]) is m.micro("Fe")
    ((swept,),) = ops.undirected_range(make_context(reg, [("m", "Fe")]),
                                       make_context(reg, [("m", "Fe")]))
    assert swept is literal
    assert built == [("m", m.symbols["Fe"])]


@pytest.mark.parametrize("name, lo, hi, texts", [
    ("n", 0, 4, ["(n, 0)", "(n, 1)", "(n, 2)", "(n, 3)", "(n, 4)"]),
    ("m", "Ja", "Mr", ["(m, Ja)", "(m, Fe)", "(m, Mr)"]),
])
def test_a_swept_pair_is_its_dimensions_pair(name, lo, hi, texts):
    reg = range_registry()
    got = ops.undirected_range(make_context(reg, [(name, lo)]),
                               make_context(reg, [(name, hi)]))
    d = reg.get(name)
    (rows,) = got._groups.values()
    pairs = [pair for (pair,) in rows]
    assert [repr(pair) for pair in pairs] == texts
    for pair in pairs:
        assert d.micro(pair.tag) is pair
        twin = MicroContext(d, pair.tag)
        assert pair == twin and hash(pair) == hash(twin)
        assert str(pair) == repr(twin)
