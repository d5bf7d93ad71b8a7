import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from ctxcalc import ops
from ctxcalc.cli import new_session, run_command
from ctxcalc.errors import (
    ContextCalcError,
    EmptyChoice,
    KindMismatch,
    NonSimpleOperand,
    NonSimpleResidue,
    UnorderedRangeDimension,
)
from ctxcalc.evaluator import Environment, evaluate
from ctxcalc.model import (
    NULL_CONTEXT,
    Context,
    ContextSet,
    DimensionRegistry,
    MicroContext,
    TagKind,
    make_context,
)
from ctxcalc.parser import parse_expr
from ctxcalc.sets import lift_choice

from conftest import count_calls, int_registry, undirected_range_oracle

REG = int_registry("defgh")
XREG = int_registry("wxyz")


def ctx(*pairs):
    return make_context(REG, pairs)


def xctx(*pairs):
    return make_context(XREG, pairs)


def dims(*names):
    return frozenset(REG.get(n) for n in names)


pairs_st = st.lists(
    st.tuples(st.sampled_from("defg"), st.integers(0, 5)), max_size=6
)
simple_st = st.dictionaries(
    st.sampled_from("defg"), st.integers(0, 5), max_size=4
).map(lambda d: make_context(REG, list(d.items())))
dimset_st = st.sets(st.sampled_from("defg")).map(
    lambda names: frozenset(REG.get(n) for n in names)
)


# --- override -----------------------------------------------------------------


def test_override_worked_values():
    c1 = xctx(("x", 5), ("y", 6))
    assert ops.override(c1, xctx(("x", 3), ("y", 4), ("z", 5))) == xctx(
        ("x", 3), ("y", 4), ("z", 5)
    )
    assert ops.override(c1, xctx(("y", 5))) == xctx(("x", 5), ("y", 5))


def test_override_null_identity():
    c = ctx(("d", 1), ("e", 4))
    assert ops.override(c, NULL_CONTEXT) == c
    assert ops.override(NULL_CONTEXT, c) == c


def test_override_needs_simple_right():
    with pytest.raises(NonSimpleOperand):
        ops.override(ctx(("d", 1)), ctx(("d", 1), ("d", 2)))


# --- chains of context operators --------------------------------------------------
# The evaluator overrides once per run of (+); a chain must still print what
# the left fold of the ops.* functions gives, or raise the same error.

CHAIN_OPS = {
    "(+)": ops.override,
    "(-)": ops.difference,
    "%": ops.disjunction,
    "&": ops.conjunction,
}
CHAIN_SESSION = new_session()
for _name in "def":
    run_command(CHAIN_SESSION, f"dim {_name} : int")

chain_pairs_st = st.lists(
    st.tuples(st.sampled_from("def"), st.integers(0, 3)), max_size=4)
chain_member_st = st.dictionaries(
    st.sampled_from("def"), st.integers(0, 3), max_size=3
).map(lambda d: sorted(d.items()))
chain_set_st = st.lists(chain_member_st, min_size=1, max_size=2).map(
    lambda members: ("context set", members))


def _pairs_text(pairs):
    return "{" + ", ".join(f"({n}, {t})" for n, t in pairs) + "}"


def chain_operand_text(operand):
    kind, body = operand
    if kind == "context":
        return _pairs_text(body)
    return "{" + ", ".join(map(_pairs_text, body)) + "}"


def chain_text(first, rest):
    """The chain's text, bracketed where & or % would bind a right operand
    tighter than the (+) or (-) before it, so it parses as a left chain."""
    text, loose = chain_operand_text(first), False
    for op, operand in rest:
        if op in ("&", "%") and loose:
            text, loose = f"({text})", False
        loose = loose or op in ("(+)", "(-)")
        text = f"{text} {op} {chain_operand_text(operand)}"
    return text


def chain_left_fold(first, rest):
    """The left fold of the ops.* functions over the chain's values."""
    registry = CHAIN_SESSION.env.registry

    def value(operand):
        kind, body = operand
        if kind == "context":
            return make_context(registry, body)
        return ContextSet(make_context(registry, m) for m in body)

    def kind(v):
        return "context set" if isinstance(v, ContextSet) else "context"

    acc = value(first)
    for op, operand in rest:
        right = value(operand)
        if isinstance(acc, ContextSet) or isinstance(right, ContextSet):
            raise KindMismatch(
                f"operator {op!r} cannot combine a {kind(acc)} with a {kind(right)}")
        acc = CHAIN_OPS[op](acc, right)
    return acc


def outcome(compute):
    try:
        return compute()
    except ContextCalcError as e:
        return type(e), str(e)


@st.composite
def chains(draw):
    length = draw(st.integers(1, 8))
    operands = [("context", draw(chain_pairs_st)) for _ in range(length)]
    if draw(st.booleans()):
        # at most one set, so two sets never meet
        operands[draw(st.integers(0, length - 1))] = draw(chain_set_st)
    ops_drawn = draw(st.lists(st.sampled_from(sorted(CHAIN_OPS)),
                              min_size=length - 1, max_size=length - 1))
    return operands[0], list(zip(ops_drawn, operands[1:]))


@given(chains())
# a run whose last binding of e wins
@example((("context", [("d", 1), ("d", 2), ("e", 1)]),
          [("(+)", ("context", [("e", 2)])), ("(+)", ("context", [("f", 3), ("e", 5)]))]))
# a non-simple operand inside a run raises before the set after it is reached
@example((("context", [("d", 1)]),
          [("(+)", ("context", [("e", 1)])), ("(+)", ("context", [("e", 1), ("e", 2)])),
           ("(+)", ("context set", [[("d", 1)]]))]))
# a set then a context: no row, though (+) over two contexts folds
@example((("context set", [[("d", 1)]]),
          [("(+)", ("context", [("e", 1)])), ("(+)", ("context", [("f", 2)]))]))
def test_a_chain_prints_the_left_fold_of_its_operators(chain):
    first, rest = chain
    got = outcome(lambda: run_command(CHAIN_SESSION, "eval " + chain_text(first, rest)))
    want = outcome(lambda: [str(chain_left_fold(first, rest))])
    assert got == want


def override_chain(n, dims, middle=None):
    """A session with ``dims`` dimensions, the eval line of an n-term (+)
    chain over them, with ``middle`` for the operator halfway along, and
    the printed left fold of the chain."""
    session = new_session()
    for i in range(dims):
        run_command(session, f"dim g{i} : int")
    terms = [[(f"g{(i + j) % dims}", i) for j in range(i % 3 + 1)] for i in range(n)]
    ops_used = ["(+)"] * (n - 1)
    if middle is not None:
        ops_used[n // 2] = middle
    text = _pairs_text(terms[0])
    want = make_context(session.env.registry, terms[0])
    for op, term in zip(ops_used, terms[1:]):
        text += f" {op} {_pairs_text(term)}"
        want = CHAIN_OPS[op](want, make_context(session.env.registry, term))
    return session, "eval " + text, [str(want)]


@pytest.mark.parametrize("middle, overrides", [(None, 1), ("(-)", 2)])
def test_a_run_of_override_calls_ops_override_once(monkeypatch, middle, overrides):
    session, line, want = override_chain(500, 20, middle)
    calls = count_calls(monkeypatch, "override")
    assert run_command(session, line) == want
    assert len(calls) == overrides  # not one per operator


# --- set-theoretic operators -----------------------------------------------


def test_difference():
    assert ops.difference(ctx(("d", 1), ("e", 4)), ctx(("e", 4))) == ctx(("d", 1))
    c = ctx(("d", 1), ("e", 4))
    assert ops.difference(c, c) == NULL_CONTEXT
    assert ops.difference(ctx(("d", 1)), ctx(("d", 2))) == ctx(("d", 1))


def test_conjunction_disjunction():
    assert ops.conjunction(ctx(("d", 1), ("e", 4)), ctx(("e", 4), ("f", 3))) == ctx(
        ("e", 4)
    )
    assert ops.conjunction(ctx(("d", 1)), NULL_CONTEXT) == NULL_CONTEXT
    union = ops.disjunction(ctx(("d", 1)), ctx(("d", 2)))
    assert union == ctx(("d", 1), ("d", 2))
    assert not union.is_simple()


# --- choice ----------------------------------------------------------------------


def test_choice_singleton_forced():
    c = ctx(("d", 1))
    assert ops.choice([c], random.Random(3)) is c


def test_choice_membership_and_determinism():
    cands = [ctx(("d", 1)), ctx(("e", 2)), ctx(("f", 3))]
    for seed in range(100):
        assert ops.choice(cands, random.Random(seed)) in cands
    fixed = ops.choice(cands, random.Random(42))
    assert all(
        ops.choice(cands, random.Random(42)) == fixed for _ in range(100)
    )


def test_choice_empty():
    with pytest.raises(EmptyChoice):
        ops.choice([], random.Random(0))


# --- projection / hiding ---------------------------------------------------------


def test_projection_worked_value():
    c1 = ctx(("d", 1), ("e", 4), ("f", 3))
    assert ops.projection(c1, dims("d", "e")) == ctx(("d", 1), ("e", 4))
    assert ops.projection(c1, c1.dims()) == c1
    assert ops.projection(c1, frozenset()) == NULL_CONTEXT


def test_hiding_worked_value():
    c1 = ctx(("d", 1), ("e", 4), ("f", 3))
    assert ops.hiding(c1, dims("d", "e")) == ctx(("f", 3))
    assert ops.hiding(c1, frozenset()) == c1
    c3 = xctx(("x", 5), ("y", 6), ("w", 5))
    assert ops.hiding(c3, frozenset([XREG.get("w")])) == xctx(("x", 5), ("y", 6))


# --- substitution ---------------------------------------------------------------


def test_substitution_worked_value():
    c1 = ctx(("d", 1), ("e", 4), ("d", 3))
    c2 = ctx(("d", 4), ("f", 3))
    assert ops.substitution(c1, c2) == ctx(("e", 4), ("d", 4))


def test_substitution_null_and_disjoint():
    c = ctx(("d", 1), ("e", 4))
    assert ops.substitution(c, NULL_CONTEXT) == c
    assert ops.substitution(ctx(("d", 1)), ctx(("f", 2))) == ctx(("d", 1))


def test_substitution_needs_simple():
    with pytest.raises(NonSimpleOperand):
        ops.substitution(ctx(("d", 1)), ctx(("d", 1), ("d", 2)))


# --- ranges -------------------------------------------------------------------


def test_undirected_range_grid():
    got = ops.undirected_range(ctx(("e", 3), ("d", 1)), ctx(("e", 1), ("d", 3)))
    want = ContextSet(
        ctx(("e", i), ("d", j)) for i in (1, 2, 3) for j in (1, 2, 3)
    )
    assert got == want


def test_undirected_range_disjoint_dims():
    got = ops.undirected_range(ctx(("e", 3)), ctx(("f", 4)))
    assert got == ContextSet([ctx(("e", 3), ("f", 4))])


def test_undirected_range_partial_overlap():
    got = ops.undirected_range(ctx(("e", 3)), ctx(("e", 1), ("f", 4)))
    want = ContextSet(ctx(("e", i), ("f", 4)) for i in (1, 2, 3))
    assert got == want


def test_directed_range_forward():
    got = ops.directed_range(ctx(("d", 1)), ctx(("d", 3), ("f", 4)))
    want = ContextSet(ctx(("d", i), ("f", 4)) for i in (1, 2, 3))
    assert got == want


def test_directed_range_ignored_pair():
    got = ops.directed_range(ctx(("d", 3), ("f", 4)), ctx(("d", 1)))
    assert got == ContextSet([ctx(("f", 4))])


def test_directed_range_equal_tags_ignored():
    # strict <: the pair is dropped and its dimension hidden entirely
    got = ops.directed_range(ctx(("d", 2)), ctx(("d", 2)))
    assert got == ContextSet([NULL_CONTEXT])


def test_directed_range_needs_simple_right():
    with pytest.raises(NonSimpleOperand):
        ops.directed_range(ctx(("d", 1)), ctx(("d", 2), ("d", 3)))


def test_range_over_string_dimension_rejected():
    reg = DimensionRegistry()
    reg.register("s", TagKind.STR)
    a = make_context(reg, [("s", "a")])
    b = make_context(reg, [("s", "b")])
    with pytest.raises(UnorderedRangeDimension):
        ops.undirected_range(a, b)


RANGE_OVER_TWO_UNORDERED = (
    "dim s : str\n"
    "dim t : bool\n"
    'eval {(s, "a"), (t, true)} <=> {(s, "c"), (t, false)}\n'
)


@pytest.mark.parametrize("seed", range(6))
def test_a_range_reports_its_unsteppable_dimensions_in_name_order(seed):
    # two unsteppable shared dimensions: the one named first is reported,
    # whatever order the hash seed gives the operands' dimension sets
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    proc = subprocess.run(
        [sys.executable, "-m", "ctxcalc"], input=RANGE_OVER_TWO_UNORDERED,
        capture_output=True, text=True, env=env, check=True)
    assert proc.stderr == "error: range over str dimension 's'\n"


def test_range_non_simple_residue():
    c1 = ctx(("g", 1), ("g", 2), ("d", 1))
    c2 = ctx(("d", 3))
    with pytest.raises(NonSimpleResidue):
        ops.undirected_range(c1, c2)


def test_range_over_enum_domain_steps():
    reg = DimensionRegistry()
    reg.register("month", TagKind.ENUM, ["Ja", "Fe", "Mr", "Ap"])
    a = make_context(reg, [("month", "Ja")])
    b = make_context(reg, [("month", "Mr")])
    got = ops.undirected_range(a, b)
    want = ContextSet(
        make_context(reg, [("month", s)]) for s in ("Ja", "Fe", "Mr")
    )
    assert got == want


def test_range_members_share_domain_and_are_simple():
    got = ops.undirected_range(ctx(("d", 1), ("e", 2)), ctx(("d", 3), ("f", 1)))
    domains = {frozenset(c.dims()) for c in got}
    assert len(domains) == 1
    assert all(c.is_simple() for c in got)


_SET = ContextSet([make_context(REG, [("d", 1)])])

# Operators that run once per operator, never per set member, and the
# session's inputs, refuse an argument of the wrong kind as a typed error.
WRONG_KINDS = {
    "evaluate-env-none": lambda: evaluate(parse_expr("{(d, 1)}"), None),
    "environment-registry-none": lambda: Environment(None, random.Random(0)),
    "environment-rng-none": lambda: Environment(DimensionRegistry(), None),
    "environment-rng-int": lambda: Environment(DimensionRegistry(), 7),
    "make-context-registry-none": lambda: make_context(None, [("d", 1)]),
    "micro-context-dimension-int": lambda: MicroContext(5, 1),
    "choice-int-candidates": lambda: ops.choice(5, random.Random(0)),
    "choice-rng-none": lambda: ops.choice([ctx(("d", 1))], None),
    "lift-choice-rng-none": lambda: lift_choice(_SET, _SET, None),
    "undirected-range-int": lambda: ops.undirected_range(ctx(("d", 1)), 3),
    "directed-range-int": lambda: ops.directed_range(ctx(("d", 1)), 3),
    "compare-int": lambda: ctx(("d", 1)).compare(3),
}


@pytest.mark.parametrize("call", WRONG_KINDS.values(), ids=WRONG_KINDS.keys())
def test_operators_refuse_arguments_of_the_wrong_kind(call):
    with pytest.raises(KindMismatch):
        call()


_C, _D = ctx(("d", 1)), dims("d")

# Each public context operator checks both its arguments' kinds once per
# call, a row per operator and side, with the message the set layer gives.
NOT_CONTEXTS = {
    "projection-left": (lambda: ops.projection(3, _D), "not a context: int"),
    "projection-right": (lambda: ops.projection(_C, "d"),
                         "not a set of dimensions: 'd'"),
    "hiding-left": (lambda: ops.hiding("c", _D), "not a context: str"),
    "hiding-right": (lambda: ops.hiding(_C, 5), "not a set of dimensions: 5"),
    "difference-left": (lambda: ops.difference(3, _C), "not a context: int"),
    "difference-right": (lambda: ops.difference(_C, 3), "not a context: int"),
    "conjunction-left": (lambda: ops.conjunction(3, _C), "not a context: int"),
    "conjunction-right": (lambda: ops.conjunction(_C, 3), "not a context: int"),
    "disjunction-left": (lambda: ops.disjunction(3, _C), "not a context: int"),
    "disjunction-right": (lambda: ops.disjunction(_C, 3), "not a context: int"),
    "override-left": (lambda: ops.override(5, _C), "not a context: int"),
    "override-right": (lambda: ops.override(_C, "y"), "not a context: str"),
    "substitution-left": (lambda: ops.substitution(None, _C),
                          "not a context: NoneType"),
    "substitution-right": (lambda: ops.substitution(_C, 3), "not a context: int"),
}


@pytest.mark.parametrize("call, message", NOT_CONTEXTS.values(),
                         ids=NOT_CONTEXTS.keys())
def test_context_operators_refuse_arguments_of_the_wrong_kind(call, message):
    with pytest.raises(KindMismatch) as caught:
        call()
    assert str(caught.value) == message


# --- properties ----------------------------------------------------------------


@given(pairs_st, dimset_st)
def test_projection_hiding_partition(pairs, dset):
    c = make_context(REG, pairs)
    kept, hidden = ops.projection(c, dset), ops.hiding(c, dset)
    assert ops.disjunction(kept, hidden) == c
    assert ops.conjunction(kept, hidden) == NULL_CONTEXT


@given(pairs_st, simple_st)
def test_override_laws(pairs, s):
    c = make_context(REG, pairs)
    merged = ops.override(c, s)
    assert merged.dims() == c.dims() | s.dims()
    assert ops.projection(merged, s.dims()) == s


@given(simple_st, simple_st)
def test_substitution_equal_domains(c, s):
    if c.dims() == s.dims():
        assert ops.substitution(c, s) == s


@given(simple_st, simple_st)
def test_undirected_range_symmetric(c1, c2):
    assert ops.undirected_range(c1, c2) == ops.undirected_range(c2, c1)


@given(simple_st, simple_st)
def test_undirected_range_matches_oracle(c1, c2):
    assert ops.undirected_range(c1, c2) == undirected_range_oracle(c1, c2)


def tag_lt_range_oracle(c1, c2, directed):
    """A range as plain (name, tag) pairs, each subrange over a declared
    domain found by filtering the domain with the tags' own order."""
    by_name = {m.dimension.name: m for m in c1}
    other = {m.dimension.name: m for m in c2}
    shared = sorted(by_name.keys() & other.keys())
    residue = {
        (m.dimension.name, m.tag)
        for m in list(c1) + list(c2)
        if m.dimension.name not in shared
    }
    axes = []
    for name in shared:
        a, b = by_name[name].tag, other[name].tag
        if directed and not a < b:
            continue
        lo, hi = (b, a) if b < a else (a, b)
        domain = by_name[name].dimension.domain
        if domain is None:
            values = range(lo, hi + 1)
        else:
            values = [v for v in domain if not v < lo and not hi < v]
        axes.append([(name, v) for v in values])
    return {frozenset(residue | set(combo)) for combo in itertools.product(*axes)}


@given(st.data())
def test_range_over_declared_domain_matches_tag_lt_filter(data):
    reg = DimensionRegistry()
    domain = sorted(data.draw(st.sets(st.integers(-20, 40), min_size=1, max_size=12)))
    reg.register("k", TagKind.INT, domain)
    reg.register("month", TagKind.ENUM, ["Ja", "Fe", "Mr", "Ap", "Ma"])
    reg.register("u", TagKind.INT)
    choices = {
        "k": st.sampled_from(domain),
        "month": st.sampled_from(reg.get("month").domain),
        "u": st.integers(0, 3),
    }

    def context():
        names = data.draw(st.sets(st.sampled_from(sorted(choices)), max_size=2))
        return make_context(reg, [(n, data.draw(choices[n])) for n in names])

    c1, c2 = context(), context()
    for directed, fn in ((False, ops.undirected_range), (True, ops.directed_range)):
        got = {frozenset((m.dimension.name, m.tag) for m in c) for c in fn(c1, c2)}
        assert got == tag_lt_range_oracle(c1, c2, directed)


# Ranges whose operands bind a dimension more than once: an undeclared int
# dimension, a declared int domain with gaps and negative tags, an enum, and
# one more undeclared int that mostly rides along as residue.
SPAN_REG = DimensionRegistry()
SPAN_REG.register("u", TagKind.INT)
SPAN_REG.register("k", TagKind.INT, [-9, -4, -1, 0, 3, 7, 8, 15])
SPAN_REG.register("m", TagKind.ENUM, ["Ja", "Fe", "Mr", "Ap", "Ma"])
SPAN_REG.register("r", TagKind.INT)
SPAN_TAGS = {
    "u": st.integers(-3, 4),
    "k": st.sampled_from(SPAN_REG.get("k").domain),
    "m": st.sampled_from(SPAN_REG.get("m").domain),
    "r": st.integers(0, 2),
}
MR = SPAN_REG.get("m").symbols["Mr"]
span_pair_st = st.sampled_from("ukmr").flatmap(
    lambda n: st.tuples(st.just(n), SPAN_TAGS[n]))
span_st = st.lists(span_pair_st, max_size=6)
span_simple_st = st.lists(span_pair_st, max_size=4, unique_by=lambda p: p[0])


def per_pair_range_oracle(p1, p2, directed):
    """A range over (name, tag) pairs as a set of frozensets, or None for a
    non-simple residue: along each shared name, the union of the subranges
    of every cross pair, a directed pair counting only when its left tag is
    below its right one; a name that no pair counts for is dropped."""
    p1, p2 = set(p1), set(p2)
    shared = {n for n, _ in p1} & {n for n, _ in p2}
    residue = {(n, t) for n, t in p1 | p2 if n not in shared}
    if len({n for n, _ in residue}) < len(residue):
        return None
    values = {}
    for n1, a in p1:
        for n2, b in p2:
            if n1 != n2 or directed and not a < b:
                continue
            lo, hi = (b, a) if b < a else (a, b)
            domain = SPAN_REG.get(n1).domain or range(lo, hi + 1)
            values.setdefault(n1, set()).update(
                v for v in domain if not v < lo and not hi < v)
    axes = [[(n, v) for v in tags] for n, tags in values.items()]
    return {frozenset(residue.union(combo)) for combo in itertools.product(*axes)}


def span_range(fn, p1, p2):
    c1, c2 = make_context(SPAN_REG, p1), make_context(SPAN_REG, p2)
    try:
        got = fn(c1, c2)
    except NonSimpleResidue:
        return None
    return {frozenset((m.dimension.name, m.tag) for m in c) for c in got}


@given(span_st, span_st, span_simple_st)
# every left tag at or above the right one: the dimension is dropped
@example([("u", 3), ("u", 1), ("k", 7)], [], [("u", 1), ("k", 0)])
@example([("k", 8), ("k", 3), ("m", MR)], [], [("k", 3), ("m", MR)])
def test_non_simple_ranges_match_the_per_pair_union(p1, p2, simple):
    assert span_range(ops.undirected_range, p1, p2) == per_pair_range_oracle(
        p1, p2, directed=False)
    assert span_range(ops.directed_range, p1, simple) == per_pair_range_oracle(
        p1, simple, directed=True)


# --- Lucx laws against an oracle over plain pair sets ---------------------------
# A context is modelled as a frozenset of (name, tag) pairs; conjunction and
# disjunction are set intersection and union, and override drops the left
# pairs on the right's dimensions.  The laws are evaluated through the
# expression language.

plain_st = st.frozensets(
    st.tuples(st.sampled_from("defg"), st.integers(0, 3)), max_size=6
)
simple_plain_st = st.dictionaries(
    st.sampled_from("defg"), st.integers(0, 3), max_size=4
).map(lambda d: frozenset(d.items()))


def plain_ctx(c):
    return frozenset((m.dimension.name, m.tag) for m in c)


def law_value(text, **bindings):
    env = Environment(registry=REG, rng=random.Random(0))
    for name, value in bindings.items():
        env.bind(name, value)
    return evaluate(parse_expr(text), env)


@given(plain_st, plain_st)
def test_absorption_laws(p, q):
    c, d = make_context(REG, p), make_context(REG, q)
    assert plain_ctx(law_value("c & (c % d)", c=c, d=d)) == p & (p | q) == p
    assert plain_ctx(law_value("c % (c & d)", c=c, d=d)) == p | (p & q) == p


@given(plain_st, simple_plain_st)
def test_override_against_hiding_and_projection(p, q):
    names = {n for n, _ in q}
    want = frozenset(pair for pair in p if pair[0] not in names) | q
    c, d, D = make_context(REG, p), make_context(REG, q), dims(*names)
    assert plain_ctx(law_value("c (+) d", c=c, d=d)) == want
    assert plain_ctx(law_value("(c ^ D) % d", c=c, d=d, D=D)) == want
    assert law_value("c (+) d == (c ^ D) % d", c=c, d=d, D=D) is True
    assert plain_ctx(law_value("(c (+) d) ! D", c=c, d=d, D=D)) == q
    assert law_value("(c (+) d) ! D == d", c=c, d=d, D=D) is True
