import copy
import os
import pickle
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given
import hypothesis.strategies as st

from ctxcalc.cli import new_session, run_command
from ctxcalc.errors import (
    ContextCalcError,
    DuplicateDimension,
    ExprSyntaxError,
    IllFormedDomain,
    KindMismatch,
    NonSimpleOperand,
    TagOutsideDomain,
    TagTypeMismatch,
    UnknownDimension,
)
from ctxcalc.model import (
    NULL_CONTEXT,
    Context,
    ContextOrder,
    ContextSet,
    Dimension,
    DimensionRegistry,
    EnumValue,
    MicroContext,
    TagKind,
    make_context,
    make_context_set,
)
from ctxcalc.parser import Const, ContextLit, to_text
from ctxcalc.sets import predicate_text

from conftest import int_registry

REG = int_registry("defg")
DIM_NAMES = ("d", "e", "f", "g")

MONTHS = ["Ja", "Fe", "Mr", "Ap", "Ma", "Jn", "Jl", "Au", "Se", "Oc", "No", "De"]


def ctx(*pairs):
    return make_context(REG, pairs)


pairs_st = st.lists(
    st.tuples(st.sampled_from(DIM_NAMES), st.integers(0, 5)), max_size=6
)


# --- registration ----------------------------------------------------------


def test_register_basic():
    reg = DimensionRegistry()
    d = reg.register("d", TagKind.INT)
    assert reg.get("d") is d
    assert "d" in reg
    assert d.tag_type is TagKind.INT
    assert d.domain is None


def test_register_duplicate_rejected():
    reg = DimensionRegistry()
    reg.register("d", TagKind.INT)
    with pytest.raises(DuplicateDimension):
        reg.register("d", TagKind.INT)
    # still usable afterwards
    assert reg.get("d").name == "d"


def test_register_enum_months_ordered():
    reg = DimensionRegistry()
    month = reg.register("month", TagKind.ENUM, MONTHS)
    assert len(month.domain) == 12
    ja, de = month.domain[0], month.domain[-1]
    assert ja.symbol == "Ja" and de.symbol == "De"
    assert ja < de
    assert not de < ja


def test_register_enum_needs_domain():
    reg = DimensionRegistry()
    with pytest.raises(IllFormedDomain):
        reg.register("month", TagKind.ENUM)


def test_register_bad_domain():
    reg = DimensionRegistry()
    with pytest.raises(IllFormedDomain):
        reg.register("d", TagKind.INT, [3, 1, 2])
    with pytest.raises(IllFormedDomain):
        reg.register("d", TagKind.INT, [1, "x"])
    # the failed attempts left no trace
    assert "d" not in reg


def test_unknown_dimension():
    reg = DimensionRegistry()
    with pytest.raises(UnknownDimension):
        reg.get("nope")


# --- context construction ------------------------------------------------


def test_null_context():
    assert make_context(REG, []) == NULL_CONTEXT
    assert NULL_CONTEXT.degree() == 0
    assert NULL_CONTEXT.dims() == frozenset()


def test_three_dims():
    c = ctx(("d", 1), ("e", 4), ("f", 3))
    assert c.degree() == 3
    assert c.is_simple()


def test_non_simple_degree_two():
    c = ctx(("d", 1), ("e", 4), ("d", 3))
    assert c.degree() == 2
    assert not c.is_simple()


def test_duplicate_pairs_collapse():
    assert ctx(("d", 1), ("d", 1)) == ctx(("d", 1))


def test_construction_errors():
    with pytest.raises(UnknownDimension):
        make_context(REG, [("zz", 1)])
    with pytest.raises(TagTypeMismatch):
        make_context(REG, [("d", "one")])
    reg = DimensionRegistry()
    reg.register("k", TagKind.INT, [1, 2, 3])
    with pytest.raises(TagOutsideDomain):
        make_context(reg, [("k", 9)])


def test_bool_is_not_int_tag():
    with pytest.raises(TagTypeMismatch):
        make_context(REG, [("d", True)])
    with pytest.raises(TagTypeMismatch):
        MicroContext(REG.get("d"), True)
    b = DimensionRegistry().register("b", TagKind.BOOL)
    with pytest.raises(TagTypeMismatch):
        MicroContext(b, 1)
    assert MicroContext(REG.get("d"), 1) != MicroContext(b, True)


def test_dimension_identity_is_name_and_kind():
    a = Dimension("k", TagKind.INT, (1, 2, 3))
    b = Dimension("k", TagKind.INT, (7,))
    assert a == b and hash(a) == hash(b)
    assert a != Dimension("k", TagKind.STR) and a != Dimension("j", TagKind.INT)
    assert a.domain == (1, 2, 3) and a.index == {1: 0, 2: 1, 3: 2}


def test_coerce_keeps_kind_and_domain_checks():
    reg = DimensionRegistry()
    k = reg.register("k", TagKind.INT, [0, 1, 2])
    b = reg.register("b", TagKind.BOOL, [False, True])
    month = reg.register("month", TagKind.ENUM, MONTHS)
    other = DimensionRegistry().register("other", TagKind.ENUM, MONTHS)
    # True == 1 hashes alike, so the index alone would admit it
    with pytest.raises(TagTypeMismatch):
        k.coerce(True)
    with pytest.raises(TagTypeMismatch):
        b.coerce(1)
    with pytest.raises(TagOutsideDomain):
        k.coerce(3)
    with pytest.raises(TagTypeMismatch):
        month.coerce(other.domain[0])
    with pytest.raises(TagOutsideDomain):
        month.coerce("Xx")
    assert month.coerce("De") is month.domain[-1]


def _register(*declarations):
    """Register each (name, kind[, domain]) in a fresh registry; the last
    registered dimension."""
    reg = DimensionRegistry()
    for args in declarations:
        dim = reg.register(*args)
    return dim


def _months():
    return _register(("month", TagKind.ENUM, ["Ja", "Fe"]))


# Every error a declaration, a coercion, the building of a context from
# pairs or the printing of a tag can end in, with its exact text.
MODEL_ERRORS = [
    ("duplicate-name",
     lambda: _register(("d", TagKind.INT), ("d", TagKind.INT)),
     DuplicateDimension, "dimension 'd' is already registered"),
    ("enum-without-domain",
     lambda: _register(("m", TagKind.ENUM)),
     IllFormedDomain, "enum dimension 'm' needs a declared domain"),
    ("empty-enum",
     lambda: _register(("m", TagKind.ENUM, [])),
     IllFormedDomain, "enum dimension 'm' needs a declared domain"),
    ("non-string-symbol",
     lambda: _register(("m", TagKind.ENUM, ["Ja", 1])),
     IllFormedDomain, "enum domain symbols must be strings, got 1"),
    ("repeated-symbol",
     lambda: _register(("m", TagKind.ENUM, ["Ja", "Fe", "Ja"])),
     IllFormedDomain, "enum domain of 'm' repeats a symbol"),
    ("empty-domain",
     lambda: _register(("d", TagKind.INT, [])),
     IllFormedDomain, "domain of 'd' must be non-empty"),
    ("wrong-kind-element",
     lambda: _register(("d", TagKind.INT, [1, "x"])),
     IllFormedDomain, "domain element 'x' is not a int tag"),
    ("unordered-domain",
     lambda: _register(("d", TagKind.INT, [3, 1, 2])),
     IllFormedDomain, "domain of 'd' must be strictly increasing"),
    ("repeated-domain-value",
     lambda: _register(("d", TagKind.INT, [1, 1])),
     IllFormedDomain, "domain of 'd' must be strictly increasing"),
    ("unordered-bool-domain",
     lambda: _register(("b", TagKind.BOOL, [True, False])),
     IllFormedDomain, "domain of 'b' must be strictly increasing"),
    ("unordered-str-domain",
     lambda: _register(("s", TagKind.STR, ["b", "a"])),
     IllFormedDomain, "domain of 's' must be strictly increasing"),
    ("int-wrong-kind",
     lambda: _register(("k", TagKind.INT, [0, 1, 2])).coerce(True),
     TagTypeMismatch, "dimension 'k' expects int tags, got True"),
    ("int-given-str",
     lambda: _register(("k", TagKind.INT)).coerce("1"),
     TagTypeMismatch, "dimension 'k' expects int tags, got '1'"),
    ("str-wrong-kind",
     lambda: _register(("s", TagKind.STR)).coerce(1),
     TagTypeMismatch, "dimension 's' expects str tags, got 1"),
    ("bool-wrong-kind",
     lambda: _register(("b", TagKind.BOOL)).coerce(1),
     TagTypeMismatch, "dimension 'b' expects bool tags, got 1"),
    ("enum-wrong-kind",
     lambda: _months().coerce(1),
     TagTypeMismatch, "dimension 'month' expects enum tags, got 1"),
    ("enum-given-bool",
     lambda: _months().coerce(True),
     TagTypeMismatch, "dimension 'month' expects enum tags, got True"),
    ("unknown-symbol",
     lambda: _months().coerce("Xx"),
     TagOutsideDomain, "'Xx' is not a symbol of enum dimension 'month'"),
    ("member-of-another-enum",
     lambda: _months().coerce(
         _register(("other", TagKind.ENUM, ["Ja", "Fe"])).domain[0]),
     TagTypeMismatch, "other.Ja does not belong to enum dimension 'month'"),
    ("outside-declared-domain",
     lambda: _register(("k", TagKind.INT, [0, 1, 2])).coerce(3),
     TagOutsideDomain, "3 is outside the declared domain of 'k'"),
    ("register-unhashable-name",
     lambda: _register((["a"], TagKind.INT)),
     ExprSyntaxError, "dimension name must be a non-empty identifier"),
    ("get-unhashable-name",
     lambda: DimensionRegistry().get(["a"]),
     ExprSyntaxError, "dimension name must be a non-empty identifier"),
    # a set has no declaration order: its order would be the hash seed's
    ("set-enum-domain",
     lambda: _register(("m", TagKind.ENUM, {"Ja", "Fe", "Mr"})),
     IllFormedDomain,
     "domain of 'm' must be a sequence in declaration order, got a set"),
    ("frozenset-str-domain",
     lambda: _register(("s", TagKind.STR, frozenset({"b", "a", "c"}))),
     IllFormedDomain,
     "domain of 's' must be a sequence in declaration order, got a frozenset"),
    # make_context takes an iterable of 2-item (name, tag) pairs
    ("pairs-not-iterable",
     lambda: make_context(int_registry("d"), 5),
     ExprSyntaxError, "context pairs must be iterable, got 5"),
    ("pairs-a-string",
     lambda: make_context(int_registry("d"), "ab"),
     ExprSyntaxError, "not a (dimension, tag) pair: 'a'"),
    ("pair-too-short",
     lambda: make_context(int_registry("d"), [("d",)]),
     ExprSyntaxError, "not a (dimension, tag) pair: ('d',)"),
    ("pair-too-long",
     lambda: make_context(int_registry("d"), [("d", 1, 2)]),
     ExprSyntaxError, "not a (dimension, tag) pair: ('d', 1, 2)"),
    # a tag is a bool, an int, a str or an enum member, and prints as one
    ("print-none-constant",
     lambda: to_text(Const(None)),
     TagTypeMismatch, "not a tag value: None"),
    ("print-float-in-predicate",
     lambda: predicate_text(Const(2.5)),
     TagTypeMismatch, "not a tag value: 2.5"),
    ("print-none-pair-tag",
     lambda: to_text(ContextLit((("d", None),))),
     TagTypeMismatch, "not a tag value: None"),
]


@pytest.mark.parametrize(
    "action, error, message", [case[1:] for case in MODEL_ERRORS],
    ids=[case[0] for case in MODEL_ERRORS])
def test_model_errors_keep_their_class_and_text(action, error, message):
    with pytest.raises(error) as info:
        action()
    assert type(info.value) is error and str(info.value) == message


# Declarations that used to pass unchecked or end in a raw exception.
MALFORMED_DECLARATIONS = [
    ("domain-not-iterable", ("d", TagKind.INT, 5), IllFormedDomain),
    ("enum-domain-a-string", ("m", TagKind.ENUM, "Fe"), IllFormedDomain),
    ("str-domain-a-string", ("s", TagKind.STR, "ab"), IllFormedDomain),
    ("kind-not-a-tag-kind", ("d", "int"), IllFormedDomain),
    ("name-not-a-string", (5, TagKind.INT), ExprSyntaxError),
    ("name-unhashable", (["a"], TagKind.INT), ExprSyntaxError),
    ("int-domain-a-set", ("d", TagKind.INT, {1, 2, 3}), IllFormedDomain),
    # a name is a name of the expression language: word characters, the
    # first a letter or "_"; these used to print pairs that do not parse
    ("name-empty", ("", TagKind.INT), ExprSyntaxError),
    ("name-with-a-blank", ("a b", TagKind.INT), ExprSyntaxError),
    ("name-with-a-paren", ("(x", TagKind.INT), ExprSyntaxError),
    ("name-starts-with-a-digit", ("1x", TagKind.INT), ExprSyntaxError),
    ("name-with-a-bang", ("a!", TagKind.INT), ExprSyntaxError),
]


@pytest.mark.parametrize("direct", [False, True], ids=["registry", "direct"])
@pytest.mark.parametrize(
    "args, error", [case[1:] for case in MALFORMED_DECLARATIONS],
    ids=[case[0] for case in MALFORMED_DECLARATIONS])
def test_malformed_declarations_are_typed_errors(args, error, direct):
    reg = DimensionRegistry()
    with pytest.raises(error):
        Dimension(*args) if direct else reg.register(*args)
    assert args[0] not in reg


@pytest.mark.parametrize("name", ["x²", "ü", "_1", "g10"])
def test_every_name_of_the_language_names_a_dimension(name):
    session = new_session(seed=1)
    assert run_command(session, f"dim {name} : int") == [f"dim {name} : int"]
    assert run_command(session, f"eval {{{{({name}, 2)}}}}") == [f"{{{{({name}, 2)}}}}"]
    assert Dimension(name, TagKind.INT).name == name


def test_a_direct_enum_dimension_takes_symbols():
    direct = Dimension("m", TagKind.ENUM, ("Ja", "Fe"))
    registered = DimensionRegistry().register("m", TagKind.ENUM, ["Ja", "Fe"])
    assert direct == registered and hash(direct) == hash(registered)
    assert direct.domain == registered.domain == (
        EnumValue("m", "Ja", 0), EnumValue("m", "Fe", 1))
    assert direct.index == registered.index
    assert direct.symbols == registered.symbols


@pytest.mark.parametrize(
    "trip", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"])
def test_enum_dimension_survives_copy_and_pickle(trip):
    month = DimensionRegistry().register("month", TagKind.ENUM, MONTHS)
    got = trip(month)
    assert got == month and got.tag_type is TagKind.ENUM
    assert got.domain == month.domain
    assert got.index == month.index
    assert got.symbols == month.symbols


# --- inspection ------------------------------------------------------------


def test_dims_and_tags():
    c = ctx(("d", 1), ("e", 4))
    assert c.dims() == frozenset([REG.get("d"), REG.get("e")])
    assert c.tags() == Counter([1, 4])
    assert NULL_CONTEXT.tags() == Counter()


def test_tags_multiplicity():
    assert ctx(("d", 1), ("e", 1)).tags() == Counter({1: 2})


def test_dims_is_built_once():
    c = ctx(("d", 1), ("e", 4))
    assert c.dims() is c.dims()


def test_simple_and_micro():
    assert ctx(("d", 1), ("e", 4)).is_simple()
    assert not ctx(("d", 1), ("e", 4)).is_micro()
    assert not ctx(("d", 1), ("d", 3)).is_simple()
    m = ctx(("d", 1))
    assert m.is_micro() and m.is_simple()


def test_compare_examples():
    small, big = ctx(("d", 1)), ctx(("d", 1), ("e", 4))
    assert small.compare(big) is ContextOrder.SUBSET
    assert big.compare(small) is ContextOrder.SUPERSET
    assert big.compare(big) is ContextOrder.EQUAL
    assert ctx(("d", 1)).compare(ctx(("e", 4))) is ContextOrder.INCOMPARABLE


def test_enum_tag_coercion_from_symbol():
    reg = DimensionRegistry()
    reg.register("month", TagKind.ENUM, MONTHS)
    c = make_context(reg, [("month", "Mr")])
    tag = next(iter(c)).tag
    assert isinstance(tag, EnumValue) and tag.ordinal == 2


# --- properties ---------------------------------------------------------------


@given(pairs_st)
def test_make_context_order_insensitive(pairs):
    assert make_context(REG, pairs) == make_context(REG, list(reversed(pairs)))
    assert make_context(REG, pairs) == make_context(REG, sorted(pairs))


@given(pairs_st)
def test_micro_implies_simple(pairs):
    c = make_context(REG, pairs)
    if c.is_micro():
        assert c.is_simple()
        assert c.degree() == 1 and len(c) == 1


@given(pairs_st)
def test_degree_bounded_by_entries(pairs):
    c = make_context(REG, pairs)
    assert c.degree() <= len(c)
    assert (c.degree() == len(c)) == c.is_simple()


@given(pairs_st, pairs_st, pairs_st)
def test_compare_partial_order(p1, p2, p3):
    a, b, c = (make_context(REG, p) for p in (p1, p2, p3))
    assert a.compare(a) is ContextOrder.EQUAL
    if a.compare(b) is ContextOrder.SUBSET:
        assert b.compare(a) is ContextOrder.SUPERSET
    if (
        a.compare(b) is ContextOrder.SUBSET
        and b.compare(c) is ContextOrder.SUBSET
    ):
        assert a.compare(c) is ContextOrder.SUBSET


def test_context_hashable_and_immutable():
    c = ctx(("d", 1))
    assert hash(c) == hash(ctx(("d", 1)))
    with pytest.raises(AttributeError):
        c.entries = frozenset()


def test_micro_repr_and_str():
    assert str(ctx(("e", 4), ("d", 1))) == "{(d, 1), (e, 4)}"
    assert repr(MicroContext(REG.get("d"), 1)) == "(d, 1)"
    # by name, then by tag: numbers by value, enums by ordinal
    reg = DimensionRegistry()
    reg.register("d", TagKind.INT)
    reg.register("m", TagKind.ENUM, ["zeta", "alpha", "mu"])
    reg.register("s", TagKind.STR)
    c = make_context(reg, [("s", 'a"b\\c'), ("m", "mu"), ("d", 10), ("m", "alpha"),
                           ("d", 2), ("m", "zeta")])
    assert str(c) == (
        '{(d, 2), (d, 10), (m, zeta), (m, alpha), (m, mu), (s, "a\\"b\\\\c")}'
    )


# --- micro contexts ---------------------------------------------------------------


def two_registries():
    """Two registries whose dimensions agree on some names and kinds."""
    one, two = DimensionRegistry(), DimensionRegistry()
    one.register("d", TagKind.INT)
    two.register("d", TagKind.INT, [0, 1, 2])
    one.register("b", TagKind.BOOL)
    two.register("b", TagKind.INT)
    one.register("s", TagKind.STR)
    two.register("s", TagKind.STR)
    one.register("m", TagKind.ENUM, ["x", "y"])
    two.register("m", TagKind.ENUM, ["y", "x"])
    return one, two


TAGS = {TagKind.INT: [0, 1, 2], TagKind.BOOL: [False, True],
        TagKind.STR: ["", "x", '"'], TagKind.ENUM: ["x", "y"]}


@st.composite
def micro_st(draw):
    reg = draw(st.sampled_from(two_registries()))
    dim = reg.get(draw(st.sampled_from("dbsm")))
    return MicroContext(dim, draw(st.sampled_from(TAGS[dim.tag_type])))


def micro_oracle(m):
    return m.dimension.name, m.dimension.tag_type, m.tag


@given(micro_st(), micro_st())
def test_micro_equality_and_hash_agree_with_an_oracle(m1, m2):
    assert (m1 == m2) == (micro_oracle(m1) == micro_oracle(m2))
    assert (m1 != m2) == (micro_oracle(m1) != micro_oracle(m2))
    if m1 == m2:
        assert hash(m1) == hash(m2)
    assert m1 == MicroContext(m1.dimension, m1.tag) and m1 != micro_oracle(m1)


@given(st.lists(micro_st(), max_size=4, unique_by=lambda m: m.dimension))
def test_a_simple_context_prints_alike_alone_and_as_a_set_member(micros):
    # two registries' same-named dimensions among them: one pair order
    c = Context(micros)
    assert str(ContextSet([c])) == "{" + str(c) + "}"


def test_micro_contexts_are_immutable_and_carry_no_dict():
    m = MicroContext(REG.get("d"), 1)
    for name in ("tag", "dimension", "fresh"):
        with pytest.raises(AttributeError):
            setattr(m, name, 2)
    with pytest.raises(AttributeError):
        del m.tag
    assert not hasattr(m, "__dict__") and m.tag == 1


# --- against an oracle of plain frozensets of (name, tag) pairs -------------


def _oracle_order(o1, o2):
    if o1 == o2:
        return ContextOrder.EQUAL
    if o1 < o2:
        return ContextOrder.SUBSET
    if o1 > o2:
        return ContextOrder.SUPERSET
    return ContextOrder.INCOMPARABLE


def _oracle_text(oracle):
    return "{" + ", ".join(f"({n}, {t})" for n, t in sorted(oracle)) + "}"


def _oracle_is_simple(oracle):
    return len(oracle) == len({n for n, _ in oracle})


@given(pairs_st, pairs_st)
def test_context_agrees_with_frozenset_oracle(p1, p2):
    a, b = ctx(*p1), ctx(*p2)
    oa, ob = frozenset(p1), frozenset(p2)
    assert (a == b) == (oa == ob)
    if a == b:
        assert hash(a) == hash(b)
    assert a.compare(b) is _oracle_order(oa, ob)
    names = {n for n, _ in oa}
    assert {d.name for d in a.dims()} == names
    assert a.degree() == len(names)
    assert a.is_simple() == _oracle_is_simple(oa)
    assert str(a) == _oracle_text(oa)


contexts_st = st.lists(pairs_st, max_size=4)


@given(contexts_st, contexts_st)
def test_context_set_agrees_with_frozenset_oracle(l1, l2):
    o1 = frozenset(frozenset(p) for p in l1)
    o2 = frozenset(frozenset(p) for p in l2)
    if not all(map(_oracle_is_simple, o1 | o2)):
        with pytest.raises(NonSimpleOperand):
            ContextSet(ctx(*p) for p in l1 + l2)
        return
    s1 = ContextSet(ctx(*p) for p in l1)
    s2 = ContextSet(ctx(*p) for p in l2)
    assert (s1 == s2) == (o1 == o2)
    if s1 == s2:
        assert hash(s1) == hash(s2)
    assert {d.name for d in s1.dims_union()} == {n for o in o1 for n, _ in o}
    assert str(s1) == "{" + ", ".join(sorted(map(_oracle_text, o1))) + "}"
    # the rows stored per schema give back the members
    assert len(s1) == len(o1) and len(s2) == len(o2)
    for p in l1 + l2:
        c, o = ctx(*p), frozenset(p)
        assert (c in s1) == (o in o1) and (c in s2) == (o in o2)
    members = list(s1)
    assert len(members) == len(o1)
    assert {frozenset((m.dimension.name, m.tag) for m in c) for c in members} == o1
    assert ContextSet(list(s1)) == s1


# Names that share prefixes or hold non-ASCII word characters, each with
# tags whose text order is not their order: 9 before 10, "B" before "a",
# an enum in declaration order.
ORDER_TAGS = {
    "g1": (TagKind.INT, [-1, 2, 9, 10]),
    "g10": (TagKind.STR, ["", "B", "a", 'b"']),
    "g1_": (TagKind.BOOL, [False, True]),
    "x": (TagKind.INT, [0, 10, 9]),
    "x²": (TagKind.ENUM, ["zeta", "alpha", "mu"]),
    "ü": (TagKind.INT, [3, 30, 4]),
}
ORDER_REG = DimensionRegistry()
for _name, (_kind, _tags) in ORDER_TAGS.items():
    ORDER_REG.register(_name, _kind, _tags if _kind is TagKind.ENUM else None)

order_pair_st = st.sampled_from(sorted(ORDER_TAGS)).flatmap(
    lambda n: st.tuples(st.just(n), st.sampled_from(ORDER_TAGS[n][1])))


def _order_key(pair):
    """(name, tag), an enum tag by its declaration order."""
    name, tag = pair
    kind, tags = ORDER_TAGS[name]
    return name, tags.index(tag) if kind is TagKind.ENUM else tag


def _tag_text(name, tag):
    kind = ORDER_TAGS[name][0]
    if kind is TagKind.BOOL:
        return "true" if tag else "false"
    if kind is TagKind.STR:
        return '"' + tag.replace('"', '\\"') + '"'
    return str(tag)  # an int, or an enum symbol


def _order_text(pairs):
    return "{" + ", ".join(
        f"({n}, {_tag_text(n, t)})" for n, t in sorted(set(pairs), key=_order_key)
    ) + "}"


# pairs that name no dimension, or a tag of the wrong kind, or one outside
# an enum's symbols
bad_pair_st = st.sampled_from([("nope", 1), ("g1", "s"), ("x²", "omega"), ("g1_", 0)])


def _outcome(build):
    try:
        s = build()
    except ContextCalcError as e:
        return type(e), str(e)
    return s, str(s)


@given(st.lists(st.lists(st.one_of(order_pair_st, order_pair_st, bad_pair_st),
                         max_size=4), max_size=5))
def test_a_set_built_from_pairs_is_the_set_of_their_contexts(members):
    # non-simple members, duplicate pairs and bad pairs among them: the
    # same set, or the same first error with the same text
    assert _outcome(lambda: make_context_set(ORDER_REG, members)) == _outcome(
        lambda: ContextSet(make_context(ORDER_REG, m) for m in members))


@given(st.lists(order_pair_st, max_size=8))
def test_a_context_prints_its_pairs_by_name_then_tag(pairs):
    # non-simple contexts among them: a name's pairs print by tag
    assert str(make_context(ORDER_REG, pairs)) == _order_text(pairs)


@given(st.lists(st.lists(order_pair_st, max_size=6, unique_by=lambda p: p[0]),
                max_size=5))
def test_a_context_set_prints_its_members_pairs_by_name(members):
    s = ContextSet(make_context(ORDER_REG, m) for m in members)
    assert str(s) == "{" + ", ".join(sorted({_order_text(m) for m in members})) + "}"


def test_a_member_with_two_registries_same_name_prints():
    # equal names, unequal kinds: two dimensions, so the member is simple
    member = Context([Dimension("d", TagKind.INT).micro(1),
                      Dimension("d", TagKind.STR).micro("x")])
    assert str(ContextSet([member])) == '{{(d, 1), (d, "x")}}'


def test_two_registries_same_name_pairs_print_by_tag_class_first():
    # equal names, tags of different kinds: by tag kind, then by tag
    pairs = [Dimension("d", TagKind.INT).micro(1),
             Dimension("d", TagKind.STR).micro("x")]
    assert str(Context(pairs)) == '{(d, 1), (d, "x")}'
    pairs = [Dimension("d", TagKind.ENUM, ["a"]).micro("a"),
             Dimension("d", TagKind.BOOL).micro(True)]
    assert str(Context(pairs)) == "{(d, true), (d, a)}"
    pairs = [Dimension("d", TagKind.INT).micro(0),
             Dimension("d", TagKind.BOOL).micro(True)]
    assert str(Context(pairs)) == "{(d, true), (d, 0)}"
    pairs.append(Dimension("d", TagKind.STR).micro("x"))
    pairs.append(Dimension("d", TagKind.INT).micro(-2))
    assert str(Context(pairs)) == '{(d, true), (d, -2), (d, 0), (d, "x")}'


def test_two_registries_same_named_enum_pairs_print_by_ordinal_then_symbol():
    # Each pair of tags below ties on its ordinal.  The order a two-pair
    # context iterates in follows the pairs' hashes, so across many names
    # it differs under any hash seed; the printed order must not.
    for name in [f"m{i}" for i in range(32)]:
        a = Dimension(name, TagKind.ENUM, ["x", "y"])
        b = Dimension(name, TagKind.ENUM, ["y", "x"])
        for pairs in ([a.micro("x"), b.micro("y")], [b.micro("x"), a.micro("y")]):
            text = f"{{({name}, x), ({name}, y)}}"
            assert str(Context(pairs)) == text
            with pytest.raises(NonSimpleOperand) as info:
                ContextSet([Context(pairs)])
            assert str(info.value) == f"context set member {text} is not simple"


def test_contexts_and_sets_reject_assignment():
    c = ctx(("d", 1))
    for name in ("entries", "_dims", "fresh"):
        with pytest.raises(AttributeError):
            setattr(c, name, frozenset())
    s = ContextSet([c])
    for name in ("members", "fresh"):
        with pytest.raises(AttributeError):
            setattr(s, name, frozenset())
    assert c.dims() == frozenset([REG.get("d")]) and s == ContextSet([c])


@pytest.mark.parametrize(
    "members", [5, [5], [frozenset()], [["d"]]],
    ids=["not-iterable", "an-int", "a-frozenset", "unhashable"])
def test_context_set_refuses_members_that_are_not_contexts(members):
    # the public constructor is where members come in from outside
    with pytest.raises(KindMismatch):
        ContextSet(members)


@pytest.mark.parametrize(
    "entries", [5, [5], [frozenset()], [["d"]]],
    ids=["not-iterable", "an-int", "a-frozenset", "unhashable"])
def test_context_refuses_entries_that_are_not_micro_contexts(entries):
    # the public constructor is where entries come in from outside
    with pytest.raises(KindMismatch):
        Context(entries)
    with pytest.raises(KindMismatch):
        ContextSet([Context(entries)])


def test_constructors_take_their_members_positionally():
    m = MicroContext(REG.get("d"), 1)
    with pytest.raises(TypeError):
        Context(entries=[m])
    with pytest.raises(TypeError):
        ContextSet(members=[Context([m])])


# --- copies and pickles ---------------------------------------------------------


@pytest.mark.parametrize(
    "trip", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"])
def test_values_survive_copy_and_pickle(trip):
    reg = DimensionRegistry()
    reg.register("d", TagKind.INT, [1, 2, 3])
    reg.register("m", TagKind.ENUM, MONTHS)
    c = make_context(reg, [("d", 2), ("m", "Fe")])
    cs = ContextSet([c, make_context(reg, [("d", 3)])])
    for value in (reg.get("d"), reg.get("m"), *c, NULL_CONTEXT, c, cs):
        got = trip(value)
        assert type(got) is type(value)
        assert got == value and repr(got) == repr(value)
        assert got in {value} and value in {got}
    got = trip(c)
    assert got.dims() == c.dims()
    assert got.is_simple() and str(got) == str(c)
    assert trip(reg.get("m")).index == reg.get("m").index
    assert trip(cs).dims_union() == cs.dims_union()


_BUILD = """
from ctxcalc.model import (
    ContextSet, DimensionRegistry, MicroContext, TagKind, make_context)
reg = DimensionRegistry()
reg.register("day", TagKind.INT)
reg.register("mood", TagKind.ENUM, ["calm", "busy"])
reg.register("room", TagKind.STR)
c = make_context(reg, [("day", 3), ("mood", "busy"), ("room", "b12")])
value = ContextSet([c])
"""


def _in_child(seed, code, data=b""):
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    proc = subprocess.run([sys.executable, "-c", _BUILD + code], input=data,
                          capture_output=True, env=env, check=True)
    return proc.stdout


def test_a_pickle_loads_under_another_hash_seed():
    data = _in_child(1, "import pickle, sys; sys.stdout.buffer.write(pickle.dumps(value))")
    check = (
        "import pickle, sys\n"
        "got = pickle.loads(sys.stdin.buffer.read())\n"
        "[gc] = got\n"
        "assert got == value and got in {value}\n"
        "assert gc in {c} and gc.dims() == c.dims()\n"
        "assert all(m in set(c) for m in gc)\n"
        "assert all(hash(m) == hash(MicroContext(m.dimension, m.tag)) for m in gc)\n"
        "assert all(d in set(c.dims()) for d in gc.dims())\n"
        "assert all(reg.get(d.name) in {d} for d in gc.dims())\n"
        "print('ok')\n"
    )
    assert _in_child(2, check, data).decode().split() == ["ok"]


# --- each dimension's one micro context per pair ---------------------------


def test_a_literal_pair_is_built_once_per_dimension():
    session = new_session()
    run_command(session, "dim d : int")
    run_command(session, "let a = {(d, 1), (d, 2)}")
    run_command(session, "let b = {(d, 1)}")
    [first] = [m for m in session.env.lookup("a") if m.tag == 1]
    [again] = session.env.lookup("b")
    assert first is again
    reg = session.env.registry
    assert reg.get("d").micro(1) is first
    assert next(iter(make_context(reg, [("d", 1)]))) is first


def test_every_operator_shares_the_dimensions_pairs():
    session = new_session()
    run_command(session, "dim d : int 1 2 3")
    values = {
        "literal": "{(d, 1)}",
        "range": "{(d,1)} <=> {(d,3)}",
        "box": "Box[d | d < 3] ! {d}",
        "substitution": "{{(d,2)}} / <d, 1>",
    }
    ones = {}
    for name, text in values.items():
        run_command(session, f"let {name} = {text}")
        value = session.env.lookup(name)
        members = value if isinstance(value, Context) else frozenset().union(*value)
        [ones[name]] = [m for m in members if m.tag == 1]
    assert len({id(m) for m in ones.values()}) == 1, ones
    assert ones["literal"] is session.env.registry.get("d").micro(1)


def test_a_bool_tag_is_not_the_int_pair_it_equals():
    reg = int_registry("d")
    d = reg.get("d")
    one = d.micro(1)
    with pytest.raises(TagTypeMismatch):
        d.micro(True)
    with pytest.raises(TagTypeMismatch):
        make_context(reg, [("d", True)])
    assert d.micro(1) is one and type(one.tag) is int
    session = new_session()
    run_command(session, "dim d : int")
    assert run_command(session, "eval {(d, 1)}") == ["{(d, 1)}"]
    with pytest.raises(TagTypeMismatch):
        run_command(session, "eval {(d, true)}")


def test_a_failed_pair_is_not_kept():
    session = new_session()
    run_command(session, "dim d : int")
    for _ in range(2):
        with pytest.raises(TagTypeMismatch):
            run_command(session, 'eval {(d, "x")}')
    assert session.env.registry.get("d")._micros == {}


@pytest.mark.parametrize("pairs, error", [
    ([("d", [1])], TagTypeMismatch),
    ([("d", {1: 2})], TagTypeMismatch),
    ([(["d"], 1)], ExprSyntaxError),
    ([(5, 1)], ExprSyntaxError),
    ([("x", 1)], UnknownDimension),
], ids=["list-tag", "dict-tag", "list-name", "int-name", "unknown-name"])
def test_a_literal_pair_keeps_its_typed_error(pairs, error):
    reg = int_registry("d")
    for _ in range(2):
        with pytest.raises(error):
            make_context(reg, pairs)
    assert reg.get("d")._micros == {}


def test_the_pair_memo_stays_bounded():
    from ctxcalc import model

    reg = int_registry("de")
    d, e = reg.get("d"), reg.get("e")
    limit = model._MICRO_MEMO_LIMIT
    e_one = e.micro(1)
    for tag in range(3 * limit):
        assert d.micro(tag).tag == tag
        assert len(d._micros) <= limit
    kept = d.micro(3 * limit - 1)
    assert d.micro(3 * limit - 1) is kept
    assert d.micro(0) == MicroContext(d, 0)
    # the limit is counted per dimension: e's pair outlives d's flushes
    assert e.micro(1) is e_one


def test_a_copied_dimension_starts_with_no_pairs():
    reg = int_registry("d")
    d = reg.get("d")
    d.micro(1)
    for got in (copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert got == d and got._micros == {}
        assert got.micro(1) == d.micro(1)


# --- the registry's memo of literal pairs ---------------------------------------


def test_a_pair_of_an_unknown_dimension_is_not_kept():
    session = new_session()
    for _ in range(2):
        with pytest.raises(UnknownDimension):
            run_command(session, "eval {{(q,1)}}")
    assert session.env.registry._pairs == {}
    run_command(session, "dim q : int")
    assert run_command(session, "eval {{(q,1)}}") == ["{{(q, 1)}}"]


def test_the_literal_memo_serves_only_an_int_tag():
    reg = DimensionRegistry()
    reg.register("d", TagKind.INT)
    reg.register("b", TagKind.BOOL)
    one = make_context(reg, [("d", 1)])
    assert make_context_set(reg, [[("d", 1)]]) == ContextSet([one])
    assert ("d", 1) in reg._pairs
    # True and 1.0 are the key ("d", 1), and neither is an int tag
    for tag in (True, 1.0):
        with pytest.raises(TagTypeMismatch):
            make_context(reg, [("d", tag)])
        with pytest.raises(TagTypeMismatch):
            make_context_set(reg, [[("d", tag)]])
    make_context(reg, [("b", True)])
    with pytest.raises(TagTypeMismatch):
        make_context(reg, [("b", 1)])
    assert list(reg._pairs) == [("d", 1)]
    assert make_context(reg, [("d", 1)]) == one


def test_the_literal_memo_stays_bounded():
    from ctxcalc import model

    reg = int_registry("d")
    for tag in range(10_000):
        assert make_context(reg, [("d", tag)]) == Context([MicroContext(reg.get("d"), tag)])
        assert len(reg._pairs) <= model._MICRO_MEMO_LIMIT
    assert reg._pairs


def test_two_registries_share_no_literal_pair():
    a, b = int_registry("d"), int_registry("d")
    make_context(a, [("d", 1)])
    assert b._pairs == {}
    [pair] = make_context(b, [("d", 1)])
    assert pair.dimension is b.get("d") and pair is not a._pairs["d", 1]
    assert a._pairs["d", 1].dimension is a.get("d")
