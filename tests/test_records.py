"""The value contract of the immutable records: the syntax-tree nodes, the
Box, the dimension and the enum member.

Each is built from its fields, positionally or by keyword; equal fields
give equal values with equal hashes, and the same fields in a sibling
class do not; ``repr`` prints ``Name(field=value, ...)``; a field can be
neither assigned nor deleted; and copies and pickles are equal values.
A record class that checks no input writes no initializer: ``Record``
builds it from the class's ``_fields`` and ``_defaults``.
"""

import copy
import inspect
import pickle
import typing

import pytest

import ctxcalc.cli  # loads every module, so every record class
from ctxcalc import parse_expr
from ctxcalc.errors import ExprSyntaxError
from ctxcalc.model import (
    ContextSet, Dimension, EnumValue, MicroContext, Record, TagKind,
)
from ctxcalc.parser import (
    Asa, At, BoxLit, Const, ContextLit, DimSetLit, Fby, First, If, Literal,
    Next, NotOp, Pointwise, Prev, Query, Ref, SetLit, StreamExpr, Upon, Wvr,
)
from ctxcalc.sets import Box

_DIM = "Dimension(name='d', tag_type=<TagKind.INT: 'int'>, domain=(1, 2))"

# (class, its fields by name, a sibling class or None, its repr); the fields
# are built anew on each call, so two values share no field object
RECORDS = [
    (Const, lambda: {"value": 1}, Ref, "Const(value=1)"),
    (Literal, lambda: {"values": (1, None, True), "dim": "x"}, None,
     "Literal(values=(1, None, True), dim='x')"),
    (Ref, lambda: {"name": "N"}, Const, "Ref(name='N')"),
    (Pointwise, lambda: {"op": "+", "left": Ref("a"), "right": Const(2)}, None,
     "Pointwise(op='+', left=Ref(name='a'), right=Const(value=2))"),
    (NotOp, lambda: {"operand": Ref("a")}, None, "NotOp(operand=Ref(name='a'))"),
    (If, lambda: {"cond": Ref("a"), "then": Const(1), "orelse": Const(None)},
     None,
     "If(cond=Ref(name='a'), then=Const(value=1), orelse=Const(value=None))"),
    (First, lambda: {"operand": Ref("A"), "dim": "time"}, Next,
     "First(operand=Ref(name='A'), dim='time')"),
    (Next, lambda: {"operand": Ref("A"), "dim": "s"}, Prev,
     "Next(operand=Ref(name='A'), dim='s')"),
    (Prev, lambda: {"operand": Ref("A"), "dim": "time"}, First,
     "Prev(operand=Ref(name='A'), dim='time')"),
    (Fby, lambda: {"left": Const(0), "right": Ref("N"), "dim": "time"}, Wvr,
     "Fby(left=Const(value=0), right=Ref(name='N'), dim='time')"),
    (Wvr, lambda: {"left": Ref("A"), "right": Ref("B"), "dim": "time"}, Asa,
     "Wvr(left=Ref(name='A'), right=Ref(name='B'), dim='time')"),
    (Asa, lambda: {"left": Ref("A"), "right": Ref("B"), "dim": "time"}, Upon,
     "Asa(left=Ref(name='A'), right=Ref(name='B'), dim='time')"),
    (Upon, lambda: {"left": Ref("A"), "right": Ref("B"), "dim": "s"}, Fby,
     "Upon(left=Ref(name='A'), right=Ref(name='B'), dim='s')"),
    (At, lambda: {"operand": Ref("A"), "dim": "time", "index": Const(3)}, None,
     "At(operand=Ref(name='A'), dim='time', index=Const(value=3))"),
    (Query, lambda: {"dim": "time"}, None, "Query(dim='time')"),
    (ContextLit, lambda: {"pairs": (("d", 1), ("m", "feb"))}, None,
     "ContextLit(pairs=(('d', 1), ('m', 'feb')))"),
    (DimSetLit, lambda: {"names": ("d", "e")}, None,
     "DimSetLit(names=('d', 'e'))"),
    (SetLit, lambda: {"items": (ContextLit((("d", 1),)), ContextLit(()))}, None,
     "SetLit(items=(ContextLit(pairs=(('d', 1),)), ContextLit(pairs=())))"),
    (BoxLit, lambda: {"dims": ("d",),
                      "predicate": Pointwise(">", Ref("d"), Const(0))}, None,
     "BoxLit(dims=('d',), predicate=Pointwise(op='>', left=Ref(name='d'), "
     "right=Const(value=0)))"),
    (Box, lambda: {"dims": (Dimension("d", TagKind.INT, (1, 2)),),
                   "predicate": Pointwise(">", Ref("d"), Const(0))}, None,
     f"Box(dims=({_DIM},), predicate=Pointwise(op='>', left=Ref(name='d'), "
     "right=Const(value=0)))"),
    (Dimension, lambda: {"name": "d", "tag_type": TagKind.INT, "domain": None},
     None, "Dimension(name='d', tag_type=<TagKind.INT: 'int'>, domain=None)"),
    (EnumValue, lambda: {"enumeration": "m", "symbol": "feb", "ordinal": 1},
     None, "m.feb"),
]


def test_every_stream_node_class_has_a_row():
    covered = {row[0] for row in RECORDS}
    assert set(typing.get_args(StreamExpr)) <= covered
    assert {ContextLit, DimSetLit, SetLit, BoxLit} <= covered


@pytest.mark.parametrize(
    "cls, fields, sibling, text", RECORDS, ids=[row[0].__name__ for row in RECORDS])
def test_a_record_keeps_the_value_contract(cls, fields, sibling, text):
    value = cls(*fields().values())
    twin = cls(**fields())
    assert value == twin and not value != twin and value is not twin
    assert hash(value) == hash(twin)
    if sibling is not None:
        other = sibling(*fields().values())
        assert value != other and other != value
    assert repr(value) == text
    name = next(iter(fields()))
    for change in (lambda: setattr(value, name, 5), lambda: delattr(value, name),
                   lambda: setattr(value, "extra", 5)):
        with pytest.raises(AttributeError):
            change()
    assert value == twin
    for trip in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        got = trip(value)
        assert type(got) is cls and got == value and repr(got) == text


def test_repr_of_a_deep_chain_is_its_text():
    # 1,500 left-nested nodes: a repr that recursed per node would raise
    # RecursionError under the default limit of 1,000 frames
    tree = parse_expr(" (+) ".join(["c"] * 1500))
    head = "Pointwise(op='(+)', left="
    tail = ", right=Ref(name='c'))"
    assert repr(tree) == head * 1499 + "Ref(name='c')" + tail * 1499


# --- the initializer Record builds ---------------------------------------------

# the record classes that check their input in an initializer of their own
CHECKING = {Dimension, MicroContext, ContextSet, Box}


def _record_classes():
    out, stack = set(), [Record]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub.__module__.startswith("ctxcalc."):
                out.add(sub)
            stack.append(sub)
    return out


BUILT = sorted(_record_classes() - CHECKING, key=lambda cls: cls.__name__)


def test_every_record_class_but_the_checking_ones_has_the_built_initializer():
    assert CHECKING <= _record_classes()
    assert set(BUILT) == {row[0] for row in RECORDS} - CHECKING
    assert len(BUILT) == 20  # the 19 syntax-tree nodes and EnumValue
    for cls in BUILT:
        assert cls.__dict__["__init__"]._of_fields
    for cls in CHECKING:
        assert not hasattr(cls.__init__, "_of_fields")


@pytest.mark.parametrize("cls", BUILT, ids=[cls.__name__ for cls in BUILT])
def test_the_built_initializer_takes_the_fields_in_order(cls):
    params = inspect.signature(cls).parameters
    assert tuple(params) == cls._fields
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values())
    defaults = tuple(p.default for p in params.values() if p.default is not p.empty)
    assert defaults == cls._defaults
    required = cls._fields[:len(cls._fields) - len(cls._defaults)]
    args = [object() for _ in required]
    for value in (cls(*args), cls(**dict(zip(required, args)))):
        assert [getattr(value, name) for name in required] == args
        for name, default in zip(cls._fields[len(required):], cls._defaults):
            assert getattr(value, name) == default
    with pytest.raises(TypeError):
        cls(*args[1:])  # a missing field
    with pytest.raises(TypeError):
        cls(**dict(zip(required[1:], args)))
    with pytest.raises(TypeError):
        cls(*args, unknown=1)
    with pytest.raises(TypeError):
        cls(*args, *cls._defaults, 1)  # one field too many


def test_a_subclass_keeps_a_written_initializer_and_gets_new_fields():
    class Checked(Dimension):
        __slots__ = ()

    with pytest.raises(ExprSyntaxError):
        Checked("1x", TagKind.INT)  # Dimension's check still runs

    class Along(Ref):
        __slots__ = ("dim",)
        _fields = ("name", "dim")
        _defaults = ("time",)

    assert tuple(inspect.signature(Along).parameters) == ("name", "dim")
    assert Along("a").dim == "time" and Along("a", "s") == Along(name="a", dim="s")
    assert tuple(inspect.signature(Ref).parameters) == ("name",)


def test_classes_of_equal_fields_share_one_compiled_initializer():
    pairs = [(First, Next), (First, Prev), (Fby, Wvr), (Fby, Asa), (Fby, Upon)]
    for one, other in pairs:
        assert one.__init__ is not other.__init__
        assert one.__init__.__code__ is other.__init__.__code__
        assert other.__init__.__qualname__ == f"{other.__name__}.__init__"
        assert other.__init__.__module__ == other.__module__
        assert other.__init__._of_fields
    # the defaults are each class's own
    assert First.__init__.__defaults__ == ("time",)
    assert Fby.__init__.__code__ is not First.__init__.__code__
