"""The error hierarchy: every error the package raises on purpose has a
``position``, the 1-based column where it was found, or None when it has
no place in any text; ``at`` is the one way to write that column into a
message."""

import inspect
import pickle

import pytest

from ctxcalc import errors
from ctxcalc.errors import ContextCalcError, ExprSyntaxError, UnknownToken
from ctxcalc.parser import parse_expr

ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                 if issubclass(cls, ContextCalcError)]


def test_the_hierarchy_is_collected():
    assert {ContextCalcError, ExprSyntaxError, UnknownToken} <= set(ERROR_CLASSES)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_has_a_position_that_defaults_to_none(cls):
    assert cls("m").position is None
    assert cls("m", position=3).position == 3
    assert str(cls("m")) == "m"


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_at_places_the_error_and_writes_its_column(cls):
    err = cls.at("m", 3)
    assert type(err) is cls
    assert err.position == 3
    assert str(err) == "m at position 3"
    copy = pickle.loads(pickle.dumps(err))
    assert (type(copy), str(copy), copy.position) == (cls, "m at position 3", 3)


def test_an_error_with_no_place_in_a_text_has_no_position():
    # a parse entry given a value that is no text: there is no column
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr(123)
    assert info.value.position is None
