"""Exception hierarchy shared by every layer of the package.

Every error has a ``position``: the 1-based column of the source text (a
command line, in the REPL) where it was found, or ``None`` when it has no
place in a text.  ``ContextCalcError.at`` alone writes "at position N".
"""


class ContextCalcError(Exception):
    """Base class for every error this package raises on purpose."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position

    @classmethod
    def at(cls, message: str, column: int):
        """The error ``message at position column``, placed at that column."""
        return cls(f"{message} at position {column}", position=column)


class InternalError(ContextCalcError):
    """A command failed with an exception the package did not raise on
    purpose: a defect, reported as a typed error instead of a traceback."""


# --- dimension and context construction ---------------------------------

class DuplicateDimension(ContextCalcError):
    """A dimension name was registered twice."""


class IllFormedDomain(ContextCalcError):
    """A declared tag domain is not well-kinded or not strictly increasing."""


class UnknownDimension(ContextCalcError):
    """A dimension name was used without being registered."""


class TagTypeMismatch(ContextCalcError):
    """A tag value does not have the kind its dimension expects."""


class TagOutsideDomain(ContextCalcError):
    """A tag value falls outside a dimension's declared finite domain."""


# --- operator preconditions ----------------------------------------------

class NonSimpleOperand(ContextCalcError):
    """An operand that must be a simple context (or a set of them) is not."""


class EmptyChoice(ContextCalcError):
    """choice() was called with no candidates."""


class UnorderedRangeDimension(ContextCalcError):
    """A range operator crossed a dimension whose tags cannot be stepped."""


class NonSimpleResidue(ContextCalcError):
    """The unshared remainder of a range operation is not a simple context."""


# --- boxes ----------------------------------------------------------------

class UnboundedBox(ContextCalcError):
    """Box enumeration was requested over a dimension with no finite domain."""


class IllTypedPredicate(ContextCalcError):
    """A box predicate is not well-kinded against its dimensions."""


# --- expression language ---------------------------------------------------

class UnknownToken(ContextCalcError):
    """The tokenizer hit a character sequence it does not recognize."""


class ExprSyntaxError(ContextCalcError):
    """A token stream does not form a well-formed expression."""


class UnbalancedParens(ExprSyntaxError):
    """Parentheses (or brackets) do not pair up."""


class UnboundVariable(ContextCalcError):
    """An expression referenced a name with no binding in the environment."""


class KindMismatch(ContextCalcError):
    """An operator was applied to values of the wrong kinds."""


# --- streams ----------------------------------------------------------------

class DuplicateName(ContextCalcError):
    """Two stream equations share one name."""


class UnresolvedReference(ContextCalcError):
    """A stream equation references a name with no equation."""


class DemandExhausted(ContextCalcError):
    """A stream query spent its demand budget without producing a value."""
