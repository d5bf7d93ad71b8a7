"""Dimensions, tags, and contexts: the value model everything else builds on.

A context is a finite set of (dimension, tag) pairs.  Duplicate pairs
collapse under set semantics.  A dimension may appear with several
different tags, in which case the context is *non-simple*; operators that
need simplicity check it at call time, not at construction.
"""

from __future__ import annotations

import enum
import functools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple, Union

from .errors import (
    DuplicateDimension,
    ExprSyntaxError,
    IllFormedDomain,
    NonSimpleOperand,
    TagOutsideDomain,
    TagTypeMismatch,
    UnknownDimension,
)


class TagKind(enum.Enum):
    """The four tag families a dimension can range over."""

    INT = "int"
    STR = "str"
    BOOL = "bool"
    ENUM = "enum"


@functools.total_ordering
@dataclass(frozen=True)
class EnumValue:
    """One element of a named, finite, ordered enumeration.

    Ordering follows declaration order (the ordinal); two enum values are
    comparable only within the same enumeration.
    """

    enumeration: str
    symbol: str
    ordinal: int

    def __repr__(self):
        return f"{self.enumeration}.{self.symbol}"

    def __lt__(self, other):
        if not isinstance(other, EnumValue) or other.enumeration != self.enumeration:
            raise TagTypeMismatch(f"cannot order {self!r} against {other!r}")
        return self.ordinal < other.ordinal


TagValue = Union[int, str, bool, EnumValue]


def kind_of(value: TagValue) -> TagKind:
    """Classify a tag value.  bool is checked before int deliberately."""
    if isinstance(value, bool):
        return TagKind.BOOL
    if isinstance(value, int):
        return TagKind.INT
    if isinstance(value, str):
        return TagKind.STR
    if isinstance(value, EnumValue):
        return TagKind.ENUM
    raise TagTypeMismatch(f"not a tag value: {value!r}")


def tag_lt(a: TagValue, b: TagValue) -> bool:
    """Strict order on same-kind tags.

    Integers and strings use their native order, false precedes true, and
    enum values follow declaration order within one enumeration.
    """
    ka, kb = kind_of(a), kind_of(b)
    if ka is not kb:
        raise TagTypeMismatch(
            f"cannot order {a!r} ({ka.value}) against {b!r} ({kb.value})"
        )
    return a < b


def format_tag(value: TagValue) -> str:
    """Render a tag in the literal syntax the expression language accepts."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return f'"{value}"'
    return value.symbol


@dataclass(frozen=True)
class Dimension:
    """A named axis with a tag kind and an optional finite ordered domain.

    A declared domain restricts which tags the dimension admits and is
    required for box enumeration over the dimension.  Enum dimensions
    always carry their domain (it is the enumeration itself).
    """

    name: str
    tag_type: TagKind
    domain: Optional[Tuple[TagValue, ...]] = None

    def __post_init__(self):
        if not self.name:
            raise ExprSyntaxError("dimension name must be a non-empty identifier")
        if self.tag_type is TagKind.ENUM:
            if not self.domain:
                raise IllFormedDomain(
                    f"enum dimension {self.name!r} needs a declared domain"
                )
        if self.domain is not None:
            if not self.domain:
                raise IllFormedDomain(f"domain of {self.name!r} must be non-empty")
            for v in self.domain:
                if kind_of(v) is not self.tag_type:
                    raise IllFormedDomain(
                        f"domain element {v!r} is not a {self.tag_type.value} tag"
                    )
            for lo, hi in zip(self.domain, self.domain[1:]):
                if not tag_lt(lo, hi):
                    raise IllFormedDomain(
                        f"domain of {self.name!r} must be strictly increasing"
                    )

    def coerce(self, value) -> TagValue:
        """Validate a raw value as a tag for this dimension.

        Enum dimensions also accept a bare symbol string and resolve it
        against the enumeration.
        """
        if self.tag_type is TagKind.ENUM:
            if isinstance(value, EnumValue):
                if value in self.domain:
                    return value
                raise TagTypeMismatch(
                    f"{value!r} does not belong to enum dimension {self.name!r}"
                )
            if isinstance(value, str):
                for member in self.domain:
                    if member.symbol == value:
                        return member
                raise TagOutsideDomain(
                    f"{value!r} is not a symbol of enum dimension {self.name!r}"
                )
            raise TagTypeMismatch(
                f"dimension {self.name!r} expects enum tags, got {value!r}"
            )
        if kind_of(value) is not self.tag_type:
            raise TagTypeMismatch(
                f"dimension {self.name!r} expects {self.tag_type.value} tags, "
                f"got {value!r}"
            )
        if self.domain is not None and value not in self.domain:
            raise TagOutsideDomain(
                f"{value!r} is outside the declared domain of {self.name!r}"
            )
        return value


class DimensionRegistry:
    """Name -> Dimension mapping; the single authority on dimension identity.

    Registration is single-writer; lookups are read-only and safe to share.
    The registry is left untouched when a registration fails.
    """

    def __init__(self):
        self._dims: dict = {}

    def register(self, name: str, tag_type: TagKind, domain=None) -> Dimension:
        if name in self._dims:
            raise DuplicateDimension(f"dimension {name!r} is already registered")
        dim = self._build(name, tag_type, domain)
        self._dims[name] = dim
        return dim

    def _build(self, name, tag_type, domain) -> Dimension:
        if tag_type is TagKind.ENUM:
            symbols = list(domain or ())
            for sym in symbols:
                if not isinstance(sym, str):
                    raise IllFormedDomain(
                        f"enum domain symbols must be strings, got {sym!r}"
                    )
            if len(set(symbols)) != len(symbols):
                raise IllFormedDomain(f"enum domain of {name!r} repeats a symbol")
            members = tuple(
                EnumValue(name, sym, i) for i, sym in enumerate(symbols)
            )
            return Dimension(name, tag_type, members)
        dom = tuple(domain) if domain is not None else None
        return Dimension(name, tag_type, dom)

    def get(self, name: str) -> Dimension:
        try:
            return self._dims[name]
        except KeyError:
            raise UnknownDimension(f"unknown dimension {name!r}") from None

    def __contains__(self, name) -> bool:
        return name in self._dims

    def names(self):
        return list(self._dims)


@dataclass(frozen=True)
class MicroContext:
    """A single (dimension, tag) pair; the atom contexts are built from."""

    dimension: Dimension
    tag: TagValue

    def __post_init__(self):
        object.__setattr__(self, "tag", self.dimension.coerce(self.tag))

    def __repr__(self):
        return f"({self.dimension.name}, {format_tag(self.tag)})"


class ContextOrder(enum.Enum):
    """Verdicts of comparing two contexts as micro-context sets."""

    EQUAL = "equal"
    SUBSET = "subset"
    SUPERSET = "superset"
    INCOMPARABLE = "incomparable"


class Context:
    """A finite set of micro contexts.

    Immutable and hashable; equality is set equality of the entries.  The
    empty context (degree 0) plays the role of the null value.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[MicroContext] = ()):
        object.__setattr__(self, "entries", frozenset(entries))

    def __setattr__(self, name, value):
        raise AttributeError("Context is immutable")

    # -- inspection ---------------------------------------------------------

    def dims(self) -> frozenset:
        return frozenset(m.dimension for m in self.entries)

    def degree(self) -> int:
        return len(self.dims())

    def tags(self) -> Counter:
        """The multiset of tag values (multiplicity across dimensions)."""
        return Counter(m.tag for m in self.entries)

    def is_simple(self) -> bool:
        """True when no dimension is bound to two different tags."""
        return len(self.entries) == self.degree()

    def is_micro(self) -> bool:
        return len(self.entries) == 1

    def compare(self, other: "Context") -> ContextOrder:
        if self.entries == other.entries:
            return ContextOrder.EQUAL
        if self.entries < other.entries:
            return ContextOrder.SUBSET
        if self.entries > other.entries:
            return ContextOrder.SUPERSET
        return ContextOrder.INCOMPARABLE

    # -- container protocol ---------------------------------------------------

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __contains__(self, micro):
        return micro in self.entries

    def __eq__(self, other):
        return isinstance(other, Context) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __str__(self):
        ordered = sorted(
            self.entries, key=lambda m: (m.dimension.name, m.tag)
        )
        return "{" + ", ".join(map(repr, ordered)) + "}"

    def __repr__(self):
        return f"Context({self})"


NULL_CONTEXT = Context()


class ContextSet:
    """A finite set of simple contexts.

    Members with different dimension domains may coexist; rejecting a
    non-simple member is the one construction-time check.
    """

    __slots__ = ("members",)

    def __init__(self, members: Iterable[Context] = ()):
        frozen = frozenset(members)
        for c in frozen:
            if not c.is_simple():
                raise NonSimpleOperand(f"context set member {c} is not simple")
        object.__setattr__(self, "members", frozen)

    def __setattr__(self, name, value):
        raise AttributeError("ContextSet is immutable")

    def dims_union(self) -> frozenset:
        """The union of the members' dimension sets."""
        out = frozenset()
        for c in self.members:
            out |= c.dims()
        return out

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __contains__(self, context):
        return context in self.members

    def __eq__(self, other):
        return isinstance(other, ContextSet) and self.members == other.members

    def __hash__(self):
        return hash(self.members)

    def __str__(self):
        return "{" + ", ".join(sorted(str(c) for c in self.members)) + "}"

    def __repr__(self):
        return f"ContextSet({self})"


def make_context(registry: DimensionRegistry, pairs) -> Context:
    """Build a context from (dimension name, raw tag) pairs.

    Duplicate pairs collapse; the result may be non-simple.
    """
    return Context(
        MicroContext(registry.get(name), value) for name, value in pairs
    )
