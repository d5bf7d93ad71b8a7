"""Dimensions, tags, and contexts: the value model everything else builds on.

A context is a finite set of (dimension, tag) pairs, stored as a frozenset
of its pairs.  Duplicate pairs collapse under set semantics.  A dimension
may appear with several different tags, in which case the context is
*non-simple*; context operators that need a simple operand check it when
they are called.  A context checks that its entries are micro contexts in
its public constructor, where they can come in from outside; the package
builds its own with ``Context._of_micros``, which skips the check.

A context set is a finite set of simple contexts, stored as a relation in
Codd's sense, one per dimension set: a mapping from each member's
*schema*, the tuple of its dimensions ordered by name and then by tag kind
(``schema_of``), to the *group* of its *rows*, each the tuple of a
member's micro contexts in schema order (``row_of``).  Every member is
simple, so every member has a row, and a row holds each pair object
itself, with its hash and its cached text.  A group is a frozenset of
rows, or a tuple of rows that its builder has shown distinct: a relation
is a set, so a product or a join of duplicate-free relations needs no
duplicate check, a set literal's rows of one schema differ exactly when
their tags do, and hashing a row costs a Python call per pair
(``MicroContext.__hash__``).  ``==``, ``hash`` and ``in`` freeze a tuple
group, once; iterating, ``len``, printing and the operators read the rows
as they are.  A ``Context`` is built only when a caller iterates the set.
The set operators (``sets``, ``ops._range``) work on the rows and build
their results with ``ContextSet._of_groups``, which skips the member
checks of the public constructor: simple operands give simple results.

A micro context is a (dimension, tag) pair whose tag the dimension admits
(``Dimension.coerce``).  Each dimension builds its own pairs and keeps one
pair object per tag, so a pair read from a literal, enumerated from a Box
or swept by a range is the same object wherever it recurs.  Within the
package every pair is built by ``Dimension.micro``, through the public
constructor, which checks and coerces a tag given from outside, or by
``Dimension._sweep``, which yields the dimension's own tags from one to
another and so checks none.  Both end in ``MicroContext._of``, the one
place a pair's hash and text are computed.

A dimension's name is a name of the expression language: word characters
(``\\w``), the first a letter or ``_``.  A value prints with its pairs and
members in a fixed order.  A context's pairs, and a row's, sort by
dimension name, then by tag kind (bool, enum, int, str), then by tag
(ints and strs by value, bools false first, enum members by declaration
order, then by symbol); the tag kind separates only two registries'
same-named dimensions, and an enum's symbol only two same-named enums.
A context set's members sort by their printed text.
"""

from __future__ import annotations

import enum
import functools
import itertools
import operator
import re
import types
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Iterable
from typing import Optional, Tuple, Union

from .errors import (
    DuplicateDimension,
    ExprSyntaxError,
    IllFormedDomain,
    KindMismatch,
    NonSimpleOperand,
    TagOutsideDomain,
    TagTypeMismatch,
    UnknownDimension,
)


class _EnumType(enum.EnumMeta):
    """The class of ``_Enum``: ``Kind[name]`` of a name the enumeration does
    not hold, or of an unhashable one, raises ``KindMismatch``, not
    ``KeyError``."""

    def __getitem__(cls, name):
        try:
            return super().__getitem__(name)
        except (KeyError, TypeError):
            raise KindMismatch(f"not a {cls.__name__} name: {name!r}") from None


class _Enum(enum.Enum, metaclass=_EnumType):
    """An enumeration whose lookup of a value it does not hold, or of a
    name, raises ``KindMismatch``, a typed error, not ``ValueError`` or
    ``KeyError``."""

    @classmethod
    def _missing_(cls, value):
        raise KindMismatch(f"not a {cls.__name__}: {value!r}")


class TagKind(_Enum):
    """The four tag families a dimension can range over."""

    INT = "int"
    STR = "str"
    BOOL = "bool"
    ENUM = "enum"


class _Text(str):
    """Text that ``Record.__repr__`` writes as it is, not as a value."""


_CLOSE = _Text(")")
_set = object.__setattr__


class Record:
    """An immutable record: the base of the syntax-tree nodes, ``EnumValue``,
    ``Dimension``, ``MicroContext``, ``ContextSet`` and ``sets.Box``.

    A subclass lists its fields in ``_fields``, in order, and in
    ``__slots__`` (with any slot outside its value), and ``_defaults``
    holds the values of its trailing optional fields, if it has any.
    Assigning or deleting an attribute raises ``AttributeError``.  From
    ``_fields`` the base gives an ``__init__`` that takes the fields by
    position or by keyword and sets each with ``object.__setattr__``,
    equality (same class and equal fields), a hash of the fields,
    ``Name(field=value, ...)`` as ``repr`` and a ``__reduce__`` that calls
    the class with the fields, for copy and pickle.  ``repr`` walks nested
    records with a loop over a stack, so a deep tree costs no recursion.

    A class that checks its input writes its own ``__init__``, which sets
    its slots the same way, and its subclasses inherit it.  The base's
    initializer is compiled once per distinct ``_fields``, when the first
    class of those fields is created, as ``collections.namedtuple`` builds
    its methods: its parameters are the fields themselves, so a call costs
    what a hand-written one does.  Classes of equal fields share the code
    object, each with a function of its own.
    """

    __slots__ = ()
    _fields = ()
    _defaults = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__init__ is object.__init__ or hasattr(cls.__init__, "_of_fields"):
            cls.__init__ = _initializer(cls)
        cls._key = operator.attrgetter(*cls._fields)
        cls._labels = tuple(
            _Text(f"{', ' if i else cls.__qualname__ + '('}{name}=")
            for i, name in enumerate(cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        out, stack = [], [self]
        while stack:
            x = stack.pop()
            if type(x) is _Text:
                out.append(x)
            elif type(x).__repr__ is Record.__repr__:
                stack.append(_CLOSE)
                for label, name in zip(reversed(x._labels), reversed(x._fields)):
                    stack += (getattr(x, name), label)
            else:
                out.append(repr(x))
        return "".join(out)


# The code of the initializer of each distinct ``_fields`` compiled so far.
_INIT_CODE: dict = {}


def _initializer(cls):
    """The ``__init__`` of a record class that writes none: its parameters
    are the fields, the last ``len(cls._defaults)`` of them optional.  Its
    code is compiled for the first class of these fields and shared by the
    rest.  It is marked ``_of_fields``, so a subclass gets one of its own
    fields."""
    fields = cls._fields
    namespace = {"_set": _set, "__name__": cls.__module__}
    code = _INIT_CODE.get(fields)
    if code is None:
        body = "".join(f"\n    _set(self, {name!r}, {name})" for name in fields)
        exec(f"def __init__(self, {', '.join(fields)}):{body or ' pass'}", namespace)
        code = _INIT_CODE[fields] = namespace["__init__"].__code__
    init = types.FunctionType(code, namespace, "__init__", cls._defaults or None)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init._of_fields = True
    return init


@functools.total_ordering
class EnumValue(Record):
    """One element of a named, finite, ordered enumeration.

    Ordering follows declaration order (the ordinal), then the symbol; two
    enum values are comparable only within the same enumeration.  One
    enumeration never ties on an ordinal, but two of one name from two
    registries can, and the symbol keeps their order total.
    """

    __slots__ = _fields = ("enumeration", "symbol", "ordinal")

    def __repr__(self):
        return f"{self.enumeration}.{self.symbol}"

    def __lt__(self, other):
        if not isinstance(other, EnumValue) or other.enumeration != self.enumeration:
            raise TagTypeMismatch(f"cannot order {self!r} against {other!r}")
        return (self.ordinal < other.ordinal
                or self.ordinal == other.ordinal and self.symbol < other.symbol)


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


def format_tag(value: TagValue) -> str:
    """Render a tag in the literal syntax the expression language accepts."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(value, EnumValue):
        return value.symbol
    raise TagTypeMismatch(f"not a tag value: {value!r}")


# A name token of the expression language (``lexer``, which this module
# does not import): word characters, the first a letter or "_".
_WORD = re.compile(r"\w+")


def _is_name(name) -> bool:
    return (isinstance(name, str) and _WORD.fullmatch(name) is not None
            and (name[0].isalpha() or name[0] == "_"))


# The most pairs one dimension keeps (see ``Dimension.micro``).
_MICRO_MEMO_LIMIT = 4096


class Dimension(Record):
    """A named axis with a tag kind and an optional finite ordered domain.

    A declared domain restricts which tags the dimension admits and is
    required for box enumeration over the dimension.  An enum dimension
    is declared with its symbols, in order, and stores their ``EnumValue``
    members as its domain.

    The constructor is the one validator of a dimension: its name (a
    name of the expression language, see the module docstring), its tag
    kind and its domain.  Identity is the name and the tag kind: the
    registry already decides which dimension a name denotes, so two
    dimensions that agree on both are equal and hash equal whatever their
    domains.  The hash is computed once.  Beside the domain tuple,
    ``index`` maps each tag to its position and, for enums, ``symbols``
    maps each symbol to its member.

    A dimension is the one builder of its pairs: ``micro(tag)`` builds
    the micro context (self, tag) the first time it is asked for and
    hands the same object back after (hash-consing: Filliâtre & Conchon,
    "Type-safe modular hash-consing", 2006), and ``_sweep(lo, hi)`` does
    the same for each tag it yields.  Asking for a pair thus writes to the
    dimension's memo, which is outside its identity.
    """

    __slots__ = ("name", "tag_type", "domain", "index", "symbols", "_hash",
                 "_order", "_micros")
    _fields = ("name", "tag_type", "domain")

    def __init__(self, name: str, tag_type: TagKind,
                 domain: Optional[Tuple[TagValue, ...]] = None):
        kind = tag_type
        if not _is_name(name):
            raise ExprSyntaxError("dimension name must be a non-empty identifier")
        if not isinstance(kind, TagKind):
            raise IllFormedDomain(
                f"tag kind of {name!r} must be a TagKind, got {kind!r}"
            )
        if domain is not None:
            if isinstance(domain, str) or not isinstance(domain, Iterable):
                raise IllFormedDomain(
                    f"domain of {name!r} must be a sequence of tags, got {domain!r}"
                )
            if isinstance(domain, (set, frozenset)):
                # a set has no declaration order, only its hash order
                raise IllFormedDomain(
                    f"domain of {name!r} must be a sequence in declaration "
                    f"order, got a {type(domain).__name__}"
                )
            domain = tuple(domain)
        if kind is TagKind.ENUM:
            if not domain:
                raise IllFormedDomain(
                    f"enum dimension {name!r} needs a declared domain"
                )
            for sym in domain:
                if not isinstance(sym, str):
                    raise IllFormedDomain(
                        f"enum domain symbols must be strings, got {sym!r}"
                    )
            if len(set(domain)) != len(domain):
                raise IllFormedDomain(f"enum domain of {name!r} repeats a symbol")
            domain = tuple(EnumValue(name, sym, i) for i, sym in enumerate(domain))
        elif domain is not None:
            if not domain:
                raise IllFormedDomain(f"domain of {name!r} must be non-empty")
            for v in domain:
                if kind_of(v) is not kind:
                    raise IllFormedDomain(
                        f"domain element {v!r} is not a {kind.value} tag"
                    )
            for lo, hi in zip(domain, domain[1:]):
                if not lo < hi:  # same kind, so comparable
                    raise IllFormedDomain(
                        f"domain of {name!r} must be strictly increasing"
                    )
        _set(self, "name", name)
        _set(self, "tag_type", kind)
        _set(self, "domain", domain)
        _set(self, "index", domain and {v: i for i, v in enumerate(domain)})
        _set(self, "symbols",
             {m.symbol: m for m in domain} if kind is TagKind.ENUM else None)
        _set(self, "_hash", hash((name, kind)))
        _set(self, "_order", (name, kind.value))  # its place in a schema
        _set(self, "_micros", {})

    def __eq__(self, other):
        if not isinstance(other, Dimension):
            return NotImplemented
        return self.name == other.name and self.tag_type is other.tag_type

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # Rebuilt from its arguments, an enum's from its symbols, so the
        # string hash is that of the process that loads it.
        domain = self.domain if self.symbols is None else tuple(self.symbols)
        return type(self), (self.name, self.tag_type, domain)

    def coerce(self, value) -> TagValue:
        """Validate a raw value as a tag for this dimension.

        One path: on an enum dimension a symbol string resolves to its
        member; any other value must have the dimension's kind and, when a
        domain is declared, lie in it.  On an enum dimension a member of
        another enumeration fails the membership check as a kind mismatch.
        """
        symbols = self.symbols
        if symbols is not None and isinstance(value, str):
            member = symbols.get(value)
            if member is None:
                raise TagOutsideDomain(
                    f"{value!r} is not a symbol of enum dimension {self.name!r}"
                )
            return member
        if kind_of(value) is not self.tag_type:
            raise TagTypeMismatch(
                f"dimension {self.name!r} expects {self.tag_type.value} tags, "
                f"got {value!r}"
            )
        if self.index is not None and value not in self.index:
            if symbols is not None:
                raise TagTypeMismatch(
                    f"{value!r} does not belong to enum dimension {self.name!r}"
                )
            raise TagOutsideDomain(
                f"{value!r} is outside the declared domain of {self.name!r}"
            )
        return value

    def micro(self, tag) -> "MicroContext":
        """The micro context (self, tag), built the first time it is asked
        for, which coerces the tag once, and the same object after.

        The memo is keyed by the tag as given, its class as well as its
        value, since ``True == 1``.  An enum symbol resolves to its
        member's pair, which is kept under the symbol's key too, so a pair
        asked for by symbol and by member is one object.  An unhashable
        tag goes straight to the build, which refuses it, and no pair
        whose build raised is kept.  It holds up to ``_MICRO_MEMO_LIMIT``
        pairs; when full it is emptied and refills, so ever new tags cost
        bounded memory, and a pair asked for again after a flush is an
        equal, new object.
        """
        key = (tag.__class__, tag)
        try:
            return self._micros[key]
        except (KeyError, TypeError):  # a new tag, or an unhashable one
            if self.symbols is not None and isinstance(tag, str):
                return self._keep(key, self.micro(self.coerce(tag)))
            return self._keep(key, MicroContext(self, tag))

    def _keep(self, key, micro) -> "MicroContext":
        """``micro``, a new pair of this dimension, kept in the memo under
        ``key``."""
        memo = self._micros
        if len(memo) >= _MICRO_MEMO_LIMIT:
            memo.clear()
        memo[key] = micro
        return micro

    def _sweep(self, lo, hi) -> list:
        """The pairs of the tags from ``lo`` to ``hi``, inclusive, in
        order, two tags of the dimension's kind, taken from the memo or
        built as ``micro`` builds them.

        The tags are the dimension's own, so none is coerced: over a
        declared domain, the slice between the bisected places of lo and
        hi, so the cost is that of the output; over an int dimension
        without one, the ints from lo to hi.
        """
        domain = self.domain
        if domain is None:
            tags = range(lo, hi + 1)
        else:
            tags = domain[bisect_left(domain, lo):bisect_right(domain, hi)]
        get, pairs = self._micros.get, []
        for tag in tags:
            key = (tag.__class__, tag)
            micro = get(key)
            if micro is None:
                micro = self._keep(key, MicroContext._of(self, tag))
            pairs.append(micro)
        return pairs


def _check_name(name) -> str:
    """name, if it is a string; the table is keyed by strings, and a key
    of another type could be unhashable."""
    if not isinstance(name, str):
        raise ExprSyntaxError("dimension name must be a non-empty identifier")
    return name


class DimensionRegistry:
    """A name table: name -> Dimension, the single authority on which
    dimension a name denotes.

    ``register`` checks only that the name is a string and new;
    ``Dimension`` validates the rest.  A name that is not a string is in
    no registry.  The registry is left untouched when a registration
    fails.  A pair is built by its dimension: ``get(name).micro(tag)``.

    The registry also keeps the pairs that literals spell, so that a pair
    a literal repeats costs one dict lookup (``_micros_of``): ``_pairs``
    maps a ``(name, tag)`` tuple whose tag is exactly an ``int`` to that
    pair's micro context.  Only an exact ``int`` tag is kept or served,
    since ``True``, ``1`` and ``1.0`` are one key, and no pair whose build
    raised is kept.  No entry can go stale: a registry never redefines or
    drops a name, and a dimension admits the same tags all its life.  The
    memo holds up to ``_MICRO_MEMO_LIMIT`` pairs and is emptied when full,
    as a dimension's is.
    """

    def __init__(self):
        self._dims: dict = {}
        self._pairs: dict = {}

    def register(self, name: str, tag_type: TagKind, domain=None) -> Dimension:
        if _check_name(name) in self._dims:
            raise DuplicateDimension(f"dimension {name!r} is already registered")
        dim = Dimension(name, tag_type, domain)
        self._dims[name] = dim
        return dim

    def get(self, name: str) -> Dimension:
        try:
            return self._dims[_check_name(name)]
        except KeyError:
            raise UnknownDimension(f"unknown dimension {name!r}") from None

    def __contains__(self, name) -> bool:
        return isinstance(name, str) and name in self._dims

    def _micro(self, pair) -> "MicroContext":
        """The micro context of a (dimension name, raw tag) pair, which is
        kept in ``_pairs`` if its tag is an ``int``."""
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            raise ExprSyntaxError(f"not a (dimension, tag) pair: {pair!r}")
        name, tag = pair
        micro = self.get(name).micro(tag)
        if tag.__class__ is int:
            memo = self._pairs
            if len(memo) >= _MICRO_MEMO_LIMIT:
                memo.clear()
            memo[name, tag] = micro
        return micro


class MicroContext(Record):
    """A single (dimension, tag) pair; the atom contexts are built from.

    The constructor checks that ``dimension`` is a ``Dimension`` and
    coerces the tag (see ``Dimension.coerce``), then builds the pair with
    ``_of``.  Within the package every pair is built by its dimension (see
    ``Dimension.micro``), which keeps one object per pair; the constructor
    stays public for callers that want a pair of their own.  ``Record``
    gives the rest of the value: two micro contexts are equal when their
    dimensions and tags are equal, and copies rebuild a pair through the
    constructor.  The hash and the printed text ``(d, tag)`` are computed
    once, by ``_of``, and kept in slots.
    """

    __slots__ = ("dimension", "tag", "_hash", "_text")
    _fields = ("dimension", "tag")

    def __new__(cls, dimension: Dimension, tag: TagValue):
        if not isinstance(dimension, Dimension):
            raise KindMismatch(f"not a dimension: {dimension!r}")
        return cls._of(dimension, dimension.coerce(tag))

    def __init__(self, dimension: Dimension, tag: TagValue):
        """Nothing is left to do: ``__new__`` built the pair."""

    @classmethod
    def _of(cls, dimension: Dimension, tag: TagValue) -> "MicroContext":
        """The pair (dimension, tag), for a tag that the dimension admits;
        no check runs."""
        micro = object.__new__(cls)
        _set(micro, "dimension", dimension)
        _set(micro, "tag", tag)
        _set(micro, "_hash", hash((dimension, tag)))
        _set(micro, "_text", f"({dimension.name}, {format_tag(tag)})")
        return micro

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self._text


# C-level accessors, so that printing a context and taking its dimensions
# make no Python call per micro context.
_DIMENSION = operator.attrgetter("dimension")
_TEXT = operator.attrgetter("_text")
# A schema orders dimensions by name, then by tag kind, and a context its
# pairs by their dimensions in that order, then by tag.  Two dimensions of
# one name and one kind are equal, and their tags share a kind, so any two
# pairs compare; in a simple context no two tie.
_BY_NAME = operator.attrgetter("_order")
_ORDER = operator.attrgetter("dimension._order", "tag")
# A pair's place in a schema, as a tuple of strings, which hashes in C where
# a ``Dimension`` hashes with a Python call.
_PLACE = operator.attrgetter("dimension._order")
_TAG = operator.attrgetter("tag")


def schema_of(dims) -> tuple:
    """The dimensions ``dims`` as a schema: by name, then by tag kind."""
    return tuple(sorted(dims, key=_BY_NAME))


def row_of(context) -> tuple:
    """The micro contexts of a simple context as a row: in schema order."""
    return tuple(sorted(context, key=_ORDER))


class ContextOrder(_Enum):
    """Verdicts of comparing two contexts as micro-context sets."""

    EQUAL = "equal"
    SUBSET = "subset"
    SUPERSET = "superset"
    INCOMPARABLE = "incomparable"


class Context(frozenset):
    """A finite set of micro contexts, stored as a frozenset of them.

    The frozenset type supplies immutability, hashing and set equality of
    the entries; the one extra slot caches ``dims()``.  Equality is that of
    frozensets, so a context equals any frozenset holding the same pairs.
    The language keeps the kinds apart, because the evaluator dispatches
    on the exact type of a value.  The empty context (degree 0) plays the
    role of the null value.

    The public constructor checks its entries: an argument that is not a
    collection of ``MicroContext`` values raises ``KindMismatch``.  The
    package's own builders use ``_of_micros``, which skips the check.
    """

    __slots__ = ("_dims",)

    # "/" makes a keyword call fail here rather than build an empty context.
    def __new__(cls, entries: Iterable[MicroContext] = (), /):
        try:
            return frozenset.__new__(cls, entries)
        except TypeError:  # not iterable, or an unhashable entry
            raise KindMismatch(
                f"not a collection of micro contexts: {entries!r}") from None

    def __init__(self, entries: Iterable[MicroContext] = (), /):
        for m in self:
            if not isinstance(m, MicroContext):
                raise KindMismatch(f"context entry {m!r} is not a micro context")
        _set_dims(self, None)

    @classmethod
    def _of_micros(cls, entries: Iterable[MicroContext]) -> "Context":
        """The context of ``entries``, which the caller knows are micro
        contexts; ``frozenset.__new__`` runs neither ``__new__`` above nor
        ``__init__``."""
        context = frozenset.__new__(cls, entries)
        _set_dims(context, None)
        return context

    def __setattr__(self, name, value):
        raise AttributeError("Context is immutable")

    def __reduce__(self):
        # Copies and pickles rebuild from the members; the cache starts empty.
        return type(self), (tuple(self),)

    def dims(self) -> frozenset:
        """The dimensions the entries bind, built once and then cached."""
        dims = self._dims
        if dims is None:
            dims = frozenset(map(_DIMENSION, self))
            object.__setattr__(self, "_dims", dims)
        return dims

    def degree(self) -> int:
        return len(self.dims())

    def tags(self) -> Counter:
        """The multiset of tag values (multiplicity across dimensions)."""
        return Counter(m.tag for m in self)

    def is_simple(self) -> bool:
        """True when no dimension is bound to two different tags."""
        return len(self) == len(self.dims())

    def is_micro(self) -> bool:
        return len(self) == 1

    def compare(self, other: "Context") -> ContextOrder:
        if not isinstance(other, Context):
            raise KindMismatch(f"not a context: {type(other).__name__}")
        if self == other:
            return ContextOrder.EQUAL
        if self < other:
            return ContextOrder.SUBSET
        if self > other:
            return ContextOrder.SUPERSET
        return ContextOrder.INCOMPARABLE

    def __str__(self):
        return "{" + ", ".join(map(_TEXT, sorted(self, key=_ORDER))) + "}"

    def __repr__(self):
        return f"Context({self})"


# The C-level setter of the ``_dims`` slot.
_set_dims = Context._dims.__set__

NULL_CONTEXT = Context()


class ContextSet(Record):
    """A finite set of simple contexts, stored as a relation per schema.

    ``_groups`` maps each schema that a member has (see ``schema_of``) to
    the group of the rows over it (see ``row_of``): a frozenset, or a
    tuple of rows its builder has shown distinct; no group is empty.  So a
    set whose members differ in dimensions holds several groups.  The set
    is an immutable ``Record`` of its groups: ``len`` and ``str`` read the
    rows as they are, ``in``, ``==`` and ``hash`` first freeze each tuple
    group into a frozenset in place (once: the set's value does not
    change), iterating builds each member as a ``Context``, and copies and
    pickles go through the public constructor.  It equals only another
    ``ContextSet`` with the same members.  It prints as its members' texts
    in sorted order, each member's text joined from its pairs' cached
    texts in row order, the order ``Context.__str__`` prints a context's
    pairs in: by dimension name, then by tag kind.

    The public constructor is the boundary where members come in from
    outside (an API caller, a copy or a pickle), and ``make_context_set``
    the one where a set literal's pairs come in; these are the places
    members are checked.  In the constructor an argument that is not a
    collection of ``Context`` values raises ``KindMismatch``, and in both
    a non-simple member raises ``NonSimpleOperand``.  The set operators
    build their results with ``_of_groups`` instead, which skips the
    check: every lifted and relational operator gives simple results from
    simple operands, a proof obligation the tests pin with a property over
    each of them.
    """

    __slots__ = _fields = ("_groups",)

    # "/" makes a keyword call fail here rather than build an empty set.
    def __init__(self, members: Iterable[Context] = (), /):
        try:
            members = iter(members)
        except TypeError:
            raise KindMismatch(
                f"not a collection of contexts: {members!r}") from None
        groups = _groups_of(map(_checked_row, members))
        _set_groups(self, {schema: frozenset(rows) for schema, rows in groups.items()})

    @classmethod
    def _of_groups(cls, groups) -> "ContextSet":
        """The set of the rows in ``groups``, a mapping from schema to an
        iterable of rows over it, which the caller knows hold the pairs of
        simple contexts in schema order; ``__init__`` does not run.  An
        empty group is dropped.  A frozenset of rows, or a tuple of rows
        the caller knows are distinct, is kept as it is; any other
        iterable is frozen, which drops its duplicate rows."""
        kept = {}
        for schema, rows in groups.items():
            if rows.__class__ is not tuple and rows.__class__ is not frozenset:
                rows = frozenset(rows)
            if rows:
                kept[schema] = rows
        s = object.__new__(cls)
        _set_groups(s, kept)
        return s

    def _frozen(self) -> dict:
        """The groups, each tuple group replaced by its frozenset first."""
        groups = self._groups
        for schema, rows in groups.items():
            if rows.__class__ is tuple:
                groups[schema] = frozenset(rows)
        return groups

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._frozen() == other._frozen()
        return NotImplemented

    def __reduce__(self):
        # Copies and pickles rebuild from the members, through the check.
        return type(self), (tuple(self),)

    def __len__(self):
        return sum(map(len, self._groups.values()))

    def __iter__(self):
        return map(Context._of_micros, itertools.chain.from_iterable(
            self._groups.values()))

    def __contains__(self, c):
        if not (isinstance(c, Context) and c.is_simple()):
            return False
        row = row_of(c)
        rows = self._frozen().get(tuple(map(_DIMENSION, row)))
        return rows is not None and row in rows

    def __hash__(self):
        # O(number of schemas) once frozen: a frozenset caches its hash
        return hash(frozenset(self._frozen().values()))

    def dims_union(self) -> frozenset:
        """The union of the members' dimension sets: of the schemas."""
        return frozenset().union(*self._groups)

    def __str__(self):
        texts = ["{" + ", ".join(map(_TEXT, r)) + "}"
                 for rows in self._groups.values() for r in rows]
        texts.sort()
        return "{" + ", ".join(texts) + "}"

    def __repr__(self):
        return f"ContextSet({self})"


# The C-level setter of the ``_groups`` slot.
_set_groups = ContextSet._groups.__set__


def _checked_row(c) -> tuple:
    if not isinstance(c, Context):
        raise KindMismatch(f"context set member {c!r} is not a context")
    return row_of(c)


def _groups_of(rows) -> dict:
    """Schema -> list of rows, for the rows of a set's members, once each
    is checked to be simple: a member binds a dimension twice exactly when
    its schema holds it twice.  Every row is read before any is checked, so
    a bad member's error comes before a non-simple one's.  Rows are filed
    by their pairs' places (``_PLACE``), which two dimensions share exactly
    when they are equal, and each group's schema is built from its first
    row."""
    places: dict = {}
    for row in rows:
        places.setdefault(tuple(map(_PLACE, row)), []).append(row)
    groups = {}
    for place, rows in places.items():
        if len(set(place)) < len(place):
            member = Context._of_micros(rows[0])
            raise NonSimpleOperand(f"context set member {member} is not simple")
        groups[tuple(map(_DIMENSION, rows[0]))] = rows
    return groups


def make_context(registry: DimensionRegistry, pairs) -> Context:
    """Build a context from (dimension name, raw tag) pairs.

    Duplicate pairs collapse; the result may be non-simple.  Each pair is
    its dimension's one micro context for it (``Dimension.micro``).
    """
    check_registry(registry)
    return Context._of_micros(_micros_of(registry, pairs))


def make_context_set(registry: DimensionRegistry, members) -> ContextSet:
    """Build a context set from its members, each an iterable of
    (dimension name, raw tag) pairs as ``make_context`` takes it.

    Each member goes straight to its row, with no ``Context`` built for
    it: its pairs are read as ``make_context`` reads them and sort into
    schema order.  A pair with an ``int`` tag comes from the registry's
    memo of literal pairs (see ``DimensionRegistry``), which holds at most
    ``_MICRO_MEMO_LIMIT`` pairs and cannot go stale, since a registry
    never redefines a name.  A repeated pair binds its dimension twice,
    so while no row does, no row repeats a pair; only then are the pairs
    collapsed, every row's, and the rows filed again.  Two rows of one
    schema are equal exactly when their tags are, so each group keeps one
    row per tuple of tags, as a tuple of distinct rows: no pair is hashed.
    The result and the errors, in their order, are those of
    ``ContextSet(make_context(registry, m) for m in members)``.
    """
    check_registry(registry)
    rows = []
    for pairs in members:
        row = _micros_of(registry, pairs)
        if len(row) > 1:
            row.sort(key=_ORDER)
        rows.append(tuple(row))
    try:
        groups = _groups_of(rows)
    except NonSimpleOperand:
        groups = _groups_of([tuple(sorted(set(row), key=_ORDER)) for row in rows])
    return ContextSet._of_groups({
        schema: tuple({tuple(map(_TAG, row)): row for row in rows}.values())
        for schema, rows in groups.items()})


def check_registry(registry):
    """Raise ``KindMismatch`` unless ``registry`` is a ``DimensionRegistry``."""
    if not isinstance(registry, DimensionRegistry):
        raise KindMismatch(
            f"not a dimension registry: {type(registry).__name__}")


def _micros_of(registry: DimensionRegistry, pairs) -> list:
    """Each (dimension name, raw tag) pair's micro context, in order: from
    the registry's memo when it holds the pair and the tag is an ``int``,
    else from ``DimensionRegistry._micro``, which checks the pair."""
    try:  # not an ABC check, which costs more than the rest of a pair
        pairs_iter = iter(pairs)
    except TypeError:
        raise ExprSyntaxError(
            f"context pairs must be iterable, got {pairs!r}") from None
    get = registry._pairs.get
    micros = []
    for pair in pairs_iter:
        try:
            micro = get(pair)
        except TypeError:  # an unhashable pair, which ``_micro`` refuses
            micro = None
        if micro is None or pair[1].__class__ is not int:
            micro = registry._micro(pair)
        micros.append(micro)
    return micros
