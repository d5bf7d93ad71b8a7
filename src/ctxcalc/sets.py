"""Operators over sets of simple contexts, plus intensional Box sets.

A context set is a relation per schema, a group of rows of micro
contexts (see ``model``), and every operator here works on the rows
through three kernels, over groups (mappings from a schema to its rows):

- ``_restrict`` keeps or cuts columns: ``!`` and ``^``, and the operands
  that the other operators cut first;
- ``_join`` is the natural join, a hash join on the shared columns that
  meets schemas with none as their product: ``><`` on the shared
  dimensions; ``(+)``, each remainder of s1 with a schema B of s2's
  dimensions hidden, followed by the rows over B; ``[+]``, each side
  followed by the unshared remainders of the other; and ``/``, the
  members that bind d with d hidden, followed by the pair;
- ``_meet`` meets each row with the distinct projections of the other
  side onto the shared dimensions and keeps the columns on which they
  agree, for ``[&]``, or cuts them, for ``(-)``.  Which columns agree
  depends on the tags, so it groups its output by the columns kept.

For each schema, or pair of schemas, a kernel works out the column
positions once; after that a row costs a C-level column pick or tuple
concatenation.  No operator calls a context operator, or builds a
``Context``, per member.

Hashing a row costs a Python call per pair, so only the kernels that can
collapse rows dedupe them.  A relation is a set: each member of a join
(one left row with one rest of its bucket, or one row of each side of a
product) and each member of a Box (one path through its loop nest over
distinct candidates) are distinct by construction, so ``_join`` and
``box_enumerate`` hand their rows to ``ContextSet._of_groups`` as
tuples, unhashed.  The two sides of ``[+]`` could build the same row,
so its second side is an anti-join (``_unseen``) that builds only the
rows the first did not, and ``_add`` appends them to the first side's.
Cutting columns can make two rows one, so ``_restrict`` and the kept
columns of ``_meet`` freeze their rows; so does ``_add`` when any other
second batch of rows meets a schema's first, as two schema pairs of
``(+)`` can build the same row.

A Box describes a context set by a dimension list and a predicate over
the current tags instead of by enumeration.  A predicate is a tree of
``parser`` nodes (``Const``, ``Ref``, ``Pointwise`` and ``NotOp``) in the
syntax of ``parser.PREDICATE``.  ``Box`` (also named ``box_make``) is its
one constructor: it checks the Box, binds its enum symbols, plans the
search (a level per dimension, swept or solved, with the conjuncts that
level completes) and lowers the plan to the source of one Python
function, a loop nest (``_lower``; Neumann, "Efficiently compiling
efficient query plans for modern hardware", VLDB 2011).
``box_enumerate`` runs the nest over the dimensions' domains, and
``box_contains`` over one context's tags.  Names in the source are
positional and constants and enum members are arguments, so the source is
a function of the Box's shape alone: the compiled nests are cached by
source, and by shape, which spares planning too; each cache keeps at most
``_NEST_LIMIT`` and drops its oldest first.  Two limits of the host
compiler are kept clear: a predicate lowers to straight-line statements,
so a long chain nests no expression and reaches no recursion limit, and a
function binds at most ``_LEVELS_PER_FUNCTION`` levels, under the 20
nested blocks CPython allows, before it calls a nested one for the rest.
"""

from __future__ import annotations

import itertools
import operator
import random
from collections.abc import Iterable
from operator import itemgetter
from typing import Tuple

from .errors import (
    IllTypedPredicate,
    KindMismatch,
    NonSimpleOperand,
    UnboundedBox,
)
from .model import (
    Context,
    ContextSet,
    Dimension,
    Record,
    TagKind,
    kind_of,
    schema_of,
)
from .parser import (
    PREDICATE, Const, NotOp, Pointwise, Ref, StreamExpr, left_chain,
    references, unparse,
)
from . import ops


# --- rows ----------------------------------------------------------------------

def _check_sets(*operands):
    """Raise ``KindMismatch`` unless every operand is a ``ContextSet``.

    The operators build their results unchecked (``ContextSet._of_groups``)
    because simple operands give simple results; an operand of another
    type could hold a non-simple context and break that.
    """
    for s in operands:
        if not isinstance(s, ContextSet):
            raise KindMismatch(f"not a context set: {type(s).__name__}")


def _getter(cols):
    """A C-level function from a row to the tuple of its columns ``cols``."""
    if len(cols) > 1:
        return itemgetter(*cols)
    if cols:  # a slice, so that one column is a tuple too
        return itemgetter(slice(cols[0], cols[0] + 1))
    return itemgetter(slice(0, 0))


def _cols(schema, dims) -> list:
    """The positions in ``schema`` of the dimensions in ``dims``."""
    return [i for i, d in enumerate(schema) if d in dims] if dims else []


def _at(schema, cols) -> tuple:
    """The schema of the columns ``cols`` of ``schema``."""
    return tuple(map(schema.__getitem__, cols))


def _add(groups, schema, rows, disjoint=False):
    """Add ``rows`` to the rows of ``schema`` in ``groups``, which
    ``ContextSet._of_groups`` takes; a schema's first rows are kept as
    they are, so that a frozenset or a tuple of distinct rows passes
    through unhashed.  A second batch that the caller has shown
    ``disjoint`` from the first is appended to it, as a tuple; any other
    merges the two into a set."""
    have = groups.get(schema)
    if have is None:
        groups[schema] = rows
    elif disjoint:
        groups[schema] = (*have, *rows)
    else:
        if type(have) is not set:
            have = groups[schema] = set(have)
        have.update(rows)


def _restrict(groups, dims, keep: bool) -> dict:
    """``groups``, a mapping from schema to rows, restricted to ``dims``
    (keep) or to the others: schema to the group of the distinct rows over
    it, a group of ``groups`` itself where no column is cut."""
    out = {}
    for schema, rows in groups.items():
        cols = [i for i, d in enumerate(schema) if (d in dims) is keep]
        if len(cols) < len(schema):
            schema, rows = _at(schema, cols), frozenset(map(_getter(cols), rows))
        have = out.get(schema)
        out[schema] = rows if have is None else frozenset(have).union(rows)
    return out


def _join(out, lefts, rights, shared, seen=None):
    """Add to ``out`` the natural join of two groups, mappings from schema
    to distinct rows, over the dimensions ``shared``.

    Two rows can agree only when they bind the same shared dimensions, so
    only schemas with the same shared columns meet.  For each such pair of
    schemas a hash join: the rows on the right are bucketed by their tags
    on the shared columns, once, and each row on the left probes its own
    bucket, so the cost is the two sides plus the pairs that agree.
    Schemas with no shared column meet as their product, and where one of
    them is ``()`` the other's rows pass through as they are.  Each left
    row with one rest of its bucket is a distinct row, so a pair of
    schemas adds a tuple.

    With ``seen``, a pair of a group and a set of dimensions D, and no
    ``shared`` dimension, the join is an anti-join: a left row a and a
    right row r are not joined when r with a's columns on D is a row of
    the group (see ``_unseen``).  ``set_union`` passes its first side and
    its shared dimensions, so that its second side builds only the rows
    the first did not, and ``_add`` appends them unhashed.
    """
    for b_schema, b_rows in rights.items():
        b_keys = _cols(b_schema, shared)
        on, rest, buckets = _at(b_schema, b_keys), b_schema, None
        for a_schema, a_rows in lefts.items():
            a_keys = _cols(a_schema, shared)
            if _at(a_schema, a_keys) != on:
                continue
            if seen is not None:
                pairs = _unseen(a_schema, a_rows, b_schema, b_rows, *seen)
            elif not (a_schema and b_schema):  # one side is the empty row
                _add(out, a_schema or b_schema, a_rows if a_schema else b_rows)
                continue
            elif not a_keys:
                pairs = itertools.product(a_rows, b_rows)
            else:
                if buckets is None:  # the rest of b's rows, by key
                    b_rest = [i for i in range(len(b_schema)) if i not in b_keys]
                    rest, buckets = _at(b_schema, b_rest), {}
                    for key, r in zip(map(_getter(b_keys), b_rows),
                                      map(_getter(b_rest), b_rows)):
                        buckets.setdefault(key, []).append(r)
                pairs = []
                for key, a in zip(map(_getter(a_keys), a_rows), a_rows):
                    rests = buckets.get(key)
                    if rests is not None:
                        pairs.append(zip(itertools.repeat(a), rests))
                pairs = itertools.chain.from_iterable(pairs)
            cat = a_schema + rest
            schema = schema_of(cat)
            rows = itertools.starmap(operator.add, pairs)
            if schema != cat:
                rows = map(_getter(list(map(cat.index, schema))), rows)
            _add(out, schema, tuple(rows), seen is not None)


def _unseen(a_schema, a_rows, rest, rests, seen, dims):
    """The pairs (a, r) of a row of ``a_rows``, over ``a_schema``, and a
    row of ``rests``, distinct rows over ``rest``, which holds none of
    ``dims``, for which r with a's columns on ``dims`` is not a row of
    ``seen``, a mapping from schema to rows.

    Such a row lies in seen's group over the schema of ``rest`` and a's
    columns on ``dims``.  If there is none, every pair is kept.  If that
    schema is a's own, the rest is ``()`` and the row is a itself, so the
    pairs are a's rows less the group's, a set difference that reuses the
    hashes a frozenset keeps.  Otherwise the group's rows are bucketed,
    once, by their columns on ``dims``, each bucket the set of the rest of
    its rows, and each distinct key of a's rows is paired with ``rests``
    less its bucket, worked out once per key.
    """
    a_keys = _cols(a_schema, dims)
    over = schema_of(rest + _at(a_schema, a_keys))
    found = seen.get(over)
    if found is None:
        return itertools.product(a_rows, rests)
    if over == a_schema:
        return zip(frozenset(a_rows).difference(found), itertools.repeat(()))
    keys = _cols(over, dims)
    others = [i for i in range(len(over)) if i not in keys]
    buckets: dict = {}
    for key, r in zip(map(_getter(keys), found), map(_getter(others), found)):
        buckets.setdefault(key, set()).add(r)
    by_key: dict = {}
    for key, a in zip(map(_getter(a_keys), a_rows), a_rows):
        by_key.setdefault(key, []).append(a)
    rests = frozenset(rests)
    return itertools.chain.from_iterable(
        itertools.product(rows, rests.difference(buckets.get(key, ())))
        for key, rows in by_key.items())


def _meet(out, lefts, cuts, keep: bool):
    """Add to ``out`` each row of ``lefts`` met with each distinct row of
    ``cuts``, two groups, over the columns their schemas share: the row
    keeps the columns on which they agree (keep), or loses them.  Which columns
    agree depends on the tags (see ``_agreements``), so the rows are added
    grouped by the columns kept."""
    for a_schema, a_rows in lefts.items():
        for k_schema, k_rows in cuts.items():
            a_cols = _cols(a_schema, k_schema)
            ys = set(map(_getter(_cols(k_schema, a_schema)), k_rows))
            for same, rows in _agreements(a_rows, _getter(a_cols), ys,
                                          len(a_cols)).items():
                met = set(map(a_cols.__getitem__, same))
                kept = [i for i in range(len(a_schema)) if (i in met) is keep]
                if len(kept) < len(a_schema):
                    _add(out, _at(a_schema, kept), map(_getter(kept), rows))
                else:
                    _add(out, a_schema, rows)


def _shared_dims(s1: ContextSet, s2: ContextSet) -> frozenset:
    return s1.dims_union() & s2.dims_union()


def _agreements(rows, key, ys, width: int) -> dict:
    """For each distinct tuple of the columns on which the ``key`` of some
    row of ``rows`` and some y of ``ys``, all tuples of ``width`` columns,
    agree: those columns, and the rows whose key agrees with some y on
    exactly them.

    Over one column a key agrees with y exactly when it is y, so a row
    takes one lookup.  Over more, the rows are grouped by key, and each
    distinct key meets each y.
    """
    if width == 1:
        hits = list(map(ys.__contains__, map(key, rows)))
        found = {(0,): list(itertools.compress(rows, hits)),
                 (): rows if len(ys) > 1 else
                 list(itertools.compress(rows, map(operator.not_, hits)))}
        return {cols: rows for cols, rows in found.items() if rows}
    by_key: dict = {}
    for k, row in zip(map(key, rows), rows):
        by_key.setdefault(k, []).append(row)
    found = {}
    for x, group in by_key.items():
        for same in {tuple(map(operator.eq, x, y)) for y in ys}:
            found.setdefault(same, []).extend(group)
    return {tuple(itertools.compress(itertools.count(), same)): rows
            for same, rows in found.items()}


# --- lifted operators -------------------------------------------------------

def lift_projection(s: ContextSet, dims: frozenset) -> ContextSet:
    """Project every member onto ``dims``."""
    _check_sets(s)
    ops.check_dims(dims)
    return ContextSet._of_groups(_restrict(s._groups, dims, True))


def lift_hiding(s: ContextSet, dims: frozenset) -> ContextSet:
    """Hide ``dims`` in every member."""
    _check_sets(s)
    ops.check_dims(dims)
    return ContextSet._of_groups(_restrict(s._groups, dims, False))


def lift_substitution(s: ContextSet, pair: Context) -> ContextSet:
    """Substitute ``pair``, a context of one micro context (a ``<d, t>``
    pair), into every member: a member that binds its dimension d takes
    the pair in that column, and any other member stays as it is.  So the
    members that bind d are hidden on d and joined with the pair."""
    _check_sets(s)
    if not (isinstance(pair, Context) and pair.is_micro()):
        raise KindMismatch(
            "set substitution needs a <dimension, tag> pair on the right"
        )
    (m,) = pair
    d = m.dimension
    out, bound = {}, {}
    for schema, rows in s._groups.items():
        (bound if d in schema else out)[schema] = rows
    _join(out, _restrict(bound, (d,), False), {(d,): ((m,),)}, ())
    return ContextSet._of_groups(out)


def lift_choice(s1: ContextSet, s2: ContextSet, rng: random.Random) -> ContextSet:
    """Return one of the two sets, picked uniformly by the rng."""
    _check_sets(s1, s2)
    return ops.choice([s1, s2], rng)


def lift_override(s1: ContextSet, s2: ContextSet) -> ContextSet:
    """Pairwise override over the cartesian product of the two sets.

    Override drops the left operand's bindings on the right operand's
    dimensions, so ``c1 (+) c2 == (c1 ^ dims(c2)) (+) c2``.  For each schema
    B of s2, the distinct remainders of s1 with B's dimensions hidden are
    joined with the rows over B, on no column.
    """
    _check_sets(s1, s2)
    out = {}
    for b_schema, b_rows in s2._groups.items():
        _join(out, _restrict(s1._groups, b_schema, False), {b_schema: b_rows}, ())
    return ContextSet._of_groups(out)


def lift_difference(s1: ContextSet, s2: ContextSet) -> ContextSet:
    """Pairwise difference over the cartesian product of the two sets.

    Only a binding on a dimension shared by the two sets can be removed, so
    ``c1 (-) c2 == c1 (-) (c2 ! S)`` with S the shared dimensions; each
    member of s1 meets each distinct projection of s2 onto S and loses the
    columns on which they agree.
    """
    _check_sets(s1, s2)
    out = {}
    _meet(out, s1._groups, _restrict(s2._groups, _shared_dims(s1, s2), True),
          False)
    return ContextSet._of_groups(out)


# --- relational operators -----------------------------------------------------

def join(s1: ContextSet, s2: ContextSet) -> ContextSet:
    """Natural join: unite pairs that agree on the shared dimensions, a
    hash join (see ``_join``), so the cost is |s1| + |s2| plus the pairs
    that agree."""
    _check_sets(s1, s2)
    out = {}
    _join(out, s1._groups, s2._groups, _shared_dims(s1, s2))
    return ContextSet._of_groups(out)


def set_intersection(s1: ContextSet, s2: ContextSet) -> ContextSet:
    """Pairwise conjunction over the cartesian product of the two sets.

    A common binding lies on a dimension shared by the two sets, so
    ``c1 & c2 == (c1 ! S) & (c2 ! S)`` with S the shared dimensions; each
    distinct projection of s1 onto S meets each of s2's and keeps the
    columns on which they agree.
    """
    _check_sets(s1, s2)
    shared, out = _shared_dims(s1, s2), {}
    _meet(out, _restrict(s1._groups, shared, True),
          _restrict(s2._groups, shared, True), True)
    return ContextSet._of_groups(out)


def set_union(s1: ContextSet, s2: ContextSet) -> ContextSet:
    """Pairwise union where each member keeps the other's unshared part.

    Each side is joined, on no column, with the distinct unshared
    remainders of the other, so the work is that of the output rather
    than of 2·|s1|·|s2| candidates.  A row of the second side, a member b
    of s2 with a remainder r of s1, repeats a row of the first exactly
    when r with b's shared part is a member of s1, so the second join is
    an anti-join against s1 (Codd's union of relations): each side's rows
    are distinct and the two sides' disjoint, so only keys are hashed, and
    whole rows only where a schema of s2 lies inside the shared dimensions.
    """
    _check_sets(s1, s2)
    shared, out = _shared_dims(s1, s2), {}
    _join(out, s1._groups, _restrict(s2._groups, shared, False), ())
    _join(out, s2._groups, _restrict(s1._groups, shared, False), (),
          (s1._groups, shared))
    return ContextSet._of_groups(out)


# --- box predicates -----------------------------------------------------------

_INT = (TagKind.INT, None)
_BOOL = (TagKind.BOOL, None)
_ARITHMETIC = ("+", "-", "*")
_LOGIC = ("and", "or")
_LINEAR = ("+", "-")


def _bind_predicate(node: StreamExpr, dims_by_name) -> tuple:
    """The predicate with each name that is not a dimension replaced by the
    one enum member of a dimension that it names, and the kind of the
    result: (TagKind, enumeration-or-None).  One walk binds and checks."""
    node, chain = left_chain(node, PREDICATE)
    if isinstance(node, Ref) and all(name != node.name for name in dims_by_name):
        hits = [d.symbols[node.name] for d in dims_by_name.values() if d.symbols
                and isinstance(node.name, str) and node.name in d.symbols]
        if not hits:
            raise IllTypedPredicate(f"unbound name {node.name!r} in box predicate")
        if len(hits) > 1:
            raise IllTypedPredicate(
                f"ambiguous enum symbol {node.name!r} in box predicate")
        node = Const(hits[0])
    if isinstance(node, Const):
        k = kind_of(node.value)
        kind = k, node.value.enumeration if k is TagKind.ENUM else None
    elif isinstance(node, Ref):
        dim = dims_by_name[node.name]
        if dim.tag_type is TagKind.ENUM:
            kind = TagKind.ENUM, dim.domain[0].enumeration
        else:
            kind = dim.tag_type, None
    elif isinstance(node, NotOp):
        operand, operand_kind = _bind_predicate(node.operand, dims_by_name)
        if operand_kind != _BOOL:
            raise IllTypedPredicate("'not' needs a boolean operand")
        node, kind = NotOp(operand), _BOOL
    else:
        raise IllTypedPredicate(f"not a predicate node: {node!r}")
    for n in chain:
        right, rk = _bind_predicate(n.right, dims_by_name)
        lk, kind = kind, _BOOL
        if n.op in _LOGIC:
            if lk != _BOOL or rk != _BOOL:
                raise IllTypedPredicate(f"{n.op!r} needs boolean operands")
        elif n.op in _ARITHMETIC:
            if lk != _INT or rk != _INT:
                raise IllTypedPredicate(f"arithmetic {n.op!r} needs integer operands")
            kind = _INT
        elif lk != rk:
            raise IllTypedPredicate(f"comparison {n.op!r} over mismatched kinds")
        node = Pointwise(n.op, node, right)
    return node, kind


def predicate_text(node: StreamExpr) -> str:
    """Render a predicate in the syntax the box-literal parser accepts."""
    return unparse(node, PREDICATE)


# --- boxes ----------------------------------------------------------------------

class Box(Record):
    """An intensional context set: ordered dimensions plus a tag predicate.

    The constructor is the one validator and analysis of a Box.  It takes
    any iterable of dimensions and raises ``IllTypedPredicate`` checking
    the dimensions, then, in one walk of the predicate, the names (an enum
    symbol is bound to its member, so every ``Ref`` left names a dimension)
    and the kinds: the predicate must be boolean, so evaluating it is total.

    It then plans the search, one level per dimension in Box order: level
    i binds ``dims[i]`` and tests the ``and`` conjuncts whose last
    dimension read is ``dims[i]`` (a conjunct that reads none is tested at
    level 0).  A level sweeps its dimension's domain, unless one of its
    conjuncts solves the dimension (see ``_solved_side``): then the
    domain's own tag equal to the solved value, if any, is its one
    candidate.  The plan is lowered to one loop nest (see ``_lower``),
    kept outside equality and ``repr``: ``_nest``, a compiled function,
    and ``_consts``, the predicate's constants and enum members, which it
    is called with.  Boxes of one shape (see ``_shape``) share one nest,
    which ``_PLANS`` keeps by shape, so a Box of a shape met before is
    bound and checked but neither planned nor lowered again; both caches
    of nests hold at most ``_NEST_LIMIT`` entries, the oldest dropped
    first.
    """

    __slots__ = ("dims", "predicate", "_nest", "_consts")
    _fields = ("dims", "predicate")

    def __init__(self, dims: Tuple[Dimension, ...], predicate: StreamExpr):
        if not isinstance(dims, Iterable):
            raise IllTypedPredicate(f"not a list of box dimensions: {dims!r}")
        dims = tuple(dims)
        if not dims:
            raise IllTypedPredicate("a box needs at least one dimension")
        for d in dims:
            if not isinstance(d, Dimension):
                raise IllTypedPredicate(f"not a box dimension: {d!r}")
        by_name = {d.name: d for d in dims}
        if len(by_name) != len(dims):
            raise IllTypedPredicate("box dimensions must be distinct")
        predicate, kind = _bind_predicate(predicate, by_name)
        if kind != _BOOL:
            raise IllTypedPredicate("box predicate must be boolean")
        level_of = {name: i for i, name in enumerate(by_name)}
        row = tuple(map(dims.index, schema_of(dims)))
        shape, consts, slots = _shape(predicate, level_of)
        nest = _PLANS.get((row, shape))
        if nest is None:
            nest = _kept(_PLANS, (row, shape),
                         _lower(level_of, row, *_plan(dims, level_of, predicate),
                                slots))
        put = object.__setattr__
        put(self, "dims", dims)
        put(self, "predicate", predicate)
        put(self, "_nest", nest)
        put(self, "_consts", consts)

    def __str__(self):
        names = ", ".join(d.name for d in self.dims)
        return f"Box[{names} | {predicate_text(self.predicate)}]"


box_make = Box


def _plan(dims, level_of, predicate) -> tuple:
    """A Box's plan (see ``Box``): each level's conjuncts, and the solution
    of each level's dimension, or None."""
    tests, stack = [[] for _ in dims], [predicate]
    while stack:  # the top-level ``and`` conjuncts, left to right
        conjunct = stack.pop()
        if isinstance(conjunct, Pointwise) and conjunct.op == "and":
            stack += (conjunct.right, conjunct.left)
        else:
            level = max(map(level_of.get, references(conjunct)), default=0)
            tests[level].append(conjunct)
    # every name in tests[i] other than dims[i] is bound before it
    solved = [
        next(filter(None, (_solved_side(t, d) for t in level_tests)), None)
        for d, level_tests in zip(dims, tests)]
    return tests, solved


def _shape(predicate, level_of) -> tuple:
    """The shape of a bound predicate, its constants, and the place of each
    ``Const`` node among them.  The shape lists the nodes in pre-order:
    an operator as its text, a ``Ref`` as its dimension's level, and a
    ``Const`` as -1 less its node's place among the constants, the values
    of the distinct nodes in the order first met.  With the Box's schema
    order the shape fixes the Box's plan and loop nest, which take the
    constants as arguments."""
    tokens, consts, slots = [], [], {}
    stack = [predicate]
    while stack:
        n = stack.pop()
        if isinstance(n, Ref):
            tokens.append(level_of[n.name])
        elif isinstance(n, Const):
            place = slots.get(id(n))
            if place is None:  # the node's first occurrence
                place = slots[id(n)] = len(consts)
                consts.append(n.value)
            tokens.append(-1 - place)
        elif isinstance(n, NotOp):
            tokens.append("not")
            stack.append(n.operand)
        else:
            tokens.append(n.op)
            stack += (n.right, n.left)
    return tuple(tokens), tuple(consts), slots


def _solved_side(conjunct: StreamExpr, d: Dimension) -> tuple:
    """For an ``==`` conjunct ``L == R`` that fixes dimension d, the pair
    ``(f, s)`` that the loop nest solves d with (see ``_lower``); else None.

    The conjunct fixes d when d occurs in it exactly once: as one side of
    the ``==``, or reached from the root through binary ``+`` and ``-``
    only, which the kind check admits only over an int dimension.  When d
    is a side, f is the other side and s is 0: d equals f.  Otherwise f is
    ``L - R``, which is ``s·d + c`` for a sign s of +1 or -1 and a c that
    does not read d, so d is ``-s · f`` evaluated with d bound to 0.
    Predicate arithmetic is over integers, so the solution is exact.  One
    pass over the conjunct finds d and its sign.
    """
    if not (isinstance(conjunct, Pointwise) and conjunct.op == "=="):
        return None
    # each node with its sign in L - R, or 0 below any node other than the
    # root, + and -
    sign = None
    stack = [(conjunct.right, -1), (conjunct.left, 1)]
    while stack:
        node, s = stack.pop()
        if isinstance(node, Ref):
            if node.name == d.name:
                if s == 0 or sign is not None:
                    return None
                sign = s
        elif isinstance(node, Pointwise):
            if s and node.op in _LINEAR:
                stack += ((node.right, -s if node.op == "-" else s), (node.left, s))
            else:
                stack += ((node.right, 0), (node.left, 0))
        elif isinstance(node, NotOp):
            stack.append((node.operand, 0))
    if sign is None:
        return None
    left, right = conjunct.left, conjunct.right
    if isinstance(left, Ref) and left.name == d.name:
        return right, 0
    if isinstance(right, Ref) and right.name == d.name:
        return left, 0
    return Pointwise("-", left, right), sign


# The compiled loop nests, by their source (``_NESTS``) and by the shape of
# their Box (``_PLANS``, see ``_shape``): at most ``_NEST_LIMIT`` each, the
# oldest dropped first.
_NESTS: dict = {}
_PLANS: dict = {}
_NEST_LIMIT = 256


def _kept(cache: dict, key, value):
    """``value``, kept in ``cache`` under ``key``, which drops its oldest
    entry when it holds ``_NEST_LIMIT``."""
    if len(cache) >= _NEST_LIMIT:
        del cache[next(iter(cache))]
    cache[key] = value
    return value


# The most levels one generated function binds: CPython refuses more than
# 20 statically nested blocks in a function, and a swept level is a ``for``.
_LEVELS_PER_FUNCTION = 16


def _lower(level_of, row, tests, solved, slots):
    """A Box's plan as one loop nest, compiled.  ``level_of`` maps each
    dimension name to its level, ``row`` lists the levels in schema order,
    ``tests[i]`` and ``solved[i]`` are level i's conjuncts and solution
    (see ``Box``), and ``slots`` gives each ``Const`` node its place among
    the constants (see ``_shape``).

    The source is that of ``_nest(out, L, C)``, where ``L[i]`` is level
    i's domain, the index of its tags and its pair builder, and ``C`` the
    constants.  Level i is ``for vi in di`` when swept; when solved, one
    ``xi.get`` of the solved value, which skips the level on a miss.  Each
    conjunct is an inline ``if`` that skips the candidate (``continue`` to
    the nearest swept level, or ``return``), then ``pi`` is the
    candidate's pair; the innermost level passes ``out`` the row of pairs
    in schema order.  The names in the source are positional and every
    constant and enum member is an argument, so no dimension name or tag
    is source text, and Boxes of one shape share one source: it keys the
    cache ``_NESTS``, and is compiled the first time it is met.

    Two limits of the host compiler are kept clear.  Each predicate is
    straight-line statements, one temporary per operator node below a
    conjunct's root, named by its depth in an operand stack (see
    ``value``), so a long chain nests no expression.  And each function
    binds at most ``_LEVELS_PER_FUNCTION`` levels, then calls a nested
    function that binds the next, with the tags and pairs bound so far.
    """
    def value(node, lines, pad) -> str:
        """Append to ``lines`` the statements that compute ``node`` and
        return the expression of its value, over the names of its
        operands; no recursion, so a chain of any length lowers."""
        operands, stack = [], [(node, False)]
        while stack:
            n, ready = stack.pop()
            if isinstance(n, Ref):
                operands.append(f"v{level_of[n.name]}")
            elif isinstance(n, Const):
                operands.append(f"c{slots[id(n)]}")
            elif not ready:
                stack.append((n, True))
                stack += ([(n.operand, False)] if isinstance(n, NotOp)
                          else [(n.right, False), (n.left, False)])
            else:  # the operators of a bound predicate are Python's own
                if isinstance(n, NotOp):
                    text = f"not {operands.pop()}"
                else:
                    right = operands.pop()
                    text = f"{operands.pop()} {n.op} {right}"
                if not stack:
                    return text
                lines.append(f"{pad}t{len(operands)} = {text}")
                operands.append(f"t{len(operands)}")
        return operands[0]

    n = len(level_of)
    functions = []
    for first in range(0, n, _LEVELS_PER_FUNCTION):
        last = first + _LEVELS_PER_FUNCTION
        bound = [f"{v}{i}" for v in "vp" for i in range(first)]
        lines = [f" def _n{first}({', '.join(bound)}):"] if first else []
        pad, skip = "  " if first else " ", "return"
        for i in range(first, min(last, n)):
            if solved[i] is None:
                lines.append(f"{pad}for v{i} in d{i}:")
                pad, skip = pad + " ", "continue"
            else:
                f, s = solved[i]
                if s:  # dims[i] is -s times f with dims[i] bound to 0
                    lines.append(f"{pad}v{i} = 0")
                found = value(f, lines, pad)
                lines += [f"{pad}k = x{i}.get({f'-({found})' if s == 1 else found})",
                          f"{pad}if k is None: {skip}",
                          f"{pad}v{i} = d{i}[k]"]
            for t in tests[i]:
                holds = value(t, lines, pad)
                lines.append(f"{pad}if not ({holds}): {skip}")
            lines.append(f"{pad}p{i} = m{i}(v{i})")
        if last < n:
            bound = [f"{v}{i}" for v in "vp" for i in range(last)]
            lines.append(f"{pad}_n{last}({', '.join(bound)})")
        else:
            lines.append(f"{pad}out(({''.join(f'p{i}, ' for i in row)}))")
        functions.append(lines)
    head = ["def _nest(out, L, C):",
            f" {''.join(f'(d{i}, x{i}, m{i}), ' for i in range(n))}= L"]
    if slots:
        head.append(f" {''.join(f'c{j}, ' for j in range(len(slots)))}= C")
    source = "\n".join(itertools.chain(head, *functions[1:], functions[0]))
    nest = _NESTS.get(source)
    if nest is None:
        namespace = {"__builtins__": {}}
        exec(source, namespace)
        nest = _kept(_NESTS, source, namespace["_nest"])
    return nest


def box_contains(box: Box, c: Context) -> bool:
    """Whether a simple context over exactly the box dimensions satisfies
    the predicate: whether the Box's loop nest, over each dimension's tag
    in c alone, finds a member."""
    if not isinstance(box, Box):
        raise KindMismatch(f"not a box: {box!r}")
    if not isinstance(c, Context):
        raise KindMismatch(f"not a context: {c!r}")
    if not c.is_simple():
        raise NonSimpleOperand("box membership is defined for simple contexts")
    if c.dims() != frozenset(box.dims):
        return False
    pairs = {m.dimension: m for m in c}
    found = []
    box._nest(found.append,
              [((m.tag,), {m.tag: 0}, {m.tag: m}.__getitem__)
               for m in map(pairs.__getitem__, box.dims)],
              box._consts)
    return bool(found)


# The tags of a bool dimension declared without a domain, and their index:
# a bool dimension has exactly these two.
_BOOL_TAGS = ((False, True), {False: 0, True: 1})


def _domain(d: Dimension) -> tuple:
    """The tags a Box tries for d, and their index: d's declared domain,
    or false and true for a bool dimension declared without one."""
    if d.domain is not None:
        return d.domain, d.index
    if d.tag_type is TagKind.BOOL:
        return _BOOL_TAGS
    raise UnboundedBox(f"dimension {d.name!r} has no finite domain to enumerate")


def box_enumerate(box: Box) -> ContextSet:
    """Materialize the box over the declared domains of its dimensions (a
    bool dimension declared without one ranges over false and true) by
    running the loop nest the Box was lowered to when it was built (see
    ``Box`` and ``_lower``): the dimensions are bound depth first, in Box
    order, and level i's conjuncts are tested as soon as ``dims[i]`` is
    bound, so a failing prefix prunes every extension of it; a solved
    dimension is not swept.  Each member is a row of its dimensions' own
    micro contexts (``Dimension.micro``), taken once per candidate bound,
    so a pair is built once, not once per member or per call.  The members
    are distinct, one per path through the nest, and go in unhashed.  The
    result equals filtering the full product of the domains.
    """
    if not isinstance(box, Box):
        raise KindMismatch(f"not a box: {box!r}")
    rows = []
    box._nest(rows.append, [(*_domain(d), d.micro) for d in box.dims],
              box._consts)
    return ContextSet._of_groups({schema_of(box.dims): tuple(rows)})
