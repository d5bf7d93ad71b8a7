"""The unary and binary context operators.

All functions are pure over immutable inputs; ``choice`` is the one
operator that consumes caller-supplied RNG state, which makes its
"non-deterministic" pick reproducible under a fixed seed.  Each operator
checks the kinds of its arguments once per call and raises
``KindMismatch`` for a wrong one; the set layer shares ``check_dims``.
The ranges build their context sets as rows (see ``model``), distinct by
construction, so no row is hashed.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from .errors import (
    EmptyChoice,
    KindMismatch,
    NonSimpleOperand,
    NonSimpleResidue,
    UnorderedRangeDimension,
)
from .model import (
    Context,
    ContextSet,
    Dimension,
    TagKind,
    schema_of,
)


def _check_contexts(*operands):
    """Raise ``KindMismatch`` unless every operand is a ``Context``."""
    for c in operands:
        if not isinstance(c, Context):
            raise KindMismatch(f"not a context: {type(c).__name__}")


def check_dims(dims):
    """Raise ``KindMismatch`` unless ``dims`` is a set of dimensions."""
    if not (isinstance(dims, (set, frozenset))
            and all(map(isinstance, dims, itertools.repeat(Dimension)))):
        raise KindMismatch(f"not a set of dimensions: {dims!r}")


def check_rng(rng):
    """Raise ``KindMismatch`` unless ``rng`` is a ``random.Random``."""
    if not isinstance(rng, random.Random):
        raise KindMismatch(f"not a random.Random: {type(rng).__name__}")


def override(c1: Context, c2: Context) -> Context:
    """Conflict-free union: on shared dimensions the right operand wins.

    The right operand must be simple, the left may be any context.
    """
    _check_contexts(c1, c2)
    if not c2.is_simple():
        raise NonSimpleOperand("override needs a simple right operand")
    taken = c2.dims()
    kept = (m for m in c1 if m.dimension not in taken)
    return Context._of_micros(itertools.chain(kept, c2))


def difference(c1: Context, c2: Context) -> Context:
    """Set difference of the micro-context sets."""
    _check_contexts(c1, c2)
    return Context._of_micros(c1 - c2)


def conjunction(c1: Context, c2: Context) -> Context:
    """Set intersection of the micro-context sets."""
    _check_contexts(c1, c2)
    return Context._of_micros(c1 & c2)


def disjunction(c1: Context, c2: Context) -> Context:
    """Set union of the micro-context sets; the result may be non-simple."""
    _check_contexts(c1, c2)
    return Context._of_micros(c1 | c2)


def choice(candidates: Sequence[Context], rng: random.Random):
    """Pick one candidate uniformly; deterministic for a seeded rng."""
    if not isinstance(candidates, (list, tuple)):
        raise KindMismatch(
            f"choice candidates are not a list or tuple: "
            f"{type(candidates).__name__}"
        )
    check_rng(rng)
    if not candidates:
        raise EmptyChoice("choice over no candidates")
    return candidates[rng.randrange(len(candidates))]


def projection(c: Context, dims: frozenset) -> Context:
    """Keep only the micro contexts whose dimension lies in ``dims``."""
    _check_contexts(c)
    check_dims(dims)
    return _projection(c, dims)


def hiding(c: Context, dims: frozenset) -> Context:
    """Drop every micro context whose dimension lies in ``dims``."""
    _check_contexts(c)
    check_dims(dims)
    return _hiding(c, dims)


# The unchecked kernels of projection and hiding, for the callers here
# whose arguments are already checked.
def _projection(c: Context, dims) -> Context:
    return Context._of_micros(m for m in c if m.dimension in dims)


def _hiding(c: Context, dims) -> Context:
    return Context._of_micros(m for m in c if m.dimension not in dims)


def substitution(c: Context, s: Context) -> Context:
    """Replace c's bindings on s's dimensions with s's bindings on c's.

    Computed as hiding(c, dims(s)) united with projection(s, dims(c));
    the replacement context must be simple.
    """
    _check_contexts(c, s)
    if not s.is_simple():
        raise NonSimpleOperand("substitution needs a simple right operand")
    return Context._of_micros(_hiding(c, s.dims()) | _projection(s, c.dims()))


def _check_steppable(dim: Dimension):
    # Ranges need an enumerable order: unit steps for plain integers,
    # declaration order for declared domains.  Strings and booleans are
    # ordered but not steppable.
    if dim.tag_type not in (TagKind.INT, TagKind.ENUM):
        raise UnorderedRangeDimension(
            f"range over {dim.tag_type.value} dimension {dim.name!r}"
        )


def _range(c1: Context, c2: Context, directed: bool) -> ContextSet:
    _check_contexts(c1, c2)
    if directed and not c2.is_simple():
        raise NonSimpleOperand("directed range needs a simple right operand")
    shared = c1.dims() & c2.dims()

    # Along a shared dimension every per-pair subrange lies inside the
    # envelope of both operands' tags, and the pair of the two extremes,
    # or two pairs through a tag of the other operand, covers it.  A
    # directed pair counts when its left tag is below its right one; the
    # left operand's least tag makes the widest such pair, which holds
    # every other.  So each dimension sweeps one interval, over the left
    # operand's dimension object and its domain.  Both tags passed the
    # dimension's kind check, so < orders them.  Each (dimension, tag)
    # pair is the dimension's one micro context for it
    # (``Dimension._sweep``), shared by every member and every call.
    # Dimensions are checked in name order, then kind order, so which
    # unsteppable dimension a range reports does not hang on the hash
    # seed; only the bounds are kept, and no pair is swept before every
    # dimension and the residue pass their checks.
    bounds = {}
    for dim in schema_of(d for d in c1.dims() if d in shared):
        _check_steppable(dim)
        left = [m.tag for m in c1 if m.dimension == dim]
        right = [m.tag for m in c2 if m.dimension == dim]
        lo = min(left) if directed else min(left + right)
        hi = right[0] if directed else max(left + right)
        if not directed or lo < hi:
            bounds[dim] = lo, hi

    residue = Context._of_micros(_hiding(c1, shared) | _hiding(c2, shared))
    if not residue.is_simple():
        raise NonSimpleResidue(
            "unshared remainders of the range operands are not simple"
        )

    # The members are the product of one column per dimension, in schema
    # order: a residue pair rides along as a column of one.  Each column's
    # tags are distinct, so its rows are, and they go in unhashed.
    columns = {dim: dim._sweep(lo, hi) for dim, (lo, hi) in bounds.items()}
    columns.update((m.dimension, (m,)) for m in residue)
    schema = schema_of(columns)
    rows = tuple(itertools.product(*map(columns.__getitem__, schema)))
    return ContextSet._of_groups({schema: rows})


def undirected_range(c1: Context, c2: Context) -> ContextSet:
    """All simple contexts between c1 and c2.

    Each shared dimension sweeps the inclusive envelope of both operands'
    tags on it, from the least to the greatest; unshared micro contexts
    ride along unchanged.
    """
    return _range(c1, c2, directed=False)


def directed_range(c1: Context, c2: Context) -> ContextSet:
    """Like undirected_range, but each shared dimension sweeps from the
    left operand's least tag on it up to the right operand's tag on it;
    the dimension is dropped from the result when that tag is not above
    the least one.  The right operand must be simple.
    """
    return _range(c1, c2, directed=True)
