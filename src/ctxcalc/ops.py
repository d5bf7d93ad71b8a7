"""The unary and binary context operators.

All functions are pure over immutable inputs; ``choice`` is the one
operator that consumes caller-supplied RNG state, which makes its
"non-deterministic" pick reproducible under a fixed seed.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from .errors import (
    EmptyChoice,
    NonSimpleOperand,
    NonSimpleResidue,
    UnorderedRangeDimension,
)
from .model import (
    Context,
    ContextSet,
    Dimension,
    MicroContext,
    TagKind,
    tag_lt,
)


def override(c1: Context, c2: Context) -> Context:
    """Conflict-free union: on shared dimensions the right operand wins.

    The right operand must be simple, the left may be any context.
    """
    if not c2.is_simple():
        raise NonSimpleOperand("override needs a simple right operand")
    taken = c2.dims()
    kept = (m for m in c1 if m.dimension not in taken)
    return Context(itertools.chain(kept, c2))


def difference(c1: Context, c2: Context) -> Context:
    """Set difference of the micro-context sets."""
    return Context(c1.entries - c2.entries)


def conjunction(c1: Context, c2: Context) -> Context:
    """Set intersection of the micro-context sets."""
    return Context(c1.entries & c2.entries)


def disjunction(c1: Context, c2: Context) -> Context:
    """Set union of the micro-context sets; the result may be non-simple."""
    return Context(c1.entries | c2.entries)


def choice(candidates: Sequence[Context], rng: random.Random):
    """Pick one candidate uniformly; deterministic for a seeded rng."""
    if not candidates:
        raise EmptyChoice("choice over no candidates")
    return candidates[rng.randrange(len(candidates))]


def projection(c: Context, dims: frozenset) -> Context:
    """Keep only the micro contexts whose dimension lies in ``dims``."""
    return Context(m for m in c if m.dimension in dims)


def hiding(c: Context, dims: frozenset) -> Context:
    """Drop every micro context whose dimension lies in ``dims``."""
    return Context(m for m in c if m.dimension not in dims)


def substitution(c: Context, s: Context) -> Context:
    """Replace c's bindings on s's dimensions with s's bindings on c's.

    Computed as hiding(c, dims(s)) united with projection(s, dims(c));
    the replacement context must be simple.
    """
    if not s.is_simple():
        raise NonSimpleOperand("substitution needs a simple right operand")
    return disjunction(hiding(c, s.dims()), projection(s, c.dims()))


def _check_steppable(dim: Dimension):
    # Ranges need an enumerable order: unit steps for plain integers,
    # declaration order for declared domains.  Strings and booleans are
    # ordered but not steppable.
    if dim.tag_type not in (TagKind.INT, TagKind.ENUM):
        raise UnorderedRangeDimension(
            f"range over {dim.tag_type.value} dimension {dim.name!r}"
        )


def _subrange(dim: Dimension, lo, hi):
    """Inclusive tag subrange lo..hi along one dimension."""
    if dim.domain is not None:
        return [
            v for v in dim.domain if not tag_lt(v, lo) and not tag_lt(hi, v)
        ]
    return list(range(lo, hi + 1))


def _range(c1: Context, c2: Context, directed: bool) -> ContextSet:
    shared = c1.dims() & c2.dims()
    for dim in shared:
        _check_steppable(dim)

    # Per shared dimension, the union of the cross-pair subranges.  A
    # directed pair whose tags are not strictly increasing is ignored but
    # still marks its dimension as processed (empty value set).
    per_dim: dict = {}
    for m1 in c1:
        for m2 in c2:
            if m1.dimension != m2.dimension:
                continue
            values = per_dim.setdefault(m1.dimension, set())
            a, b = m1.tag, m2.tag
            if directed:
                if not tag_lt(a, b):
                    continue
                lo, hi = a, b
            else:
                lo, hi = (b, a) if tag_lt(b, a) else (a, b)
            values.update(_subrange(m1.dimension, lo, hi))

    residue = disjunction(hiding(c1, shared), hiding(c2, shared))
    if not residue.is_simple():
        raise NonSimpleResidue(
            "unshared remainders of the range operands are not simple"
        )

    ranged = sorted(
        (d for d in per_dim if per_dim[d]), key=lambda d: d.name
    )
    value_lists = [
        sorted(per_dim[d]) for d in ranged
    ]
    members = []
    for combo in itertools.product(*value_lists):
        micros = set(residue.entries)
        micros.update(MicroContext(d, v) for d, v in zip(ranged, combo))
        members.append(Context(micros))
    return ContextSet(members)


def undirected_range(c1: Context, c2: Context) -> ContextSet:
    """All simple contexts between c1 and c2.

    Shared dimensions sweep the inclusive min..max envelope of every cross
    pair; unshared micro contexts ride along unchanged.
    """
    return _range(c1, c2, directed=False)


def directed_range(c1: Context, c2: Context) -> ContextSet:
    """Like undirected_range but a pair only counts when its left tag is
    strictly below its right tag; other pairs are ignored and their
    dimension is dropped from the result entirely.
    """
    if not c2.is_simple():
        raise NonSimpleOperand("directed range needs a simple right operand")
    return _range(c1, c2, directed=True)
