"""Shared builders for the test suite."""

import itertools

from hypothesis import settings

from ctxcalc.model import (
    Context,
    ContextSet,
    DimensionRegistry,
    MicroContext,
    TagKind,
    make_context,
)
from ctxcalc import ops

# A deeper property run, ``pytest --hypothesis-profile=deep``: derandomized
# and with no example database, so a failure reproduces on any machine.
settings.register_profile(
    "deep", max_examples=1000, deadline=None, derandomize=True, database=None)


def int_registry(names="defgh"):
    reg = DimensionRegistry()
    for n in names:
        reg.register(n, TagKind.INT)
    return reg


def count_calls(monkeypatch, name):
    """Count the calls made to ops.<name> while the test runs."""
    calls = []
    real = getattr(ops, name)

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(ops, name, counted)
    return calls


def count_pair_work(monkeypatch):
    """A list that grows by one on each call of ``MicroContext.__hash__`` or
    ``MicroContext.__eq__`` from here on.

    A set operator's rows are tuples of micro contexts, so this counts the
    operator's work over rows: a row hashed into a set or dict (a key
    built, a bucket probed, a member kept) costs one call per pair in it,
    and a comparison of two rows one call per pair that is not the same
    object.  The count is deterministic, and a nested loop over the rows
    of two sets pays it once per pair of rows.
    """
    work = []
    real_hash, real_eq = MicroContext.__hash__, MicroContext.__eq__

    def counted_hash(self):
        work.append(1)
        return real_hash(self)

    def counted_eq(self, other):
        work.append(1)
        return real_eq(self, other)

    monkeypatch.setattr(MicroContext, "__hash__", counted_hash)
    monkeypatch.setattr(MicroContext, "__eq__", counted_eq)
    return work


def context_over(reg, pairs):
    return make_context(reg, pairs)


def undirected_range_oracle(c1, c2):
    """Independent enumeration of the undirected range over integer dims.

    All simple contexts on the merged dimension set whose shared-dimension
    tags lie in the per-dimension min/max envelope, each carrying the
    unshared remainders of both operands.
    """
    shared = c1.dims() & c2.dims()
    residue = ops.disjunction(ops.hiding(c1, shared), ops.hiding(c2, shared))
    dims = sorted(shared, key=lambda d: d.name)
    envelopes = []
    for d in dims:
        tags = [m.tag for m in c1 if m.dimension == d]
        tags += [m.tag for m in c2 if m.dimension == d]
        envelopes.append(range(min(tags), max(tags) + 1))
    members = set()
    for combo in itertools.product(*envelopes):
        micros = set(residue)
        micros.update(MicroContext(d, v) for d, v in zip(dims, combo))
        members.add(Context(micros))
    return ContextSet(members)
