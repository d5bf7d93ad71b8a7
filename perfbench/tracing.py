"""Span tracer for the traced benchmark run.

The tracer wraps the package's functions at the names their callers look
up, so nothing under ``src/`` changes: ``cli.tokenize`` and ``cli.parse_expr``
are the lexer and parser as the REPL reaches them, ``evaluator.ops`` is
replaced by a namespace of wrapped context operators, the set operators
are wrapped in the evaluator's globals, and the ``streams`` entry points in
that module.  Set operators call context operators directly, so that time
stays in the ``sets`` layer.

Each wrapped call records a span (command, parent span, layer, start,
end); spans stay in memory and are written out when the pass ends.  Counts
are taken at the same boundaries.  The ``model`` layer gets counts only,
through wrapped constructors, to keep the overhead low.  Bookkeeping done
after a call returns (counting tokens or nodes) is recorded as a ``trace``
span, so that it is not charged to the caller's self time.
"""

from __future__ import annotations

import json
import math
import time
import types
from collections import defaultdict

LAYERS = (
    "cli", "lexer", "parser", "evaluator", "ops", "sets",
    "streams.parse", "streams.define", "streams.eval", "trace",
)

_OPS = (
    "projection", "hiding", "substitution", "choice", "conjunction",
    "disjunction", "override", "difference", "undirected_range",
    "directed_range",
)
_SETS = (
    "join", "set_intersection", "set_union", "lift_choice", "lift_difference",
    "lift_hiding", "lift_override", "lift_projection", "lift_substitution",
    "box_make",
)
_FILTERS = ("Wvr", "Upon", "Asa")


def _walk(node):
    """Every syntax-tree object reachable from node, in pre-order."""
    stack = [node]
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            stack.extend(reversed(x))
            continue
        fields = getattr(x, "__dataclass_fields__", None)
        if fields is not None:
            yield x
            stack.extend(getattr(x, f) for f in reversed(list(fields)))


def count_nodes(node) -> int:
    """Number of syntax-tree objects reachable from node."""
    return sum(1 for _ in _walk(node))


def filter_shape(node):
    """The node types of a stream expression in pre-order, or None when it
    has no filter operator.  Queries of one shape differ only in constants
    and stream names."""
    shape = [type(x).__name__ for x in _walk(node)]
    return " ".join(shape) if any(n in _FILTERS for n in shape) else None


def self_times(spans) -> list:
    """Self time of each span: its duration minus the part of it covered by
    its child spans.  A span is (cmd, parent index or -1, layer, start, end).
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            children[s[1]].append((s[3], s[4]))
    out = []
    for i, (_, _, _, start, end) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_self_times(spans) -> tuple:
    """Per-layer self time summed over all spans, and the largest gap
    between a command's root span and the sum of its spans' self times."""
    selfs = self_times(spans)
    per_layer = defaultdict(float)
    per_cmd = defaultdict(float)
    roots = {}
    for s, t in zip(spans, selfs):
        per_layer[s[2]] += t
        per_cmd[s[0]] += t
        if s[1] < 0:
            roots[s[0]] = roots.get(s[0], 0.0) + s[4] - s[3]
    gap = max((abs(per_cmd[c] - roots.get(c, 0.0)) for c in per_cmd), default=0.0)
    return dict(per_layer), gap


def loglog_slope(samples) -> float:
    """Least-squares exponent of time against size, fitted within groups:
    samples are (group, size, seconds) and each group keeps its own
    constant factor.  0.0 without enough data."""
    groups = defaultdict(list)
    for group, n, t in samples:
        if n > 0 and t > 0:
            groups[group].append((math.log(n), math.log(t)))
    sxy = sxx = 0.0
    for pts in groups.values():
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx if sxx > 0 else 0.0


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.cmd = 0
        self.counts = defaultdict(float)
        self.samples = defaultdict(list)

    def span(self, layer, fn, after=None):
        """Wrap fn so each call records a span; after(args, result, seconds)
        runs once the span has closed."""
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        calls = layer + ".calls"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [self.cmd, parent, layer, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            counts[calls] += 1
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if after is not None:
                after(args, result, span[4] - span[3])
                spans.append([self.cmd, parent, "trace", span[4], clock()])
            return result

        return wrapper

    def command_runner(self, cli):
        """cli.run_command as the root span of each command."""
        return self.span("cli", cli.run_command)

    def _count_constructor(self, cls, key):
        original, counts = cls.__init__, self.counts

        def __init__(obj, *args, **kwargs):
            counts[key] += 1
            original(obj, *args, **kwargs)

        cls.__init__ = __init__

    def install(self):
        from ctxcalc import cli, evaluator, lexer, model, ops, parser, streams

        c, samples = self.counts, self.samples

        def after_tokenize(args, tokens, dt):
            c["lexer.tokens"] += len(tokens)

        def after_parse(args, node, dt):
            c["parser.nodes"] += count_nodes(node)

        def after_stream_parse(args, result, dt):
            c["streams.parse.nodes"] += count_nodes(result)

        def after_define(args, eqs, dt):
            c["streams.define.equations_checked"] += len(eqs)

        def after_eval_prefix(args, values, dt):
            c["streams.eval.positions"] += len(values)
            shape = filter_shape(args[0])
            if shape is not None:
                samples["streams.eval.filter"].append((shape, len(values), dt))

        def after_range(args, out, dt):
            c["ops.range.members_out"] += len(out)

        def after_join(args, out, dt):
            c["sets.join.pairs_in"] += len(args[0]) * len(args[1])
            c["sets.join.members_out"] += len(out)
            samples["sets.join"].append(("", len(args[0]) + len(args[1]) + len(out), dt))

        def after_union(args, out, dt):
            samples["sets.union"].append(("", len(args[0]) + len(args[1]) + len(out), dt))

        def after_box(args, out, dt):
            c["evaluator.box_enumerations"] += 1
            c["sets.box.candidates"] += math.prod(len(d.domain) for d in args[0].dims)
            c["sets.box.members_out"] += len(out)

        tokenize = self.span("lexer", lexer.tokenize, after_tokenize)
        cli.tokenize = parser.tokenize = streams.tokenize = tokenize
        cli.parse_expr = self.span("parser", parser.parse_expr, after_parse)
        cli.evaluate = self.span("evaluator", evaluator.evaluate)

        ranges = ("undirected_range", "directed_range")
        evaluator.ops = types.SimpleNamespace(**{
            name: self.span("ops", getattr(ops, name),
                            after_range if name in ranges else None)
            for name in _OPS
        })
        set_after = {"join": after_join, "set_union": after_union}
        for name in _SETS:
            setattr(evaluator, name,
                    self.span("sets", getattr(evaluator, name), set_after.get(name)))
        evaluator.box_enumerate = self.span("sets", evaluator.box_enumerate, after_box)

        for name in ("parse_stream_expr", "parse_stream_expr_prefix"):
            setattr(streams, name,
                    self.span("streams.parse", getattr(streams, name), after_stream_parse))
        streams.define_streams = self.span(
            "streams.define", streams.define_streams, after_define)
        streams.eval_prefix = self.span("streams.eval", streams.eval_prefix, after_eval_prefix)

        value_record, clock = cli._value_record, time.perf_counter

        def timed_value_record(value):
            t0 = clock()
            try:
                return value_record(value)
            finally:
                c["model.render_s"] += clock() - t0

        cli._value_record = timed_value_record
        self._count_constructor(model.Context, "model.contexts_built")
        self._count_constructor(model.MicroContext, "model.micro_built")
        self._count_constructor(model.ContextSet, "model.sets_built")

    def report(self, session, spans_path=None) -> dict:
        """Per-layer self times, counts and size samples of the pass."""
        if spans_path:
            with open(spans_path, "w", encoding="utf-8") as fh:
                for i, (cmd, parent, layer, start, end) in enumerate(self.spans):
                    fh.write(json.dumps([cmd, i, parent, layer, start, end]) + "\n")
        per_layer, gap = layer_self_times(self.spans)
        wh = session.warehouse
        counts = dict(self.counts)
        counts["streams.warehouse.hits"] = wh.hits
        counts["streams.warehouse.misses"] = wh.misses
        counts["streams.warehouse.size"] = len(wh)
        return {
            "self_s": per_layer,
            "counts": counts,
            "samples": {k: list(v) for k, v in self.samples.items()},
            "spans": len(self.spans),
            "self_sum_gap_s": gap,
        }
