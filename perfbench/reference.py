"""Independent reference semantics for the benchmark's generated commands.

Nothing here imports ``ctxcalc``.  Contexts are frozensets of
``(dimension, tag)`` pairs, context sets are frozensets of contexts, and
the operators are written over plain Python sets from their definitions.
Stream programs are simulated over Python lists, one list per named
stream, filled in increasing time order.  The choice operator is checked
against a mirrored ``random.Random`` seeded the way the REPL seeds its own.

Expressions reach this module as small tuple trees built by the workload
generator, which also renders them to command text; the reference never
parses text.  Each ``RefSession`` method returns the expected outcome of one
command, either ``("ok", output_text)`` or ``("err", error_class_name)``,
and changes the session state only when the command succeeds, as the REPL
does.
"""

from __future__ import annotations

import bisect
import random


class RefError(Exception):
    """The expected outcome is a typed error with this class name."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


# --- values -------------------------------------------------------------------


class Ctx(frozenset):
    """A context: a frozenset of (dimension name, tag) pairs."""


class CSet(frozenset):
    """A context set: a frozenset of simple contexts."""


class DimNames(frozenset):
    """A dimension set: a frozenset of dimension names."""


class BoxVal:
    """An intensional set: dimension names plus a predicate over a dict."""

    def __init__(self, dims, pred):
        self.dims = tuple(dims)
        self.pred = pred


def dims_of(c) -> set:
    return {d for d, _ in c}


def is_simple(c) -> bool:
    return len(dims_of(c)) == len(c)


def make_set(members) -> CSet:
    out = CSet(members)
    for c in out:
        if not is_simple(c):
            raise RefError("NonSimpleOperand")
    return out


# --- context operators --------------------------------------------------------


def projection(c, names) -> Ctx:
    return Ctx(p for p in c if p[0] in names)


def hiding(c, names) -> Ctx:
    return Ctx(p for p in c if p[0] not in names)


def override(c1, c2) -> Ctx:
    if not is_simple(c2):
        raise RefError("NonSimpleOperand")
    return Ctx(hiding(c1, dims_of(c2)) | c2)


def substitution(c, s) -> Ctx:
    if not is_simple(s):
        raise RefError("NonSimpleOperand")
    return Ctx(hiding(c, dims_of(s)) | projection(s, dims_of(c)))


def tag_range(domain, lo, hi) -> list:
    """Tags lo..hi inclusive; only declared tags when there is a domain."""
    if domain is None:
        return list(range(lo, hi + 1))
    return domain[bisect.bisect_left(domain, lo):bisect.bisect_right(domain, hi)]


def context_range(c1, c2, directed: bool, domains) -> CSet:
    if directed and not is_simple(c2):
        raise RefError("NonSimpleOperand")
    shared = dims_of(c1) & dims_of(c2)
    values = {}
    for d1, a in c1:
        for d2, b in c2:
            if d1 != d2:
                continue
            bucket = values.setdefault(d1, set())
            if directed and not a < b:
                continue
            bucket.update(tag_range(domains[d1], min(a, b), max(a, b)))
    residue = Ctx(hiding(c1, shared) | hiding(c2, shared))
    if not is_simple(residue):
        raise RefError("NonSimpleResidue")
    # A dimension whose directed pairs were all ignored is dropped.
    members = [residue]
    for d, tags in values.items():
        if tags:
            members = [Ctx(m | {(d, t)}) for m in members for t in tags]
    return CSet(members)


def compare(op, c1, c2) -> bool:
    if op == "==":
        return c1 == c2
    if op == "<<=":
        return c1 <= c2
    return c1 >= c2


# --- context-set operators ----------------------------------------------------


def set_dims(s) -> set:
    out = set()
    for c in s:
        out |= dims_of(c)
    return out


def join(s1, s2) -> CSet:
    """Natural join as a hash join on the projection to the shared dims."""
    shared = set_dims(s1) & set_dims(s2)
    buckets = {}
    for b in s2:
        buckets.setdefault(projection(b, shared), []).append(b)
    return CSet(
        Ctx(a | b) for a in s1 for b in buckets.get(projection(a, shared), ())
    )


def set_union(s1, s2) -> CSet:
    """Each member of one side extended by the unshared part of the other."""
    shared = set_dims(s1) & set_dims(s2)
    rest1 = {hiding(a, shared) for a in s1}
    rest2 = {hiding(b, shared) for b in s2}
    out = {Ctx(a | r) for a in s1 for r in rest2}
    out.update(Ctx(b | r) for b in s2 for r in rest1)
    return CSet(out)


def box_members(box: BoxVal, domains) -> CSet:
    rows = [{}]
    for d in box.dims:
        rows = [dict(r, **{d: t}) for r in rows for t in domains[d]]
    return CSet(Ctx(r.items()) for r in rows if box.pred(r))


# --- rendering ----------------------------------------------------------------


def render_context(c) -> str:
    """Contexts here carry integer tags only."""
    return "{" + ", ".join(f"({d}, {t})" for d, t in sorted(c)) + "}"


def render_value(v) -> str:
    if isinstance(v, Ctx):
        return render_context(v)
    if isinstance(v, CSet):
        return "{" + ", ".join(sorted(render_context(c) for c in v)) + "}"
    if isinstance(v, DimNames):
        return "{" + ", ".join(sorted(v)) + "}"
    if isinstance(v, bool):
        return "true" if v else "false"
    raise TypeError(f"no rendering for {v!r}")


def render_stream_value(v) -> str:
    if v is None:
        return "nil"
    if isinstance(v, bool):
        return "1" if v else "0"
    return str(v)


# --- context expressions ------------------------------------------------------
#
# ("ctx", ((dim, tag), ...))   ("var", name)        ("dims", (name, ...))
# ("set", (ctx node, ...))     ("pair", dim, tag)   ("box", dims, text, pred)
# ("bin", op, left, right)


def _as_set(v, domains):
    if isinstance(v, CSet):
        return v
    if isinstance(v, BoxVal):
        return box_members(v, domains)
    return None


class RefSession:
    """Reference model of one REPL session."""

    def __init__(self, seed: int = 0):
        self.domains = {}
        self.bindings = {}
        self.rng = random.Random(seed)
        self.streams = StreamRef()

    # -- commands --------------------------------------------------------------

    def dim(self, name, domain=None):
        self.domains[name] = tuple(domain) if domain is not None else None
        suffix = "" if domain is None else " " + " ".join(map(str, domain))
        return ("ok", f"dim {name} : int{suffix}")

    def eval(self, node):
        try:
            return ("ok", render_value(self.value(node)))
        except RefError as exc:
            return ("err", exc.name)

    def let(self, name, node):
        try:
            v = self.value(node)
        except RefError as exc:
            return ("err", exc.name)
        self.bindings[name] = v
        return ("ok", f"{name} = {render_value(v)}")

    def seed(self, n):
        self.rng.seed(n)
        return ("ok", f"seed {n}")

    def stream(self, name, node, refs):
        if name in self.streams.eqs:
            return ("err", "DuplicateName")
        if any(r != name and r not in self.streams.eqs for r in refs):
            return ("err", "UnresolvedReference")
        self.streams.eqs[name] = node
        return ("ok", f"stream {name}")

    def show(self, node, count, refs):
        if any(r not in self.streams.eqs for r in refs):
            return ("err", "UnresolvedReference")
        try:
            values = [self.streams.ev(node, t) for t in range(count)]
        except RefError as exc:
            return ("err", exc.name)
        return ("ok", " ".join(map(render_stream_value, values)))

    # -- expression values -------------------------------------------------------

    def _context(self, pairs):
        out = []
        for d, t in pairs:
            if d not in self.domains:
                raise RefError("UnknownDimension")
            dom = self.domains[d]
            if dom is not None and t not in dom:
                raise RefError("TagOutsideDomain")
            out.append((d, t))
        return Ctx(out)

    def value(self, node):
        kind = node[0]
        if kind == "ctx":
            return self._context(node[1])
        if kind == "var":
            if node[1] not in self.bindings:
                raise RefError("UnboundVariable")
            return self.bindings[node[1]]
        if kind == "dims":
            for d in node[1]:
                if d not in self.domains:
                    raise RefError("UnknownDimension")
            return DimNames(node[1])
        if kind == "set":
            return make_set(self._context(item[1]) for item in node[1])
        if kind == "pair":
            return self._context([(node[1], node[2])])
        if kind == "box":
            for d in node[1]:
                if d not in self.domains:
                    raise RefError("UnknownDimension")
            return BoxVal(node[1], node[3])
        if kind == "bin":
            left = self.value(node[2])
            right = self.value(node[3])
            return self.apply(node[1], left, right)
        raise TypeError(f"not an expression node: {node!r}")

    def apply(self, op, left, right):
        doms = self.domains
        if op in ("!", "^"):
            if not isinstance(right, DimNames):
                raise RefError("KindMismatch")
            fn = projection if op == "!" else hiding
            if isinstance(left, Ctx):
                return fn(left, right)
            ls = _as_set(left, doms)
            if ls is None:
                raise RefError("KindMismatch")
            return make_set(fn(c, right) for c in ls)
        if op == "/":
            if isinstance(left, Ctx) and isinstance(right, Ctx):
                return substitution(left, right)
            ls = _as_set(left, doms)
            if ls is None or not (isinstance(right, Ctx) and len(right) == 1):
                raise RefError("KindMismatch")
            return make_set(substitution(c, right) for c in ls)
        if op == "|":
            if isinstance(left, Ctx) and isinstance(right, Ctx):
                return (left, right)[self.rng.randrange(2)]
            ls, rs = _as_set(left, doms), _as_set(right, doms)
            if ls is None or rs is None:
                raise RefError("KindMismatch")
            return (ls, rs)[self.rng.randrange(2)]
        if op in ("&", "%"):
            if not (isinstance(left, Ctx) and isinstance(right, Ctx)):
                raise RefError("KindMismatch")
            return Ctx(left & right) if op == "&" else Ctx(left | right)
        if op in ("(+)", "(-)"):
            if isinstance(left, Ctx) and isinstance(right, Ctx):
                return override(left, right) if op == "(+)" else Ctx(left - right)
            ls, rs = _as_set(left, doms), _as_set(right, doms)
            if ls is None or rs is None:
                raise RefError("KindMismatch")
            if op == "(+)":
                return make_set(override(a, b) for a in ls for b in rs)
            return make_set(Ctx(a - b) for a in ls for b in rs)
        if op in ("<=>", "=>"):
            if not (isinstance(left, Ctx) and isinstance(right, Ctx)):
                raise RefError("KindMismatch")
            return context_range(left, right, op == "=>", doms)
        if op in ("><", "[&]", "[+]"):
            ls, rs = _as_set(left, doms), _as_set(right, doms)
            if ls is None or rs is None:
                raise RefError("KindMismatch")
            if op == "><":
                return join(ls, rs)
            if op == "[&]":
                return CSet(Ctx(a & b) for a in ls for b in rs)
            return set_union(ls, rs)
        if op in ("==", "<<=", ">>="):
            if not (isinstance(left, Ctx) and isinstance(right, Ctx)):
                raise RefError("KindMismatch")
            return compare(op, left, right)
        raise RefError("KindMismatch")


# --- streams ------------------------------------------------------------------
#
# ("const", v)  ("lit", (v, ...))  ("ref", name)  ("time",)  ("pw", op, l, r)
# ("not", e)  ("if", c, a, b)  ("first", e)  ("next", e)  ("prev", e)
# ("fby", l, r)  ("wvr", l, r)  ("asa", l, r)  ("upon", l, r)  ("at", e, index)

_POINTWISE = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "and": lambda a, b: bool(a) and bool(b),
    "or": lambda a, b: bool(a) or bool(b),
}

# A guard scanned this far without a true or nil value would exhaust the
# program's demand budget; the generator must never produce one.
SCAN_LIMIT = 200_000


class StreamRef:
    """Stream equations evaluated over Python lists along the time axis.

    Named streams are filled position by position in increasing time, so a
    self-reference under ``fby`` reads an entry already in the list.  A
    filter's guard is scanned once per distinct guard expression and its
    true positions kept, since every expression is pure.
    """

    def __init__(self):
        self.eqs = {}
        self.values = {}
        self.scans = {}

    def get(self, name, t):
        vals = self.values.setdefault(name, [])
        eq = self.eqs[name]
        while len(vals) <= t:
            vals.append(self.ev(eq, len(vals)))
        return vals[t]

    def _scan(self, guard, enough):
        """Scan a guard forward until enough(trues, pos) or a nil value."""
        state = self.scans.get(guard)
        if state is None:
            state = self.scans[guard] = [[], 0, None]
        trues = state[0]
        while state[2] is None and not enough(trues, state[1]):
            pos = state[1]
            if pos > SCAN_LIMIT:
                raise RuntimeError(f"guard {guard!r} never holds")
            g = self.ev(guard, pos)
            if g is None:
                state[2] = pos
            elif g:
                trues.append(pos)
            state[1] = pos + 1
        return trues, state[2]

    def _wvr(self, left, guard, t):
        trues, _ = self._scan(guard, lambda tr, pos: len(tr) > t)
        return self.ev(left, trues[t]) if len(trues) > t else None

    def _upon(self, left, guard, t):
        trues, nil = self._scan(guard, lambda tr, pos: pos >= t)
        if nil is not None and nil < t:
            return None
        return self.ev(left, bisect.bisect_left(trues, t))

    def ev(self, node, t):
        kind = node[0]
        if kind == "const":
            return node[1]
        if kind == "lit":
            vals = node[1]
            return vals[t] if t < len(vals) else None
        if kind == "ref":
            return self.get(node[1], t)
        if kind == "time":
            return t
        if kind == "pw":
            a = self.ev(node[2], t)
            b = self.ev(node[3], t)
            if a is None or b is None:
                return None
            return _POINTWISE[node[1]](a, b)
        if kind == "not":
            a = self.ev(node[1], t)
            return None if a is None else not a
        if kind == "if":
            c = self.ev(node[1], t)
            if c is None:
                return None
            return self.ev(node[2] if c else node[3], t)
        if kind == "first":
            return self.ev(node[1], 0)
        if kind == "next":
            return self.ev(node[1], t + 1)
        if kind == "prev":
            return None if t == 0 else self.ev(node[1], t - 1)
        if kind == "fby":
            return self.ev(node[1], 0) if t == 0 else self.ev(node[2], t - 1)
        if kind == "wvr":
            return self._wvr(node[1], node[2], t)
        if kind == "asa":
            return self._wvr(node[1], node[2], 0)
        if kind == "upon":
            return self._upon(node[1], node[2], t)
        if kind == "at":
            i = self.ev(node[2], t)
            if i is None:
                return None
            if isinstance(i, bool) or not isinstance(i, int) or i < 0:
                raise RefError("KindMismatch")
            return self.ev(node[1], i)
        raise TypeError(f"not a stream node: {node!r}")
