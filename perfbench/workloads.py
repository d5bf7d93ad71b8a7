"""Seeded generators for the benchmark's three workloads.

Each generator returns a ``Workload``: a declaration prefix (counted in
set-up time) and the query-phase command lines.  Every line carries its
expected outcome, computed by the independent model in ``reference.py``
while the line is generated.  The same seed always gives the same lines.

The mix of each workload is stratified: the number of commands of each
kind and the input sizes are fixed lists, and the seed only picks tags,
constants, operands and (except in ``eduction``) the order.  That keeps the cost of a pass nearly
the same from seed to seed, so the run-to-run spread measures the program
rather than the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from reference import CSet, RefSession

WORKLOADS = ("repl_session", "set_algebra", "eduction")


@dataclass
class Command:
    text: str
    expect: tuple  # ("ok", output text) or ("err", error class name)
    kind: str  # label for reporting; "known_defect" marks a known bug


@dataclass
class Workload:
    name: str
    prefix: list = field(default_factory=list)
    commands: list = field(default_factory=list)


# --- rendering expressions to command text --------------------------------------

# Binding levels of the context grammar, loosest first.
_LEVEL = {
    "==": 0, "<<=": 0, ">>=": 0,
    "><": 1, "[&]": 1, "[+]": 1,
    "<=>": 2, "=>": 2,
    "(+)": 3, "(-)": 3,
    "&": 4, "%": 4,
    "|": 5,
    "!": 6, "^": 6, "/": 6,
}


def ctext(node) -> str:
    """Render a context expression tree in the REPL's syntax."""
    kind = node[0]
    if kind == "ctx":
        return "{" + ",".join(f"({d},{t})" for d, t in node[1]) + "}"
    if kind == "var":
        return node[1]
    if kind == "dims":
        return "{" + ",".join(node[1]) + "}"
    if kind == "set":
        return "{" + ",".join(ctext(item) for item in node[1]) + "}"
    if kind == "pair":
        return f"<{node[1]},{node[2]}>"
    if kind == "box":
        return f"Box[{', '.join(node[1])} | {node[2]}]"
    op, left, right = node[1], node[2], node[3]
    level = _LEVEL[op]
    lt, rt = ctext(left), ctext(right)
    if left[0] == "bin" and _LEVEL[left[1]] < level:
        lt = f"({lt})"
    if right[0] == "bin" and _LEVEL[right[1]] <= level:
        rt = f"({rt})"
    return f"{lt} {op} {rt}"


def _svalue(v) -> str:
    if v is None:
        return "nil"
    if v is True:
        return "true"
    if v is False:
        return "false"
    return str(v)


def stext(node) -> str:
    """Render a stream expression tree, parenthesizing every compound."""
    kind = node[0]
    if kind == "const":
        return _svalue(node[1])
    if kind == "lit":
        return "[" + ",".join(map(_svalue, node[1])) + "]"
    if kind == "ref":
        return node[1]
    if kind == "time":
        return "#.time"
    if kind == "pw":
        return f"({stext(node[2])} {node[1]} {stext(node[3])})"
    if kind in ("not", "first", "next", "prev"):
        return f"({kind} {stext(node[1])})"
    if kind == "if":
        return f"(if {stext(node[1])} then {stext(node[2])} else {stext(node[3])})"
    if kind == "at":
        return f"({stext(node[1])} @.time {stext(node[2])})"
    return f"({stext(node[1])} {kind} {stext(node[2])})"


def srefs(node) -> set:
    """Stream names a stream expression refers to."""
    if node[0] == "ref":
        return {node[1]}
    out = set()
    for child in node[1:]:
        if isinstance(child, tuple) and child and isinstance(child[0], str):
            out |= srefs(child)
    return out


def _bin(op, left, right):
    return ("bin", op, left, right)


def _ref(name):
    return ("ref", name)


def _const(v):
    return ("const", v)


def _pw(op, left, right):
    return ("pw", op, left, right)


class _Builder:
    """Collects command lines with their expected outcomes."""

    def __init__(self, name, seed):
        self.rng = random.Random(f"{name}/{seed}")
        self.ref = RefSession(0)
        self.workload = Workload(name)
        self.out = self.workload.prefix

    def add(self, text, expect, kind):
        self.out.append(Command(text, expect, kind))
        return expect

    def dim(self, name, domain=None):
        text = f"dim {name} : int"
        if domain is not None:
            text += " " + " ".join(map(str, domain))
        return self.add(text, self.ref.dim(name, domain), "dim")

    def stream(self, name, node, kind="stream"):
        expect = self.ref.stream(name, node, srefs(node))
        return self.add(f"stream {name} = {stext(node)}", expect, kind)

    def show(self, node, count, kind="show"):
        expect = self.ref.show(node, count, srefs(node))
        return self.add(f"show {stext(node)} time {count}", expect, kind)

    def eval(self, node, kind="eval"):
        return self.add(f"eval {ctext(node)}", self.ref.eval(node), kind)

    def let(self, name, node, kind="let"):
        return self.add(f"let {name} = {ctext(node)}", self.ref.let(name, node), kind)

    def queries(self):
        self.out = self.workload.commands


def _sweep(lo, hi, n):
    """n values evenly spaced over lo..hi."""
    return [lo + round(i * (hi - lo) / (n - 1)) for i in range(n)]


def _spread(rng, lo, hi, n):
    """A sweep in random order: a stratified draw."""
    vals = _sweep(lo, hi, n)
    rng.shuffle(vals)
    return vals


# --- repl_session -------------------------------------------------------------------

_REPL_DIMS = ["d", "e", "f", "x", "y", "z", "w"]

# Base streams of the worked examples plus a counter and an alternating
# guard.  Depth counts stream-reference levels below a stream.
_REPL_STREAMS = (
    ("A", ("lit", (1, 2, 3, 4, 5))),
    ("B", ("lit", (0, 0, 1, 0, 1))),
    ("P", ("lit", (1, 2, 4, 8, 16, 32, 64, 128))),
    ("Q", ("lit", (1, 2, 3, 0, 6, 7, 4, 5))),
    ("N", ("fby", _const(0), _pw("+", _ref("N"), _const(1)))),
    ("G", ("fby", _const(True), ("not", _ref("G")))),
)

# Lines whose correct outcome is a typed error.  The first element is a
# template over one random tag.
_MALFORMED = (
    ("eval {{(d,{0}),(e,2)}} $ {{(d,3)}}", "UnknownToken"),
    ("eval ({{(d,{0})}} (+) {{(e,2)}}", "UnbalancedParens"),
    ("eval {{(d,{0})}} (+) {{(e,2)}})", "UnbalancedParens"),
    ("eval undefined_name (+) {{(d,{0})}}", "UnboundVariable"),
    ("eval {{(q9,{0})}}", "UnknownDimension"),
    ("eval {{(d,{0})}} >< {{(e,2)}}", "KindMismatch"),
    ("eval {{(d,{0})}} (+) {{(e,1),(e,2)}}", "NonSimpleOperand"),
    ("eval {{(d,{0})}} ! {{(d,2)}}", "KindMismatch"),
    ("stream Zq = Nope + {0}", "UnresolvedReference"),
    ("stream A = {0}", "DuplicateName"),
    ("show (A fby ) time {0}", "ExprSyntaxError"),
    ("let 9x = {{(d,{0})}}", "ExprSyntaxError"),
    ("frobnicate {0}", "ExprSyntaxError"),
)

# Known defect: the lexer reads non-ASCII digits as digits and int()
# rejects them with a raw ValueError.  The correct outcome is a typed error.
_KNOWN_DEFECT = (
    "eval {{(d,{0})}}",
    "eval {{(e,1)}} (+) {{(d,{0})}}",
    "let kd = {{(f,{0})}}",
)
_NON_ASCII_DIGITS = ("²", "³", "¹")


class _Repl(_Builder):
    """Interactive traffic: many small reads and writes, a few long lines."""

    def __init__(self, seed):
        super().__init__("repl_session", seed)
        self.dims = list(_REPL_DIMS)
        self.ctx_vars = []
        self.set_vars = []
        self.streams = {}  # name -> (depth, int-valued?)
        self.n_streams = 0
        self.n_dims = 0

    # -- operands ----------------------------------------------------------------

    def ctx(self, k=None, span=10, dims=None):
        rng = self.rng
        names = rng.sample(dims or self.dims, k or rng.randint(1, 3))
        return ("ctx", tuple((d, rng.randrange(span)) for d in names))

    def ctx_operand(self):
        if self.ctx_vars and self.rng.random() < 0.3:
            return ("var", self.rng.choice(self.ctx_vars))
        return self.ctx()

    def dimset(self):
        return ("dims", tuple(self.rng.sample(self.dims, self.rng.randint(1, 3))))

    def small_set(self, dims):
        rng = self.rng
        members = tuple(
            ("ctx", tuple((d, rng.randrange(6)) for d in dims))
            for _ in range(rng.randint(2, 4))
        )
        return ("set", members)

    def set_operand(self, dims):
        if self.set_vars and self.rng.random() < 0.3:
            return ("var", self.rng.choice(self.set_vars))
        return self.small_set(dims)

    def range_pair(self):
        rng = self.rng
        shared = rng.sample(self.dims, rng.randint(1, 2))
        rest = [d for d in self.dims if d not in shared]
        p1, p2 = [], []
        for d in shared:  # spans of at most 4 tags keep ranges at 16 members
            a = rng.randrange(8)
            p1.append((d, a))
            p2.append((d, a + rng.randint(-min(a, 3), 3)))
        if rng.random() < 0.5:
            p1.append((rng.choice(rest), rng.randrange(10)))
        return ("ctx", tuple(p1)), ("ctx", tuple(p2))

    # -- expressions ---------------------------------------------------------------

    def context_expr(self):
        """A small context-valued expression."""
        rng = self.rng
        form = rng.randrange(6)
        c1, c2 = self.ctx_operand(), self.ctx_operand()
        if form == 0:
            return _bin(rng.choice("!^"), c1, self.dimset())
        if form == 1:
            return _bin("/", c1, self.ctx())
        if form == 2:
            return _bin("|", c1, c2)
        if form == 3:
            return _bin(rng.choice("&%"), c1, c2)
        if form == 4:
            return _bin(rng.choice(("(+)", "(-)")), c1, self.ctx())
        # the worked example's shape: c3 ^ D (+) c1 | c2
        return _bin("(+)", _bin("^", c1, self.dimset()), _bin("|", c2, self.ctx()))

    def set_expr(self):
        """A small set-valued expression (16 members or fewer)."""
        rng = self.rng
        form = rng.randrange(7)
        if form == 0:
            return _bin("<=>" if rng.random() < 0.6 else "=>", *self.range_pair())
        s1 = self.set_operand(["d", "e"])
        if form == 1:
            return _bin(rng.choice("!^"), s1, ("dims", (rng.choice(["d", "e"]),)))
        if form == 2:
            return _bin("/", s1, ("pair", rng.choice(["d", "e", "f"]), rng.randrange(6)))
        if form == 3:
            return _bin(rng.choice(("><", "[&]", "[+]")), s1, self.small_set(["e", "f"]))
        if form == 4:
            return _bin(rng.choice(("(+)", "(-)")), s1, self.small_set(["e", "f"]))
        if form == 5:
            return _bin("|", s1, self.small_set(["d", "e"]))
        return self.small_set(rng.sample(self.dims, 2))

    def read(self):
        rng = self.rng
        form = rng.randrange(4)
        if form == 0:
            return self.set_expr()
        if form == 1:
            op = rng.choice(("==", "<<=", ">>="))
            c1 = self.ctx_operand()
            c2 = c1 if rng.random() < 0.3 else self.ctx_operand()
            return _bin(op, c1, c2)
        return self.context_expr()

    def let_cmd(self):
        rng = self.rng
        if rng.random() < 0.65:
            name, node = f"k{rng.randrange(20)}", self.context_expr()
        else:
            name, node = f"s{rng.randrange(10)}", self.set_expr()
        expect = self.let(name, node)
        if expect[0] == "ok":
            for names in (self.ctx_vars, self.set_vars):
                if name in names:
                    names.remove(name)
            is_set = isinstance(self.ref.bindings[name], CSet)
            (self.set_vars if is_set else self.ctx_vars).append(name)

    # -- streams ---------------------------------------------------------------------

    def stream_operand(self, ints=True):
        names = [n for n, (depth, is_int) in self.streams.items()
                 if depth <= 3 and (is_int or not ints)]
        return _ref(self.rng.choice(names))

    def guard(self):
        rng = self.rng
        form = rng.randrange(4)
        if form == 0:
            return _ref("G")
        if form == 1:
            return _ref("B")
        if form == 2:
            return _pw(">", _ref("N"), _const(rng.randrange(6)))
        return _pw(">", _ref(rng.choice("AP")), _const(rng.randrange(4)))

    def stream_def(self):
        rng = self.rng
        name = f"S{self.n_streams}"
        self.n_streams += 1
        x, y = self.stream_operand(), self.stream_operand()
        form = rng.randrange(8)
        if form == 0:
            node = _pw(rng.choice("+-*"), x, y)
        elif form == 1:
            node = ("fby", _const(rng.randrange(5)), _pw("+", _ref(name), x))
        elif form == 2:
            node = (rng.choice(("wvr", "upon")), x, self.guard())
        elif form == 3:
            node = ("if", self.guard(), x, y)
        elif form == 4:
            node = (rng.choice(("next", "prev", "first")), x)
        elif form == 5:
            node = ("lit", tuple(rng.randrange(20) for _ in range(rng.randint(3, 8))))
        elif form == 6:
            node = ("at", x, _pw("+", _ref("N"), _const(rng.randrange(4))))
        else:
            node = _pw("*", x, _const(rng.randint(2, 5)))
        depth = 1 + max((self.streams[r][0] for r in srefs(node) if r != name), default=0)
        if self.stream(name, node)[0] == "ok":
            self.streams[name] = (depth, True)

    def show_cmd(self):
        rng = self.rng
        x, y = self.stream_operand(), self.stream_operand()
        form = rng.randrange(8)
        if form == 0:
            node = x
        elif form == 1:
            node = (rng.choice(("first", "next", "prev")), x)
        elif form == 2:
            node = ("fby", x, y)
        elif form == 3:
            node = (rng.choice(("wvr", "asa", "upon")), x, self.guard())
        elif form == 4:
            node = ("at", x, rng.choice((_ref("Q"), _pw("+", _ref("N"), _const(2)))))
        elif form == 5:
            node = ("time",)
        elif form == 6:
            node = _pw(rng.choice("+*"), x, y)
        else:
            node = self.stream_operand(ints=False)
        self.show(node, rng.randint(3, 10))

    # -- long and malformed lines ----------------------------------------------------

    def long_line(self, size, chain):
        rng = self.rng
        if chain:
            node = self.ctx(k=rng.randint(1, 2), span=20)
            for _ in range(size - 1):
                node = _bin("(+)", node, self.ctx(k=rng.randint(1, 2), span=20))
        else:
            node = ("set", tuple(self.ctx(k=3, span=40, dims=_REPL_DIMS)
                                 for _ in range(size)))
        self.eval(node, kind="long")

    def malformed(self, i):
        tag = self.rng.randrange(10)
        if i % 5 == 0:
            template = _KNOWN_DEFECT[(i // 5) % len(_KNOWN_DEFECT)]
            digit = _NON_ASCII_DIGITS[(i // 5) % len(_NON_ASCII_DIGITS)]
            self.add(template.format(digit), ("err", "ContextCalcError"), "known_defect")
            return
        template, error = _MALFORMED[i % len(_MALFORMED)]
        self.add(template.format(tag), ("err", error), "malformed")


def _repl_session(seed) -> Workload:
    b = _Repl(seed)
    for d in _REPL_DIMS:
        b.dim(d)
    for name, node in _REPL_STREAMS:
        b.stream(name, node)
        b.streams[name] = (0 if name != "N" else 1, name != "G")
    b.queries()
    rng = b.rng
    # 30 blocks of 100 lines with the same mix, each shuffled.  A `show`
    # re-validates every stream defined so far, so the slow end of the
    # latencies follows how fast streams accumulate; the blocks keep that
    # the same for every seed.
    block = (
        ["eval"] * 62 + ["show"] * 15 + ["let"] * 12 + ["stream"] * 5
        + ["dim", "seed", "chain", "bigset"] + ["malformed"] * 2
    )
    plan = []
    for _ in range(30):
        rng.shuffle(block)
        plan += block
    chains = _spread(rng, 100, 300, 30)
    bigsets = _spread(rng, 180, 220, 30)
    n_bad = 0
    for step in plan:
        if step == "eval":
            b.eval(b.read())
        elif step == "show":
            b.show_cmd()
        elif step == "let":
            b.let_cmd()
        elif step == "stream":
            b.stream_def()
        elif step == "dim":
            name = f"g{b.n_dims}"
            b.n_dims += 1
            if b.dim(name)[0] == "ok":
                b.dims.append(name)
        elif step == "seed":
            n = rng.randrange(1000)
            b.add(f"seed {n}", b.ref.seed(n), "seed")
        elif step == "chain":
            b.long_line(chains.pop(), chain=True)
        elif step == "bigset":
            b.long_line(bigsets.pop(), chain=False)
        else:
            b.malformed(n_bad)
            n_bad += 1
    return b.workload


# --- set_algebra -------------------------------------------------------------------

_GRID_SIDES = (4, 6, 8, 10, 16, 20, 25, 32)  # grids of 16 .. 1024 members
_BOX_DOMAIN = tuple(range(25))
_BIG_DOMAIN_SIZE = 5000


def _grid(dims, side, base):
    """A side x side grid over two dims as a range expression."""
    lo = ("ctx", ((dims[0], base[0]), (dims[1], base[1])))
    hi = ("ctx", ((dims[0], base[0] + side - 1), (dims[1], base[1] + side - 1)))
    return _bin("<=>", lo, hi)


def _set_algebra(seed) -> Workload:
    """Large sets from short source lines; the set layers do the work."""
    b = _Builder("set_algebra", seed)
    rng = b.rng
    for d in ("a", "b", "c"):
        b.dim(d)
    for d in ("u", "v", "w"):
        b.dim(d, _BOX_DOMAIN)
    big = sorted(rng.sample(range(4 * _BIG_DOMAIN_SIZE), _BIG_DOMAIN_SIZE))
    b.dim("r", big)
    b.queries()

    # Grids G_i over (a, b) and H_i over (b, c), one of each size.  The b
    # tags of all grids start at 0 so that joins and unions meet.
    jobs = []
    for i, side in enumerate(_GRID_SIDES):
        jobs.append((f"G{i}", _grid(("a", "b"), side, (rng.randrange(50), 0))))
        jobs.append((f"H{i}", _grid(("b", "c"), side, (0, rng.randrange(50)))))
    rng.shuffle(jobs)
    for name, node in jobs:
        b.let(name, node)

    work = []
    g = [("var", f"G{i}") for i in range(len(_GRID_SIDES))]
    h = [("var", f"H{i}") for i in range(len(_GRID_SIDES))]
    pairwise = ("[+]", "[&]", "(+)", "(-)")

    def box2(k):
        return _bin("!", ("box", ("u", "v"), f"u + v == {k}",
                          lambda r: r["u"] + r["v"] == k), ("dims", ("u",)))

    def big_range(i, size, wide):
        # Tag lookups scan the domain, so each line's position in it is
        # fixed by i, not drawn.
        start = round((i * 0.618) % 1 * (_BIG_DOMAIN_SIZE - size))
        lo = (("r", big[start]),)
        hi = (("r", big[start + size - 1]),)
        if wide:
            lo, hi = lo + (("a", 0),), hi + (("a", 2),)
        return _bin("<=>", ("ctx", lo), ("ctx", hi))

    # joins of up to 4096 pairs, and the long thin 1024 x 16 ones
    for i, si in enumerate(_GRID_SIDES):
        for j, sj in enumerate(_GRID_SIDES):
            if si * sj <= 64:
                work.append(_bin("><", g[i], h[j]))
    work += [_bin("><", g[-1], h[0]), _bin("><", g[0], h[-1])]
    # pairwise operators on grids of up to 64 members a side
    for i in range(3):
        for j in range(3):
            work.append(_bin("[+]", g[i], h[j]))
            work.append(_bin("[&]", g[i], h[j]))
            work.append(_bin("[&]", h[j], g[i]))
            work.append(_bin(pairwise[2 + (i + j) % 2], g[i], h[j]))
    # Box enumeration over 3 dimensions with 25-value domains
    for k in (6, 10, 14, 18):
        work.append(_bin("^", ("box", ("u", "v", "w"), f"u + v == w and u < {k}",
                               lambda r, k=k: r["u"] + r["v"] == r["w"] and r["u"] < k),
                         ("dims", ("w",))))
    # ranges over the 5k-value dimension, 10 .. 1000 members
    for i, size in enumerate((10, 100, 300, 600, 1000)):
        work.append(big_range(i, size, i % 2))
    # The rest of the 200 lines are small cases that cycle through four
    # shapes, so the median reads all of them: 2-dim Box enumeration,
    # ranges of 10 .. 100 members, joins of grids of 16 .. 100 members, and
    # pairwise operators on grids of 16 .. 64 members.
    small_joins = [(i, j) for i, si in enumerate(_GRID_SIDES)
                   for j, sj in enumerate(_GRID_SIDES) if si * sj <= 40]
    n = 0
    while len(work) + len(jobs) < 200:
        shape, m = n % 4, n // 4
        if shape == 0:
            work.append(box2(10 + m % 29))
        elif shape == 1:
            work.append(big_range(5 + m, (10, 30, 100)[m % 3], m % 2))
        elif shape == 2:
            i, j = small_joins[m % len(small_joins)]
            work.append(_bin("><", g[i], h[j]))
        else:
            work.append(_bin(pairwise[m % 4], g[m % 3], h[m // 3 % 3]))
        n += 1
    rng.shuffle(work)
    for node in work:
        b.eval(node)
    return b.workload


# --- eduction -----------------------------------------------------------------------


def _counter(name, start, period):
    """A counter that wraps at period: start fby (wrap or increment)."""
    step = ("if", _pw("==", _ref(name), _const(period - 1)), _const(0),
            _pw("+", _ref(name), _const(1)))
    return ("fby", _const(start), step)


def _eduction(seed) -> Workload:
    b = _Builder("eduction", seed)
    rng = b.rng
    n0, k, j, s0 = rng.randrange(4), rng.randint(2, 5), rng.randrange(7), rng.randrange(10)
    equations = (
        ("N", ("fby", _const(n0), _pw("+", _ref("N"), _const(1)))),
        ("D", ("fby", _const(rng.randrange(5)), _pw("+", _ref("D"), _const(1)))),
        ("G", ("fby", _const(True), ("not", _ref("G")))),
        ("C5", _counter("C5", rng.randrange(5), 5)),
        ("C13", _counter("C13", rng.randrange(13), 13)),
        ("S", ("fby", _const(s0), _pw("+", _ref("S"), _ref("N")))),
        ("T", ("fby", _const(1), _pw("+", _ref("T"), _pw("*", _const(2), _ref("N"))))),
        ("X", _pw("+", _pw("*", _ref("N"), _const(k)), _const(j))),
        ("W", ("wvr", _ref("N"), _ref("G"))),
        ("Z", ("wvr", _ref("S"), _pw("==", _ref("C5"), _const(0)))),
        ("U", ("upon", _ref("N"), _pw("==", _ref("C13"), _const(0)))),
        ("M", ("asa", _ref("X"), _pw(">", _ref("S"), _const(rng.randint(200, 800))))),
        ("V", ("at", _ref("T"), _pw("+", _ref("N"), _const(2)))),
    )
    for name, node in equations:
        b.stream(name, node)
    b.queries()

    # Each named stream is asked at rising lengths up to 220, each new
    # length followed by three re-asks no longer than it.  The misses then
    # cost the same whatever the order, and the re-asks read as hits.
    named = []
    for name in ("W", "U", "M", "V", "S", "T", "X"):
        asks = []
        for n in (60, 90, 120, 150, 180, 220):
            asks.append(("show_miss", name, n))
            asks += [("show_hit", name, m) for m in (n // 3, 2 * n // 3, n)]
        named.append(asks[::-1])

    def filter_query(form, n, i):
        x = _ref("NSTX"[i % 4])
        if form == "sparse":
            node = ("wvr", x, _pw("==", _ref("C5"), _const(rng.randrange(5))))
        else:
            node = (form, x, (_ref("G"), ("not", _ref("G")))[i % 2])
        b.show(node, n, "show_filter")

    def misc_query(form, n, i):
        if form == 0:
            node = ("at", _ref("S"), _pw("+", _ref("N"), _const(1 + 2 * i)))
        elif form == 1:
            node = _pw("+", ("next", _ref("S")), ("prev", _ref("N")))
        elif form == 2:
            node = ("asa", _ref("T"), _pw(">", _ref("S"), _const(100 + 250 * i)))
        else:
            node = ("upon", _ref("X"), _pw("==", _ref("C13"), _const(i)))
        b.show(node, n, "show_misc")

    # Each query form has its own sweep of prefix lengths; the i-th length
    # of a sweep always gets the same operands, so a seed changes the
    # order and the constants but not the cost of the mix.
    plan = [("named", None, None)] * sum(map(len, named))
    for form, hi, count in (("wvr", 160, 6), ("upon", 160, 6), ("sparse", 100, 4),
                            (0, 160, 8), (1, 160, 8), (2, 160, 8), (3, 160, 8)):
        plan += [(form, n, i) for i, n in enumerate(_sweep(60, hi, count))]
    # The order is the same for every seed.  The queries share the base
    # streams' warehouse entries, and the first query to reach a position
    # pays for it, so a query's cost depends on the ones before it; a fixed
    # order keeps each query's cost, and the slow end of the latencies,
    # from changing with the seed.
    layout = random.Random("eduction")
    layout.shuffle(plan)
    # Two cold deep queries (about 1%); their target D is never asked
    # otherwise, so it stays cold until each is sent.
    plan.insert(len(plan) // 3, ("deep", 2000, None))
    plan.insert(2 * len(plan) // 3, ("deep", 4000, None))
    for step, n, i in plan:
        if step == "named":
            asks = layout.choice([q for q in named if q])
            kind, name, n = asks.pop()
            b.show(_ref(name), n, kind)
        elif step in ("wvr", "upon", "sparse"):
            filter_query(step, n, i)
        elif step == "deep":
            b.show(("at", _ref("D"), _const(n)), 1, "known_defect")
        else:
            misc_query(step, n, i)
    return b.workload


_BUILDERS = {
    "repl_session": _repl_session,
    "set_algebra": _set_algebra,
    "eduction": _eduction,
}


def build(name: str, seed: int) -> Workload:
    """The prefix and query lines of one workload for one seed."""
    return _BUILDERS[name](seed)
