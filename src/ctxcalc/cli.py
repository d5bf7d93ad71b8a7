"""Interactive REPL and script runner.

Commands (one per line; a line whose first non-blank character is ``#``
is a comment):

    dim <name> : <int|str|bool|enum{A,B,...}> [domain values...]
    let <name> = <context / set / box / dimension-set expression>
    stream <name> = <stream expression>
    show <stream expression> [dimension] [count]
    eval <expression>
    seed <n>
    mode plain|json
    load <file>
    quit

Commands mutate the session only when they succeed.  In json mode, eval
and show emit one machine-readable record per result; other commands are
silent.  Exit codes: 0 success, 1 command error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field

from .errors import ContextCalcError, DuplicateName, ExprSyntaxError
from .evaluator import Environment, evaluate
from .lexer import END, INT, NAME, Cursor, tokenize
from .model import (
    Context,
    ContextSet,
    DimensionRegistry,
    TagKind,
    format_tag,
)
from .parser import parse_expr
from .sets import Box
from . import streams

PROMPT = "> "


class _Quit(Exception):
    pass


@dataclass
class Session:
    env: Environment
    equations: dict = field(default_factory=dict)
    warehouse: streams.Warehouse = field(default_factory=streams.Warehouse)
    mode: str = "plain"
    budget: int = streams.DEFAULT_BUDGET


def new_session(seed: int = 0, mode: str = "plain",
                budget: int = streams.DEFAULT_BUDGET) -> Session:
    env = Environment(registry=DimensionRegistry(), rng=random.Random(seed))
    return Session(env=env, mode=mode, budget=budget)


# --- rendering -------------------------------------------------------------


def _dimset_text(dims) -> str:
    return "{" + ", ".join(sorted(d.name for d in dims)) + "}"


def _value_record(value):
    if isinstance(value, Context):
        return "context", str(value)
    if isinstance(value, ContextSet):
        return "context_set", str(value)
    if isinstance(value, Box):
        return "box", str(value)
    if isinstance(value, frozenset):
        return "dim_set", _dimset_text(value)
    if isinstance(value, bool):
        return "bool", value
    raise ContextCalcError(f"cannot render value {value!r}")


def _stream_value_text(v) -> str:
    if v is None:
        return "nil"
    if isinstance(v, bool):
        return "1" if v else "0"
    return str(v)


def _stream_value_json(v):
    if v is None:
        return None
    if isinstance(v, bool):
        return 1 if v else 0
    return v


def _render_result(session: Session, value) -> str:
    kind, payload = _value_record(value)
    if session.mode == "json":
        return json.dumps({"kind": kind, "value": payload})
    if kind == "bool":
        return "true" if payload else "false"
    return payload


def _render_prefix(session: Session, values) -> str:
    if session.mode == "json":
        return json.dumps(
            {"kind": "stream_prefix",
             "value": [_stream_value_json(v) for v in values]}
        )
    return " ".join(_stream_value_text(v) for v in values)


# --- command implementations -------------------------------------------------


def _bad_domain_value(text):
    raise ExprSyntaxError(f"bad domain value {text!r}")


def _dim_command(session: Session, rest: str) -> list:
    # dim <name> : <kind> [domain ...]   (':' is spelled in the raw text)
    head, sep, tail = rest.partition(":")
    if not sep:
        raise ExprSyntaxError("dim syntax: dim <name> : <kind> [domain...]")
    name = head.strip()
    if not name.isidentifier():
        raise ExprSyntaxError(f"bad dimension name {name!r}")
    tail = tail.strip()
    if tail.startswith("enum"):
        cur = Cursor(tokenize(tail[len("enum"):]))
        cur.expect("{")
        symbols = []
        if cur.peek().kind != "}":
            symbols = cur.comma_list(lambda c: c.expect(NAME).text)
        cur.expect("}")
        cur.close()
        session.env.registry.register(name, TagKind.ENUM, symbols)
        domain_text = "{" + ",".join(symbols) + "}"
        return [f"dim {name} : enum{domain_text}"]
    parts = tail.split(None, 1)
    if not parts:
        raise ExprSyntaxError("dim needs a tag kind")
    kind_word = parts[0]
    kinds = {"int": TagKind.INT, "str": TagKind.STR, "bool": TagKind.BOOL}
    if kind_word not in kinds:
        raise ExprSyntaxError(f"unknown tag kind {kind_word!r}")
    domain = None
    if len(parts) > 1 and parts[1].strip():
        cur = Cursor(tokenize(parts[1]))
        domain = []
        while cur.peek().kind != END:
            domain.append(cur.tag(_bad_domain_value))
    dim = session.env.registry.register(name, kinds[kind_word], domain)
    suffix = ""
    if dim.domain is not None:
        suffix = " " + " ".join(format_tag(v) for v in dim.domain)
    return [f"dim {name} : {kind_word}{suffix}"]


def _let_command(session: Session, rest: str) -> list:
    name, sep, expr_text = rest.partition("=")
    if not sep:
        raise ExprSyntaxError("let syntax: let <name> = <expression>")
    name = name.strip()
    if not name.isidentifier():
        raise ExprSyntaxError(f"bad binding name {name!r}")
    value = evaluate(parse_expr(expr_text), session.env)
    session.env.bind(name, value)
    if session.mode == "json":
        return []
    return [f"{name} = {_render_result(session, value)}"]


def _stream_command(session: Session, rest: str) -> list:
    name, sep, expr_text = rest.partition("=")
    if not sep:
        raise ExprSyntaxError("stream syntax: stream <name> = <expression>")
    name = name.strip()
    if not name.isidentifier():
        raise ExprSyntaxError(f"bad stream name {name!r}")
    expr = streams.parse_stream_expr(expr_text)
    if name in session.equations:
        raise DuplicateName(f"stream {name!r} is already defined")
    # The defined equations were checked when they were added.
    streams.check_references(name, expr, session.equations)
    session.equations[name] = expr
    if session.mode == "json":
        return []
    return [f"stream {name}"]


def _show_command(session: Session, rest: str) -> list:
    expr, leftover = streams.parse_stream_expr_prefix(tokenize(rest))
    args = Cursor(leftover)
    dim = args.advance().text if args.peek().kind == NAME else streams.TIME
    count = int(args.advance().text) if args.peek().kind == INT else 10
    if args.peek().kind != END:
        args.fail("show syntax: show <expr> [dim] [count]")
    # Every equation was validated when _stream_command added it.
    eqs = streams.EquationSet(session.equations)
    values = streams.eval_prefix(
        expr, dim, count, eqs, session.warehouse, session.budget
    )
    return [_render_prefix(session, values)]


def _eval_command(session: Session, rest: str) -> list:
    value = evaluate(parse_expr(rest), session.env)
    return [_render_result(session, value)]


def _seed_command(session: Session, rest: str) -> list:
    try:
        n = int(rest.strip())
    except ValueError:
        raise ExprSyntaxError("seed needs an integer") from None
    session.env.rng.seed(n)
    return [] if session.mode == "json" else [f"seed {n}"]


def _mode_command(session: Session, rest: str) -> list:
    word = rest.strip()
    if word not in ("plain", "json"):
        raise ExprSyntaxError("mode is 'plain' or 'json'")
    session.mode = word
    return [] if word == "json" else [f"mode {word}"]


def _load_command(session: Session, rest: str) -> list:
    path = rest.strip()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise ContextCalcError(f"cannot read {path!r}: {exc}") from None
    out = []
    for lineno, line in enumerate(lines, 1):
        try:
            out.extend(run_command(session, line))
        except _Quit:
            break
        except ContextCalcError as exc:
            raise ContextCalcError(f"{path} line {lineno}: {exc}") from exc
    return out


_HANDLERS = {
    "dim": _dim_command,
    "let": _let_command,
    "stream": _stream_command,
    "show": _show_command,
    "eval": _eval_command,
    "seed": _seed_command,
    "mode": _mode_command,
    "load": _load_command,
}


def run_command(session: Session, line: str) -> list:
    """Execute one command line; returns the rendered output lines.

    Raises ContextCalcError on failure, leaving the session unchanged.
    """
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return []
    word, _, rest = stripped.partition(" ")
    if word == "quit":
        raise _Quit()
    handler = _HANDLERS.get(word)
    if handler is None:
        raise ExprSyntaxError(f"unknown command {word!r}")
    return handler(session, rest)


def run_script(path: str, session: Session = None, out=None, err=None) -> int:
    """Run a command file; the first failing command aborts the run.

    Returns 0 on success, 1 on a command error, 2 when the file cannot
    be read.
    """
    out = out or sys.stdout
    err = err or sys.stderr
    if session is None:
        session = new_session()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        print(f"error: cannot read {path!r}: {exc}", file=err)
        return 2
    for lineno, line in enumerate(lines, 1):
        try:
            for text in run_command(session, line):
                print(text, file=out)
        except _Quit:
            return 0
        except ContextCalcError as exc:
            print(f"error: line {lineno}: {exc}", file=err)
            return 1
    return 0


def repl(session: Session, stdin=None, out=None, err=None) -> int:
    stdin = stdin or sys.stdin
    out = out or sys.stdout
    err = err or sys.stderr
    interactive = hasattr(stdin, "isatty") and stdin.isatty()
    while True:
        if interactive:
            out.write(PROMPT)
            out.flush()
        line = stdin.readline()
        if not line:
            return 0
        try:
            for text in run_command(session, line):
                print(text, file=out)
        except _Quit:
            return 0
        except ContextCalcError as exc:
            print(f"error: {exc}", file=err)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ctxcalc",
        description="Context calculus and intensional stream calculator.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the choice operator (default 0)")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable result records")
    parser.add_argument("--script", metavar="PATH",
                        help="run a command file instead of the REPL")
    parser.add_argument("--budget", type=int, default=streams.DEFAULT_BUDGET,
                        help="stream demand limit per query")
    args = parser.parse_args(argv)
    session = new_session(
        seed=args.seed,
        mode="json" if args.json else "plain",
        budget=args.budget,
    )
    if args.script:
        return run_script(args.script, session)
    return repl(session)


if __name__ == "__main__":
    sys.exit(main())
