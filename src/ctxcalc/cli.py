"""Interactive REPL and script runner.

One command per line; a blank line, or one whose first non-blank character
is ``#``, does nothing.  The command word ends at the first whitespace,
a space or a tab alike.  ``quit``, which takes no argument, ends the
session and ``load <path>`` runs the commands of a file (one that is not
already being loaded).  One cursor reads each other line (see ``lexer``),
so an error position counts from the start of the line:

    dim NAME : int|str|bool TAG...        TAGs, if any, are the domain
    dim NAME : enum { NAME, ... }
    let NAME = EXPR                       a context, set, Box, dimension set or boolean
    stream NAME = STREAM                  a stream equation
    show STREAM [NAME] [INT]              INT (10) values along NAME (time)
    eval EXPR
    seed ['-'] INT
    mode plain|json

Commands mutate the session only when they succeed.  In json mode, eval
and show emit one machine-readable record per result; other commands but
dim are silent.  Exit codes: 0 success, 1 command error, 2 I/O error.
"""

from __future__ import annotations

import json
import os
import random
import sys

from .errors import ContextCalcError, ExprSyntaxError, InternalError
from .evaluator import Environment, evaluate
from .lexer import BOOLEANS, END, INT, NAME, Cursor, tokenize
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


class Session:
    """The state one REPL or script run mutates, equal only to itself."""

    __slots__ = ("env", "equations", "warehouse", "mode", "budget", "loading")

    def __init__(self, env: Environment, mode: str = "plain",
                 budget: int = streams.DEFAULT_BUDGET):
        self.env = env
        self.equations = streams.EquationSet()
        self.warehouse = streams.Warehouse()
        self.mode = mode
        self.budget = budget
        self.loading = set()  # the real paths of the files being loaded


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


def _render_result(session: Session, value) -> str:
    kind, payload = _value_record(value)
    if session.mode == "json":
        return json.dumps({"kind": kind, "value": payload})
    if kind == "bool":
        return "true" if payload else "false"
    return payload


def _render_prefix(session: Session, dim: str, values) -> str:
    # A stream value is an int, a bool or nil; a bool prints as 0 or 1.
    ints = [None if v is None else int(v) for v in values]
    try:
        if session.mode == "json":
            return json.dumps({"kind": "stream_prefix", "value": ints})
        return " ".join(["nil" if v is None else str(v) for v in ints])
    except ValueError:  # an int of more digits than str() converts
        limit = sys.get_int_max_str_digits()
        t = next(t for t, v in enumerate(ints)
                 if v is not None and abs(v) >= 10 ** limit)
        raise ContextCalcError(
            f"the value at {dim} {t} has more than {limit} digits") from None


# --- command implementations -------------------------------------------------

# The tag kinds a dim line may name.
_TAG_KINDS = {kind.value: kind for kind in TagKind}


def _name(cur: Cursor, what: str, reserved=BOOLEANS) -> str:
    """A name that is not a ``reserved`` word; ``what`` says what it names."""
    word = cur.peek().text
    if word in reserved:
        cur.fail(f"{word!r} cannot name {what}")
    return cur.expect(NAME).text


def _dim_command(session: Session, cur: Cursor) -> list:
    name = _name(cur, "a dimension")
    cur.expect(":")
    tok = cur.peek()
    kind = _TAG_KINDS.get(tok.text) if tok.kind == NAME else None
    if kind is None:
        cur.fail("expected a tag kind: int, str, bool or enum")
    cur.advance()
    domain = []
    if kind is TagKind.ENUM:
        cur.expect("{")
        if cur.peek().kind != "}":
            domain = cur.comma_list(lambda c: _name(c, "an enum symbol"))
        cur.expect("}")
        cur.close()
    else:
        while cur.peek().kind != END:
            domain.append(cur.tag(lambda text: cur.fail(f"bad domain value {text!r}")))
    dim = session.env.registry.register(name, kind, domain or None)
    values = [format_tag(v) for v in dim.domain or ()]
    if kind is TagKind.ENUM:
        return [f"dim {name} : enum{{{','.join(values)}}}"]
    return [" ".join([f"dim {name} : {kind.value}", *values])]


def _let_command(session: Session, cur: Cursor) -> list:
    name = _name(cur, "a variable")
    cur.expect("=")
    value = evaluate(parse_expr(cur), session.env)
    session.env.bind(name, value)
    if session.mode == "json":
        return []
    return [f"{name} = {_render_result(session, value)}"]


def _stream_command(session: Session, cur: Cursor) -> list:
    name = _name(cur, "a stream", streams.KEYWORDS)
    cur.expect("=")
    session.equations.add(name, streams.parse_stream_expr(cur))
    return [] if session.mode == "json" else [f"stream {name}"]


def _show_command(session: Session, cur: Cursor) -> list:
    expr, cur = streams.parse_stream_expr_prefix(cur)
    dim = cur.advance().text if cur.peek().kind == NAME else streams.TIME
    count = cur.signed_int() if cur.peek().kind == INT else 10
    if cur.peek().kind != END:
        cur.fail("show syntax: show <expr> [dim] [count]")
    values = streams.eval_prefix(
        expr, dim, count, session.equations, session.warehouse, session.budget
    )
    return [_render_prefix(session, dim, values)]


def _eval_command(session: Session, cur: Cursor) -> list:
    value = evaluate(parse_expr(cur), session.env)
    return [_render_result(session, value)]


def _seed_command(session: Session, cur: Cursor) -> list:
    n = cur.signed_int()
    cur.close()
    session.env.rng.seed(n)
    return [] if session.mode == "json" else [f"seed {n}"]


def _mode_command(session: Session, cur: Cursor) -> list:
    word = cur.peek().text
    if cur.peek().kind != NAME or word not in ("plain", "json"):
        cur.fail("mode is 'plain' or 'json'")
    cur.advance()
    cur.close()
    session.mode = word
    return [] if word == "json" else [f"mode {word}"]


def _load_command(session: Session, path: str) -> list:
    out = []
    try:
        _run_file(session, path, out.append)
    except (OSError, UnicodeDecodeError) as exc:
        raise ContextCalcError(f"cannot read {path!r}: {exc}") from None
    except ContextCalcError as exc:
        raise ContextCalcError(f"{path} {exc}") from exc
    return out


_HANDLERS = {
    "dim": _dim_command,
    "let": _let_command,
    "stream": _stream_command,
    "show": _show_command,
    "eval": _eval_command,
    "seed": _seed_command,
    "mode": _mode_command,
}


def run_command(session: Session, line: str) -> list:
    """Execute one command line; returns the rendered output lines.

    Raises ContextCalcError on failure, leaving the session unchanged.
    """
    parts = line.split(None, 1)
    if not parts or parts[0].startswith("#"):
        return []
    word = parts[0]
    rest = parts[1].rstrip() if len(parts) == 2 else ""
    if word == "quit":
        if rest:
            raise ExprSyntaxError.at(
                "quit takes no argument", len(line) - len(parts[1]) + 1)
        raise _Quit()
    if word == "load":
        if not rest:  # the end of the line, as the tokenizer counts it
            raise ExprSyntaxError.at("load needs a path", len(line) + 1)
        return _load_command(session, rest)
    handler = _HANDLERS.get(word)
    if handler is None:
        column = len(line) - len(line.lstrip()) + 1
        raise ExprSyntaxError(f"unknown command {word!r}", position=column)
    cur = Cursor(tokenize(line))
    cur.advance()  # the command word
    return handler(session, cur)


def _internal(exc: Exception, where: str = "") -> InternalError:
    """A raw exception that a command line ended in, as the typed error the
    REPL and the file runner report it by; it is a defect."""
    return InternalError(f"{where}internal error: {type(exc).__name__}: {exc}")


def _run_file(session: Session, path: str, emit):
    """Run the commands of a file in order, passing each output line to
    emit, up to the end of the file or a quit line.

    Raises OSError when the file cannot be read, UnicodeDecodeError when
    it is not UTF-8, a ContextCalcError when the file is already being run
    (a load cycle), and a ContextCalcError that starts with ``line N:``
    when the command on line N fails, an InternalError if it fails with a
    raw exception.
    """
    real = os.path.realpath(path)
    if real in session.loading:
        raise ContextCalcError(f"load cycle: {path!r} is already being loaded")
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    session.loading.add(real)
    try:
        for lineno, line in enumerate(lines, 1):
            try:
                for text in run_command(session, line):
                    emit(text)
            except _Quit:
                return
            except ContextCalcError as exc:
                raise ContextCalcError(f"line {lineno}: {exc}") from exc
            except Exception as exc:
                raise _internal(exc, f"line {lineno}: ") from exc
    finally:
        session.loading.discard(real)


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
        _run_file(session, path, lambda text: print(text, file=out))
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path!r}: {exc}", file=err)
        return 2
    except ContextCalcError as exc:
        print(f"error: {exc}", file=err)
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
        except Exception as exc:
            print(f"error: {_internal(exc)}", file=err)


def main(argv=None) -> int:
    import argparse  # here, so that importing the package does not load it

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
                        help="stream demand limit per show line or query")
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
