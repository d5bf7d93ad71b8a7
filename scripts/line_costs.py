"""Print what each line shape of a benchmark workload costs per pass.

    python scripts/line_costs.py WORKLOAD [--seed N] [--passes N]

The workload's lines for one seed come from ``perfbench/workloads.py``,
which is only imported.  Each pass runs them on a fresh
``cli.new_session``, after the workload's declarations, as the
benchmark's worker does, and times each line; a line's time is the least
over the passes.  A line's shape is its command word and the root
operator of its expression (``eval``, ``let`` and ``show``): the symbol of
an infix operator, or the class of any other node, such as ``SetLit``.
An operator whose left operand is a Box literal is marked ``(Box)``, as
in ``eval !(Box)``, so that Box lines show as shapes of their own.
For each shape it prints the number of lines, their time per pass and
their share of the pass, costliest first.

Uses the standard library and the package in ``src/``.
"""

import argparse
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from ctxcalc import cli, streams  # noqa: E402
from ctxcalc.errors import ContextCalcError  # noqa: E402
from ctxcalc.parser import BoxLit, parse_expr  # noqa: E402
import workloads  # noqa: E402


def shape(line: str) -> str:
    """The command word of ``line`` and the root operator of its
    expression, if it has one that parses."""
    word, _, rest = line.partition(" ")
    try:
        if word == "eval":
            node = parse_expr(rest)
        elif word == "let":
            node = parse_expr(rest.partition("=")[2])
        elif word == "show":
            node = streams.parse_stream_expr_prefix(rest)[0]
        else:
            return word
    except ContextCalcError:
        return f"{word} (error)"
    op = getattr(node, "op", None)
    if not isinstance(op, str):
        return f"{word} {type(node).__name__}"
    return f"{word} {op}(Box)" if isinstance(node.left, BoxLit) else f"{word} {op}"


def line_times(workload, passes: int) -> list:
    """Each query line's least time over ``passes`` passes, in seconds."""
    best = [float("inf")] * len(workload.commands)
    for _ in range(passes):
        session = cli.new_session(seed=0)
        for command in workload.prefix:
            cli.run_command(session, command.text)
        for i, command in enumerate(workload.commands):
            t0 = time.perf_counter()
            try:
                cli.run_command(session, command.text)
            except ContextCalcError:  # a failing line is timed as well
                pass
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=5)
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    workload = workloads.build(args.workload, args.seed)
    times = line_times(workload, args.passes)
    lines, spent = defaultdict(int), defaultdict(float)
    for command, t in zip(workload.commands, times):
        key = shape(command.text)
        lines[key] += 1
        spent[key] += t
    total = sum(times)
    print(f"{args.workload} seed {args.seed}: {len(times)} lines, "
          f"{total * 1e3:.2f} ms a pass, least of {args.passes}")
    print(f"{'shape':<20} {'lines':>6} {'ms/pass':>9} {'share':>7}")
    for key in sorted(spent, key=spent.get, reverse=True):
        print(f"{key:<20} {lines[key]:>6} {spent[key] * 1e3:>9.3f} "
              f"{spent[key] / total:>7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
