"""Print the code lines of each module of a package, and their total.

A code line is a line that is not blank, not a comment alone and not
inside the docstring of a module, class or function.  The default package
is ``src/ctxcalc``; another directory of modules may be given instead.

    python scripts/code_lines.py [directory]

Uses the standard library only.
"""

import ast
import sys
from pathlib import Path

DEFAULT = Path(__file__).resolve().parent.parent / "src" / "ctxcalc"
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set:
    """The numbers of the lines that the docstrings in ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``, the text of one module."""
    skip = docstring_lines(ast.parse(source))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if number not in skip and line.strip()
               and not line.lstrip().startswith("#"))


def main(argv) -> int:
    directory = Path(argv[1]) if len(argv) > 1 else DEFAULT
    total = 0
    for path in sorted(directory.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.name:<16} {n:>6,}")
    print(f"{'total':<16} {total:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
