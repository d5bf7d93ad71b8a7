"""The package's module layering: which modules each module may import.

The value model (``model``) imports only the errors, and the context
operators (``ops``) only the errors and the value model.  The syntax
tree, its grammars and its printer (``lexer``, ``parser``) depend on no
evaluator, and the context-set layer does not depend on the stream
engine, so each can change, or be reached from a new grammar, without an
import cycle.  A micro context is built by its dimension alone
(``Dimension.micro``), so no module but ``model`` calls ``MicroContext``.
Importing the package, the command line's module included, loads none of
the standard modules that a short run of the command line need not pay
for.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ctxcalc"

# module -> package modules it must not import
FORBIDDEN = {
    "model": {"lexer", "parser", "ops", "sets", "streams", "evaluator", "cli"},
    "ops": {"lexer", "parser", "sets", "streams", "evaluator", "cli"},
    "lexer": {"streams", "sets", "ops", "evaluator", "cli"},
    "parser": {"streams", "sets", "ops", "evaluator", "cli"},
    "sets": {"streams"},
    "evaluator": {"streams"},
    "streams": {"sets", "ops", "evaluator"},
}


def relative_imports(path: Path) -> set:
    """The package modules a module imports with a relative import:
    ``from .m import x`` names m, and ``from . import m`` names m."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
    return names


def test_every_layered_module_exists():
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    assert set(FORBIDDEN) <= modules
    assert {m for banned in FORBIDDEN.values() for m in banned} <= modules


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_module_imports_respect_the_layering(module):
    imported = relative_imports(PACKAGE / f"{module}.py")
    assert not imported & FORBIDDEN[module], (
        f"{module} imports {sorted(imported & FORBIDDEN[module])}")


def test_relative_imports_are_read(tmp_path):
    # the check above sees both relative forms, and only them
    module = tmp_path / "m.py"
    module.write_text(
        "import streams\n"
        "from .lexer import Token\n"
        "from . import ops, sets\n"
        "def f():\n"
        "    from .evaluator import evaluate\n",
        encoding="utf-8")
    assert relative_imports(module) == {"lexer", "ops", "sets", "evaluator"}


def dotted(func) -> list:
    """The names of a called expression, outermost last: ``a.b.c`` gives
    ``["c", "b", "a"]``."""
    names = []
    while isinstance(func, ast.Attribute):
        names.append(func.attr)
        func = func.value
    return names + [getattr(func, "id", None)]


def pair_builds(path: Path) -> list:
    """The lines where a module calls ``MicroContext`` or its unchecked
    builder ``MicroContext._of``, by name or as an attribute."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and "MicroContext" in dotted(node.func)
    ]


@pytest.mark.parametrize(
    "module", sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "model"))
def test_only_the_model_builds_a_pair(module):
    assert pair_builds(PACKAGE / f"{module}.py") == []


def test_pair_builds_are_read(tmp_path):
    # the check above sees both call forms, and only calls
    module = tmp_path / "m.py"
    module.write_text(
        "from .model import MicroContext\n"
        "a = MicroContext(d, 1)\n"
        "b = model.MicroContext(d, 2)\n"
        "c = MicroContext\n"
        "e = d.micro(3)\n"
        "f = MicroContext._of(d, 4)\n"
        "g = model.MicroContext._of(d, 5)\n",
        encoding="utf-8")
    assert pair_builds(module) == [2, 3, 6, 7]
    assert pair_builds(PACKAGE / "model.py")


# Standard modules that cost a short run several milliseconds to import;
# the command line imports argparse when it parses its arguments.
COSTLY = ("argparse", "dataclasses", "inspect")


def test_importing_the_package_loads_no_costly_module():
    # -S: no site hook preloads a module before the package's imports run
    code = ("import sys, ctxcalc, ctxcalc.cli; "
            f"print(sorted(set({COSTLY!r}) & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_the_command_line_still_parses_its_arguments():
    proc = subprocess.run([sys.executable, "-m", "ctxcalc", "--help"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and "--script PATH" in proc.stdout
