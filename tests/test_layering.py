"""The package's module layering: which modules each module may import.

The syntax tree, its grammars and its printer (``lexer``, ``parser``)
depend on no evaluator, and the context-set layer does not depend on the
stream engine, so each can change, or be reached from a new grammar,
without an import cycle.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ctxcalc"

# module -> package modules it must not import
FORBIDDEN = {
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
