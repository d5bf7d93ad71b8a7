"""``scripts/code_lines.py``, the code-line counter, on a small fixture."""

import subprocess
import sys
from pathlib import Path

COUNTER = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"

FIXTURE = '''"""A module docstring,
over two lines."""

# a comment alone on its line
def f():
    """A function docstring."""
    return 1  # a comment after code
'''


def test_the_counter_reads_only_code_lines(tmp_path):
    (tmp_path / "fixture.py").write_text(FIXTURE, encoding="utf-8")
    out = subprocess.run([sys.executable, str(COUNTER), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    # the def line and the return line
    assert out.split() == ["fixture.py", "2", "total", "2"]
