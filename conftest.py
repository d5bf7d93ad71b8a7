"""Test configuration for a plain ``pytest`` run from a checkout.

``pyproject.toml`` puts ``src`` on the test process's import path; this
exports it in ``PYTHONPATH`` too, for the tests that start
``python -m ctxcalc`` in a child process.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
