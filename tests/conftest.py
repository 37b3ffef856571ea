"""The package is imported from this checkout's `src` (pyproject's pytest
`pythonpath`); the tests that start `python -m rc.cli` in a subprocess find
it there through PYTHONPATH."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
