"""Make the package in ``src/`` importable by the child processes that some
tests start, as ``pythonpath`` in pyproject.toml does for pytest itself."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
