"""Let the subprocess tests' ``python -m tanglekit`` import this checkout's sources.

``pythonpath`` in pyproject.toml puts ``src`` on the test process's own
import path; child processes read PYTHONPATH instead.
"""
import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def pytest_configure(config):
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC if not inherited else SRC + os.pathsep + inherited
