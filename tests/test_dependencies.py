"""NumPy is the only runtime dependency and pytest the only test dependency.

SciPy may be installed where the tests run, so an import of it would pass
here and break elsewhere; this test reads every module's imports instead.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_scipy_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    scipy = [name for name in imported_modules(tree) if name.split(".")[0] == "scipy"]
    assert scipy == [], f"{path.relative_to(ROOT)} imports {scipy}"


def test_guard_sees_both_import_forms():
    tree = ast.parse("import scipy.linalg\nfrom scipy import sparse\nfrom . import scipy\n")
    assert list(imported_modules(tree)) == ["scipy.linalg", "scipy"]
