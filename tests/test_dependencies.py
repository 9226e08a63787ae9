"""NumPy is the only runtime dependency and pytest the only test dependency.

SciPy may be installed where the tests run, so an import of it would pass
here and break elsewhere; this test reads every module's imports instead.
It also reads every call in ``src``: each eigensolve and SVD goes through
one of the three ``spectra`` functions that check their input, and which
the benchmark's tracer wraps.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
FACTORISERS = {"hermitian_eigenvalues", "hermitian_eigenpairs", "singular_value_decomposition"}


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


def factorisations(tree, owner=None):
    """(innermost enclosing function, routine) for each NumPy eig* or svd reached in a module.

    A call ``<x>.linalg.<routine>(...)`` counts, and so does a ``from numpy.linalg import``
    of such a routine, since its later bare calls would pass unseen.
    """
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from factorisations(node, node.name)
            continue
        names = []
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            base = node.func.value
            if isinstance(base, ast.Attribute) and base.attr == "linalg":
                names = [node.func.attr]
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            names = [alias.name for alias in node.names]
        yield from ((owner, name) for name in names if name.startswith("eig") or name == "svd")
        yield from factorisations(node, owner)


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_every_factorisation_goes_through_spectra(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    stray = [call for call in factorisations(tree) if call[0] not in FACTORISERS]
    assert stray == [], f"{path.relative_to(ROOT)} factorises outside {sorted(FACTORISERS)}"


def test_factorisation_guard_sees_every_form():
    tree = ast.parse(
        "import numpy as np\n"
        "from numpy.linalg import eigvals, qr\n"
        "def hermitian_eigenpairs(m):\n"
        "    return np.linalg.eigh(m)\n"
        "def outer(m):\n"
        "    def inner(x):\n"
        "        return numpy.linalg.svd(x, compute_uv=False)\n"
        "    return inner(np.linalg.eigvalsh(m)), np.linalg.norm(m)\n"
        "top = np.linalg.eig(np.eye(2))\n"
    )
    assert sorted(factorisations(tree), key=str) == [
        ("hermitian_eigenpairs", "eigh"), ("inner", "svd"), ("outer", "eigvalsh"),
        (None, "eig"), (None, "eigvals"),
    ]
