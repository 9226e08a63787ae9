"""NumPy is the only runtime dependency and pytest the only test dependency.

SciPy may be installed where the tests run, so an import of it would pass
here and break elsewhere; this test reads every module's imports instead.
It also reads every call in ``src``: each eigensolve and SVD goes through
one of the three ``spectra`` functions that check their input, and which
the benchmark's tracer wraps.  And every write to stdout or stderr in
``src`` goes through ``cli._write_report`` or ``cli._diagnose``, which keep
the exit codes when a stream fails and a report whole on stdout.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
FACTORISERS = {"hermitian_eigenvalues", "hermitian_eigenpairs", "singular_value_decomposition"}
WRITERS = {"stdout": ("tanglekit/cli.py", "_write_report"),
           "stderr": ("tanglekit/cli.py", "_diagnose")}


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


def standard_stream(node):
    """'stdout' or 'stderr' for ``sys.stdout``, ``sys.__stderr__`` and the like (or its
    ``.buffer``), else None."""
    if isinstance(node, ast.Attribute) and node.attr == "buffer":
        node = node.value
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "sys" and node.attr.strip("_") in ("stdout", "stderr"):
        return node.attr.strip("_")
    return None


def stream_writes(tree, owner=None):
    """(innermost enclosing function, stream) for each write to stdout or stderr in a module.

    A write is a ``write`` or ``writelines`` on a standard stream, a ``print``
    to one (a missing or None ``file`` is stdout) or an ``os.write`` to fd 1
    or 2.  A ``from sys import`` of a stream counts too, since its later
    writes would pass unseen.
    """
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from stream_writes(node, node.name)
            continue
        streams = []
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in ("write", "writelines"):
                streams = [standard_stream(func.value)]
                fd = node.args[0] if node.args else None
                if isinstance(func.value, ast.Name) and func.value.id == "os" \
                        and isinstance(fd, ast.Constant) and fd.value in (1, 2):
                    streams = [("stdout", "stderr")[fd.value - 1]]
            elif isinstance(func, ast.Name) and func.id == "print":
                target = next((kw.value for kw in node.keywords if kw.arg == "file"), None)
                none = target is None or isinstance(target, ast.Constant) and target.value is None
                streams = ["stdout" if none else standard_stream(target)]
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            streams = [alias.name.strip("_") for alias in node.names]
        yield from ((owner, stream) for stream in streams if stream in WRITERS)
        yield from stream_writes(node, owner)


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_every_stream_write_goes_through_its_cli_writer(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    module = path.relative_to(ROOT / "src").as_posix()
    stray = [write for write in stream_writes(tree) if (module, write[0]) != WRITERS[write[1]]]
    assert stray == [], f"{module} writes outside {WRITERS}"


def test_writer_guard_sees_every_form():
    tree = ast.parse(
        "import os, sys\n"
        "from sys import stderr, argv\n"
        "print('x')\n"
        "def report(text):\n"
        "    sys.stdout.write(text)\n"
        "    sys.stdout.buffer.writelines([b''])\n"
        "    print(text, file=sys.stdout)\n"
        "    print(text, file=None)\n"
        "    sys.stdout.flush()\n"
        "def warn(line):\n"
        "    print(line, file=sys.stderr)\n"
        "    sys.__stderr__.write(line)\n"
        "    os.write(2, b'')\n"
        "def save(handle, text):\n"
        "    handle.write(text)\n"
        "    print(text, file=handle)\n"
        "    os.write(3, b'')\n"
    )
    assert sorted(stream_writes(tree), key=str) == [
        ("report", "stdout"), ("report", "stdout"), ("report", "stdout"), ("report", "stdout"),
        ("warn", "stderr"), ("warn", "stderr"), ("warn", "stderr"),
        (None, "stderr"), (None, "stdout"),
    ]
