"""NumPy is the only runtime dependency and pytest the only test dependency.

SciPy may be installed where the tests run, so an import of it would pass
here and break elsewhere; this test reads every module's imports instead.
It also reads every call in ``src``: each eigensolve and SVD goes through
one of the three ``spectra`` functions that check their input, and which
the benchmark's tracer wraps.  And every write to stdout or stderr in
``src`` goes through ``cli._write_report`` or ``cli._diagnose``, which keep
the exit codes when a stream fails and a report whole on stdout.  And every
thread, lock or other ``threading`` object in ``src`` is made in
``cli._run_stages``, the one place that shares state between threads.  And
every ``isdigit``, ``isdecimal`` or ``isnumeric`` in ``src`` is in
``states._ascii_integer``, the one reader of ASCII integers.  And every
``default_rng`` in ``src`` is in ``states._rng``, which checks that a seed is
an integer before NumPy reads it.  And every message about the qubit count a
state or a measure needs is written in ``states._check_count``, so no module
restates a count rule of its own.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
FACTORISERS = {"hermitian_eigenvalues", "hermitian_eigenpairs", "singular_value_decomposition"}
WRITERS = {"stdout": ("tanglekit/cli.py", "_write_report"),
           "stderr": ("tanglekit/cli.py", "_diagnose")}
THREADER = ("tanglekit/cli.py", "_run_stages")
DIGIT_READER = ("tanglekit/states.py", "_ascii_integer")
DIGIT_TESTS = {"isdigit", "isdecimal", "isnumeric"}
SEEDER = ("tanglekit/states.py", "_rng")
COUNTER = ("tanglekit/states.py", "_check_count")
COUNT_MESSAGES = ("-qubit state", "qubits, got")


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


def threading_uses(tree, owner=None):
    """(outermost enclosing function, name) for each ``threading`` attribute used in a module.

    ``threading.<name>`` counts, and so do a ``from threading import`` and an
    ``import threading as``, since their later uses would pass unseen.
    """
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from threading_uses(node, owner or node.name)
            continue
        names = []
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "threading":
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and node.module == "threading":
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [f"as {alias.asname}" for alias in node.names
                     if alias.name == "threading" and alias.asname]
        yield from ((owner, name) for name in names)
        yield from threading_uses(node, owner)


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_threads_live_in_the_stage_runner(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    module = path.relative_to(ROOT / "src").as_posix()
    stray = [use for use in threading_uses(tree) if (module, use[0]) != THREADER]
    assert stray == [], f"{module} uses threading outside {THREADER}"


def test_threading_guard_sees_every_form():
    tree = ast.parse(
        "import threading, threading as t\n"
        "from threading import Lock\n"
        "def run_stages(work):\n"
        "    lock = threading.Lock()\n"
        "    def worker():\n"
        "        with lock:\n"
        "            threading.get_ident()\n"
        "    t.Thread(target=worker).start()\n"
        "def other():\n"
        "    return threading.Event\n"
        "top = threading.active_count()\n"
    )
    assert sorted(threading_uses(tree), key=str) == [
        ("other", "Event"), ("run_stages", "Lock"), ("run_stages", "get_ident"),
        (None, "Lock"), (None, "active_count"), (None, "as t"),
    ]


def digit_tests(tree, owner=None):
    """(innermost enclosing function, name) for each isdigit, isdecimal or isnumeric in a module.

    Any attribute of those names counts, called or not, so ``str.isdigit``
    handed to ``filter`` is seen too.
    """
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from digit_tests(node, node.name)
            continue
        if isinstance(node, ast.Attribute) and node.attr in DIGIT_TESTS:
            yield owner, node.attr
        yield from digit_tests(node, owner)


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_digits_are_read_by_ascii_integer(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    module = path.relative_to(ROOT / "src").as_posix()
    stray = [use for use in digit_tests(tree) if (module, use[0]) != DIGIT_READER]
    assert stray == [], f"{module} reads digits outside {DIGIT_READER}"


def test_digit_guard_sees_every_form():
    tree = ast.parse(
        "def _ascii_integer(text):\n"
        "    return text.isdigit()\n"
        "def parse(text):\n"
        "    def inner(t):\n"
        "        return t.isdecimal()\n"
        "    return list(filter(str.isnumeric, text)), inner(text), text.isalpha()\n"
        "top = '3'.isdigit()\n"
    )
    assert sorted(digit_tests(tree), key=str) == [
        ("_ascii_integer", "isdigit"), ("inner", "isdecimal"), ("parse", "isnumeric"),
        (None, "isdigit"),
    ]


def generator_uses(tree, owner=None):
    """(innermost enclosing function, 'default_rng') for each use of default_rng in a module.

    An attribute or a bare name counts, called or not, and so does a ``from numpy.random
    import`` of it, since its later bare calls would pass unseen.
    """
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from generator_uses(node, node.name)
            continue
        names = []
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        yield from ((owner, name) for name in names if name == "default_rng")
        yield from generator_uses(node, owner)


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_generators_are_made_by_rng(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    module = path.relative_to(ROOT / "src").as_posix()
    stray = [use for use in generator_uses(tree) if (module, use[0]) != SEEDER]
    assert stray == [], f"{module} makes a generator outside {SEEDER}"


def test_generator_guard_sees_every_form():
    tree = ast.parse(
        "import numpy as np\n"
        "from numpy.random import default_rng, Generator\n"
        "def _rng(seed):\n"
        "    return np.random.default_rng(seed)\n"
        "def draw(seed):\n"
        "    def inner(s):\n"
        "        return default_rng(s)\n"
        "    return inner(seed), map(np.random.default_rng, [seed]), np.random.random()\n"
        "top = numpy.random.default_rng(0)\n"
    )
    assert sorted(generator_uses(tree), key=str) == [
        ("_rng", "default_rng"), ("draw", "default_rng"), ("inner", "default_rng"),
        (None, "default_rng"), (None, "default_rng"),
    ]


def count_messages(tree, owner=None):
    """(innermost enclosing function, text) for each string in a module that words a count rule.

    A string counts when it contains one of COUNT_MESSAGES, and so does each
    literal part of an f-string.  Docstrings describe states of a size, and pass.
    """
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from count_messages(node, node.name)
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring, or a bare string that says nothing at run time
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and any(text in node.value for text in COUNT_MESSAGES):
            yield owner, node.value
        yield from count_messages(node, owner)


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_count_rules_are_worded_by_check_count(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    module = path.relative_to(ROOT / "src").as_posix()
    stray = [use for use in count_messages(tree) if (module, use[0]) != COUNTER]
    assert stray == [], f"{module} words a qubit-count rule outside {COUNTER}"


def test_count_message_guard_sees_every_form():
    tree = ast.parse(
        '"""Fonts of a 3-qubit state."""\n'
        "def _check_count(n, least, most):\n"
        '    """Raise unless n fits: a 3-qubit state, say."""\n'
        '    raise ValueError(f"requires a {least}-qubit state, got n = {n}")\n'
        "def _cmd_check(args, n):\n"
        "    if n != 3:\n"
        '        raise CliError(f"--product-identity requires a 3-qubit state, got n = {n}")\n'
        "    def inner():\n"
        '        return "requires 2 <= n <= 10 qubits, got 1"\n'
        "    return inner, 'a 3-qubit measure'\n"
        "class Rules:\n"
        '    """A 4-qubit state."""\n'
        '    MESSAGE = "cluster4 is a 4-qubit state"\n'
    )
    assert sorted(count_messages(tree), key=str) == [
        ("_check_count", "-qubit state, got n = "),
        ("_cmd_check", "--product-identity requires a 3-qubit state, got n = "),
        ("inner", "requires 2 <= n <= 10 qubits, got 1"),
        (None, "cluster4 is a 4-qubit state"),
    ]
