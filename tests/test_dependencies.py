"""Each row of ``RULES`` names a rule or a shared resource and the one function in ``src``
that may use it.  NumPy is the only runtime dependency: SciPy may be installed where the
tests run, so an import of it would pass here and break elsewhere, and imports are read too.
"""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted(path.relative_to(ROOT) for path in (ROOT / "src").rglob("*.py"))
SOURCES = SRC + sorted(path.relative_to(ROOT) for path in (ROOT / "tests").rglob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def parse(path):
    return ast.parse((ROOT / path).read_text(encoding="utf-8"), filename=str(path))


def uses(tree, match, outermost=False, owner=None):
    """(innermost, or outermost, enclosing function or None, name) for each name ``match``
    finds on a node of ``tree``, skipping bare strings such as docstrings."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        yield from ((owner, name) for name in match(node))
        inner = node.name if isinstance(node, FUNCTIONS) and not (outermost and owner) else owner
        yield from uses(node, match, outermost, inner)


def imported(node, module):
    """The names a ``from <module> import`` binds, whose later bare uses would pass unseen."""
    if isinstance(node, ast.ImportFrom) and node.module == module:
        return [alias.name for alias in node.names]
    return []


def imports(node):
    """The absolute modules an import names."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0 else []


def factorisations(node):
    """A NumPy eig* or svd routine called as ``<x>.linalg.<routine>`` or imported by name."""
    names = imported(node, "numpy.linalg")
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and isinstance(node.func.value, ast.Attribute) and node.func.value.attr == "linalg":
        names = [node.func.attr]
    return [name for name in names if name.startswith("eig") or name == "svd"]


def standard_stream(node):
    """'stdout' or 'stderr' for ``sys.stdout``, ``sys.__stderr__.buffer`` and the like."""
    found = re.fullmatch(r"sys\._*(stdout|stderr)_*(\.buffer)?", ast.unparse(node))
    return found[1] if found else None


def stream_writes(node):
    """The stream of a ``write`` or ``writelines`` on stdout or stderr, a ``print`` to one (a
    missing or None ``file`` is stdout), an ``os.write`` to fd 1 or 2, or a ``from sys import``."""
    streams = [name.strip("_") for name in imported(node, "sys")]
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
    return [stream for stream in streams if stream in ("stdout", "stderr")]


def threading_uses(node):
    """``threading.<name>``, a name imported from threading, or an ``import threading as``."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "threading":
        return [node.attr]
    if isinstance(node, ast.Import):
        return [f"as {alias.asname}" for alias in node.names
                if alias.name == "threading" and alias.asname]
    return imported(node, "threading")


def named(*names):
    """A matcher of these names as an attribute or a bare name, called or not, or imported."""
    def match(node):
        found = [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom) else \
            [getattr(node, "attr", None), getattr(node, "id", None)]  # an Attribute's, a Name's
        return [name for name in found if name in names]
    return match


digit_tests = named("isdigit", "isdecimal", "isnumeric")
generator_uses = named("default_rng")
report_text = named("_float_slots", "encode_basestring_ascii")


def count_messages(node):
    """A string, or a literal part of an f-string, that words a qubit-count rule."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and any(text in node.value for text in ("-qubit state", "qubits, got")):
        return [node.value]
    return []


def integer_tests(node):
    """``operator.index``, ``index`` imported from operator, or ``type(<x>) is [not] int``."""
    text = ast.unparse(node) if isinstance(node, (ast.Attribute, ast.Compare)) else ""
    if text == "operator.index" or re.fullmatch(r"type\(.+\) is (not )?int", text):
        return [text]
    return [name for name in imported(node, "operator") if name == "index"]


def float_formats(node):
    """A string, or a literal part of an f-string or of its format spec, with a .17g format."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str) and ".17g" in node.value:
        return [node.value]
    return []


# rule: (matcher, whether the outermost function owns a use, {name, or None for any: owner})
RULES = {
    # each eigensolve and SVD goes through the spectra function that checks its input
    "factorisation": (factorisations, False, {
        "eigvalsh": ("tanglekit/spectra.py", "hermitian_eigenvalues"),
        "eigh": ("tanglekit/spectra.py", "hermitian_eigenpairs"),
        "svd": ("tanglekit/spectra.py", "singular_value_decomposition")}),
    # each write to stdout or stderr goes through the writer that keeps the exit codes
    "stream-write": (stream_writes, False, {"stdout": ("tanglekit/cli.py", "_write_report"),
                                            "stderr": ("tanglekit/cli.py", "_diagnose")}),
    # each thread, lock and event is made by the one function that shares state between threads
    "threading": (threading_uses, True, {None: ("tanglekit/cli.py", "_run_stages")}),
    # ASCII digits are read by the one reader of CLI integers
    "digit-test": (digit_tests, False, {None: ("tanglekit/states.py", "_ascii_integer")}),
    # each generator is made from a seed checked to be an integer
    "generator": (generator_uses, False, {None: ("tanglekit/states.py", "_rng")}),
    # each qubit count a state, a measure or a check needs is worded by the one count rule
    "count-message": (count_messages, False, {None: ("tanglekit/states.py", "_check_count")}),
    # an integer is told from a float, a string or a bool by the one integer rule
    "integer": (integer_tests, False, {None: ("tanglekit/states.py", "_check_integer")}),
    # float text has one home: the one float rule writes every 17-digit format
    "float-text": (float_formats, False, {None: ("tanglekit/reporting.py", "format_float")}),
    # report text has one home: the fonts writer lays out array slots, render_json strings
    "report-text": (report_text, False, {
        "_float_slots": ("tanglekit/reporting.py", "_fonts_json"),
        "encode_basestring_ascii": ("tanglekit/reporting.py", "render_json")}),
}


@pytest.mark.parametrize("path", SOURCES, ids=str)
def test_no_scipy_import(path):
    scipy = [name for _, name in uses(parse(path), imports) if name.split(".")[0] == "scipy"]
    assert scipy == [], f"{path} imports {scipy}"


def test_guard_sees_both_import_forms():
    tree = ast.parse("import scipy.linalg\nfrom scipy import sparse\nfrom . import scipy\n")
    assert [name for _, name in uses(tree, imports)] == ["scipy.linalg", "scipy"]


@pytest.mark.parametrize("path, rule", [(path, rule) for path in SRC for rule in RULES], ids=str)
def test_each_rule_has_one_owner(path, rule):
    match, outermost, owners = RULES[rule]
    module = path.relative_to("src").as_posix()
    stray = [(owner, name) for owner, name in uses(parse(path), match, outermost)
             if (module, owner) != owners.get(name, owners.get(None))]
    assert stray == [], f"{module} breaks the {rule} rule outside {owners}: {stray}"


@pytest.mark.parametrize("rule", RULES)
def test_every_owner_makes_its_use(rule):
    # a matcher that silently stopped matching would pass every module
    match, outermost, owners = RULES[rule]
    for name, (module, function) in owners.items():
        tree = parse(Path("src", module))
        assert function in {node.name for node in ast.walk(tree) if isinstance(node, FUNCTIONS)}
        found = [use for owner, use in uses(tree, match, outermost) if owner == function]
        assert found if name is None else name in found, f"{rule}: {function} makes no {name}"


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
    assert sorted(uses(tree, factorisations), key=str) == [
        ("hermitian_eigenpairs", "eigh"), ("inner", "svd"), ("outer", "eigvalsh"),
        (None, "eig"), (None, "eigvals"),
    ]


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
    assert sorted(uses(tree, stream_writes), key=str) == [
        ("report", "stdout"), ("report", "stdout"), ("report", "stdout"), ("report", "stdout"),
        ("warn", "stderr"), ("warn", "stderr"), ("warn", "stderr"),
        (None, "stderr"), (None, "stdout"),
    ]


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
    assert sorted(uses(tree, threading_uses, outermost=True), key=str) == [
        ("other", "Event"), ("run_stages", "Lock"), ("run_stages", "get_ident"),
        (None, "Lock"), (None, "active_count"), (None, "as t"),
    ]


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
    assert sorted(uses(tree, digit_tests), key=str) == [
        ("_ascii_integer", "isdigit"), ("inner", "isdecimal"), ("parse", "isnumeric"),
        (None, "isdigit"),
    ]


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
    assert sorted(uses(tree, generator_uses), key=str) == [
        ("_rng", "default_rng"), ("draw", "default_rng"), ("inner", "default_rng"),
        (None, "default_rng"), (None, "default_rng"),
    ]


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
    assert sorted(uses(tree, count_messages), key=str) == [
        ("_check_count", "-qubit state, got n = "),
        ("_cmd_check", "--product-identity requires a 3-qubit state, got n = "),
        ("inner", "requires 2 <= n <= 10 qubits, got 1"),
        (None, "cluster4 is a 4-qubit state"),
    ]


def test_integer_guard_sees_every_form():
    tree = ast.parse(
        "from operator import index, itemgetter\n"
        "def _check_integer(x):\n"
        "    operator.index(x)\n"
        "def load(n, value):\n"
        "    ok = type(n) is not int or isinstance(value, int) or type(value) in (int, float)\n"
        "    return ok, map(operator.index, [n]), operator.itemgetter(0)\n"
        "top = type(3) is int, type(3) is bool, type(3) == int\n"
    )
    assert sorted(uses(tree, integer_tests), key=str) == [
        ("_check_integer", "operator.index"), ("load", "operator.index"),
        ("load", "type(n) is not int"), (None, "index"), (None, "type(3) is int"),
    ]


def test_float_text_guard_sees_every_form():
    tree = ast.parse(
        '"""Floats as %.17g."""\n'
        "def format_float(value):\n"
        '    return f"{value:.17g}"\n'
        "def row(x, y):\n"
        '    template = "%s: %.17g"\n'
        "    return template % (x, y), format(y, '.17g'), f'{y:.16g}', '%.3f' % y\n"
        "def block(values):\n"
        '    return [f"{v:.17g}, " for v in values]\n'
        'TOP = "{:.17g}"\n'
    )
    assert sorted(uses(tree, float_formats), key=str) == [
        ("block", ".17g"), ("format_float", ".17g"), ("row", "%s: %.17g"), ("row", ".17g"),
        (None, "{:.17g}"),
    ]
