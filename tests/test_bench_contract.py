"""The benchmark under ``bench/`` still runs against this checkout.

Its checker parses the CLI's report keys and its traced run wraps every
public function of the library by name, so a schema change or a renamed
public name fails here instead of only when the benchmark runs.
"""
import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def run_python(*args):
    # conftest puts src on PYTHONPATH; bench's modules import each other by name
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=120
    )


def test_selftest_passes():
    proc = run_python(str(BENCH / "selftest.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr


def test_tracer_installs():
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); import tracing; "
        "print(tracing.install(tracing.Tracer()))"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert int(proc.stdout) > 0


def test_lu_checks_ops_pass_the_reference(tmp_path, monkeypatch):
    # the first 3-qubit and 4-qubit op of the workload, judged by the benchmark's checker
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    reference = importlib.import_module("reference")
    ops = workloads.build("lu-checks", 2024, tmp_path)
    for n in (3, 4):
        op = next(op for op in ops if op.expected["n"] == n)
        proc = subprocess.run(
            [sys.executable, "-m", "tanglekit", *op.argv],
            cwd=ROOT, capture_output=True, timeout=120,
        )
        assert reference.verify(op, proc.returncode, proc.stdout) == [], proc.stderr
