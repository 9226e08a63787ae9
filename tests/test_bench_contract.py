"""The benchmark under ``bench/`` still runs against this checkout.

Its checker parses the CLI's report keys and its traced run wraps every
public function of the library by name, so a schema change or a renamed
public name fails here instead of only when the benchmark runs.
"""
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
