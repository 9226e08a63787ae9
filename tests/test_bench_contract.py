"""The benchmark under ``bench/`` still runs against this checkout.

Its checker parses the CLI's report keys and its traced run wraps every
public function of the library by name, so a schema change or a renamed
public name fails here instead of only when the benchmark runs.
"""
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from tanglekit.cli import main as cli_main

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


@pytest.mark.parametrize("workload", ["fonts", "measure-all"])
def test_first_measure_op_passes_the_reference(workload, tmp_path, monkeypatch):
    # the fonts writer and the measure report, judged by the benchmark's checker
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    reference = importlib.import_module("reference")
    op = workloads.build(workload, 2024, tmp_path)[0]
    proc = subprocess.run(
        [sys.executable, "-m", "tanglekit", *op.argv], cwd=ROOT, capture_output=True, timeout=120
    )
    assert reference.verify(op, proc.returncode, proc.stdout) == [], proc.stderr


@pytest.mark.parametrize("argv", [
    ["measure", "STATE", "--negativity", "2", "--kway", "2,3"],
    ["check", "STATE", "--decomposition"],
    ["check", "STATE", "--covariance", "C,0.3,-0.7", "--lu-sweep", "50,3"],
    ["measure", "STATE", "--fonts", "2"],
])
def test_traced_run_matches_untraced(argv, tmp_path, monkeypatch):
    # one op through the traced run: every wrapped value must still serve the
    # tracer's work figures, and tracing must not change the op's output
    state = tmp_path / "r4.json"
    assert cli_main(["gen", "random", "4", "--seed", "5", "--out", str(state)]) == 0
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    manifest = tmp_path / "manifest.json"
    ops = [[str(state) if arg == "STATE" else arg for arg in argv]]
    manifest.write_text(json.dumps({"ops": ops, "seconds": 0, "out_dir": str(out_dir)}))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "tracing.py"), str(manifest)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    records = result["records"]
    assert records
    for record in records:
        assert record["code"] == record["untraced_code"] == 0, proc.stderr
        assert record["digest"] == record["untraced_digest"]
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    spans, names = tracing.load_spans(out_dir / "spans.npz")
    layers = tracing.layer_metrics(spans, names)
    if "--kway" in argv:
        # a pure state's K-way value takes the half-size route: no kway_pt, one eigh
        assert layers["spectra.kway_negativity_calls"] >= 1
        assert names.index("spectra.hermitian_eigenpairs") in spans["name_id"]
    if "--fonts" in argv:
        assert layers["spectra.fonts_emitted"] > 0
        # one render_json per report: it writes all of stdout but each report's newline
        assert layers["reporting.render_json_bytes"] == result["stdout_bytes"] - len(records)
    if "--covariance" in argv:
        assert layers["invariants.covariance_s"] > 0
        assert layers["invariants.lu_sweep_s_per_trial"] > 0
