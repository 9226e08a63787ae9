import json
import subprocess
import sys

import numpy as np
import pytest

from tanglekit.cli import main
from tanglekit.reporting import format_float, render_json

INV_SQRT2 = 1 / np.sqrt(2)


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def write_state(tmp_path, name, *gen_args, capsys):
    path = tmp_path / name
    code, _, err = run_cli(["gen", *gen_args, "--out", str(path)], capsys)
    assert code == 0, err
    return path


class TestGen:
    def test_ghz3_file_has_two_entries(self, tmp_path, capsys):
        path = write_state(tmp_path, "ghz3.json", "ghz", "3", capsys=capsys)
        payload = json.loads(path.read_text())
        assert payload["n_qubits"] == 3
        assert len(payload["amplitudes"]) == 2
        for entry in payload["amplitudes"]:
            assert abs(entry["re"] - INV_SQRT2) < 1e-12
            assert entry["im"] == 0.0

    def test_seeded_random_is_byte_identical(self, tmp_path, capsys):
        a = write_state(tmp_path, "a.json", "random", "4", "--seed", "7", capsys=capsys)
        b = write_state(tmp_path, "b.json", "random", "4", "--seed", "7", capsys=capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_w1_is_usage_error(self, capsys):
        code, _, err = run_cli(["gen", "w", "1"], capsys)
        assert code == 2
        assert "2 <= n" in err

    @pytest.mark.parametrize("kind,n", [("random", 11), ("ghz", 11), ("product", 0), ("product", 11)])
    def test_qubit_count_out_of_range_is_usage_error(self, kind, n, capsys):
        code, out, err = run_cli(["gen", kind, str(n)], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1

    def test_cluster4_needs_no_n(self, tmp_path, capsys):
        path = write_state(tmp_path, "c4.json", "cluster4", capsys=capsys)
        payload = json.loads(path.read_text())
        assert payload["n_qubits"] == 4
        assert len(payload["amplitudes"]) == 4

    def test_cluster4_wrong_n(self, capsys):
        code, _, _ = run_cli(["gen", "cluster4", "5"], capsys)
        assert code == 2

    def test_missing_n(self, capsys):
        code, _, _ = run_cli(["gen", "ghz"], capsys)
        assert code == 2

    def test_unknown_kind(self, capsys):
        code, _, _ = run_cli(["gen", "bell", "2"], capsys)
        assert code == 2

    def test_negative_seed_is_usage_error(self, capsys):
        code, _, _ = run_cli(["gen", "random", "3", "--seed", "-5"], capsys)
        assert code == 2

    def test_unwritable_path_is_io_error(self, capsys):
        code, _, err = run_cli(["gen", "ghz", "3", "--out", "/no/such/dir/x.json"], capsys)
        assert code == 3
        assert "cannot write" in err

    def test_gen_product_factorizes(self, tmp_path, capsys):
        path = write_state(tmp_path, "p.json", "product", "3", "--seed", "5", capsys=capsys)
        code, out, _ = run_cli(["measure", str(path), "--negativity", "1"], capsys)
        assert code == 0
        assert json.loads(out)["negativity_q1"] <= 1e-10

    def test_gen_to_stdout(self, capsys):
        code, out, _ = run_cli(["gen", "ghz", "2"], capsys)
        assert code == 0
        assert json.loads(out)["n_qubits"] == 2


class TestMeasure:
    def test_tangle3_on_ghz3(self, tmp_path, capsys):
        path = write_state(tmp_path, "ghz3.json", "ghz", "3", capsys=capsys)
        code, out, _ = run_cli(["measure", str(path), "--tangle3"], capsys)
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"tangle3"}
        assert abs(report["tangle3"] - 1.0) < 1e-10

    def test_tangle4_on_w4(self, tmp_path, capsys):
        path = write_state(tmp_path, "w4.json", "w", "4", capsys=capsys)
        code, out, _ = run_cli(["measure", str(path), "--tangle4"], capsys)
        assert code == 0
        assert abs(json.loads(out)["tangle4"]) < 1e-10

    def test_tangle3_on_bell_is_usage_error(self, tmp_path, capsys):
        path = write_state(tmp_path, "bell.json", "ghz", "2", capsys=capsys)
        code, _, err = run_cli(["measure", str(path), "--tangle3"], capsys)
        assert code == 2
        assert "3-qubit" in err

    def test_missing_file_is_io_error(self, capsys):
        code, _, _ = run_cli(["measure", "/no/such/state.json", "--tangle3"], capsys)
        assert code == 3

    def test_invalid_json_is_bad_state(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = run_cli(["measure", str(path), "--tangle3"], capsys)
        assert code == 4

    def test_all_zero_state_is_bad_state(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"n_qubits": 2, "amplitudes": []}))
        code, _, err = run_cli(["measure", str(path), "--tangle3"], capsys)
        assert code == 4
        assert "all-zero" in err

    def test_non_finite_amplitude_is_bad_state(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"n_qubits": 2, "amplitudes": [{"index": "00", "re": NaN, "im": 0.0},'
            ' {"index": "11", "re": 1.0, "im": 0.0}]}'
        )
        code, out, err = run_cli(["measure", str(path), "--negativity", "1"], capsys)
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1 and "finite" in err

    def test_negativity_kway_fonts(self, tmp_path, capsys):
        path = write_state(tmp_path, "bell.json", "ghz", "2", capsys=capsys)
        code, out, _ = run_cli(
            ["measure", str(path), "--negativity", "A", "--kway", "1,2", "--fonts", "1"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert abs(report["negativity_q1"] - 1.0) < 1e-10
        assert abs(report["kway_q1_k2"] - 1.0) < 1e-10
        assert len(report["fonts_q1"]) == 1
        font = report["fonts_q1"][0]
        assert (font["i"], font["j"]) == ("00", "11")
        assert abs(font["det_re"] - 0.5) < 1e-12
        assert not font["negligible"]

    def test_all_flag(self, tmp_path, capsys):
        path = write_state(tmp_path, "r4.json", "random", "4", "--seed", "1", capsys=capsys)
        code, out, _ = run_cli(["measure", str(path), "--all"], capsys)
        assert code == 0
        report = json.loads(out)
        assert "tangle4" in report
        assert "four_invariant_abs" in report
        assert {f"negativity_q{p}" for p in range(1, 5)} <= set(report)
        assert {f"kway_q{p}_k{k}" for p in range(1, 5) for k in range(2, 5)} <= set(report)
        assert abs(report["tangle4"] - 4 * report["four_invariant_abs"] ** 2) < 1e-12

    def test_no_flags_is_usage_error(self, tmp_path, capsys):
        path = write_state(tmp_path, "bell.json", "ghz", "2", capsys=capsys)
        code, _, _ = run_cli(["measure", str(path)], capsys)
        assert code == 2

    def test_bad_kway_spec(self, tmp_path, capsys):
        path = write_state(tmp_path, "bell.json", "ghz", "2", capsys=capsys)
        for bad in ("1", "1,9", "0,2", "x,2", "1,y"):
            code, _, _ = run_cli(["measure", str(path), "--kway", bad], capsys)
            assert code == 2, bad

    def test_repeated_run_is_byte_identical(self, tmp_path, capsys):
        path = write_state(tmp_path, "r3.json", "random", "3", "--seed", "9", capsys=capsys)
        _, first, _ = run_cli(["measure", str(path), "--all"], capsys)
        _, second, _ = run_cli(["measure", str(path), "--all"], capsys)
        assert first == second
        assert first.endswith("\n")


class TestCheck:
    def test_decomposition_random4(self, tmp_path, capsys):
        path = write_state(tmp_path, "r4.json", "random", "4", "--seed", "7", capsys=capsys)
        code, out, err = run_cli(["check", str(path), "--decomposition"], capsys)
        assert code == 0
        assert json.loads(out)["decomposition"] <= 1e-12
        assert err == ""

    def test_lu_sweep_ghz3(self, tmp_path, capsys):
        path = write_state(tmp_path, "ghz3.json", "ghz", "3", capsys=capsys)
        code, out, _ = run_cli(["check", str(path), "--lu-sweep", "500,42"], capsys)
        assert code == 0
        report = json.loads(out)["lu_sweep"]
        assert report["max_deviation"] <= 1e-9
        assert report["trials"] == 500
        assert report["seed"] == 42

    def test_product_identity_on_bell_is_usage_error(self, tmp_path, capsys):
        path = write_state(tmp_path, "bell.json", "ghz", "2", capsys=capsys)
        code, _, _ = run_cli(["check", str(path), "--product-identity"], capsys)
        assert code == 2

    def test_product_identity_on_ghz3(self, tmp_path, capsys):
        path = write_state(tmp_path, "ghz3.json", "ghz", "3", capsys=capsys)
        code, out, _ = run_cli(["check", str(path), "--product-identity"], capsys)
        assert code == 0
        assert json.loads(out)["product_identity"] <= 1e-10

    def test_covariance_three_qubits_requires_b(self, tmp_path, capsys):
        path = write_state(tmp_path, "ghz3.json", "ghz", "3", capsys=capsys)
        code, out, _ = run_cli(["check", str(path), "--covariance", "B,1,0"], capsys)
        assert code == 0
        relations = {c["relation"] for c in json.loads(out)["covariance"]}
        assert "b_rotation_three_way_0" in relations
        code, _, err = run_cli(["check", str(path), "--covariance", "A,1,0"], capsys)
        assert code == 2
        assert "qubit B" in err

    def test_covariance_four_qubits(self, tmp_path, capsys):
        path = write_state(tmp_path, "r4.json", "random", "4", "--seed", "3", capsys=capsys)
        code, out, _ = run_cli(["check", str(path), "--covariance", "D,0.3,0.7"], capsys)
        assert code == 0
        checks = json.loads(out)["covariance"]
        assert {c["relation"] for c in checks} == {
            "d_rotation_combo_plus",
            "d_rotation_combo_minus",
            "four_invariant_magnitude",
        }
        assert all(c["residual"] <= 1e-9 and c["prefactor"] == 1.0 for c in checks)

    def test_bad_covariance_spec(self, tmp_path, capsys):
        path = write_state(tmp_path, "ghz3.json", "ghz", "3", capsys=capsys)
        for bad in ("B", "B,1", "B,x,0", "E,1,0"):
            code, _, _ = run_cli(["check", str(path), "--covariance", bad], capsys)
            assert code == 2, bad

    def test_bad_lu_sweep_spec(self, tmp_path, capsys):
        path = write_state(tmp_path, "ghz3.json", "ghz", "3", capsys=capsys)
        for bad in ("5", "x,1", "5,y", "-1,3", "5,-3"):
            code, _, _ = run_cli(["check", str(path), "--lu-sweep", bad], capsys)
            assert code == 2, bad

    def test_no_flags_is_usage_error(self, tmp_path, capsys):
        path = write_state(tmp_path, "ghz3.json", "ghz", "3", capsys=capsys)
        code, _, _ = run_cli(["check", str(path)], capsys)
        assert code == 2

    def test_failing_residual_gives_exit_one(self, tmp_path, capsys, monkeypatch):
        path = write_state(tmp_path, "ghz3.json", "ghz", "3", capsys=capsys)
        monkeypatch.setattr("tanglekit.cli.lu_invariance_sweep", lambda s, t, sd: 0.5)
        code, out, err = run_cli(
            ["check", str(path), "--lu-sweep", "5,1", "--product-identity"], capsys
        )
        assert code == 1
        assert json.loads(out)["lu_sweep"]["max_deviation"] == 0.5
        assert err == "tanglekit: check failed: lu_sweep = 0.5 (tolerance 1e-08)\n"

    def test_repeated_seeded_check_is_byte_identical(self, tmp_path, capsys):
        path = write_state(tmp_path, "ghz3.json", "ghz", "3", capsys=capsys)
        args = ["check", str(path), "--lu-sweep", "25,11", "--decomposition"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second


class TestInternalError:
    def test_unexpected_exception_exits_five_with_one_line(self, tmp_path, capsys, monkeypatch):
        path = write_state(tmp_path, "ghz3.json", "ghz", "3", capsys=capsys)

        def broken(state):
            raise RuntimeError("three-tangle forms disagree")

        monkeypatch.setattr("tanglekit.cli.three_tangle", broken)
        code, out, err = run_cli(["measure", str(path), "--tangle3"], capsys)
        assert code == 5
        assert out == ""
        assert err == "tanglekit: internal error: RuntimeError: three-tangle forms disagree\n"
        assert "Traceback" not in err


class TestReportFormatting:
    def test_float_17_significant_digits(self):
        assert format_float(1.0) == "1.0"
        assert format_float(0.0) == "0.0"
        assert format_float(-0.0) == "0.0"
        assert format_float(1 / 3) == "0.33333333333333331"
        assert float(format_float(np.pi)) == np.pi

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            format_float(float("nan"))
        with pytest.raises(ValueError):
            format_float(float("inf"))

    def test_render_json_round_trips(self):
        obj = {"a": 1.0, "b": [0.5, 2, True, "s"], "c": {"nested": 1e-300}}
        assert json.loads(render_json(obj)) == obj


class TestSubprocessEntryPoint:
    def test_module_invocation_matches_contract(self, tmp_path):
        path = tmp_path / "ghz3.json"
        gen = subprocess.run(
            [sys.executable, "-m", "tanglekit", "gen", "ghz", "3", "--out", str(path)],
            capture_output=True,
            text=True,
        )
        assert gen.returncode == 0
        measure = subprocess.run(
            [sys.executable, "-m", "tanglekit", "measure", str(path), "--tangle3"],
            capture_output=True,
            text=True,
        )
        assert measure.returncode == 0
        assert abs(json.loads(measure.stdout)["tangle3"] - 1.0) < 1e-10
        assert measure.stdout.endswith("\n")

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tanglekit", "gen", "w", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
