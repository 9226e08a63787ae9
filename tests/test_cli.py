import errno
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from tanglekit import DensityOperator, enumerate_fonts, global_negativity, state_from_payload
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

    @pytest.mark.parametrize("kind,n,least", [("ghz", 11, 2), ("w", 1, 2), ("random", 0, 1),
                                              ("random", 11, 1), ("product", 0, 1),
                                              ("product", 11, 1)])
    def test_qubit_count_errors_share_one_message(self, kind, n, least, capsys):
        code, out, err = run_cli(["gen", kind, str(n)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"tanglekit: requires {least} <= n <= 10 qubits, got {n}\n"

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

    @pytest.mark.parametrize("argv", [
        ["ghz", "٣"], ["ghz", "３"], ["ghz", "+3"], ["ghz", "0_3"],
        ["random", "3", "--seed", "٧"], ["random", "3", "--seed", "+7"],
        ["random", "3", "--seed", "7_0"],
    ])
    def test_non_ascii_digit_integer_is_usage_error(self, argv, capsys):
        # int() would read each of these; argparse reports them with its usage line
        code, out, err = run_cli(["gen", *argv], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("usage:") and "invalid non-negative integer" in err

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

    def test_over_deep_json_is_bad_state(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run_cli(["measure", str(path), "--all"], capsys)
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1 and "not valid JSON" in err

    def test_non_utf8_file_is_bad_state(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run_cli(["measure", str(path), "--negativity", "1"], capsys)
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1 and "UTF-8" in err

    @pytest.mark.parametrize("label", ["ß", "ﬁ", "２"])
    @pytest.mark.parametrize("flag", ["--negativity", "--fonts", "--kway"])
    def test_non_ascii_qubit_is_usage_error(self, tmp_path, capsys, flag, label):
        path = write_state(tmp_path, "ghz3.json", "ghz", "3", capsys=capsys)
        value = f"{label},2" if flag == "--kway" else label
        code, out, err = run_cli(["measure", str(path), flag, value], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "invalid qubit" in err

    @pytest.mark.parametrize("k", ["٣", "３", "+3", "0_3", "-3"])
    def test_non_ascii_digit_k_is_usage_error(self, tmp_path, capsys, k):
        path = write_state(tmp_path, "r4.json", "random", "4", capsys=capsys)
        code, out, err = run_cli(["measure", str(path), "--kway", f"1,{k}"], capsys)
        assert code == 2
        assert out == ""
        assert err == f"tanglekit: --kway expects an integer K, got {k!r}\n"

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

    @pytest.mark.parametrize(
        "index", ["0\u0661", "\uff10\uff11"], ids=["arabic-indic", "fullwidth"]
    )
    def test_non_ascii_digit_index_is_bad_state(self, index, tmp_path, capsys):
        path = tmp_path / "digits.json"
        entry = {"index": index, "re": 1.0, "im": 0.0}
        path.write_text(json.dumps({"n_qubits": 2, "amplitudes": [entry]}), encoding="utf-8")
        code, out, err = run_cli(["measure", str(path), "--negativity", "1"], capsys)
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1 and "only 0 and 1" in err

    @pytest.mark.parametrize(
        "value",
        ['"0.6"', "true", "null", "1" * 400, "1" * 5000],
        ids=["string", "bool", "null", "past-float-range", "past-int-digit-limit"],
    )
    def test_non_number_amplitude_is_bad_state(self, value, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"n_qubits": 1, "amplitudes": [{"index": "0", "re": %s, "im": 0.0}]}' % value
        )
        code, out, err = run_cli(["measure", str(path), "--negativity", "1"], capsys)
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "n_qubits,entry,position",
        [
            ("3", "[" * 900 + "]" * 900, 1),
            ("3", '{"index": "111", "re": "%s", "im": 0}' % ("x" * 5000), 1),
            ("3", '"%s"' % ("x" * 5000), 1),
            ("3", '{"index": "%s", "re": 1, "im": 0}' % ("0" * 3000), None),
            ('"%s"' % ("y" * 3000), None, None),
            ("9" * 4000, None, None),
        ],
        ids=["deep-list", "long-re", "long-entry", "long-index", "long-string-n", "long-int-n"],
    )
    def test_diagnostic_quotes_shortened_values(self, n_qubits, entry, position, tmp_path,
                                                capsys):
        # the one stderr line quotes at most a shortened repr of the offending value
        good = '{"index": "000", "re": 1.0, "im": 0.0}'
        entries = good if entry is None else f"{good}, {entry}"
        path = tmp_path / "long.json"
        path.write_text('{"n_qubits": %s, "amplitudes": [%s]}' % (n_qubits, entries))
        code, out, err = run_cli(["measure", str(path), "--all"], capsys)
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1 and len(err) < 200
        if position is not None:
            assert f"malformed amplitude entry {position}: " in err

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

    @pytest.mark.parametrize("n", [4, 5])
    def test_all_builds_rho_once(self, n, tmp_path, capsys, monkeypatch):
        path = write_state(tmp_path, "r.json", "random", str(n), capsys=capsys)
        built = []
        validate = DensityOperator.__post_init__

        def counting(self):
            built.append(self)
            validate(self)

        monkeypatch.setattr(DensityOperator, "__post_init__", counting)
        code, _, _ = run_cli(["measure", str(path), "--all"], capsys)
        assert code == 0
        # rho, then one K-way transpose per (p, K)
        assert len(built) == 1 + n * (n - 1)

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

    @pytest.mark.parametrize("n", [4, 5])
    def test_decomposition_builds_rho_once(self, n, tmp_path, capsys, monkeypatch):
        path = write_state(tmp_path, "r.json", "random", str(n), capsys=capsys)
        built = []
        validate = DensityOperator.__post_init__

        def counting(self):
            built.append(self)
            validate(self)

        monkeypatch.setattr(DensityOperator, "__post_init__", counting)
        code, _, _ = run_cli(["check", str(path), "--decomposition"], capsys)
        assert code == 0
        # rho alone: the transposes summed in the residual are plain matrices
        assert len(built) == 1

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

    @pytest.mark.parametrize("spec", ["ß,0.1,0.2", "ﬁ,0.1,0.2", "２,0.1,0.2"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_non_ascii_covariance_qubit_is_usage_error(self, tmp_path, capsys, n, spec):
        path = write_state(tmp_path, "r.json", "random", str(n), capsys=capsys)
        code, out, err = run_cli(["check", str(path), "--covariance", spec], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "invalid qubit" in err

    def test_bad_covariance_spec(self, tmp_path, capsys):
        path = write_state(tmp_path, "ghz3.json", "ghz", "3", capsys=capsys)
        for bad in ("B", "B,1", "B,x,0", "E,1,0"):
            code, _, _ = run_cli(["check", str(path), "--covariance", bad], capsys)
            assert code == 2, bad

    @pytest.mark.parametrize("param", ["nan,0", "0,nan", "inf,0", "-inf,0", "1e160,0", "1e200,0"])
    @pytest.mark.parametrize("n, qubit", [(3, "B"), (4, "A"), (4, "B")])
    def test_unbounded_covariance_parameter_is_usage_error(self, tmp_path, capsys, n, qubit, param):
        path = write_state(tmp_path, "r.json", "random", str(n), "--seed", "2", capsys=capsys)
        code, out, err = run_cli(["check", str(path), "--covariance", f"{qubit},{param}"], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("tanglekit: rotation parameter")

    @pytest.mark.parametrize("param", ["١.٥,0", "1_0,0", "0,1_0", "１,0", "0,２"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_non_ascii_covariance_parameter_is_usage_error(self, tmp_path, capsys, n, param):
        path = write_state(tmp_path, "r.json", "random", str(n), capsys=capsys)
        code, out, err = run_cli(["check", str(path), "--covariance", f"B,{param}"], capsys)
        assert code == 2
        assert out == ""
        assert err == "tanglekit: invalid --covariance parameter: expected re,im floats\n"

    @pytest.mark.parametrize("spec", ["٥٠,٤٢", "5_0,4_2", "+50,42", "50,３", "50,-3"])
    def test_non_ascii_digit_lu_sweep_is_usage_error(self, tmp_path, capsys, spec):
        path = write_state(tmp_path, "ghz3.json", "ghz", "3", capsys=capsys)
        code, out, err = run_cli(["check", str(path), "--lu-sweep", spec], capsys)
        assert code == 2
        assert out == ""
        assert err == "tanglekit: --lu-sweep expects non-negative integers TRIALS,SEED\n"

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


def font_records(fonts, n):
    """The fonts report as one dict per font, the form render_json once wrote it from."""
    label = f"0{n}b"
    columns = (fonts.i, fonts.j, fonts.k, fonts.det, fonts.lambda_minus, fonts.negligible)
    return [
        {
            "i": format(i, label),
            "j": format(j, label),
            "p": fonts.p,
            "k": k,
            "det_re": det.real,
            "det_im": det.imag,
            "lambda_minus": lambda_minus,
            "negligible": negligible,
        }
        for i, j, k, det, lambda_minus, negligible in zip(*(c.tolist() for c in columns))
    ]


# every qubit up to n = 7, the first, a middle and the last at n = 9; ghz and w need n >= 2
FONT_CASES = [(kind, n, range(1, n + 1)) for n in range(1, 8)
              for kind in ("random", "product", "ghz", "w")[: 2 if n == 1 else 4]]
FONT_CASES += [(kind, 9, (1, 5, 9)) for kind in ("random", "product", "ghz", "w")]


class TestFontsReport:
    """The fonts writer against render_json of one dict per font, byte for byte."""

    @pytest.mark.parametrize("kind, n, qubits", FONT_CASES,
                             ids=[f"{kind}{n}" for kind, n, _ in FONT_CASES])
    def test_matches_rendered_records(self, kind, n, qubits, tmp_path, capsys):
        path = write_state(tmp_path, "s.json", kind, str(n), capsys=capsys)
        state = state_from_payload(json.loads(path.read_text()))
        for p in qubits:
            code, out, err = run_cli(["measure", str(path), "--fonts", str(p)], capsys)
            assert (code, err) == (0, "")
            records = font_records(enumerate_fonts(state, p), n)
            assert out == render_json({f"fonts_q{p}": records}) + "\n", p

    @pytest.mark.parametrize("kind", ["random", "product"])
    def test_embedded_between_other_measures(self, kind, tmp_path, capsys):
        path = write_state(tmp_path, "s.json", kind, "4", capsys=capsys)
        state = state_from_payload(json.loads(path.read_text()))
        argv = ["measure", str(path), "--negativity", "1", "--fonts", "1", "--fonts", "2"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        report = {"negativity_q1": global_negativity(state, 1)}
        report.update((f"fonts_q{p}", font_records(enumerate_fonts(state, p), 4)) for p in (1, 2))
        assert out == render_json(report) + "\n"


class FullStdout(io.TextIOBase):
    """A stdout on a full device: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestStdoutWriteFailure:
    MESSAGE = (f"tanglekit: cannot write stdout: [Errno {errno.ENOSPC}] "
               f"{os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.parametrize("argv", [
        ["gen", "ghz", "3"],
        ["measure", "STATE", "--tangle3"],
        ["check", "STATE", "--decomposition"],
    ], ids=["gen", "measure", "check"])
    def test_failed_write_is_io_error(self, argv, tmp_path, capsys, monkeypatch):
        path = write_state(tmp_path, "ghz3.json", "ghz", "3", capsys=capsys)
        monkeypatch.setattr(sys, "stdout", FullStdout())
        code, _, err = run_cli([str(path) if a == "STATE" else a for a in argv], capsys)
        assert code == 3
        assert err == self.MESSAGE

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_full_device_exits_three(self):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "tanglekit", "gen", "ghz", "3"],
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        assert proc.returncode == 3
        assert proc.stderr == self.MESSAGE

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_kept_bytes_are_not_flushed_again_at_exit(self):
        # _pyio's stdout keeps the bytes it failed to write; flushing them again at
        # interpreter exit would print a second error and turn exit 3 into 120
        script = ("import _pyio, sys; sys.stdout = _pyio.open(1, 'w', closefd=False); "
                  "from tanglekit.cli import main; sys.exit(main(['gen', 'ghz', '3']))")
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-c", script], stdout=full,
                                  stderr=subprocess.PIPE, text=True, timeout=120)
        assert proc.returncode == 3
        assert proc.stderr == self.MESSAGE

    @pytest.mark.skipif(os.name != "posix", reason="needs a pipe with its read end closed")
    def test_closed_pipe_exits_three(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "tanglekit", "gen", "ghz", "3"],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 3
        assert proc.stderr == (f"tanglekit: cannot write stdout: [Errno {errno.EPIPE}] "
                               f"{os.strerror(errno.EPIPE)}\n")


class TestClosedStdout:
    MESSAGE = (f"tanglekit: cannot write stdout: [Errno {errno.EBADF}] "
               f"{os.strerror(errno.EBADF)}\n")

    @pytest.mark.parametrize("argv", [
        ["gen", "ghz", "3"],
        ["measure", "STATE", "--tangle3"],
        ["check", "STATE", "--decomposition"],
    ], ids=["gen", "measure", "check"])
    def test_missing_stdout_is_io_error(self, argv, tmp_path, capsys, monkeypatch):
        # Python sets sys.stdout to None when fd 1 is closed at start-up
        path = write_state(tmp_path, "ghz3.json", "ghz", "3", capsys=capsys)
        monkeypatch.setattr(sys, "stdout", None)
        code, _, err = run_cli([str(path) if a == "STATE" else a for a in argv], capsys)
        assert code == 3
        assert err == self.MESSAGE

    @pytest.mark.skipif(os.name != "posix", reason="closes fd 1 with a POSIX shell")
    def test_closed_fd_exits_three(self):
        proc = subprocess.run(["sh", "-c", '"$0" -m tanglekit gen ghz 3 >&-', sys.executable],
                              stderr=subprocess.PIPE, text=True, timeout=120)
        assert proc.returncode == 3
        assert proc.stderr == self.MESSAGE


class ClosedStderr(io.TextIOBase):
    """A stderr on a closed descriptor: every write fails."""

    def write(self, text):
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))


class TestStderrWriteFailure:
    """A diagnostic that cannot be written leaves the exit code and stdout as they were."""

    def run_without_stderr(self, argv, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stderr", ClosedStderr())
        return run_cli(argv, capsys)

    def test_missing_file_is_io_error(self, capsys, monkeypatch):
        code, out, _ = self.run_without_stderr(
            ["measure", "/no/such/state.json", "--tangle3"], capsys, monkeypatch)
        assert (code, out) == (3, "")

    def test_usage_error(self, capsys, monkeypatch):
        code, out, _ = self.run_without_stderr(["gen", "w", "1"], capsys, monkeypatch)
        assert (code, out) == (2, "")

    def test_failed_check(self, tmp_path, capsys, monkeypatch):
        path = write_state(tmp_path, "ghz3.json", "ghz", "3", capsys=capsys)
        monkeypatch.setattr("tanglekit.cli.lu_invariance_sweep", lambda s, t, sd: 0.5)
        argv = ["check", str(path), "--lu-sweep", "5,1"]
        expected = run_cli(argv, capsys)[1]
        code, out, _ = self.run_without_stderr(argv, capsys, monkeypatch)
        assert (code, out) == (1, expected)

    def test_success_with_warning(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "unnormalized.json"
        path.write_text(
            json.dumps({"n_qubits": 2, "amplitudes": [{"index": "00", "re": 2.0, "im": 0.0}]})
        )
        code, out, _ = self.run_without_stderr(
            ["measure", str(path), "--negativity", "1"], capsys, monkeypatch)
        assert (code, out) == (0, '{"negativity_q1": 0.0}\n')

    @pytest.mark.skipif(os.name != "posix", reason="closes fd 2 with a POSIX shell")
    def test_closed_fd_keeps_exit_code(self):
        proc = subprocess.run(
            ["sh", "-c", '"$0" -m tanglekit measure /no/such/state.json --tangle3 2>&-',
             sys.executable], stdout=subprocess.PIPE, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (3, "")


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

    def test_strings_escaped_as_json_dumps(self):
        obj = {'quote " back \\ tab \t': "caf\u00e9 \u2028 \U0001f600 \x00"}
        assert render_json(obj) == json.dumps(obj)


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

    def test_nan_covariance_parameter_prints_no_warning(self, tmp_path):
        path = tmp_path / "ghz4.json"
        subprocess.run(
            [sys.executable, "-m", "tanglekit", "gen", "ghz", "4", "--out", str(path)], check=True
        )
        proc = subprocess.run(
            [sys.executable, "-m", "tanglekit", "check", str(path), "--covariance", "B,nan,0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "tanglekit: rotation parameter must be finite with 1 + |x|^2 finite, got (nan+0j)\n"
        )

    def test_normalization_warning_is_one_line(self, tmp_path):
        path = tmp_path / "unnormalized.json"
        path.write_text(
            json.dumps({"n_qubits": 2, "amplitudes": [{"index": "00", "re": 2.0, "im": 0.0}]})
        )
        proc = subprocess.run(
            [sys.executable, "-m", "tanglekit", "measure", str(path), "--negativity", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == '{"negativity_q1": 0.0}\n'
        assert proc.stderr == (
            "tanglekit: warning: state file required a normalization correction of 1.000e+00\n"
        )
