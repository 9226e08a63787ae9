import contextlib
import errno
import io
import itertools
import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from tanglekit import (
    DensityOperator,
    Fonts,
    enumerate_fonts,
    global_negativity,
    random_state,
    state_from_payload,
)
from tanglekit import cli
from tanglekit.cli import _fonts_json, main
from tanglekit.reporting import format_float, render_json

INV_SQRT2 = 1 / np.sqrt(2)


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def assert_same_text(actual, expected, label=""):
    """Fail with the first differing offset and about 80 characters around it.

    Whole reports run to megabytes, and pytest's diff of a failed ``assert ==``
    on them takes minutes, so the comparison is made outside an assert.
    """
    if actual == expected:
        return
    at = next((i for i, (a, b) in enumerate(zip(actual, expected)) if a != b),
              min(len(actual), len(expected)))
    around = slice(max(at - 40, 0), at + 40)
    pytest.fail(f"{label}texts differ at offset {at} (lengths {len(actual)} and "
                f"{len(expected)}): {actual[around]!r} != {expected[around]!r}", pytrace=False)


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def force_workers(monkeypatch, workers):
    """Make measure run its stages on this many threads: one BLAS thread and as many CPUs."""
    for name in BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)


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

    def test_over_long_seed_is_usage_error(self, capsys):
        # more digits than int() reads; the error line shows only a few of them
        code, out, err = run_cli(["gen", "random", "3", "--seed", "7" * 5000], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("usage:") and "invalid non-negative integer" in err
        assert len(err.splitlines()[-1].encode()) < 200

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
    def test_all_builds_no_operator(self, n, tmp_path, capsys, monkeypatch):
        # every measure of a pure state works on its amplitudes: no rho, no transpose
        path = write_state(tmp_path, "r.json", "random", str(n), capsys=capsys)
        built = []
        validate = DensityOperator.__post_init__

        def counting(self):
            built.append(self)
            validate(self)

        monkeypatch.setattr(DensityOperator, "__post_init__", counting)
        code, _, _ = run_cli(["measure", str(path), "--all"], capsys)
        assert code == 0
        assert built == []

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_trace_leaves_stdout_alone(self, n, tmp_path, capsys, monkeypatch):
        path = write_state(tmp_path, "r.json", "random", str(n), "--seed", "2", capsys=capsys)
        # --all has no fonts stage
        for workers, flags in itertools.product((1, 2), (["--all"], ["--fonts", "1"])):
            force_workers(monkeypatch, workers)
            _, plain, quiet = run_cli(["measure", str(path), *flags], capsys)
            code, traced, err = run_cli(["measure", str(path), *flags, "--trace"], capsys)
            assert code == 0
            assert traced == plain
            assert quiet == ""
            lines = [json.loads(line) for line in err.splitlines()]
            stages, total = lines[:-1], lines[-1]
            # one line per report key, in report order, then the total
            assert [line["stage"] for line in stages] == list(json.loads(plain))
            for line in stages:
                # K = 2 diagonalizes one 2**(n-1) matrix, K >= 3 its 2**(n-2) parity blocks;
                # the closed forms read the 2**(n-1) minor matrix, as K = 2 does at n = 2
                if not line["stage"].startswith("kway_") or n == 2:
                    route = ("closed_form", 2 ** (n - 1))
                elif line["stage"].endswith("_k2"):
                    route = ("half_size", 2 ** (n - 1))
                else:
                    route = ("parity_split", 2 ** (n - 2))
                assert (line["route"], line["dim"]) == route
                assert line["ms"] >= 0
                assert line["worker"] in range(workers)
            assert total["stage"] == "total"
            # stages on different workers overlap; each worker runs its own one at a time
            for worker in range(workers):
                assert total["ms"] >= sum(line["ms"] for line in stages
                                          if line["worker"] == worker)
            assert total["ru_maxrss"] > 0
        assert [line["stage"] for line in stages] == ["fonts_q1"]

    def test_no_flags_is_usage_error(self, tmp_path, capsys):
        path = write_state(tmp_path, "bell.json", "ghz", "2", capsys=capsys)
        code, _, _ = run_cli(["measure", str(path)], capsys)
        assert code == 2

    def test_bad_kway_spec(self, tmp_path, capsys):
        path = write_state(tmp_path, "bell.json", "ghz", "2", capsys=capsys)
        for bad in ("1", "1,9", "0,2", "x,2", "1,y"):
            code, _, _ = run_cli(["measure", str(path), "--kway", bad], capsys)
            assert code == 2, bad

    def test_two_qubit_kway_is_the_global_negativity(self, tmp_path, capsys):
        # at n = 2 the 2-way transpose is the global one; the eigensolve route wrote
        # 0.67962289522005326 for kway_q1_k2 on this state
        path = write_state(tmp_path, "r2.json", "random", "2", "--seed", "3", capsys=capsys)
        argv = ["measure", str(path), "--negativity", "1", "--negativity", "2",
                "--kway", "1,2", "--kway", "2,2"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        value = "0.67962289522005337"
        keys = ("negativity_q1", "negativity_q2", "kway_q1_k2", "kway_q2_k2")
        assert out == "{" + ", ".join(f'"{key}": {value}' for key in keys) + "}\n"

    def test_repeated_run_is_byte_identical(self, tmp_path, capsys):
        path = write_state(tmp_path, "r3.json", "random", "3", "--seed", "9", capsys=capsys)
        _, first, _ = run_cli(["measure", str(path), "--all"], capsys)
        _, second, _ = run_cli(["measure", str(path), "--all"], capsys)
        assert first == second
        assert first.endswith("\n")


class TestStageWorkers:
    """measure runs its stages on one thread per CPU that the BLAS leaves free."""

    @pytest.mark.parametrize("env,cpus,workers", [
        ({}, 2, 1),  # an unpinned OpenBLAS runs one thread per CPU
        ({}, 8, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "2"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "2"}, 5, 2),
        ({"OPENBLAS_NUM_THREADS": "64"}, 2, 1),  # more BLAS threads than CPUs
        ({"OPENBLAS_NUM_THREADS": "0"}, 2, 1),  # not a positive integer: OpenBLAS's default
        ({"OPENBLAS_NUM_THREADS": "abc"}, 2, 1),
        ({"GOTO_NUM_THREADS": "1"}, 2, 2),
        ({"OMP_NUM_THREADS": "1"}, 2, 2),
        # OpenBLAS's order: OPENBLAS_NUM_THREADS, then GOTO_NUM_THREADS, then OMP_NUM_THREADS
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": "2"}, 2, 2),
        ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "abc", "GOTO_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 64, 4),  # the cap
        ({"OPENBLAS_NUM_THREADS": "8"}, 64, 4),
    ])
    def test_worker_count(self, env, cpus, workers, monkeypatch):
        for name in BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1000)  # the affinity mask counts, not this
        assert cli._stage_workers(100) == workers
        assert cli._stage_workers(3) == min(workers, 3)
        assert cli._stage_workers(1) == 1

    @pytest.mark.parametrize("cpu_count,workers", [(3, 3), (None, 1)])
    def test_cpu_count_without_affinity(self, cpu_count, workers, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert cli._stage_workers(100) == workers

    def test_unpinned_blas_starts_no_thread(self, tmp_path, capsys, monkeypatch):
        path = write_state(tmp_path, "r4.json", "random", "4", capsys=capsys)
        for name in BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        code, out, err = run_cli(["measure", str(path), "--all"], capsys)
        assert (code, err, started) == (0, "", [])
        assert len(json.loads(out)) == 2 + 4 + 4 * 3  # tangles, negativities, K-way values

    @pytest.mark.parametrize("kind", ["random", "ghz", "w", "product"])
    def test_stdout_does_not_depend_on_workers(self, kind, tmp_path, capsys, monkeypatch):
        baseline = threading.active_count()
        for n in range(2, 9):
            path = write_state(tmp_path, f"{kind}{n}.json", kind, str(n), "--seed", str(n),
                               capsys=capsys)
            outputs = []
            for workers in (1, 2):
                force_workers(monkeypatch, workers)
                code, out, err = run_cli(["measure", str(path), "--all"], capsys)
                assert (code, err) == (0, "")
                assert threading.active_count() == baseline
                outputs.append(out)
            assert_same_text(outputs[1], outputs[0], f"n = {n}: ")

    def test_four_workers_switching_often(self, tmp_path, capsys, monkeypatch):
        # more workers than this test needs CPUs, and a thread switch every microsecond
        path = write_state(tmp_path, "r6.json", "random", "6", capsys=capsys)
        argv = ["measure", str(path), "--all", "--trace"]
        force_workers(monkeypatch, 1)
        code, expected, _ = run_cli(argv, capsys)
        assert code == 0
        force_workers(monkeypatch, 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                code, out, err = run_cli(argv, capsys)
                assert (code, out) == (0, expected)
                stages = [json.loads(line) for line in err.splitlines()][:-1]
                assert [line["stage"] for line in stages] == list(json.loads(expected))
                assert {line["worker"] for line in stages} <= set(range(4))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_earliest_failing_stage_gives_the_error(self, workers, tmp_path, capsys,
                                                    monkeypatch):
        # on two workers the later stage fails while the earlier one still runs
        path = write_state(tmp_path, "r4.json", "random", "4", capsys=capsys)
        force_workers(monkeypatch, workers)
        baseline = threading.active_count()
        later_failed = threading.Event()
        started, threads = [], set()

        def failing(state, p, k):
            started.append(k)
            threads.add(threading.get_ident())
            if k == 3:
                later_failed.set()
                raise RuntimeError("later stage")
            if workers == 2:
                assert later_failed.wait(timeout=30)
                time.sleep(0.05)  # the later failure is recorded first
            raise RuntimeError("earlier stage")

        monkeypatch.setattr("tanglekit.cli.kway_negativity", failing)
        argv = ["measure", str(path), "--kway", "1,2", "--kway", "1,3", "--kway", "1,4"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (5, "")
        assert err == "tanglekit: internal error: RuntimeError: earlier stage\n"
        # a loop over the stages would stop at the first; no stage starts after a failure
        assert sorted(started) == [2, 3][:workers]
        assert len(threads) == workers
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("workers", [1, 2])
    def test_interrupt_propagates_and_no_later_stage_starts(self, workers, tmp_path, capsys,
                                                           monkeypatch):
        path = write_state(tmp_path, "r5.json", "random", "5", capsys=capsys)
        force_workers(monkeypatch, workers)
        baseline = threading.active_count()
        started = []

        def interrupted(state, p, k):
            started.append(k)
            if k == 2:
                raise KeyboardInterrupt
            time.sleep(0.2)  # a stage claimed before the interrupt runs on past it
            return 0.0

        monkeypatch.setattr("tanglekit.cli.kway_negativity", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["measure", str(path), "--kway", "1,2", "--kway", "1,3", "--kway", "1,4",
                  "--kway", "1,5"])
        assert capsys.readouterr() == ("", "")
        # the interrupted stage, and on two workers at most the one the other worker held
        assert 2 in started and set(started) <= {2, 3}
        assert len(started) <= workers
        assert threading.active_count() == baseline


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

    @pytest.mark.parametrize("command, flag, spec", [
        ("check", "--lu-sweep", "5," + "7" * 5000),
        ("check", "--lu-sweep", "7" * 5000 + ",5"),
        ("measure", "--kway", "1," + "7" * 5000),
        ("measure", "--negativity", "7" * 5000),
        ("measure", "--kway", "1," + "7" * 4000),
        ("measure", "--negativity", "7" * 4000),
    ], ids=["lu-sweep-seed", "lu-sweep-trials", "kway-k", "negativity", "kway-k-4000",
            "negativity-4000"])
    def test_over_long_integer_is_usage_error(self, command, flag, spec, tmp_path, capsys):
        # int() raises ValueError beyond 4,300 digits; shorter ones are echoed in brief
        path = write_state(tmp_path, "ghz3.json", "ghz", "3", capsys=capsys)
        code, out, err = run_cli([command, str(path), flag, spec], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and len(err.encode()) < 200

    def test_bad_lu_sweep_spec(self, tmp_path, capsys):
        path = write_state(tmp_path, "ghz3.json", "ghz", "3", capsys=capsys)
        for bad in ("5", "x,1", "5,y", "-1,3", "5,-3"):
            code, _, _ = run_cli(["check", str(path), "--lu-sweep", bad], capsys)
            assert code == 2, bad

    def test_lu_sweep_trials_are_bounded(self, tmp_path, capsys, monkeypatch):
        # the bound itself reaches the sweep, patched here so that no trial runs
        path = write_state(tmp_path, "r4.json", "random", "4", capsys=capsys)
        swept = []
        monkeypatch.setattr(cli, "lu_invariance_sweep", lambda s, t, sd: swept.append(t) or 0.0)
        bound = cli._MAX_SWEEP_TRIALS
        code, out, err = run_cli(["check", str(path), "--lu-sweep", f"{bound + 1},3"], capsys)
        assert (code, out, swept) == (2, "", [])
        assert err == "tanglekit: --lu-sweep TRIALS must be at most 10,000,000, got 10000001\n"
        code, out, err = run_cli(["check", str(path), "--lu-sweep", f"{bound},3"], capsys)
        assert (code, err, swept) == (0, "", [bound])
        assert json.loads(out)["lu_sweep"] == {"max_deviation": 0.0, "trials": bound, "seed": 3}

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

    @pytest.mark.parametrize("bad", [["--product-identity"], ["--covariance", "C,x,1"],
                                     ["--covariance", "D,nan,0"], ["--lu-sweep", "5"],
                                     ["--lu-sweep", "10000001,1"]])
    def test_bad_request_is_rejected_before_computing(self, bad, tmp_path, capsys,
                                                      monkeypatch):
        path = write_state(tmp_path, "r4.json", "random", "4", capsys=capsys)
        expected = run_cli(["check", str(path), *bad], capsys)

        def density(state):
            raise AssertionError("the decomposition ran before the request was checked")

        monkeypatch.setattr(cli, "density", density)
        code, out, err = run_cli(["check", str(path), "--decomposition", *bad], capsys)
        assert (code, out, err) == expected
        assert code == 2 and err.count("\n") == 1

    @pytest.mark.parametrize("n, qubit", [(3, "B"), (4, "D")])
    def test_value_error_while_computing_is_internal(self, n, qubit, tmp_path, capsys,
                                                     monkeypatch):
        path = write_state(tmp_path, "r.json", "random", str(n), capsys=capsys)

        def broken(*args):
            raise ValueError("state is not normalized: |norm - 1| = 1.000e-03")

        monkeypatch.setattr(cli, f"covariance_check_{n}", broken)
        code, out, err = run_cli(["check", str(path), "--covariance", f"{qubit},0.3,0.7"], capsys)
        assert (code, out) == (5, "")
        assert err == ("tanglekit: internal error: ValueError: "
                       "state is not normalized: |norm - 1| = 1.000e-03\n")

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
        self.assert_matches_rendered_records(kind, n, qubits, tmp_path, capsys)

    @pytest.mark.parametrize("rows", [1, 2, 7])
    @pytest.mark.parametrize("kind", ["random", "product", "ghz", "w"])
    def test_matches_rendered_records_in_small_blocks(self, kind, rows, tmp_path, capsys,
                                                      monkeypatch):
        # 28 fonts at n = 4 fill their last block of 2 or 7; 120 at n = 5 leave one row over
        monkeypatch.setattr(cli, "_FONT_BLOCK_ROWS", rows)
        for n in (4, 5):
            self.assert_matches_rendered_records(kind, n, range(1, n + 1), tmp_path, capsys)

    @staticmethod
    def assert_matches_rendered_records(kind, n, qubits, tmp_path, capsys):
        path = write_state(tmp_path, "s.json", kind, str(n), capsys=capsys)
        state = state_from_payload(json.loads(path.read_text()))
        for p in qubits:
            code, out, err = run_cli(["measure", str(path), "--fonts", str(p)], capsys)
            assert (code, err) == (0, "")
            records = font_records(enumerate_fonts(state, p), n)
            assert_same_text(out, render_json({f"fonts_q{p}": records}) + "\n", f"p = {p}: ")

    @pytest.mark.parametrize("kind", ["random", "product"])
    def test_embedded_between_other_measures(self, kind, tmp_path, capsys):
        path = write_state(tmp_path, "s.json", kind, "4", capsys=capsys)
        state = state_from_payload(json.loads(path.read_text()))
        argv = ["measure", str(path), "--negativity", "1", "--fonts", "1", "--fonts", "2"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        report = {"negativity_q1": global_negativity(state, 1)}
        report.update((f"fonts_q{p}", font_records(enumerate_fonts(state, p), 4)) for p in (1, 2))
        assert_same_text(out, render_json(report) + "\n")


def hand_built_fonts(det_re, det_im, lambda_minus):
    """Fonts of qubit 1 of a 3-qubit state, one row per value, with the given float columns."""
    m = len(det_re)
    det = np.zeros(m, dtype=complex)
    det.real, det.imag = det_re, det_im  # x + 1j * y would turn -0.0 to 0.0 and inf to nan
    return Fonts(1, np.zeros(m, dtype=np.int64), np.full(m, 0b101, dtype=np.int64),
                 np.full(m, 2, dtype=np.int64), det, np.array(lambda_minus, dtype=float),
                 np.arange(m) % 2 == 0)


class TestFontsWriter:
    """The fonts writer on hand-built Fonts: the values %.17g would write unlike format_float."""

    def test_rule_writes_every_value_where_17g_differs(self):
        rng = np.random.default_rng(2024)
        values = [0.0, -0.0, 1.0, -1.0, 3.0, 2.0**52, -(2.0**53), 1e16, 1e300, -1.5e308]
        values += rng.integers(-(2**40), 2**40, size=200).astype(float).tolist()
        values += (2.0 ** rng.integers(0, 1024, size=200)).tolist()
        values += rng.integers(0, 2**64, size=2000, dtype=np.uint64).view(np.float64).tolist()
        values = [x for x in values if np.isfinite(x)]
        differ = [x for x in values if "%.17g" % x != format_float(x)]
        assert {"-0", "0", "3", "4503599627370496"} <= {"%.17g" % x for x in differ}
        for columns in ([values, values, values], [values, [0.5] * len(values), [-0.5] * len(values)],
                        [[0.25] * len(values), [-0.75] * len(values), values]):
            fonts = hand_built_fonts(*columns)
            assert_same_text(_fonts_json(fonts, 3), render_json(font_records(fonts, 3)))

    def test_negative_zero_column_prints_zero(self):
        fonts = hand_built_fonts([0.1], [-0.0], [-0.30000000000000004])
        text = _fonts_json(fonts, 3)
        assert_same_text(text, '[{"i": "000", "j": "101", "p": 1, "k": 2, '
                         '"det_re": 0.10000000000000001, "det_im": 0.0, '
                         '"lambda_minus": -0.30000000000000004, "negligible": true}]')
        assert_same_text(text, render_json(font_records(fonts, 3)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("column", range(3))
    def test_non_finite_raises_the_rule_error(self, bad, column):
        columns = [[0.1, 0.2], [0.3, 0.4], [-0.5, -0.6]]
        columns[column][1] = bad
        with pytest.raises(ValueError) as rule:
            format_float(bad)
        with pytest.raises(ValueError) as writer:
            _fonts_json(hand_built_fonts(*columns), 3)
        assert str(writer.value) == str(rule.value)

    def test_ruled_rows_at_block_edges(self):
        # three full blocks and a short one; rows the rule writes open and close a block
        block = cli._FONT_BLOCK_ROWS
        values = np.random.default_rng(16).uniform(-1.0, 1.0, size=(3, 3 * block + 5))
        for r, ruled in zip([0, block - 1, block, 2 * block - 1, 3 * block, 3 * block + 4],
                            [0.0, -0.0, 3.0, -(2.0**52), 1e300, -1.0]):
            values[r % 3, r] = ruled
        fonts = hand_built_fonts(*values)
        assert_same_text(_fonts_json(fonts, 3), render_json(font_records(fonts, 3)))

    def test_non_finite_in_a_later_block_leaves_stdout_empty(self, tmp_path, capsys,
                                                             monkeypatch):
        path = write_state(tmp_path, "ghz3.json", "ghz", "3", capsys=capsys)
        values = np.full((3, 2 * cli._FONT_BLOCK_ROWS + 3), 0.25)
        values[1, cli._FONT_BLOCK_ROWS + 1] = float("nan")
        monkeypatch.setattr(cli, "enumerate_fonts", lambda state, p: hand_built_fonts(*values))
        with pytest.raises(ValueError) as rule:
            format_float(float("nan"))
        code, out, err = run_cli(["measure", str(path), "--fonts", "1"], capsys)
        assert (code, out) == (5, "")
        assert err == f"tanglekit: internal error: ValueError: {rule.value}\n"

    def test_one_qubit_has_no_fonts(self):
        assert _fonts_json(enumerate_fonts(random_state(1, 0), 1), 1) == "[]"
        assert _fonts_json(hand_built_fonts([], [], []), 3) == "[]"


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

    def test_secular_solve_past_its_step_cap_exits_five(self, tmp_path, capsys, monkeypatch):
        path = write_state(tmp_path, "r5.json", "random", "5", capsys=capsys)
        monkeypatch.setattr("tanglekit.spectra._SECULAR_MAX_STEPS", 1)
        code, out, err = run_cli(["measure", str(path), "--kway", "1,3"], capsys)
        assert (code, out) == (5, "")
        assert err.startswith("tanglekit: internal error: RuntimeError: secular solve: ")
        assert err.endswith(" roots still moving after 1 steps\n") and err.count("\n") == 1


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

    def test_17g_is_the_rule_on_finite_non_integral_doubles(self):
        # the fonts writer's fast path: %.17g wherever format_float would write the same
        rng = np.random.default_rng(2013)
        sign = rng.choice([-1.0, 1.0], size=4000)
        values = np.concatenate([
            rng.integers(0, 2**64, size=20000, dtype=np.uint64).view(np.float64),  # any bits
            sign * rng.uniform(0.0, 1.0, size=4000),
            sign * rng.integers(1, 2**52, size=4000).view(np.float64),  # subnormals
            sign * 1e-300 * rng.uniform(0.5, 2.0, size=4000),
            sign * (2.0**52 - 0.5 - rng.integers(0, 2**20, size=4000)),  # spacing 0.5 below 2**52
            sign * rng.uniform(1e15, 2.0**52, size=4000),
            [np.nextafter(2.0**52, 0.0), -np.nextafter(2.0**52, 0.0), 5e-324, -5e-324],
        ])
        values = values[np.isfinite(values)]  # a signalling nan among the bits would warn in trunc
        values = values[values != np.trunc(values)].tolist()
        assert len(values) > 25000
        assert [x for x in values if "%.17g" % x != format_float(x)] == []

    def test_render_json_round_trips(self):
        obj = {"a": 1.0, "b": [0.5, 2, True, "s"], "c": {"nested": 1e-300}, "d": {}, "e": []}
        assert json.loads(render_json(obj)) == obj
        assert (render_json({}), render_json([])) == ("{}", "[]")

    def test_strings_escaped_as_json_dumps(self):
        obj = {'quote " back \\ tab \t': "caf\u00e9 \u2028 \U0001f600 \x00"}
        assert render_json(obj) == json.dumps(obj)


class TestSubprocessEntryPoint:
    # run() freezes the heap before exit; stdout, stderr and exit code stay those of main()
    ENTRIES = {
        "run": "from tanglekit.__main__ import run; run()",
        "main": "import sys; from tanglekit.cli import main; sys.exit(main())",
    }

    @pytest.mark.parametrize("argv,patch,code", [
        (["gen", "ghz", "3"], "", 0),
        (["measure", "STATE", "--all"], "", 0),
        (["check", "STATE", "--decomposition", "--lu-sweep", "50,3"], "", 0),
        (["--version"], "", 0),
        (["check", "STATE", "--lu-sweep", "5,1"],
         "tanglekit.cli.lu_invariance_sweep = lambda state, trials, seed: 0.5", 1),
        (["gen", "w", "1"], "", 2),
        (["measure"], "", 2),
        (["measure", "MISSING", "--tangle3"], "", 3),
        (["gen", "ghz", "3", "FULL"], "", 3),
        (["measure", "BAD", "--tangle3"], "", 4),
        (["measure", "STATE", "--tangle3"],
         "tanglekit.cli.three_tangle = lambda state: 1 / 0", 5),
    ])
    def test_run_exits_as_main(self, argv, patch, code, tmp_path):
        state, bad = tmp_path / "ghz3.json", tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["gen", "ghz", "3", "--out", str(state)]) == 0
        names = {"STATE": str(state), "BAD": str(bad), "MISSING": str(tmp_path / "no.json")}
        results = []
        with contextlib.ExitStack() as stack:
            stdout = subprocess.PIPE
            if "FULL" in argv:  # a failed stdout write
                if not os.path.exists("/dev/full"):
                    pytest.skip("no /dev/full device")
                stdout = stack.enter_context(open("/dev/full", "wb"))
            argv = [names.get(arg, arg) for arg in argv if arg != "FULL"]
            for entry in self.ENTRIES.values():
                script = f"import tanglekit.cli; {patch}; {entry}" if patch else entry
                proc = subprocess.run([sys.executable, "-c", script, *argv], stdout=stdout,
                                      stderr=subprocess.PIPE, timeout=120)
                results.append((proc.returncode, proc.stdout, proc.stderr))
        assert results[0] == results[1]
        assert results[0][0] == code, results[0][2]

    def test_console_script_runs_run(self):
        tomllib = pytest.importorskip("tomllib")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        assert scripts == {"tanglekit": "tanglekit.__main__:run"}

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

    def test_seeded_lu_sweep_is_byte_identical_across_runs(self, tmp_path):
        path = tmp_path / "r4.json"
        subprocess.run(
            [sys.executable, "-m", "tanglekit", "gen", "random", "4", "--out", str(path)],
            check=True,
        )
        argv = [sys.executable, "-m", "tanglekit", "check", str(path), "--lu-sweep", "700,5"]
        first, second = (subprocess.run(argv, capture_output=True, check=True) for _ in range(2))
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["lu_sweep"]["max_deviation"] < 1e-8

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
