"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s`` or in
the captured output of a failing run).  Golden values are confirmed inside
the tests by independent brute-force evaluation before being compared with
the library, and Monte-Carlo draws are seeded so reruns are reproducible.
"""
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from tanglekit import (
    cluster4,
    covariance_check_3,
    covariance_check_4,
    decomposition_residual,
    density,
    enumerate_fonts,
    font_negativity_2q,
    ghz,
    global_negativity,
    global_pt,
    hermitian_eigenvalues,
    kway_negativity,
    lu_invariance_sweep,
    make_state,
    monogamy_residual,
    product_identity_residual,
    random_state,
    three_qubit_fonts,
    three_tangle,
    four_tangle,
    w_state,
)

from oracles import dense_kway_negativity


def _verdict(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}", flush=True)
    assert ok, f"{name}{suffix}"


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "tanglekit", *args], capture_output=True, text=True
    )


def _random_product_state(n, p, seed):
    rng = np.random.default_rng(seed)
    single = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    rest = rng.standard_normal(2 ** (n - 1)) + 1j * rng.standard_normal(2 ** (n - 1))
    tensor = np.multiply.outer(single, rest).reshape((2,) + (2,) * (n - 1))
    amps = np.moveaxis(tensor, 0, p - 1).reshape(-1)
    return make_state(n, [(format(i, f"0{n}b"), a) for i, a in enumerate(amps) if a != 0])


def test_criterion_1_golden_tangles():
    start = time.perf_counter()

    def brute_tangle3(state):
        a = state.amplitudes
        t0 = a[0b000] * a[0b111] - a[0b011] * a[0b100]
        t1 = a[0b001] * a[0b110] - a[0b010] * a[0b101]
        b0 = a[0b000] * a[0b101] - a[0b001] * a[0b100]
        b1 = a[0b010] * a[0b111] - a[0b011] * a[0b110]
        return 4 * abs((t1 - t0) ** 2 - 4 * b1 * b0)

    def brute_tangle4(state):
        a = state.amplitudes
        f00 = a[0b0000] * a[0b1111] - a[0b0111] * a[0b1000]
        f01 = a[0b0001] * a[0b1110] - a[0b0110] * a[0b1001]
        f10 = a[0b0010] * a[0b1101] - a[0b0101] * a[0b1010]
        f11 = a[0b0011] * a[0b1100] - a[0b0100] * a[0b1011]
        return 4 * abs((f01 - f00) + (f10 - f11)) ** 2

    cases = [
        ("tangle3(ghz3)", three_tangle(ghz(3)), brute_tangle3(ghz(3)), 1.0),
        ("tangle3(w3)", three_tangle(w_state(3)), brute_tangle3(w_state(3)), 0.0),
        ("tangle4(ghz4)", four_tangle(ghz(4)), brute_tangle4(ghz(4)), 1.0),
        ("tangle4(w4)", four_tangle(w_state(4)), brute_tangle4(w_state(4)), 0.0),
        ("tangle4(cluster4)", four_tangle(cluster4()), brute_tangle4(cluster4()), 0.0),
    ]
    worst = max(max(abs(lib - brute), abs(lib - golden)) for _, lib, brute, golden in cases)
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 1: golden tangles",
        worst <= 1e-10 and elapsed < 1.0,
        f"worst dev {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_decomposition_identity():
    start = time.perf_counter()
    worst = 0.0
    for n in (3, 4, 5):
        for trial in range(100):
            rho = density(random_state(n, 10_000 * n + trial))
            for p in range(1, n + 1):
                worst = max(worst, decomposition_residual(rho, p))
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 2: decomposition identity",
        worst <= 1e-12 and elapsed < 30.0,
        f"worst residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_local_unitary_invariance():
    start = time.perf_counter()
    worst = 0.0
    for n in (3, 4):
        for idx in range(20):
            state = random_state(n, 777 * n + idx)
            worst = max(worst, lu_invariance_sweep(state, trials=500, seed=idx))
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 3: local-unitary invariance",
        worst <= 1e-9 and elapsed < 60.0,
        f"worst deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_covariance_relations():
    rng = np.random.default_rng(41)
    worst3 = 0.0
    for trial in range(100):
        state = random_state(3, 3_000 + trial)
        x = complex(rng.standard_normal(), rng.standard_normal())
        worst3 = max(worst3, max(r.residual for r in covariance_check_3(state, x)))

    worst4 = 0.0
    worst_magnitude = 0.0
    prefactors = {}
    for qubit in ("A", "B", "C", "D"):
        for trial in range(100):
            state = random_state(4, 4_000 + trial)
            param = complex(rng.standard_normal(), rng.standard_normal())
            for report in covariance_check_4(state, qubit, param):
                prefactors.setdefault(report.relation, set()).add(report.prefactor_used)
                if report.relation == "four_invariant_magnitude":
                    worst_magnitude = max(worst_magnitude, report.residual)
                else:
                    worst4 = max(worst4, report.residual)

    print("  prefactors reported per relation:")
    for relation in sorted(prefactors):
        values = ", ".join(f"{v:g}" for v in sorted(prefactors[relation]))
        print(f"    {relation}: {values}")

    _verdict(
        "criterion 4: covariance relations",
        worst3 <= 1e-9 and worst4 <= 1e-9 and worst_magnitude <= 1e-9,
        f"3q worst {worst3:.2e}, 4q worst {worst4:.2e}, |invariant| dev {worst_magnitude:.2e}",
    )


def test_criterion_5_product_identity_and_alternate_form():
    worst_identity = 0.0
    worst_forms = 0.0
    for trial in range(200):
        state = random_state(3, 5_000 + trial)
        worst_identity = max(worst_identity, product_identity_residual(state))
        fonts = three_qubit_fonts(state)
        t0, t1 = fonts.three_way
        c0, c1 = fonts.c_fixed
        alternate = 4 * abs((t1 + t0) ** 2 - 4 * c0 * c1)
        worst_forms = max(worst_forms, abs(three_tangle(state) - alternate))
    _verdict(
        "criterion 5: product identity and alternate form",
        worst_identity <= 1e-10 and worst_forms <= 1e-10,
        f"identity {worst_identity:.2e}, form gap {worst_forms:.2e}",
    )


def test_criterion_6_oracle_equivalence():
    worst = max(monogamy_residual(random_state(3, 6_000 + trial)) for trial in range(200))
    _verdict(
        "criterion 6: tangle vs residual-tangle oracle",
        worst <= 1e-8,
        f"worst residual {worst:.2e}",
    )


def test_criterion_7_negativity_cross_checks():
    worst_2q = 0.0
    for trial in range(100):
        state = random_state(2, 7_000 + trial)
        eigs = hermitian_eigenvalues(global_pt(density(state), 1))
        from_eigs = 2 * abs(eigs[eigs < -1e-12].sum())
        worst_2q = max(worst_2q, abs(font_negativity_2q(state) - from_eigs))

    ghz3 = ghz(3)
    deviations = [
        abs(global_negativity(ghz3, 1) - 1.0),
        abs(kway_negativity(ghz3, 1, 3) - 1.0),
        abs(kway_negativity(ghz3, 1, 2)),
        abs(kway_negativity(w_state(3), 1, 3)),
        abs(dense_kway_negativity(density(ghz3), 1, 3) - 1.0),
        abs(dense_kway_negativity(density(ghz3), 1, 2)),
        abs(dense_kway_negativity(density(w_state(3)), 1, 3)),
    ]
    _verdict(
        "criterion 7: negativity cross-checks",
        worst_2q <= 1e-10 and max(deviations) <= 1e-10,
        f"2q font-vs-eigs {worst_2q:.2e}, named-state dev {max(deviations):.2e}",
    )


def test_criterion_8_separability_direction():
    rng = np.random.default_rng(8)
    worst_neg = 0.0
    all_flagged = True
    for trial in range(50):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, n + 1))
        state = _random_product_state(n, p, 8_000 + trial)
        worst_neg = max(worst_neg, global_negativity(state, p))
        all_flagged = all_flagged and bool(enumerate_fonts(state, p).negligible.all())
    _verdict(
        "criterion 8: separability direction",
        worst_neg <= 1e-10 and all_flagged,
        f"worst negativity {worst_neg:.2e}, all fonts flagged: {all_flagged}",
    )


def test_criterion_9_cli_contract(tmp_path):
    ok = True
    notes = []

    # gen examples
    ghz3_path = tmp_path / "ghz3.json"
    proc = _cli("gen", "ghz", "3", "--out", str(ghz3_path))
    payload = json.loads(ghz3_path.read_text())
    entries_ok = len(payload["amplitudes"]) == 2 and all(
        abs(e["re"] - 1 / np.sqrt(2)) < 1e-12 for e in payload["amplitudes"]
    )
    ok &= proc.returncode == 0 and entries_ok
    notes.append(f"gen ghz exit {proc.returncode}")

    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    _cli("gen", "random", "4", "--seed", "7", "--out", str(a_path))
    _cli("gen", "random", "4", "--seed", "7", "--out", str(b_path))
    ok &= a_path.read_bytes() == b_path.read_bytes()
    notes.append("gen determinism " + ("ok" if a_path.read_bytes() == b_path.read_bytes() else "BAD"))

    proc = _cli("gen", "w", "1")
    ok &= proc.returncode == 2
    notes.append(f"gen w 1 exit {proc.returncode}")

    # measure examples
    w4_path = tmp_path / "w4.json"
    _cli("gen", "w", "4", "--out", str(w4_path))
    bell_path = tmp_path / "bell.json"
    _cli("gen", "ghz", "2", "--out", str(bell_path))

    proc = _cli("measure", str(ghz3_path), "--tangle3")
    value = json.loads(proc.stdout)["tangle3"]
    ok &= proc.returncode == 0 and abs(value - 1.0) <= 1e-10
    notes.append(f"tangle3 {value:.12f}")

    proc = _cli("measure", str(w4_path), "--tangle4")
    value = json.loads(proc.stdout)["tangle4"]
    ok &= proc.returncode == 0 and abs(value) <= 1e-10
    notes.append(f"tangle4 {value:.2e}")

    proc = _cli("measure", str(bell_path), "--tangle3")
    ok &= proc.returncode == 2
    notes.append(f"measure mismatch exit {proc.returncode}")

    # check examples
    rand4_path = tmp_path / "rand4.json"
    _cli("gen", "random", "4", "--seed", "7", "--out", str(rand4_path))
    proc = _cli("check", str(rand4_path), "--decomposition")
    value = json.loads(proc.stdout)["decomposition"]
    ok &= proc.returncode == 0 and value <= 1e-12
    notes.append(f"decomposition {value:.2e}")

    proc = _cli("check", str(ghz3_path), "--lu-sweep", "500,42")
    deviation = json.loads(proc.stdout)["lu_sweep"]["max_deviation"]
    ok &= proc.returncode == 0 and deviation <= 1e-9
    repeat = _cli("check", str(ghz3_path), "--lu-sweep", "500,42")
    ok &= repeat.stdout == proc.stdout
    notes.append(f"lu-sweep {deviation:.2e}")

    proc = _cli("check", str(bell_path), "--product-identity")
    ok &= proc.returncode == 2
    notes.append(f"check mismatch exit {proc.returncode}")

    _verdict("criterion 9: CLI contract", ok, "; ".join(notes))
