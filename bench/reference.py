"""Independent NumPy checker for tanglekit's CLI output.

Nothing here imports tanglekit.  Global negativities come from the SVD of
the 2 x 2**(n-1) amplitude matrix (2 s1 s2); K-way negativities from this
module's own index-flip partial transpose and ``eigvalsh``; font
determinants from the amplitude minors; the check reports from the
residual threshold and the echoed sweep parameters.
"""
from __future__ import annotations

import json
import math

import numpy as np

VALUE_TOL = 1e-9
FONT_TOL = 1e-12
CHECK_TOL = 1e-8
NEG_EIG_TOL = 1e-12

# relations reported by `check --covariance`, per qubit count and target
COVARIANCE_RELATIONS = {(3, "B"): 7, (4, "A"): 5, (4, "B"): 3, (4, "C"): 2, (4, "D"): 3}


def _qubit_matrix(amps: np.ndarray, p: int) -> np.ndarray:
    """Amplitudes as a 2 x 2**(n-1) matrix whose rows fix bit p (qubit 1 most significant)."""
    n = int(amps.size).bit_length() - 1
    return np.moveaxis(amps.reshape((2,) * n), p - 1, 0).reshape(2, -1)


def _popcount(values: np.ndarray) -> np.ndarray:
    count = np.zeros(values.shape, dtype=np.uint8)
    while values.any():
        count += (values & 1).astype(np.uint8)
        values = values >> 1
    return count


def measure_all_expected(amps: np.ndarray) -> dict[str, float]:
    """Every value `measure --all` reports for n >= 5, keyed as the CLI keys them."""
    n = int(amps.size).bit_length() - 1
    expected = {}
    for p in range(1, n + 1):
        s = np.linalg.svd(_qubit_matrix(amps, p), compute_uv=False)
        expected[f"negativity_q{p}"] = float(2.0 * s[0] * s[1])
    rho = np.outer(amps, amps.conj())
    idx = np.arange(amps.size)
    xor = idx[:, None] ^ idx[None, :]
    distance = _popcount(xor)
    for p in range(1, n + 1):
        bit = 1 << (n - p)
        # flipping bit p in both labels swaps it between them where they differ
        flipped = rho[np.ix_(idx ^ bit, idx ^ bit)]
        differs = (xor & bit) != 0
        for k in range(2, n + 1):
            selected = (distance <= 2) if k == 2 else (distance == k)
            eigs = np.linalg.eigvalsh(np.where(selected & differs, flipped, rho))
            expected[f"kway_q{p}_k{k}"] = float(2.0 * abs(eigs[eigs < -NEG_EIG_TOL].sum()))
    return expected


def _check_measure_all(report: dict, expected: dict) -> list[str]:
    if set(report) != set(expected):
        return [f"keys differ: missing {sorted(set(expected) - set(report))[:3]}, "
                f"extra {sorted(set(report) - set(expected))[:3]}"]
    return [
        f"{key} = {report[key]!r}, reference {want!r}"
        for key, want in expected.items()
        if not (isinstance(report[key], float) and abs(report[key] - want) <= VALUE_TOL)
    ]


def _check_fonts(report: dict, amps: np.ndarray, p: int) -> list[str]:
    n = int(amps.size).bit_length() - 1
    fonts = report.get(f"fonts_q{p}")
    if set(report) != {f"fonts_q{p}"} or not isinstance(fonts, list):
        return [f"expected only fonts_q{p}, got keys {sorted(report)[:3]}"]
    want = math.comb(2 ** (n - 1), 2)
    if len(fonts) != want:
        return [f"{len(fonts)} fonts, expected C(2^{n - 1}, 2) = {want}"]
    try:
        i = np.array([int(f["i"], 2) for f in fonts])
        j = np.array([int(f["j"], 2) for f in fonts])
        det = np.array([complex(f["det_re"], f["det_im"]) for f in fonts])
        k = np.array([f["k"] for f in fonts])
        lam = np.array([f["lambda_minus"] for f in fonts], dtype=float)
        fields_ok = all(f["p"] == p and len(f["i"]) == n == len(f["j"]) for f in fonts)
    except ValueError as exc:
        return [f"malformed font record: {exc!r}"]
    bit = 1 << (n - p)
    errors = []
    if not fields_ok:
        errors.append("a font has the wrong p or label length")
    if np.any(i & bit) or not np.all(j & bit):
        errors.append("a font is not in canonical form (i_p = 0, j_p = 1)")
    if np.unique((i & ~bit) * amps.size + (j & ~bit)).size != want:
        errors.append("duplicate fonts")
    minor = amps[i] * amps[j] - amps[j ^ bit] * amps[i ^ bit]
    worst = float(np.abs(det - minor).max())
    if worst > FONT_TOL:
        errors.append(f"font det differs from the amplitude minor by {worst:.3e}")
    if np.any(k != _popcount(i ^ j)):
        errors.append("a font k is not the Hamming distance of its labels")
    if float(np.abs(lam + np.abs(minor)).max()) > FONT_TOL:
        errors.append("a font lambda_minus differs from -|det|")
    return errors


def _check_lu(report: dict, expected: dict) -> list[str]:
    n = expected["n"]
    keys = {"covariance", "lu_sweep"} | ({"product_identity"} if n == 3 else set())
    if set(report) != keys:
        return [f"keys {sorted(report)}, expected {sorted(keys)}"]
    errors = []
    sweep = report["lu_sweep"]
    if sweep.get("trials") != expected["trials"] or sweep.get("seed") != expected["seed"]:
        errors.append(f"sweep echoed trials={sweep.get('trials')} seed={sweep.get('seed')}, "
                      f"ran {expected['trials']},{expected['seed']}")
    relations = report["covariance"]
    if len(relations) != COVARIANCE_RELATIONS[(n, expected["qubit"])]:
        errors.append(f"{len(relations)} covariance relations for qubit {expected['qubit']}")
    residuals = {"lu_sweep": sweep.get("max_deviation")}
    residuals.update((r.get("relation"), r.get("residual")) for r in relations)
    if n == 3:
        residuals["product_identity"] = report["product_identity"]
    errors += [
        f"{name} residual {value!r} is not below {CHECK_TOL}"
        for name, value in residuals.items()
        if not (isinstance(value, float) and 0.0 <= value < CHECK_TOL)
    ]
    return errors


def verify(op, returncode: int, stdout: bytes) -> list[str]:
    """Reasons the op's result is wrong; empty when it matches the reference."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    if not isinstance(report, dict):
        return ["stdout is not a JSON object"]
    try:
        if op.kind == "measure-all":
            return _check_measure_all(report, op.expected)
        if op.kind == "fonts":
            return _check_fonts(report, op.amps, op.expected["p"])
        return _check_lu(report, op.expected)
    except (AttributeError, KeyError, TypeError) as exc:
        return [f"malformed report: {exc!r}"]
