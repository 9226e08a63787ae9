"""Seeded inputs and the op list of each benchmark workload.

Every workload is a short cycle of distinct CLI invocations ("ops") over
state files this module generates with its own NumPy code; the benchmark
runs the cycle round robin, one op at a time.  Reference data that is
expensive to compute (the K-way spectra) is prepared here, before timing.
See NOTES.md for why each workload exists.
"""
from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

WORKLOADS = ("measure-all", "fonts", "lu-checks")

MEASURE_ALL_QUBITS = 9
FONTS_QUBITS = 9
LU_TRIALS = 2000
# Two 3-qubit ops per 4-qubit op: the two kinds take different times, and the
# median of an even mix would jump between them with the parity of the op count.
LU_QUBIT_CYCLE = (3, 4, 3, 3, 4, 3)


@dataclass
class Op:
    """One CLI invocation and what the checker needs to judge its stdout."""

    argv: list[str]
    kind: str
    amps: np.ndarray
    expected: dict


def haar_state(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return z / np.linalg.norm(z)


def write_state(path: Path, amps: np.ndarray) -> None:
    """Write amplitudes in tanglekit's state-file format (floats round-trip exactly)."""
    n = int(amps.size).bit_length() - 1
    entries = [
        {"index": format(i, f"0{n}b"), "re": float(a.real), "im": float(a.imag)}
        for i, a in enumerate(amps)
    ]
    path.write_text(json.dumps({"n_qubits": n, "amplitudes": entries}) + "\n", encoding="utf-8")


def measure_ops(path: Path, amps: np.ndarray) -> list[Op]:
    """One `measure` op per qubit P: its global and every K-way negativity.

    Together the ops do the work of `measure --all`.  Split per qubit, an op
    takes about a second instead of 6-7 s, so a run holds dozens of them.
    """
    n = int(amps.size).bit_length() - 1
    expected = reference.measure_all_expected(amps)
    ops = []
    for p in range(1, n + 1):
        argv = ["measure", str(path), "--negativity", str(p)]
        keys = [f"negativity_q{p}"]
        for k in range(2, n + 1):
            argv += ["--kway", f"{p},{k}"]
            keys.append(f"kway_q{p}_k{k}")
        ops.append(Op(argv, "measure-all", amps, {key: expected[key] for key in keys}))
    return ops


def fonts_op(path: Path, amps: np.ndarray, p: int) -> Op:
    return Op(["measure", str(path), "--fonts", str(p)], "fonts", amps, {"p": p})


def lu_op(path: Path, amps: np.ndarray, rng: np.random.Generator) -> Op:
    n = int(amps.size).bit_length() - 1
    seed = int(rng.integers(0, 2**31))
    qubit = "B" if n == 3 else "ABCD"[int(rng.integers(0, 4))]
    re, im = (float(x) for x in rng.uniform(-1.0, 1.0, size=2))
    argv = ["check", str(path), "--lu-sweep", f"{LU_TRIALS},{seed}",
            "--covariance", f"{qubit},{re!r},{im!r}"]
    if n == 3:
        argv.append("--product-identity")
    return Op(argv, "lu-checks", amps, {"n": n, "qubit": qubit, "trials": LU_TRIALS, "seed": seed})


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """Generate the workload's state files under ``work`` and return its op cycle."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    if workload == "measure-all":
        # one state per run: its 72 reference eigensolves cost about one op cycle
        amps = haar_state(rng, MEASURE_ALL_QUBITS)
        path = work / "measure_all.json"
        write_state(path, amps)
        return measure_ops(path, amps)
    if workload == "fonts":
        amps = haar_state(rng, FONTS_QUBITS)
        path = work / "fonts.json"
        write_state(path, amps)
        return [fonts_op(path, amps, p) for p in range(1, FONTS_QUBITS + 1)]
    if workload == "lu-checks":
        ops = []
        for i, n in enumerate(LU_QUBIT_CYCLE):
            amps = haar_state(rng, n)
            path = work / f"lu_{i}.json"
            write_state(path, amps)
            ops.append(lu_op(path, amps, rng))
        return ops
    raise ValueError(f"unknown workload {workload!r}")
