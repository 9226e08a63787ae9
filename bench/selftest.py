"""Self-test of the benchmark's checker: corrupted CLI output must count as failed.

    python3 bench/selftest.py

Runs the real CLI from the checkout's ``src`` on a 5-qubit state (the
negativities of qubit 3, and ``measure --fonts 2``), confirms that the
genuine outputs pass, then perturbs one negativity, drops one font and
changes a rerun's bytes, and confirms that each is counted as failed.  Exits 0 when
every expectation holds, 1 otherwise.
"""
from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import run
import workloads


def _record(index: int, out: bytes) -> tuple[int, int, bytes]:
    return index, 0, hashlib.sha256(out).digest()


def main() -> int:
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.ROOT / ".bench_work"))
    try:
        amps = workloads.haar_state(np.random.default_rng(7), 5)
        path = work / "state.json"
        workloads.write_state(path, amps)
        ops = [workloads.measure_ops(path, amps)[2], workloads.fonts_op(path, amps, 2)]
        outputs = []
        for op in ops:
            _, code, _ = run.spawn(run.TANGLEKIT + op.argv, run.child_env(),
                                   work / "stdout", work / "stderr")
            if code != 0:
                print(f"selftest: {op.argv} exited {code}", file=sys.stderr)
                return 1
            outputs.append((work / "stdout").read_bytes())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = json.loads(outputs[0])
    measured["kway_q3_k2"] += 1e-6
    fonts = json.loads(outputs[1])
    del fonts["fonts_q2"][17]
    corrupted = [json.dumps(measured).encode(), json.dumps(fonts).encode()]

    cases = {
        "genuine outputs pass": (
            run.judge(ops, [_record(0, outputs[0]), _record(1, outputs[1])], dict(enumerate(outputs))),
            [False, False]),
        "perturbed negativity and dropped font fail": (
            run.judge(ops, [_record(0, corrupted[0]), _record(1, corrupted[1])],
                      dict(enumerate(corrupted))),
            [True, True]),
        "a rerun with different bytes fails": (
            run.judge(ops, [_record(0, outputs[0]), _record(0, corrupted[0])], {0: outputs[0]}),
            [False, True]),
    }
    ok = True
    for name, (reasons, want_failed) in cases.items():
        passed = [r is not None for r in reasons] == want_failed
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {name}: {reasons}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
