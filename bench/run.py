"""tanglekit benchmark: the real CLI in a closed loop, checked against a NumPy reference.

    python3 bench/run.py --workload {measure-all,fonts,lu-checks} --seed N
                         --seconds S --trace {0,1}

Run from the root of a checkout; tanglekit is imported from its ``src``.
One client runs one ``python -m tanglekit`` child at a time, each started
after the previous one exits, with BLAS/OpenMP pinned to one thread in the
child's environment.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the same ops in-process with spans around every public
function (see tracing.py) and prints the per-layer metrics.  The last
stdout line is the result object; the line before it records the
environment, sample counts and any failures.  NOTES.md says why each
workload and metric exists.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
PINNED_THREADS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
SETUP_RUNS = 9  # at least this many `--version` samples per run
SETUP_EVERY_S = 2.0
OP_TIMEOUT_S = 120.0
TANGLEKIT = [sys.executable, "-m", "tanglekit"]


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), **PINNED_THREADS)


def spawn(argv: list[str], env: dict, stdout_path: Path, stderr_path: Path):
    """Run one child to completion; returns (wall seconds, exit code, peak RSS in KiB).

    ``os.wait4`` gives this child's own peak RSS; RUSAGE_CHILDREN would give
    the maximum over every child so far.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code  # already reaped: keeps Popen from waiting on the pid again
    return wall, code, usage.ru_maxrss


def judge(ops, records, first_outputs: dict[int, bytes]) -> list[str | None]:
    """Failure reason for each (op index, exit code, stdout digest) record, None if it passed.

    The first run of each op is checked against the reference; every rerun
    of the same op must exit 0 with byte-identical stdout.
    """
    verdict, first_digest, reasons = {}, {}, []
    for index, code, digest in records:
        if index not in verdict:
            errors = reference.verify(ops[index], code, first_outputs[index])
            verdict[index] = "; ".join(errors[:3]) or None
            first_digest[index] = digest
            reasons.append(verdict[index])
        elif code != 0:
            reasons.append(f"exit code {code}")
        elif digest != first_digest[index]:
            reasons.append("stdout differs from the first run of the same op")
        else:
            reasons.append(verdict[index])
    return reasons


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "pinned_threads": PINNED_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def timed_run(ops, seconds: float, work: Path) -> tuple[dict, dict, int, int]:
    env = child_env()
    out_path, err_path = work / "stdout", work / "stderr"
    setup = []

    def sample_setup() -> float:
        wall, code, _ = spawn(TANGLEKIT + ["--version"], env, out_path, err_path)
        if code != 0:
            raise RuntimeError(f"`tanglekit --version` exited {code}: "
                               f"{err_path.read_text(errors='replace')[-500:]}")
        setup.append(wall)
        return time.perf_counter()

    sample_setup()  # byte-compiles the package
    setup.clear()
    records, walls, rss, first_outputs = [], [], [], {}
    t_start = last_setup = time.perf_counter()
    while not records or time.perf_counter() - t_start < seconds:
        # set-up samples are spread over the run so a burst of load skews few of them
        if time.perf_counter() - last_setup >= SETUP_EVERY_S:
            last_setup = sample_setup()
        index = len(records) % len(ops)
        wall, code, maxrss = spawn(TANGLEKIT + ops[index].argv, env, out_path, err_path)
        out = out_path.read_bytes()
        if code != 0:
            sys.stderr.write(err_path.read_text(errors="replace")[-2000:])
        first_outputs.setdefault(index, out)
        records.append((index, code, hashlib.sha256(out).digest()))
        walls.append(wall)
        rss.append(maxrss)

    while len(setup) < SETUP_RUNS:
        sample_setup()

    reasons = judge(ops, records, first_outputs)
    failed = sum(r is not None for r in reasons)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "ops_per_s": ((len(records) - failed) / sum(walls), "1/s"),
        "peak_rss_mb": (max(rss) / 1024.0, "MiB"),
        "ok_frac": ((len(records) - failed) / len(records), "ratio"),
    }
    details = {
        "samples": {"setup_s": len(setup), "op_p50_s": len(walls), "ops_per_s": len(walls),
                    "peak_rss_mb": len(rss), "ok_frac": len(records)},
        "fail_frac": failed / len(records),
        "reruns_checked_identical": len(records) - len(first_outputs),
        "op_walls_s": walls,
        "failures": [r for r in reasons if r is not None][:5],
    }
    return metrics, details, len(records), failed


def traced_run(ops, seconds: float, work: Path) -> tuple[dict, dict, int, int]:
    manifest = work / "manifest.json"
    manifest.write_text(json.dumps({
        "ops": [op.argv for op in ops], "seconds": seconds, "out_dir": str(work),
    }), encoding="utf-8")
    child = subprocess.run(
        [sys.executable, str(BENCH / "tracing.py"), str(manifest)],
        env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, timeout=3 * seconds + 60,
        check=True,
    )
    result = json.loads(child.stdout.decode().splitlines()[-1])
    records = result["records"]
    first_outputs = {r["index"]: (work / f"op{r['index']}.out").read_bytes() for r in records}
    traced = judge(ops, [(r["index"], r["code"], r["digest"]) for r in records], first_outputs)
    untraced = [
        reason or ("untraced stdout differs from traced stdout"
                   if r["untraced_code"] != 0 or r["untraced_digest"] != r["digest"] else None)
        for r, reason in zip(records, traced)
    ]
    reasons = traced + untraced
    failed = sum(r is not None for r in reasons)
    spans, names = tracing.load_spans(work / "spans.npz")
    layers = tracing.layer_metrics(spans, names)
    layers["cli.stdout_bytes"] = float(result["stdout_bytes"])
    layers["trace_overhead_s"] = sum(r["wall"] - r["untraced_wall"] for r in records)
    metrics = {name: (value, tracing.unit(name)) for name, value in layers.items()}
    details = {
        "samples": {"traced_ops": len(records), "untraced_ops": len(records),
                    "spans": len(spans["start"]), "wrapped_functions": result["wrapped"]},
        "fail_frac": failed / len(reasons),
        "failures": [r for r in reasons if r is not None][:5],
    }
    return metrics, details, len(reasons), failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tanglekit" / "__init__.py").is_file():
        print(f"bench: no tanglekit sources under {SRC}", file=sys.stderr)
        return 2

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        ops = workloads.build(args.workload, args.seed, work)
        run = traced_run if args.trace else timed_run
        metrics, details, attempted, failed = run(ops, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for reason in details["failures"]:
        print(f"bench: failed op: {reason}", file=sys.stderr)
    details.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, environment=environment())
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
