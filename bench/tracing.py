"""Traced in-process run: spans around tanglekit's public functions, per-layer metrics.

Run as ``python bench/tracing.py MANIFEST`` with ``src`` on PYTHONPATH; the
manifest lists the ops' argv, the seconds to spend and an output directory.
The child runs one warm-up op, then the op cycle untraced for half the time,
then the same ops with every public function of the six modules wrapped.
Each op's stdout, and at the end the spans, go to the output directory
for the caller to verify and turn into per-layer metrics.

A span records name, start, end and parent (plus one work figure, see AUX)
in flat arrays kept in memory.  Self time is a span's duration minus the
time its child spans cover.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import io
import json
import sys
import time
import traceback
from array import array
from pathlib import Path

import numpy as np

MODULES = ("cli", "states", "transpose", "spectra", "invariants", "reporting")
VALIDATED_CLASSES = ("PureState", "LocalUnitary", "DensityOperator", "BasisIndex")


# work recorded with a span, computed from its arguments and result
AUX = {
    "spectra.hermitian_eigenvalues": lambda args, result: float(len(result)),
    "spectra.enumerate_fonts": lambda args, result: float(len(result)),
    "reporting.render_json": lambda args, result: float(len(result)),
    "invariants.lu_invariance_sweep": lambda args, result: float(args[1]),
    # computed bytes moved: global_pt reads rho and writes its transpose; kway_pt
    # (beside its nested global_pt) reads both and writes the selected mix
    "transpose.global_pt": lambda args, result: 2.0 * result.matrix.nbytes,
    "transpose.kway_pt": lambda args, result: 3.0 * result.matrix.nbytes,
    "states.PureState.validate": lambda args, result: float(args[0].amplitudes.nbytes),
    "states.LocalUnitary.validate": lambda args, result: float(args[0].matrix.nbytes),
    "states.DensityOperator.validate": lambda args, result: float(args[0].matrix.nbytes),
    # one 8-byte tuple slot per bit
    "states.BasisIndex.validate": lambda args, result: 8.0 * len(args[0].bits),
}


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.aux = array("d")
        self._stack = [-1]

    def wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        aux = AUX.get(name)
        stack, name_id, parent = self._stack, self.name_id, self.parent
        start, end, work = self.start, self.end, self.aux
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and name_id[top] == nid:
                return fn(*args, **kwargs)  # direct recursion stays in the outer span
            idx = len(start)
            name_id.append(nid)
            parent.append(top)
            start.append(0.0)
            end.append(0.0)
            work.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if aux is not None:
                work[idx] = aux(args, result)
            return result

        return traced

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 aux=np.frombuffer(self.aux))


def load_spans(path: Path) -> tuple[dict[str, np.ndarray], list[str]]:
    with np.load(path) as data:
        spans = {key: data[key] for key in ("name_id", "parent", "start", "end", "aux")}
        return spans, [str(name) for name in data["names"]]


def install(tracer: Tracer) -> int:
    """Wrap every public function of the six modules wherever tanglekit binds it.

    ``cli``, ``invariants`` and ``spectra`` import functions by name, so the
    wrapper replaces each binding in every tanglekit module; a binding left
    unwrapped would silently miss spans, so one raises instead.  Returns the
    number of wrapped functions.
    """
    originals = {}
    for short in MODULES:
        module = importlib.import_module(f"tanglekit.{short}")
        for attr, obj in vars(module).items():
            if not attr.startswith("_") and inspect.isfunction(obj) \
                    and obj.__module__ == module.__name__:
                originals[id(obj)] = (obj, tracer.wrap(obj, f"{short}.{attr}"))
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "tanglekit"]
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if id(obj) in originals and originals[id(obj)][0] is obj:
                setattr(module, attr, originals[id(obj)][1])
    states = importlib.import_module("tanglekit.states")
    for cls_name in VALIDATED_CLASSES:
        cls = getattr(states, cls_name)
        cls.__post_init__ = tracer.wrap(cls.__post_init__, f"states.{cls_name}.validate")
    for module in modules:
        for attr, obj in vars(module).items():
            if id(obj) in originals and originals[id(obj)][0] is obj:
                raise RuntimeError(f"{module.__name__}.{attr} is still unwrapped")
    return len(originals) + len(VALIDATED_CLASSES)


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith(("_calls", "_dim", "fonts_emitted")):
        return "count"
    if metric.endswith(("_bytes", "bytes_moved")):
        return "B"
    return "ratio" if metric.endswith("_share") else "s"


def layer_metrics(spans: dict[str, np.ndarray], names: list[str]) -> dict[str, float]:
    """Per-layer metrics from the span arrays; ``_s`` totals are inclusive span time."""
    dur = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    covered = np.bincount(spans["parent"][has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    self_time = dur - covered
    ids = {name: i for i, name in enumerate(names)}

    def pick(*fns: str) -> np.ndarray:
        return np.isin(spans["name_id"], [ids[f] for f in fns if f in ids])

    def total(*fns: str) -> float:
        return float(dur[pick(*fns)].sum())

    def calls(*fns: str) -> float:
        return float(pick(*fns).sum())

    def work(*fns: str) -> float:
        return float(spans["aux"][pick(*fns)].sum())

    def per_call(*fns: str) -> float:
        n = calls(*fns)
        return total(*fns) / n if n else 0.0

    validate = [f"states.{c}.validate" for c in VALIDATED_CLASSES]
    minors = ("invariants.three_qubit_fonts", "invariants.four_qubit_fonts")
    tangles = ("invariants.three_tangle", "invariants.four_tangle")
    eig = "spectra.hermitian_eigenvalues"
    sweep = "invariants.lu_invariance_sweep"
    trials = work(sweep)
    cli_total = total("cli.main")
    return {
        "cli.self_s": float(self_time[pick("cli.main")].sum()),
        "states.validate_s": total(*validate),
        "states.validate_calls": calls(*validate),
        "states.validated_bytes": work(*validate),
        "states.density_operator_validate_s_per_call": per_call("states.DensityOperator.validate"),
        "states.density_s": total("states.density"),
        "states.density_calls": calls("states.density"),
        "states.apply_local_unitary_s": total("states.apply_local_unitary"),
        "states.apply_local_unitary_calls": calls("states.apply_local_unitary"),
        "states.haar_unitary_s": total("states.haar_unitary"),
        "states.haar_unitary_calls": calls("states.haar_unitary"),
        "states.state_from_payload_s": total("states.state_from_payload"),
        "transpose.global_pt_s": total("transpose.global_pt"),
        "transpose.global_pt_calls": calls("transpose.global_pt"),
        "transpose.global_pt_s_per_call": per_call("transpose.global_pt"),
        "transpose.kway_pt_s": total("transpose.kway_pt"),
        "transpose.kway_pt_calls": calls("transpose.kway_pt"),
        "transpose.kway_pt_s_per_call": per_call("transpose.kway_pt"),
        "transpose.bytes_moved": work("transpose.global_pt", "transpose.kway_pt"),
        "spectra.eigensolve_s": total(eig),
        "spectra.eigensolve_calls": calls(eig),
        "spectra.eigensolve_dim": float(spans["aux"][pick(eig)].max(initial=0.0)),
        "spectra.eigensolve_s_per_call": per_call(eig),
        "spectra.eigensolve_share": total(eig) / cli_total if cli_total else 0.0,
        "spectra.global_negativity_s": total("spectra.global_negativity"),
        "spectra.global_negativity_calls": calls("spectra.global_negativity"),
        "spectra.kway_negativity_s": total("spectra.kway_negativity"),
        "spectra.kway_negativity_calls": calls("spectra.kway_negativity"),
        "spectra.enumerate_fonts_s": total("spectra.enumerate_fonts"),
        "spectra.enumerate_fonts_s_per_call": per_call("spectra.enumerate_fonts"),
        "spectra.fonts_emitted": work("spectra.enumerate_fonts"),
        "invariants.font_minors_s": total(*minors),
        "invariants.font_minors_calls": calls(*minors),
        "invariants.tangle_s": total(*tangles),
        "invariants.tangle_calls": calls(*tangles),
        "invariants.lu_sweep_s_per_trial": total(sweep) / trials if trials else 0.0,
        "invariants.covariance_s": total("invariants.covariance_check_3",
                                         "invariants.covariance_check_4"),
        "reporting.render_json_s": total("reporting.render_json"),
        "reporting.render_json_bytes": work("reporting.render_json"),
    }


def _run_op(main, argv: list[str]) -> tuple[float, int, bytes]:
    """Run the CLI in-process; returns wall seconds, exit code and stdout bytes."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught error fails this op, as it would the CLI process
            traceback.print_exc()
            code = 1
    return time.perf_counter() - t0, code, sink.getvalue().encode("utf-8")


def run(manifest: dict) -> dict:
    import tanglekit.cli

    ops, out_dir = manifest["ops"], Path(manifest["out_dir"])
    _run_op(tanglekit.cli.main, ops[0])  # warm-up: fills lazy caches for both phases

    order, untraced = [], []
    t_start = time.perf_counter()
    while not order or time.perf_counter() - t_start < manifest["seconds"] / 2:
        index = len(order) % len(ops)
        wall, code, out = _run_op(tanglekit.cli.main, ops[index])
        order.append(index)
        untraced.append((wall, code, hashlib.sha256(out).hexdigest()))

    tracer = Tracer()
    wrapped = install(tracer)
    records, stdout_bytes = [], 0
    for (untraced_wall, untraced_code, untraced_digest), index in zip(untraced, order):
        wall, code, out = _run_op(tanglekit.cli.main, ops[index])
        stdout_bytes += len(out)
        path = out_dir / f"op{index}.out"
        if not path.exists():
            path.write_bytes(out)
        records.append({
            "index": index, "code": code, "untraced_code": untraced_code,
            "digest": hashlib.sha256(out).hexdigest(), "untraced_digest": untraced_digest,
            "wall": wall, "untraced_wall": untraced_wall,
        })

    tracer.save(out_dir / "spans.npz")
    return {"records": records, "stdout_bytes": stdout_bytes, "wrapped": wrapped}


if __name__ == "__main__":
    result = run(json.loads(Path(sys.argv[1]).read_text(encoding="utf-8")))
    print(json.dumps(result))
