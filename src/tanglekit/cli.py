"""Command-line front end for state generation, measures, and identity checks.

    tanglekit gen KIND N [--seed S] [--out PATH]
    tanglekit measure STATE.json [--tangle3] [--tangle4] [--negativity P]
                                 [--kway P,K] [--fonts P] [--all] [--trace]
    tanglekit check STATE.json [--decomposition] [--product-identity]
                               [--covariance Q,RE,IM] [--lu-sweep TRIALS,SEED]

Reports are a single JSON object on stdout, newline-terminated; diagnostics
go to stderr.  Exit codes: 0 success, 1 check failure, 2 usage error,
3 I/O error, 4 invalid state data, 5 internal error.  On exit 1, ``check``
names each failed check on stderr, one line each with its residual and
the tolerance.  ``measure`` and ``check`` compute each reported value in a
stage; ``_run_stages`` runs ``measure``'s on one thread per CPU that the BLAS leaves
free (see ``_stage_workers``; stdout does not depend on how many), ``check``'s on one.
``measure --trace`` writes, after the report, one JSON line per measure to stderr
(stage, route, dim, ms, and the worker that ran it, 0 being the calling thread),
then one with the total ms and ru_maxrss.  Stages return plain data, such as a
``spectra.Fonts``, and ``render_json`` writes all of its text with the report.
Each flag's fields are split here and checked by the library function that
owns their rule (see ``states``), whose ValueError ``_checked`` makes a usage
error; the qubit count a flag needs is checked by ``states._check_count``, and
its error line is led by the flag.  ``gen product`` draws ``states.random_product_state``.
"""
from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import reprlib
import sys
import threading
import time
import warnings
from collections.abc import Callable
from functools import partial

from . import __version__
from .invariants import (
    covariance_check_3,
    covariance_check_4,
    four_invariant,
    four_tangle,
    lu_invariance_sweep,
    product_identity_residual,
    three_tangle,
)
from .reporting import render_json
from .spectra import enumerate_fonts, global_negativity, kway_negativity
from .spectra import _CLOSED_FORM, _kway_route  # the routes measure --trace names
from .states import (
    PureState,
    _ascii_integer,
    _check_count,
    _check_kway,
    cluster4,
    density,
    ghz,
    parse_qubit,
    random_product_state,
    random_state,
    state_from_payload,
    state_to_payload,
    su2_rotation,
    w_state,
)
from .transpose import decomposition_residual

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_BAD_STATE = 4
EXIT_INTERNAL = 5

CHECK_TOL = 1e-8

# gen's kinds in --help order: constructors of (n, seed) that check n (cluster4 in _cmd_gen)
_GENERATORS = {"ghz": lambda n, seed: ghz(n), "w": lambda n, seed: w_state(n),
               "cluster4": lambda n, seed: cluster4(), "product": random_product_state,
               "random": random_state}
# about 2 minutes of --lu-sweep at 4 qubits, at about 11 us a trial
_MAX_SWEEP_TRIALS = 10_000_000
# stage threads at most: each extra worker adds the working set of one stage,
# about 26 MiB of peak RSS at n = 10 (measure --all: 56 MiB on one worker, 82 MiB on two);
# 3 and 4 workers are unmeasured, as the measurements ran on 2 CPUs
_MAX_STAGE_WORKERS = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _checked(check: Callable[..., object], *args: object, flag: str = "") -> object:
    """check(*args), whose ValueError on bad input becomes a usage error, led by flag if given."""
    try:
        return check(*args)
    except ValueError as exc:
        raise CliError(f"{flag} {exc}" if flag else str(exc)) from None


def _fields(text: str, flag: str, spec: str) -> list[str]:
    """The comma-separated fields of a flag's value, as many as spec (such as 'P,K') names."""
    fields = text.split(",")
    if len(fields) != spec.count(",") + 1:
        raise CliError(f"{flag} expects {spec}, got {reprlib.repr(text)}")
    return fields


def _natural(text: str) -> int:
    """The argparse type of a non-negative integer, read by states._ascii_integer."""
    if (value := _ascii_integer(text)) is None:
        raise argparse.ArgumentTypeError(f"invalid non-negative integer: {reprlib.repr(text)}")
    return value


def _diagnose(line: str) -> None:
    """Write one line to stderr; a stderr that cannot take it leaves the exit code alone."""
    if sys.stderr is not None:  # print(file=None) would write to stdout
        with contextlib.suppress(OSError, ValueError):
            print(line, file=sys.stderr)


def _load_state(path: str) -> PureState:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO) from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{path} is not UTF-8 text: {exc}", EXIT_BAD_STATE) from exc
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an over-long integer or over-deep nesting
        raise CliError(f"{path} is not valid JSON: {exc}", EXIT_BAD_STATE) from exc
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            state = state_from_payload(payload)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}", EXIT_BAD_STATE) from exc
    for warning in caught:  # one stderr line each, without Python's source-line format
        _diagnose(f"tanglekit: warning: {warning.message}")
    return state


def _write_report(report: dict, path: str | None = None) -> None:
    """Write a report as one JSON line to stdout or to path; a failed write is an I/O error."""
    text = render_json(report)  # the newline is written on its own, not copied onto the text
    try:
        if path is None:
            if sys.stdout is None:  # what Python makes of an fd 1 closed at start-up
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            for start in range(0, len(text), 1 << 16):  # no whole encoded copy of the text
                sys.stdout.write(text[start:start + (1 << 16)])
            sys.stdout.write("\n")
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
                handle.write("\n")
    except OSError as exc:
        where = "stdout" if path is None else path
        # stdout may keep the bytes, and its flush at exit would fail again
        if path is None and sys.stdout is not None:
            with contextlib.suppress(OSError, ValueError), open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())  # raises for a stream with no fd
        raise CliError(f"cannot write {where}: {exc}", EXIT_IO) from exc


def _cmd_gen(args: argparse.Namespace) -> int:
    kind, n = args.kind, args.n
    if kind == "cluster4" and n is not None:
        _checked(_check_count, n, 4, 4, flag=kind)
    if kind != "cluster4" and n is None:
        raise CliError(f"kind {kind!r} requires a qubit count")
    _write_report(state_to_payload(_checked(_GENERATORS[kind], n, args.seed)), args.out)
    return EXIT_OK


def _stage_workers(stages: int) -> int:
    """Threads for measure's stages: one per CPU that the BLAS leaves free, at least one.

    The BLAS thread count is OpenBLAS's own: the first positive integer among
    OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS, else one thread per CPU.
    So an unpinned BLAS gets one worker, the calling thread: stage threads competing with
    BLAS threads are slower (measure --all at n = 10 on 2 CPUs, unpinned: 6.6-6.8 s on two
    workers, 4.6 s on one).
    """
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    names = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    # the first positive setting: filter drops 0 and None (unset or not ASCII digits)
    blas = next(filter(None, (_ascii_integer(os.environ.get(name, "")) for name in names)), cpus)
    return max(1, min(stages, cpus // blas, _MAX_STAGE_WORKERS))


def _run_stages(stages: dict[str, Callable[[], object]],
                workers: int) -> dict[str, tuple[object, float, int]]:
    """Run the stages on this many threads; return (value, ms, worker) by key.

    The stages share no state, and their eigensolves, SVDs and matrix products release the
    GIL.  Workers, the calling thread being worker 0, claim stages in order from one iterator
    and write only the results of their own stages.  After the first failure no stage starts;
    once every worker has stopped, the earliest stage's failure is raised, as a loop would.
    """
    computations = list(stages.values())
    results: list = [None] * len(computations)
    claims = iter(range(len(computations)))
    failed = threading.Event()
    lock = threading.Lock()

    def work(worker: int) -> None:
        while True:
            # claim or refuse in one step: a worker that read the flag after taking a claim
            # would drop that stage, and a later stage's error could hide its own failure
            with lock:
                index = None if failed.is_set() else next(claims, None)
            if index is None:
                return
            began = time.perf_counter()
            try:
                value = computations[index]()
            except BaseException as exc:  # KeyboardInterrupt too: the calling thread raises it
                results[index] = exc
                failed.set()
                return
            results[index] = (value, round(1000.0 * (time.perf_counter() - began), 3), worker)

    threads = []
    try:
        for worker in range(1, workers):
            thread = threading.Thread(target=work, args=(worker,))
            thread.start()
            threads.append(thread)
        work(0)  # returns once the claims are used up or refused: no stage starts after it
    except BaseException:  # a thread that would not start, or an interrupt between stages
        failed.set()
        raise
    finally:
        for thread in threads:
            thread.join()
    for result in results:  # the stages before the earliest failure all ran
        if isinstance(result, BaseException):
            raise result
    return dict(zip(stages, results))


def _cmd_measure(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    state = _load_state(args.state)
    n = state.n_qubits

    if args.tangle3:
        _checked(_check_count, n, 3, 3, flag="--tangle3")
    if args.tangle4:
        _checked(_check_count, n, 4, 4, flag="--tangle4")

    neg_qubits = sorted({_checked(parse_qubit, t, n) for t in args.negativity})
    kway_pairs = set()
    for text in args.kway:
        p_text, k_text = _fields(text, "--kway", "P,K")
        p = _checked(parse_qubit, p_text, n)
        if (k := _ascii_integer(k_text)) is None:
            raise CliError(f"--kway expects an integer K, got {reprlib.repr(k_text)}")
        _checked(_check_kway, k, n)
        kway_pairs.add((p, k))
    font_qubits = sorted({_checked(parse_qubit, t, n) for t in args.fonts})
    if args.all:
        neg_qubits = list(range(1, n + 1))
        kway_pairs = {(p, k) for p in range(1, n + 1) for k in range(2, n + 1)}

    # report key -> computation in report order, and --trace's (route, matrix side) of each
    # K-way stage as spectra names it; the other stages read the 2**(n-1) minor matrix
    stages: dict[str, Callable[[], object]] = {}
    routes: dict[str, tuple[str, int]] = {}
    if args.tangle3 or (args.all and n == 3):
        stages["tangle3"] = partial(three_tangle, state)
    if args.tangle4 or (args.all and n == 4):
        stages["tangle4"] = partial(four_tangle, state)
        if args.all:
            stages["four_invariant_abs"] = lambda: abs(four_invariant(state))
    stages |= {f"negativity_q{p}": partial(global_negativity, state, p) for p in neg_qubits}
    for p, k in sorted(kway_pairs):
        key = f"kway_q{p}_k{k}"
        stages[key], routes[key] = partial(kway_negativity, state, p, k), _kway_route(n, k)
    stages |= {f"fonts_q{p}": partial(enumerate_fonts, state, p) for p in font_qubits}
    if not stages:
        raise CliError("no measures requested")

    results = _run_stages(stages, _stage_workers(len(stages)))
    _write_report({key: value for key, (value, *_) in results.items()})
    if args.trace:
        import resource  # Unix only, so imported where the trace needs it

        for key, (_, ms, worker) in results.items():
            route, dim = routes.get(key, (_CLOSED_FORM, 2 ** (n - 1)))
            _diagnose(json.dumps(dict(stage=key, route=route, dim=dim, ms=ms, worker=worker)))
        ms = round(1000.0 * (time.perf_counter() - started), 3)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        _diagnose(json.dumps({"stage": "total", "ms": ms, "ru_maxrss": peak}))
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    state = _load_state(args.state)
    n = state.n_qubits

    # report key -> computation in report order; none runs before every flag has passed
    stages: dict[str, Callable[[], object]] = {}
    if args.decomposition:
        _checked(_check_count, n, 2, flag="--decomposition")
        stages["decomposition"] = lambda: max(
            map(partial(decomposition_residual, density(state)), range(1, n + 1)))
    if args.product_identity:
        _checked(_check_count, n, 3, 3, flag="--product-identity")
        stages["product_identity"] = partial(product_identity_residual, state)
    if args.covariance:
        q_text, *floats = _fields(args.covariance, "--covariance", "Q,RE,IM")
        # float() alone would also read non-ASCII digits like '١.٥' and underscores like '1_0'
        try:
            if not all(t.isascii() and "_" not in t for t in floats):
                raise ValueError
            param = complex(*map(float, floats))
        except ValueError:
            raise CliError("invalid --covariance parameter: expected re,im floats") from None
        _checked(_check_count, n, 3, 4, flag="--covariance")
        qubit = _checked(parse_qubit, q_text, n)
        if n == 3 and qubit != 2:
            raise CliError("three-qubit covariance relations are stated for qubit B")
        _checked(su2_rotation, param)
        stages["covariance"] = lambda: [
            {"relation": c.relation, "residual": c.residual, "prefactor": c.prefactor_used}
            for c in (covariance_check_4(state, qubit, param) if n == 4
                      else covariance_check_3(state, param))]
    if args.lu_sweep:
        _checked(_check_count, n, 3, 4, flag="--lu-sweep")
        trials, seed = map(_ascii_integer, _fields(args.lu_sweep, "--lu-sweep", "TRIALS,SEED"))
        if trials is None or seed is None:
            raise CliError("--lu-sweep expects non-negative integers TRIALS,SEED")
        if trials > _MAX_SWEEP_TRIALS:
            raise CliError(f"--lu-sweep TRIALS must be at most {_MAX_SWEEP_TRIALS:,}, "
                           f"got {reprlib.repr(trials)}")
        stages["lu_sweep"] = lambda: {"max_deviation": lu_invariance_sweep(state, trials, seed),
                                      "trials": trials, "seed": seed}
    if not stages:
        raise CliError("no checks requested")

    # one worker: at n <= 4 the checks are small NumPy calls that hold the GIL between them
    report = {key: value for key, (value, *_) in _run_stages(stages, 1).items()}
    _write_report(report)
    residuals = []  # each check's residuals in report order, one per covariance relation
    for key, value in report.items():
        if key == "covariance":
            residuals += [(f"covariance:{c['relation']}", c["residual"]) for c in value]
        else:
            residuals.append((key, value["max_deviation"] if key == "lu_sweep" else value))
    failed = [(name, value) for name, value in residuals if not value < CHECK_TOL]
    for name, value in failed:
        _diagnose(f"tanglekit: check failed: {name} = {value!r} (tolerance {CHECK_TOL!r})")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tanglekit",
        description="Entanglement measures and identity checks for N-qubit pure states.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a state file")
    gen.add_argument("kind", choices=_GENERATORS)
    gen.add_argument("n", type=_natural, nargs="?", default=None, help="number of qubits")
    gen.add_argument("--seed", type=_natural, default=0, help="seed for random/product kinds")
    gen.add_argument("--out", "-o", default=None, help="output path (default: stdout)")
    gen.set_defaults(handler=_cmd_gen)

    measure = sub.add_parser("measure", help="compute measures of a state file")
    measure.add_argument("state", help="path to a state JSON file")
    measure.add_argument("--tangle3", action="store_true")
    measure.add_argument("--tangle4", action="store_true")
    measure.add_argument("--negativity", action="append", default=[], metavar="P")
    measure.add_argument("--kway", action="append", default=[], metavar="P,K")
    measure.add_argument("--fonts", action="append", default=[], metavar="P")
    measure.add_argument("--all", action="store_true", help="every measure valid for the state")
    measure.add_argument("--trace", action="store_true",
                         help="write each stage's route, matrix size and time to stderr")
    measure.set_defaults(handler=_cmd_measure)

    check = sub.add_parser("check", help="run identity and invariance checks")
    check.add_argument("state", help="path to a state JSON file")
    check.add_argument("--decomposition", action="store_true")
    check.add_argument("--product-identity", action="store_true")
    check.add_argument("--covariance", default=None, metavar="Q,RE,IM")
    check.add_argument("--lu-sweep", default=None, metavar="TRIALS,SEED")
    check.set_defaults(handler=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        _diagnose(f"tanglekit: {exc}")
        return exc.code
    except Exception as exc:  # a defect, not bad input: one line instead of a traceback
        message = " ".join(str(exc).split())
        _diagnose(f"tanglekit: internal error: {type(exc).__name__}: {message}")
        return EXIT_INTERNAL


if __name__ == "__main__":  # python -m tanglekit.cli exits as python -m tanglekit does
    from .__main__ import run
    run()
