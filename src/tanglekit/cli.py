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
the tolerance.  ``measure --trace`` writes one JSON line per measure to
stderr (stage, route, dim, ms, and the worker that ran it, 0 being the
calling thread), then one with the total ms and ru_maxrss.  ``measure``'s
stages run on one thread per CPU that the BLAS leaves free (see
``_stage_workers``); stdout does not depend on how many.
``gen product`` draws ``states.random_product_state``.
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

import numpy as np

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
from .reporting import Rendered, _bracketed, format_float, render_json
from .spectra import Fonts, enumerate_fonts, global_negativity, kway_negativity
from .spectra import _CLOSED_FORM, _kway_route  # the routes measure --trace names
from .states import (
    PureState,
    cluster4,
    density,
    ghz,
    index_to_bits,
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

_GEN_KINDS = ("ghz", "w", "cluster4", "product", "random")
# rows of a fonts report formatted by one % call
_FONT_BLOCK_ROWS = 1024
# about 2 minutes of --lu-sweep at 4 qubits, at about 11 us a trial
_MAX_SWEEP_TRIALS = 10_000_000
# measure's stage threads at most: each extra worker adds the working set of one stage,
# about 26 MiB of peak RSS at n = 10 (measure --all: 56 MiB on one worker, 82 MiB on two);
# 3 and 4 workers are unmeasured, as the measurements ran on 2 CPUs
_MAX_STAGE_WORKERS = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _parse_qubit(text: str, n: int) -> int:
    try:
        return parse_qubit(text, n)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _natural(text: str) -> int:
    """The integer of a string of ASCII digits, read as parse_qubit reads digits.

    int() alone would also read '٣', fullwidth '３', '+3', '-3' and '0_3'.
    """
    digits = text.strip()
    with contextlib.suppress(ValueError):  # more digits than int() reads
        if digits.isascii() and digits.isdigit():
            return int(digits)
    raise argparse.ArgumentTypeError(f"invalid non-negative integer: {reprlib.repr(text)}")


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
            sys.stdout.write(text)
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
    if kind == "cluster4":
        if n not in (None, 4):
            raise CliError("cluster4 is a 4-qubit state")
        state = cluster4()
    elif n is None:
        raise CliError(f"kind {kind!r} requires a qubit count")
    else:
        # the constructors check n before allocating or drawing anything
        try:
            if kind == "ghz":
                state = ghz(n)
            elif kind == "w":
                state = w_state(n)
            elif kind == "random":
                state = random_state(n, args.seed)
            else:
                state = random_product_state(n, args.seed)
        except ValueError as exc:
            raise CliError(str(exc)) from None

    _write_report(state_to_payload(state), args.out)
    return EXIT_OK


def _fonts_json(fonts: Fonts, n: int) -> Rendered:
    """The fonts as a JSON list of objects, one row of the Fonts columns each.

    Rows go through one % call per block of _FONT_BLOCK_ROWS, so only one
    block's values are Python objects at a time.
    """
    floats = (fonts.det.real, fonts.det.imag, fonts.lambda_minus)
    # %.17g is format_float on finite non-integral doubles; rows with any other value take the rule
    ruled = np.logical_or.reduce([(c == np.trunc(c)) | ~np.isfinite(c) for c in floats])
    label = np.array([index_to_bits(x, n) for x in range(2**n)], dtype=object)
    columns = (label[fonts.i], label[fonts.j], fonts.k, *floats,
               np.take(np.array(["false", "true"], dtype=object), fonts.negligible))
    row = ('{"i": "%s", "j": "%s", "p": ' + str(fonts.p) + ', "k": %d, "det_re": %.17g, '
           '"det_im": %.17g, "lambda_minus": %.17g, "negligible": %s}')
    ruled_row = row.replace("%.17g", "%s")
    parts = []
    for start in range(0, len(fonts), _FONT_BLOCK_ROWS):
        block = slice(start, start + _FONT_BLOCK_ROWS)
        marks = ruled[block]
        values = [None] * (7 * marks.size)  # row r's seven values at 7 r .. 7 r + 6
        for offset, column in enumerate(columns):
            values[offset::7] = column[block].tolist()
        for r in np.flatnonzero(marks).tolist():
            values[7 * r + 3 : 7 * r + 6] = map(format_float, values[7 * r + 3 : 7 * r + 6])
        template = ", ".join([ruled_row if mark else row for mark in marks.tolist()])
        parts += (", ", template % tuple(values))
    text = _bracketed("[", parts, "]")
    parts.clear()  # the blocks go before Rendered copies the text
    return Rendered(text)


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
    blas = cpus
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        with contextlib.suppress(argparse.ArgumentTypeError):
            if (threads := _natural(os.environ.get(name, ""))) > 0:
                blas = threads
                break
    return max(1, min(stages, cpus // blas, _MAX_STAGE_WORKERS))


def _run_stages(stages: list[tuple[str, str, int, Callable[[], object]]], trace: bool) -> dict:
    """Run measure's stages on _stage_workers threads and return the report in stage order.

    The stages share no state, and their eigensolves, SVDs and matrix products release
    the GIL.  Workers, the calling thread being worker 0, claim stages in order from one
    iterator.  After the first failure no stage starts; once every worker has stopped, the
    failure of the earliest stage is raised, the one a loop over the stages would raise.
    With --trace each stage's line goes to stderr in stage order as soon as every earlier
    stage has finished.
    """
    values: list[object] = [None] * len(stages)
    lines: list[str | None] = [None] * len(stages)
    failures: dict[int, BaseException] = {}
    claims = enumerate(stages)
    written = 0
    lock = threading.Lock()

    def work(worker: int) -> None:
        nonlocal written
        while True:
            with lock:
                claimed = None if failures else next(claims, None)
            if claimed is None:
                return
            index, (key, route, dim, compute) = claimed
            began = time.perf_counter()
            try:
                values[index] = compute()
            except BaseException as exc:  # KeyboardInterrupt too: the calling thread raises it
                with lock:
                    failures[index] = exc
                return
            if trace:
                ms = round(1000.0 * (time.perf_counter() - began), 3)
                with lock:
                    lines[index] = json.dumps({"stage": key, "route": route, "dim": dim,
                                               "ms": ms, "worker": worker})
                    while written < len(lines) and lines[written] is not None:
                        _diagnose(lines[written])
                        written += 1

    threads = []
    try:
        for worker in range(1, _stage_workers(len(stages))):
            threads.append(threading.Thread(target=work, args=(worker,)))
            threads[-1].start()
        work(0)
    except BaseException as exc:  # a thread that would not start, or an interrupt between stages
        with lock:
            failures.setdefault(len(stages), exc)
    for thread in threads:
        while thread.is_alive():
            try:
                thread.join()
            except BaseException as exc:  # an interrupt while waiting: start no further stage
                with lock:
                    failures.setdefault(len(stages), exc)
    if failures:
        raise failures[min(failures)]
    return {key: value for (key, *_), value in zip(stages, values)}


def _cmd_measure(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    state = _load_state(args.state)
    n = state.n_qubits

    want_tangle3 = args.tangle3 or (args.all and n == 3)
    want_tangle4 = args.tangle4 or (args.all and n == 4)
    if args.tangle3 and n != 3:
        raise CliError(f"--tangle3 requires a 3-qubit state, got n = {n}")
    if args.tangle4 and n != 4:
        raise CliError(f"--tangle4 requires a 4-qubit state, got n = {n}")

    neg_qubits = sorted({_parse_qubit(t, n) for t in args.negativity})
    kway_pairs = set()
    for text in args.kway:
        parts = text.split(",")
        if len(parts) != 2:
            raise CliError(f"--kway expects P,K, got {reprlib.repr(text)}")
        p = _parse_qubit(parts[0], n)
        try:
            k = _natural(parts[1])
        except argparse.ArgumentTypeError:
            raise CliError(f"--kway expects an integer K, got {reprlib.repr(parts[1])}") from None
        if not 2 <= k <= n:
            raise CliError(f"K must be in [2, {n}], got {reprlib.repr(k)}")
        kway_pairs.add((p, k))
    font_qubits = sorted({_parse_qubit(t, n) for t in args.fonts})
    if args.all:
        neg_qubits = list(range(1, n + 1))
        kway_pairs = {(p, k) for p in range(1, n + 1) for k in range(2, n + 1)}

    if not (want_tangle3 or want_tangle4 or neg_qubits or kway_pairs or font_qubits):
        raise CliError("no measures requested")

    # (report key, route, matrix side, computation) in report order; the closed forms read
    # the 2**(n-1) minor matrix, and spectra names each K-way route
    closed = (_CLOSED_FORM, 2 ** (n - 1))
    stages: list[tuple[str, str, int, Callable[[], object]]] = []
    if want_tangle3:
        stages.append(("tangle3", *closed, partial(three_tangle, state)))
    if want_tangle4:
        stages.append(("tangle4", *closed, partial(four_tangle, state)))
        if args.all:
            stages.append(("four_invariant_abs", *closed, lambda: abs(four_invariant(state))))
    stages += [(f"negativity_q{p}", *closed, partial(global_negativity, state, p))
               for p in neg_qubits]
    stages += [(f"kway_q{p}_k{k}", *_kway_route(n, k), partial(kway_negativity, state, p, k))
               for p, k in sorted(kway_pairs)]
    stages += [(f"fonts_q{p}", *closed, lambda p=p: _fonts_json(enumerate_fonts(state, p), n))
               for p in font_qubits]

    _write_report(_run_stages(stages, args.trace))
    if args.trace:
        import resource  # Unix only, so imported where the trace needs it

        ms = round(1000.0 * (time.perf_counter() - started), 3)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        _diagnose(json.dumps({"stage": "total", "ms": ms, "ru_maxrss": peak}))
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    state = _load_state(args.state)
    n = state.n_qubits

    if not (args.decomposition or args.product_identity or args.covariance or args.lu_sweep):
        raise CliError("no checks requested")

    # every flag is read and checked before the first computation
    if args.decomposition and n < 2:
        raise CliError("--decomposition requires at least 2 qubits")
    if args.product_identity and n != 3:
        raise CliError(f"--product-identity requires a 3-qubit state, got n = {n}")
    if args.covariance:
        parts = args.covariance.split(",")
        if len(parts) != 3:
            raise CliError(f"--covariance expects Q,RE,IM, got {reprlib.repr(args.covariance)}")
        # float() alone would also read non-ASCII digits like '١.٥' and underscores like '1_0'
        try:
            if not all(t.isascii() and "_" not in t for t in parts[1:]):
                raise ValueError
            param = complex(float(parts[1]), float(parts[2]))
        except ValueError:
            raise CliError("invalid --covariance parameter: expected re,im floats") from None
        if n not in (3, 4):
            raise CliError(f"--covariance requires a 3- or 4-qubit state, got n = {n}")
        qubit = _parse_qubit(parts[0], n)
        if n == 3 and qubit != 2:
            raise CliError("three-qubit covariance relations are stated for qubit B")
        try:
            su2_rotation(param)
        except ValueError as exc:
            raise CliError(str(exc)) from None
    if args.lu_sweep:
        if n not in (3, 4):
            raise CliError(f"--lu-sweep requires a 3- or 4-qubit state, got n = {n}")
        parts = args.lu_sweep.split(",")
        if len(parts) != 2:
            raise CliError(f"--lu-sweep expects TRIALS,SEED, got {reprlib.repr(args.lu_sweep)}")
        try:
            trials, seed = _natural(parts[0]), _natural(parts[1])
        except argparse.ArgumentTypeError:
            raise CliError("--lu-sweep expects non-negative integers TRIALS,SEED") from None
        if trials > _MAX_SWEEP_TRIALS:
            raise CliError(f"--lu-sweep TRIALS must be at most {_MAX_SWEEP_TRIALS:,}, "
                           f"got {reprlib.repr(trials)}")

    report: dict = {}
    residuals: list[tuple[str, float]] = []
    if args.decomposition:
        rho = density(state)
        value = max(decomposition_residual(rho, p) for p in range(1, n + 1))
        report["decomposition"] = value
        residuals.append(("decomposition", value))
    if args.product_identity:
        report["product_identity"] = value = product_identity_residual(state)
        residuals.append(("product_identity", value))
    if args.covariance:
        if n == 4:
            checks = covariance_check_4(state, qubit, param)
        else:
            checks = covariance_check_3(state, param)
        report["covariance"] = [
            {"relation": c.relation, "residual": c.residual, "prefactor": c.prefactor_used}
            for c in checks
        ]
        residuals.extend((f"covariance:{c.relation}", c.residual) for c in checks)
    if args.lu_sweep:
        value = lu_invariance_sweep(state, trials, seed)
        report["lu_sweep"] = {"max_deviation": value, "trials": trials, "seed": seed}
        residuals.append(("lu_sweep", value))

    _write_report(report)
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
    gen.add_argument("kind", choices=_GEN_KINDS)
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


if __name__ == "__main__":
    sys.exit(main())
