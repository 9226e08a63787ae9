"""N-qubit pure states, local unitaries, and canonical state constructors.

Amplitudes are stored as a flat complex vector of length ``2**n`` indexed by
bit strings: position ``b`` holds the amplitude of the basis vector whose
label, read left to right, is the binary expansion of ``b`` with qubit 1 as
the most significant bit.  Qubits are addressed 1-based throughout, so the
amplitude stored for ``"i1 i2 ... in"`` is retrieved by that same string.

Every type in this module is an immutable value after construction; no
operation mutates its inputs.
"""
from __future__ import annotations

import math
import operator
import reprlib
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

MAX_QUBITS = 10
NORM_TOL = 1e-10
UNITARY_TOL = 1e-12
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12


def bits_to_index(bits: str | Sequence[int]) -> int:
    """Integer encoding of a bit string, qubit 1 as the most significant bit."""
    value = 0
    for b in bits:
        # int() alone would also read other scripts' digits, Arabic-Indic or fullwidth
        if b not in ("0", "1", 0, 1):
            raise ValueError(f"bit string may contain only 0 and 1, got {reprlib.repr(bits)}")
        value = (value << 1) | int(b)
    return value


def _label_index(bits: str | Sequence[int], n: int) -> int:
    """Integer encoding of a basis label of n qubits; ValueError unless it has n bits."""
    if len(bits) != n:
        raise ValueError(f"bit string {reprlib.repr(bits)} does not have length {n}")
    return bits_to_index(bits)


def index_to_bits(value: int, n: int) -> str:
    if not 0 <= value < 2**n:
        raise ValueError(f"index {value} out of range for {n} qubits")
    return format(value, f"0{n}b")


def parse_qubit(label: str | int, n: int) -> int:
    """Qubit of an ASCII letter (A is qubit 1) or of ASCII digits (1-based), checked against n."""
    text = str(label).strip()
    # isalpha() and int() alone would also take 'ß' (two letters upper-cased) or fullwidth digits
    try:
        if not text.isascii() or not (text.isdigit() or len(text) == 1 and text.isalpha()):
            raise ValueError
        q = int(text) if text.isdigit() else ord(text.upper()) - ord("A") + 1
    except ValueError:  # also more digits than int() reads (sys.get_int_max_str_digits())
        raise ValueError(f"invalid qubit {reprlib.repr(label)}") from None
    if not 1 <= q <= n:
        raise ValueError(f"qubit {reprlib.repr(label)} out of range for {n} qubits")
    return q


def _frozen_copy(value: object, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Replace ``value.name`` by a read-only complex128 copy, checking shape and finiteness."""
    what = f"{type(value).__name__} {name}"
    arr = np.array(getattr(value, name), dtype=np.complex128)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    _check_finite(arr, what)
    arr.setflags(write=False)
    object.__setattr__(value, name, arr)
    return arr


def _check_integer(x: object, what: str) -> None:
    """Raise ValueError unless operator.index reads x: 3.0 and 2.5 are not integers."""
    try:
        operator.index(x)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {reprlib.repr(x)}") from None


def _check_count(n: int, least: int = 1) -> None:
    """Raise unless n is an integer in [least, MAX_QUBITS]: the qubit counts supported."""
    _check_integer(n, "qubit count")
    if not least <= n <= MAX_QUBITS:
        raise ValueError(f"requires {least} <= n <= {MAX_QUBITS} qubits, got {reprlib.repr(n)}")


def _check_qubit(q: int, n: int) -> None:
    """Raise unless q is a qubit (an integer, 1-based) of an n-qubit system."""
    _check_integer(q, "qubit")
    if not 1 <= q <= n:
        raise ValueError(f"qubit {q} out of range for {n} qubits")


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite")


def _check_norm(amps: np.ndarray) -> None:
    """Raise unless every amplitude vector along the last axis has unit norm.

    A NaN norm would pass, so callers check finiteness first.
    """
    deviation = np.abs(np.linalg.norm(amps, axis=-1) - 1.0).max()
    if deviation > NORM_TOL:
        raise ValueError(f"state is not normalized: |norm - 1| = {deviation:.3e}")


def _check_unitary(m: np.ndarray) -> None:
    """Raise unless every 2x2 matrix in the stack m is unitary; callers check finiteness first."""
    defect = np.abs(np.swapaxes(m, -1, -2).conj() @ m - np.eye(2)).max()
    if defect > UNITARY_TOL:
        raise ValueError(f"matrix is not unitary: max |U^dag U - I| = {defect:.3e}")


def _check_hermitian(m: np.ndarray) -> None:
    """Raise unless the square matrix m is Hermitian; callers check finiteness first."""
    defect = np.abs(m - m.conj().T).max()
    if defect > HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian: max |m - m^dag| = {defect:.3e}")


@dataclass(frozen=True)
class BasisIndex:
    """Label of one computational basis vector; round-trips with its integer encoding."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.bits or any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"invalid basis bits {self.bits!r}")

    @classmethod
    def from_string(cls, bits: str) -> "BasisIndex":
        return cls(tuple(bits_to_index(b) for b in bits))

    @classmethod
    def from_int(cls, value: int, n: int) -> "BasisIndex":
        return cls.from_string(index_to_bits(value, n))

    @property
    def value(self) -> int:
        return bits_to_index(self.bits)

    @property
    def string(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __str__(self) -> str:
        return self.string


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized amplitude vector of an n-qubit pure state.

    ``norm_shift`` records how far the pre-normalization input was from unit
    norm (0.0 for states built directly from normalized data).
    """

    n_qubits: int
    amplitudes: np.ndarray
    norm_shift: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        _check_count(self.n_qubits)
        _check_norm(_frozen_copy(self, "amplitudes", (2**self.n_qubits,)))

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def amplitude(self, bits: str | BasisIndex) -> complex:
        """Amplitude of the basis vector labelled by ``bits``."""
        if isinstance(bits, BasisIndex):
            bits = bits.string
        return complex(self.amplitudes[_label_index(bits, self.n_qubits)])


@dataclass(frozen=True, eq=False)
class LocalUnitary:
    """A 2x2 unitary bound to one target qubit (1-based)."""

    target: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        _check_integer(self.target, "target qubit")
        if self.target < 1:
            raise ValueError(f"target qubit must be >= 1, got {self.target}")
        _check_unitary(_frozen_copy(self, "matrix", (2, 2)))

    def dagger(self) -> "LocalUnitary":
        return LocalUnitary(self.target, self.matrix.conj().T)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian trace-1 operator on n qubits, element-addressable by bit strings."""

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        _check_count(self.n_qubits)
        m = _frozen_copy(self, "matrix", (2**self.n_qubits,) * 2)
        _check_hermitian(m)
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace must be 1, got {tr}")

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def element(self, i: str | BasisIndex, j: str | BasisIndex) -> complex:
        i = i.string if isinstance(i, BasisIndex) else i
        j = j.string if isinstance(j, BasisIndex) else j
        return complex(self.matrix[_label_index(i, self.n_qubits), _label_index(j, self.n_qubits)])


def _normalized(raw: np.ndarray) -> tuple[np.ndarray, float]:
    _check_finite(raw, "amplitudes")
    norm = float(np.linalg.norm(raw))
    if norm == 0.0:
        raise ValueError("all-zero amplitude list cannot be normalized")
    return raw / norm, abs(norm - 1.0)


def make_state(n: int, entries: Iterable[tuple[str, complex]]) -> PureState:
    """Build a normalized state from sparse (bit-string, amplitude) entries.

    Unspecified indices are zero.  The state is always divided by its norm;
    the resulting ``norm_shift`` records how large that correction was.
    """
    _check_count(n)
    raw = np.zeros(2**n, dtype=np.complex128)
    seen: set[int] = set()
    for bits, value in entries:
        idx = _label_index(bits, n)
        if idx in seen:
            raise ValueError(f"duplicate index {bits!r}")
        seen.add(idx)
        raw[idx] = value
    amps, shift = _normalized(raw)
    return PureState(n, amps, norm_shift=shift)


def ghz(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2)."""
    _check_count(n, least=2)
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return PureState(n, amps)


def w_state(n: int) -> PureState:
    """Equal superposition of the n weight-1 basis strings."""
    _check_count(n, least=2)
    amps = np.zeros(2**n, dtype=np.complex128)
    for k in range(n):
        amps[1 << k] = 1 / np.sqrt(n)
    return PureState(n, amps)


def cluster4() -> PureState:
    """(|0000> + |0011> + |1100> - |1111>)/2."""
    amps = np.zeros(16, dtype=np.complex128)
    amps[0b0000] = amps[0b0011] = amps[0b1100] = 0.5
    amps[0b1111] = -0.5
    return PureState(4, amps)


def product_state(factors: Sequence[tuple[complex, complex]]) -> PureState:
    """Tensor product of single-qubit amplitude pairs, normalized."""
    n = len(factors)
    _check_count(n)
    amps = np.array([1.0], dtype=np.complex128)
    for a0, a1 in factors:
        amps = np.kron(amps, np.array([a0, a1], dtype=np.complex128))
    amps, shift = _normalized(amps)
    return PureState(n, amps, norm_shift=shift)


def su2_rotation(x: complex) -> np.ndarray:
    """The unit-determinant unitary [[1, -conj(x)], [x, 1]] / sqrt(1 + |x|^2).

    Raises ValueError, before any arithmetic, when 1 + |x|^2 is not finite.
    """
    x = complex(x)
    magnitude = math.hypot(x.real, x.imag)
    if not math.isfinite(1.0 + magnitude * magnitude):
        raise ValueError(f"rotation parameter must be finite with 1 + |x|^2 finite, got {x!r}")
    m = np.array([[1.0, -np.conj(x)], [x, 1.0]], dtype=np.complex128)
    return m / np.sqrt(1.0 + abs(x) ** 2)


def _haar_from_ginibre(g: np.ndarray) -> np.ndarray:
    """Haar 2x2 unitaries from Ginibre draws g (..., 2, 2, 2): real parts, then imaginary.

    One stacked QR; each column of Q is multiplied by the phase of the matching
    diagonal entry of R (Mezzadri 2007), which makes the distribution Haar.
    """
    z = (g[..., 0, :, :] + 1j * g[..., 1, :, :]) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed 2x2 unitary: QR of a Ginibre matrix with the Mezzadri phase fix.

    Draws ``rng.standard_normal((2, 2, 2))``, the real then the imaginary parts, so
    successive calls give the unitaries of one ``standard_normal((..., 2, 2, 2))`` draw,
    such as the ``(block, n, 2, 2, 2)`` draw per block of ``lu_invariance_sweep``.
    """
    return _haar_from_ginibre(rng.standard_normal((2, 2, 2)))


def random_state(n: int, seed: int) -> PureState:
    """Haar-uniform state: 2**n complex Gaussian draws, normalized; deterministic per seed."""
    _check_count(n)
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    amps, _ = _normalized(raw)
    return PureState(n, amps)


def random_product_state(n: int, seed: int) -> PureState:
    """Product of n single-qubit factors, each two complex Gaussian draws; deterministic per seed."""
    _check_count(n)
    rng = np.random.default_rng(seed)
    z = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(n)]
    return product_state([(complex(z0), complex(z1)) for z0, z1 in z])


def random_local_unitary(target: int, seed: int) -> LocalUnitary:
    """Haar-distributed local unitary on ``target``; deterministic per seed."""
    return LocalUnitary(target, haar_unitary(np.random.default_rng(seed)))


def _apply_on_qubit(amps: np.ndarray, u: np.ndarray, q: int, n: int) -> np.ndarray:
    """Amplitude vectors amps (..., 2**n) with qubit q's index transformed by u (..., 2, 2)."""
    view = amps.reshape(amps.shape[:-1] + (2 ** (q - 1), 2, 2 ** (n - q)))
    return (u[..., None, :, :] @ view).reshape(amps.shape)


def apply_local_unitary(state: PureState, *lus: LocalUnitary) -> PureState:
    """Transform each target qubit's index by its 2x2 matrix, in order, into one new state."""
    n, amps = state.n_qubits, state.amplitudes
    for lu in lus:
        _check_qubit(lu.target, n)
        amps = _apply_on_qubit(amps, lu.matrix, lu.target, n)
    return PureState(n, amps)


def _haar_rotated(state: PureState, rng: np.random.Generator, trials: int) -> np.ndarray:
    """Amplitudes of ``state`` after each of ``trials`` products of Haar unitaries, one row each.

    One ``rng.standard_normal((trials, n, 2, 2, 2))`` draw gives the unitaries of
    ``trials * n`` ``haar_unitary`` calls on ``rng``, in trial then qubit order.  The
    stacks get the checks a LocalUnitary and a PureState make, at the same
    tolerances: finite and unitary, then finite and normalized.
    """
    n = state.n_qubits
    unitaries = _haar_from_ginibre(rng.standard_normal((trials, n, 2, 2, 2)))
    _check_finite(unitaries, "Haar unitaries")
    _check_unitary(unitaries)
    amps = np.broadcast_to(state.amplitudes, (trials, state.dim))
    for q in range(1, n + 1):
        amps = _apply_on_qubit(amps, unitaries[:, q - 1], q, n)
    _check_finite(amps, "rotated amplitudes")
    _check_norm(amps)
    return amps


def density(state: PureState) -> DensityOperator:
    """Rank-1 state operator |psi><psi|."""
    m = np.outer(state.amplitudes, state.amplitudes.conj())
    m /= np.trace(m).real
    return DensityOperator(state.n_qubits, m)


def reduced_density(state: PureState, keep: Sequence[int]) -> DensityOperator:
    """Unit-trace state operator of the kept qubits (1-based, in the given order)."""
    n = state.n_qubits
    keep = list(keep)
    if len(set(keep)) != len(keep) or any(not 1 <= q <= n for q in keep):
        raise ValueError(f"keep must be distinct qubits in [1, {n}], got {keep}")
    tensor = state.amplitudes.reshape((2,) * n)
    moved = np.moveaxis(tensor, [q - 1 for q in keep], range(len(keep)))
    mat = moved.reshape(2 ** len(keep), -1)
    m = mat @ mat.conj().T
    m /= np.trace(m).real
    return DensityOperator(len(keep), m)


def state_to_payload(state: PureState) -> dict:
    """JSON-ready form of the shared state file format; exact zeros are omitted."""
    entries = []
    for idx, amp in enumerate(state.amplitudes):
        if amp == 0:
            continue
        entries.append(
            {
                "index": index_to_bits(idx, state.n_qubits),
                "re": float(amp.real),
                "im": float(amp.imag),
            }
        )
    return {"n_qubits": state.n_qubits, "amplitudes": entries}


def state_from_payload(obj: dict) -> PureState:
    """Parse the shared state file format, normalizing and warning on large corrections.

    Raises ValueError on malformed payloads, amplitude fields that are not
    JSON numbers, out-of-range sizes, duplicate or wrong-length indices, and
    all-zero amplitude data.
    """
    if not isinstance(obj, dict):
        raise ValueError("state payload must be a JSON object")
    try:
        n = obj["n_qubits"]
        raw_entries = obj["amplitudes"]
    except KeyError as exc:
        raise ValueError(f"malformed state payload: missing {exc}") from exc
    if type(n) is not int:  # rejects bool and float as well
        raise ValueError(f"n_qubits must be an integer, got {reprlib.repr(n)}")
    if not isinstance(raw_entries, list):
        raise ValueError("amplitudes must be a list")
    entries = []
    for position, item in enumerate(raw_entries):
        try:
            index, real, imag = item["index"], item["re"], item["im"]
            if not isinstance(index, str):
                raise TypeError("index must be a bit string")
            # JSON numbers only: float() would also read "0.6" and True
            if any(type(x) not in (int, float) for x in (real, imag)):
                raise TypeError("re and im must be numbers")
            entries.append((index, complex(float(real), float(imag))))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed amplitude entry {position}: {reprlib.repr(item)}") from exc
    state = make_state(n, entries)
    if state.norm_shift > NORM_TOL:
        warnings.warn(
            f"state file required a normalization correction of {state.norm_shift:.3e}",
            stacklevel=2,
        )
    return state
