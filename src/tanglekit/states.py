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
        b = int(b)
        if b not in (0, 1):
            raise ValueError(f"bit string may contain only 0 and 1, got {bits!r}")
        value = (value << 1) | b
    return value


def index_to_bits(value: int, n: int) -> str:
    if not 0 <= value < 2**n:
        raise ValueError(f"index {value} out of range for {n} qubits")
    return format(value, f"0{n}b")


def parse_qubit(label: str | int, n: int) -> int:
    """Qubit number of a letter (A is qubit 1) or 1-based integer label, checked against n."""
    text = str(label).strip()
    if len(text) == 1 and text.isalpha():
        q = ord(text.upper()) - ord("A") + 1
    else:
        try:
            q = int(text)
        except ValueError:
            raise ValueError(f"invalid qubit {label!r}") from None
    if not 1 <= q <= n:
        raise ValueError(f"qubit {label!r} out of range for {n} qubits")
    return q


def _frozen_copy(value: object, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Replace ``value.name`` by a read-only complex128 copy, checking shape and finiteness."""
    what = f"{type(value).__name__} {name}"
    arr = np.array(getattr(value, name), dtype=np.complex128)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite")
    arr.setflags(write=False)
    object.__setattr__(value, name, arr)
    return arr


@dataclass(frozen=True)
class BasisIndex:
    """Label of one computational basis vector; round-trips with its integer encoding."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.bits or any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"invalid basis bits {self.bits!r}")

    @classmethod
    def from_string(cls, bits: str) -> "BasisIndex":
        return cls(tuple(int(b) for b in bits))

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
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}")
        amps = _frozen_copy(self, "amplitudes", (2**self.n_qubits,))
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def amplitude(self, bits: str | BasisIndex) -> complex:
        """Amplitude of the basis vector labelled by ``bits``."""
        if isinstance(bits, BasisIndex):
            bits = bits.string
        if len(bits) != self.n_qubits:
            raise ValueError(f"expected {self.n_qubits} bits, got {bits!r}")
        return complex(self.amplitudes[bits_to_index(bits)])


@dataclass(frozen=True, eq=False)
class LocalUnitary:
    """A 2x2 unitary bound to one target qubit (1-based)."""

    target: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.target < 1:
            raise ValueError(f"target qubit must be >= 1, got {self.target}")
        m = _frozen_copy(self, "matrix", (2, 2))
        defect = np.abs(m.conj().T @ m - np.eye(2)).max()
        if defect > UNITARY_TOL:
            raise ValueError(f"matrix is not unitary: max |U^dag U - I| = {defect:.3e}")

    def dagger(self) -> "LocalUnitary":
        return LocalUnitary(self.target, self.matrix.conj().T)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian trace-1 operator on n qubits, element-addressable by bit strings."""

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _frozen_copy(self, "matrix", (2**self.n_qubits,) * 2)
        herm = np.abs(m - m.conj().T).max()
        if herm > HERMITIAN_TOL:
            raise ValueError(f"matrix is not Hermitian: max |m - m^dag| = {herm:.3e}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace must be 1, got {tr}")

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def element(self, i: str | BasisIndex, j: str | BasisIndex) -> complex:
        i = i.string if isinstance(i, BasisIndex) else i
        j = j.string if isinstance(j, BasisIndex) else j
        if len(i) != self.n_qubits or len(j) != self.n_qubits:
            raise ValueError("bit-string length must equal n_qubits")
        return complex(self.matrix[bits_to_index(i), bits_to_index(j)])


def _normalized(raw: np.ndarray) -> tuple[np.ndarray, float]:
    if not np.isfinite(raw).all():
        raise ValueError("amplitudes must be finite")
    norm = float(np.linalg.norm(raw))
    if norm == 0.0:
        raise ValueError("all-zero amplitude list cannot be normalized")
    return raw / norm, abs(norm - 1.0)


def make_state(n: int, entries: Iterable[tuple[str, complex]]) -> PureState:
    """Build a normalized state from sparse (bit-string, amplitude) entries.

    Unspecified indices are zero.  The state is always divided by its norm;
    the resulting ``norm_shift`` records how large that correction was.
    """
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n must be in [1, {MAX_QUBITS}], got {n}")
    raw = np.zeros(2**n, dtype=np.complex128)
    seen: set[int] = set()
    for bits, value in entries:
        if len(bits) != n:
            raise ValueError(f"bit string {bits!r} does not have length {n}")
        idx = bits_to_index(bits)
        if idx in seen:
            raise ValueError(f"duplicate index {bits!r}")
        seen.add(idx)
        raw[idx] = value
    amps, shift = _normalized(raw)
    return PureState(n, amps, norm_shift=shift)


def ghz(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2)."""
    if not 2 <= n <= MAX_QUBITS:
        raise ValueError(f"ghz requires 2 <= n <= {MAX_QUBITS}, got {n}")
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return PureState(n, amps)


def w_state(n: int) -> PureState:
    """Equal superposition of the n weight-1 basis strings."""
    if not 2 <= n <= MAX_QUBITS:
        raise ValueError(f"w_state requires 2 <= n <= {MAX_QUBITS}, got {n}")
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
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"need between 1 and {MAX_QUBITS} factors, got {n}")
    amps = np.array([1.0], dtype=np.complex128)
    for a0, a1 in factors:
        amps = np.kron(amps, np.array([a0, a1], dtype=np.complex128))
    amps, shift = _normalized(amps)
    return PureState(n, amps, norm_shift=shift)


def su2_rotation(x: complex) -> np.ndarray:
    """The unit-determinant unitary [[1, -conj(x)], [x, 1]] / sqrt(1 + |x|^2)."""
    x = complex(x)
    return np.array([[1.0, -np.conj(x)], [x, 1.0]], dtype=np.complex128) / np.sqrt(
        1.0 + abs(x) ** 2
    )


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed 2x2 unitary (QR of a Ginibre matrix with phase fix)."""
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_state(n: int, seed: int) -> PureState:
    """Haar-uniform state: 2**n complex Gaussian draws, normalized; deterministic per seed."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n must be in [1, {MAX_QUBITS}], got {n}")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    amps, _ = _normalized(raw)
    return PureState(n, amps)


def random_product_state(n: int, seed: int) -> PureState:
    """Product of n single-qubit factors, each two complex Gaussian draws; deterministic per seed."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n must be in [1, {MAX_QUBITS}], got {n}")
    rng = np.random.default_rng(seed)
    factors = []
    for _ in range(n):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        factors.append((complex(z[0]), complex(z[1])))
    return product_state(factors)


def random_local_unitary(target: int, seed: int) -> LocalUnitary:
    """Haar-distributed local unitary on ``target``; deterministic per seed."""
    return LocalUnitary(target, haar_unitary(np.random.default_rng(seed)))


def apply_local_unitary(state: PureState, lu: LocalUnitary) -> PureState:
    """Transform the target qubit's index by the 2x2 matrix; norm is preserved."""
    n = state.n_qubits
    if lu.target > n:
        raise ValueError(f"target qubit {lu.target} out of range for {n} qubits")
    tensor = state.amplitudes.reshape((2,) * n)
    front = np.moveaxis(tensor, lu.target - 1, 0).reshape(2, -1)
    rotated = lu.matrix @ front
    back = np.moveaxis(rotated.reshape((2,) + (2,) * (n - 1)), 0, lu.target - 1)
    return PureState(n, back.reshape(-1))


def density(state: PureState) -> DensityOperator:
    """Rank-1 state operator |psi><psi|."""
    m = np.outer(state.amplitudes, state.amplitudes.conj())
    m /= np.trace(m).real
    return DensityOperator(state.n_qubits, m)


def reduced_density(state: PureState, keep: Sequence[int]) -> DensityOperator:
    """State operator of the kept qubits (1-based, in the given order)."""
    n = state.n_qubits
    keep = list(keep)
    if len(set(keep)) != len(keep) or any(not 1 <= q <= n for q in keep):
        raise ValueError(f"keep must be distinct qubits in [1, {n}], got {keep}")
    tensor = state.amplitudes.reshape((2,) * n)
    moved = np.moveaxis(tensor, [q - 1 for q in keep], range(len(keep)))
    mat = moved.reshape(2 ** len(keep), -1)
    return DensityOperator(len(keep), mat @ mat.conj().T)


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

    Raises ValueError on malformed payloads, out-of-range sizes, duplicate or
    wrong-length indices, and all-zero amplitude data.
    """
    if not isinstance(obj, dict):
        raise ValueError("state payload must be a JSON object")
    try:
        n = obj["n_qubits"]
        raw_entries = obj["amplitudes"]
    except KeyError as exc:
        raise ValueError(f"malformed state payload: missing {exc}") from exc
    if type(n) is not int:  # rejects bool and float as well
        raise ValueError(f"n_qubits must be an integer, got {n!r}")
    if not isinstance(raw_entries, list):
        raise ValueError("amplitudes must be a list")
    entries = []
    for item in raw_entries:
        try:
            if not isinstance(item["index"], str):
                raise TypeError("index must be a bit string")
            entries.append((item["index"], complex(float(item["re"]), float(item["im"]))))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed amplitude entry {item!r}") from exc
    state = make_state(n, entries)
    if state.norm_shift > NORM_TOL:
        warnings.warn(
            f"state file required a normalization correction of {state.norm_shift:.3e}",
            stacklevel=2,
        )
    return state
