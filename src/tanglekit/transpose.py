"""Global and K-way partial transposes of qubit state operators.

The global partial transpose with respect to qubit p swaps the p-th bit of
the row and column labels of every matrix element.  A K-way partial
transpose applies that swap selectively, keyed by the Hamming distance
between the two labels: for K > 2 only elements at distance exactly K are
touched, while the K = 2 transpose deliberately covers distances 1 and 2.
In both cases the element must also differ in bit p.  With that asymmetric
K = 2 rule the transposes satisfy, for every p,

    global_pt(rho, p) == sum(kway_pt(rho, p, K) for K in 2..n) - (n - 2) * rho

which ``decomposition_residual`` measures.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .states import BasisIndex, DensityOperator


def k_label(i: str | BasisIndex, j: str | BasisIndex) -> int:
    """Hamming distance between two equal-length basis labels."""
    i = i.string if isinstance(i, BasisIndex) else i
    j = j.string if isinstance(j, BasisIndex) else j
    if len(i) != len(j):
        raise ValueError(f"length mismatch: {i!r} vs {j!r}")
    return sum(a != b for a, b in zip(i, j))


@lru_cache(maxsize=None)
def _hamming_table(n: int) -> np.ndarray:
    idx = np.arange(2**n)
    table = np.zeros((2**n, 2**n), dtype=np.uint8)
    for shift in range(n):
        bit = ((idx >> shift) & 1).astype(np.uint8)
        table += bit[:, None] ^ bit[None, :]
    table.setflags(write=False)
    return table


def _require_qubit(rho: DensityOperator, p: int) -> None:
    if not 1 <= p <= rho.n_qubits:
        raise ValueError(f"qubit {p} out of range for {rho.n_qubits} qubits")


def _swap_bit(rho: DensityOperator, p: int) -> np.ndarray:
    """rho's matrix with bit p of every row label exchanged with that of its column label."""
    n = rho.n_qubits
    tensor = rho.matrix.reshape((2,) * (2 * n))
    return np.swapaxes(tensor, p - 1, n + p - 1).reshape(rho.dim, rho.dim)


def global_pt(rho: DensityOperator, p: int) -> DensityOperator:
    """Partial transpose of qubit p: <i|out|j> = <j_p i_rest|rho|i_p j_rest>."""
    _require_qubit(rho, p)
    return DensityOperator(rho.n_qubits, _swap_bit(rho, p))


def kway_pt(rho: DensityOperator, p: int, K: int) -> DensityOperator:
    """Selective partial transpose of qubit p touching only K-way elements.

    Elements whose labels differ in bit p and lie at Hamming distance K
    (distance 1 or 2 when K = 2) take their globally transposed value; all
    other elements are copied unchanged.
    """
    _require_qubit(rho, p)
    n = rho.n_qubits
    if not 2 <= K <= n:
        raise ValueError(f"K must be in [2, {n}], got {K}")
    distance = _hamming_table(n)
    # the K = 2 transpose intentionally includes the distance-1 elements; the
    # distance-0 (diagonal) elements it also selects never differ in bit p
    selected = distance <= 2 if K == 2 else distance == K
    # qubit 1 is the most significant bit, so qubit p sits at position n - p
    bit = (np.arange(2**n) >> (n - p)) & 1
    mask = selected & (bit[:, None] != bit[None, :])
    return DensityOperator(n, np.where(mask, _swap_bit(rho, p), rho.matrix))


def decomposition_residual(rho: DensityOperator, p: int) -> float:
    """Max elementwise gap between the global transpose and its K-way resolution."""
    _require_qubit(rho, p)
    n = rho.n_qubits
    if n < 2:
        raise ValueError("decomposition requires at least 2 qubits")
    total = np.zeros_like(rho.matrix)
    for K in range(2, n + 1):
        total = total + kway_pt(rho, p, K).matrix
    total -= (n - 2) * rho.matrix
    return float(np.abs(global_pt(rho, p).matrix - total).max())
