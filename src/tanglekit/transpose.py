"""Global and K-way partial transposes of qubit state operators.

A partial transpose with respect to qubit p swaps the p-th bit of the row
and column labels of selected elements of qubit p's two off-diagonal blocks,
where the labels differ in bit p.  One kernel writes every transpose; the
global one selects every element of the two blocks.  There the Hamming
distance of the labels is 1 plus the distance r of their other n - 1 bits,
and the K-way transpose selects r = K - 1, or r <= 1 when K = 2.  With that
asymmetric K = 2 rule the transposes satisfy, for every p,

    global_pt(rho, p) == sum(kway_pt(rho, p, K) for K in 2..n) - (n - 2) * rho

which ``decomposition_residual`` measures.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .states import DensityOperator, _check_count, _check_kway, _check_qubit


@lru_cache(maxsize=None)
def _rest_distance(m: int) -> np.ndarray:
    """Read-only (2**m, 2**m) uint8 table of popcount(u ^ v) over m-bit labels u, v."""
    idx = np.arange(2**m)
    table = np.zeros((2**m, 2**m), dtype=np.uint8)
    for shift in range(m):
        bit = ((idx >> shift) & 1).astype(np.uint8)
        table += bit[:, None] ^ bit[None, :]
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _parity_order(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-bit labels with even popcount first, and ``_rest_distance(m)`` in that order.

    popcount(u ^ v) is even exactly when u and v have equal parity, so for
    m >= 1 each K-way selection with K >= 3 keeps either the two diagonal
    or the two off-diagonal 2**(m-1) blocks of the reordered table.
    """
    distance = _rest_distance(m)
    order = np.argsort(distance[0] & 1, kind="stable")
    ordered = distance[np.ix_(order, order)]
    order.setflags(write=False)  # the cache hands both to every caller, on every thread
    ordered.setflags(write=False)
    return order, ordered


def _kway_selection(n: int, K: int, distance: np.ndarray) -> np.ndarray:
    """Bool (2**(n-1), 2**(n-1)) table of the rest-label pairs the K-way transpose selects.

    distance is the rest distance table in the labels' order.  The K-way transposes
    and negativities all check K here, by ``states._check_kway``.
    """
    _check_kway(K, n)
    return distance <= 1 if K == 2 else distance == K - 1


def _transposed(rho: DensityOperator, p: int, K: int | None = None) -> np.ndarray:
    """A copy of rho's matrix transposed in bit p: globally if K is None, else K-way."""
    n = rho.n_qubits
    # qubit 1 is the most significant bit: a label is (high bits, bit p, low bits)
    high, low = 2 ** (p - 1), 2 ** (n - p)
    selected = True  # every element of the two blocks: the global transpose
    if K is not None:
        selected = _kway_selection(n, K, _rest_distance(n - 1)).reshape(high, low, high, low)
    blocks = rho.matrix.reshape(high, 2, low, high, 2, low)
    out = rho.matrix.copy()
    view = out.reshape(blocks.shape)
    np.copyto(view[:, 0, :, :, 1], blocks[:, 1, :, :, 0], where=selected)
    np.copyto(view[:, 1, :, :, 0], blocks[:, 0, :, :, 1], where=selected)
    return out


def global_pt(rho: DensityOperator, p: int) -> np.ndarray:
    """Partial transpose of qubit p: <i|out|j> = <j_p i_rest|rho|i_p j_rest>.

    The result is a new Hermitian unit-trace matrix, not positive in general.
    """
    _check_qubit(p, rho.n_qubits)
    return _transposed(rho, p)


def kway_pt(rho: DensityOperator, p: int, K: int) -> np.ndarray:
    """Selective partial transpose of qubit p touching only K-way elements, as a new matrix.

    An element whose labels differ in bit p, and whose other n - 1 bits lie
    at Hamming distance K - 1 (at most 1 when K = 2), takes its globally
    transposed value; every other element is copied unchanged.
    """
    _check_qubit(p, rho.n_qubits)
    return _transposed(rho, p, K)


def decomposition_residual(rho: DensityOperator, p: int) -> float:
    """Max elementwise gap between the global transpose and its K-way resolution."""
    n = rho.n_qubits
    _check_qubit(p, n)
    _check_count(n, 2)
    total = np.zeros_like(rho.matrix)
    for K in range(2, n + 1):
        total += _transposed(rho, p, K)
    total -= (n - 2) * rho.matrix
    return float(np.abs(_transposed(rho, p) - total).max())
