"""Hermitian spectra, trace norms, negativities, and negativity fonts.

A negativity font of the partial transpose with respect to qubit p is the
4x4 principal sub-matrix spanned by |i>, |j>, and the two vectors obtained
by flipping bit p in each label.  For a pure state its only possible
negative eigenvalue is -|det nu| where nu is the 2x2 amplitude matrix

    [[a_i,          a_{j, p-flipped}],
     [a_{i, p-flipped}, a_j        ]]

Each such nu is a 2x2 minor of qubit p's 2 x 2**(n-1) amplitude matrix, and
``font_minors`` computes all of them at once.  The fonts, the 2-qubit font
negativity and the global negativity (a closed form over the minors, by
Cauchy-Binet) derive from it.  K-way negativities are not font sums: they
go through the dense Hermitian eigensolver and take the density operator,
so one rho serves every (p, K) and mixed operators are measured the same way.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import DensityOperator, PureState
from .transpose import _rest_distance, kway_pt

# eigenvalues this close to zero are floating-point noise around PSD spectra
NEG_EIG_TOL = 1e-12
FONT_ZERO_TOL = 1e-14
_HERMITIAN_CHECK_TOL = 1e-10

_SIGMA_YY = np.array(
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=np.complex128
)


def hermitian_eigenvalues(m: np.ndarray | DensityOperator) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending.

    A raw array is checked for Hermiticity; a DensityOperator is read-only and
    was checked to the stricter HERMITIAN_TOL when it was built.
    """
    if isinstance(m, DensityOperator):
        return np.linalg.eigvalsh(m.matrix)
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    defect = np.abs(m - m.conj().T).max()
    if defect > _HERMITIAN_CHECK_TOL:
        raise ValueError(f"matrix is not Hermitian: max |m - m^dag| = {defect:.3e}")
    return np.linalg.eigvalsh(m)


def trace_norm(m: np.ndarray | DensityOperator) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.abs(hermitian_eigenvalues(m)).sum())


def global_negativity(state: PureState, p: int) -> float:
    """Trace norm of the global partial transpose minus one, in closed form.

    That is 2 s1 s2 for the Schmidt coefficients across qubit p, and by
    Cauchy-Binet (s1 s2)^2 is the sum of |det|^2 over the fonts; the squared
    norm divides out as the trace does in ``density``.
    """
    d = font_minors(state, p)
    norm2 = float(np.vdot(state.amplitudes, state.amplitudes).real)
    return float(2.0 * np.sqrt(np.sum(d.real**2 + d.imag**2) / 2.0)) / norm2


def kway_negativity(rho: DensityOperator, p: int, K: int) -> float:
    """Twice the absolute sum of negative eigenvalues of the K-way transpose."""
    eigs = hermitian_eigenvalues(kway_pt(rho, p, K))
    negative = eigs[eigs < -NEG_EIG_TOL]
    return float(2.0 * abs(negative.sum()))


def font_minors(state: PureState, p: int) -> np.ndarray:
    """All 2x2 minors D[u, v] = m0[u] m1[v] - m0[v] m1[u] of qubit p's amplitude matrix.

    m0 and m1 are the rows of the 2 x 2**(n-1) matrix whose row is bit p and
    whose column u lists the other bits in qubit order.  D is antisymmetric;
    its entry with u < v is the determinant of the font spanned by the labels
    (p-bit 0, rest u) and (p-bit 1, rest v).
    """
    n = state.n_qubits
    if not 1 <= p <= n:
        raise ValueError(f"qubit {p} out of range for {n} qubits")
    return _minor_matrix(state.amplitudes, n, p)


def _minor_matrix(amps: np.ndarray, n: int, p: int) -> np.ndarray:
    """``font_minors`` of each amplitude vector in the stack amps (..., 2**n)."""
    lead = amps.shape[:-1]
    rows = amps.reshape(lead + (2 ** (p - 1), 2, 2 ** (n - p)))
    m0 = rows[..., 0, :].reshape(lead + (-1, 1))
    m1 = rows[..., 1, :].reshape(lead + (1, -1))
    prod = _product(m0, m1)
    return prod - np.swapaxes(prod, -1, -2)


def _product(a: np.ndarray | complex, b: np.ndarray | complex) -> np.ndarray | complex:
    """Broadcast a * b in the real arithmetic of a scalar complex product.

    Every entry equals its Python-complex evaluation bit for bit; NumPy's
    vectorised complex multiply can differ in the last bit.  Two scalars,
    which NumPy would wrap in slow 0-d arrays, multiply as Python complex.
    """
    if not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray):
        return complex(a) * complex(b)
    out = np.empty(np.broadcast(a, b).shape, dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


@dataclass(frozen=True)
class Fonts:
    """The fonts of the partial transpose with respect to qubit p, one row each.

    Row r is spanned by the basis labels ``i[r]`` (bit p = 0) and ``j[r]``
    (bit p = 1), integers with qubit 1 as the most significant bit; ``k[r]``
    is their Hamming distance, ``det[r]`` the amplitude determinant and
    ``lambda_minus[r] = -|det[r]|`` the font's negative eigenvalue.
    ``negligible`` flags fonts whose determinant is zero to within
    FONT_ZERO_TOL and therefore contribute no negativity.
    """

    p: int
    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    det: np.ndarray
    lambda_minus: np.ndarray
    negligible: np.ndarray

    def __len__(self) -> int:
        return self.det.size


def enumerate_fonts(state: PureState, p: int) -> Fonts:
    """All fonts of the partial transpose w.r.t. qubit p, deduplicated.

    Fonts related by flipping bit p in both labels carry the same |det|, so
    each is reported once, canonically with i_p = 0, j_p = 1 and the non-p
    bits of i below those of j.
    """
    n = state.n_qubits
    d = font_minors(state, p)
    u, v = np.triu_indices(d.shape[0], k=1)
    det = d[u, v]
    # hypot is Python's abs(complex); np.abs can differ in the last bit
    magnitude = np.hypot(det.real, det.imag)
    # flat labels laid out as the amplitude rows in font_minors
    index = np.arange(2**n).reshape(2 ** (p - 1), 2, 2 ** (n - p))
    i, j = index[:, 0].reshape(-1)[u], index[:, 1].reshape(-1)[v]
    # the labels differ in bit p and in the rest bits u, v
    k = 1 + _rest_distance(n - 1)[u, v].astype(np.int64)
    return Fonts(p, i, j, k, det, -magnitude, magnitude <= FONT_ZERO_TOL)


def font_negativity_2q(state: PureState) -> float:
    """2 |a00 a11 - a01 a10|; agrees with the eigensolve negativity for 2 qubits."""
    if state.n_qubits != 2:
        raise ValueError(f"requires a 2-qubit state, got n = {state.n_qubits}")
    return 2.0 * abs(font_minors(state, 1)[0, 1])


def concurrence_2q(rho: DensityOperator) -> float:
    """Wootters concurrence max(0, sqrt(mu1) - sqrt(mu2) - sqrt(mu3) - sqrt(mu4)).

    The mu_i are the descending eigenvalues of rho (sy x sy) rho* (sy x sy).
    Their square roots are computed as singular values of the symmetric
    matrix sqrt(p) V^dag (sy x sy) V* sqrt(p) built on rho's eigenbasis,
    which keeps rank-deficient inputs (every reduction of a pure state)
    exact instead of amplifying eigensolver noise through the square root.
    """
    if rho.n_qubits != 2:
        raise ValueError(f"requires a 4x4 density operator, got n = {rho.n_qubits}")
    probs, vecs = np.linalg.eigh(rho.matrix)
    if probs.min() < -1e-9:
        raise ValueError(f"density operator is not PSD: min eigenvalue {probs.min():.3e}")
    keep = probs > 1e-12
    probs = probs[keep]
    vecs = vecs[:, keep]
    root = np.sqrt(probs)
    a = (root[:, None] * (vecs.conj().T @ _SIGMA_YY @ vecs.conj())) * root[None, :]
    lams = np.sort(np.linalg.svd(a, compute_uv=False))[::-1]
    lams = np.concatenate([lams, np.zeros(4 - lams.size)])
    c = lams[0] - lams[1] - lams[2] - lams[3]
    return float(min(max(c, 0.0), 1.0))
