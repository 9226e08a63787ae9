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
Cauchy-Binet) derive from it.  K-way negativities are not font sums.  For a
pure state the K-way transpose of psi psi^dag is unitarily similar to
diag(mu, -mu) + z z^dag, with mu the spectrum of one 2**(n-1) Hermitian matrix
H built from qubit p's two rows, and the secular equation of that rank-one
update gives it.  H selects rest labels at distance K - 1, whose parity
fixes that of the two labels, so with the labels in parity order mu comes
from one of three factorisations:

    K = 2         one 2**(n-1) eigensolve of H
    K odd >= 3    H is block diagonal: one eigensolve of each 2**(n-2) block
    K even >= 4   H = [[0, G], [G^dag, 0]]: one 2**(n-2) SVD of G

``_kway_route`` names the route that ``measure --trace`` reports.  Any operator
rho, pure or mixed, has the dense spectrum ``hermitian_eigenvalues(kway_pt(rho, p, K))``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import DensityOperator, PureState, _check_finite, _check_hermitian, _check_qubit
from .transpose import _kway_selection, _parity_order, _rest_distance

# eigenvalues this close to zero are floating-point noise around PSD spectra
NEG_EIG_TOL = 1e-12
FONT_ZERO_TOL = 1e-14
# the route, as ``measure --trace`` names it, of a value read in closed form off amplitude minors
_CLOSED_FORM = "closed_form"
_EPS = float(np.finfo(float).eps)
# a bracket halved this often is below one ulp of any root; a root still moving after
# this many steps, which may be rational steps, is an error
_SECULAR_MAX_STEPS = 64

_SIGMA_YY = np.array(
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=np.complex128
)


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending."""
    return np.linalg.eigvalsh(_hermitian(m))


def hermitian_eigenpairs(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real eigenvalues of a Hermitian matrix, ascending, and its eigenvectors as columns."""
    return np.linalg.eigh(_hermitian(m))


def singular_value_decomposition(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """u, s, vh with m = u diag(s) vh for a square matrix m: s descending, u and vh unitary."""
    return np.linalg.svd(_square(m))


def _square(m: np.ndarray) -> np.ndarray:
    """m as a complex array, checked to be square and finite."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    _check_finite(m, "matrix")
    return m


def _hermitian(m: np.ndarray) -> np.ndarray:
    """m as a complex array, checked to be square, finite and Hermitian."""
    m = _square(m)
    _check_hermitian(m)
    return m


def trace_norm(m: np.ndarray) -> float:
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


def _kway_route(n: int, K: int) -> tuple[str, int]:
    """The route ``kway_negativity`` takes for n qubits and K, and the side it factors.

    At n = K = 2 the 2-way transpose is the global one, read in closed form off
    the 2**(n-1) minor matrix; K = 2 otherwise factors H, and K >= 3 its parity blocks.
    """
    if K > 2:
        return "parity_split", 2 ** (n - 2)
    return (_CLOSED_FORM if n == 2 else "half_size"), 2 ** (n - 1)


def kway_negativity(state: PureState, p: int, K: int) -> float:
    """Twice the absolute sum of negative eigenvalues of the K-way transpose of a pure state.

    With a, b qubit p's rows and C_K the K-way selection table,

        H = i (b a^dag - a b^dag) o C_K = V diag(mu) V^dag
        z = [V^dag (a - i b), V^dag (a + i b)] / sqrt 2
        spectrum(kway_pt(psi psi^dag)) = spectrum(diag(mu, -mu) + z z^dag)

    In block order (bit p = 0, bit p = 1) the transpose is psi psi^dag plus
    [[0, Y], [Y^dag, 0]] with Y = -i H, and [[V, V], [iV, -iV]] / sqrt 2 takes
    that sum to diag(mu, -mu) plus the rank-one z z^dag.  ``_half_size_factors``
    gives V and mu, and ``_kway_route`` names the route; at n = K = 2 it is
    ``global_negativity``'s closed form.  K must be an integer in [2, n], and
    anything but a PureState raises TypeError.
    """
    if not isinstance(state, PureState):
        raise TypeError(f"kway_negativity takes a PureState, got {type(state).__name__}")
    n = state.n_qubits
    _check_qubit(p, n)
    order, distance = _parity_order(n - 1)
    selected = _kway_selection(n, K, distance)  # checks K before any route is taken
    if _kway_route(n, K)[0] == _CLOSED_FORM:
        return global_negativity(state, p)
    a, b = (row[order] for row in _rows(state.amplitudes, n, p))
    mu, z = _half_size_factors(a, b, selected, K)
    norm2 = float(np.vdot(state.amplitudes, state.amplitudes).real)  # as ``density`` divides
    weights = (z.real**2 + z.imag**2).T.reshape(-1) / (2.0 * norm2)
    eigs = _rank_one_spectrum(np.concatenate([mu, -mu]) / norm2, weights)
    negative = eigs[eigs < -NEG_EIG_TOL]
    return float(2.0 * abs(negative.sum()))


def _half_size_factors(
    a: np.ndarray, b: np.ndarray, selected: np.ndarray, K: int
) -> tuple[np.ndarray, np.ndarray]:
    """mu and V^dag [a - i b, a + i b] for H = (Y + Y^dag) o selected = V diag(mu) V^dag.

    Y = i b a^dag, so H = i (b a^dag - a b^dag) o selected.  The labels are in
    parity order (``_parity_order``), so for K >= 3 H keeps only whole
    2**(n-2) blocks, and only those are built.  For odd K each diagonal block
    is (Y_blk + Y_blk^dag) o selected_blk, Hermitian bit for bit, and V is the
    direct sum of their eigenvectors.  For even K, H = [[0, G], [G^dag, 0]]
    with G = (i b_e a_o^dag - i a_e b_o^dag) o selected_eo, and
    G = U diag(s) W^dag gives mu = (s, -s) and V = [[U, U], [W, -W]] / sqrt 2.
    The blocks are freed on return, before the secular solve allocates its tables.
    """
    ib, c = 1j * b, np.stack([a - 1j * b, a + 1j * b], axis=1)
    e, o = slice(None, a.size // 2), slice(a.size // 2, None)  # the even labels come first
    if K > 2 and K % 2 == 0:
        g = (np.outer(ib[e], a[o].conj()) - np.outer(1j * a[e], b[o].conj())) * selected[e, o]
        u, s, wh = singular_value_decomposition(g)
        even, odd = (c[e].conj().T @ u).conj().T, wh @ c[o]  # u^dag c_e, no copy of u^dag
        return np.concatenate([s, -s]), np.concatenate([even + odd, even - odd]) / np.sqrt(2.0)
    mu, z = [], []
    for block in [slice(None)] if K == 2 else [e, o]:
        y = np.outer(ib[block], a[block].conj())
        y += y.conj().T
        y *= selected[block, block]
        values, v = hermitian_eigenpairs(y)
        mu.append(values)
        z.append((c[block].conj().T @ v).conj().T)
    return np.concatenate(mu), np.concatenate(z)


def _rank_one_spectrum(d: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Eigenvalues of diag(d) + z z^dag with |z|^2 = w, among them every one below -NEG_EIG_TOL.

    A pole whose weight is below tolerance is itself an eigenvalue, and poles
    closer than tolerance merge into one carrying their summed weight, each
    leaving the others behind as eigenvalues (Bunch, Nielsen and Sorensen
    1978).  The merged poles are distinct with positive weights, so one root
    of the secular equation lies right of each.
    """
    order = np.argsort(d, kind="stable")
    d, w = d[order], w[order]
    tol = 8.0 * _EPS * max(np.abs(d).max(), w.sum())
    live = w > tol**2  # deflating a weight moves an eigenvalue by at most its sqrt
    kept, d, w = d[~live], d[live], w[live]
    first = np.concatenate([[True], np.diff(d) > tol])
    weights = np.bincount(np.cumsum(first) - 1, weights=w)
    return np.concatenate([kept, d[~first], _secular_roots(d[first], weights)])


def _secular_roots(d: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Roots of 1 + sum_i w_i / (d_i - lam) right of each pole d_k < -NEG_EIG_TOL.

    d ascends strictly and w > 0, so the root right of d_k lies in
    (d_k, d_k+1), or for the last pole in (d_k, d_k + sum w].  As in LAPACK
    dlaed4, each root is sought as its offset from the end pole nearer to it
    (by the sign of f at the middle), and starts at dlaed4's guess: the root
    of c + w_k / (d_k - lam) + w_k+1 / (d_k+1 - lam), c being f at the middle
    less those two terms, or at the middle where that guess is not inside
    the bracket.  Each step takes the "middle way" rational step (Li, LAPACK
    Working Note 89), a Newton step where that points the wrong way and a
    bisection where a step leaves the sign bracket, until a step is at most
    2 ulp of lam (or of the offset).  A root still moving after
    _SECULAR_MAX_STEPS steps raises RuntimeError.  With r = 1 / (d - lam),
    f and its slope are matrix-vector products, and ``far_w``, w on each
    interval's far end pole and the poles beyond it, gives the slope's far
    part.  The origin side's part is the rest, exact to rounding as the root
    nears its origin.
    """
    k = np.flatnonzero(d < -NEG_EIG_TOL)  # a prefix of d, which ascends
    # the last root lies in (d_max, d_max + sum w]: a zero-weight end beyond that closes it
    ends = np.append(d[1:], d[-1] + 2.0 * w.sum())[k]
    w_k, w_end = w[k], np.append(w[1:], 0.0)[k]
    middle = (d[k] + ends) / 2.0
    table = np.empty((k.size, d.size))  # r's rows, reused
    with np.errstate(all="ignore"):  # a pole hit in the last ulp gives inf; its bisection follows
        f = 1.0 + np.divide(1.0, np.subtract(d, middle[:, None], out=table), out=table) @ w
        # f > 0 at the middle puts the root in the left half, nearer d_k
        nearer_left = (f >= 0) | (k == d.size - 1)
        origin = np.where(nearer_left, d[k], ends)
        lower, upper = d[k] - origin, ends - origin
        c = f - w_k / (d[k] - middle) - w_end / (ends - middle)
        far = np.where(nearer_left, upper, lower)  # the other end, from the origin
        A, B = c * far + w_k + w_end, np.where(nearer_left, w_k, w_end) * far
        guess = _minus_root(A, B, c)  # a NaN or infinite guess fails a comparison
        tau = np.where((lower < guess) & (guess < upper), guess, middle - origin)
        offset = d[None, :] - origin[:, None]  # d_i - origin, exact near the origin
        far_w = np.zeros_like(offset)  # np.tri marks the poles up to d_k in row k
        np.copyto(far_w, w, where=np.tri(*offset.shape, dtype=bool) != nearer_left[:, None])
        lo, hi = lower.copy(), upper.copy()
        active = np.arange(k.size)
        for _ in range(_SECULAR_MAX_STEPS):
            rows = slice(None) if active.size == k.size else active  # no copy while all are
            t = tau[rows]
            r = np.subtract(offset[rows], t[:, None], out=table[: t.size])
            np.divide(1.0, r, out=r)  # 1 / (d_i - lam)
            f = 1.0 + r @ w
            r *= r
            slope, beyond = r @ w, np.einsum("ij,ij->i", r, far_w[rows])
            lo[rows] = np.where(f < 0, t, lo[rows])
            hi[rows] = np.where(f > 0, t, hi[rows])
            dn, df = -t, far[rows] - t  # d - lam at the origin and at the far end
            A = (dn + df) * f - dn * df * slope
            B = dn * df * f
            C = f - dn * (slope - beyond) - df * beyond
            eta = np.where(C == 0, B / A, _minus_root(A, B, C))
            eta = np.where(f * eta >= 0, -f / slope, eta)  # the wrong way: Newton
            step = t + eta
            ulp2 = 2.0 * _EPS * np.maximum(np.abs(origin[rows] + t), np.abs(t))
            close = np.abs(eta) <= ulp2
            inside = close | (lo[rows] < step) & (step < hi[rows])
            step = np.where(inside, step, (lo[rows] + hi[rows]) / 2.0)
            moving = ~close & (np.abs(step - t) > ulp2)
            tau[rows] = step
            active = active[moving]
            if active.size == 0:
                break
        else:
            raise RuntimeError(f"secular solve: {active.size} of {k.size} roots still moving "
                               f"after {_SECULAR_MAX_STEPS} steps")
    return origin + tau


def _minus_root(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The root (A - sqrt(A^2 - 4 B C)) / 2C of C x^2 - A x + B = 0, without cancellation."""
    disc = np.sqrt(np.abs(A * A - 4.0 * B * C))
    return np.where(A <= 0, (A - disc) / (2.0 * C), 2.0 * B / (A + disc))


def font_minors(state: PureState, p: int) -> np.ndarray:
    """All 2x2 minors D[u, v] = m0[u] m1[v] - m0[v] m1[u] of qubit p's amplitude matrix.

    m0 and m1 are the rows of the 2 x 2**(n-1) matrix whose row is bit p and
    whose column u lists the other bits in qubit order.  D is antisymmetric;
    its entry with u < v is the determinant of the font spanned by the labels
    (p-bit 0, rest u) and (p-bit 1, rest v).
    """
    _check_qubit(p, state.n_qubits)
    return _minor_matrix(state.amplitudes, state.n_qubits, p)


def _rows(amps: np.ndarray, n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows m0, m1 (bit p = 0, 1) of qubit p's 2 x 2**(n-1) matrix for each vector in amps.

    Column u lists the other bits in qubit order, as ``_rest_distance`` does.
    """
    lead = amps.shape[:-1]
    rows = amps.reshape(lead + (2 ** (p - 1), 2, 2 ** (n - p)))
    return rows[..., 0, :].reshape(lead + (-1,)), rows[..., 1, :].reshape(lead + (-1,))


def _minor_matrix(amps: np.ndarray, n: int, p: int) -> np.ndarray:
    """``font_minors`` of each amplitude vector in the stack amps (..., 2**n)."""
    m0, m1 = _rows(amps, n, p)
    prod = _product(m0[..., :, None], m1[..., None, :])
    return prod - np.swapaxes(prod, -1, -2)


def _product(a: np.ndarray | complex, b: np.ndarray | complex) -> np.ndarray:
    """Broadcast a * b in the real arithmetic of a scalar complex product.

    Every entry equals its Python-complex evaluation bit for bit; NumPy's
    vectorised complex multiply can differ in the last bit.
    """
    out = np.empty(np.broadcast(a, b).shape, dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


@dataclass(frozen=True, eq=False)
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
    probs, vecs = hermitian_eigenpairs(rho.matrix)
    if probs.min() < -1e-9:
        raise ValueError(f"density operator is not PSD: min eigenvalue {probs.min():.3e}")
    keep = probs > 1e-12
    root, vecs = np.sqrt(probs[keep]), vecs[:, keep]
    a = (root[:, None] * (vecs.conj().T @ _SIGMA_YY @ vecs.conj())) * root[None, :]
    lams = singular_value_decomposition(a)[1]
    lams = np.concatenate([lams, np.zeros(4 - lams.size)])
    c = lams[0] - lams[1] - lams[2] - lams[3]
    return float(min(max(c, 0.0), 1.0))
