import math
import warnings
from functools import reduce

import numpy as np
import pytest

from tanglekit import (
    DensityOperator,
    LocalUnitary,
    PureState,
    apply_local_unitary,
    concurrence_2q,
    density,
    enumerate_fonts,
    font_minors,
    font_negativity_2q,
    ghz,
    global_negativity,
    global_pt,
    haar_unitary,
    hermitian_eigenpairs,
    hermitian_eigenvalues,
    index_to_bits,
    kway_negativity,
    make_state,
    product_state,
    random_product_state,
    random_state,
    reduced_density,
    trace_norm,
    w_state,
)
from tanglekit import spectra
from tanglekit.spectra import (
    NEG_EIG_TOL,
    _rank_one_spectrum,
    _secular_roots,
    singular_value_decomposition,
)
from tanglekit.transpose import _kway_selection, _parity_order, _rest_distance

from oracles import dense_kway_negativity

INV_SQRT2 = 1 / np.sqrt(2)
SIGMA_Y = np.array([[0, -1j], [1j, 0]])
PAULI_X = np.array([[0, 1], [1, 0]])


def bell():
    return make_state(2, [("00", INV_SQRT2), ("11", INV_SQRT2)])


def eigensolve_negativity(state, p):
    """Twice the absolute sum of the negative eigenvalues of the global transpose."""
    eigs = hermitian_eigenvalues(global_pt(density(state), p))
    return 2 * abs(eigs[eigs < -1e-12].sum())


class TestHermitianEigenvalues:
    def test_diagonal(self):
        np.testing.assert_allclose(hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])

    def test_pauli_x(self):
        np.testing.assert_allclose(
            hermitian_eigenvalues(np.array([[0, 1], [1, 0]], dtype=complex)), [-1, 1]
        )

    def test_bell_global_transpose_spectrum(self):
        # 4x4 diagonalization by hand: diag 1/2 twice plus a {0,1/2;1/2,0} block
        pt = global_pt(density(bell()), 1)
        np.testing.assert_allclose(hermitian_eigenvalues(pt), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_eigenvalues(np.zeros((2, 3)))

    @pytest.mark.parametrize("defect, hermitian", [(1e-11, False), (1e-13, True)])
    def test_one_hermitian_tolerance(self, defect, hermitian):
        # the eigensolvers and DensityOperator accept and reject the same matrices
        m = np.array([[0.5, defect], [0, 0.5]], dtype=complex)
        for check in (hermitian_eigenvalues, lambda m: DensityOperator(1, m)):
            if hermitian:
                check(m)
            else:
                with pytest.raises(ValueError, match="not Hermitian"):
                    check(m)

    @pytest.mark.parametrize("bad", [[[np.nan]], [[np.inf, 0], [0, 1]]])
    @pytest.mark.parametrize("solver", [hermitian_eigenvalues, hermitian_eigenpairs, trace_norm,
                                        singular_value_decomposition])
    def test_rejects_non_finite(self, solver, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a NaN or inf must not reach the arithmetic
            with pytest.raises(ValueError, match="must be finite"):
                solver(np.array(bad))

    @pytest.mark.parametrize("solver", [hermitian_eigenvalues, hermitian_eigenpairs, trace_norm])
    def test_takes_matrices_only(self, solver):
        rho = density(bell())
        with pytest.raises(TypeError):
            solver(rho)
        np.testing.assert_allclose(hermitian_eigenvalues(rho.matrix), [0, 0, 0, 1], atol=1e-15)

    @pytest.mark.parametrize("dim", [1, 8, 32])
    def test_eigenpairs_diagonalize(self, dim):
        rng = np.random.default_rng(dim)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = (g + g.conj().T) / 2
        values, vectors = hermitian_eigenpairs(m)
        np.testing.assert_allclose(values, hermitian_eigenvalues(m), rtol=0, atol=1e-12)
        assert np.abs(vectors.conj().T @ vectors - np.eye(dim)).max() < 1e-13
        assert np.abs((vectors * values) @ vectors.conj().T - m).max() < 1e-12

    def test_eigenpairs_check_like_eigenvalues(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigenpairs(np.array([[0, 1], [0, 0]], dtype=complex))
        with pytest.raises(ValueError, match="square"):
            hermitian_eigenpairs(np.zeros((2, 3)))

    @pytest.mark.parametrize("dim", [1, 8, 32])
    def test_singular_value_decomposition_factors(self, dim):
        rng = np.random.default_rng(dim)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        g[:, -1] = 0.0  # rank-deficient: a zero singular value
        u, s, vh = singular_value_decomposition(g)
        assert np.all(np.diff(s) <= 0) and s[-1] < 1e-12
        for unitary in (u, vh):
            assert np.abs(unitary.conj().T @ unitary - np.eye(dim)).max() < 1e-13
        assert np.abs((u * s) @ vh - g).max() < 1e-12
        with pytest.raises(ValueError, match="square"):
            singular_value_decomposition(np.zeros((2, 3)))

    @pytest.mark.parametrize("dim", [2, 8, 32])
    def test_sum_matches_trace(self, dim):
        rng = np.random.default_rng(dim)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = (g + g.conj().T) / 2
        eigs = hermitian_eigenvalues(m)
        assert np.all(np.diff(eigs) >= 0)
        assert abs(eigs.sum() - np.trace(m).real) < 1e-10
        # second moment pins the spectrum against the Frobenius norm
        assert abs((eigs**2).sum() - (np.abs(m) ** 2).sum()) < 1e-8


class TestTraceNorm:
    def test_density_operator_is_one(self):
        for seed in range(3):
            assert abs(trace_norm(density(random_state(3, seed)).matrix) - 1) < 1e-12

    def test_bell_global_transpose(self):
        assert abs(trace_norm(global_pt(density(bell()), 1)) - 2) < 1e-12

    def test_diag_plus_minus_one(self):
        assert abs(trace_norm(np.diag([1.0, -1.0])) - 2) < 1e-15


class TestGlobalNegativity:
    def test_product_state_is_zero(self):
        assert global_negativity(product_state([(1, 0), (1, 0)]), 1) == 0.0

    def test_bell_is_one(self):
        assert abs(global_negativity(bell(), 1) - 1) < 1e-12

    def test_ghz3_is_one(self):
        assert abs(global_negativity(ghz(3), 1) - 1) < 1e-12

    def test_out_of_range_qubit(self):
        with pytest.raises(ValueError):
            global_negativity(bell(), 3)

    def test_qubit_must_be_an_integer(self):
        # 1.5 is in range, and would otherwise fail in a reshape with a TypeError
        with pytest.raises(ValueError, match="qubit must be an integer, got 1.5"):
            global_negativity(random_state(3, 1), 1.5)

    def test_matches_negative_eigenvalue_route(self):
        # the closed form against the dense eigensolve, up to 1024x1024
        for n in range(2, 11):
            qubits = range(1, n + 1) if n < 8 else (1, (n + 1) // 2, n)
            for seed in range(20 if n <= 5 else 2 if n < 8 else 1):
                s = random_state(n, 1000 * n + seed)
                for p in qubits:
                    assert abs(global_negativity(s, p) - eigensolve_negativity(s, p)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_local_unitary_invariance(self, n):
        rng = np.random.default_rng(n)
        for trial in range(67):
            s = random_state(n, 100 * n + trial)
            p = int(rng.integers(1, n + 1))
            q = int(rng.integers(1, n + 1))
            rotated = apply_local_unitary(s, LocalUnitary(q, haar_unitary(rng)))
            assert abs(global_negativity(s, p) - global_negativity(rotated, p)) < 1e-9


# each value by the half-size route on the state and by the dense route on its operator
ROUTES = [(kway_negativity, lambda state: state),
          (dense_kway_negativity, density)]


class TestKWayNegativity:
    def test_ghz3_values(self):
        for negativity, operand in ROUTES:
            assert abs(negativity(operand(ghz(3)), 1, 3) - 1) < 1e-12
            assert negativity(operand(ghz(3)), 1, 2) == 0.0

    def test_w3_three_way_is_zero(self):
        for negativity, operand in ROUTES:
            assert negativity(operand(w_state(3)), 1, 3) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_two_qubits_take_the_global_closed_form(self, seed):
        # at n = 2 the 2-way transpose is the global one: the same value, bit for bit
        for state in (random_state(2, seed), random_product_state(2, seed), ghz(2), w_state(2)):
            for p in (1, 2):
                assert kway_negativity(state, p, 2) == global_negativity(state, p)

    def test_out_of_range(self):
        for negativity, operand in ROUTES:
            with pytest.raises(ValueError):
                negativity(operand(ghz(3)), 1, 4)
            with pytest.raises(ValueError):
                negativity(operand(ghz(3)), 4, 2)
            with pytest.raises(ValueError):
                negativity(operand(ghz(3)), 1, 1)

    @pytest.mark.parametrize("n, K", [(3, 2.5), (3, 3.0), (3, 2.0), (2, 2.0), (4, "3")])
    def test_k_must_be_an_integer(self, n, K):
        # 2.5 and 3.0 would otherwise select no pair and read 0.0, and 2.0 at n = 2 would
        # take the closed form
        with pytest.raises(ValueError, match="K must be an integer"):
            kway_negativity(random_state(n, 1), 1, K)

    def test_takes_pure_states_only(self):
        state = random_state(3, 5)
        mixed = reduced_density(random_state(4, 5), (1, 2, 3))
        for operand in (density(state), mixed, density(state).matrix, state.amplitudes):
            with pytest.raises(TypeError, match="PureState"):
                kway_negativity(operand, 1, 3)


# every qubit at n = 3..8, the first and the last at n = 9 and 10
GOLDEN_CASES = [(n, p) for n in range(3, 9) for p in range(1, n + 1)]
GOLDEN_CASES += [(n, p) for n in (9, 10) for p in (1, n)]


class TestGoldenFamilies:
    """K-way negativities of GHZ and W states, known exactly: no oracle is needed."""

    @pytest.mark.parametrize("n, p", GOLDEN_CASES)
    def test_ghz_is_one_at_k_equal_n_only(self, n, p):
        state = ghz(n)
        for K in range(2, n + 1):
            expected = 1.0 if K == n else 0.0
            assert abs(kway_negativity(state, p, K) - expected) < 1e-13, K

    @pytest.mark.parametrize("n, p", GOLDEN_CASES)
    def test_w_is_two_way_only(self, n, p):
        # the 2-way transpose of W_n is its global one: N = 2 sqrt(n - 1) / n
        state = w_state(n)
        for K in range(2, n + 1):
            expected = 2.0 * math.sqrt(n - 1) / n if K == 2 else 0.0
            assert abs(kway_negativity(state, p, K) - expected) < 1e-13, K


class TestSymmetries:
    """K-way values under maps of basis labels that keep rest distances: no oracle is needed.

    The transforms go through apply_local_unitary or a transpose of the amplitude tensor,
    so they share no code with _rows or _parity_order.  A phase or a Haar unitary on qubit
    p itself is not a symmetry: it moves the values by 0.02-0.2.
    """

    @pytest.fixture(scope="class", params=range(3, 10), ids=lambda n: f"n{n}")
    def table(self, request):
        """A random state, its qubits p (every one up to n = 8, 1 and n at 9), its (p, K) values."""
        n = request.param
        state = random_state(n, 800 + n)
        qubits = range(1, n + 1) if n <= 8 else (1, n)
        values = {(p, K): kway_negativity(state, p, K) for p in qubits for K in range(2, n + 1)}
        return state, qubits, values

    @staticmethod
    def assert_values(moved, values, p, q):
        """kway_negativity(moved, p, K) equals values[(q, K)] for every K."""
        for K in range(2, moved.n_qubits + 1):
            assert abs(kway_negativity(moved, p, K) - values[(q, K)]) < 1e-13, (p, K)

    def test_local_monomials(self, table):
        # X on qubit p, and a phase on every other qubit, times X on every second one
        state, qubits, values = table
        n = state.n_qubits
        rng = np.random.default_rng(900 + n)
        for p in qubits:
            others = [q for q in range(1, n + 1) if q != p]
            lus = [LocalUnitary(q, np.diag(np.exp(2j * np.pi * rng.random(2)))
                                @ (PAULI_X if k % 2 else np.eye(2))) for k, q in enumerate(others)]
            moved = apply_local_unitary(state, LocalUnitary(p, PAULI_X), *lus)
            self.assert_values(moved, values, p, p)

    def test_complex_conjugation(self, table):
        state, qubits, values = table
        moved = PureState(state.n_qubits, state.amplitudes.conj())
        for p in qubits:
            self.assert_values(moved, values, p, p)

    def test_qubit_permutation(self, table):
        # qubit j of the moved state is qubit pi(j) of state: N_{j,K}(pi psi) = N_{pi(j),K}(psi)
        state, qubits, values = table
        n = state.n_qubits
        rng = np.random.default_rng(1000 + n)
        # at n = 9, where only qubits 1 and 9 have values, pi swaps them
        pi = list(rng.permutation(n) + 1) if n <= 8 else [n, *(rng.permutation(n - 2) + 2), 1]
        tensor = state.amplitudes.reshape((2,) * n).transpose([q - 1 for q in pi])
        moved = PureState(n, tensor.reshape(-1))
        for j in qubits:
            self.assert_values(moved, values, j, pi[j - 1])


@pytest.mark.parametrize("m", range(10))
def test_cached_tables_refuse_writes(m):
    # the caches hand the same arrays to every K-way value, on every stage thread
    for table in (_rest_distance(m), *_parity_order(m)):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = 1


def plus_on_first_qubit(n, seed):
    """|+> on qubit 1 times a random rest: qubit 1's rows a and b are equal."""
    rest = random_state(n - 1, seed).amplitudes
    return PureState(n, np.concatenate([rest, rest]) / math.sqrt(2))


def oracle_states(n):
    states = [random_state(n, 4000 + n), random_product_state(n, 4100 + n), ghz(n), w_state(n)]
    return states + [plus_on_first_qubit(n, 4200 + n)]


class TestHalfSizeOracle:
    """The half-size route against the dense route on the state's density operator."""

    @staticmethod
    def assert_matches(state, qubits, ks):
        rho = density(state)
        for p in qubits:
            for K in ks:
                gap = abs(kway_negativity(state, p, K) - dense_kway_negativity(rho, p, K))
                assert gap < 1e-12, (state.n_qubits, p, K, gap)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_every_qubit_and_k(self, n):
        for state in oracle_states(n):
            self.assert_matches(state, range(1, n + 1), range(2, n + 1))

    def test_eight_qubits(self):
        for state in oracle_states(8):
            self.assert_matches(state, (1, 4, 8), range(2, 9))

    # one dense oracle value costs about 0.1 s at n = 9 and 0.5 s at n = 10, so the
    # structured states stop at n = 8; the Haar state goes on, and at n = 9 so does
    # |+> times a Haar state on a qubit where its poles deflate and merge
    def test_nine_qubits(self):
        self.assert_matches(random_state(9, 4009), (1, 5, 9), range(2, 10))
        self.assert_matches(plus_on_first_qubit(9, 4209), (5,), range(2, 10))

    def test_ten_qubits(self):
        # K = 4 takes a generic 256 x 256 SVD; K = 10 pairs each label with its complement
        self.assert_matches(random_state(10, 4010), (1, 10), (2, 3, 4, 10))

    @pytest.mark.parametrize("state", [ghz(9), w_state(9), random_product_state(9, 4409)],
                             ids=["ghz", "w", "product"])
    def test_rank_deficient_blocks(self, state):
        # the parity blocks of these states have zero and tied eigen- and singular values
        self.assert_matches(state, (5,), (4, 5))

    @pytest.mark.parametrize("n", range(3, 11))
    def test_parity_split_drops_nothing(self, n):
        # in parity order every selected pair lies in the blocks the route keeps: the two
        # diagonal blocks for odd K, the two off-diagonal ones for even K
        order, distance = _parity_order(n - 1)
        rest = 2 ** (n - 1)
        parity = np.array([bin(u).count("1") % 2 for u in order])
        assert sorted(order) == list(range(rest))
        assert list(parity) == [0] * (rest // 2) + [1] * (rest // 2)
        xor = order[:, None] ^ order[None, :]
        popcount = sum((xor >> bit) & 1 for bit in range(n - 1))
        np.testing.assert_array_equal(distance, popcount)
        same_parity = parity[:, None] == parity[None, :]
        for K in range(3, n + 1):
            selected = _kway_selection(n, K, distance)
            assert selected.any()
            assert not (selected & (same_parity if K % 2 == 0 else ~same_parity)).any()

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_equal_rows_merge_every_pole(self, n):
        # a = b on qubit 1 makes H zero: all 2**n poles sit at 0 and merge into one, and
        # the state is a product across qubit 1
        state = plus_on_first_qubit(n, 4300 + n)
        assert [kway_negativity(state, 1, K) for K in range(2, n + 1)] == [0.0] * (n - 1)


class TestHalfSizeBlocks:
    """What each factorisation reads, against the blocks of the masked i (x - x^dag) o C_K."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_inputs_are_blocks_of_h(self, n, monkeypatch):
        captured = []

        def capture(solver):
            def wrapped(m):
                captured.append((solver.__name__, m))
                return solver(m)
            return wrapped

        for name in ("hermitian_eigenvalues", "hermitian_eigenpairs",
                     "singular_value_decomposition"):
            monkeypatch.setattr(spectra, name, capture(getattr(spectra, name)))
        state = random_state(n, 4500 + n)
        order, distance = _parity_order(n - 1)
        q = 2 ** (n - 2)
        for p in (1, n):
            rows = state.amplitudes.reshape(2 ** (p - 1), 2, 2 ** (n - p))
            a, b = rows[:, 0].reshape(-1)[order], rows[:, 1].reshape(-1)[order]
            x = np.outer(b, a.conj())
            for K in range(2, n + 1):
                route, side = spectra._kway_route(n, K)
                assert (route == "closed_form") == (n == 2)
                h = np.where(_kway_selection(n, K, distance), 1j * (x - x.conj().T), 0)
                if route == "closed_form":  # the global negativity's closed form factors nothing
                    expected = []
                elif K == 2:
                    expected = [("hermitian_eigenpairs", h)]
                elif K % 2:
                    expected = [("hermitian_eigenpairs", blk) for blk in (h[:q, :q], h[q:, q:])]
                else:
                    expected = [("singular_value_decomposition", h[:q, q:])]
                captured.clear()
                kway_negativity(state, p, K)
                assert [name for name, _ in captured] == [name for name, _ in expected]
                # the dims measure --trace reports: 2**(n-1) for K = 2, 2**(n-2) above
                assert side == (2 * q if K == 2 else q)
                for (name, m), (_, block) in zip(captured, expected):
                    assert m.shape == block.shape == (side, side)
                    assert np.abs(m - block).max() <= 1e-15 * np.abs(h).max()
                    if name == "hermitian_eigenpairs":
                        assert np.array_equal(m, m.conj().T)


def rank_one_case(name):
    """Poles d and weights w, unit total weight and 48 poles unless noted."""
    rng = np.random.default_rng(sum(map(ord, name)))
    d = rng.standard_normal(48) / 4
    w = rng.random(48)
    if name == "ties":  # each pole three times
        d = np.repeat(d[:16], 3)
    elif name == "zero_weights":
        w[::2] = 0.0
    elif name == "tiny_weights":
        w[::3] = 1e-20
    elif name == "negative_only":  # the root right of the largest pole may be negative too
        d = -np.abs(d) - 0.1
        w *= 0.05 / w.sum()
        return d, w
    elif name == "clusters":  # poles 1e-15 apart
        d = np.repeat(d[:12], 4) + np.tile(np.arange(4) * 1e-15, 12)
    elif name == "wide_range":  # |d| log-spaced from 1e-13 to 1, both signs
        d = rng.permutation(np.concatenate([np.logspace(-13, 0, 24), -np.logspace(-13, 0, 24)]))
    elif name == "dominant_weight":  # one weight 1e8 times the others
        w = np.ones(48)
        w[17] = 1e8
    elif name == "one_pole":  # its root d + 1 is negative
        d, w = -1.0 - np.abs(d[:1]), w[:1]
    elif name == "two_poles":
        d, w = -0.5 - np.abs(d[:2]), w[:2]
    return d, w / w.sum()


class TestRankOneSpectrum:
    # the secular solve against a dense eigensolve of diag(d) + z z^dag
    @pytest.mark.parametrize(
        "name", ["random", "ties", "zero_weights", "tiny_weights", "negative_only", "clusters",
                 "wide_range", "dominant_weight", "one_pole", "two_poles"]
    )
    def test_negative_eigenvalues_match_dense(self, name):
        d, w = rank_one_case(name)
        z = np.sqrt(w)
        dense = np.linalg.eigvalsh(np.diag(d) + np.outer(z, z))
        eigs = _rank_one_spectrum(d, w)
        ours = np.sort(eigs[eigs < -NEG_EIG_TOL])
        theirs = dense[dense < -NEG_EIG_TOL]
        assert ours.size == theirs.size
        assert np.abs(ours - theirs).max() < 1e-14

    def test_root_still_moving_at_the_step_cap_is_an_error(self, monkeypatch):
        d, w = rank_one_case("random")
        order = np.argsort(d)
        monkeypatch.setattr(spectra, "_SECULAR_MAX_STEPS", 1)
        with pytest.raises(RuntimeError, match=r"roots still moving after 1 steps"):
            _secular_roots(d[order], w[order])

    # distinct poles with weights far above tolerance, so nothing deflates or merges
    @pytest.mark.parametrize("name", ["random", "negative_only", "wide_range", "dominant_weight",
                                      "one_pole", "two_poles"])
    def test_roots_lie_strictly_inside_their_brackets(self, name):
        d, w = rank_one_case(name)
        order = np.argsort(d)
        d, w = d[order], w[order]
        k = np.flatnonzero(d < -NEG_EIG_TOL)
        roots = _secular_roots(d, w)
        assert roots.size == k.size and np.all(d[k] < roots)
        interior = k < d.size - 1
        assert np.all(roots[interior] < d[k[interior] + 1])
        assert np.all(roots[~interior] <= d[-1] + w.sum())


class TestFontMinors:
    def test_matches_brute_force_determinants(self):
        rng = np.random.default_rng(17)
        for trial in range(30):
            n = int(rng.integers(1, 7))
            p = int(rng.integers(1, n + 1))
            s = random_state(n, trial)
            d = font_minors(s, p)
            rest = 2 ** (n - 1)
            assert d.shape == (rest, rest)

            def label(p_bit, u):
                bits = format(u, f"0{n - 1}b") if n > 1 else ""
                return bits[: p - 1] + str(p_bit) + bits[p - 1 :]

            for u in range(rest):
                for v in range(rest):
                    a = s.amplitude
                    brute = a(label(0, u)) * a(label(1, v)) - a(label(0, v)) * a(label(1, u))
                    assert d[u, v] == brute  # same real arithmetic, bit for bit

    def test_antisymmetric(self):
        for seed in range(5):
            for p in (1, 3, 5):
                d = font_minors(random_state(5, seed), p)
                np.testing.assert_array_equal(d, -d.T)
                assert not np.diagonal(d).any()

    def test_out_of_range_qubit(self):
        with pytest.raises(ValueError):
            font_minors(bell(), 3)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_signed_complement_sum_is_sigma_y_overlap(self, n):
        # sum_u (-1)^popcount(u) D[u, ~u] = (-1)^(n/2) psi^T sigma_y^(xn) psi, with ~u the
        # complement of u in n - 1 bits and sigma_y^(xn) built by np.kron alone
        y = reduce(np.kron, [SIGMA_Y] * n)
        rest = 2 ** (n - 1)
        signs = np.array([(-1) ** bin(u).count("1") for u in range(rest)])
        for s in [random_state(n, seed) for seed in range(3)] + [ghz(n), w_state(n)]:
            d = font_minors(s, 1)
            signed = (signs * d[np.arange(rest), rest - 1 - np.arange(rest)]).sum()
            assert abs(signed - (-1) ** (n // 2) * (s.amplitudes @ y @ s.amplitudes)) < 1e-12


class TestFonts:
    def test_bell_single_font(self):
        fonts = enumerate_fonts(bell(), 1)
        assert len(fonts) == 1
        assert (index_to_bits(fonts.i[0], 2), index_to_bits(fonts.j[0], 2)) == ("00", "11")
        assert abs(fonts.det[0] - 0.5) < 1e-12
        assert abs(fonts.lambda_minus[0] + 0.5) < 1e-12
        assert fonts.k[0] == 2
        assert not fonts.negligible[0]

    def test_ghz3_font_layout(self):
        fonts = enumerate_fonts(ghz(3), 1)
        assert len(fonts) == 6  # unordered pairs of the four non-p bit patterns
        live = np.flatnonzero(~fonts.negligible)
        assert len(live) == 1
        r = live[0]
        assert (index_to_bits(fonts.i[r], 3), index_to_bits(fonts.j[r], 3)) == ("000", "111")
        assert abs(fonts.det[r] - 0.5) < 1e-12

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_product_state_fonts_all_flagged(self, p):
        s = product_state([(0.6, 0.8), (1, 1j), (0.3, -0.5)])
        assert enumerate_fonts(s, p).negligible.all()

    def test_font_location_invariants(self):
        for seed in range(5):
            s = random_state(3, seed)
            for p in (1, 2, 3):
                fonts = enumerate_fonts(s, p)
                assert not ((fonts.i >> (3 - p)) & 1).any()
                assert ((fonts.j >> (3 - p)) & 1).all()
                for i, j, k in zip(fonts.i, fonts.j, fonts.k):
                    labels = zip(index_to_bits(i, 3), index_to_bits(j, 3))
                    assert k == sum(a != b for a, b in labels)
                assert (fonts.k >= 2).all()  # spanning vectors distinct
                assert fonts.lambda_minus.tolist() == [-abs(d) for d in fonts.det.tolist()]

    def test_font_dets_invariant_under_unitary_on_p(self):
        # the sorted |det| multiset is exactly preserved by rotations of qubit p
        rng = np.random.default_rng(42)
        for trial in range(30):
            n = int(rng.integers(2, 5))
            p = int(rng.integers(1, n + 1))
            s = random_state(n, trial)
            rotated = apply_local_unitary(s, LocalUnitary(p, haar_unitary(rng)))
            before = np.sort(np.abs(enumerate_fonts(s, p).det))
            after = np.sort(np.abs(enumerate_fonts(rotated, p).det))
            assert np.abs(before - after).max() < 1e-12


    def test_equality_is_identity_and_hashing_works(self):
        fonts, again = (enumerate_fonts(random_state(3, 0), 1) for _ in range(2))
        assert fonts == fonts and fonts != again  # no elementwise compare of the columns
        assert hash(fonts) == hash(fonts)
        assert len({fonts, again}) == 2


class TestFontNegativity2Q:
    def test_bell(self):
        assert abs(font_negativity_2q(bell()) - 1) < 1e-12

    def test_product(self):
        assert font_negativity_2q(product_state([(1, 0), (1, 0)])) == 0.0

    def test_schmidt_form(self):
        s = make_state(2, [("00", np.sqrt(0.9)), ("11", np.sqrt(0.1))])
        assert abs(font_negativity_2q(s) - 0.6) < 1e-12
        assert abs(global_negativity(s, 1) - 0.6) < 1e-10

    def test_matches_eigensolve_negativity(self):
        for seed in range(100):
            s = random_state(2, seed)
            assert abs(font_negativity_2q(s) - eigensolve_negativity(s, 1)) < 1e-10

    def test_wrong_size(self):
        with pytest.raises(ValueError):
            font_negativity_2q(ghz(3))


class TestConcurrence:
    def test_bell_is_one(self):
        assert abs(concurrence_2q(density(bell())) - 1) < 1e-12

    def test_maximally_mixed_is_zero(self):
        assert concurrence_2q(DensityOperator(2, np.eye(4) / 4)) == 0.0

    def test_pure_states_match_font_formula(self):
        for seed in range(50):
            s = random_state(2, seed)
            assert abs(concurrence_2q(density(s)) - font_negativity_2q(s)) < 1e-10

    def test_rejects_non_psd(self):
        rho = DensityOperator(2, np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))
        with pytest.raises(ValueError, match="PSD"):
            concurrence_2q(rho)

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            concurrence_2q(density(ghz(3)))
