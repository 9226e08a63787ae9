import numpy as np
import pytest

from tanglekit import (
    DensityOperator,
    decomposition_residual,
    density,
    ghz,
    global_pt,
    k_label,
    kway_negativity,
    kway_pt,
    make_state,
    product_state,
    random_state,
    w_state,
)
from tanglekit.spectra import NEG_EIG_TOL

INV_SQRT2 = 1 / np.sqrt(2)


def bell_density():
    return density(make_state(2, [("00", INV_SQRT2), ("11", INV_SQRT2)]))


class TestKLabel:
    @pytest.mark.parametrize(
        "i,j,expected",
        [("000", "000", 0), ("000", "111", 3), ("0101", "0110", 2), ("01", "10", 2)],
    )
    def test_hamming_distance(self, i, j, expected):
        assert k_label(i, j) == expected

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            k_label("00", "000")


class TestGlobalPT:
    def test_diagonal_operator_unchanged(self):
        rho = DensityOperator(2, np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
        for p in (1, 2):
            np.testing.assert_array_equal(global_pt(rho, p).matrix, rho.matrix)

    def test_bell_element_rule(self):
        # the 1/2 coherences move from (00,11),(11,00) to (10,01),(01,10)
        pt = global_pt(bell_density(), 1)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        expected[0b10, 0b01] = expected[0b01, 0b10] = 0.5
        np.testing.assert_allclose(pt.matrix, expected, atol=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_involution(self, seed):
        n = 3
        rho = density(random_state(n, seed))
        for p in range(1, n + 1):
            again = global_pt(global_pt(rho, p), p)
            np.testing.assert_array_equal(again.matrix, rho.matrix)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            global_pt(bell_density(), 3)

    @pytest.mark.parametrize("seed", range(6))
    def test_product_state_transpose_is_psd(self, seed):
        # Peres direction: separable across the p|rest cut keeps the PT positive
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, n + 1))
        single = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        rest = rng.standard_normal(2 ** (n - 1)) + 1j * rng.standard_normal(2 ** (n - 1))
        tensor = np.multiply.outer(single, rest).reshape((2,) + (2,) * (n - 1))
        amps = np.moveaxis(tensor, 0, p - 1).reshape(-1)
        state = make_state(n, [(format(i, f"0{n}b"), a) for i, a in enumerate(amps) if a != 0])
        eigs = np.linalg.eigvalsh(global_pt(density(state), p).matrix)
        assert eigs.min() >= -1e-10


class TestKWayPT:
    def test_ghz3_three_way_coherence_moves(self):
        rho = density(ghz(3))
        pt = kway_pt(rho, 1, 3)
        assert abs(pt.element("100", "011") - 0.5) < 1e-15
        assert abs(pt.element("011", "100") - 0.5) < 1e-15
        assert pt.element("000", "111") == 0
        # diagonal untouched
        assert abs(pt.element("000", "000") - 0.5) < 1e-15
        assert abs(pt.element("111", "111") - 0.5) < 1e-15

    def test_diagonal_operator_unchanged(self):
        rho = DensityOperator(3, np.diag(np.arange(1.0, 9.0) / 36).astype(complex))
        for p in (1, 2, 3):
            for K in (2, 3):
                np.testing.assert_array_equal(kway_pt(rho, p, K).matrix, rho.matrix)

    def test_w3_has_no_three_way_coherences(self):
        rho = density(w_state(3))
        np.testing.assert_array_equal(kway_pt(rho, 1, 3).matrix, rho.matrix)

    @pytest.mark.parametrize("seed", range(3))
    def test_involution(self, seed):
        rho = density(random_state(4, seed))
        for p in (1, 2, 3, 4):
            for K in (2, 3, 4):
                again = kway_pt(kway_pt(rho, p, K), p, K)
                np.testing.assert_array_equal(again.matrix, rho.matrix)

    @pytest.mark.parametrize("K", [1, 0, 4, -2])
    def test_k_out_of_range(self, K):
        with pytest.raises(ValueError, match="K must be"):
            kway_pt(density(ghz(3)), 1, K)

    @pytest.mark.parametrize("seed", range(3))
    def test_transposes_stay_hermitian_trace_one(self, seed):
        # DensityOperator construction enforces both; recheck explicitly
        rho = density(random_state(3, seed))
        for p in (1, 2, 3):
            for out in [global_pt(rho, p)] + [kway_pt(rho, p, K) for K in (2, 3)]:
                assert np.abs(out.matrix - out.matrix.conj().T).max() < 1e-12
                assert abs(np.trace(out.matrix) - 1) < 1e-12


def brute_force_kway_pt(matrix, n, p, K):
    """The K-way transpose element by element, from the rule in the module docstring.

    Element (i, j) whose labels differ in bit p and lie at Hamming distance K
    (1 or 2 when K = 2) becomes <j_p i_rest|rho|i_p j_rest>; every other
    element keeps its value.
    """
    labels = [format(v, f"0{n}b") for v in range(2**n)]
    out = [[complex(matrix[a, b]) for b in range(2**n)] for a in range(2**n)]
    for a, i in enumerate(labels):
        for b, j in enumerate(labels):
            distance = sum(x != y for x, y in zip(i, j))
            if i[p - 1] == j[p - 1] or not (distance == K or (K == 2 and distance == 1)):
                continue
            row = i[: p - 1] + j[p - 1] + i[p:]
            col = j[: p - 1] + i[p - 1] + j[p:]
            out[a][b] = complex(matrix[int(row, 2), int(col, 2)])
    return np.array(out)


class TestKWayOracle:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_element_rule(self, n):
        state = random_state(n, 300 + n)
        rho = density(state)
        for p in range(1, n + 1):
            for K in range(2, n + 1):
                expected = brute_force_kway_pt(rho.matrix, n, p, K)
                np.testing.assert_array_equal(kway_pt(rho, p, K).matrix, expected)
                eigs = np.linalg.eigvalsh(expected)
                negativity = 2.0 * abs(eigs[eigs < -NEG_EIG_TOL].sum())
                assert abs(kway_negativity(state, p, K) - negativity) < 1e-12


class TestDecomposition:
    def test_two_qubit_case_is_exact(self):
        # single K=2 term and a vanishing (N-2) correction
        for seed in range(5):
            rho = density(random_state(2, seed))
            for p in (1, 2):
                assert decomposition_residual(rho, p) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_random_four_qubit(self, seed):
        rho = density(random_state(4, seed))
        assert decomposition_residual(rho, 1) < 1e-13

    def test_ghz5_every_qubit(self):
        rho = density(ghz(5))
        for p in range(1, 6):
            assert decomposition_residual(rho, p) < 1e-13

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_random_states_all_qubits(self, n):
        for seed in range(20):
            rho = density(random_state(n, 1000 * n + seed))
            for p in range(1, n + 1):
                assert decomposition_residual(rho, p) < 1e-12

    def test_single_qubit_rejected(self):
        rho = density(product_state([(1, 0)]))
        with pytest.raises(ValueError):
            decomposition_residual(rho, 1)
