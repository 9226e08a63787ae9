import numpy as np
import pytest

from tanglekit import (
    DensityOperator,
    LocalUnitary,
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
    hermitian_eigenvalues,
    index_to_bits,
    kway_negativity,
    make_state,
    product_state,
    random_state,
    trace_norm,
    w_state,
)

INV_SQRT2 = 1 / np.sqrt(2)


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
            assert abs(trace_norm(density(random_state(3, seed))) - 1) < 1e-12

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


class TestKWayNegativity:
    def test_ghz3_values(self):
        assert abs(kway_negativity(density(ghz(3)), 1, 3) - 1) < 1e-12
        assert kway_negativity(density(ghz(3)), 1, 2) == 0.0

    def test_w3_three_way_is_zero(self):
        assert kway_negativity(density(w_state(3)), 1, 3) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            kway_negativity(density(ghz(3)), 1, 4)
        with pytest.raises(ValueError):
            kway_negativity(density(ghz(3)), 4, 2)


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
