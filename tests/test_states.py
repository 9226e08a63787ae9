import json

import numpy as np
import pytest

from tanglekit import (
    BasisIndex,
    DensityOperator,
    LocalUnitary,
    PureState,
    apply_local_unitary,
    bits_to_index,
    cluster4,
    concurrence_2q,
    covariance_check_3,
    covariance_check_4,
    decomposition_residual,
    density,
    enumerate_fonts,
    font_minors,
    font_negativity_2q,
    four_invariant,
    four_qubit_fonts,
    four_tangle,
    ghz,
    global_negativity,
    haar_unitary,
    kway_negativity,
    kway_pt,
    lu_invariance_sweep,
    make_state,
    monogamy_residual,
    product_identity_residual,
    product_state,
    random_local_unitary,
    random_product_state,
    random_state,
    reduced_density,
    state_from_payload,
    state_to_payload,
    su2_rotation,
    three_qubit_fonts,
    three_tangle,
    w_state,
)
from tanglekit.states import _check_count, _rng, parse_qubit

INV_SQRT2 = 1 / np.sqrt(2)


class TestMakeState:
    def test_bell_state(self):
        s = make_state(2, [("00", INV_SQRT2), ("11", INV_SQRT2)])
        np.testing.assert_allclose(s.amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-15)
        assert abs(np.linalg.norm(s.amplitudes) - 1) < 1e-12
        assert s.norm_shift <= 1e-10

    def test_normalizes_and_records_shift(self):
        s = make_state(3, [("000", 1), ("111", 1)])
        assert abs(s.amplitude("000") - INV_SQRT2) < 1e-15
        assert abs(s.amplitude("111") - INV_SQRT2) < 1e-15
        assert s.norm_shift > 1e-10  # input had norm sqrt(2)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            make_state(1, [])
        with pytest.raises(ValueError, match="all-zero"):
            make_state(2, [("01", 0.0)])

    @pytest.mark.parametrize("entries,expected", [
        ([("00", 1e-200), ("11", 1e-200)], [("00", 1), ("11", 1)]),  # the norm underflows
        ([("01", 1e-320)], [("01", 1)]),  # a subnormal amplitude
        ([("10", 1e308 + 1e308j)], [("10", 1 + 1j)]),  # the norm overflows
        ([("00", 1e308), ("11", -3e307j)], [("00", 1), ("11", -0.3j)]),
    ])
    def test_nonzero_norm_outside_the_float_range(self, entries, expected):
        # the pytest configuration makes a NumPy overflow warning an error
        s = make_state(2, entries)
        np.testing.assert_allclose(s.amplitudes, make_state(2, expected).amplitudes,
                                   rtol=1e-15, atol=0)
        norm = np.sqrt(sum(abs(complex(a) / 1e300) ** 2 for _, a in entries)) * 1e300
        assert s.norm_shift == pytest.approx(abs(norm - 1.0), rel=1e-12)

    def test_wrong_length_bit_string(self):
        with pytest.raises(ValueError, match="length"):
            make_state(2, [("010", 1.0)])

    def test_duplicate_index(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_state(2, [("01", 1.0), ("01", 0.5)])

    @pytest.mark.parametrize("n", [0, -1, 11])
    def test_n_out_of_range(self, n):
        with pytest.raises(ValueError):
            make_state(n, [("0" * max(n, 1), 1.0)])


class TestConstructors:
    def test_ghz3_amplitudes(self):
        s = ghz(3)
        assert abs(s.amplitude("000") - INV_SQRT2) < 1e-15
        assert abs(s.amplitude("111") - INV_SQRT2) < 1e-15
        assert np.abs(s.amplitudes[1:-1]).max() == 0

    def test_w3_amplitudes(self):
        s = w_state(3)
        for bits in ("001", "010", "100"):
            assert abs(s.amplitude(bits) - 1 / np.sqrt(3)) < 1e-15
        assert abs(s.amplitude("000")) == 0
        assert abs(s.amplitude("111")) == 0

    def test_cluster4_amplitudes(self):
        s = cluster4()
        assert s.amplitude("0000") == 0.5
        assert s.amplitude("0011") == 0.5
        assert s.amplitude("1100") == 0.5
        assert s.amplitude("1111") == -0.5

    def test_product_state_identity_case(self):
        s = product_state([(1, 0), (1, 0)])
        np.testing.assert_allclose(s.amplitudes, [1, 0, 0, 0], atol=1e-15)

    @pytest.mark.parametrize("ctor", [ghz, w_state])
    def test_ghz_w_need_two_qubits(self, ctor):
        with pytest.raises(ValueError):
            ctor(1)


class TestSu2Rotation:
    def test_zero_parameter_is_identity(self):
        np.testing.assert_array_equal(su2_rotation(0), np.eye(2))

    def test_unit_parameter(self):
        expected = np.array([[1, -1], [1, 1]]) / np.sqrt(2)
        np.testing.assert_allclose(su2_rotation(1), expected, atol=1e-15)

    @pytest.mark.parametrize(
        "x", [complex("nan"), complex(0, float("nan")), float("inf"), -float("inf"), 1e160, 1e200j]
    )
    def test_rejects_parameter_with_unbounded_norm(self, x):
        with pytest.raises(ValueError, match="rotation parameter"):
            su2_rotation(x)

    def test_largest_parameters_still_unitary(self):
        for x in (1e154, 1e150 - 1e150j):
            u = su2_rotation(x)
            assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12

    @pytest.mark.parametrize("x", [0.3, -2.0, 1j, 0.7 - 1.4j, 5 + 3j])
    def test_unitary_with_unit_determinant(self, x):
        u = su2_rotation(x)
        assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12
        assert abs(np.linalg.det(u) - 1) < 1e-12


class TestRandomSampling:
    def test_random_state_deterministic(self):
        a = random_state(2, seed=7)
        b = random_state(2, seed=7)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_state_normalized(self, seed):
        s = random_state(3, seed)
        assert abs(np.linalg.norm(s.amplitudes) - 1) < 1e-12

    def test_random_local_unitary_deterministic(self):
        a = random_local_unitary(1, seed=3)
        b = random_local_unitary(1, seed=3)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_random_product_state_deterministic(self):
        a = random_product_state(4, seed=5)
        b = random_product_state(4, seed=5)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
        assert not np.array_equal(a.amplitudes, random_product_state(4, seed=6).amplitudes)

    @pytest.mark.parametrize("draw", [lambda seed: random_state(3, seed),
                                      lambda seed: random_product_state(3, seed),
                                      lambda seed: random_local_unitary(1, seed)],
                             ids=["random_state", "random_product_state", "random_local_unitary"])
    @pytest.mark.parametrize("seed", [2.5, 3.0, "3"])
    def test_non_integer_seed(self, draw, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            draw(seed)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_random_product_state_fonts_negligible(self, n):
        s = random_product_state(n, seed=100 + n)
        for p in range(1, n + 1):
            assert enumerate_fonts(s, p).negligible.all()

    def test_haar_first_element_moment(self):
        # E|U00|^2 = 1/2 for Haar on U(2)
        rng = np.random.default_rng(2024)
        mean = np.mean([abs(haar_unitary(rng)[0, 0]) ** 2 for _ in range(10_000)])
        assert abs(mean - 0.5) < 0.02


class TestApplyLocalUnitary:
    def test_identity_leaves_amplitudes(self):
        s = ghz(3)
        out = apply_local_unitary(s, LocalUnitary(1, np.eye(2)))
        np.testing.assert_array_equal(out.amplitudes, s.amplitudes)

    def test_rotates_single_qubit(self):
        zero = make_state(1, [("0", 1.0)])
        out = apply_local_unitary(zero, LocalUnitary(1, su2_rotation(1)))
        np.testing.assert_allclose(out.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-15)

    @pytest.mark.parametrize("seed", range(8))
    def test_norm_preserved_and_inverse_restores(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        s = random_state(n, seed)
        lu = LocalUnitary(int(rng.integers(1, n + 1)), haar_unitary(rng))
        rotated = apply_local_unitary(s, lu)
        assert abs(np.linalg.norm(rotated.amplitudes) - 1) < 1e-12
        restored = apply_local_unitary(rotated, lu.dagger())
        np.testing.assert_allclose(restored.amplitudes, s.amplitudes, atol=1e-12)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_local_unitary(ghz(2), LocalUnitary(3, np.eye(2)))
        with pytest.raises(ValueError, match="out of range"):
            apply_local_unitary(ghz(2), LocalUnitary(1, np.eye(2)), LocalUnitary(3, np.eye(2)))

    def test_target_must_be_an_integer(self):
        # 1.5 is in range; LocalUnitary rejects it before a reshape can fail with a TypeError
        with pytest.raises(ValueError, match="qubit must be an integer, got 1.5"):
            apply_local_unitary(random_state(3, 1), LocalUnitary(1.5, np.eye(2)))

    def test_no_unitaries_keeps_amplitudes(self):
        s = random_state(3, 5)
        np.testing.assert_array_equal(apply_local_unitary(s).amplitudes, s.amplitudes)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_product_matches_sequential_calls(self, n):
        rng = np.random.default_rng(60 + n)
        s = random_state(n, 60 + n)
        for _ in range(5):
            # every target in a shuffled order, then repeated targets
            targets = [*rng.permutation(range(1, n + 1)), *rng.integers(1, n + 1, size=3)]
            lus = [LocalUnitary(int(q), haar_unitary(rng)) for q in targets]
            sequential = s
            full = s.amplitudes
            for lu in lus:
                sequential = apply_local_unitary(sequential, lu)
                q = lu.target
                operator = np.kron(np.kron(np.eye(2 ** (q - 1)), lu.matrix), np.eye(2 ** (n - q)))
                full = operator @ full
            product = apply_local_unitary(s, *lus).amplitudes
            assert np.abs(product - sequential.amplitudes).max() <= 1e-15
            assert np.abs(product - full).max() <= 1e-15


class TestDensity:
    def test_basis_state(self):
        rho = density(make_state(1, [("0", 1.0)]))
        np.testing.assert_array_equal(rho.matrix, np.diag([1.0, 0.0]))

    def test_bell_entries(self):
        # outer product by hand: 1/2 at the four corners of the 00/11 block
        rho = density(make_state(2, [("00", INV_SQRT2), ("11", INV_SQRT2)]))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_trace_hermiticity_and_purity(self, seed):
        rho = density(random_state(3, seed))
        assert abs(np.trace(rho.matrix) - 1) < 1e-12
        assert np.abs(rho.matrix - rho.matrix.conj().T).max() < 1e-14
        eigs = np.sort(np.linalg.eigvalsh(rho.matrix))
        assert abs(eigs[-1] - 1) < 1e-10
        assert np.abs(eigs[:-1]).max() < 1e-10

    def test_element_addressing(self):
        rho = density(ghz(3))
        assert abs(rho.element("000", "111") - 0.5) < 1e-15


class TestReducedDensity:
    def test_ghz3_pair_reduction(self):
        rho = reduced_density(ghz(3), (1, 2))
        np.testing.assert_allclose(rho.matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-15)

    @pytest.mark.parametrize("keep", [(1, 2), (1, 3), (2,), (3, 1, 2)])
    def test_accepts_state_within_norm_tolerance(self, keep):
        # the norm check allows 1e-10 and the trace check 1e-12, so the
        # reduction scales to unit trace as density does
        s = PureState(3, random_state(3, 1).amplitudes * (1 + 4e-11))
        rho = reduced_density(s, keep)
        assert abs(np.trace(rho.matrix) - 1) < 1e-15

    def test_invalid_qubits(self):
        with pytest.raises(ValueError):
            reduced_density(ghz(3), (1, 4))
        with pytest.raises(ValueError):
            reduced_density(ghz(3), (2, 2))

    @pytest.mark.parametrize("keep", [(1.0, 2), (1, 2.5)])
    def test_non_integer_qubits(self, keep):
        with pytest.raises(ValueError, match="qubit must be an integer"):
            reduced_density(ghz(3), keep)


class TestBasisIndex:
    @pytest.mark.parametrize("bits,value", [("00", 0), ("01", 1), ("10", 2), ("0101", 5)])
    def test_round_trip(self, bits, value):
        idx = BasisIndex.from_string(bits)
        assert idx.value == value
        assert BasisIndex.from_int(value, len(bits)).string == bits

    def test_amplitude_round_trip(self):
        # the amplitude stored for a bit string is retrieved by the same string
        s = make_state(3, [("010", 0.6), ("101", 0.8)])
        assert abs(s.amplitude("010") - 0.6) < 1e-12
        assert abs(s.amplitude("101") - 0.8) < 1e-12

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            BasisIndex.from_string("012")

    @pytest.mark.parametrize(
        "bits", ["\uff10\uff11", "0\u0661"], ids=["fullwidth", "arabic-indic"]
    )
    def test_rejects_non_ascii_digits(self, bits):
        # int() reads these as 0 and 1; labels accept only the characters "0" and "1"
        with pytest.raises(ValueError, match="only 0 and 1"):
            random_state(2, 1).amplitude(bits)
        with pytest.raises(ValueError, match="only 0 and 1"):
            density(random_state(2, 1)).element("00", bits)
        with pytest.raises(ValueError, match="only 0 and 1"):
            BasisIndex.from_string(bits)

    @pytest.mark.parametrize("bits", [(1, 0, 1), [0, 1, 0, 1], "101", "0101", "1" * 10])
    def test_bits_to_index_reads_a_string_or_a_sequence(self, bits):
        assert bits_to_index(bits) == int("".join(map(str, bits)), 2)

    @pytest.mark.parametrize("bits", ["", [], (), "0b1", "+1", " 01", "0_1", "2", "\u0661",
                                      (0, 2), "01 "])
    def test_bits_to_index_rejects_all_but_0_and_1(self, bits):
        # int(bits, 2) reads '', '0b1', '+1', ' 01', '0_1', '\u0661' and '01 ' as numbers
        with pytest.raises(ValueError) as error:
            bits_to_index(bits)
        assert str(error.value) == f"bit string may contain only 0 and 1, got {bits!r}"

    @pytest.mark.parametrize(
        "lookup",
        [lambda: make_state(3, [("01", 1)]), lambda: ghz(3).amplitude("01"),
         lambda: density(ghz(3)).element("000", "01")],
        ids=["make_state", "amplitude", "element"],
    )
    def test_wrong_length_label_has_one_message(self, lookup):
        with pytest.raises(ValueError, match="bit string '01' does not have length 3"):
            lookup()


# (constructor, stored attribute, valid input, input of the wrong shape)
VALUE_TYPES = [
    (lambda a: PureState(1, a), "amplitudes", [INV_SQRT2, INV_SQRT2], np.full(4, 0.5)),
    (lambda a: LocalUnitary(1, a), "matrix", np.eye(2), np.eye(3)),
    (lambda a: DensityOperator(1, a), "matrix", np.diag([0.25, 0.75]), np.diag([0.5, 0.5, 0.0])),
]
VALUE_TYPE_IDS = ["PureState", "LocalUnitary", "DensityOperator"]


@pytest.mark.parametrize("build,attr,valid,wrong_shape", VALUE_TYPES, ids=VALUE_TYPE_IDS)
class TestSharedChecks:
    def test_rejects_wrong_shape(self, build, attr, valid, wrong_shape):
        with pytest.raises(ValueError, match="shape"):
            build(wrong_shape)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
    def test_rejects_non_finite_entry(self, build, attr, valid, wrong_shape, bad):
        arr = np.array(valid, dtype=np.complex128)
        arr.flat[0] = bad
        with pytest.raises(ValueError, match="finite"):
            build(arr)

    def test_stores_read_only_copy(self, build, attr, valid, wrong_shape):
        arr = np.array(valid, dtype=np.complex128)
        value = build(arr)
        stored = getattr(value, attr)
        arr.flat[0] = 7.0
        np.testing.assert_array_equal(stored, np.asarray(valid, dtype=np.complex128))
        assert not stored.flags.writeable
        with pytest.raises(ValueError):
            stored.flat[0] = 7.0


class TestValidation:
    def test_pure_state_requires_normalization(self):
        with pytest.raises(ValueError, match="not normalized"):
            PureState(1, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("n", [3.0, 2.5, "3"])
    def test_qubit_count_must_be_an_integer(self, n):
        # 3.0 would otherwise be accepted, and the tangles, negativities and fonts fail later
        with pytest.raises(ValueError, match=f"qubit count must be an integer, got {n!r}"):
            PureState(n, random_state(3, 1).amplitudes)

    @pytest.mark.parametrize("n,matrix,message", [
        (3.0, density(random_state(3, 1)).matrix, "qubit count must be an integer, got 3.0"),
        (0, [[1.0]], "requires 1 <= n <= 10 qubits, got 0"),
    ])
    def test_density_operator_checks_its_qubit_count(self, n, matrix, message):
        # 3.0 passed the shape check, and kway_pt then failed with a TypeError
        with pytest.raises(ValueError, match=message):
            DensityOperator(n, matrix)

    @pytest.mark.parametrize("target", [1.5, 1.0, "1"])
    def test_local_unitary_target_must_be_an_integer(self, target):
        with pytest.raises(ValueError, match=f"target qubit must be an integer, got {target!r}"):
            LocalUnitary(target, np.eye(2))

    def test_local_unitary_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            LocalUnitary(1, np.array([[1, 0], [0, 2]]))

    def test_density_operator_rejects_non_hermitian(self):
        m = np.zeros((2, 2), dtype=complex)
        m[0, 0] = 1.0
        m[0, 1] = 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(1, m)

    def test_density_operator_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(1, np.diag([1.0, 1.0]))


class TestCheckCount:
    """``_check_count`` is the one rule for a qubit count: a state's, and each measure's."""

    @pytest.mark.parametrize("n, least, most, message", [
        (4, 3, 3, "requires a 3-qubit state, got n = 4"),
        (2, 4, 4, "requires a 4-qubit state, got n = 2"),
        (0, 1, 10, "requires 1 <= n <= 10 qubits, got 0"),
        (11, 1, 10, "requires 1 <= n <= 10 qubits, got 11"),
        (1, 2, 10, "requires 2 <= n <= 10 qubits, got 1"),
        (5, 3, 4, "requires 3 <= n <= 4 qubits, got 5"),
        (2, 3, 4, "requires 3 <= n <= 4 qubits, got 2"),
        (3.0, 3, 3, "qubit count must be an integer, got 3.0"),
    ])
    def test_message(self, n, least, most, message):
        with pytest.raises(ValueError) as raised:
            _check_count(n, least, most)
        assert str(raised.value) == message

    @pytest.mark.parametrize("n, least, most", [(3, 3, 3), (3, 3, 4), (4, 3, 4), (2, 2, 10),
                                                (1, 1, 10), (10, 1, 10)])
    def test_accepts_the_counts_in_range(self, n, least, most):
        assert _check_count(n, least, most) is None

    # (function of a qubit count that builds its input, wrong counts, least, most)
    @pytest.mark.parametrize("call, counts, least, most", [
        (lambda n: three_qubit_fonts(random_state(n, 0)), (2, 4), 3, 3),
        (lambda n: three_tangle(random_state(n, 0)), (1, 4), 3, 3),
        (lambda n: product_identity_residual(random_state(n, 0)), (2, 4), 3, 3),
        (lambda n: covariance_check_3(random_state(n, 0), 0.3), (4,), 3, 3),
        (lambda n: monogamy_residual(random_state(n, 0)), (4,), 3, 3),
        (lambda n: four_qubit_fonts(random_state(n, 0)), (3, 5), 4, 4),
        (lambda n: four_invariant(random_state(n, 0)), (3,), 4, 4),
        (lambda n: four_tangle(random_state(n, 0)), (2, 5), 4, 4),
        (lambda n: covariance_check_4(random_state(n, 0), "A", 0.3), (3, 5), 4, 4),
        (lambda n: lu_invariance_sweep(random_state(n, 0), 10, 0), (1, 2, 5, 10), 3, 4),
        (lambda n: font_negativity_2q(random_state(n, 0)), (1, 3), 2, 2),
        (lambda n: concurrence_2q(density(random_state(n, 0))), (1, 3), 2, 2),
        (lambda n: decomposition_residual(density(random_state(n, 0)), 1), (1,), 2, 10),
    ], ids=["three_qubit_fonts", "three_tangle", "product_identity_residual",
            "covariance_check_3", "monogamy_residual", "four_qubit_fonts", "four_invariant",
            "four_tangle", "covariance_check_4", "lu_invariance_sweep", "font_negativity_2q",
            "concurrence_2q", "decomposition_residual"])
    def test_library_raises_the_rule(self, call, counts, least, most):
        for n in counts:
            with pytest.raises(ValueError) as rule:
                _check_count(n, least, most)
            with pytest.raises(ValueError) as raised:
                call(n)
            assert str(raised.value) == str(rule.value)


class TestBoolIsNotAnInteger:
    """``_check_integer`` refuses a bool, which operator.index would read as 0 or 1."""

    # (entry point given the bool, what the message calls it)
    @pytest.mark.parametrize("call, what", [
        (lambda b: PureState(b, np.array([1.0, 0.0])), "qubit count"),
        (lambda b: make_state(b, [("0", 1.0)]), "qubit count"),
        (lambda b: random_state(b, 0), "qubit count"),
        (lambda b: random_product_state(b, 0), "qubit count"),
        (lambda b: ghz(b), "qubit count"),
        (lambda b: global_negativity(random_state(3, 5), b), "qubit"),
        (lambda b: kway_negativity(random_state(3, 5), b, 3), "qubit"),
        (lambda b: kway_pt(density(random_state(3, 5)), b, 2), "qubit"),
        (lambda b: font_minors(random_state(3, 5), b), "qubit"),
        (lambda b: reduced_density(random_state(3, 5), [b, 2]), "qubit"),
        (lambda b: lu_invariance_sweep(random_state(3, 5), b, 0), "trials"),
        (lambda b: LocalUnitary(b, np.eye(2)), "target qubit"),
        (lambda b: random_local_unitary(b, 0), "target qubit"),
        (lambda b: _rng(b), "seed"),
    ], ids=["PureState", "make_state", "random_state", "random_product_state", "ghz",
            "global_negativity", "kway_negativity", "kway_pt", "font_minors", "reduced_density",
            "lu_invariance_sweep", "LocalUnitary", "random_local_unitary", "_rng"])
    @pytest.mark.parametrize("b", [True, np.True_], ids=["True", "np.True_"])
    def test_entry_points_refuse_a_bool(self, call, what, b):
        # True passed as 1: a one-qubit state whose n_qubits is True, or qubit 1's value
        with pytest.raises(ValueError) as raised:
            call(b)
        assert str(raised.value) == f"{what} must be an integer, got {b!r}"


class TestParseQubit:
    @pytest.mark.parametrize(
        "label,q", [("A", 1), ("d", 4), ("1", 1), ("04", 4), (3, 3), (" 2 ", 2)]
    )
    def test_ascii_letter_or_digits(self, label, q):
        assert parse_qubit(label, 4) == q

    # letters that upper-case to two characters, non-ASCII letters and digits,
    # and what int() alone would read: signs, underscores
    @pytest.mark.parametrize(
        "label", ["ß", "ﬁ", "é", "２", "٢", "+2", "-1", "1_0", "", "AB", "2a"]
    )
    def test_rejects_anything_else(self, label):
        with pytest.raises(ValueError, match="invalid qubit"):
            parse_qubit(label, 4)

    @pytest.mark.parametrize("label", ["E", "5", "0", 0])
    def test_out_of_range(self, label):
        with pytest.raises(ValueError, match="out of range"):
            parse_qubit(label, 4)

    @pytest.mark.parametrize("digits, message", [(4000, "out of range"), (5000, "invalid qubit")])
    def test_long_digit_strings_are_echoed_in_brief(self, digits, message):
        # beyond 4,300 digits int() raises a ValueError of its own
        with pytest.raises(ValueError, match=message) as caught:
            parse_qubit("7" * digits, 4)
        assert len(str(caught.value)) < 100


class TestStateFileFormat:
    def test_round_trip_omits_zeros(self):
        s = ghz(3)
        payload = state_to_payload(s)
        assert payload["n_qubits"] == 3
        assert sorted(e["index"] for e in payload["amplitudes"]) == ["000", "111"]
        back = state_from_payload(payload)
        np.testing.assert_allclose(back.amplitudes, s.amplitudes, atol=1e-15)

    def test_reader_warns_on_large_correction(self):
        payload = {
            "n_qubits": 1,
            "amplitudes": [{"index": "0", "re": 2.0, "im": 0.0}],
        }
        with pytest.warns(UserWarning, match="normalization correction"):
            s = state_from_payload(payload)
        assert abs(s.amplitude("0") - 1.0) < 1e-15

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {"amplitudes": []},
            {"n_qubits": 2},
            {"n_qubits": 2, "amplitudes": [{"index": "00"}]},
            {"n_qubits": 2, "amplitudes": [{"index": "000", "re": 1.0, "im": 0.0}]},
            {"n_qubits": 2, "amplitudes": []},
            {"n_qubits": 42, "amplitudes": [{"index": "0" * 42, "re": 1.0, "im": 0.0}]},
            json.loads('{"n_qubits": 1, "amplitudes": [{"index": "0", "re": NaN, "im": 0.0}]}'),
            json.loads('{"n_qubits": 1, "amplitudes": [{"index": "0", "re": 0, "im": Infinity}]}'),
            json.loads('{"n_qubits": 1, "amplitudes": [{"index": "0", "re": 1e400, "im": 0.0}]}'),
            {"n_qubits": 2.9, "amplitudes": [{"index": "00", "re": 1.0, "im": 0.0}]},
            {"n_qubits": True, "amplitudes": [{"index": "0", "re": 1.0, "im": 0.0}]},
            {"n_qubits": 1, "amplitudes": [{"index": 0, "re": 1.0, "im": 0.0}]},
            {"n_qubits": 1, "amplitudes": [{"index": "0", "re": "0.6", "im": 0.0}]},
            {"n_qubits": 1, "amplitudes": [{"index": "0", "re": True, "im": 0.0}]},
            {"n_qubits": 1, "amplitudes": [{"index": "0", "re": 1.0, "im": "0.0"}]},
            {"n_qubits": 1, "amplitudes": [{"index": "0", "re": None, "im": 0.0}]},
            {"n_qubits": 1, "amplitudes": [{"index": "0", "re": 10**400, "im": 0.0}]},
            {"n_qubits": 2, "amplitudes": [{"index": "0\u0661", "re": 1.0, "im": 0.0}]},
        ],
    )
    def test_reader_rejects_malformed_payloads(self, payload):
        with pytest.raises(ValueError):
            state_from_payload(payload)
