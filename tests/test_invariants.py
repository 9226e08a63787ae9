import tracemalloc
from functools import reduce

import numpy as np
import pytest

from tanglekit import (
    LocalUnitary,
    PureState,
    apply_local_unitary,
    cluster4,
    covariance_check_3,
    covariance_check_4,
    four_invariant,
    four_qubit_fonts,
    four_tangle,
    ghz,
    haar_unitary,
    invariants,
    lu_invariance_sweep,
    make_state,
    monogamy_residual,
    product_identity_residual,
    random_product_state,
    random_state,
    states,
    su2_rotation,
    three_qubit_fonts,
    three_tangle,
    w_state,
)
from tanglekit.spectra import _minor_matrix
from tanglekit.states import parse_qubit

INV_SQRT2 = 1 / np.sqrt(2)
SIGMA_Y = np.array([[0, -1j], [1j, 0]])
BLOCK = invariants._SWEEP_BLOCK
SWEEP_STATES = {
    "random": lambda n: random_state(n, 31),
    "ghz": ghz,
    "w": w_state,
    "product": lambda n: random_product_state(n, 5),
}


def per_trial_sweep(state, trials, seed):
    """Reference for lu_invariance_sweep: each trial's tangle deviation, one trial at a time.

    Trial t takes the next n haar_unitary draws from one default_rng(seed),
    applies them as LocalUnitary values and measures the rotated PureState.
    """
    n = state.n_qubits
    measure = three_tangle if n == 3 else four_tangle
    reference = measure(state)
    deviations = []
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        lus = [LocalUnitary(q, haar_unitary(rng)) for q in range(1, n + 1)]
        deviations.append(abs(measure(apply_local_unitary(state, *lus)) - reference))
    return deviations


def scaled_off_unitary(u):
    return u * (1 + 1e-9)


def with_nan_entry(u):
    u = u.copy()
    u[-1, -1, 1, 0] = np.nan
    return u


def font_determinant(state, label, fixed):
    """Font determinant by the rule of the font records' docstrings, from string lookups.

    The partner L' of label L flips qubit A and every qubit not in ``fixed``;
    the determinant is a(L) a(L') - a(L' with A flipped) a(L with A flipped).
    """
    def flip(bits, qubits):
        return "".join(str(1 - int(b)) if q in qubits else b for q, b in enumerate(bits, 1))

    partner = flip(label, set(range(1, len(label) + 1)) - set(fixed))
    a = state.amplitude
    return a(label) * a(partner) - a(flip(partner, {1})) * a(flip(label, {1}))


def covariance_check_3_by_fields(state, x):
    """(relation, residual, prefactor) of each three-qubit relation, over record fields."""
    xc = x.conjugate()
    lam = 1.0 / (1.0 + abs(x) ** 2)
    u = su2_rotation(x)
    base = three_qubit_fonts(state)
    t0, t1 = base.three_way
    b0, b1 = base.b_fixed
    on_a, on_b, on_c = (
        three_qubit_fonts(apply_local_unitary(state, LocalUnitary(q, u))) for q in (1, 2, 3)
    )
    diff = t1 - t0
    return [
        ("b_rotation_three_way_0",
         abs(on_b.three_way[0] - lam * (t0 + abs(x) ** 2 * t1 - xc * b1 + x * b0)), lam),
        ("b_rotation_three_way_1",
         abs(on_b.three_way[1] - lam * (t1 + abs(x) ** 2 * t0 + xc * b1 - x * b0)), lam),
        ("b_rotation_b_fixed_0",
         abs(on_b.b_fixed[0] - lam * (b0 + xc**2 * b1 + xc * (t1 - t0))), lam),
        ("b_rotation_b_fixed_1",
         abs(on_b.b_fixed[1] - lam * (b1 + x**2 * b0 - x * (t1 - t0))), lam),
        ("ac_invariance_three_way_diff",
         max(abs((on_a.three_way[1] - on_a.three_way[0]) - diff),
             abs((on_c.three_way[1] - on_c.three_way[0]) - diff)), 1.0),
        ("ac_invariance_b_fixed_0",
         max(abs(on_a.b_fixed[0] - b0), abs(on_c.b_fixed[0] - b0)), 1.0),
        ("ac_invariance_b_fixed_1",
         max(abs(on_a.b_fixed[1] - b1), abs(on_c.b_fixed[1] - b1)), 1.0),
    ]


def covariance_check_4_by_branches(state, qubit, param):
    """(relation, residual, prefactor) of each four-qubit relation, one branch per rotated qubit."""
    f = [v for row in four_qubit_fonts(state).four_way for v in row]
    target = parse_qubit(qubit, 4)
    rotated = apply_local_unitary(state, LocalUnitary(target, su2_rotation(param)))
    g = [v for row in four_qubit_fonts(rotated).four_way for v in row]
    diff = (f[1] - f[0], f[2] - f[3])
    diff_p = (g[1] - g[0], g[2] - g[3])
    if target == 4:
        relations = [
            ("d_rotation_combo_plus", diff_p[0] + diff_p[1], diff[0] + diff[1]),
            ("d_rotation_combo_minus", diff_p[0] - diff_p[1], diff[0] - diff[1]),
        ]
    elif target == 3:
        relations = [("c_rotation_combo_plus", diff_p[0] + diff_p[1], diff[0] + diff[1])]
    elif target == 2:
        sums = (f[1] + f[2], f[0] + f[3])
        sums_p = (g[1] + g[2], g[0] + g[3])
        relations = [
            ("b_rotation_combo_plus", sums_p[0] + sums_p[1], sums[0] + sums[1]),
            ("b_rotation_combo_minus", sums_p[0] - sums_p[1], sums[0] - sums[1]),
        ]
    else:
        relations = [(f"a_rotation_four_way_{i:02b}", g[i], f[i]) for i in range(4)]
    relations.append(("four_invariant_magnitude",
                      abs((g[1] - g[0]) + (g[2] - g[3])), abs((f[1] - f[0]) + (f[2] - f[3]))))
    return [(name, abs(lhs - rhs), 1.0) for name, lhs, rhs in relations]


def picked_states(n):
    named = [ghz(n), w_state(n)] + ([cluster4()] if n == 4 else [])
    return [random_state(n, 700 + seed) for seed in range(60)] + named


def random_product_across(n, cut, seed):
    """Random pure state that factorizes across the cut|rest partition."""
    rng = np.random.default_rng(seed)
    single = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    rest = rng.standard_normal(2 ** (n - 1)) + 1j * rng.standard_normal(2 ** (n - 1))
    tensor = np.multiply.outer(single, rest).reshape((2,) + (2,) * (n - 1))
    amps = np.moveaxis(tensor, 0, cut - 1).reshape(-1)
    return make_state(n, [(format(i, f"0{n}b"), a) for i, a in enumerate(amps) if a != 0])


class TestThreeQubitFonts:
    def test_ghz3(self):
        fonts = three_qubit_fonts(ghz(3))
        assert abs(fonts.three_way[0] - 0.5) < 1e-12
        assert fonts.three_way[1] == 0
        assert fonts.b_fixed == (0, 0)
        assert fonts.c_fixed == (0, 0)

    def test_w3(self):
        fonts = three_qubit_fonts(w_state(3))
        assert abs(fonts.b_fixed[0] + 1 / 3) < 1e-12
        assert fonts.three_way == (0, 0)
        assert fonts.b_fixed[1] == 0

    def test_single_basis_vector(self):
        fonts = three_qubit_fonts(make_state(3, [("000", 1.0)]))
        assert fonts.three_way == (0, 0)
        assert fonts.b_fixed == (0, 0)
        assert fonts.c_fixed == (0, 0)

    def test_wrong_size(self):
        with pytest.raises(ValueError):
            three_qubit_fonts(ghz(4))


class TestPickTables:
    def test_three_qubit_fields_are_their_determinants(self):
        for s in picked_states(3):
            fonts = three_qubit_fonts(s)
            for j in (0, 1):
                assert fonts.three_way[j] == font_determinant(s, f"00{j}", ())
                assert fonts.b_fixed[j] == font_determinant(s, f"0{j}0", (2,))
                assert fonts.c_fixed[j] == font_determinant(s, f"00{j}", (3,))

    def test_four_qubit_fields_are_their_determinants(self):
        for s in picked_states(4):
            fonts = four_qubit_fonts(s)
            for i in (0, 1):
                for j in (0, 1):
                    assert fonts.four_way[i][j] == font_determinant(s, f"00{i}{j}", ())
                    assert fonts.three_way_c[i][j] == font_determinant(s, f"00{i}{j}", (3,))
                    assert fonts.three_way_b[i][j] == font_determinant(s, f"0{i}0{j}", (2,))


class TestThreeTangle:
    def test_ghz3_is_one(self):
        assert abs(three_tangle(ghz(3)) - 1) < 1e-10

    def test_w3_is_zero(self):
        assert three_tangle(w_state(3)) == 0.0

    def test_zero_tensor_bell_is_zero(self):
        s = make_state(3, [("000", INV_SQRT2), ("011", INV_SQRT2)])
        assert three_tangle(s) < 1e-12

    @pytest.mark.parametrize("cut", [1, 2, 3])
    def test_vanishes_on_products_across_any_cut(self, cut):
        for seed in range(10):
            assert three_tangle(random_product_across(3, cut, seed)) < 1e-12

    def test_alternate_form_agrees(self):
        for seed in range(50):
            s = random_state(3, seed)
            fonts = three_qubit_fonts(s)
            t0, t1 = fonts.three_way
            c0, c1 = fonts.c_fixed
            alternate = 4 * abs((t1 + t0) ** 2 - 4 * c0 * c1)
            assert abs(three_tangle(s) - alternate) < 1e-10

    def test_one_formula_for_one_state_and_for_stacks(self):
        # three_tangle runs the stacked formula on Python complex fonts; a second
        # copy of the formula would drift from it in the last bits
        picks = [random_state(3, 900 + seed) for seed in range(200)]
        picks += [ghz(3), w_state(3)] + [random_product_state(3, seed) for seed in range(20)]
        d = _minor_matrix(np.stack([s.amplitudes for s in picks]), 3, 1)
        u, v = invariants._THREE_PICKS
        stacked = invariants._three_tangles(*d[:, u, v].T)
        assert [three_tangle(s) for s in picks] == stacked.tolist()

    def test_bounded_on_random_states(self):
        for seed in range(5000):
            tau = three_tangle(random_state(3, seed))
            assert -1e-12 <= tau <= 1 + 1e-12

    def test_is_cayley_hyperdeterminant(self):
        # 4 |d1 - 2 d2 + 4 d3| (Coffman, Kundu and Wootters, PRA 61, 052306, 2000), read
        # straight from the amplitudes: an oracle that shares no code with font_minors
        picks = [random_state(3, seed) for seed in range(2000)]
        picks += [ghz(3), w_state(3), make_state(3, [("000", INV_SQRT2), ("011", INV_SQRT2)])]
        picks += [random_product_state(3, seed) for seed in range(20)]
        amps = np.stack([s.amplitudes for s in picks])
        a = {f"{i:03b}": amps[:, i] for i in range(8)}
        d1 = (a["000"] ** 2 * a["111"] ** 2 + a["001"] ** 2 * a["110"] ** 2
              + a["010"] ** 2 * a["101"] ** 2 + a["100"] ** 2 * a["011"] ** 2)
        d2 = (
            a["000"] * a["111"] * a["011"] * a["100"] + a["000"] * a["111"] * a["101"] * a["010"]
            + a["000"] * a["111"] * a["110"] * a["001"] + a["011"] * a["100"] * a["101"] * a["010"]
            + a["011"] * a["100"] * a["110"] * a["001"] + a["101"] * a["010"] * a["110"] * a["001"]
        )
        d3 = a["000"] * a["110"] * a["101"] * a["011"] + a["111"] * a["001"] * a["010"] * a["100"]
        cayley = 4 * np.abs(d1 - 2 * d2 + 4 * d3)
        assert np.abs(np.array([three_tangle(s) for s in picks]) - cayley).max() < 1e-12


class TestProductIdentity:
    def test_random_states(self):
        for seed in range(50):
            assert product_identity_residual(random_state(3, seed)) < 1e-10

    def test_named_states(self):
        for s in (ghz(3), w_state(3)):
            assert product_identity_residual(s) < 1e-12


class TestMonogamyResidual:
    def test_ghz3(self):
        # tangle 1 versus block/pairwise route 1 - 0 - 0
        assert monogamy_residual(ghz(3)) < 1e-10

    def test_w3(self):
        # 0 versus 8/9 - 4/9 - 4/9
        assert monogamy_residual(w_state(3)) < 1e-10

    def test_basis_state(self):
        assert monogamy_residual(make_state(3, [("000", 1.0)])) < 1e-12

    def test_random_states(self):
        for seed in range(30):
            assert monogamy_residual(random_state(3, seed)) < 1e-8

    def test_state_within_norm_tolerance(self):
        s = PureState(3, random_state(3, 1).amplitudes * (1 + 4e-11))
        assert monogamy_residual(s) < 1e-8


class TestCovariance3:
    def test_identity_parameter_gives_zero_residuals(self):
        for report in covariance_check_3(ghz(3), 0):
            assert report.residual == 0.0

    def test_ghz3_unit_parameter(self):
        for report in covariance_check_3(ghz(3), 1):
            assert report.residual < 1e-12

    def test_relation_names_and_prefactors(self):
        x = 0.5 + 0.5j
        reports = {r.relation: r for r in covariance_check_3(random_state(3, 0), x)}
        lam = 1 / (1 + abs(x) ** 2)
        for name in (
            "b_rotation_three_way_0",
            "b_rotation_three_way_1",
            "b_rotation_b_fixed_0",
            "b_rotation_b_fixed_1",
        ):
            assert reports[name].prefactor_used == lam
        for name in (
            "ac_invariance_three_way_diff",
            "ac_invariance_b_fixed_0",
            "ac_invariance_b_fixed_1",
        ):
            assert reports[name].prefactor_used == 1.0

    def test_equals_relations_written_over_record_fields(self):
        rng = np.random.default_rng(23)
        picks = [random_state(3, 1200 + seed) for seed in range(300)]
        picks += [ghz(3), w_state(3)] + [random_product_state(3, seed) for seed in range(20)]
        for s in picks:
            x = complex(10 ** rng.uniform(-2, 1) * np.exp(2j * np.pi * rng.uniform()))
            reports = covariance_check_3(s, x)
            assert [(r.relation, r.residual, r.prefactor_used) for r in reports] == (
                covariance_check_3_by_fields(s, x)
            )

    def test_random_states_and_parameters(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            s = random_state(3, 500 + trial)
            x = complex(rng.standard_normal(), rng.standard_normal())
            for report in covariance_check_3(s, x):
                assert report.residual < 1e-9


class TestFourQubitFonts:
    def test_ghz4(self):
        fonts = four_qubit_fonts(ghz(4))
        assert abs(fonts.four_way[0][0] - 0.5) < 1e-12
        assert fonts.four_way[0][1] == 0
        assert fonts.four_way[1][0] == 0
        assert fonts.four_way[1][1] == 0

    def test_w4_four_way_all_zero(self):
        fonts = four_qubit_fonts(w_state(4))
        assert all(fonts.four_way[i][j] == 0 for i in (0, 1) for j in (0, 1))

    def test_cluster4(self):
        fonts = four_qubit_fonts(cluster4())
        assert abs(fonts.four_way[0][0] + 0.25) < 1e-12
        assert abs(fonts.four_way[1][1] - 0.25) < 1e-12
        assert fonts.four_way[0][1] == 0
        assert fonts.four_way[1][0] == 0

    def test_fields_match_direct_determinants(self):
        s = random_state(4, 3)
        a = s.amplitude
        fonts = four_qubit_fonts(s)
        assert fonts.four_way[0][1] == a("0001") * a("1110") - a("0110") * a("1001")
        assert fonts.three_way_c[1][0] == a("0010") * a("1111") - a("0111") * a("1010")
        assert fonts.three_way_b[0][1] == a("0001") * a("1010") - a("0010") * a("1001")


class TestFourInvariantAndTangle:
    def test_ghz4_invariant(self):
        assert abs(four_invariant(ghz(4)) + 0.5) < 1e-12

    def test_cluster4_invariant_cancels(self):
        assert abs(four_invariant(cluster4())) < 1e-15

    @pytest.mark.parametrize("cut", [1, 2, 3, 4])
    def test_invariant_vanishes_on_products(self, cut):
        for seed in range(10):
            assert abs(four_invariant(random_product_across(4, cut, seed))) < 1e-12

    def test_golden_tangles(self):
        assert abs(four_tangle(ghz(4)) - 1) < 1e-10
        assert four_tangle(w_state(4)) == 0.0
        assert four_tangle(cluster4()) < 1e-12

    def test_bounded_on_random_states(self):
        for seed in range(5000):
            tau = four_tangle(random_state(4, seed))
            assert -1e-12 <= tau <= 1 + 1e-12

    def test_one_state_equals_stacked_formula(self):
        # the sweep's stacked four-tangle, written out here: the one-state value
        # must equal it bit for bit, so a sweep of an invariant state reads 0
        states = [random_state(4, seed) for seed in range(3000)]
        states += [ghz(4), w_state(4), cluster4()]
        states += [random_product_state(4, seed) for seed in range(20)]
        d = _minor_matrix(np.array([s.amplitudes for s in states]), 4, 1)
        inv = (d[:, 1, 6] - d[:, 0, 7]) + (d[:, 2, 5] - d[:, 3, 4])
        stacked = 4.0 * np.hypot(inv.real, inv.imag) ** 2
        assert [four_tangle(s) for s in states] == stacked.tolist()

    def test_one_formula_for_one_state_and_for_stacks(self):
        # four_tangle and the sweep apply the pick table and formula to one state and to stacks
        picks = [random_state(4, 900 + seed) for seed in range(200)]
        picks += [ghz(4), w_state(4), cluster4()] + [random_product_state(4, s) for s in range(20)]
        d = _minor_matrix(np.stack([s.amplitudes for s in picks]), 4, 1)
        u, v = invariants._FOUR_PICKS[:, :4]
        stacked = invariants._four_tangles(invariants._four_invariants(*d[:, u, v].T))
        assert [four_tangle(s) for s in picks] == stacked.tolist()

    def test_is_sigma_y_overlap(self):
        # four_invariant = -1/2 psi^T sigma_y^(x4) psi (Wong and Christensen, PRA 63, 044301,
        # 2001), with sigma_y^(x4) built by np.kron alone: no code shared with font_minors
        picks = [random_state(4, seed) for seed in range(2000)]
        picks += [ghz(4), w_state(4), cluster4()] + [random_product_state(4, s) for s in range(20)]
        amps = np.stack([s.amplitudes for s in picks])
        overlap = np.einsum("si,ij,sj->s", amps, reduce(np.kron, [SIGMA_Y] * 4), amps)
        invariant = np.array([four_invariant(s) for s in picks])
        tangle = np.array([four_tangle(s) for s in picks])
        assert np.abs(invariant - (-0.5 * overlap)).max() < 1e-12
        assert np.abs(tangle - np.abs(overlap) ** 2).max() < 1e-12


class TestCovariance4:
    @pytest.mark.parametrize("qubit", ["A", "B", "C", "D"])
    def test_identity_parameter(self, qubit):
        for report in covariance_check_4(ghz(4), qubit, 0):
            assert report.residual == 0.0

    def test_ghz4_on_c(self):
        reports = {r.relation: r for r in covariance_check_4(ghz(4), "C", 1)}
        assert reports["four_invariant_magnitude"].residual < 1e-12
        assert reports["c_rotation_combo_plus"].residual < 1e-12

    @pytest.mark.parametrize("qubit", ["A", "B", "C", "D"])
    def test_random_states_select_unit_prefactor(self, qubit):
        rng = np.random.default_rng(ord(qubit))
        for trial in range(25):
            s = random_state(4, 900 + trial)
            param = complex(rng.standard_normal(), rng.standard_normal())
            for report in covariance_check_4(s, qubit, param):
                assert report.residual < 1e-9
                assert report.prefactor_used == 1.0

    def test_equals_relations_written_branch_by_branch(self):
        picks = [random_state(4, 1500 + seed) for seed in range(200)]
        picks += [ghz(4), w_state(4), cluster4()] + [random_product_state(4, s) for s in range(20)]
        for s in picks:
            for qubit in "ABCD":
                for x in (0, 0.3 - 0.7j, 2.5 + 1.5j, 1e-3, 1e3):
                    reports = covariance_check_4(s, qubit, x)
                    assert [(r.relation, r.residual, r.prefactor_used) for r in reports] == (
                        covariance_check_4_by_branches(s, qubit, x)
                    )

    def test_accepts_integer_qubits(self):
        reports = covariance_check_4(ghz(4), 4, 0.5)
        assert any(r.relation.startswith("d_rotation") for r in reports)

    def test_unknown_qubit(self):
        with pytest.raises(ValueError, match="qubit"):
            covariance_check_4(ghz(4), "E", 1)

    @pytest.mark.parametrize("qubit", ["ß", "ﬁ", "２", "+2"])
    def test_invalid_qubit_label_is_value_error(self, qubit):
        with pytest.raises(ValueError, match="invalid qubit"):
            covariance_check_4(ghz(4), qubit, 0.3)

    def test_single_font_rotation_prefactor_is_rational(self):
        # each 4-way font under a C-rotation carries 1/(1+|y|^2), not the
        # square root; checked against the explicit linear combination
        rng = np.random.default_rng(5)
        for trial in range(20):
            s = random_state(4, 300 + trial)
            y = complex(rng.standard_normal(), rng.standard_normal())
            base = four_qubit_fonts(s)
            primed = four_qubit_fonts(
                apply_local_unitary(s, LocalUnitary(3, su2_rotation(y)))
            )
            f, tc = base.four_way, base.three_way_c
            lhs = primed.four_way[0][1] - primed.four_way[0][0]
            combo = (
                (f[0][1] - f[0][0])
                + abs(y) ** 2 * (f[1][0] - f[1][1])
                + np.conj(y) * (tc[1][0] - tc[1][1])
                - y * (tc[0][0] - tc[0][1])
            )
            assert abs(lhs - combo / (1 + abs(y) ** 2)) < 1e-12
            assert abs(lhs - combo / np.sqrt(1 + abs(y) ** 2)) > 1e-6 or abs(combo) < 1e-9


class TestLuInvarianceSweep:
    def test_empty_sweep(self):
        assert lu_invariance_sweep(ghz(3), 0, 7) == 0.0

    def test_ghz4(self):
        assert lu_invariance_sweep(ghz(4), 500, 42) < 1e-9

    def test_w3_stays_zero(self):
        assert lu_invariance_sweep(w_state(3), 500, 42) < 1e-10

    def test_deterministic_given_seed(self):
        s = random_state(3, 1)
        assert lu_invariance_sweep(s, 25, 9) == lu_invariance_sweep(s, 25, 9)

    def test_wrong_size(self):
        with pytest.raises(ValueError):
            lu_invariance_sweep(ghz(5), 10, 0)

    @pytest.mark.parametrize("trials", [2.5, 3.0])
    def test_non_integer_trials(self, trials):
        with pytest.raises(ValueError, match="trials must be an integer"):
            lu_invariance_sweep(random_state(3, 1), trials, 0)

    @pytest.mark.parametrize("seed", [2.5, 3.0])
    def test_non_integer_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            lu_invariance_sweep(ghz(3), 10, seed)

    @pytest.mark.parametrize("n", [3, 4])
    def test_builds_no_value_objects_per_trial(self, n, monkeypatch):
        s = random_state(n, 2)
        built = []
        for cls in (PureState, LocalUnitary):
            def counting(self, validate=cls.__post_init__):
                built.append(self)
                validate(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        lu_invariance_sweep(s, 30, 4)
        assert built == []

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("kind", sorted(SWEEP_STATES))
    def test_matches_per_trial_oracle(self, n, kind):
        s = SWEEP_STATES[kind](n)
        deviations = per_trial_sweep(s, 3 * BLOCK + 7, 19)
        for trials in (1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7):
            assert lu_invariance_sweep(s, trials, 19) == max(deviations[:trials])

    @pytest.mark.parametrize("n", [3, 4])
    def test_draws_the_haar_unitaries_of_each_trial(self, n, monkeypatch):
        drawn = []
        original = states._haar_from_ginibre

        def recording(g):
            drawn.append(original(g))
            return drawn[-1]

        monkeypatch.setattr(states, "_haar_from_ginibre", recording)
        trials, seed = BLOCK + 3, 8
        lu_invariance_sweep(random_state(n, 1), trials, seed)
        monkeypatch.undo()
        unitaries = np.concatenate(drawn)
        assert unitaries.shape == (trials, n, 2, 2)
        rng = np.random.default_rng(seed)
        for trial in range(trials):
            for q in range(n):
                assert np.array_equal(unitaries[trial, q], haar_unitary(rng))

    @pytest.mark.parametrize("trials", [30, 3 * BLOCK + 7])
    @pytest.mark.parametrize("n", [3, 4])
    def test_makes_one_generator_per_sweep(self, n, trials, monkeypatch):
        s, made = random_state(n, 1), []
        original = np.random.default_rng

        def counting(*args):
            made.append(args)
            return original(*args)

        monkeypatch.setattr(np.random, "default_rng", counting)
        lu_invariance_sweep(s, trials, 8)
        assert made == [(8,)]

    @pytest.mark.parametrize("n", [3, 4])
    def test_does_not_depend_on_the_block_size(self, n, monkeypatch):
        s = random_state(n, 12)
        expected = lu_invariance_sweep(s, 3 * BLOCK + 7, 6)
        for block in (1, 7, 1000):
            monkeypatch.setattr(invariants, "_SWEEP_BLOCK", block)
            assert lu_invariance_sweep(s, 3 * BLOCK + 7, 6) == expected, block

    @pytest.mark.parametrize(
        "corrupt, message",
        [(scaled_off_unitary, "not unitary"), (with_nan_entry, "finite")],
        ids=["scaled", "nan"],
    )
    def test_block_checks_reject_bad_unitaries(self, corrupt, message, monkeypatch):
        original = states._haar_from_ginibre
        monkeypatch.setattr(states, "_haar_from_ginibre", lambda g: corrupt(original(g)))
        with pytest.raises(ValueError, match=message):
            lu_invariance_sweep(random_state(4, 3), 10, 0)

    def test_block_norm_check_rejects_unnormalized_states(self, monkeypatch):
        # with the unitarity check out of the way, the state check still fires
        original = states._haar_from_ginibre
        monkeypatch.setattr(states, "_haar_from_ginibre", lambda g: scaled_off_unitary(original(g)))
        monkeypatch.setattr(states, "_check_unitary", lambda u: None)
        with pytest.raises(ValueError, match="not normalized"):
            lu_invariance_sweep(random_state(3, 3), 10, 0)

    def test_block_form_disagreement_raises(self, monkeypatch):
        original = invariants._three_tangle_forms

        def disagreeing_on_blocks(*fonts):
            primary, alternate = original(*fonts)
            return primary, alternate + (1e-6 if np.ndim(primary) > 0 else 0.0)

        monkeypatch.setattr(invariants, "_three_tangle_forms", disagreeing_on_blocks)
        s = random_state(3, 5)
        three_tangle(s)  # the unrotated state alone passes
        with pytest.raises(RuntimeError, match="disagree"):
            lu_invariance_sweep(s, 5, 0)

    def test_memory_bounded_by_block(self):
        s = random_state(4, 6)
        lu_invariance_sweep(s, BLOCK, 3)  # first-call set-up outside the measurement
        tracemalloc.start()
        try:
            lu_invariance_sweep(s, BLOCK, 3)
            one_block = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            lu_invariance_sweep(s, 16 * BLOCK, 3)
            sixteen_blocks = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sixteen_blocks <= 1.5 * one_block
