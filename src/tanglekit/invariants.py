"""Font determinants, the three- and four-tangle, and their covariance checks.

For a fixed leading qubit the amplitudes of an n-qubit state form a
2 x 2**(n-1) matrix, and every font determinant below is a 2x2 minor of it,
read off the minor matrix that ``spectra.font_minors`` returns for qubit A.
The three-tangle and four-tangle are polynomial combinations of those minors
that stay invariant under single-qubit unitaries; ``covariance_check_3`` and
``covariance_check_4`` verify numerically how the individual minors
transform on their way to that invariance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import (
    LocalUnitary,
    PureState,
    apply_local_unitary,
    haar_unitary,
    parse_qubit,
    reduced_density,
    su2_rotation,
)
from .spectra import concurrence_2q, font_minors, global_negativity

# primary and alternate tangle forms are equal by an exact determinant
# identity; disagreement beyond this signals an amplitude-indexing bug
_ALT_FORM_TOL = 1e-8


@dataclass(frozen=True)
class ThreeQubitFonts:
    """The six font determinants of a three-qubit state, leading qubit A.

    ``three_way[j]`` is the determinant of the 3-way font containing |00j>;
    ``b_fixed[b]`` / ``c_fixed[c]`` are the 2-way fonts whose labels agree
    on qubit B (resp. C) with that bit fixed at b (resp. c).
    """

    three_way: tuple[complex, complex]
    b_fixed: tuple[complex, complex]
    c_fixed: tuple[complex, complex]


@dataclass(frozen=True)
class FourQubitFonts:
    """Font determinants of a four-qubit state with leading qubits A and B.

    ``four_way[i3][i4]`` is the 4-way font containing |00 i3 i4>;
    ``three_way_c[i3][i4]`` the 3-way font with qubit C fixed at i3;
    ``three_way_b[i2][i4]`` the 3-way font with qubit B fixed at i2.
    """

    four_way: tuple[tuple[complex, complex], tuple[complex, complex]]
    three_way_c: tuple[tuple[complex, complex], tuple[complex, complex]]
    three_way_b: tuple[tuple[complex, complex], tuple[complex, complex]]


@dataclass(frozen=True)
class CovarianceReport:
    """Residual of one covariance relation: max |lhs - prefactor * rhs|."""

    relation: str
    residual: float
    prefactor_used: float


def three_qubit_fonts(state: PureState) -> ThreeQubitFonts:
    if state.n_qubits != 3:
        raise ValueError(f"requires a 3-qubit state, got n = {state.n_qubits}")
    # d[u][v] pairs A = 0 with BC bits u and A = 1 with BC bits v
    d = font_minors(state, 1).tolist()
    return ThreeQubitFonts(
        three_way=(d[0][3], d[1][2]),
        b_fixed=(d[0][1], d[2][3]),
        c_fixed=(d[0][2], d[1][3]),
    )


def _three_tangle_forms(fonts: ThreeQubitFonts) -> tuple[float, float]:
    t0, t1 = fonts.three_way
    b0, b1 = fonts.b_fixed
    c0, c1 = fonts.c_fixed
    primary = 4.0 * abs((t1 - t0) ** 2 - 4.0 * b1 * b0)
    alternate = 4.0 * abs((t1 + t0) ** 2 - 4.0 * c0 * c1)
    return primary, alternate


def three_tangle(state: PureState) -> float:
    """4 |(three_way[1] - three_way[0])^2 - 4 b_fixed[1] b_fixed[0]|."""
    primary, alternate = _three_tangle_forms(three_qubit_fonts(state))
    if abs(primary - alternate) > _ALT_FORM_TOL:
        raise RuntimeError(
            f"primary and alternate tangle forms disagree by {abs(primary - alternate):.3e}"
        )
    return primary


def product_identity_residual(state: PureState) -> float:
    """|three_way[1] three_way[0] - (c_fixed[0] c_fixed[1] - b_fixed[1] b_fixed[0])|."""
    fonts = three_qubit_fonts(state)
    t0, t1 = fonts.three_way
    b0, b1 = fonts.b_fixed
    c0, c1 = fonts.c_fixed
    return abs(t1 * t0 - (c0 * c1 - b1 * b0))


def monogamy_residual(state: PureState) -> float:
    """Gap between the determinant tangle and its residual-tangle construction.

    The independent route is C^2(A|BC) - C^2(AB) - C^2(AC), with the block
    concurrence equal to the global negativity for pure states and the
    pairwise terms from the Wootters concurrence of the reduced operators.
    """
    if state.n_qubits != 3:
        raise ValueError(f"requires a 3-qubit state, got n = {state.n_qubits}")
    tau = three_tangle(state)
    c_block = global_negativity(state, 1)
    c_ab = concurrence_2q(reduced_density(state, (1, 2)))
    c_ac = concurrence_2q(reduced_density(state, (1, 3)))
    return abs(tau - (c_block**2 - c_ab**2 - c_ac**2))


def covariance_check_3(state: PureState, x: complex) -> list[CovarianceReport]:
    """Verify how the three-qubit fonts transform under su2_rotation(x).

    On qubit B each determinant maps, with prefactor 1/(1 + |x|^2), to a
    fixed linear combination of the unrotated ones; on qubits A and C the
    difference of the 3-way fonts and both B-fixed fonts are unchanged.
    """
    if state.n_qubits != 3:
        raise ValueError(f"requires a 3-qubit state, got n = {state.n_qubits}")
    x = complex(x)
    xc = x.conjugate()
    lam = 1.0 / (1.0 + abs(x) ** 2)
    u = su2_rotation(x)

    base = three_qubit_fonts(state)
    t0, t1 = base.three_way
    b0, b1 = base.b_fixed

    on_b = three_qubit_fonts(apply_local_unitary(state, LocalUnitary(2, u)))
    reports = [
        CovarianceReport(
            "b_rotation_three_way_0",
            abs(on_b.three_way[0] - lam * (t0 + abs(x) ** 2 * t1 - xc * b1 + x * b0)),
            lam,
        ),
        CovarianceReport(
            "b_rotation_three_way_1",
            abs(on_b.three_way[1] - lam * (t1 + abs(x) ** 2 * t0 + xc * b1 - x * b0)),
            lam,
        ),
        CovarianceReport(
            "b_rotation_b_fixed_0",
            abs(on_b.b_fixed[0] - lam * (b0 + xc**2 * b1 + xc * (t1 - t0))),
            lam,
        ),
        CovarianceReport(
            "b_rotation_b_fixed_1",
            abs(on_b.b_fixed[1] - lam * (b1 + x**2 * b0 - x * (t1 - t0))),
            lam,
        ),
    ]

    on_a = three_qubit_fonts(apply_local_unitary(state, LocalUnitary(1, u)))
    on_c = three_qubit_fonts(apply_local_unitary(state, LocalUnitary(3, u)))
    diff = t1 - t0
    reports += [
        CovarianceReport(
            "ac_invariance_three_way_diff",
            max(
                abs((on_a.three_way[1] - on_a.three_way[0]) - diff),
                abs((on_c.three_way[1] - on_c.three_way[0]) - diff),
            ),
            1.0,
        ),
        CovarianceReport(
            "ac_invariance_b_fixed_0",
            max(abs(on_a.b_fixed[0] - b0), abs(on_c.b_fixed[0] - b0)),
            1.0,
        ),
        CovarianceReport(
            "ac_invariance_b_fixed_1",
            max(abs(on_a.b_fixed[1] - b1), abs(on_c.b_fixed[1] - b1)),
            1.0,
        ),
    ]
    return reports


def four_qubit_fonts(state: PureState) -> FourQubitFonts:
    if state.n_qubits != 4:
        raise ValueError(f"requires a 4-qubit state, got n = {state.n_qubits}")
    # d[u][v] pairs A = 0 with BCD bits u and A = 1 with BCD bits v
    d = font_minors(state, 1).tolist()
    return FourQubitFonts(
        four_way=((d[0][7], d[1][6]), (d[2][5], d[3][4])),
        three_way_c=((d[0][5], d[1][4]), (d[2][7], d[3][6])),
        three_way_b=((d[0][3], d[1][2]), (d[4][7], d[5][6])),
    )


def _invariant_of(fonts: FourQubitFonts) -> complex:
    f = fonts.four_way
    return (f[0][1] - f[0][0]) + (f[1][0] - f[1][1])


def four_invariant(state: PureState) -> complex:
    """(four_way[0][1] - four_way[0][0]) + (four_way[1][0] - four_way[1][1])."""
    return _invariant_of(four_qubit_fonts(state))


def four_tangle(state: PureState) -> float:
    """4 |four_invariant|^2."""
    return 4.0 * abs(four_invariant(state)) ** 2


def covariance_check_4(
    state: PureState, qubit: str | int, param: complex
) -> list[CovarianceReport]:
    """Verify the four-qubit font relations under su2_rotation(param).

    Qubit D and B admit both sign combinations of their font differences
    (sums, for B); qubit C the plus combination; a rotation on qubit A
    leaves every 4-way font unchanged individually.  su2_rotation has unit
    determinant, so the minors transform exactly: every relation holds with
    prefactor 1.0, and |four_invariant| must be preserved.
    """
    if state.n_qubits != 4:
        raise ValueError(f"requires a 4-qubit state, got n = {state.n_qubits}")
    target = parse_qubit(qubit, 4)

    param = complex(param)
    base = four_qubit_fonts(state)
    rotated = apply_local_unitary(state, LocalUnitary(target, su2_rotation(param)))
    primed = four_qubit_fonts(rotated)

    f, g = base.four_way, primed.four_way
    diff = (f[0][1] - f[0][0], f[1][0] - f[1][1])
    diff_p = (g[0][1] - g[0][0], g[1][0] - g[1][1])

    # (relation, rotated side, unrotated side), each an exact equality
    if target == 4:
        relations = [
            ("d_rotation_combo_plus", diff_p[0] + diff_p[1], diff[0] + diff[1]),
            ("d_rotation_combo_minus", diff_p[0] - diff_p[1], diff[0] - diff[1]),
        ]
    elif target == 3:
        relations = [
            ("c_rotation_combo_plus", diff_p[0] + diff_p[1], diff[0] + diff[1]),
        ]
    elif target == 2:
        sums = (f[0][1] + f[1][0], f[0][0] + f[1][1])
        sums_p = (g[0][1] + g[1][0], g[0][0] + g[1][1])
        relations = [
            ("b_rotation_combo_plus", sums_p[0] + sums_p[1], sums[0] + sums[1]),
            ("b_rotation_combo_minus", sums_p[0] - sums_p[1], sums[0] - sums[1]),
        ]
    else:
        relations = [
            (f"a_rotation_four_way_{i3}{i4}", g[i3][i4], f[i3][i4])
            for i3 in (0, 1)
            for i4 in (0, 1)
        ]
    relations.append(
        ("four_invariant_magnitude", abs(_invariant_of(primed)), abs(_invariant_of(base)))
    )
    return [CovarianceReport(name, abs(lhs - rhs), 1.0) for name, lhs, rhs in relations]


def lu_invariance_sweep(state: PureState, trials: int, seed: int) -> float:
    """Max deviation of the tangle under products of Haar single-qubit unitaries.

    Each trial applies one independent Haar unitary per qubit, seeded from
    (seed, trial) so results do not depend on evaluation order.
    """
    n = state.n_qubits
    if n == 3:
        measure = three_tangle
    elif n == 4:
        measure = four_tangle
    else:
        raise ValueError(f"sweep requires a 3- or 4-qubit state, got n = {n}")
    if trials < 0:
        raise ValueError("trials must be non-negative")
    reference = measure(state)
    worst = 0.0
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        lus = [LocalUnitary(q, haar_unitary(rng)) for q in range(1, n + 1)]
        worst = max(worst, abs(measure(apply_local_unitary(state, *lus)) - reference))
    return worst
