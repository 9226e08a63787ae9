"""Font determinants, the three- and four-tangle, and their covariance checks.

For a fixed leading qubit the amplitudes of an n-qubit state form a
2 x 2**(n-1) matrix, and every font determinant below is a 2x2 minor of it,
read off the minor matrix that ``spectra.font_minors`` returns for qubit A.
One reader, ``_fonts``, returns qubit A's fonts of a three- or four-qubit
state in the order of one (u, v) pick table per size (``_THREE_PICKS``,
``_FOUR_PICKS``); the records, tangles and checks all read them there, and
the LU sweep applies the same tables to stacks of minor matrices.
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
    _haar_rotated,
    apply_local_unitary,
    parse_qubit,
    reduced_density,
    su2_rotation,
)
from .spectra import _minor_matrix, _product, concurrence_2q, font_minors, global_negativity

# primary and alternate tangle forms are equal by an exact determinant
# identity; disagreement beyond this signals an amplitude-indexing bug
_ALT_FORM_TOL = 1e-8
# trials per block of lu_invariance_sweep: a block's arrays peak below 1 MB
# at n = 4, whatever the trial count
_SWEEP_BLOCK = 256


@dataclass(frozen=True)
class ThreeQubitFonts:
    """The six font determinants of a three-qubit state, leading qubit A.

    Each is a(L) a(L') - a(L' with A flipped) a(L with A flipped) for a label
    L with A = 0 and its partner L', which flips A and every qubit not held
    fixed.  ``three_way[j]`` has L = 00j and nothing fixed; ``b_fixed[b]``
    has L = 0b0 with B fixed; ``c_fixed[c]`` has L = 00c with C fixed.
    """

    three_way: tuple[complex, complex]
    b_fixed: tuple[complex, complex]
    c_fixed: tuple[complex, complex]


@dataclass(frozen=True)
class FourQubitFonts:
    """Font determinants of a four-qubit state with leading qubits A and B.

    Each is a(L) a(L') - a(L' with A flipped) a(L with A flipped) for a label
    L with A = 0 and its partner L', which flips A and every qubit not held
    fixed.  ``four_way[i3][i4]`` has L = 00 i3 i4 and nothing fixed;
    ``three_way_c[i3][i4]`` has L = 00 i3 i4 with qubit C fixed;
    ``three_way_b[i2][i4]`` has L = 0 i2 0 i4 with qubit B fixed.
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


# (u, v) of each font in qubit A's minor matrix d[u, v] (A = 0 with other bits u, A = 1 with v):
# three_way, b_fixed, c_fixed of 3 qubits; four_way, three_way_c, three_way_b (row-major) of 4
_THREE_PICKS = np.array([(0, 3), (1, 2), (0, 1), (2, 3), (0, 2), (1, 3)]).T
_FOUR_PICKS = np.array([(0, 7), (1, 6), (2, 5), (3, 4), (0, 5), (1, 4), (2, 7), (3, 6),
                        (0, 3), (1, 2), (4, 7), (5, 6)]).T


def _fonts(state: PureState, n: int) -> list[complex]:
    """Qubit A's fonts of a state that must have n = 3 or 4 qubits, in pick-table order."""
    if state.n_qubits != n:
        raise ValueError(f"requires a {n}-qubit state, got n = {state.n_qubits}")
    u, v = _THREE_PICKS if n == 3 else _FOUR_PICKS
    # Python complex fonts spare the formulas NumPy's 0-d array overhead
    return font_minors(state, 1)[u, v].tolist()


def three_qubit_fonts(state: PureState) -> ThreeQubitFonts:
    t0, t1, b0, b1, c0, c1 = _fonts(state, 3)
    return ThreeQubitFonts(three_way=(t0, t1), b_fixed=(b0, b1), c_fixed=(c0, c1))


def _three_tangle_forms(*fonts: np.ndarray | complex) -> tuple[np.ndarray, np.ndarray]:
    """4 |(t1 - t0)^2 - 4 b1 b0| and the alternate 4 |(t1 + t0)^2 - 4 c0 c1|.

    The fonts (t0, t1, b0, b1, c0, c1) are Python complex numbers or stacked
    arrays.  Products and magnitudes follow Python complex arithmetic either
    way, so every stacked value equals its scalar evaluation bit for bit.
    """
    t0, t1, b0, b1, c0, c1 = fonts
    primary = _product(t1 - t0, t1 - t0) - _product(4.0 * b1, b0)
    alternate = _product(t1 + t0, t1 + t0) - _product(4.0 * c0, c1)
    return (4.0 * np.hypot(primary.real, primary.imag),
            4.0 * np.hypot(alternate.real, alternate.imag))


def _three_tangles(*fonts: np.ndarray | complex) -> np.ndarray:
    """Three-tangle of the fonts (t0, t1, b0, b1, c0, c1), checked against the alternate form."""
    primary, alternate = _three_tangle_forms(*fonts)
    gap = np.abs(primary - alternate).max()
    if gap > _ALT_FORM_TOL:
        raise RuntimeError(f"primary and alternate tangle forms disagree by {gap:.3e}")
    return primary


def three_tangle(state: PureState) -> float:
    """4 |(three_way[1] - three_way[0])^2 - 4 b_fixed[1] b_fixed[0]|."""
    return float(_three_tangles(*_fonts(state, 3)))


def product_identity_residual(state: PureState) -> float:
    """|three_way[1] three_way[0] - (c_fixed[0] c_fixed[1] - b_fixed[1] b_fixed[0])|."""
    t0, t1, b0, b1, c0, c1 = _fonts(state, 3)
    return abs(t1 * t0 - (c0 * c1 - b1 * b0))


def monogamy_residual(state: PureState) -> float:
    """Gap between the determinant tangle and its residual-tangle construction.

    The independent route is C^2(A|BC) - C^2(AB) - C^2(AC), with the block
    concurrence equal to the global negativity for pure states and the
    pairwise terms from the Wootters concurrence of the reduced operators.
    """
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
    t0, t1, b0, b1, _, _ = _fonts(state, 3)
    u = su2_rotation(x)
    x = complex(x)
    xc = x.conjugate()
    x2 = abs(x) ** 2
    lam = 1.0 / (1.0 + x2)
    # fonts in pick-table order (t0, t1, b0, b1, c0, c1) after the rotation on A, B and C
    on_a, on_b, on_c = (
        _fonts(apply_local_unitary(state, LocalUnitary(q, u)), 3) for q in (1, 2, 3)
    )
    diff = t1 - t0

    # (relation, prefactor, rotated sides, unrotated side), each an exact equality
    relations = [
        ("b_rotation_three_way_0", lam, [on_b[0]], lam * (t0 + x2 * t1 - xc * b1 + x * b0)),
        ("b_rotation_three_way_1", lam, [on_b[1]], lam * (t1 + x2 * t0 + xc * b1 - x * b0)),
        ("b_rotation_b_fixed_0", lam, [on_b[2]], lam * (b0 + xc**2 * b1 + xc * diff)),
        ("b_rotation_b_fixed_1", lam, [on_b[3]], lam * (b1 + x**2 * b0 - x * diff)),
        ("ac_invariance_three_way_diff", 1.0, [g[1] - g[0] for g in (on_a, on_c)], diff),
        ("ac_invariance_b_fixed_0", 1.0, [g[2] for g in (on_a, on_c)], b0),
        ("ac_invariance_b_fixed_1", 1.0, [g[3] for g in (on_a, on_c)], b1),
    ]
    return [CovarianceReport(name, max(abs(lhs - rhs) for lhs in rotated), prefactor)
            for name, prefactor, rotated, rhs in relations]


def four_qubit_fonts(state: PureState) -> FourQubitFonts:
    f = _fonts(state, 4)
    return FourQubitFonts(
        four_way=((f[0], f[1]), (f[2], f[3])),
        three_way_c=((f[4], f[5]), (f[6], f[7])),
        three_way_b=((f[8], f[9]), (f[10], f[11])),
    )


def _four_invariants(*fonts: np.ndarray | complex) -> np.ndarray | complex:
    """(f01 - f00) + (f10 - f11) of the 4-way fonts (f00, f01, f10, f11), scalar or stacked."""
    f00, f01, f10, f11 = fonts
    return (f01 - f00) + (f10 - f11)


def four_invariant(state: PureState) -> complex:
    """(four_way[0][1] - four_way[0][0]) + (four_way[1][0] - four_way[1][1]).

    It equals -1/2 psi^T sigma_y^(x4) psi (Wong and Christensen, PRA 63, 044301, 2001).
    """
    return _four_invariants(*_fonts(state, 4)[:4])


def _four_tangles(invariant: np.ndarray | complex) -> np.ndarray:
    """Four-tangle 4 h * h, h = |invariant|, of a Python complex or stacked four_invariant."""
    # hypot is Python's abs(complex): every stacked value equals its scalar evaluation
    h = np.hypot(invariant.real, invariant.imag)
    return 4.0 * h * h


def four_tangle(state: PureState) -> float:
    """4 |four_invariant|^2."""
    return float(_four_tangles(four_invariant(state)))


# relations of covariance_check_4 by rotated qubit: (name, the combination of the
# 4-way fonts (w00, w01, w10, w11) that the rotation keeps), each with prefactor 1.0
_COVARIANT_4 = {
    4: [("d_rotation_combo_plus", _four_invariants),
        ("d_rotation_combo_minus", lambda w00, w01, w10, w11: (w01 - w00) - (w10 - w11))],
    3: [("c_rotation_combo_plus", _four_invariants)],
    2: [("b_rotation_combo_plus", lambda w00, w01, w10, w11: (w01 + w10) + (w00 + w11)),
        ("b_rotation_combo_minus", lambda w00, w01, w10, w11: (w01 + w10) - (w00 + w11))],
    1: [(f"a_rotation_four_way_{i:02b}", lambda *w, i=i: w[i]) for i in range(4)],
}
_MAGNITUDE_4 = ("four_invariant_magnitude", lambda *w: abs(_four_invariants(*w)))


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
    f = _fonts(state, 4)[:4]  # four_way 00, 01, 10, 11
    target = parse_qubit(qubit, 4)
    rotated = apply_local_unitary(state, LocalUnitary(target, su2_rotation(param)))
    g = _fonts(rotated, 4)[:4]
    return [CovarianceReport(name, abs(form(*g) - form(*f)), 1.0)
            for name, form in _COVARIANT_4[target] + [_MAGNITUDE_4]]


def lu_invariance_sweep(state: PureState, trials: int, seed: int) -> float:
    """Max deviation of the tangle under products of Haar single-qubit unitaries.

    Each trial applies one independent Haar unitary per qubit: trial t's n unitaries
    are the next n ``haar_unitary`` draws from one ``default_rng(seed)``, so the
    result does not depend on how trials are grouped.  Trials run in blocks of a few
    hundred, so memory stays bounded: a block takes one draw and one stacked QR,
    rotates a stack of amplitude vectors and evaluates its tangles together.
    Every check of the per-trial values (finite, unitary and normalized to
    the LocalUnitary and PureState tolerances, and for three qubits the
    primary/alternate agreement of ``three_tangle``) runs on each block.
    """
    n = state.n_qubits
    if n == 3:
        (u, v), reference, tangles = _THREE_PICKS, three_tangle(state), _three_tangles
    elif n == 4:
        (u, v), reference = _FOUR_PICKS[:, :4], four_tangle(state)
        tangles = lambda *fonts: _four_tangles(_four_invariants(*fonts))
    else:
        raise ValueError(f"sweep requires a 3- or 4-qubit state, got n = {n}")
    if trials < 0:
        raise ValueError("trials must be non-negative")
    rng, worst = np.random.default_rng(seed), 0.0
    for start in range(0, trials, _SWEEP_BLOCK):
        amps = _haar_rotated(state, rng, min(_SWEEP_BLOCK, trials - start))
        deviation = np.abs(tangles(*_minor_matrix(amps, n, 1)[:, u, v].T) - reference)
        worst = max(worst, float(deviation.max()))
    return worst
