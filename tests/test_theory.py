"""Closed-form MSE expressions, the strength optimum, and the scaled-MSE
comparison menu."""

import numpy as np
import pytest

from wvtomo import (
    CouplingStrengths,
    InvalidDimension,
    PurityStats,
    RandomStream,
    StrengthOutOfRange,
    TheoryInput,
    mse_hermitized,
    mse_hermitized_exact,
    mse_hermitized_optimal,
    mse_raw,
    mse_raw_optimal,
    numeric_optimal_strengths,
    optimal_strengths,
    purity_stats,
    random_mixed,
    scaled_mse_menu,
)
from wvtomo import theory

SEED = 61409

PURE = PurityStats(purity=1.0, purity_re=1.0, purity_im=0.0)


def _inp(d, g_r, g_i, shots=1, purity=PURE):
    return TheoryInput(dim=d, strengths=CouplingStrengths(g_r, g_i), shots=shots, purity=purity)


# ---------------------------------------------------------------- raw MSE


def test_mse_raw_hand_value_d2():
    # d=2, g_R = g_I = pi/2, pure: 1*(1+1) + 2/(2*(1/2)) - 1 = 3
    assert abs(mse_raw(_inp(2, np.pi / 2, np.pi / 2)) - 3.0) < 1e-14


def test_mse_raw_reference_point():
    # d=5 pure at the optimum with N=100
    inp = _inp(5, optimal_strengths(5).g_r, np.pi / 2, shots=100)
    assert abs(mse_raw(inp) - 0.15914) < 1e-5


def test_mse_raw_imaginary_strength_term():
    # moving g_I off pi/2 adds exactly (d^2/4)(1/sin^2 g_I - 1)
    d, g_r = 4, 1.1
    base = mse_raw(_inp(d, g_r, np.pi / 2))
    for g_i in (0.4, 1.0, 2.3):
        delta = mse_raw(_inp(d, g_r, g_i)) - base
        want = d * d / 4.0 * (1.0 / np.sin(g_i) ** 2 - 1.0)
        assert abs(delta - want) < 1e-11


def test_mse_raw_scales_inversely_with_shots():
    one = mse_raw(_inp(3, 1.0, 1.0, shots=1))
    assert mse_raw(_inp(3, 1.0, 1.0, shots=10)) == pytest.approx(one / 10, rel=1e-15)
    assert mse_raw(_inp(3, 1.0, 1.0, shots=1000)) == pytest.approx(one / 1000, rel=1e-15)


def test_mse_raw_diverges_near_zero_strength():
    weak = mse_raw(_inp(5, 0.02, np.pi / 2))
    assert weak > 100 * mse_raw_optimal(5, 1, 1.0)


def test_mse_raw_symmetric_about_half_pi_in_gi():
    for g in (0.3, 0.9, 1.4):
        a = mse_raw(_inp(3, 1.0, g))
        b = mse_raw(_inp(3, 1.0, np.pi - g))
        assert a == pytest.approx(b, rel=1e-12)


def test_mse_raw_guards_singular_strengths():
    with pytest.raises(StrengthOutOfRange):
        mse_raw(_inp(3, 1e-10, 1.0))
    with pytest.raises(StrengthOutOfRange):
        mse_raw(_inp(3, 1.0, np.pi - 1e-10))


def test_theory_input_rejects_zero_shots():
    with pytest.raises(ValueError):
        TheoryInput(dim=2, strengths=CouplingStrengths(1.0, 1.0), shots=0, purity=PURE)


# ---------------------------------------------------------------- optimum


def test_optimal_strengths_known_values():
    opt5 = optimal_strengths(5)
    assert abs(opt5.g_r - 1.3342) < 1e-4  # quoted to 5 figures
    assert abs(np.cos(opt5.g_r) - 0.2344355629) < 1e-9
    assert opt5.g_i == np.pi / 2

    opt2 = optimal_strengths(2)
    assert abs(opt2.g_r - 1.1788736513480185) < 1e-12


def test_optimal_strengths_stationary():
    # central finite differences of the two separable pieces vanish
    h = 1e-5
    for d in (2, 5, 17, 32):
        opt = optimal_strengths(d)

        def part_r(g):
            return d * d / (4 * np.sin(g) ** 2) + d / (2 * np.cos(g / 2) ** 2)

        def part_i(g):
            return d * d / (4 * np.sin(g) ** 2)

        assert abs(part_r(opt.g_r + h) - part_r(opt.g_r - h)) / (2 * h) < 1e-8 * part_r(opt.g_r)
        assert abs(part_i(opt.g_i + h) - part_i(opt.g_i - h)) / (2 * h) < 1e-8 * part_i(opt.g_i)


def test_optimal_strengths_agree_with_numeric_search():
    for d in range(2, 33):
        closed = optimal_strengths(d)
        numeric = numeric_optimal_strengths(d)
        assert abs(closed.g_r - numeric.g_r) < 1e-6
        assert abs(closed.g_i - numeric.g_i) < 1e-6


def test_numeric_search_never_beats_closed_form():
    for d in (2, 5, 13, 32):
        closed = optimal_strengths(d)
        numeric = numeric_optimal_strengths(d)
        f_closed = mse_raw(_inp(d, closed.g_r, closed.g_i))
        f_numeric = mse_raw(_inp(d, numeric.g_r, numeric.g_i))
        assert f_numeric >= f_closed - 1e-12


@pytest.mark.parametrize("d", [2, 5, 32])
def test_optimum_grid_is_mse_raw_elementwise(monkeypatch, d):
    # the numeric search evaluates each 201-point grid in one call of the bracket
    # mse_raw uses, so the grid values, and their argmin, are mse_raw's exactly
    grid = np.linspace(0.01, np.pi - 0.01, 201)
    zero = PurityStats(0.0, 0.0, 0.0)
    on_r = [mse_raw(TheoryInput(d, CouplingStrengths(g, np.pi / 2), 1, zero)) for g in grid]
    on_i = [mse_raw(TheoryInput(d, CouplingStrengths(np.pi / 2, g), 1, zero)) for g in grid]
    assert np.array_equal(theory._raw_bracket(d, grid, np.pi / 2, 0.0), on_r)
    assert np.array_equal(theory._raw_bracket(d, np.pi / 2, grid, 0.0), on_i)

    bracket, calls = theory._raw_bracket, []
    monkeypatch.setattr(theory, "_raw_bracket", lambda *args: calls.append(args) or bracket(*args))
    numeric_optimal_strengths(d)
    # every call is one 201-point grid: first all on g_R with g_I = pi/2, then all on g_I
    # with g_R = pi/2, each axis starting from the full grid; no call is a scalar one
    n_r = sum(np.ndim(g_r) == 1 for _, g_r, _, _ in calls)
    shapes = [(np.shape(g_r), np.shape(g_i)) for _, g_r, g_i, _ in calls]
    assert 0 < n_r < len(calls)
    assert shapes == [((201,), ())] * n_r + [((), (201,))] * (len(calls) - n_r)
    assert all(c[2] == np.pi / 2 for c in calls[:n_r])
    assert all(c[1] == np.pi / 2 for c in calls[n_r:])
    assert np.array_equal(calls[0][1], grid) and np.array_equal(calls[n_r][2], grid)


def test_optimal_strengths_rejects_small_dimension():
    with pytest.raises(InvalidDimension):
        optimal_strengths(1)
    with pytest.raises(InvalidDimension):
        numeric_optimal_strengths(1)


# Purity triples (tr rho^2, tr((Re rho)^2), tr((Im rho)^2)), exact in binary, for which the
# substitution identities must hold too: their purity terms cancel, so they hold for any triple.
PURITY_TRIPLES = [PurityStats(0.0, 0.0, 0.0), PurityStats(1.0, 1.0, 0.0),
                  PurityStats(1.0, 0.75, 0.25)]


def test_mse_raw_optimal_is_substitution():
    # the closed form must equal mse_raw evaluated at the optimal strengths
    for d in range(2, 33):
        opt = optimal_strengths(d)
        direct = mse_raw(_inp(d, opt.g_r, opt.g_i, shots=13))
        assert abs(mse_raw_optimal(d, 13, 1.0) - direct) < 1e-12
        for pur in PURITY_TRIPLES:
            direct = mse_raw(_inp(d, opt.g_r, opt.g_i, shots=13, purity=pur))
            assert abs(mse_raw_optimal(d, 13, pur.purity) - direct) < 1e-12


@pytest.mark.parametrize("closed_form", [
    lambda shots: mse_raw_optimal(5, shots, 1.0),
    lambda shots: mse_hermitized_optimal(5, shots, 1.0, 0.0),
    lambda shots: mse_hermitized_exact(
        random_mixed(3, 2, RandomStream(SEED, 8)), CouplingStrengths(1.0, 1.5), shots),
], ids=["mse_raw_optimal", "mse_hermitized_optimal", "mse_hermitized_exact"])
def test_closed_forms_refuse_no_shots(closed_form):
    # with N = 0 each would divide by zero: a ZeroDivisionError, or inf and a RuntimeWarning
    with pytest.raises(ValueError, match=r"^shot count must be >= 1, got 0$"):
        closed_form(0)


def test_mse_raw_optimal_reference_values():
    assert abs(mse_raw_optimal(5, 100, 1.0) - 0.15914) < 1e-5
    p = 0.43
    assert abs(mse_raw_optimal(5, 100, p) - (16.914 - p) / 100) < 1e-5


# ---------------------------------------------------------------- hermitized MSE


def test_mse_hermitized_formula():
    # independently written version of the same closed form
    d, g_r, g_i, n = 5, 1.2, 1.9, 7
    pur = PurityStats(0.61, 0.47, 0.14)
    sr, si, cr = np.sin(g_r), np.sin(g_i), np.cos(g_r / 2)
    bracket = d * d / 4 * (1 / sr**2 + 1 / si**2) + d / (2 * cr**2) - pur.purity
    dia = (d * d / (4 * sr**2) + d / (2 * cr**2) - pur.purity_re) / (d * n)
    want = (d - 1) / (2 * d * n) * bracket + dia
    got = mse_hermitized(_inp(d, g_r, g_i, shots=n, purity=pur))
    assert abs(got - want) < 1e-15


def test_mse_hermitized_optimal_frozen_value():
    # frozen from a high-precision evaluation of the closed form (d=5, pure)
    assert abs(mse_hermitized_optimal(5, 1, 1.0, 0.0) - 8.298346655611955) < 1e-12


def test_mse_hermitized_optimal_is_substitution():
    for d in (2, 5, 11, 32):
        rho = random_mixed(d, d, RandomStream(SEED, d))
        pur = purity_stats(rho)
        opt = optimal_strengths(d)
        direct = mse_hermitized(_inp(d, opt.g_r, opt.g_i, shots=6, purity=pur))
        assert abs(mse_hermitized_optimal(d, 6, pur.purity_re, pur.purity_im) - direct) < 1e-12
    for d in range(2, 33):
        opt = optimal_strengths(d)
        for pur in PURITY_TRIPLES:
            direct = mse_hermitized(_inp(d, opt.g_r, opt.g_i, shots=6, purity=pur))
            assert abs(mse_hermitized_optimal(d, 6, pur.purity_re, pur.purity_im) - direct) < 1e-12


def test_mse_hermitized_scales_inversely_with_shots():
    one = mse_hermitized_optimal(3, 1, 1.0, 0.0)
    assert mse_hermitized_optimal(3, 2, 1.0, 0.0) == pytest.approx(one / 2, rel=1e-15)


def test_mse_hermitized_halves_raw_at_large_d():
    # the uniform-variance form approaches raw/2 as d grows
    ratio = mse_hermitized_optimal(32, 1, 1.0, 0.0) / (mse_raw_optimal(32, 1, 1.0) / 2)
    assert abs(ratio - 1.0) < 0.02


def test_mse_hermitized_exact_gap_formula():
    """The uniform-variance form overshoots the exact bookkeeping by
    [sum_n rho_nn^2 / 2 - (tr((Re rho)^2) - tr((Im rho)^2)) / 2d] / N."""
    for k in range(8):
        d = 2 + k % 4
        rho = random_mixed(d, 1 + k % d, RandomStream(SEED, 100 + k))
        strengths = CouplingStrengths(0.5 + 0.2 * k, 1.8)
        pur = purity_stats(rho)
        approx = mse_hermitized(TheoryInput(dim=d, strengths=strengths, shots=11, purity=pur))
        exact = mse_hermitized_exact(rho, strengths, 11)
        diag_sq = float(np.sum(rho.matrix.diagonal().real ** 2))
        gap = (diag_sq / 2 - (pur.purity_re - pur.purity_im) / (2 * d)) / 11
        assert abs((approx - exact) - gap) < 1e-14


def test_mse_hermitized_exact_below_raw():
    rho = random_mixed(4, 4, RandomStream(SEED, 200))
    strengths = CouplingStrengths(1.1, 1.6)
    inp = TheoryInput(dim=4, strengths=strengths, shots=3, purity=purity_stats(rho))
    assert mse_hermitized_exact(rho, strengths, 3) < mse_raw(inp)


# ---------------------------------------------------------------- comparison menu


def test_menu_reference_row_d5_pure():
    menu = scaled_mse_menu(5, 1.0, 1.0, 0.0)
    assert menu["mub"] == 24.0
    assert menu["sic"] == 28.0
    assert abs(menu["raw_per_shot"] - 15.913911092686593) < 1e-12
    assert abs(menu["hermitized_per_shot_approx"] - 7.96) < 5e-3
    assert abs(menu["per_copy_approx"] - 79.6) < 5e-2
    assert menu["per_copy_approx"] == 5 * menu["raw_per_shot"]
    assert menu["hermitized_per_shot_approx"] == menu["raw_per_shot"] / 2


def test_menu_exact_row_matches_optimal_form():
    for d in (2, 4, 7):
        rho = random_mixed(d, d, RandomStream(SEED, 300 + d))
        pur = purity_stats(rho)
        menu = scaled_mse_menu(d, pur.purity, pur.purity_re, pur.purity_im)
        assert menu["hermitized_per_shot_exact"] == mse_hermitized_optimal(
            d, 1, pur.purity_re, pur.purity_im
        )


def test_menu_orderings_pure_states():
    for d in range(2, 11):
        menu = scaled_mse_menu(d, 1.0, 1.0, 0.0)
        assert menu["hermitized_per_shot_approx"] < menu["mub"]
        assert menu["hermitized_per_shot_approx"] < menu["sic"]
        assert menu["per_copy_approx"] > menu["mub"]
        assert menu["per_copy_approx"] > menu["sic"]
        assert all(v > 0 for v in menu.values())


def test_menu_row_shapes():
    assert list(scaled_mse_menu(3, 1.0, 1.0, 0.0)) == [
        "raw_per_shot",
        "hermitized_per_shot_approx",
        "hermitized_per_shot_exact",
        "per_copy_approx",
        "mub",
        "sic",
    ]


def _mubs(d):
    """d + 1 mutually unbiased bases, each a matrix of basis columns: the qubit's three at
    d=2, and at an odd prime d the computational basis plus the Wootters-Fields bases
    |e_k^r> = sum_j w^(r j^2 + k j) |j> / sqrt(d), w = e^(2 pi i / d), r = 0..d-1."""
    if d == 2:
        return [np.eye(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2),
                np.array([[1, 1], [1j, -1j]]) / np.sqrt(2)]
    j = np.arange(d)[:, None]
    return [np.eye(d)] + [np.exp(2j * np.pi * ((r * j * j + j * j.T) % d) / d) / np.sqrt(d)
                          for r in range(d)]


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11])
def test_menu_mub_column_is_linear_inversion_over_real_mubs(d):
    # N/(d+1) copies per basis, p_bk estimated by its frequency: the per-copy MSE of linear
    # inversion, rho = sum_bk p_bk |e_bk><e_bk| - 1, is (d+1) sum_b (1 - sum_k p_bk^2).
    # Rehearsed once: the worst unbiasedness error was 3.9e-16, the worst deviation 4.4e-16.
    bases = _mubs(d)
    assert len(bases) == d + 1
    for a in range(d + 1):
        for b in range(a + 1, d + 1):
            overlap = np.abs(bases[a].conj().T @ bases[b]) ** 2
            assert np.abs(overlap - 1.0 / d).max() < 1e-12, (a, b)
    for k in range(4):
        rho = random_mixed(d, 1 + k % d, RandomStream(SEED, 1000 + 10 * d + k))
        probs = [np.einsum("an,ab,bn->n", e.conj(), rho.matrix, e).real for e in bases]
        scaled = (d + 1) * sum(1.0 - np.sum(p * p) for p in probs)
        pur = purity_stats(rho)
        mub = scaled_mse_menu(d, pur.purity, pur.purity_re, pur.purity_im)["mub"]
        assert abs(scaled - mub) <= 1e-12 * mub, (k, scaled, mub)


def _sics(d):
    """d^2 SIC vectors as columns: at d=2 the tetrahedron, the states with Bloch vectors
    (0, 0, 1), (2 sqrt2/3, 0, -1/3) and (-sqrt2/3, +-sqrt(2/3), -1/3); at d=3 the Hesse SIC,
    the orbit of (0, 1, -1)/sqrt2 under X^a Z^b."""
    if d == 2:
        pauli = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
        r2 = np.sqrt(2.0)
        bloch = [(0, 0, 1), (2 * r2 / 3, 0, -1 / 3), (-r2 / 3, np.sqrt(2 / 3), -1 / 3),
                 (-r2 / 3, -np.sqrt(2 / 3), -1 / 3)]
        # each state is the +1 eigenvector of its projector (1 + r.sigma)/2
        return np.array([np.linalg.eigh(np.eye(2) + sum(c * s for c, s in zip(r, pauli)))[1][:, 1]
                         for r in bloch]).T
    x = np.roll(np.eye(3), 1, axis=0)  # X|j> = |j+1>
    z = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
    fiducial = np.array([0, 1, -1]) / np.sqrt(2)
    return np.array([np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b) @ fiducial
                     for a in range(3) for b in range(3)]).T


@pytest.mark.parametrize("d", [2, 3])
def test_menu_sic_column_is_linear_inversion_over_real_sics(d):
    # N copies on a SIC POVM {|psi_k><psi_k|/d}, p_k estimated by its frequency: linear
    # inversion rho = sum_k p_k ((d+1)|psi_k><psi_k| - 1) is unbiased, and its per-copy MSE
    # is sum_k p_k ||(d+1)|psi_k><psi_k| - 1||^2 - tr rho^2.
    # Rehearsed once: the worst overlap error was 8.9e-16, the worst entry of the inverted
    # mean off rho 1.0e-15, and the worst relative deviation 1.2e-15.
    psi = _sics(d)
    assert psi.shape == (d, d * d)
    overlap = np.abs(psi.conj().T @ psi) ** 2
    want = np.where(np.eye(d * d, dtype=bool), 1.0, 1.0 / (d + 1))
    assert np.abs(overlap - want).max() < 1e-12
    ops = [(d + 1) * np.outer(v, v.conj()) - np.eye(d) for v in psi.T]
    for k in range(6):
        rho = random_mixed(d, 1 + k % d, RandomStream(SEED, 2000 + 10 * d + k))
        p = np.einsum("ak,ab,bk->k", psi.conj(), rho.matrix, psi).real / d
        assert np.abs(sum(pk * op for pk, op in zip(p, ops)) - rho.matrix).max() < 1e-12
        pur = purity_stats(rho)
        scaled = sum(pk * np.sum(np.abs(op) ** 2) for pk, op in zip(p, ops)) - pur.purity
        sic = scaled_mse_menu(d, pur.purity, pur.purity_re, pur.purity_im)["sic"]
        assert abs(scaled - sic) <= 1e-12 * sic, (k, scaled, sic)


@pytest.mark.parametrize("n_shots", [1, 3, 40])
@pytest.mark.parametrize("column, d", [("mub", 2), ("mub", 3), ("mub", 5), ("sic", 2), ("sic", 3)])
def test_menu_baselines_match_sampled_linear_inversion(column, d, n_shots):
    # The two tests above, sampled: n_shots copies on each MUB basis or on the SIC, their
    # counts drawn by RandomStream.multinomial (shot by shot where n_shots is below a row's d
    # or d^2 outcomes) and inverted linearly.  The per-copy squared error's mean is gated
    # against the column in stderr units.  Rehearsed once at this seed: z from -1.05 to
    # +2.01 over these 15 cases.
    rho = random_mixed(d, d, RandomStream(SEED, 3000 + d))  # full rank: no p_k is 0
    vecs = np.stack(_mubs(d)) if column == "mub" else _sics(d)[None]  # [row, entry, outcome]
    proj = np.einsum("bak,bck->bkac", vecs, vecs.conj())
    probs = np.einsum("bkac,ca->bk", proj, rho.matrix).real
    if column == "mub":  # rho = sum_bk p_bk |e_bk><e_bk| - 1, from n_shots copies per basis
        ops, offset, copies = proj, -np.eye(d), (d + 1) * n_shots
    else:  # p_k = <psi_k|rho|psi_k> / d, and rho = sum_k p_k ((d + 1)|psi_k><psi_k| - 1)
        probs, ops, offset, copies = probs / d, (d + 1) * proj - np.eye(d), 0.0, n_shots
    reps = 2 * 10**4
    counts = RandomStream(SEED, 3100 + d).multinomial(n_shots, probs, size=(reps, len(probs)))
    est = ((counts.reshape(reps, -1) / n_shots) @ ops.reshape(-1, d * d)).reshape(reps, d, d)
    est += offset
    err = copies * np.sum(np.abs(est - rho.matrix) ** 2, axis=(1, 2))
    pur = purity_stats(rho)
    want = scaled_mse_menu(d, pur.purity, pur.purity_re, pur.purity_im)[column]
    z = (err.mean() - want) / (err.std(ddof=1) / np.sqrt(reps))
    assert abs(z) < 4.0, (z, want)


def test_menu_rejects_small_dimension():
    with pytest.raises(InvalidDimension):
        scaled_mse_menu(1, 1.0, 1.0, 0.0)
