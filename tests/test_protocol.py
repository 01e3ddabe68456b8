"""Forward model: bases, coupling unitary, pointer observables,
post-selection, weak values, and the linear reconstruction map."""

from dataclasses import replace

import numpy as np
import pytest

from wvtomo import (
    ConditionalDeviceEnsemble,
    CouplingStrengths,
    DensityMatrix,
    IndexOutOfRange,
    InvalidDimension,
    MeasurementBases,
    NotPositive,
    RandomStream,
    ShapeMismatch,
    StrengthMismatch,
    StrengthOutOfRange,
    UndefinedWeakValue,
    couple_and_postselect,
    coupling_unitary,
    fourier_mub,
    hs_distance_sq,
    marginal_device_state,
    optimal_strengths,
    pointer_observables,
    random_mixed,
    random_pure,
    reconstruct,
    validate_density,
    weak_value_from_device,
    weak_values_exact,
)
from wvtomo.protocol import (
    _features, _postselected_pointers, _read_weak_values, check_strength, pointer_blocks,
)

SEED = 40823

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
DEVICE_ZERO = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def _singular_pure_state():
    """d=3 pure state orthogonal to |a_0> whose overlap with |psi_1> vanishes,
    so post-selection outcome (n=0, j=1) has probability zero."""
    v = np.array([0.0, 1.0, -np.exp(-2j * np.pi / 3)]) / np.sqrt(2)
    return validate_density(np.outer(v, v.conj()))


# ---------------------------------------------------------------- bases


def test_fourier_mub_d2_columns():
    bases = fourier_mub(2)
    assert np.allclose(bases.a_basis, np.eye(2))
    assert np.allclose(bases.psi_basis[:, 0], np.array([1, 1]) / np.sqrt(2))
    assert np.allclose(bases.psi_basis[:, 1], np.array([1, -1]) / np.sqrt(2))


def test_fourier_mub_overlap_convention():
    # <psi_j|a_n> = e^{2 pi i jn/d} / sqrt(d)
    for d in (2, 3, 5):
        o = fourier_mub(d).overlaps()
        jn = np.outer(np.arange(d), np.arange(d))
        assert np.max(np.abs(o - np.exp(2j * np.pi * jn / d) / np.sqrt(d))) < 1e-14


def test_fourier_mub_unbiased():
    o = fourier_mub(5).overlaps()
    assert np.max(np.abs(np.abs(o) ** 2 - 0.2)) < 1e-14


def test_fourier_mub_orthonormal():
    psi = fourier_mub(3).psi_basis
    assert np.max(np.abs(psi.conj().T @ psi - np.eye(3))) < 1e-14


@pytest.mark.parametrize("d", [2, 3, 5, 16, 32])
def test_overlaps_are_built_once_with_the_bases(d):
    # one read-only array, made when the bases are built, with the bits of psi^dag a; bases
    # made by dataclasses.replace build their own
    bases = fourier_mub(d)
    o = bases.overlaps()
    assert o is bases.overlaps()
    assert np.array_equal(o, bases.psi_basis.conj().T @ bases.a_basis)
    with pytest.raises(ValueError, match="read-only"):
        o[0, 0] = 0.0
    moved = replace(bases, psi_basis=bases.psi_basis[:, ::-1])
    assert np.array_equal(moved.overlaps(), moved.psi_basis.conj().T @ moved.a_basis)
    assert not np.array_equal(moved.overlaps(), o)


def test_fourier_mub_rejects_small_dimension():
    with pytest.raises(InvalidDimension):
        fourier_mub(1)


# ---------------------------------------------------------------- coupling


def test_coupling_unitary_identity_at_zero_strength():
    assert np.allclose(coupling_unitary(1, 0.0, 3), np.eye(6))


def test_coupling_unitary_d2_structure():
    # At g = pi/2 the n-block becomes -i sigma_x, the rest stays identity.
    u = coupling_unitary(0, np.pi / 2, 2)
    assert np.max(np.abs(u[:2, :2] - (-1j) * SIGMA_X)) < 1e-15
    assert np.max(np.abs(u[2:, 2:] - np.eye(2))) < 1e-15
    assert np.max(np.abs(u[:2, 2:])) == 0.0


def test_coupling_unitary_is_unitary():
    rng = RandomStream(SEED, 0)
    for d in (2, 3, 6):
        for _ in range(5):
            g = float(rng.uniforms(1)[0]) * np.pi
            n = int(rng.uniforms(1)[0] * d)
            u = coupling_unitary(n, g, d)
            assert np.max(np.abs(u.conj().T @ u - np.eye(2 * d))) < 1e-13


def test_coupling_unitary_matches_matrix_exponential():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    d, n, g = 3, 1, 0.9
    proj = np.zeros((d, d), dtype=complex)
    proj[n, n] = 1.0
    h = np.kron(proj, SIGMA_X)
    assert np.max(np.abs(coupling_unitary(n, g, d) - scipy_linalg.expm(-1j * g * h))) < 1e-13


@pytest.mark.parametrize("d", [2, 3, 5, 16])
def test_coupling_unitary_equals_numpy_kron_bitwise(d):
    # the Kronecker products are built by broadcasting; np.kron's values, exactly
    for n in (0, d // 2, d - 1):
        for g in (0.3, 1.9, 3.5):
            proj = np.zeros((d, d), dtype=complex)
            proj[n, n] = 1.0
            v = np.cos(g) * np.eye(2, dtype=complex) - 1j * np.sin(g) * SIGMA_X
            ref = np.kron(np.eye(d, dtype=complex) - proj, np.eye(2, dtype=complex))
            ref += np.kron(proj, v)
            assert np.array_equal(coupling_unitary(n, g, d), ref)


def test_coupling_unitary_rejects_bad_index():
    with pytest.raises(IndexOutOfRange):
        coupling_unitary(3, 1.0, 3)
    with pytest.raises(IndexOutOfRange):
        coupling_unitary(-1, 1.0, 3)


# ---------------------------------------------------------------- pointer observables


def test_pointer_observables_quarter_turn():
    obs = pointer_observables(np.pi / 2)
    scale = np.pi / 2
    assert np.max(np.abs(obs.sigma_r - scale * (SIGMA_Y - (np.eye(2) - SIGMA_Z)))) < 1e-14
    assert np.max(np.abs(obs.sigma_i - scale * SIGMA_X)) < 1e-14


def test_pointer_observables_are_hermitian():
    for g in np.linspace(0.05, 3.0, 12):
        obs = pointer_observables(float(g))
        assert np.max(np.abs(obs.sigma_r - obs.sigma_r.conj().T)) < 1e-13
        assert np.max(np.abs(obs.sigma_i - obs.sigma_i.conj().T)) == 0.0


def test_pointer_observables_singular_guards():
    with pytest.raises(StrengthOutOfRange):
        pointer_observables(1e-12)
    with pytest.raises(StrengthOutOfRange):
        pointer_observables(np.pi - 1e-12)


# ---------------------------------------------------------------- post-selection


def test_postselect_maximally_mixed_uniform():
    for d, g in ((2, 0.4), (3, 1.3), (5, 2.7)):
        ens = couple_and_postselect(validate_density(np.eye(d) / d), 1, g, fourier_mub(d))
        assert np.max(np.abs(ens.probs - 1.0 / d)) < 1e-14


def test_postselect_basis_state_hand_case():
    # rho = |0><0|, couple to n=0: every outcome keeps probability 1/2 and
    # the pointer collapses to (cos g)|0> - i (sin g)|1>.
    g = 0.8
    rho = validate_density(np.diag([1.0, 0.0]))
    ens = couple_and_postselect(rho, 0, g, fourier_mub(2))
    assert np.max(np.abs(ens.probs - 0.5)) < 1e-14
    v = np.array([np.cos(g), -1j * np.sin(g)])
    target = np.outer(v, v.conj())
    for state in ens.device_states:
        assert np.max(np.abs(state - target)) < 1e-14


def test_postselect_probabilities_sum_to_one():
    rng = RandomStream(SEED, 1)
    for k in range(100):
        d = 2 + k % 5
        rho = random_mixed(d, 1 + k % d, RandomStream(SEED, 50 + k))
        g = 0.05 + float(rng.uniforms(1)[0]) * (np.pi - 0.1)
        n = int(rng.uniforms(1)[0] * d)
        ens = couple_and_postselect(rho, n, g, fourier_mub(d))
        assert abs(ens.probs.sum() - 1.0) < 1e-12
        assert ens.probs.min() >= 0.0


def test_postselect_device_states_are_states():
    rho = random_mixed(3, 2, RandomStream(SEED, 2))
    ens = couple_and_postselect(rho, 0, 1.1, fourier_mub(3))
    for state in ens.device_states:
        assert abs(np.trace(state) - 1.0) < 1e-12
        assert np.max(np.abs(state - state.conj().T)) < 1e-14
        assert np.linalg.eigvalsh(state)[0] > -1e-12


def test_postselect_rejects_dimension_mismatch():
    rho = random_pure(3, RandomStream(SEED, 3))
    with pytest.raises(ShapeMismatch):
        couple_and_postselect(rho, 0, 1.0, fourier_mub(2))


def test_postselect_flags_vanishing_outcome():
    ens = couple_and_postselect(_singular_pure_state(), 0, 0.7, fourier_mub(3))
    assert ens.probs[1] < 1e-15
    assert ens.device_states[1] is None
    assert ens.device_states[0] is not None


# ---------------------------------------------------------------- weak values


def test_weak_values_basis_state_equal_one():
    # rho = |a_n><a_n| gives W_nj = 1 for every j, at any strength.
    for d, g in ((2, 0.5), (4, 1.9)):
        m = np.zeros((d, d))
        m[1, 1] = 1.0
        table = weak_values_exact(validate_density(m), fourier_mub(d), g)
        assert np.max(np.abs(table.entries[1] - 1.0)) < 1e-12


def test_weak_values_sum_rule():
    # sum_j P_j W_nj = rho_nn
    rho = random_mixed(4, 3, RandomStream(SEED, 4))
    table = weak_values_exact(rho, fourier_mub(4), 1.2)
    for n in range(4):
        total = np.sum(table.probs[n] * table.entries[n])
        assert abs(total - rho.matrix[n, n]) < 1e-13


def test_weak_values_maximally_mixed():
    d = 3
    table = weak_values_exact(validate_density(np.eye(d) / d), fourier_mub(d), 0.9)
    assert np.max(np.abs(table.entries - 1.0 / d)) < 1e-13
    assert not table.undefined.any()


def test_weak_values_undefined_entry_flagged():
    table = weak_values_exact(_singular_pure_state(), fourier_mub(3), 0.7)
    assert table.undefined[0, 1]
    assert table.entries[0, 1] == 0.0
    assert table.undefined.sum() == 1


def test_device_readout_matches_definition():
    # ~100 random (rho, n, g): pointer expectations reproduce the
    # definitional weak values.
    rng = RandomStream(SEED, 5)
    for k in range(100):
        d = 2 + k % 4
        rho = random_mixed(d, 1 + (k // 4) % d, RandomStream(SEED, 200 + k))
        g = 0.1 + float(rng.uniforms(1)[0]) * 2.9
        n = k % d
        table = weak_values_exact(rho, fourier_mub(d), g)
        ens = couple_and_postselect(rho, n, g, fourier_mub(d))
        w = weak_value_from_device(ens, pointer_observables(g))
        assert np.max(np.abs(w - table.entries[n])) < 1e-10


def test_device_readout_hand_case():
    # rho = |0><0|, n = 0: W_j = 1, read straight off the hand-computed
    # pointer state (cos g)|0> - i (sin g)|1>.
    g = 1.1
    rho = validate_density(np.diag([1.0, 0.0]))
    ens = couple_and_postselect(rho, 0, g, fourier_mub(2))
    w = weak_value_from_device(ens, pointer_observables(g))
    assert np.max(np.abs(w - 1.0)) < 1e-12


def test_device_readout_nan_for_vanished_outcome():
    g = 0.7
    ens = couple_and_postselect(_singular_pure_state(), 0, g, fourier_mub(3))
    w = weak_value_from_device(ens, pointer_observables(g))
    assert np.isnan(w[1].real) and np.isnan(w[1].imag)
    assert np.isfinite(w[0])


def _readout_one_outcome_at_a_time(ens, obs):
    out = np.full(len(ens.probs), np.nan + 1j * np.nan, dtype=complex)
    for j, state in enumerate(ens.device_states):
        if state is not None:
            re = -np.trace(state @ obs.sigma_r).real
            im = np.trace(state @ obs.sigma_i).real
            out[j] = (re + 1j * im) / (2.0 * ens.g)
    return out


def test_device_readout_equals_the_per_outcome_loop_bitwise():
    # one stacked matmul and trace over the defined outcomes; NaN where one vanished
    cases = [(_singular_pure_state(), 0, 0.7)]
    for k in range(12):
        d = 2 + k % 4
        rho = random_mixed(d, 1 + k % d, RandomStream(SEED, 700 + k))
        cases.append((rho, k % d, 0.2 + 0.25 * k))
    for rho, n, g in cases:
        ens = couple_and_postselect(rho, n, g, fourier_mub(rho.dim))
        obs = pointer_observables(g)
        w = weak_value_from_device(ens, obs)
        assert np.array_equal(w, _readout_one_outcome_at_a_time(ens, obs), equal_nan=True)


def test_device_readout_rejects_strength_mismatch():
    rho = random_pure(2, RandomStream(SEED, 6))
    ens = couple_and_postselect(rho, 0, 1.0, fourier_mub(2))
    with pytest.raises(StrengthMismatch):
        weak_value_from_device(ens, pointer_observables(1.0 + 1e-6))


# ---------------------------------------------------------------- reconstruction


def test_reconstruct_exact_round_trip():
    for d in (2, 3, 5, 8):
        bases = fourier_mub(d)
        rho = random_mixed(d, d, RandomStream(SEED, 300 + d))
        rec = reconstruct(weak_values_exact(rho, bases, 1.0))
        assert hs_distance_sq(rec, rho.matrix) < 1e-26


def test_reconstruct_strength_independent():
    d = 4
    bases = fourier_mub(d)
    rho = random_mixed(d, 2, RandomStream(SEED, 7))
    a = reconstruct(weak_values_exact(rho, bases, 0.3))
    b = reconstruct(weak_values_exact(rho, bases, 2.0))
    assert np.max(np.abs(a - b)) < 1e-12


def test_reconstruct_maximally_mixed():
    d = 3
    bases = fourier_mub(d)
    rho = validate_density(np.eye(d) / d)
    rec = reconstruct(weak_values_exact(rho, bases, 1.4))
    assert np.max(np.abs(rec - np.eye(d) / d)) < 1e-14


def test_reconstruct_rejects_undefined_entries():
    table = weak_values_exact(_singular_pure_state(), fourier_mub(3), 0.7)
    with pytest.raises(UndefinedWeakValue, match=r"n=0, j=1"):
        reconstruct(table)


# ---------------------------------------------------------------- device marginal


def test_marginal_device_state_no_coupling():
    rho = random_mixed(3, 3, RandomStream(SEED, 9))
    m = marginal_device_state(rho, 0, 0.0)
    assert np.max(np.abs(m - np.diag([1.0, 0.0]))) < 1e-14


def test_marginal_device_state_closed_form():
    # tr_s of the coupled state: (1 - rho_nn) |0><0| + rho_nn * v v^dag,
    # v = (cos g, -i sin g); diagonal is (1 - rho_nn sin^2 g, rho_nn sin^2 g).
    g = 1.3
    rho = random_mixed(4, 4, RandomStream(SEED, 10))
    for n in range(4):
        p = rho.matrix[n, n].real
        m = marginal_device_state(rho, n, g)
        v = np.array([np.cos(g), -1j * np.sin(g)])
        target = (1 - p) * np.diag([1.0, 0.0]) + p * np.outer(v, v.conj())
        assert np.max(np.abs(m - target)) < 1e-13
        assert abs(m[1, 1].real - p * np.sin(g) ** 2) < 1e-13


def test_marginal_device_state_uncoupled_population():
    # rho_nn = 0 leaves the pointer in |0><0| exactly.
    v = np.array([0.0, 0.6, 0.8j])
    rho = validate_density(np.outer(v, v.conj()))
    m = marginal_device_state(rho, 0, 2.1)
    assert np.max(np.abs(m - np.diag([1.0, 0.0]))) < 1e-15


def test_marginal_equals_postselection_average():
    # sum_j P_j rho_d^(j) must reproduce the unconditioned pointer state.
    rho = random_mixed(3, 2, RandomStream(SEED, 11))
    g, n = 0.9, 2
    ens = couple_and_postselect(rho, n, g, fourier_mub(3))
    avg = sum(ens.probs[j] * ens.device_states[j] for j in range(3))
    assert np.max(np.abs(avg - marginal_device_state(rho, n, g))) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_strengths_are_rejected_by_value(bad):
    # checked before any arithmetic, so no RuntimeWarning fires on the way
    named = f"= {bad} is not finite"
    with pytest.raises(StrengthOutOfRange, match=named):
        check_strength(bad)
    with pytest.raises(StrengthOutOfRange, match=named):
        pointer_observables(bad)
    rho = validate_density(np.eye(3) / 3)
    for g in (bad, np.array([1.0, bad])):
        with pytest.raises(StrengthOutOfRange, match=named):
            pointer_blocks(rho, g, fourier_mub(3))
    # the Kronecker reference path, through the one coupling formula under all three
    with pytest.raises(StrengthOutOfRange, match=named):
        coupling_unitary(0, bad, 2)
    with pytest.raises(StrengthOutOfRange, match=named):
        couple_and_postselect(rho, 0, bad, fourier_mub(3))
    with pytest.raises(StrengthOutOfRange, match=named):
        marginal_device_state(rho, 0, bad)
    with pytest.raises(StrengthOutOfRange):
        CouplingStrengths(1.0, bad)


def test_strengths_validate_range():
    with pytest.raises(StrengthOutOfRange):
        CouplingStrengths(0.0, 1.0)
    with pytest.raises(StrengthOutOfRange):
        CouplingStrengths(1.0, np.pi)
    # inside (0, pi) but where 1/sin g or 1/cos(g/2) is singular, and not a number
    with pytest.raises(StrengthOutOfRange):
        CouplingStrengths(1e-10, 1.0)
    with pytest.raises(StrengthOutOfRange):
        CouplingStrengths(1.0, np.pi - 1e-10)
    with pytest.raises(StrengthOutOfRange):
        CouplingStrengths(float("nan"), 1.0)
    s = CouplingStrengths(0.5, 2.0)
    assert (s.g_r, s.g_i) == (0.5, 2.0)


# ---------------------------------------------------------------- closed-form pointer table


def _reference_blocks(rho, g, bases):
    """P[n, j] and the unnormalised pointer states P[n, j] * rho_d[n, j], one n
    at a time through the Kronecker-product reference."""
    d = rho.dim
    probs = np.zeros((d, d))
    blocks = np.zeros((d, d, 2, 2), dtype=complex)
    for n in range(d):
        ens = couple_and_postselect(rho, n, g, bases)
        probs[n] = ens.probs
        for j, state in enumerate(ens.device_states):
            if state is not None:
                blocks[n, j] = ens.probs[j] * state
    return blocks, probs


def _blocks_deviation(rho, g, bases):
    blocks, probs = pointer_blocks(rho, g, bases)
    ref_blocks, ref_probs = _reference_blocks(rho, g, bases)
    return max(np.max(np.abs(blocks - ref_blocks)), np.max(np.abs(probs - ref_probs)))


def _random_unitary(d, rng):
    z = rng.normals(2 * d * d)
    q, r = np.linalg.qr((z[: d * d] + 1j * z[d * d :]).reshape(d, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("d", [2, 3, 5, 16, 32])
def test_pointer_blocks_match_kronecker_reference(d):
    # pure, full-rank and rank-deficient states over weak to strong coupling
    bases = fourier_mub(d)
    states = [
        random_pure(d, RandomStream(SEED, 700 + d)),
        random_mixed(d, d, RandomStream(SEED, 800 + d)),
        random_mixed(d, max(1, d // 2), RandomStream(SEED, 900 + d)),
    ]
    for g in (0.05, 1.0, optimal_strengths(d).g_r, np.pi / 2, 3.0):
        for rho in states:
            assert _blocks_deviation(rho, g, bases) <= 1e-14, f"d={d}, g={g}"


def test_pointer_blocks_vanishing_outcome_matches_reference():
    rho = _singular_pure_state()
    bases = fourier_mub(3)
    _, probs = pointer_blocks(rho, 0.7, bases)
    assert probs[0, 1] < 1e-15 and probs.min() >= 0.0
    for g in (0.05, 0.7, np.pi / 2, 3.0):
        assert _blocks_deviation(rho, g, bases) <= 1e-14


def test_pointer_blocks_match_reference_for_random_bases():
    # any MeasurementBases, not only the Fourier pair
    for d in (3, 16):
        bases = MeasurementBases(
            dim=d,
            a_basis=_random_unitary(d, RandomStream(SEED, 1000 + d)),
            psi_basis=_random_unitary(d, RandomStream(SEED, 1100 + d)),
        )
        for rho in (random_pure(d, RandomStream(SEED, 1200 + d)),
                    random_mixed(d, 2, RandomStream(SEED, 1300 + d))):
            for g in (0.05, 1.0, 3.0):
                assert _blocks_deviation(rho, g, bases) <= 1e-14, f"d={d}, g={g}"


def test_pointer_blocks_rejects_dimension_mismatch():
    with pytest.raises(ShapeMismatch):
        pointer_blocks(random_pure(3, RandomStream(SEED, 12)), 1.0, fourier_mub(2))


def test_non_state_is_refused_as_not_positive():
    # 1.5|psi_0><psi_0| - 0.5|psi_1><psi_1| has unit trace but a negative eigenvalue;
    # built directly, since validate_density would refuse it.
    bases = fourier_mub(2)
    psi = bases.psi_basis
    rho = DensityMatrix(2, 1.5 * np.outer(psi[:, 0], psi[:, 0].conj())
                        - 0.5 * np.outer(psi[:, 1], psi[:, 1].conj()))
    g = 0.05
    for build in (
        lambda: pointer_blocks(rho, g, bases),
        lambda: weak_values_exact(rho, bases, g),
        lambda: couple_and_postselect(rho, 0, g, bases),
        lambda: _postselected_pointers(rho, range(2), [g], bases),
    ):
        with pytest.raises(NotPositive, match=r"-4\.988e-01"):
            build()


def test_every_reader_takes_a_state_that_validate_density_accepts():
    # eigenvalues -eps, 0 and 1 + eps with eps = 5e-11, inside validate_density's tolerance:
    # at g = pi/2 one probability rounds to -3.3e-11, which every reader clamps to 0
    eps = 5e-11
    off = -1.0 - 2.0 * eps
    rho = validate_density(0.5 * np.array([[0, 0, 0], [0, 1, off], [0, off, 1]], dtype=complex))
    assert np.linalg.eigvalsh(rho.matrix)[0] < -0.9 * eps
    bases, g = fourier_mub(3), np.pi / 2
    assert pointer_blocks(rho, g, bases)[1].min() == 0.0
    assert weak_values_exact(rho, bases, g).probs.min() == 0.0
    for n in range(3):
        assert couple_and_postselect(rho, n, g, bases).probs.min() >= 0.0


STACKED_STRENGTHS = np.array([0.05, 0.6, 1.0, np.pi / 2, 2.4, 3.0])


@pytest.mark.parametrize("d", [2, 3, 5, 16, 32])
def test_pointer_blocks_over_a_stack_of_strengths_equal_the_per_g_loop_bitwise(d):
    bases = fourier_mub(d)
    states = [
        random_pure(d, RandomStream(SEED, 1900 + d)),
        random_mixed(d, d, RandomStream(SEED, 2000 + d)),
        random_mixed(d, max(1, d // 2), RandomStream(SEED, 2100 + d)),
    ]
    if d == 3:
        states.append(_singular_pure_state())
    for rho in states:
        blocks, probs = pointer_blocks(rho, STACKED_STRENGTHS, bases)
        assert blocks.shape == (len(STACKED_STRENGTHS), d, d, 2, 2)
        assert probs.shape == (len(STACKED_STRENGTHS), d, d)
        table = weak_values_exact(rho, bases, STACKED_STRENGTHS)
        for k, g in enumerate(STACKED_STRENGTHS):
            one_blocks, one_probs = pointer_blocks(rho, float(g), bases)
            assert one_blocks.shape == (d, d, 2, 2) and one_probs.shape == (d, d)
            assert np.array_equal(blocks[k], one_blocks), f"d={d}, g={g}"
            assert np.array_equal(probs[k], one_probs), f"d={d}, g={g}"
            one = weak_values_exact(rho, bases, float(g))
            assert np.array_equal(table.entries[k], one.entries)
            assert np.array_equal(table.probs[k], one.probs)
            assert np.array_equal(table.undefined[k], one.undefined)


@pytest.mark.parametrize("d", [2, 3, 5, 16, 32])
def test_weak_values_read_the_probabilities_of_the_pointer_blocks_bitwise(d):
    # weak_values_exact takes P and its numerator B from one features pass: P must be the
    # clamped trace pointer_blocks returns, and each defined entry B / P, to the last bit
    bases = fourier_mub(d)
    states = [random_pure(d, RandomStream(SEED, 2300 + d)),
              random_mixed(d, max(1, d // 2), RandomStream(SEED, 2400 + d))]
    if d == 3:
        states.append(_singular_pure_state())
    for rho in states:
        numer = _features(rho, bases)[1]
        for g in (0.7, STACKED_STRENGTHS):
            table = weak_values_exact(rho, bases, g)
            probs = pointer_blocks(rho, g, bases)[1]
            assert np.array_equal(table.probs, probs)
            assert np.array_equal(table.undefined, probs <= 1e-12)
            defined = ~table.undefined
            want = np.broadcast_to(numer, probs.shape)[defined] / probs[defined]
            assert np.array_equal(table.entries[defined], want)
            assert not table.entries[table.undefined].any()


def test_reconstruct_a_stack_of_tables_equals_one_at_a_time_bitwise():
    for d in (2, 5):
        bases = fourier_mub(d)
        rho = random_mixed(d, d, RandomStream(SEED, 2200 + d))
        rec = reconstruct(weak_values_exact(rho, bases, STACKED_STRENGTHS))
        for k, g in enumerate(STACKED_STRENGTHS):
            assert np.array_equal(rec[k], reconstruct(weak_values_exact(rho, bases, g)))
    stacked = weak_values_exact(_singular_pure_state(), fourier_mub(3), STACKED_STRENGTHS)
    with pytest.raises(UndefinedWeakValue, match=r"n=0, j=1"):
        reconstruct(stacked)


def test_a_stack_with_a_non_state_is_refused_as_not_positive():
    # the same non-state as above: g = 2.0 alone passes, the stack's g = 0.05 does not
    bases = fourier_mub(2)
    psi = bases.psi_basis
    rho = DensityMatrix(2, 1.5 * np.outer(psi[:, 0], psi[:, 0].conj())
                        - 0.5 * np.outer(psi[:, 1], psi[:, 1].conj()))
    pointer_blocks(rho, np.array([2.0]), bases)
    for build in (
        lambda: pointer_blocks(rho, np.array([2.0, 0.05]), bases),
        lambda: weak_values_exact(rho, bases, np.array([2.0, 0.05])),
    ):
        with pytest.raises(NotPositive, match=r"-4\.988e-01"):
            build()


# ---------------------------------------------------------------- stacked Kronecker reference


def _couple_and_postselect_per_n(rho, n, g, bases):
    """couple_and_postselect for one (g, n), transcribed from its per-n form with np.kron."""
    d = rho.dim
    a_n = bases.a_basis[:, n]
    proj = np.outer(a_n, a_n.conj())
    v = np.cos(g) * np.eye(2, dtype=complex) - 1j * np.sin(g) * SIGMA_X
    u = np.kron(np.eye(d, dtype=complex) - proj, np.eye(2, dtype=complex)) + np.kron(proj, v)
    joint = u @ np.kron(rho.matrix, DEVICE_ZERO) @ u.conj().T
    blocks = joint.reshape(d, 2, d, 2)
    m = np.einsum("aj,aibk,bj->jik", bases.psi_basis.conj(), blocks, bases.psi_basis)
    m = (m + np.conj(np.transpose(m, (0, 2, 1)))) / 2.0
    probs = np.einsum("jii->j", m).real
    probs = np.where(probs < 0.0, 0.0, probs)
    states = tuple(m[j] / probs[j] if probs[j] > 1e-12 else None for j in range(d))
    return ConditionalDeviceEnsemble(n=n, g=g, probs=probs, device_states=states)


def _nan_filled(ens):
    return np.array([np.full((2, 2), np.nan) if s is None else s for s in ens.device_states])


@pytest.mark.parametrize("d", [2, 3, 5, 16])
def test_stacked_reference_equals_the_per_n_path_bitwise(d):
    # one broadcast pass over strengths and couplings gives the per-(g, n) arrays exactly,
    # NaN where an outcome vanished
    gs = np.array([0.05, 1.0, np.pi / 2, 3.0])
    obs = [pointer_observables(g) for g in gs]
    sigma_r = np.array([o.sigma_r for o in obs])[:, None, None]
    sigma_i = np.array([o.sigma_i for o in obs])[:, None, None]
    fourier = fourier_mub(d)
    random_bases = MeasurementBases(
        dim=d,
        a_basis=_random_unitary(d, RandomStream(SEED, 1400 + d)),
        psi_basis=_random_unitary(d, RandomStream(SEED, 1500 + d)),
    )
    states = [
        random_pure(d, RandomStream(SEED, 1600 + d)),
        random_mixed(d, d, RandomStream(SEED, 1700 + d)),
        random_mixed(d, max(1, d // 2), RandomStream(SEED, 1800 + d)),
    ]
    cases = [(rho, bases) for rho in states for bases in (fourier, random_bases)]
    if d == 3:
        cases.append((_singular_pure_state(), fourier))
    for rho, bases in cases:
        pointers, probs = _postselected_pointers(rho, range(d), gs, bases)
        w = _read_weak_values(pointers, probs, sigma_r, sigma_i, gs[:, None, None])
        for k, g in enumerate(gs):
            for n in range(d):
                ref = _couple_and_postselect_per_n(rho, n, g, bases)
                ref_w = _readout_one_outcome_at_a_time(ref, obs[k])
                assert np.array_equal(probs[k, n], ref.probs), f"d={d}, g={g}, n={n}"
                assert np.array_equal(pointers[k, n], _nan_filled(ref), equal_nan=True)
                assert np.array_equal(w[k, n], ref_w, equal_nan=True)
                ens = couple_and_postselect(rho, n, g, bases)
                assert np.array_equal(ens.probs, ref.probs)
                assert np.array_equal(_nan_filled(ens), _nan_filled(ref), equal_nan=True)
                assert np.array_equal(weak_value_from_device(ens, obs[k]), ref_w, equal_nan=True)
    if d == 3:  # the singular state's vanished outcome (n=0, j=1) reads NaN at every strength
        assert np.isnan(w[:, 0, 1]).all() and np.isnan(w).sum() == len(gs)
