"""State utilities: validation, purity bookkeeping, random ensembles, and
the closed-form 2x2 Hermitian eigensolver."""

import re

import numpy as np
import pytest

from wvtomo import (
    DensityMatrix,
    InvalidDimension,
    InvalidRank,
    NotFinite,
    NotHermitian,
    NotPositive,
    PurityStats,
    RandomStream,
    ShapeMismatch,
    SufficientStats,
    TheoryInput,
    TraceNotOne,
    coupling_unitary,
    eig_hermitian_2x2,
    fourier_mub,
    hs_distance_sq,
    mse_hermitized_optimal,
    mse_raw_optimal,
    numeric_optimal_strengths,
    optimal_strengths,
    project_to_density,
    purity_stats,
    random_mixed,
    random_pure,
    scaled_mse_menu,
    validate_density,
)

SEED = 97031


def test_validate_accepts_maximally_mixed():
    rho = validate_density(np.eye(2) / 2)
    assert rho.dim == 2
    assert np.allclose(rho.matrix, np.eye(2) / 2)


def test_validate_accepts_pure_projector():
    rho = validate_density(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert rho.dim == 2


def test_validate_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        validate_density(np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_validate_rejects_wrong_trace():
    with pytest.raises(TraceNotOne):
        validate_density(np.eye(2))


def test_validate_rejects_negative_eigenvalue():
    with pytest.raises(NotPositive):
        validate_density(np.diag([1.5, -0.5]))


def test_validate_rejects_non_square():
    with pytest.raises(ShapeMismatch):
        validate_density(np.zeros((2, 3)))
    with pytest.raises(ShapeMismatch):
        validate_density(np.zeros(4))


def test_validate_rejects_dimension_below_two():
    with pytest.raises(InvalidDimension):
        validate_density(np.array([[1.0]]))


def test_purity_maximally_mixed():
    for d in (2, 3, 7):
        stats = purity_stats(validate_density(np.eye(d) / d))
        assert abs(stats.purity - 1.0 / d) < 1e-14
        assert abs(stats.purity_im) < 1e-30


def test_purity_pure_state_is_one():
    rho = random_pure(4, RandomStream(SEED, 0))
    stats = purity_stats(rho)
    assert abs(stats.purity - 1.0) < 1e-12


def test_purity_matches_eigenvalue_sum():
    # tr(rho^2) = sum of squared eigenvalues, independently of the
    # elementwise split used internally.
    rho = random_mixed(4, 3, RandomStream(SEED, 1))
    ev = np.linalg.eigvalsh(rho.matrix)
    stats = purity_stats(rho)
    assert abs(stats.purity - np.sum(ev**2)) < 1e-13
    assert abs(stats.purity - (stats.purity_re + stats.purity_im)) < 1e-15


def test_random_pure_reproducible():
    a = random_pure(5, RandomStream(SEED, 2))
    b = random_pure(5, RandomStream(SEED, 2))
    assert np.array_equal(a.matrix, b.matrix)


def test_random_pure_is_rank_one():
    rho = random_pure(5, RandomStream(SEED, 3))
    ev = np.linalg.eigvalsh(rho.matrix)
    assert ev[-1] > 1.0 - 1e-12
    assert abs(ev[-2]) < 1e-10


def test_random_pure_ensemble_mean_is_maximally_mixed():
    # Haar mean of |v><v| is I/d; at 1e4 draws the element-wise error sits
    # around 3e-3 (rehearsed), so 1e-2 gives a wide deterministic margin.
    acc = np.zeros((2, 2), dtype=complex)
    n = 10_000
    for i in range(n):
        acc += random_pure(2, RandomStream(SEED, 3000 + i)).matrix
    assert np.max(np.abs(acc / n - np.eye(2) / 2)) < 1e-2


def test_random_mixed_rank_one_is_pure():
    rho = random_mixed(5, 1, RandomStream(SEED, 4))
    assert abs(purity_stats(rho).purity - 1.0) < 1e-12


def test_random_mixed_full_rank_is_properly_mixed():
    rho = random_mixed(5, 5, RandomStream(SEED, 5))
    p = purity_stats(rho).purity
    assert 0.2 <= p < 1.0  # full-rank Ginibre states sit well inside the simplex


def test_random_mixed_reproducible():
    a = random_mixed(4, 2, RandomStream(SEED, 6))
    b = random_mixed(4, 2, RandomStream(SEED, 6))
    assert np.array_equal(a.matrix, b.matrix)


def test_random_mixed_rejects_bad_rank():
    with pytest.raises(InvalidRank):
        random_mixed(3, 0, RandomStream(SEED, 7))
    with pytest.raises(InvalidRank):
        random_mixed(3, 4, RandomStream(SEED, 7))


def test_random_generators_reject_dimension_below_two():
    with pytest.raises(InvalidDimension):
        random_pure(1, RandomStream(SEED, 8))
    with pytest.raises(InvalidDimension):
        random_mixed(1, 1, RandomStream(SEED, 8))


def test_random_draws_are_valid_states():
    k = 0
    for d in range(2, 9):
        for rank in range(1, d + 1):
            for _ in range(4):
                rho = random_mixed(d, rank, RandomStream(SEED, 100 + k))
                k += 1
                stats = purity_stats(rho)
                assert 1.0 / d - 1e-12 <= stats.purity <= 1.0 + 1e-12
                assert abs(np.trace(rho.matrix) - 1.0) < 1e-12


def test_hs_distance_zero_and_symmetry():
    a = random_mixed(3, 2, RandomStream(SEED, 9)).matrix
    b = random_mixed(3, 3, RandomStream(SEED, 10)).matrix
    assert hs_distance_sq(a, a) == 0.0
    assert abs(hs_distance_sq(a, b) - hs_distance_sq(b, a)) < 1e-16


def test_hs_distance_hand_value():
    # |0><0| vs |1><1| differ in two diagonal entries by 1 each.
    assert abs(hs_distance_sq(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) - 2.0) < 1e-15


def test_hs_distance_matches_elementwise_loop():
    a = random_mixed(4, 4, RandomStream(SEED, 11)).matrix
    b = random_mixed(4, 2, RandomStream(SEED, 12)).matrix
    acc = 0.0
    for i in range(4):
        for j in range(4):
            acc += abs(a[i, j] - b[i, j]) ** 2
    assert abs(hs_distance_sq(a, b) - acc) < 1e-15


def test_hs_distance_rejects_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        hs_distance_sq(np.eye(2), np.eye(3))


def test_hs_distance_on_a_stack_is_each_distance():
    stack = np.stack([random_mixed(4, 1 + k, RandomStream(SEED, 13 + k)).matrix for k in range(3)])
    b = random_mixed(4, 4, RandomStream(SEED, 16)).matrix
    got = hs_distance_sq(stack, b)
    assert got.shape == (3,)
    assert all(got[k] == hs_distance_sq(stack[k], b) for k in range(3))
    with pytest.raises(ShapeMismatch):
        hs_distance_sq(stack, np.eye(3))
    with pytest.raises(ShapeMismatch):
        hs_distance_sq(np.zeros((3, 2, 4)), b)


@pytest.mark.parametrize("d", [2, 3, 5, 16, 32])
def test_projection_leaves_a_state_unchanged(d):
    for rho in (random_pure(d, RandomStream(SEED, 1000 + d)),
                random_mixed(d, max(1, d // 2), RandomStream(SEED, 1100 + d)),
                random_mixed(d, d, RandomStream(SEED, 1200 + d))):
        assert np.max(np.abs(project_to_density(rho.matrix).matrix - rho.matrix)) < 1e-12


def test_projection_hand_value():
    # eigenvalues (0.7, 0.5, -0.2) shift down by 0.1 onto the simplex: (0.6, 0.4, 0)
    u = np.linalg.qr(np.arange(9.0).reshape(3, 3) + 1j * np.eye(3) + 2.0)[0]
    m = u @ np.diag([0.7, 0.5, -0.2]) @ u.conj().T
    want = u @ np.diag([0.6, 0.4, 0.0]) @ u.conj().T
    assert np.max(np.abs(project_to_density(m).matrix - want)) < 1e-14


def test_projection_is_nearest_state_to_a_non_physical_matrix():
    # A noisy non-Hermitian matrix with trace != 1.  The projection P of its
    # Hermitian part H onto the convex set of states is the nearest state iff
    # Re tr((H - P)(sigma - P)) <= 0 for every state sigma.
    d = 4
    z = RandomStream(SEED, 1300).normals(2 * d * d)
    noise = (z[: d * d] + 1j * z[d * d :]).reshape(d, d)
    m = random_mixed(d, 2, RandomStream(SEED, 1301)).matrix + 0.3 * noise
    proj = project_to_density(m)
    assert isinstance(proj, DensityMatrix)
    herm = (m + m.conj().T) / 2
    assert np.array_equal(proj.matrix, project_to_density(herm).matrix)
    assert np.linalg.eigvalsh(herm)[0] < -0.1  # not a state to begin with
    for k in range(200):
        sigma = random_mixed(d, 1 + k % d, RandomStream(SEED, 1400 + k)).matrix
        assert np.trace((herm - proj.matrix) @ (sigma - proj.matrix)).real < 1e-12


def test_eig2x2_sigma_z():
    evals, evecs = eig_hermitian_2x2(np.diag([1.0, -1.0]))
    assert np.array_equal(evals, [-1.0, 1.0])
    # ascending order: first column belongs to -1, i.e. |1>
    assert abs(abs(evecs[1, 0]) - 1.0) < 1e-15
    assert abs(abs(evecs[0, 1]) - 1.0) < 1e-15


def test_eig2x2_sigma_x_up_to_phase():
    evals, evecs = eig_hermitian_2x2(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(evals, [-1.0, 1.0])
    for k, target in ((0, np.array([1.0, -1.0]) / np.sqrt(2)), (1, np.array([1.0, 1.0]) / np.sqrt(2))):
        v = evecs[:, k]
        overlap = abs(np.vdot(target, v))
        assert abs(overlap - 1.0) < 1e-12


def test_eig2x2_pointer_observable_closed_form():
    """sigma_R at strength g has eigenvalues (g/sin g)(-t -+ sqrt(t^2+1)), t = tan(g/2)."""
    from wvtomo import pointer_observables

    g = 1.0
    obs = pointer_observables(g)
    evals, evecs = eig_hermitian_2x2(obs.sigma_r)
    t = np.tan(g / 2)
    pred = (g / np.sin(g)) * np.array([-t - np.hypot(t, 1.0), -t + np.hypot(t, 1.0)])
    assert np.max(np.abs(evals - pred)) < 1e-12
    resynth = (evecs * evals) @ evecs.conj().T
    assert np.max(np.abs(resynth - obs.sigma_r)) < 1e-10


def test_eig2x2_random_resynthesis():
    # includes near-diagonal and near-degenerate draws through sheer volume
    rng = RandomStream(SEED, 13)
    for _ in range(200):
        z = rng.normals(4)
        m = np.array([[z[0], z[2] - 1j * z[3]], [z[2] + 1j * z[3], z[1]]])
        evals, evecs = eig_hermitian_2x2(m)
        assert evals[0] <= evals[1]
        assert np.max(np.abs(evecs.conj().T @ evecs - np.eye(2))) < 1e-12
        assert np.max(np.abs((evecs * evals) @ evecs.conj().T - m)) < 1e-12


def test_eig2x2_diagonal_branches():
    evals, evecs = eig_hermitian_2x2(np.diag([2.0, 0.0]))  # z > 0: columns swapped
    assert np.array_equal(evals, [0.0, 2.0])
    assert np.max(np.abs((evecs * evals) @ evecs.conj().T - np.diag([2.0, 0.0]))) < 1e-15

    evals, evecs = eig_hermitian_2x2(np.diag([0.0, 2.0]))  # z < 0: identity columns
    assert np.array_equal(evals, [0.0, 2.0])
    assert np.array_equal(evecs, np.eye(2, dtype=complex))

    evals, evecs = eig_hermitian_2x2(1.5 * np.eye(2))  # degenerate
    assert np.array_equal(evals, [1.5, 1.5])
    assert np.array_equal(evecs, np.eye(2, dtype=complex))


def test_eig2x2_rejects_bad_input():
    with pytest.raises(ShapeMismatch):
        eig_hermitian_2x2(np.eye(3))
    with pytest.raises(NotHermitian):
        eig_hermitian_2x2(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_entries_are_rejected_by_value(bad):
    # checked before any arithmetic: `deviation > tol` is False for NaN, and inf - inf
    # warns; the message names the first bad entry and its value
    named = re.escape(f"= ({bad}+0j)")
    for m in (np.full((2, 2), bad), np.array([[0.5, bad], [bad, 0.5]])):
        with pytest.raises(NotFinite, match=named):
            validate_density(m)
        with pytest.raises(NotFinite, match=named):
            project_to_density(m)
    with pytest.raises(NotFinite, match=re.escape(f"entry [0, 0] = ({bad}+0j)")):
        eig_hermitian_2x2(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_density_matrix_is_frozen():
    rho = validate_density(np.eye(2) / 2)
    with pytest.raises(AttributeError):
        rho.dim = 3


# Every library entry that takes the system dimension d, called at d.
DIMENSION_ENTRIES = {
    "fourier_mub": fourier_mub,
    "coupling_unitary": lambda d: coupling_unitary(0, 1.0, d),
    "validate_density": lambda d: validate_density(np.eye(d)),
    "random_pure": lambda d: random_pure(d, RandomStream(SEED, 9)),
    "random_mixed": lambda d: random_mixed(d, 1, RandomStream(SEED, 9)),
    "optimal_strengths": optimal_strengths,
    "numeric_optimal_strengths": numeric_optimal_strengths,
    "scaled_mse_menu": lambda d: scaled_mse_menu(d, 1.0, 1.0, 0.0),
    "mse_raw_optimal": lambda d: mse_raw_optimal(d, 10, 1.0),
    "mse_hermitized_optimal": lambda d: mse_hermitized_optimal(d, 1, 1.0, 0.0),
    "SufficientStats": lambda d: SufficientStats(10, np.zeros((d, d)), np.zeros((d, d))),
    "TheoryInput": lambda d: TheoryInput(d, optimal_strengths(2), 10, PurityStats(1.0, 1.0, 0.0)),
}
# validate_density reads d off the matrix it is given, so its case is the 1x1 matrix, and
# SufficientStats off its (d, d) tables, which no d = -1 can shape.
DIMENSION_CASES = [(name, d) for name in DIMENSION_ENTRIES for d in (1, 0, -1)
                   if d == 1 or name != "validate_density"
                   if d >= 0 or name != "SufficientStats"]


@pytest.mark.parametrize("name, d", DIMENSION_CASES, ids=[f"{n}-{d}" for n, d in DIMENSION_CASES])
def test_every_entry_refuses_a_dimension_below_two_in_the_same_words(name, d):
    with pytest.raises(InvalidDimension, match=rf"^system dimension must be >= 2, got {d}$"):
        DIMENSION_ENTRIES[name](d)


# The entries handed d itself; validate_density and SufficientStats read it off an array shape.
TAKEN_DIMENSION = [name for name in DIMENSION_ENTRIES
                   if name not in ("validate_density", "SufficientStats")]


@pytest.mark.parametrize("d", [True, 3.0, 3.5, np.float64(4.0), np.int64(3)],
                         ids=["True", "3.0", "3.5", "float64-4", "int64-3"])
@pytest.mark.parametrize("name", TAKEN_DIMENSION)
def test_every_entry_refuses_a_dimension_that_is_not_an_integer(name, d):
    # optimal_strengths(3.5) once returned numbers and fourier_mub(3.0) raised a bare
    # TypeError: a dimension that is not an integer is refused by name; a numpy integer is one.
    if isinstance(d, np.integer):
        DIMENSION_ENTRIES[name](d)
        return
    message = f"system dimension must be an integer, got {d!r}"
    with pytest.raises(InvalidDimension, match=f"^{re.escape(message)}$"):
        DIMENSION_ENTRIES[name](d)
