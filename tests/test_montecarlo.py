"""Shot-level sampling, sufficient statistics, the end-to-end experiment
driver, and the exact MSE oracle, which propagates exact per-shot covariances."""

import functools
import itertools
import math
import re
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from wvtomo import (
    CouplingStrengths,
    DensityMatrix,
    IncompleteStats,
    InvalidDimension,
    NotPositive,
    OutcomeDistribution,
    RandomStream,
    StrengthOutOfRange,
    ShapeMismatch,
    SufficientStats,
    TheoryInput,
    assemble_estimate,
    couple_and_postselect,
    eig_hermitian_2x2,
    estimate_pw,
    exact_mse_oracle,
    fourier_mub,
    hs_distance_sq,
    mse_hermitized,
    mse_hermitized_exact,
    mse_hermitized_optimal,
    mse_raw,
    mse_raw_optimal,
    optimal_strengths,
    outcome_distribution,
    pointer_observables,
    project_to_density,
    purity_stats,
    random_mixed,
    random_pure,
    run_experiment,
    sample_shots,
    validate_density,
)
from wvtomo.montecarlo import (
    BATCH_ELEMENTS, QUADRATURES, SUMS_ELEMENTS, MseReport, _batch_errors, _oracle,
    _quadrature_law, _sample_stats, outcome_table, run_sweep, simulate_once,
)
from wvtomo.protocol import _features, _postselected_pointers, pointer_blocks, reconstruction_map

SEED = 20240814  # shared with the acceptance suite; statistical bounds rehearsed once


def _config_laws(rho, strengths, bases):
    """The 2d per-configuration laws, n ascending, R before I within each n."""
    gs = {"R": strengths.g_r, "I": strengths.g_i}
    return [outcome_distribution(rho, n, q, gs[q], bases)
            for n in range(rho.dim) for q in QUADRATURES]


def stats_of(dists, n_shots, sums_of):
    """The SufficientStats of the per-configuration laws `dists`, row n of each quadrature's
    table the (d,) sums `sums_of(dist)`, taken in the order of `dists`.  The tables start
    NaN, so a configuration that `dists` misses is refused when the record is built."""
    d = len(dists[0].probs) // 2
    tables = {q: np.full((d, d), np.nan) for q in QUADRATURES}
    for dist in dists:
        tables[dist.quadrature][dist.n] = sums_of(dist)
    return SufficientStats(n_shots, tables["R"], tables["I"])


def _exact_sums(rho, strengths, n_shots):
    """Sufficient statistics filled with exact expectations instead of samples."""
    return stats_of(_config_laws(rho, strengths, fourier_mub(rho.dim)), n_shots,
                    lambda dist: n_shots * (dist.probs * dist.values).reshape(-1, 2).sum(axis=1))


# ---------------------------------------------------------------- outcome law


def test_outcome_distribution_normalized():
    rho = random_mixed(3, 2, RandomStream(SEED, 20))
    dist = outcome_distribution(rho, 1, "R", 0.9, fourier_mub(3))
    assert abs(dist.probs.sum() - 1.0) < 1e-15
    assert dist.probs.min() >= 0.0
    assert dist.probs.shape == (6,)


def test_outcome_distribution_j_marginal_uniform_for_mixed():
    d = 4
    rho = validate_density(np.eye(d) / d)
    dist = outcome_distribution(rho, 2, "I", 1.4, fourier_mub(d))
    marg = dist.probs.reshape(d, 2).sum(axis=1)
    assert np.max(np.abs(marg - 1.0 / d)) < 1e-14


def test_outcome_distribution_expectation_identity():
    # sum_k p(j,k) lambda_k must equal P_j tr(rho_d^(j) sigma) for both
    # quadratures: the enumerated law carries the device expectations.
    rho = random_mixed(3, 3, RandomStream(SEED, 21))
    g, n = 1.1, 0
    bases = fourier_mub(3)
    obs = pointer_observables(g)
    ens = couple_and_postselect(rho, n, g, bases)
    for quadrature, sigma in (("R", obs.sigma_r), ("I", obs.sigma_i)):
        dist = outcome_distribution(rho, n, quadrature, g, bases)
        got = (dist.probs * dist.values).reshape(3, 2).sum(axis=1)
        want = np.array(
            [ens.probs[j] * np.trace(ens.device_states[j] @ sigma).real for j in range(3)]
        )
        assert np.max(np.abs(got - want)) < 1e-13


def test_outcome_distribution_eigenvalues_ascending_per_outcome():
    rho = random_pure(2, RandomStream(SEED, 22))
    dist = outcome_distribution(rho, 0, "R", 0.7, fourier_mub(2))
    v = dist.values.reshape(2, 2)
    assert (v[:, 0] <= v[:, 1]).all()


def test_outcome_distribution_rejects_bad_inputs():
    rho = random_pure(2, RandomStream(SEED, 23))
    with pytest.raises(ValueError):
        outcome_distribution(rho, 0, "X", 1.0, fourier_mub(2))
    with pytest.raises(StrengthOutOfRange):
        outcome_distribution(rho, 0, "R", 1e-12, fourier_mub(2))


# ---------------------------------------------------------------- sampling


def test_a_non_state_is_refused_on_the_sampler_path():
    # 1.5|psi_0><psi_0| - 0.5|psi_1><psi_1|, the non-state the exact readers refuse: the
    # sampler's laws, the oracle and the experiment refuse it too instead of clamping it
    bases = fourier_mub(2)
    psi = bases.psi_basis
    rho = DensityMatrix(2, 1.5 * np.outer(psi[:, 0], psi[:, 0].conj())
                        - 0.5 * np.outer(psi[:, 1], psi[:, 1].conj()))
    strengths = CouplingStrengths(0.05, 1.0)
    for build in (
        lambda: outcome_table(rho, strengths, bases, 10),
        lambda: outcome_distribution(rho, 0, "R", strengths.g_r, bases),
        lambda: exact_mse_oracle(rho, strengths, 10),
        lambda: run_experiment(rho, strengths, 10, 2, SEED),
    ):
        with pytest.raises(NotPositive):
            build()


def test_sample_shots_concentrated_distribution():
    dist = OutcomeDistribution(
        n=0, quadrature="R", g=1.0,
        probs=np.array([1.0, 0.0, 0.0, 0.0]),
        values=np.array([2.5, -1.0, 0.25, 3.0]),
    )
    # 1000 shots draw a multinomial, 3 shots (fewer than the 4 outcomes) draw shot by shot
    for n_shots in (1000, 3):
        sums = sample_shots(dist, n_shots, RandomStream(SEED, 24))
        assert np.array_equal(sums, [2.5 * n_shots, 0.0])


def test_sample_shots_reproducible():
    rho = random_mixed(3, 2, RandomStream(SEED, 25))
    dist = outcome_distribution(rho, 1, "I", 1.2, fourier_mub(3))
    a = sample_shots(dist, 500, RandomStream(SEED, 26))
    b = sample_shots(dist, 500, RandomStream(SEED, 26))
    assert np.array_equal(a, b)


def test_sample_shots_moments():
    # per-j sums/N estimate sum_k p(j,k) lambda_k; at N = 1e6 the rehearsed
    # worst deviation was 1.9 stderr, bound at 5.
    d = 3
    rho = random_mixed(d, 2, RandomStream(SEED, 11))
    dist = outcome_distribution(rho, 0, "R", optimal_strengths(d).g_r, fourier_mub(d))
    n = 1_000_000
    sums = sample_shots(dist, n, RandomStream(SEED, 12))
    p = dist.probs.reshape(d, 2)
    v = dist.values.reshape(d, 2)
    m1 = (p * v).sum(axis=1)
    var = (p * v * v).sum(axis=1) - m1**2
    z = np.abs(sums / n - m1) / np.sqrt(var / n)
    assert z.max() < 5.0


def test_sample_shots_rejects_zero_shots():
    rho = random_pure(2, RandomStream(SEED, 27))
    dist = outcome_distribution(rho, 0, "R", 1.0, fourier_mub(2))
    with pytest.raises(ValueError):
        sample_shots(dist, 0, RandomStream(SEED, 28))


@pytest.mark.parametrize("sampler", ["sample_shots", "simulate_once"])
def test_sample_shots_memory_does_not_grow_with_shots(sampler):
    # one count per outcome, not one index per shot: a per-shot draw of
    # 1e6 shots holds about 24 MB.  With every pointer value 1 the per-j sums
    # are the outcome counts, so at g_R = g_I = 1 each raw diagonal entry of
    # simulate_once's estimate is (-N_R + i N_I) / 2N, where N_R and N_I are
    # the shots drawn in that row's two configurations: both must be N.
    d, n = 4, 1_000_000
    rho = random_mixed(d, 2, RandomStream(SEED, 38))
    bases = fourier_mub(d)
    if sampler == "sample_shots":
        dist = replace(outcome_distribution(rho, 1, "R", 1.0, bases), values=np.ones(2 * d))
        draw = lambda stream: sample_shots(dist, n, stream)
    else:
        table = outcome_table(rho, CouplingStrengths(1.0, 1.0), bases, n)
        table = replace(table, laws=tuple((rows, np.ones_like(values))
                                          for rows, values in table.laws))
        draw = lambda stream: simulate_once(table, stream)
    stream = RandomStream(SEED, 39)
    tracemalloc.start()
    try:
        out = draw(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, f"sampler peaked at {peak} B"
    if sampler == "sample_shots":
        assert out.sum() == n
    else:
        assert np.array_equal(np.rint(2 * n * out.raw.diagonal()), np.full(d, -n + 1j * n))


@pytest.mark.parametrize("func, args", [
    (exact_mse_oracle, (-5,)),
    (exact_mse_oracle, (0,)),
    (run_experiment, (10, 0, SEED)),
    (run_experiment, (0, 2, SEED)),
], ids=["oracle-negative-shots", "oracle-zero-shots", "zero-reps", "zero-shots"])
def test_counts_below_one_rejected(func, args):
    rho = random_pure(2, RandomStream(SEED, 40))
    with pytest.raises(ValueError, match=">= 1"):
        func(rho, optimal_strengths(2), *args)


# Every entry that takes a shot or repetition count, as (what it calls the count, call).
_COUNTED = {
    "run_experiment": ("shot", lambda rho, s, c: run_experiment(rho, s, c, 20, SEED)),
    "run_sweep-reps": ("repetition", lambda rho, s, c: run_sweep(rho, [s], 10, c, SEED)),
    "run_sweep-shots": ("shot", lambda rho, s, c: run_sweep(rho, [s], c, 20, SEED)),
    "outcome_table": ("shot", lambda rho, s, c: outcome_table(rho, s, fourier_mub(rho.dim), c)),
    "OutcomeTable": ("shot", lambda rho, s, c: replace(
        outcome_table(rho, s, fourier_mub(rho.dim), 10), shots=c)),
    "simulate_once": ("shot", lambda rho, s, c: simulate_once(
        outcome_table(rho, s, fourier_mub(rho.dim), c), RandomStream(SEED, 44))),
    "sample_shots": ("shot", lambda rho, s, c: sample_shots(
        outcome_distribution(rho, 0, "R", s.g_r, fourier_mub(rho.dim)), c,
        RandomStream(SEED, 44))),
    "exact_mse_oracle": ("shot", lambda rho, s, c: exact_mse_oracle(rho, s, c)),
    "SufficientStats": ("shot", lambda rho, s, c: SufficientStats(
        c, np.zeros((rho.dim,) * 2), np.zeros((rho.dim,) * 2))),
    "TheoryInput": ("shot", lambda rho, s, c: TheoryInput(
        dim=rho.dim, strengths=s, shots=c, purity=purity_stats(rho))),
    "mse_raw_optimal": ("shot", lambda rho, s, c: mse_raw_optimal(rho.dim, c, 0.5)),
    "mse_hermitized_optimal": ("shot", lambda rho, s, c: mse_hermitized_optimal(
        rho.dim, c, 0.3, 0.2)),
    "mse_hermitized_exact": ("shot", lambda rho, s, c: mse_hermitized_exact(rho, s, c)),
}


@pytest.mark.parametrize("count", [10.5, 2.5, True, np.float64(10.0), np.int64(10)],
                         ids=["10.5", "2.5", "True", "float64-10", "int64-10"])
@pytest.mark.parametrize("entry", list(_COUNTED))
def test_counts_must_be_integers(entry, count):
    # numpy would draw 10 shots a row at N=10.5 while the estimator, theory and oracle read
    # 10.5, so a count that is not an integer is refused by name; a numpy integer is one.
    what, call = _COUNTED[entry]
    rho = random_mixed(3, 3, RandomStream(SEED, 43))
    if isinstance(count, np.integer):
        call(rho, optimal_strengths(3), count)
        return
    message = f"{what} count must be an integer, got {count!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(rho, optimal_strengths(3), count)


@pytest.mark.parametrize("d", [2, 5, 32])
def test_stacked_draw_equals_per_configuration_draws(d):
    # simulate_once draws each quadrature's d configurations in one multinomial call; it
    # must reproduce, bit for bit, sample_shots run on each configuration in n ascending
    # order, the R configurations on the same stream and the I ones on its twin
    rho = random_mixed(d, max(1, d // 2), RandomStream(SEED, 41))
    strengths = optimal_strengths(d)
    bases = fourier_mub(d)
    table = outcome_table(rho, strengths, bases, 1)
    dists = _config_laws(rho, strengths, bases)
    for k, n_shots in enumerate((1, 100, 1_000_000)):
        stream = RandomStream(SEED, 42 + k)
        stats = stats_of(dists, n_shots, lambda dist: sample_shots(
            dist, n_shots, stream if dist.quadrature == "R" else stream.twin))
        want = assemble_estimate(estimate_pw(stats, strengths), bases)
        got = simulate_once(replace(table, shots=n_shots), RandomStream(SEED, 42 + k))
        assert np.array_equal(got.raw, want.raw), f"N={n_shots}"
        assert np.array_equal(got.hermitized, want.hermitized), f"N={n_shots}"


def test_outcome_table_rows_are_the_per_configuration_laws():
    _check_rows_are_the_per_configuration_laws(3)


@pytest.mark.parametrize("d", [2, 5, 32])
def test_outcome_table_rows_are_the_per_configuration_laws_in_dimension(d):
    _check_rows_are_the_per_configuration_laws(d)


def _check_rows_are_the_per_configuration_laws(d):
    rho = random_mixed(d, 2, RandomStream(SEED, 45))
    strengths = CouplingStrengths(0.8, 2.1)
    bases = fourier_mub(d)
    table = outcome_table(rho, strengths, bases, 10)
    assert table.strengths is strengths and table.bases is bases
    assert len(table.laws) == 2
    for (rows, values), (quadrature, g) in zip(table.laws, (("R", 0.8), ("I", 2.1))):
        probs = rows.pvals.reshape(d, d, 2)
        assert probs.shape == (d, d, 2) and values.shape == (2,)
        assert np.max(np.abs(probs.sum(axis=(1, 2)) - 1.0)) < 1e-15
        for n in range(d):
            dist = outcome_distribution(rho, n, quadrature, g, bases)
            assert np.array_equal(probs[n].ravel(), dist.probs)
            assert np.array_equal(np.tile(values, d), dist.values)


def test_a_tables_laws_are_read_only_where_they_are_built():
    # A sweep's law cache hands one law to every step's table, and a law's rows hold its
    # probs uncopied beside the CDF table a per-shot draw built from them, so a write into
    # a law after that draw would have the two branches draw different laws.
    d = 5
    rho = random_mixed(d, 2, RandomStream(SEED, 45))
    table = outcome_table(rho, optimal_strengths(d), fourier_mub(d), 3)
    simulate_once(table, RandomStream(SEED, 45))  # N < 2d: the per-shot draw
    for rows, values in table.laws:
        probs = rows.pvals.reshape(d, d, 2)
        assert "cdf" in vars(rows) and np.shares_memory(rows.pvals, probs)
        for law in (probs, values, rows.pvals):
            with pytest.raises(ValueError, match="read-only"):
                law[(0,) * law.ndim] = 0.5


def _singular_pure_state():
    """d=3 pure state whose post-selection outcome (n=0, j=1) has probability zero."""
    v = np.array([0.0, 1.0, -np.exp(-2j * np.pi / 3)]) / np.sqrt(2)
    return validate_density(np.outer(v, v.conj()))


def _quadrature_law_by_einsum(blocks, quadrature, g):
    """_quadrature_law as the three-operand einsum <v_k|M[n, j]|v_k> over the pointer blocks."""
    obs = pointer_observables(g)
    evals, evecs = eig_hermitian_2x2(obs.sigma_r if quadrature == "R" else obs.sigma_i)
    probs = np.einsum("ik,njil,lk->njk", evecs.conj(), blocks, evecs).real
    probs = np.maximum(probs, 0.0)
    probs /= probs.sum(axis=(1, 2), keepdims=True)
    return probs, evals


@pytest.mark.parametrize("d", [2, 3, 5, 16, 32])
def test_quadrature_law_equals_the_einsum_over_pointer_blocks(d):
    # the Born rule over the pointer parts reads the same law as the einsum over the
    # stacked blocks, to rounding
    bases = fourier_mub(d)
    states = [
        random_pure(d, RandomStream(SEED, 46 + d)),
        random_mixed(d, d, RandomStream(SEED, 86 + d)),
        random_mixed(d, max(1, d // 2), RandomStream(SEED, 126 + d)),
    ]
    if d == 3:
        states.append(_singular_pure_state())
    gs = (0.05, 0.6, 1.3, optimal_strengths(d).g_r, np.pi / 2, 2.4, 3.0)
    for rho in states:
        features = _features(rho, bases)
        for g in gs:
            blocks, _ = pointer_blocks(rho, g, bases)
            for quadrature in ("R", "I"):
                got = _quadrature_law(features, quadrature, g)
                want = _quadrature_law_by_einsum(blocks, quadrature, g)
                got_probs = got[0].pvals.reshape(d, d, 2)
                assert np.max(np.abs(got_probs - want[0])) < 1e-15, f"d={d}, g={g}, {quadrature}"
                assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("d", [2, 3, 5, 16, 32])
def test_outcome_table_is_the_kronecker_law_outcome_by_outcome(d):
    # p[n, j, k] = P_nj <v_k|rho_d[n, j]|v_k> in each quadrature, the post-selected pointer
    # states built from the full 2d x 2d unitary and joint state; a vanished outcome is
    # exactly 0.
    # The one check of the table that shares no code with `_pointer_parts`.
    bases = fourier_mub(d)
    states = [random_mixed(d, d, RandomStream(SEED, 206 + d))]
    strength_pairs = [optimal_strengths(d)]
    if d < 32:  # d=32 builds 64 x 64 joint states: one full-rank state, optimal strengths
        states += [
            random_pure(d, RandomStream(SEED, 166 + d)),
            random_mixed(d, max(1, d // 2), RandomStream(SEED, 246 + d)),
        ]
        strength_pairs += [CouplingStrengths(0.05, 3.0), CouplingStrengths(2.4, 0.6)]
    if d == 3:
        states.append(_singular_pure_state())
    for rho in states:
        for strengths in strength_pairs:
            laws = outcome_table(rho, strengths, bases, 10).laws
            gs = (strengths.g_r, strengths.g_i)
            pointers, p_post = _postselected_pointers(rho, range(d), gs, bases)
            for q, quadrature in enumerate(QUADRATURES):
                obs = pointer_observables(gs[q])
                _, evecs = eig_hermitian_2x2(obs.sigma_r if quadrature == "R" else obs.sigma_i)
                # <v_k|rho_d|v_k> for every (n, j, k)
                read = np.einsum("ik,njil,lk->njk", evecs.conj(), pointers[q], evecs).real
                want = p_post[q][..., None] * read
                defined = np.isfinite(want)
                probs = laws[q][0].pvals.reshape(d, d, 2)
                assert np.max(np.abs(probs[defined] - want[defined])) < 1e-14
                assert np.all(probs[~defined] == 0.0), f"d={d}, {strengths}"
    if d == 3:  # the singular state's outcome (n=0, j=1) vanished, so it is never drawn
        _, p_post = _postselected_pointers(states[-1], [0], [1.0], bases)
        assert p_post[0, 0, 1] <= 1e-12
        laws = outcome_table(states[-1], CouplingStrengths(1.0, 1.0), bases, 10).laws
        assert np.array_equal([rows.pvals.reshape(d, d, 2)[0, 1] for rows, _ in laws],
                              np.zeros((2, 2)))


@pytest.mark.parametrize("d", [2, 5, 32])
def test_eigenvalue_sums_from_the_count_slices_equal_the_summed_product_bitwise(d):
    # _sample_stats adds the two eigenvalue slices of the counts; the reference multiplies
    # the counts by the eigenvalues and sums over k, on the same draws: each quadrature's
    # stack of d rows, R from the stream and I from its twin
    rho = random_mixed(d, max(1, d // 2), RandomStream(SEED, 47))
    table = outcome_table(rho, optimal_strengths(d), fourier_mub(d), 1)
    count = max(1, BATCH_ELEMENTS // d**2)
    for k, n_shots in enumerate((1, 100, 1_000_000)):
        stream = RandomStream(SEED, 48 + k)
        want = []
        for (law, values), source in zip(table.laws, (stream, stream.twin)):
            rows = law.pvals
            counts = source.multinomial(n_shots, np.broadcast_to(rows, (count, *rows.shape)))
            want.append((counts.reshape(count, d, d, 2) * values).sum(axis=-1))
        stats = _sample_stats(replace(table, shots=n_shots), RandomStream(SEED, 48 + k), count)
        assert stats.sums_r.shape == (count, d, d)
        assert np.array_equal(stats.sums_r, want[0]), f"N={n_shots}"
        assert np.array_equal(stats.sums_i, want[1]), f"N={n_shots}"


# ---------------------------------------------------------------- estimator


def test_estimate_pw_unbiased_at_exact_expectations():
    # Feeding exact expectations recovers P_j W_nj — the g-independent
    # numerator <psi_j|a_n><a_n|rho|psi_j> — even with g_R != g_I.
    d = 3
    rho = random_mixed(d, 3, RandomStream(SEED, 29))
    strengths = CouplingStrengths(0.8, 2.1)
    bases = fourier_mub(d)
    pw = estimate_pw(_exact_sums(rho, strengths, 10), strengths)
    overlaps = bases.overlaps()
    for n in range(d):
        a_n = bases.a_basis[:, n]
        beta = overlaps[:, n] * ((a_n.conj() @ rho.matrix) @ bases.psi_basis)
        assert np.max(np.abs(pw[n] - beta)) < 1e-10


def test_sufficient_stats_is_a_frozen_record_of_shots_and_two_tables():
    # d is read off the tables, and the tables are the caller's own arrays, not copies
    sums = np.arange(9.0).reshape(3, 3)
    stats = SufficientStats(10, sums, -sums)
    assert [f.name for f in fields(stats)] == ["shots", "sums_r", "sums_i"]
    assert stats.sums_r is sums
    with pytest.raises(FrozenInstanceError):
        stats.shots = 20


def test_sufficient_stats_refuses_a_nan_sum():
    # a NaN sum is a configuration that was not drawn: refused when the record is built, so
    # estimate_pw never sees one
    rho = random_mixed(2, 1, RandomStream(SEED, 33))
    dists = _config_laws(rho, optimal_strengths(2), fourier_mub(2))
    for missing in range(len(dists)):
        with pytest.raises(IncompleteStats, match="missing one or more"):
            stats_of(dists[:missing] + dists[missing + 1:], 10, lambda dist: np.zeros(2))
    sums = np.zeros((2, 3, 3))
    sums[1, 2, 0] = np.nan
    with pytest.raises(IncompleteStats):
        SufficientStats(10, np.zeros((2, 3, 3)), sums)


def test_sufficient_stats_refuses_no_shots():
    # with N = 0 estimate_pw would divide by zero: NaN estimates and RuntimeWarnings
    with pytest.raises(ValueError, match=r"^shot count must be >= 1, got 0$"):
        SufficientStats(0, np.zeros((2, 2)), np.zeros((2, 2)))


def test_sufficient_stats_refuses_a_dimension_below_two():
    # d = 0 gives empty tables, which hold no NaN
    with pytest.raises(InvalidDimension, match=r"^system dimension must be >= 2, got 0$"):
        SufficientStats(10, np.zeros((0, 0)), np.zeros((0, 0)))


@pytest.mark.parametrize("sums_r, sums_i", [
    (np.zeros(2), np.zeros(2)),
    (np.zeros((3, 3)), np.zeros((3, 1))),
    (np.zeros((2, 3)), np.zeros((2, 3))),
    (np.zeros((3, 3)), np.zeros((2, 2))),
    (np.zeros((4, 3, 3)), np.zeros((3, 3))),
    (5.0, 5.0),
], ids=["one-dimensional", "one-sum-for-every-j", "not-square", "unequal", "unequal-stacks",
        "scalar"])
def test_sufficient_stats_refuses_mis_shaped_sums(sums_r, sums_i):
    # each would build a pw table that estimate_pw broadcasts and assemble_estimate then
    # fails on with numpy's own error, or a table of no system at all
    with pytest.raises(ShapeMismatch, match=r"^sums must be two \(\.\.\., d, d\) tables"):
        SufficientStats(10, sums_r, sums_i)


def test_assemble_estimate_exact_inputs_recover_state():
    d = 4
    rho = random_mixed(d, 2, RandomStream(SEED, 30))
    strengths = CouplingStrengths(1.0, 1.5)
    bases = fourier_mub(d)
    pw = estimate_pw(_exact_sums(rho, strengths, 5), strengths)
    est = assemble_estimate(pw, bases)
    assert np.max(np.abs(est.raw - rho.matrix)) < 1e-10
    assert np.max(np.abs(est.hermitized - rho.matrix)) < 1e-10


def test_assemble_estimate_hermitized_properties():
    d = 3
    rho = random_mixed(d, 3, RandomStream(SEED, 31))
    strengths = optimal_strengths(d)
    bases = fourier_mub(d)
    stream = RandomStream(SEED, 32)
    stats = stats_of(_config_laws(rho, strengths, bases), 40,
                     lambda dist: sample_shots(dist, 40, stream))
    est = assemble_estimate(estimate_pw(stats, strengths), bases)
    assert np.max(np.abs(est.hermitized - (est.raw + est.raw.conj().T) / 2)) == 0.0
    assert np.max(np.abs(est.hermitized.diagonal().imag)) == 0.0
    assert np.max(np.abs(est.hermitized - est.hermitized.conj().T)) == 0.0


@pytest.mark.parametrize("d", [2, 3, 5, 16, 32])
def test_estimator_gives_the_bits_of_the_plain_expressions(d):
    # estimate_pw, the hermitized part, hs_distance_sq and reconstruction_map write each
    # result once, in place.  Each must give, to the last bit, the plain expression written
    # out here, on one table or a stack of them, and leave every input as it was.  The
    # g_I below are ones where dividing by 2 g_I, not multiplying by its reciprocal, moves
    # some imaginary parts of estimate_pw by one ulp.
    rho = random_mixed(d, max(1, d // 2), RandomStream(SEED, 51))
    bases = fourier_mub(d)
    overlaps = bases.overlaps()
    matrix = rho.matrix.copy()
    for count in (1, 2, 7, max(1, BATCH_ELEMENTS // d**2)):
        for g_i in (np.pi / 2, 0.7, 2.9):
            strengths = replace(optimal_strengths(d), g_i=g_i)
            stats = _sample_stats(outcome_table(rho, strengths, bases, 20),
                                  RandomStream(SEED, 52), count)
            s_r, s_i, n = stats.sums_r.copy(), stats.sums_i.copy(), stats.shots
            pw = estimate_pw(stats, strengths)
            want = -(s_r / n) / (2.0 * strengths.g_r) + 1j * (s_i / n) / (2.0 * g_i)
            assert np.array_equal(pw, want), f"estimate_pw, count={count}, g_I={g_i}"
            assert np.array_equal(stats.sums_r, s_r) and np.array_equal(stats.sums_i, s_i)

            pw_in = pw.copy()
            raw = reconstruction_map(pw, overlaps)
            loop = np.stack([(table / overlaps.T) @ overlaps for table in pw])
            assert np.array_equal(raw, loop), f"reconstruction_map, count={count}"
            est = assemble_estimate(pw, bases)
            assert np.array_equal(pw, pw_in)
            assert np.array_equal(est.raw, raw)
            herm = (raw + raw.conj().swapaxes(-1, -2)) / 2
            assert np.array_equal(est.hermitized, herm), f"hermitized, count={count}"
            assert est.hermitized.flags.c_contiguous

            for a in (est.raw, est.hermitized):
                a_in = a.copy()
                diff = a - matrix
                want_sq = np.sum(diff.real**2 + diff.imag**2, axis=(-2, -1))
                assert np.array_equal(hs_distance_sq(a, rho.matrix), want_sq), f"count={count}"
                assert np.array_equal(a, a_in) and np.array_equal(rho.matrix, matrix)


# ---------------------------------------------------------------- experiment driver


def test_run_experiment_reproducible():
    rho = random_mixed(3, 3, RandomStream(SEED, 33))
    strengths = optimal_strengths(3)
    a = run_experiment(rho, strengths, 30, 5, SEED + 3)
    b = run_experiment(rho, strengths, 30, 5, SEED + 3)
    assert a == b


@pytest.mark.parametrize("d", [2, 5, 32])
def test_batched_run_equals_per_repetition_loop(d):
    # run_experiment draws and estimates BATCH_ELEMENTS // d^2 repetitions at
    # once; over two full batches and a partial one it must give, to the last
    # bit, what one simulate_once per repetition on the same stream gives: each
    # call continues the stream with its R rows and the stream's twin with its I rows.
    # At d=32, N=20 is below the 64 outcomes of a row, so this covers the per-shot draw.
    rho = random_mixed(d, max(1, d // 2), RandomStream(SEED, 46))
    strengths = optimal_strengths(d)
    table = outcome_table(rho, strengths, fourier_mub(d), 20)
    reps = 2 * max(1, BATCH_ELEMENTS // d**2) + 3
    err_raw = np.zeros(reps)
    err_herm = np.zeros(reps)
    stream = RandomStream(SEED)
    for rep in range(reps):
        est = simulate_once(table, stream)
        err_raw[rep] = hs_distance_sq(est.raw, rho.matrix)
        err_herm[rep] = hs_distance_sq(est.hermitized, rho.matrix)
    got = run_experiment(rho, strengths, 20, reps, SEED)
    assert got.mse_raw_mean == err_raw.mean()
    assert got.mse_raw_stderr == err_raw.std(ddof=1) / np.sqrt(reps)
    assert got.mse_herm_mean == err_herm.mean()
    assert got.mse_herm_stderr == err_herm.std(ddof=1) / np.sqrt(reps)


@pytest.mark.parametrize("reps, n_shots", [
    pytest.param(10**3, 10**4, id="1000"),
    pytest.param(10**4, 10**4, id="10000"),
    pytest.param(10**3, 63, id="1000-per-shot"),
])
def test_run_experiment_memory_grows_only_by_the_errors(reps, n_shots):
    # two float64 errors per repetition (16 B) and one batch of estimates; a
    # batch of every repetition would hold about 33 KB per repetition at d=32.
    # N = 63 < 2d draws shot by shot: its (rows, N) arrays stay below the counts'.
    d = 32
    rho = random_mixed(d, d, RandomStream(SEED, 47))
    tracemalloc.start()
    try:
        run_experiment(rho, optimal_strengths(d), n_shots, reps, SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 16 * reps < 2**20, f"run_experiment peaked at {peak} B"


@pytest.mark.parametrize("d", [2, 5, 32])
@pytest.mark.parametrize("axis", ["g_r", "g_i"])
@pytest.mark.parametrize("below, size", [
    (False, "batches"), (True, "batches"), (False, "one-batch"), (True, "one-batch"),
    (False, "edge"), (True, "edge"), (False, "over-budget"), (True, "over-budget"),
], ids=["N=2d", "N=2d-1", "N=2d-one-batch", "N=2d-1-one-batch",
        "N=2d-edge", "N=2d-1-edge", "N=2d-over-budget", "N=2d-1-over-budget"])
def test_sweep_equals_one_experiment_per_step(d, axis, below, size):
    # run_sweep builds the features once and keeps the unswept law across steps, and holds
    # the sums of every repetition of a quadrature whose strength the next step keeps while
    # they fit SUMS_ELEMENTS: at "one-batch" and "batches" both fit, so the repeated 1.5
    # holds the swept quadrature too; at "edge" one fills the budget and the other is drawn
    # a batch at a time; at "over-budget" neither fits and both are drawn every step.  Each
    # step must still report, to the last bit, what a whole experiment built from scratch at
    # its strengths reports, on either draw (numpy's multinomial at N = 2d, per shot at
    # N = 2d - 1).  The reference below rebuilds the bases, the table and the purity at
    # every step, draws each batch's R rows in (rep, n) order from RandomStream(SEED) and
    # its I rows from that stream's twin, and shares no code path with run_sweep above the
    # sampler; the sampler's sized draw is checked against a broadcast stack in test_rng.py.
    rho = random_mixed(d, max(1, d // 2), RandomStream(SEED, 49))
    n_shots = 2 * d - below
    batch = max(1, BATCH_ELEMENTS // d**2)
    reps = {"one-batch": batch, "batches": batch + 1,  # a full batch and a partial one
            "edge": SUMS_ELEMENTS // d**2, "over-budget": SUMS_ELEMENTS // d**2 + 1}[size]
    steps = [replace(optimal_strengths(d), **{axis: g}) for g in (0.6, 1.5, 1.5, 2.4)]

    def one_step(strengths):
        bases = fourier_mub(d)
        table = outcome_table(rho, strengths, bases, n_shots)
        err_raw, err_herm = np.zeros(reps), np.zeros(reps)
        stream = RandomStream(SEED)
        for start in range(0, reps, batch):
            count = min(batch, reps - start)
            sums = []
            for (law, values), source in zip(table.laws, (stream, stream.twin)):
                rows = np.broadcast_to(law.pvals, (count, d, 2 * d))
                counts = source.multinomial(n_shots, rows).reshape(count, d, d, 2)
                sums.append((counts * values).sum(axis=-1))
            stats = SufficientStats(n_shots, *sums)
            est = assemble_estimate(estimate_pw(stats, strengths), bases)
            err_raw[start:start + batch] = hs_distance_sq(est.raw, rho.matrix)
            err_herm[start:start + batch] = hs_distance_sq(est.hermitized, rho.matrix)
        inp = TheoryInput(dim=d, strengths=strengths, shots=n_shots, purity=purity_stats(rho))
        oracle_raw, oracle_herm = _oracle(table)
        return MseReport(
            mse_raw_mean=float(err_raw.mean()),
            mse_raw_stderr=float(err_raw.std(ddof=1) / np.sqrt(reps)),
            mse_herm_mean=float(err_herm.mean()),
            mse_herm_stderr=float(err_herm.std(ddof=1) / np.sqrt(reps)),
            reps=reps, theory_raw=mse_raw(inp), theory_herm=mse_hermitized(inp),
            oracle_raw=oracle_raw, oracle_herm=oracle_herm,
        )

    expected = [one_step(s) for s in steps]
    assert run_sweep(rho, steps, n_shots, reps, SEED) == expected
    assert [run_experiment(rho, s, n_shots, reps, SEED) for s in steps] == expected


@pytest.mark.parametrize("n_shots", [10**4, 63], ids=["multinomial", "per-shot"])
def test_sweep_memory_holds_one_batch(n_shots):
    # The bound of test_run_experiment_memory_grows_only_by_the_errors over three steps of
    # several batches each: a batch or a step still held while the next one draws fails.
    d = 32
    rho = random_mixed(d, d, RandomStream(SEED, 47))
    reps = 3 * max(1, BATCH_ELEMENTS // d**2) + 1
    steps = [replace(optimal_strengths(d), g_r=g) for g in (0.6, 1.5, 2.4)]
    tracemalloc.start()
    try:
        run_sweep(rho, steps, n_shots, reps, SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 16 * reps < 2**20, f"run_sweep peaked at {peak} B"


@pytest.mark.parametrize("n_shots", [10**4, 63], ids=["multinomial", "per-shot"])
@pytest.mark.parametrize("axis", ["g_r", None], ids=["g_r", "no-axis"])
def test_sweep_memory_at_the_budget_edge(n_shots, axis):
    # SUMS_ELEMENTS // d^2 repetitions at d=32: the held sums fill the budget (256 KiB) beside
    # one batch, under the bound of test_run_experiment_memory_grows_only_by_the_errors.  On
    # the g_r sweep the I sums are held; when both strengths stay, only one quadrature fits.
    d = 32
    rho = random_mixed(d, d, RandomStream(SEED, 47))
    reps = SUMS_ELEMENTS // d**2
    steps = [replace(optimal_strengths(d), **({axis: g} if axis else {})) for g in (0.6, 1.5, 2.4)]
    tracemalloc.start()
    try:
        run_sweep(rho, steps, n_shots, reps, SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 16 * reps < 2**20, f"run_sweep peaked at {peak} B"


@pytest.mark.parametrize("n_shots", [10**4, 63], ids=["multinomial", "per-shot"])
def test_held_sums_stay_within_the_budget(n_shots):
    # A sweep whose strengths both stay, at SUMS_ELEMENTS // d^2 repetitions at d=32: either
    # quadrature's sums alone fill the budget, so one is held and the other drawn a batch at a
    # time.  The sweep then peaks at most the budget, 8 * SUMS_ELEMENTS bytes, above one step
    # of the same size, which holds no sums: about 210 KB above it, where holding both
    # quadratures' sums reads about 420 KB.
    d = 32
    rho = random_mixed(d, d, RandomStream(SEED, 47))
    reps = SUMS_ELEMENTS // d**2

    def peak(steps):
        tracemalloc.start()
        try:
            run_sweep(rho, steps, n_shots, reps, SEED)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_sweep(rho, [optimal_strengths(d)], n_shots, reps, SEED)  # warm caches outside the trace
    one_step = peak([optimal_strengths(d)])
    held = peak([optimal_strengths(d)] * 3) - one_step
    assert held <= 8 * SUMS_ELEMENTS, f"the held sums took {held} B"


def test_sweep_memory_does_not_grow_with_steps():
    # Only the current two laws and the unswept quadrature's sums, held within SUMS_ELEMENTS
    # (16 KB of them at 2 repetitions and d=32), are kept across steps, so a 200-step sweep
    # peaks no more than 64 KB above a 2-step one.  The peak is taken net of what the sweep
    # returns: its reports, about 450 B a step, are the output and stay alive.
    d = 32
    rho = random_mixed(d, d, RandomStream(SEED, 50))
    grid = np.linspace(0.6, 2.4, 200)

    def peak_above_reports(n_steps):
        steps = [replace(optimal_strengths(d), g_r=float(g)) for g in grid[:n_steps]]
        tracemalloc.start()
        try:
            reports = run_sweep(rho, steps, 10, 2, SEED)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(reports) == n_steps
        return peak - current

    run_sweep(rho, [optimal_strengths(d)], 10, 2, SEED)  # warm caches outside the trace
    growth = peak_above_reports(200) - peak_above_reports(2)
    assert growth <= 64 * 1024, f"a 200-step sweep peaked {growth} B above a 2-step one"


def _rows_drawn_by_a_sweep(monkeypatch, axis, reps):
    # The rows handed to RandomStream.multinomial by a 19-step sweep at d=5 along `axis`,
    # counted over two runs of the same sweep.
    d, n_shots = 5, 10
    rho = random_mixed(d, 2, RandomStream(SEED, 52))
    steps = [replace(optimal_strengths(d), **{axis: float(g)})
             for g in np.linspace(0.6, 2.4, 19)]
    multinomial = RandomStream.multinomial

    def counted(self, n, pvals, size=None):
        rows.append(math.prod(np.shape(pvals)[:-1] if size is None else size))
        return multinomial(self, n, pvals, size)

    monkeypatch.setattr(RandomStream, "multinomial", counted)
    drawn = []
    for _ in range(2):
        rows = []
        run_sweep(rho, steps, n_shots, reps, SEED)
        drawn.append(sum(rows))
    return drawn


@pytest.mark.parametrize("axis", ["g_r", "g_i"])
@pytest.mark.parametrize("one_batch", [True], ids=["one-batch"])
def test_a_one_batch_sweep_draws_the_unswept_quadrature_once(monkeypatch, axis, one_batch):
    # A step of one batch draws only the quadrature whose strength moved: 19 draws of the
    # swept one and one of the other, d * reps rows each.
    d, reps = 5, 20
    drawn = _rows_drawn_by_a_sweep(monkeypatch, axis, reps)
    assert drawn[0] == drawn[1] == 20 * d * reps, drawn


@pytest.mark.parametrize("axis", ["g_r", "g_i"])
@pytest.mark.parametrize("case", ["batches", "over-budget"])
def test_a_sweep_draws_the_unswept_quadrature_once_within_the_budget(monkeypatch, axis, case):
    # While its sums fit SUMS_ELEMENTS, the quadrature whose strength stays is drawn once in
    # a sweep of several batches a step too: 19 draws of the swept one and one of the other,
    # d * reps rows each.  Above the budget both are drawn at every step, 2 * 19 draws.
    d = 5
    reps = {"batches": BATCH_ELEMENTS // d**2 + 1,
            "over-budget": SUMS_ELEMENTS // d**2 + 1}[case]
    drawn = _rows_drawn_by_a_sweep(monkeypatch, axis, reps)
    assert drawn[0] == drawn[1] == (2 * 19 if case == "over-budget" else 20) * d * reps, drawn


def test_run_experiment_matches_oracle_and_scales():
    """Empirical MSE tracks the exact MSE oracle and scales as 1/N.

    Rehearsed at this seed with the I rows on the stream's twin: the N-scaled
    raw means differ by at most 1.2 stderr across N in {50, 100, 200}, and the
    hermitized mean sits within 2.3 stderr of the oracle at every N (the raw
    within 2.5).
    """
    rho = random_mixed(3, 3, RandomStream(SEED, 2**32 + 1))
    strengths = optimal_strengths(3)
    scaled = []
    for n_shots in (50, 100, 200):
        rep = run_experiment(rho, strengths, n_shots, 600, SEED + 7)
        o_raw = exact_mse_oracle(rho, strengths, n_shots)
        o_herm = exact_mse_oracle(rho, strengths, n_shots, hermitized=True)
        assert abs(rep.mse_raw_mean - o_raw) < 3.0 * rep.mse_raw_stderr
        assert abs(rep.mse_herm_mean - o_herm) < 3.0 * rep.mse_herm_stderr
        assert rep.mse_herm_mean < rep.mse_raw_mean  # hermitizing strictly helps here
        scaled.append((n_shots * rep.mse_raw_mean, n_shots * rep.mse_raw_stderr))
    for i in range(3):
        for j in range(i + 1, 3):
            gap = abs(scaled[i][0] - scaled[j][0])
            assert gap < 3.0 * np.hypot(scaled[i][1], scaled[j][1])


def test_run_experiment_matches_oracle_when_drawn_shot_by_shot():
    """At N = 5 below the 16 outcomes of a d=8 row, every configuration is drawn shot by
    shot.  Rehearsed at this seed with the I rows on the stream's twin: z = +1.77 for the
    raw and +1.46 for the hermitized MSE against the exact oracle."""
    rho = random_mixed(8, 4, RandomStream(SEED, 2**32 + 2))
    strengths = optimal_strengths(8)
    rep = run_experiment(rho, strengths, 5, 2 * 10**4, SEED)
    z_raw = (rep.mse_raw_mean - exact_mse_oracle(rho, strengths, 5)) / rep.mse_raw_stderr
    o_herm = exact_mse_oracle(rho, strengths, 5, hermitized=True)
    z_herm = (rep.mse_herm_mean - o_herm) / rep.mse_herm_stderr
    assert abs(z_raw) < 3.0 and abs(z_herm) < 3.0, (z_raw, z_herm)


def test_monte_carlo_arbitrates_the_oracle_against_the_uniform_form():
    """4e5 repetitions resolve the exact oracle from the uniform-variance form.

    Rehearsed at this seed with the I rows on the stream's twin: z = +0.33 for
    the raw and +1.93 for the hermitized MSE against the oracle, while
    mse_hermitized sits 53.0 stderr above the hermitized mean.  The empirical side is
    sampling alone, so it shares no formula with the oracle or the closed forms.
    """
    rho = random_mixed(3, 3, RandomStream(SEED, 2**32 + 1))
    strengths = optimal_strengths(3)
    rep = run_experiment(rho, strengths, 30, 4 * 10**5, SEED)
    z_raw = (rep.mse_raw_mean - exact_mse_oracle(rho, strengths, 30)) / rep.mse_raw_stderr
    o_herm = exact_mse_oracle(rho, strengths, 30, hermitized=True)
    z_herm = (rep.mse_herm_mean - o_herm) / rep.mse_herm_stderr
    assert abs(z_raw) < 4.0 and abs(z_herm) < 4.0, (z_raw, z_herm)
    inp = TheoryInput(dim=3, strengths=strengths, shots=30, purity=purity_stats(rho))
    uniform = mse_hermitized(inp)
    assert abs(rep.mse_herm_mean - uniform) > 20.0 * rep.mse_herm_stderr


def test_run_experiment_attaches_theory():
    rho = random_pure(2, RandomStream(SEED, 34))
    strengths = optimal_strengths(2)
    rep = run_experiment(rho, strengths, 25, 2, SEED)
    inp = TheoryInput(dim=2, strengths=strengths, shots=25, purity=purity_stats(rho))
    assert rep.theory_raw == mse_raw(inp)
    assert rep.oracle_raw == exact_mse_oracle(rho, strengths, 25)
    assert rep.oracle_herm == exact_mse_oracle(rho, strengths, 25, hermitized=True)
    assert rep.reps == 2


def test_run_experiment_single_rep_has_zero_stderr():
    rho = random_pure(2, RandomStream(SEED, 35))
    rep = run_experiment(rho, optimal_strengths(2), 10, 1, SEED)
    assert rep.mse_raw_stderr == 0.0
    assert rep.mse_herm_stderr == 0.0


# ---------------------------------------------------------------- exact MSE oracle


def test_oracle_matches_closed_form_raw():
    rng = RandomStream(SEED, 36)
    for k in range(10):
        d = 2 + k % 3
        rho = random_mixed(d, 1 + k % d, RandomStream(SEED, 500 + k))
        u = rng.uniforms(2)
        strengths = CouplingStrengths(0.1 + 2.9 * float(u[0]), 0.1 + 2.9 * float(u[1]))
        inp = TheoryInput(dim=d, strengths=strengths, shots=17, purity=purity_stats(rho))
        assert abs(exact_mse_oracle(rho, strengths, 17) - mse_raw(inp)) < 1e-12


def test_oracle_scales_exactly_with_shots():
    rho = random_mixed(3, 2, RandomStream(SEED, 37))
    strengths = CouplingStrengths(0.9, 1.7)
    one = exact_mse_oracle(rho, strengths, 1)
    assert exact_mse_oracle(rho, strengths, 2) == one / 2
    assert exact_mse_oracle(rho, strengths, 4) == one / 4
    h1 = exact_mse_oracle(rho, strengths, 1, hermitized=True)
    assert exact_mse_oracle(rho, strengths, 2, hermitized=True) == h1 / 2


def test_oracle_hermitized_below_raw():
    for k in range(6):
        d = 2 + k % 3
        rho = random_mixed(d, d, RandomStream(SEED, 600 + k))
        strengths = CouplingStrengths(0.6 + 0.3 * k, 1.2)
        raw = exact_mse_oracle(rho, strengths, 10)
        herm = exact_mse_oracle(rho, strengths, 10, hermitized=True)
        assert herm < raw


def _per_row_oracle(rho, strengths, n_shots, hermitized):
    """The exact MSE oracle as first written: per-row covariance matrices
    propagated through coefficient vectors, with each row's outcome law built
    from couple_and_postselect and eig_hermitian_2x2."""
    d = rho.dim
    bases = fourier_mub(d)
    overlaps = bases.overlaps()
    var_elem = np.zeros((d, d))
    var_rediag = np.zeros(d)
    for n in range(d):
        covs = []
        for g, sign, name in ((strengths.g_r, -1.0, "sigma_r"), (strengths.g_i, 1.0, "sigma_i")):
            evals, evecs = eig_hermitian_2x2(getattr(pointer_observables(g), name))
            ens = couple_and_postselect(rho, n, g, bases)
            p = np.zeros((d, 2))
            for j, state in enumerate(ens.device_states):
                if state is not None:
                    p[j] = ens.probs[j] * np.einsum("ik,ik->k", evecs.conj(), state @ evecs).real
            p = np.maximum(p, 0.0) / np.maximum(p, 0.0).sum()
            mu = sign * (p @ evals) / (2.0 * g)
            second = (p @ evals**2) / (4.0 * g * g)
            covs.append(np.diag(second) - np.outer(mu, mu))
        coeff = overlaps / overlaps[:, n][:, None]  # coeff[j, m]
        var_elem[n] = np.einsum("jm,jk,km->m", coeff.conj(), covs[0] + covs[1], coeff).real
        var_rediag[n] = covs[0].sum()
    if not hermitized:
        return var_elem.sum() / n_shots
    off = (var_elem.sum() - np.trace(var_elem)) / 2.0
    return (off + var_rediag.sum()) / n_shots


@pytest.mark.parametrize("d", [2, 5, 16, 32])
def test_oracle_matches_per_row_covariance_reference(d):
    states = [
        random_pure(d, RandomStream(SEED, 700 + d)),
        random_mixed(d, d, RandomStream(SEED, 800 + d)),
        random_mixed(d, max(1, d // 2), RandomStream(SEED, 900 + d)),
    ]
    for rho in states:
        for strengths in (optimal_strengths(d), CouplingStrengths(0.3, 2.5)):
            for hermitized in (False, True):
                got = exact_mse_oracle(rho, strengths, 40, hermitized=hermitized)
                want = _per_row_oracle(rho, strengths, 40, hermitized)
                assert abs(got - want) <= 1e-13 * want, f"d={d}, hermitized={hermitized}"


def _random_postselection(d, stream):
    """Computational coupling basis and a random unitary post-selection basis: the QR of a
    complex Ginibre matrix.  Its overlaps differ in modulus, so the oracle's weights do too."""
    g = stream.normals(2 * d * d).reshape(2, d, d)
    q, _ = np.linalg.qr(g[0] + 1j * g[1])
    return replace(fourier_mub(d), psi_basis=q)


def test_oracle_matches_sampling_off_the_fourier_basis():
    """With Fourier bases every weight ratio in the oracle is 1; a random post-selection basis
    gates them.  Rehearsed at this seed with the I rows on the stream's twin: z = -1.15 for
    the raw and -0.02 for the hermitized MSE, and the oracle reads 0.381 raw, three times
    its Fourier value 0.129."""
    d, n_shots, reps = 3, 50, 2 * 10**4
    bases = _random_postselection(d, RandomStream(SEED, 2**32 + 3))
    rho = random_mixed(d, d, RandomStream(SEED, 2**32 + 4))
    strengths = optimal_strengths(d)
    table = outcome_table(rho, strengths, bases, n_shots)
    o_raw, o_herm = _oracle(table)
    assert o_raw > 2.0 * exact_mse_oracle(rho, strengths, n_shots)  # the basis matters
    stats = _sample_stats(table, RandomStream(SEED, 2**32 + 5), reps)
    est = assemble_estimate(estimate_pw(stats, strengths), bases)
    for got, want in ((est.raw, o_raw), (est.hermitized, o_herm)):
        err = hs_distance_sq(got, rho.matrix)
        z = (err.mean() - want) / (err.std(ddof=1) / np.sqrt(reps))
        assert abs(z) < 4.0, (z, want)


@pytest.mark.parametrize("d", [2, 3, 5, 16, 32])
def test_oracle_is_blind_to_the_phase_and_order_of_the_postselection_basis(d):
    # A rephased or reordered post-selection vector moves no outcome probability and no
    # overlap ratio.  Rehearsed once: the worst relative deviation was 2.6e-16.
    rho = random_mixed(d, max(1, d // 2), RandomStream(SEED, 2**32 + 100 + d))
    strengths = optimal_strengths(d)
    fourier = fourier_mub(d)
    shuffle = RandomStream(SEED, 2**32 + 200 + d).uniforms(2 * d).reshape(2, d)
    psi = fourier.psi_basis[:, np.argsort(shuffle[0])] * np.exp(2j * np.pi * shuffle[1])
    moved = replace(fourier, psi_basis=psi)
    want = _oracle(outcome_table(rho, strengths, fourier, 40))
    got = _oracle(outcome_table(rho, strengths, moved, 40))
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * w, (d, g, w)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_no_sampled_haar_basis_beats_fourier(d):
    # The oracle over Haar post-selection bases against the Fourier one, raw and hermitized,
    # 6 states x 40 bases per d.  Rehearsed once at this seed: the smallest ratio was
    # 1 + 2.8e-5 at d=2, 1.0165 at d=3 and 1.234 at d=5.  At d=2 a Haar basis can lie
    # arbitrarily close to unbiased, hence the tolerance there.  Sampled bases only: small
    # rotations exp(i eps H) of the Fourier basis at d=3 beat it by up to 4e-4 relative.
    strengths = optimal_strengths(d)
    fourier = fourier_mub(d)
    bases_stream = RandomStream(SEED, 2**32 + 300 + d)
    haar = [_random_postselection(d, bases_stream) for _ in range(40)]
    worst = np.inf
    for k in range(6):
        rho = random_mixed(d, 1 + k % d, RandomStream(SEED, 2**32 + 310 + 10 * d + k))
        want = np.array(_oracle(outcome_table(rho, strengths, fourier, 40)))
        for bases in haar:
            got = np.array(_oracle(outcome_table(rho, strengths, bases, 40)))
            worst = min(worst, *(got / want))
    assert worst > (1.0 - 1e-12 if d == 2 else 1.0), (d, worst)


def _enumerated_estimates(rho, strengths, n_shots):
    """Every outcome count of the d=2 experiment in Fourier bases, its probability, and its
    estimate: each of the 4 (q, n) rows of `outcome_table` has C(N+3, 3) count vectors, and
    a point's weight is the product of its rows' multinomial pmfs.  The counts go through
    the library's own SufficientStats, estimate_pw and assemble_estimate."""
    table = outcome_table(rho, strengths, fourier_mub(2), n_shots)
    # (q, n) rows of (j, k) outcomes: each quadrature's rows in the sampler's draw order
    rows = np.concatenate([law.pvals for law, _ in table.laws])
    comps = np.array([c for c in itertools.product(range(n_shots + 1), repeat=4)
                      if sum(c) == n_shots])
    coef = [math.factorial(n_shots) / math.prod(map(math.factorial, c)) for c in comps]
    row_pmf = np.array(coef) * np.prod(rows[:, None, :] ** comps, axis=-1)  # [row, comp]
    idx = np.indices((len(comps),) * 4).reshape(4, -1)  # each point's composition per row
    weights = np.prod(row_pmf[np.arange(4)[:, None], idx], axis=0)
    counts = comps[idx.T].reshape(-1, 2, 2, 2, 2)  # [point, q, n, j, k]
    sums_r, sums_i = (counts[:, q, ..., 0] * values[0] + counts[:, q, ..., 1] * values[1]
                      for q, (_, values) in enumerate(table.laws))
    stats = SufficientStats(n_shots, sums_r, sums_i)
    return weights, assemble_estimate(estimate_pw(stats, strengths), table.bases)


def _projected_errors(estimates, rho):
    """The squared error of each estimate once `project_to_density` has made it a state, as
    `reconstruct` writes its _phys.state."""
    return hs_distance_sq(np.array([project_to_density(m).matrix for m in estimates]), rho.matrix)


D2_STRENGTHS = {"optimal": optimal_strengths(2), "weak-strong": CouplingStrengths(0.6, 2.4),
                "strong-weak": CouplingStrengths(2.0, 1.0)}


def _d2_state():
    return random_mixed(2, 2, RandomStream(SEED, 2**32 + 10))


@functools.cache
def _enumerated_d2(strengths, n_shots):
    """The d=2 state the enumeration gates share, and the weights and the raw and hermitized
    squared errors of its `_enumerated_estimates` at these strengths and shots, built once
    however many gates read them."""
    rho = _d2_state()
    weights, est = _enumerated_estimates(rho, strengths, n_shots)
    errors = (hs_distance_sq(est.raw, rho.matrix), hs_distance_sq(est.hermitized, rho.matrix))
    return rho, (weights, *errors)


@functools.cache
def _projected_d2(strengths, n_shots):
    """`_enumerated_d2`'s state and weights, and the `_projected_errors` of its hermitized
    estimates, built once however many gates read them."""
    rho = _d2_state()
    weights, est = _enumerated_estimates(rho, strengths, n_shots)
    return rho, weights, _projected_errors(est.hermitized, rho)


@pytest.mark.parametrize("n_shots", [1, 2, 3])
@pytest.mark.parametrize("strengths", D2_STRENGTHS.values(), ids=D2_STRENGTHS.keys())
def test_oracle_equals_the_enumerated_mean_at_d2(strengths, n_shots):
    # No sampling: the mean over every outcome count (160,000 points at N=3) is the exact MSE.
    # Rehearsed once: the worst deviation, of the weights' sum or a mean, was 1.1e-15.
    rho, (weights, err_raw, err_herm) = _enumerated_d2(strengths, n_shots)
    assert abs(weights.sum() - 1.0) < 1e-12
    want = _oracle(outcome_table(rho, strengths, fourier_mub(2), n_shots))
    for got, w in zip((weights @ err_raw, weights @ err_herm), want):
        assert abs(got - w) <= 1e-12 * w, (got, w)


@pytest.mark.parametrize("n_shots", [1, 2, 3])
@pytest.mark.parametrize("strengths", D2_STRENGTHS.values(), ids=D2_STRENGTHS.keys())
def test_stderr_columns_match_the_enumerated_spread_at_d2(strengths, n_shots):
    # The sample sd behind each stderr column against the exact sd sigma of the enumerated
    # law, in units of the sample sd's own spread sqrt((mu4 - sigma^4) / (4 sigma^2 reps)).
    # A sampler that widened or narrowed the errors' spread would move every z gate's unit.
    # Rehearsed at this seed with the I rows on the stream's twin: z from -2.80 to +1.19
    # over these 9 cases.
    rho, (weights, *errors) = _enumerated_d2(strengths, n_shots)
    reps = 2 * 10**4
    rep = run_experiment(rho, strengths, n_shots, reps, SEED)
    for err, stderr in zip(errors, (rep.mse_raw_stderr, rep.mse_herm_stderr)):
        dev = err - weights @ err
        var, mu4 = weights @ dev**2, weights @ dev**4
        spread = math.sqrt((mu4 - var**2) / (4 * var * reps))
        z = (stderr * math.sqrt(reps) - math.sqrt(var)) / spread
        assert abs(z) < 4.0, z


@pytest.mark.parametrize("n_shots", [1, 2])
def test_projected_estimator_matches_its_enumerated_mean_at_d2(n_shots):
    # The state `reconstruct` writes, project_to_density of the hermitized estimate, has no
    # linear oracle: its exact mean and sd come from every enumerated count point.  Drawn
    # 10^4 times in one batch, the mean squared error sits within 4 stderr of the exact mean.
    # Rehearsed at this seed with the I rows on the stream's twin: z = +0.69 (N=1) and
    # +0.08 (N=2).
    strengths = D2_STRENGTHS["optimal"]
    rho, weights, exact = _projected_d2(strengths, n_shots)
    mean = weights @ exact
    sd = math.sqrt(weights @ (exact - mean) ** 2)
    reps = 10**4
    table = outcome_table(rho, strengths, fourier_mub(2), n_shots)
    stats = _sample_stats(table, RandomStream(SEED, 2**32 + 12), reps)
    est = assemble_estimate(estimate_pw(stats, strengths), table.bases)
    z = (_projected_errors(est.hermitized, rho).mean() - mean) / (sd / math.sqrt(reps))
    assert abs(z) <= 4.0, z


def _chi_square_sf(x, k):
    """P(X >= x) for X chi-square with k degrees of freedom: Q(k/2, x/2), summed up from
    Q(1/2, h) = erfc(sqrt h), or Q(0, h) = 0, by Q(a + 1, h) = Q(a, h) + h^a e^-h / a!."""
    h, a = x / 2.0, (k % 2) / 2.0
    p = math.erfc(math.sqrt(h)) if k % 2 else 0.0
    while a < k / 2.0:
        p += math.exp(a * math.log(h) - h - math.lgamma(a + 1.0))
        a += 1.0
    return p


def test_chi_square_tail_matches_its_closed_values():
    # k = 2: e^(-x/2); k = 1: erfc(sqrt(x/2)); k = 3: erfc + sqrt(2x/pi) e^(-x/2)
    assert abs(_chi_square_sf(3.0, 2) - math.exp(-1.5)) < 1e-15
    assert abs(_chi_square_sf(3.0, 1) - math.erfc(math.sqrt(1.5))) < 1e-15
    want = math.erfc(math.sqrt(1.5)) + math.sqrt(6.0 / math.pi) * math.exp(-1.5)
    assert abs(_chi_square_sf(3.0, 3) - want) < 1e-15


def _chi_square_p(weights, exact, sampled):
    """The chi-square p-value of `sampled` errors against the law putting `weights` on the
    `exact` errors, binned on that law's distinct values (closer than 1e-9 relative is one
    value), each bin taking the next value until it expects 5 draws; a short last bin joins
    the one before.  Bins meet halfway between their values, so a draw a few ulps off its
    exact value still lands in its own bin."""
    order = np.argsort(exact)
    values, expected = exact[order], weights[order] * len(sampled)
    starts = np.flatnonzero(np.r_[True, np.diff(values) > 1e-9 * values[1:]])
    mass = np.add.reduceat(expected, starts)  # expected draws of each distinct value
    ends, acc = [], 0.0  # the index in `starts` of each bin's last value
    for i, m in enumerate(mass):
        acc += m
        if acc >= 5.0:
            ends.append(i)
            acc = 0.0
    ends[-1] = len(mass) - 1
    bins = np.add.reduceat(mass, [0, *(i + 1 for i in ends[:-1])])
    edges = [(values[starts[i + 1] - 1] + values[starts[i + 1]]) / 2.0 for i in ends[:-1]]
    observed = np.bincount(np.searchsorted(edges, sampled), minlength=len(bins))
    stat = float(np.sum((observed - bins) ** 2 / bins))
    return _chi_square_sf(stat, len(bins) - 1)


@pytest.mark.parametrize("n_shots", [2, 3])
@pytest.mark.parametrize("name", ["optimal", "weak-strong"])
def test_sampled_errors_follow_the_enumerated_law_at_d2(name, n_shots):
    # At d=2, N < 2d: these are draws of the per-shot sampler, through the sweep's own
    # _batch_errors.  A wrong correlation between a row's outcomes keeps a mean but moves
    # the law.  Rehearsed at this seed with the I rows on the stream's twin: p from 0.028
    # to 0.93 over these 8 laws.
    strengths = D2_STRENGTHS[name]
    rho, (weights, *errors) = _enumerated_d2(strengths, n_shots)
    sampled = np.empty((2, 2 * 10**4))
    table = outcome_table(rho, strengths, fourier_mub(2), n_shots)
    stats = _sample_stats(table, RandomStream(SEED, 2**32 + 11), sampled.shape[1])
    _batch_errors(table, stats, rho.matrix, sampled)
    for exact, drawn in zip(errors, sampled):
        p = _chi_square_p(weights, exact, drawn)
        assert p > 1e-3, p
