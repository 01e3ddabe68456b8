"""Shot-level sampling, sufficient statistics, the end-to-end experiment
driver, and the exact enumeration MSE oracle."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from wvtomo import (
    CouplingStrengths,
    IncompleteStats,
    OutcomeDistribution,
    RandomStream,
    StrengthOutOfRange,
    SufficientStats,
    TheoryInput,
    assemble_estimate,
    couple_and_postselect,
    eig_hermitian_2x2,
    estimate_pw,
    exact_mse_oracle,
    fourier_mub,
    mse_raw,
    optimal_strengths,
    outcome_distribution,
    pointer_observables,
    purity_stats,
    random_mixed,
    random_pure,
    run_experiment,
    sample_shots,
    validate_density,
)
from wvtomo.montecarlo import _config_distributions

SEED = 20240814  # shared with the acceptance suite; statistical bounds rehearsed once


def _exact_sums(rho, strengths, n_shots):
    """Sufficient statistics filled with exact expectations instead of samples."""
    bases = fourier_mub(rho.dim)
    stats = SufficientStats(dim=rho.dim, shots=n_shots)
    for dist in _config_distributions(rho, strengths, bases):
        p = dist.probs.reshape(-1, 2)
        v = dist.values.reshape(-1, 2)
        stats.record(dist.n, dist.quadrature, n_shots * (p * v).sum(axis=1))
    return stats


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


def test_sample_shots_concentrated_distribution():
    dist = OutcomeDistribution(
        n=0, quadrature="R", g=1.0,
        probs=np.array([1.0, 0.0, 0.0, 0.0]),
        values=np.array([2.5, -1.0, 0.25, 3.0]),
    )
    sums = sample_shots(dist, 1000, RandomStream(SEED, 24))
    assert np.array_equal(sums, [2500.0, 0.0])


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
    dist = _config_distributions(rho, optimal_strengths(d), fourier_mub(d))[0]
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


def test_sample_shots_memory_does_not_grow_with_shots():
    # one count per outcome, not one index per shot: a per-shot draw of
    # 1e6 shots holds about 24 MB
    d, n = 4, 1_000_000
    rho = random_mixed(d, 2, RandomStream(SEED, 38))
    dist = replace(outcome_distribution(rho, 1, "R", 1.0, fourier_mub(d)), values=np.ones(2 * d))
    stream = RandomStream(SEED, 39)
    tracemalloc.start()
    try:
        sums = sample_shots(dist, n, stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, f"sampler peaked at {peak} B"
    assert sums.sum() == n


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


def test_estimate_pw_requires_complete_stats():
    stats = SufficientStats(dim=2, shots=10)
    stats.record(0, "R", np.zeros(2))
    with pytest.raises(IncompleteStats):
        estimate_pw(stats, CouplingStrengths(1.0, 1.0))


def test_sufficient_stats_rejects_unknown_quadrature():
    stats = SufficientStats(dim=2, shots=10)
    with pytest.raises(ValueError):
        stats.record(0, "Q", np.zeros(2))


def test_assemble_estimate_exact_inputs_recover_state():
    d = 4
    rho = random_mixed(d, 2, RandomStream(SEED, 30))
    strengths = CouplingStrengths(1.0, 1.5)
    bases = fourier_mub(d)
    pw = estimate_pw(_exact_sums(rho, strengths, 5), strengths)
    est = assemble_estimate(pw, bases, strengths, 5, SEED)
    assert np.max(np.abs(est.raw - rho.matrix)) < 1e-10
    assert np.max(np.abs(est.hermitized - rho.matrix)) < 1e-10


def test_assemble_estimate_hermitized_properties():
    d = 3
    rho = random_mixed(d, 3, RandomStream(SEED, 31))
    strengths = optimal_strengths(d)
    bases = fourier_mub(d)
    stats = SufficientStats(dim=d, shots=40)
    stream = RandomStream(SEED, 32)
    for dist in _config_distributions(rho, strengths, bases):
        stats.record(dist.n, dist.quadrature, sample_shots(dist, 40, stream))
    est = assemble_estimate(estimate_pw(stats, strengths), bases, strengths, 40, SEED)
    assert np.max(np.abs(est.hermitized - (est.raw + est.raw.conj().T) / 2)) == 0.0
    assert np.max(np.abs(est.hermitized.diagonal().imag)) == 0.0
    assert np.max(np.abs(est.hermitized - est.hermitized.conj().T)) == 0.0


# ---------------------------------------------------------------- experiment driver


def test_run_experiment_reproducible():
    rho = random_mixed(3, 3, RandomStream(SEED, 33))
    strengths = optimal_strengths(3)
    a = run_experiment(rho, strengths, 30, 5, SEED + 3)
    b = run_experiment(rho, strengths, 30, 5, SEED + 3)
    assert a == b


def test_run_experiment_matches_oracle_and_scales():
    """Empirical MSE tracks the enumeration oracle and scales as 1/N.

    Config rehearsed once at this seed: the N-scaled raw means differ by
    at most 0.7 stderr across N in {50, 100, 200}, and the hermitized mean
    sits within 1.4 stderr of the oracle at every N (the raw within 0.6).
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


def test_run_experiment_attaches_theory():
    rho = random_pure(2, RandomStream(SEED, 34))
    strengths = optimal_strengths(2)
    rep = run_experiment(rho, strengths, 25, 2, SEED)
    inp = TheoryInput(dim=2, strengths=strengths, shots=25, purity=purity_stats(rho))
    assert rep.theory_raw == mse_raw(inp)
    assert rep.reps == 2


def test_run_experiment_single_rep_has_zero_stderr():
    rho = random_pure(2, RandomStream(SEED, 35))
    rep = run_experiment(rho, optimal_strengths(2), 10, 1, SEED)
    assert rep.mse_raw_stderr == 0.0
    assert rep.mse_herm_stderr == 0.0


# ---------------------------------------------------------------- enumeration oracle


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
    """The enumeration oracle as first written: per-row covariance matrices
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
