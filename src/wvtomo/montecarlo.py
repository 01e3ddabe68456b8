"""Shot-level simulation of the tomography experiment and its exact
error analysis.

One "measurement" consumes one shot of each of the 2d configurations
(d coupling indices x 2 pointer quadratures); N shots per configuration
means 2dN state copies.  The estimator reads each configuration only
through its per-j sums of pointer eigenvalues, so each configuration is
sampled as one multinomial draw of its N shots over the enumerated 2d-point
joint law of (post-selection j, pointer eigenvalue).

`exact_mse_oracle` computes the estimator's mean-square error with no
sampling at all, by propagating exact per-shot covariances through the
linear reconstruction map.  It is the arbiter the closed-form theory is
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import theory
from .errors import IncompleteStats
from .protocol import (
    CouplingStrengths,
    MeasurementBases,
    _check_index,
    fourier_mub,
    pointer_blocks,
    pointer_observables,
    reconstruction_map,
)
from .qmath import DensityMatrix, eig_hermitian_2x2, hs_distance_sq, purity_stats
from .rng import RandomStream

QUADRATURES = ("R", "I")


@dataclass(frozen=True)
class OutcomeDistribution:
    """Joint law of (j, k): post-selection outcome j and pointer eigenvalue
    lambda_k of the chosen quadrature observable.

    Support ordering is fixed: index 2j+k with j ascending, then k ascending
    (eigenvalues sorted ascending within each j).
    """

    n: int
    quadrature: str
    g: float
    probs: np.ndarray   # length 2d
    values: np.ndarray  # length 2d, the eigenvalue drawn at each support point


@dataclass
class SufficientStats:
    """Per-(n, quadrature, j) running sums of observed pointer eigenvalues."""

    dim: int
    shots: int
    sums_r: np.ndarray = field(default=None)
    sums_i: np.ndarray = field(default=None)
    _filled_r: np.ndarray = field(default=None)
    _filled_i: np.ndarray = field(default=None)

    def __post_init__(self):
        d = self.dim
        if self.sums_r is None:
            self.sums_r = np.zeros((d, d))
        if self.sums_i is None:
            self.sums_i = np.zeros((d, d))
        if self._filled_r is None:
            self._filled_r = np.zeros(d, dtype=bool)
        if self._filled_i is None:
            self._filled_i = np.zeros(d, dtype=bool)

    def record(self, n: int, quadrature: str, sums: np.ndarray) -> None:
        if quadrature == "R":
            self.sums_r[n] = sums
            self._filled_r[n] = True
        elif quadrature == "I":
            self.sums_i[n] = sums
            self._filled_i[n] = True
        else:
            raise ValueError(f"quadrature must be 'R' or 'I', got {quadrature!r}")

    @property
    def complete(self) -> bool:
        return bool(self._filled_r.all() and self._filled_i.all())


@dataclass(frozen=True)
class TomographyEstimate:
    raw: np.ndarray
    hermitized: np.ndarray
    strengths: CouplingStrengths
    shots: int
    seed: int


@dataclass(frozen=True)
class MseReport:
    mse_raw_mean: float
    mse_raw_stderr: float
    mse_herm_mean: float
    mse_herm_stderr: float
    reps: int
    theory_raw: float
    theory_herm: float


def _outcome_laws(
    rho: DensityMatrix, quadrature: str, g: float, bases: MeasurementBases
) -> list[OutcomeDistribution]:
    """The outcome distribution of every coupling index n at strength g, read
    off the pointer blocks: prob(j, k) = <v_k|M[n, j]|v_k>, normalised per n."""
    if quadrature not in QUADRATURES:
        raise ValueError(f"quadrature must be 'R' or 'I', got {quadrature!r}")
    obs = pointer_observables(g)
    evals, evecs = eig_hermitian_2x2(obs.sigma_r if quadrature == "R" else obs.sigma_i)
    blocks, _ = pointer_blocks(rho, g, bases)
    probs = np.einsum("ik,njil,lk->njk", evecs.conj(), blocks, evecs).real.reshape(rho.dim, -1)
    probs = np.maximum(probs, 0.0)  # rounding below zero on a vanishing branch
    probs /= probs.sum(axis=1, keepdims=True)
    values = np.tile(evals, rho.dim)
    return [OutcomeDistribution(n, quadrature, g, probs[n], values) for n in range(rho.dim)]


def outcome_distribution(
    rho: DensityMatrix, n: int, quadrature: str, g: float, bases: MeasurementBases
) -> OutcomeDistribution:
    """Enumerate prob(j,k) = P_j <v_k|rho_d^{nj}|v_k> and the drawn eigenvalues."""
    _check_index(n, rho.dim)
    return _outcome_laws(rho, quadrature, g, bases)[n]


def _check_count(count: int, what: str) -> None:
    if count < 1:
        raise ValueError(f"{what} must be >= 1, got {count}")


def sample_shots(dist: OutcomeDistribution, n_shots: int, rng: RandomStream) -> np.ndarray:
    """Per-j sums of the eigenvalues observed in n_shots draws of `dist`.

    The sums are linear in the outcome counts, so one multinomial draw of the
    2d counts replaces n_shots single draws: O(d) time and memory for any N.
    """
    _check_count(n_shots, "shot count")
    counts = rng.multinomial(n_shots, dist.probs)
    return (counts * dist.values).reshape(-1, 2).sum(axis=1)


def estimate_pw(stats: SufficientStats, strengths: CouplingStrengths) -> np.ndarray:
    """Unbiased estimates of P_j W_nj: (1/2)[-avg_R(j)/g_R + i avg_I(j)/g_I],
    where each average divides by the full shot count N."""
    if not stats.complete:
        raise IncompleteStats("sufficient statistics missing one or more (n, quadrature) configs")
    avg_r = stats.sums_r / stats.shots
    avg_i = stats.sums_i / stats.shots
    return -avg_r / (2.0 * strengths.g_r) + 1j * avg_i / (2.0 * strengths.g_i)


def assemble_estimate(
    pw_table: np.ndarray,
    bases: MeasurementBases,
    strengths: CouplingStrengths,
    shots: int,
    seed: int,
) -> TomographyEstimate:
    """Linear reconstruction raw[n][m] = sum_j (<psi_j|a_m>/<psi_j|a_n>) pw[n][j],
    plus the hermitized combination (raw + raw^dag)/2."""
    raw = reconstruction_map(pw_table, bases.overlaps())
    hermitized = (raw + raw.conj().T) / 2.0
    return TomographyEstimate(
        raw=raw, hermitized=hermitized, strengths=strengths, shots=shots, seed=seed
    )


def _config_distributions(
    rho: DensityMatrix, strengths: CouplingStrengths, bases: MeasurementBases
) -> list:
    """The 2d outcome distributions in fixed order: n ascending, R before I."""
    laws = [_outcome_laws(rho, q, g, bases) for q, g in (("R", strengths.g_r), ("I", strengths.g_i))]
    return [dist for pair in zip(*laws) for dist in pair]


def simulate_once(
    dists: list,
    bases: MeasurementBases,
    strengths: CouplingStrengths,
    n_shots: int,
    stream: RandomStream,
    seed: int,
) -> TomographyEstimate:
    """One experiment: n_shots of each configuration in `dists`, drawn in order from `stream`."""
    stats = SufficientStats(dim=bases.dim, shots=n_shots)
    for dist in dists:
        stats.record(dist.n, dist.quadrature, sample_shots(dist, n_shots, stream))
    return assemble_estimate(estimate_pw(stats, strengths), bases, strengths, n_shots, seed)


def run_experiment(
    rho: DensityMatrix,
    strengths: CouplingStrengths,
    n_shots: int,
    reps: int,
    seed: int,
) -> MseReport:
    """Repeat the full 2d-configuration experiment `reps` times and report the
    empirical MSE of the raw and hermitized estimators, with theory values
    for the same configuration attached."""
    _check_count(reps, "repetition count")
    d = rho.dim
    bases = fourier_mub(d)
    dists = _config_distributions(rho, strengths, bases)

    err_raw = np.zeros(reps)
    err_herm = np.zeros(reps)
    for rep in range(reps):
        est = simulate_once(dists, bases, strengths, n_shots, RandomStream(seed, rep), seed)
        err_raw[rep] = hs_distance_sq(est.raw, rho.matrix)
        err_herm[rep] = hs_distance_sq(est.hermitized, rho.matrix)

    stats_input = theory.TheoryInput(
        dim=d, strengths=strengths, shots=n_shots, purity=purity_stats(rho)
    )
    return MseReport(
        mse_raw_mean=float(err_raw.mean()),
        mse_raw_stderr=float(err_raw.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0,
        mse_herm_mean=float(err_herm.mean()),
        mse_herm_stderr=float(err_herm.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0,
        reps=reps,
        theory_raw=theory.mse_raw(stats_input),
        theory_herm=theory.mse_hermitized(stats_input).total,
    )


def exact_mse_oracle(
    rho: DensityMatrix, strengths: CouplingStrengths, n_shots: int, hermitized: bool = False
) -> float:
    """Exact MSE of the estimator, by enumeration instead of sampling.

    Propagates the per-shot covariances through the reconstruction row
    rho[n][m] = sum_j c_jm (X_j + i Y_j), c_jm = <psi_j|a_m>/<psi_j|a_n>,
    carrying the cross-j covariance within each row exactly.  Rows with
    different n come from disjoint shots and are independent.  A row's
    per-shot covariance over j is diag(s) - mu mu^T (one multinomial draw), so
    element (n, m) gets sum_j |c_jm|^2 s_j - |map(mu)[n, m]|^2 from each quadrature.
    """
    _check_count(n_shots, "shot count")
    d = rho.dim
    bases = fourier_mub(d)
    overlaps = bases.overlaps()
    weights = np.abs(overlaps) ** 2
    variances = []  # per-shot E|rho_hat[n,m] - rho[n,m]|^2, one term per quadrature
    for quadrature, g, sign in (("R", strengths.g_r, -1.0), ("I", strengths.g_i, +1.0)):
        dists = _outcome_laws(rho, quadrature, g, bases)
        p = np.array([dist.probs for dist in dists]).reshape(d, d, 2)
        v = dists[0].values[:2]
        mu = sign * (p @ v) / (2.0 * g)
        second = (p @ (v * v)) / (4.0 * g * g)
        spread = reconstruction_map(second, weights)
        variances.append(spread - np.abs(reconstruction_map(mu, overlaps)) ** 2)
    var_re, var_im = variances
    var_elem = var_re + var_im
    if not hermitized:
        return float(var_elem.sum() / n_shots)
    # At m=n every coefficient is 1: Re rho_hat[n,n] = sum_j X_j, whose variance is var_re[n,n].
    off = (var_elem.sum() - np.trace(var_elem)) / 2.0  # averaging independent rows halves it
    return float((off + np.trace(var_re)) / n_shots)
