"""Shot-level simulation of the tomography experiment and its exact
error analysis.

One "measurement" consumes one shot of each of the 2d configurations
(d coupling indices x 2 pointer quadratures); N shots per configuration
means 2dN state copies.  The estimator reads each configuration only
through its per-j sums of pointer eigenvalues, so one repetition is a draw
of the outcome counts of every configuration's N shots over
`outcome_table`'s two quadrature laws, each of (n, post-selection j, pointer
eigenvalue k), by `RandomStream.multinomial` (its docstring gives its two
draws); memory is bounded by the count array, not by N.

One stream contract, kept by `_quadrature_sums` alone: the R rows of an
experiment's repetitions are drawn in (rep, n) order from the stream the
caller passes, and the I rows in (rep, n) order from that stream's twin
(`RandomStream.twin`).  So a quadrature's draws depend only on its own law,
and a sweep whose repetitions fit one batch draws a quadrature again only
when its strength moves.  A sweep of more than one batch a step (the CLI
default d=5 with 1000 repetitions, or d=32 beyond 6) draws both quadratures
every step, so that it holds no more than one batch.

`exact_mse_oracle` computes the estimator's mean-square error with no
sampling at all, by propagating exact per-shot covariances through the
linear reconstruction map.  It is the arbiter the closed-form theory is
tested against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import theory
from .errors import IncompleteStats, ShapeMismatch
from .protocol import (
    CouplingStrengths,
    MeasurementBases,
    _check_index,
    _clamp_probs,
    _features,
    _pointer_parts,
    fourier_mub,
    pointer_observables,
    reconstruction_map,
)
from .qmath import (
    DensityMatrix, check_count, check_dimension, eig_hermitian_2x2, hs_distance_sq, purity_stats,
)
from .rng import RandomStream

QUADRATURES = ("R", "I")
# Estimate entries per batch of repetitions: 6 repetitions at d=32, 245 at d=5.  At d=32,
# run_experiment over three batches and one more peaks (tracemalloc) at about 655 KiB at
# N=10^4 and 830 KiB at N=63, under the 1 MiB its tests allow.  8 repetitions peak at 1027
# KiB at N=63: at N = 2d - 1 the per-shot draw holds several (rows, N) arrays.
BATCH_ELEMENTS = 6 * 2**10


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


@dataclass(frozen=True)
class OutcomeTable:
    """`outcome_table`'s two quadrature laws with the strengths and bases they were built at."""

    laws: tuple  # (probs[n, j, k], values[k]) of R, then of I, as `_quadrature_law` returns
    strengths: CouplingStrengths
    bases: MeasurementBases


@dataclass
class SufficientStats:
    """Per-(n, quadrature, j) sums of observed pointer eigenvalues; NaN: not yet recorded."""

    dim: int
    shots: int
    sums_r: np.ndarray = field(default=None)
    sums_i: np.ndarray = field(default=None)

    def __post_init__(self):
        check_dimension(self.dim)
        check_count(self.shots, "shot count")
        if self.sums_r is None:
            self.sums_r = np.full((self.dim, self.dim), np.nan)
        if self.sums_i is None:
            self.sums_i = np.full((self.dim, self.dim), np.nan)

    def record(self, n: int, quadrature: str, sums: np.ndarray) -> None:
        _check_quadrature(quadrature)
        _check_index(n, self.dim)
        if np.shape(sums) != (self.dim,):
            raise ShapeMismatch(f"sums must have shape ({self.dim},), got {np.shape(sums)}")
        (self.sums_r if quadrature == "R" else self.sums_i)[n] = sums

    @property
    def complete(self) -> bool:
        return not (np.isnan(self.sums_r).any() or np.isnan(self.sums_i).any())


@dataclass(frozen=True)
class TomographyEstimate:
    raw: np.ndarray
    hermitized: np.ndarray


@dataclass(frozen=True)
class MseReport:
    mse_raw_mean: float
    mse_raw_stderr: float
    mse_herm_mean: float
    mse_herm_stderr: float
    reps: int
    theory_raw: float
    theory_herm: float
    oracle_raw: float
    oracle_herm: float


def _check_quadrature(quadrature: str) -> None:
    if quadrature not in QUADRATURES:
        raise ValueError(f"quadrature must be 'R' or 'I', got {quadrature!r}")


def _quadrature_law(features: tuple, quadrature: str, g: float) -> tuple[np.ndarray, np.ndarray]:
    """prob[n, j, k] = <v_k|M[n, j]|v_k> = |v_0|^2 M00 + |v_1|^2 M11 + 2 Re(conj(v_0) v_1 M01)
    over the `_pointer_parts` of M at strength g, normalised per n, and the quadrature's
    eigenvalues lambda_k.  Before the clamp each entry is linear in the features of rho."""
    _check_quadrature(quadrature)
    obs = pointer_observables(g)
    evals, (v0, v1) = eig_hermitian_2x2(obs.sigma_r if quadrature == "R" else obs.sigma_i)
    m00, m01, m11 = _pointer_parts(features, g)
    w0, w1, w01 = np.abs(v0) ** 2, np.abs(v1) ** 2, 2.0 * v0.conj() * v1
    # One whole (n, j) plane per eigenvalue k: no length-2 inner loops over k.
    probs = np.stack([w0[k] * m00 + w1[k] * m11 + (w01[k] * m01).real for k in range(2)], -1)
    probs = _clamp_probs(probs, len(features[0]))
    probs /= probs.sum(axis=(1, 2), keepdims=True)
    return probs, evals


def outcome_table(
    rho: DensityMatrix, strengths: CouplingStrengths, bases: MeasurementBases
) -> OutcomeTable:
    """The law of all 2d configurations, from one `_features` pass: for R at g_R and then
    I at g_I, probs[n, j, k] of post-selection outcome j and eigenvalue values[k] when
    coupling index n is read in that quadrature.  Each row n of a law sums to 1."""
    features = _features(rho, bases)
    return OutcomeTable((_quadrature_law(features, "R", strengths.g_r),
                         _quadrature_law(features, "I", strengths.g_i)), strengths, bases)


def outcome_distribution(
    rho: DensityMatrix, n: int, quadrature: str, g: float, bases: MeasurementBases
) -> OutcomeDistribution:
    """Enumerate prob(j,k) = P_j <v_k|rho_d^{nj}|v_k> and the drawn eigenvalues."""
    _check_index(n, rho.dim)
    a, b, c = _features(rho, bases)
    probs, values = _quadrature_law((a, b[n:n + 1], c[n:n + 1]), quadrature, g)  # row n only
    return OutcomeDistribution(n, quadrature, g, probs[0].ravel(), np.tile(values, rho.dim))


def sample_shots(dist: OutcomeDistribution, n_shots: int, rng: RandomStream) -> np.ndarray:
    """Per-j sums of the eigenvalues observed in n_shots draws of `dist`, from one
    `RandomStream.multinomial` draw of its 2d outcome counts (memory O(d)): the
    per-configuration reference that `simulate_once`'s stacked draw is tested against."""
    check_count(n_shots, "shot count")
    counts = rng.multinomial(n_shots, dist.probs)
    return (counts * dist.values).reshape(-1, 2).sum(axis=1)


def estimate_pw(stats: SufficientStats, strengths: CouplingStrengths) -> np.ndarray:
    """Unbiased estimates of P_j W_nj: (1/2)[-avg_R(j)/g_R + i avg_I(j)/g_I],
    where each average divides by the full shot count N.  Each half is written once, in
    place, into the one complex result; the sums are not written."""
    if not stats.complete:
        raise IncompleteStats("sufficient statistics missing one or more (n, quadrature) configs")
    pw = np.empty(np.shape(stats.sums_r), dtype=complex)
    re, im = pw.real, pw.imag
    np.divide(stats.sums_r, stats.shots, out=re)
    re /= -2.0 * strengths.g_r
    np.divide(stats.sums_i, stats.shots, out=im)
    # Times the reciprocal, as numpy's division of a complex array by a real scalar computes
    # it: a division by 2 g_I would move some values by one ulp.
    im *= 1.0 / (2.0 * strengths.g_i)
    return pw


def assemble_estimate(pw_table: np.ndarray, bases: MeasurementBases) -> TomographyEstimate:
    """Linear reconstruction raw[n][m] = sum_j (<psi_j|a_m>/<psi_j|a_n>) pw[n][j],
    plus the hermitized combination (raw + raw^dag)/2, for each table of a stack, from the
    bases' own overlaps: one new C-contiguous hermitized array; pw_table is not written."""
    raw = reconstruction_map(pw_table, bases.overlaps())
    herm = np.conjugate(raw.swapaxes(-1, -2), order="C")  # not in the swapped layout
    herm += raw
    herm /= 2.0
    return TomographyEstimate(raw=raw, hermitized=herm)


def _quadrature_sums(
    q: str, law: tuple, n_shots: int, stream: RandomStream, count: int
) -> np.ndarray:
    """sums[rep, n, j] of `count` experiments' draws of quadrature q's law (probs[n, j, k],
    values[k]): one multinomial call over its d rows in (rep, n) order, n_shots each, from
    `stream` for R and from `stream.twin` for I.  That is the module's stream contract."""
    probs, values = law
    d = len(probs)
    source = stream if q == "R" else stream.twin
    counts = source.multinomial(n_shots, probs.reshape(d, -1), size=(count, d))
    c = counts.reshape(count, *probs.shape)  # [rep, n, j, k]
    # The two k slices added in place: what a length-2 sum over k computes, without the
    # (rep, n, j, k) float temporary or a third float array.
    sums = c[..., 0] * values[0]
    sums += c[..., 1] * values[1]
    return sums


def _sample_stats(
    table: OutcomeTable, n_shots: int, stream: RandomStream, count: int
) -> SufficientStats:
    """`count` experiments of `table`, n_shots each, their sums stacked on a leading axis
    and drawn from `stream` as `_quadrature_sums` says."""
    check_count(n_shots, "shot count")
    sums_r, sums_i = (_quadrature_sums(q, law, n_shots, stream, count)
                      for q, law in zip(QUADRATURES, table.laws))
    return SufficientStats(sums_r.shape[-1], n_shots, sums_r, sums_i)


def simulate_once(table: OutcomeTable, n_shots: int, stream: RandomStream) -> TomographyEstimate:
    """One experiment: n_shots of every configuration of `table`, drawn from `stream` as
    `_quadrature_sums` says, estimated at its strengths and bases."""
    stats = _sample_stats(table, n_shots, stream, 1)
    est = assemble_estimate(estimate_pw(stats, table.strengths), table.bases)
    return TomographyEstimate(raw=est.raw[0], hermitized=est.hermitized[0])


def run_experiment(
    rho: DensityMatrix,
    strengths: CouplingStrengths,
    n_shots: int,
    reps: int,
    seed: int,
) -> MseReport:
    """Repeat the full 2d-configuration experiment `reps` times, drawn from RandomStream(seed)
    as `_quadrature_sums` says and estimated a batch at a time, and report the empirical
    MSE of the raw and hermitized estimators, with theory and oracle attached."""
    return run_sweep(rho, [strengths], n_shots, reps, seed)[0]


def run_sweep(
    rho: DensityMatrix, steps: list[CouplingStrengths], n_shots: int, reps: int, seed: int
) -> list[MseReport]:
    """`run_experiment` at each CouplingStrengths of `steps`, in order: each step draws
    from a fresh RandomStream(seed) and reads its oracle off the table it sampled.  The
    bases, features and purity of rho are built once per sweep, and a quadrature's law only
    when its strength moves: a step that moves one evicts that law, the least recently read
    of the two the cache holds.  When a step's repetitions fit one batch, the cache holds
    each law's sums beside it, drawn as a fresh stream draws them, so a quadrature whose
    strength did not move is not drawn again and every step still equals a standalone
    `run_experiment`.  Steps of more than one batch draw both quadratures every step, so
    that no more than one batch is held."""
    check_count(reps, "repetition count")
    check_count(n_shots, "shot count")
    d = rho.dim
    bases = fourier_mub(d)
    features = _features(rho, bases)
    purity = purity_stats(rho)
    batch = max(1, BATCH_ELEMENTS // d**2)
    one_batch = reps <= batch

    @functools.lru_cache(maxsize=2)
    def quadrature(q: str, g: float):
        """q's law at strength g and, in a one-batch sweep, its sums of every repetition."""
        law = _quadrature_law(features, q, g)
        return law, (_quadrature_sums(q, law, n_shots, RandomStream(seed), reps)
                     if one_batch else None)

    reports = []
    for strengths in steps:
        (law_r, sums_r), (law_i, sums_i) = (quadrature("R", strengths.g_r),
                                            quadrature("I", strengths.g_i))
        table = OutcomeTable((law_r, law_i), strengths, bases)

        errors = np.zeros((2, reps))  # squared raw and hermitized error of each repetition
        stream = None if one_batch else RandomStream(seed)
        for start in range(0, reps, batch):  # one pass when one_batch: reps <= batch
            out = errors[:, start:start + batch]
            _batch_errors(table, SufficientStats(d, n_shots, sums_r, sums_i) if one_batch
                          else _sample_stats(table, n_shots, stream, out.shape[1]),
                          rho.matrix, out)
        mean = errors.mean(axis=1)
        stderr = errors.std(ddof=1, axis=1) / np.sqrt(reps) if reps > 1 else np.zeros(2)

        stats_input = theory.TheoryInput(dim=d, strengths=strengths, shots=n_shots, purity=purity)
        oracle_raw, oracle_herm = _oracle(table, n_shots)
        reports.append(MseReport(
            mse_raw_mean=float(mean[0]), mse_raw_stderr=float(stderr[0]),
            mse_herm_mean=float(mean[1]), mse_herm_stderr=float(stderr[1]),
            reps=reps,
            theory_raw=theory.mse_raw(stats_input),
            theory_herm=theory.mse_hermitized(stats_input),
            oracle_raw=oracle_raw, oracle_herm=oracle_herm,
        ))
    return reports


def _batch_errors(
    table: OutcomeTable, stats: SufficientStats, matrix: np.ndarray, out: np.ndarray
) -> None:
    """Fill the two rows of `out` with the squared raw and hermitized errors against `matrix`
    of the experiments of `stats`, one a column.  A batch's estimates live only in this call,
    and its counts and sums only in the caller's expression, so none of them is still held
    while the next batch draws."""
    est = assemble_estimate(estimate_pw(stats, table.strengths), table.bases)
    out[:] = hs_distance_sq(est.raw, matrix), hs_distance_sq(est.hermitized, matrix)


def _oracle(table: OutcomeTable, n_shots: int):
    """(raw, hermitized) exact MSE of `exact_mse_oracle`, from one variance pass over `table`."""
    s, overlaps = table.strengths, table.bases.overlaps()
    weights = np.abs(overlaps) ** 2
    variances = []  # per-shot E|rho_hat[n,m] - rho[n,m]|^2, one term per quadrature
    for (p, v), g, sign in zip(table.laws, (s.g_r, s.g_i), (-1.0, 1.0)):
        mu = sign * (p @ v) / (2.0 * g)
        second = (p @ (v * v)) / (4.0 * g * g)
        spread = reconstruction_map(second, weights)
        variances.append(spread - np.abs(reconstruction_map(mu, overlaps)) ** 2)
    var_re, var_im = variances
    var_elem = var_re + var_im
    # At m=n every coefficient is 1: Re rho_hat[n,n] = sum_j X_j, whose variance is var_re[n,n].
    off = (var_elem.sum() - np.trace(var_elem)) / 2.0  # averaging independent rows halves it
    return float(var_elem.sum() / n_shots), float((off + np.trace(var_re)) / n_shots)


def exact_mse_oracle(
    rho: DensityMatrix, strengths: CouplingStrengths, n_shots: int, hermitized: bool = False
) -> float:
    """Exact MSE of the estimator, with no sampling and no enumeration of outcomes.

    Propagates the per-shot covariances through the reconstruction row
    rho[n][m] = sum_j c_jm (X_j + i Y_j), c_jm = <psi_j|a_m>/<psi_j|a_n>,
    carrying the cross-j covariance within each row exactly.  Rows with
    different n come from disjoint shots and are independent.  A row's
    per-shot covariance over j is diag(s) - mu mu^T (one multinomial draw), so
    element (n, m) gets sum_j |c_jm|^2 s_j - |map(mu)[n, m]|^2 from each quadrature.
    """
    check_count(n_shots, "shot count")
    raw, herm = _oracle(outcome_table(rho, strengths, fourier_mub(rho.dim)), n_shots)
    return herm if hermitized else raw
