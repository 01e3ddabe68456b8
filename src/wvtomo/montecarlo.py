"""Shot-level simulation of the tomography experiment and its exact
error analysis.

One "measurement" consumes one shot of each of the 2d configurations
(d coupling indices x 2 pointer quadratures); N shots per configuration
means 2dN state copies.  The estimator reads each configuration only
through its per-j sums of pointer eigenvalues, so one repetition is a draw
of the outcome counts of every configuration's N shots over
`outcome_table`'s two quadrature laws, each of (n, post-selection j, pointer
eigenvalue k), by `RandomStream.multinomial` (its docstring gives its two
draws); memory is bounded by the count array, not by N.  The draw's sums make
one `SufficientStats`, two whole (n, j) tables checked when built, which
`estimate_pw` reads.  An `OutcomeTable` carries the whole design (laws,
strengths, bases and N), so the draws and the oracle read N off the table.

One stream contract, kept by `_quadrature_sums` alone: the R rows of an
experiment's repetitions are drawn in (rep, n) order from the stream the
caller passes, and the I rows in (rep, n) order from that stream's twin
(`RandomStream.twin`).  So a quadrature's draws depend only on its own law,
and a sweep draws a quadrature again only when its strength moves, at any
batch count, while the sums it holds fit SUMS_ELEMENTS (reps * d^2 <= 2^15:
1310 repetitions at d=5, 32 at d=32).  A quadrature above that budget is
drawn a batch at a time at every step, so that a sweep holds at most the
budget's sums and one batch.  A table's laws are built read-only, each as the
one `PreparedLaw` its draws read, so a per-shot draw's CDF table is built once
per law, however many batches, steps of a sweep or shot counts draw from it.

`exact_mse_oracle` computes the estimator's mean-square error with no
sampling at all, by propagating exact per-shot covariances through the
linear reconstruction map.  It is the arbiter the closed-form theory is
tested against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

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
from .rng import PreparedLaw, RandomStream

QUADRATURES = ("R", "I")
# Estimate entries per batch of repetitions: 6 repetitions at d=32, 245 at d=5.  At d=32,
# run_experiment over three batches and one more peaks (tracemalloc) at about 595 KiB at
# N=10^4 and 628 KiB at N=63 (the per-shot draw, beside its two laws' CDF tables),
# under the 1 MiB its tests allow; 8 repetitions a batch peak at about 755 and 788 KiB.
BATCH_ELEMENTS = 6 * 2**10
# Sums entries a sweep may hold across steps (256 KiB of float64), for the quadratures whose
# strength stays: the room the 1 MiB bound leaves beside one batch at d=32, N = 2d - 1.  A
# d=32 sweep holding the whole budget peaks at about 803 KiB at N=10^4 and 836 KiB at N=63.
SUMS_ELEMENTS = 2**15


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class OutcomeTable:
    """`outcome_table`'s two quadrature laws with the strengths and bases they were built at,
    and the shots each of the 2d configurations gets: the whole design of an experiment.
    The same laws at another shot count are `dataclasses.replace(table, shots=n)`."""

    laws: tuple  # (rows over (j, k), values[k]) of R, then of I, as `_quadrature_law` returns
    strengths: CouplingStrengths
    bases: MeasurementBases
    shots: int

    def __post_init__(self):
        check_count(self.shots, "shot count")


@dataclass(frozen=True, eq=False)
class SufficientStats:
    """Per-(n, quadrature, j) sums of observed pointer eigenvalues, `shots` shots a
    configuration: sums_r[..., n, j] and sums_i[..., n, j], two (..., d, d) tables of one
    shape, experiments stacked on any leading axes.  Checked once, when built; a NaN sum is
    a configuration that was not drawn."""

    shots: int
    sums_r: np.ndarray
    sums_i: np.ndarray

    def __post_init__(self):
        check_count(self.shots, "shot count")
        shape = np.shape(self.sums_r)
        if len(shape) < 2 or shape[-1] != shape[-2] or np.shape(self.sums_i) != shape:
            raise ShapeMismatch("sums must be two (..., d, d) tables of one shape, "
                                f"got {shape} and {np.shape(self.sums_i)}")
        check_dimension(shape[-1])
        if np.isnan(self.sums_r).any() or np.isnan(self.sums_i).any():
            raise IncompleteStats("sufficient statistics missing one or more (n, quadrature) "
                                  "configs")


@dataclass(frozen=True, eq=False)
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


def _quadrature_law(features: tuple, quadrature: str, g: float) -> tuple[PreparedLaw, np.ndarray]:
    """prob[n, j, k] = <v_k|M[n, j]|v_k> = |v_0|^2 M00 + |v_1|^2 M11 + 2 Re(conj(v_0) v_1 M01)
    over the `_pointer_parts` of M at strength g, normalised per n, as the `PreparedLaw` of
    its d rows over (j, k) that every draw reads, and the quadrature's eigenvalues lambda_k.
    Before the clamp each entry is linear in the features of rho."""
    if quadrature not in QUADRATURES:
        raise ValueError(f"quadrature must be 'R' or 'I', got {quadrature!r}")
    obs = pointer_observables(g)
    evals, (v0, v1) = eig_hermitian_2x2(obs.sigma_r if quadrature == "R" else obs.sigma_i)
    m00, m01, m11 = _pointer_parts(features, g)
    w0, w1, w01 = np.abs(v0) ** 2, np.abs(v1) ** 2, 2.0 * v0.conj() * v1
    # One whole (n, j) plane per eigenvalue k: no length-2 inner loops over k.
    probs = np.stack([w0[k] * m00 + w1[k] * m11 + (w01[k] * m01).real for k in range(2)], -1)
    probs = _clamp_probs(probs, len(features[0]))
    probs /= probs.sum(axis=(1, 2), keepdims=True)
    # Read-only: a sweep's cache hands one law, and the CDF table it keeps, to every step.
    probs.flags.writeable = evals.flags.writeable = False
    return PreparedLaw(probs.reshape(len(probs), -1)), evals


def outcome_table(
    rho: DensityMatrix, strengths: CouplingStrengths, bases: MeasurementBases, shots: int
) -> OutcomeTable:
    """The law of all 2d configurations, `shots` shots each, from one `_features` pass: for
    R at g_R and then I at g_I, row n over (j, k) of post-selection outcome j and
    eigenvalue values[k] when coupling index n is read in that quadrature.  Each row sums
    to 1."""
    features = _features(rho, bases)
    return OutcomeTable((_quadrature_law(features, "R", strengths.g_r),
                         _quadrature_law(features, "I", strengths.g_i)), strengths, bases, shots)


def outcome_distribution(
    rho: DensityMatrix, n: int, quadrature: str, g: float, bases: MeasurementBases
) -> OutcomeDistribution:
    """Enumerate prob(j,k) = P_j <v_k|rho_d^{nj}|v_k> and the drawn eigenvalues."""
    _check_index(n, rho.dim)
    a, b, c = _features(rho, bases)
    rows, values = _quadrature_law((a, b[n:n + 1], c[n:n + 1]), quadrature, g)  # row n only
    return OutcomeDistribution(n, quadrature, g, rows.pvals[0], np.tile(values, rho.dim))


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


def _quadrature_sums(table: OutcomeTable, q: str, stream: RandomStream, count: int) -> np.ndarray:
    """sums[rep, n, j] of `count` experiments' draws of quadrature q's law in `table` (its
    d rows over (j, k), and values[k]): one multinomial call over its d rows in (rep, n)
    order, table.shots each, from `stream` for R and from `stream.twin` for I.  That is the
    module's stream contract."""
    rows, values = table.laws[QUADRATURES.index(q)]
    d = len(rows.pvals)
    source = stream if q == "R" else stream.twin
    c = source.multinomial(table.shots, rows, size=(count, d)).reshape(count, d, d, 2)
    # The two k slices of c[rep, n, j, k] added in place: what a length-2 sum over k
    # computes, without the (rep, n, j, k) float temporary or a third float array.
    sums = c[..., 0] * values[0]
    sums += c[..., 1] * values[1]
    return sums


def _sample_stats(table: OutcomeTable, stream: RandomStream, count: int) -> SufficientStats:
    """`count` experiments of `table`, their sums stacked on a leading axis and drawn from
    `stream` as `_quadrature_sums` says."""
    sums_r, sums_i = (_quadrature_sums(table, q, stream, count) for q in QUADRATURES)
    return SufficientStats(table.shots, sums_r, sums_i)


def simulate_once(table: OutcomeTable, stream: RandomStream) -> TomographyEstimate:
    """One experiment: table.shots of every configuration of `table`, drawn from `stream` as
    `_quadrature_sums` says, estimated at its strengths and bases."""
    stats = _sample_stats(table, stream, 1)
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
    of the two the cache holds.  A quadrature whose strength the next step keeps has its
    sums of every repetition drawn once, a batch-sized draw at a time, and held until its
    strength moves, while the held sums total at most SUMS_ELEMENTS; any other quadrature is
    drawn a batch at a time.  Either way its rows are drawn as a fresh stream draws them, from
    the step's table, so every step equals a standalone `run_experiment`."""
    check_count(reps, "repetition count")
    d = rho.dim
    bases = fourier_mub(d)
    features = _features(rho, bases)
    purity = purity_stats(rho)
    batch = max(1, BATCH_ELEMENTS // d**2)
    law = functools.lru_cache(maxsize=2)(functools.partial(_quadrature_law, features))

    held = [None, None]  # each quadrature's sums of every repetition, while its strength stays
    reports = []
    pairs = [(s.g_r, s.g_i) for s in steps]
    for strengths, now, after in zip(steps, pairs, pairs[1:] + [(None, None)]):
        keeps = [g == g_next for g, g_next in zip(now, after)]  # the next step keeps it
        laws = tuple(law(q, g) for q, g in zip(QUADRATURES, now))
        table = OutcomeTable(laws, strengths, bases, n_shots)
        stream = RandomStream(seed)
        for i, q in enumerate(QUADRATURES):
            room = SUMS_ELEMENTS - sum(h.size for h in held if h is not None)
            if keeps[i] and held[i] is None and reps * d**2 <= room:
                held[i] = np.empty((reps, d, d))  # filled one batch-sized draw at a time
                for start in range(0, reps, batch):
                    part = held[i][start:start + batch]
                    part[:] = _quadrature_sums(table, q, stream, len(part))

        errors = np.zeros((2, reps))  # squared raw and hermitized error of each repetition
        for start in range(0, reps, batch):
            out = errors[:, start:start + batch]
            sums = (_quadrature_sums(table, q, stream, out.shape[1])
                    if held[i] is None else held[i][start:start + batch]
                    for i, q in enumerate(QUADRATURES))
            _batch_errors(table, SufficientStats(table.shots, *sums), rho.matrix, out)
        held = [h if keep else None for h, keep in zip(held, keeps)]
        mean = errors.mean(axis=1)
        stderr = errors.std(ddof=1, axis=1) / np.sqrt(reps) if reps > 1 else np.zeros(2)

        stats_input = theory.TheoryInput(dim=d, strengths=strengths, shots=n_shots, purity=purity)
        oracle_raw, oracle_herm = _oracle(table)
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


def _oracle(table: OutcomeTable):
    """(raw, hermitized) exact MSE of `exact_mse_oracle`, from one variance pass over `table`."""
    s, overlaps = table.strengths, table.bases.overlaps()
    weights = np.abs(overlaps) ** 2
    variances = []  # per-shot E|rho_hat[n,m] - rho[n,m]|^2, one term per quadrature
    for (rows, v), g, sign in zip(table.laws, (s.g_r, s.g_i), (-1.0, 1.0)):
        p = rows.pvals.reshape(len(rows.pvals), -1, 2)  # [n, j, k]
        mu = sign * (p @ v) / (2.0 * g)
        second = (p @ (v * v)) / (4.0 * g * g)
        spread = reconstruction_map(second, weights)
        variances.append(spread - np.abs(reconstruction_map(mu, overlaps)) ** 2)
    var_re, var_im = variances
    var_elem = var_re + var_im
    # At m=n every coefficient is 1: Re rho_hat[n,n] = sum_j X_j, whose variance is var_re[n,n].
    off = (var_elem.sum() - np.trace(var_elem)) / 2.0  # averaging independent rows halves it
    return float(var_elem.sum() / table.shots), float((off + np.trace(var_re)) / table.shots)


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
    raw, herm = _oracle(outcome_table(rho, strengths, fourier_mub(rho.dim), n_shots))
    return herm if hermitized else raw
