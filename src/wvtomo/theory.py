"""Closed-form error analysis: MSE of the raw and hermitized estimators,
optimal coupling strengths, and scaled-MSE baselines for comparison with
projective MUB / SIC tomography."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .protocol import CouplingStrengths
from .qmath import DensityMatrix, PurityStats, check_count, check_dimension, purity_stats


@dataclass(frozen=True)
class TheoryInput:
    dim: int
    strengths: CouplingStrengths
    shots: int
    purity: PurityStats

    def __post_init__(self):
        check_dimension(self.dim)
        check_count(self.shots, "shot count")


def _quadrature_terms(d: int, g_r, g_i):
    """T_R = (d^2/4)/sin^2 g_R + (d/2)/cos^2(g_R/2) and T_I = (d^2/4)/sin^2 g_I, the strength
    terms of every MSE closed form, of floats or arrays; finite for any CouplingStrengths."""
    sr, si, cr = np.sin(g_r), np.sin(g_i), np.cos(g_r / 2.0)
    return d * d / 4.0 / (sr * sr) + d / 2.0 / (cr * cr), d * d / 4.0 / (si * si)


def _raw_bracket(d: int, g_r, g_i, purity: float):
    """N times mse_raw, T_R + T_I - tr(rho^2), for floats or arrays of strengths."""
    t_r, t_i = _quadrature_terms(d, g_r, g_i)
    return t_r + t_i - purity


def _sqrt_term(d: int) -> float:
    return float(np.sqrt(d / 2.0 + d * d / 16.0))


def mse_raw(inp: TheoryInput) -> float:
    """MSE of the raw (non-Hermitian) estimator:
    (1/N)[(d^2/4)(1/sin^2 g_R + 1/sin^2 g_I) + d/(2 cos^2(g_R/2)) - tr(rho^2)]."""
    s = inp.strengths
    return float(_raw_bracket(inp.dim, s.g_r, s.g_i, inp.purity.purity) / inp.shots)


def optimal_strengths(d: int) -> CouplingStrengths:
    """Minimizers of mse_raw: g_R = arccos(1 + d/4 - sqrt(d/2 + d^2/16)), g_I = pi/2."""
    check_dimension(d)
    arg = 1.0 + d / 4.0 - _sqrt_term(d)  # in (0, 1) for every d >= 2
    return CouplingStrengths(g_r=float(np.arccos(arg)), g_i=float(np.pi / 2.0))


def mse_raw_optimal(d: int, shots: int, purity: float) -> float:
    """mse_raw at the optimal strengths:
    (1/N)[3d^2/8 + (d/2)(sqrt(d/2 + d^2/16) + 1) - tr(rho^2)]."""
    check_dimension(d)
    check_count(shots, "shot count")
    return float((3.0 * d * d / 8.0 + d / 2.0 * (_sqrt_term(d) + 1.0) - purity) / shots)


def mse_hermitized(inp: TheoryInput) -> float:
    """MSE of the hermitized estimator, the off-diagonal plus the diagonal part under the
    uniform-variance approximation (exact in the strength terms; the state-dependent term
    spreads tr(rho^2) uniformly over elements).  See mse_hermitized_exact for the exact
    bookkeeping."""
    d, n = inp.dim, inp.shots
    t_r, _ = _quadrature_terms(d, inp.strengths.g_r, inp.strengths.g_i)
    off = (d - 1.0) / (2.0 * d) * mse_raw(inp)  # the raw bracket, over the off-diagonal pairs
    dia = (t_r - inp.purity.purity_re) / (d * n)
    return float(off + dia)


def mse_hermitized_optimal(d: int, shots: int, purity_re: float, purity_im: float) -> float:
    """mse_hermitized at the optimal strengths:
    ((d+1)/2dN)[d^2/8 + (d/2)(sqrt(d/2+d^2/16)+1) - tr((Re rho)^2)]
    + ((d-1)/2dN)[d^2/4 - tr((Im rho)^2)]."""
    check_dimension(d)
    check_count(shots, "shot count")
    s = _sqrt_term(d)
    term_re = (d + 1.0) / (2.0 * d * shots) * (d * d / 8.0 + d / 2.0 * (s + 1.0) - purity_re)
    term_im = (d - 1.0) / (2.0 * d * shots) * (d * d / 4.0 - purity_im)
    return float(term_re + term_im)


def mse_hermitized_exact(rho: DensityMatrix, strengths: CouplingStrengths, shots: int) -> float:
    """Hermitized MSE with exact per-element variance bookkeeping.

    Differs from mse_hermitized by
        [sum_n rho_nn^2 / 2 - (tr((Re rho)^2) - tr((Im rho)^2)) / (2d)] / N,
    which vanishes only for special states; exact_mse_oracle, which propagates the exact
    per-shot covariances, matches this form to machine precision.
    """
    check_count(shots, "shot count")
    d = rho.dim
    t_r, t_i = _quadrature_terms(d, strengths.g_r, strengths.g_i)
    diag_sq = float(np.sum(rho.matrix.diagonal().real ** 2))
    return float((((d + 1.0) * t_r + (d - 1.0) * t_i) / (2.0 * d)
                  - (purity_stats(rho).purity + diag_sq) / 2.0) / shots)


def scaled_mse_menu(d: int, purity: float, purity_re: float, purity_im: float) -> dict[str, float]:
    """Per-measurement (and per-copy) scaled MSEs of this scheme at its optimum, next to the
    projective MUB and SIC baselines, keyed by their `compare` CSV column names.

    The *_approx columns are the large-d forms (half of and d times the raw bracket);
    hermitized_per_shot_exact is mse_hermitized_optimal, the uniform-variance hermitized form
    at the optimum, not the exact hermitized MSE of a state.
    """
    bracket = mse_raw_optimal(d, 1, purity)  # guards d
    return {
        "raw_per_shot": float(bracket),
        "hermitized_per_shot_approx": float(bracket / 2.0),
        "hermitized_per_shot_exact": mse_hermitized_optimal(d, 1, purity_re, purity_im),
        "per_copy_approx": float(d * bracket),
        "mub": float((d + 1.0) * (d - purity)),
        "sic": float(d * d + d - 1.0 - purity),
    }


def numeric_optimal_strengths(d: int) -> CouplingStrengths:
    """Independent check of optimal_strengths: mse_raw in each strength, the other at pi/2, on
    a 201-point grid over (0.01, pi-0.01) narrowed to one step either side of its argmin until
    under 1e-7 wide.  Each grid is one array call of the raw bracket (N = 1, tr(rho^2) = 0)."""
    check_dimension(d)
    found = []
    for f in (lambda g: _raw_bracket(d, g, np.pi / 2.0, 0.0),
              lambda g: _raw_bracket(d, np.pi / 2.0, g, 0.0)):
        lo, hi = 0.01, np.pi - 0.01
        while hi - lo >= 1e-7:
            grid = np.linspace(lo, hi, 201)
            k = int(np.argmin(f(grid)))
            lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, 200)]
        found.append((lo + hi) / 2.0)
    return CouplingStrengths(g_r=found[0], g_i=found[1])
