"""Density-matrix utilities: validation, purity bookkeeping, random
ensembles, Hilbert-Schmidt distance, and a closed-form 2x2 Hermitian
eigensolver used for pointer readout.

Matrices are plain complex ndarrays.  A validated state is wrapped in
:class:`DensityMatrix` so downstream code can rely on its invariants.
`check_dimension`, `check_count` and `check_rank` are the one guards of a dimension, a shot
or repetition count and a mixed-state rank, for the library and the command line alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidDimension,
    InvalidRank,
    NotFinite,
    NotHermitian,
    NotPositive,
    ShapeMismatch,
    TraceNotOne,
)
from .rng import RandomStream

# Validation tolerances (absolute; states are trace-normalized so the scale is 1).
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_TOL = 1e-10
# numpy draws counts and sizes arrays as int64: a larger count cannot run.
COUNT_MAX = 2**63 - 1


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated d x d quantum state.  Construct via :func:`validate_density`."""

    dim: int
    matrix: np.ndarray


@dataclass(frozen=True)
class PurityStats:
    """tr(rho^2) split into elementwise real/imaginary contributions.

    purity_re = sum (Re rho_nm)^2 and purity_im = sum (Im rho_nm)^2, so that
    purity == purity_re + purity_im for any Hermitian rho.
    """

    purity: float
    purity_re: float
    purity_im: float


def check_dimension(d: int) -> None:
    """The one guard of the system dimension, for every entry that takes d: an integer (not
    a bool), at least 2."""
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
        raise InvalidDimension(f"system dimension must be an integer, got {d!r}")
    if d < 2:
        raise InvalidDimension(f"system dimension must be >= 2, got {d}")


def check_count(count: int, what: str) -> None:
    """The one guard of a shot or repetition count: an integer (not a bool) in 1..COUNT_MAX."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {count!r}")
    if count < 1:
        raise ValueError(f"{what} must be >= 1, got {count}")
    if count > COUNT_MAX:
        raise ValueError(f"{what} must be <= {COUNT_MAX}, got {count}")


def check_rank(rank: int, d: int) -> None:
    """The one guard of a mixed-state rank: an integer (not a bool) in 1..d."""
    if isinstance(rank, bool) or not isinstance(rank, (int, np.integer)):
        raise InvalidRank(f"rank must be an integer, got {rank!r}")
    if not 1 <= rank <= d:
        raise InvalidRank(f"rank must be in 1..{d}, got {rank}")


def _check_finite(m: np.ndarray, what: str) -> None:
    """Raise NotFinite naming the first NaN or infinite entry of m: a tolerance test
    such as `deviation > tol` is False for NaN, so it must not see one."""
    if not np.isfinite(m).all():
        at = tuple(int(i) for i in np.argwhere(~np.isfinite(m))[0])
        raise NotFinite(f"{what} entry {list(at)} = {m[at]} is not finite")


def _check_hermitian(m: np.ndarray, what: str) -> None:
    """Raise NotFinite, then NotHermitian if m deviates from m^dag beyond HERMITIAN_TOL."""
    _check_finite(m, what)
    herm_dev = np.max(np.abs(m - m.conj().T))
    if herm_dev > HERMITIAN_TOL:
        raise NotHermitian(f"max |m - m^dag| = {herm_dev:.3e} exceeds {HERMITIAN_TOL:.0e}")


def validate_density(m: np.ndarray) -> DensityMatrix:
    """Check finiteness, Hermiticity, unit trace and positivity, and wrap the matrix.

    Raises ShapeMismatch / InvalidDimension / NotFinite / NotHermitian /
    TraceNotOne / NotPositive with the measured deviation in the message.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"density matrix must be square 2-D, got shape {m.shape}")
    d = m.shape[0]
    check_dimension(d)
    _check_hermitian(m, "density matrix")
    trace_dev = abs(np.trace(m) - 1.0)
    if trace_dev > TRACE_TOL:
        raise TraceNotOne(f"|tr(m) - 1| = {trace_dev:.3e} exceeds {TRACE_TOL:.0e}")
    min_eig = float(np.linalg.eigvalsh(m)[0])
    if min_eig < -EIGENVALUE_TOL:
        raise NotPositive(f"smallest eigenvalue {min_eig:.3e} below -{EIGENVALUE_TOL:.0e}")
    return DensityMatrix(dim=d, matrix=m)


def project_to_density(m: np.ndarray) -> DensityMatrix:
    """The density matrix nearest to m in Hilbert-Schmidt distance: the eigenvalues
    of m's Hermitian part projected onto the probability simplex, its eigenvectors
    kept (Smolin, Gambetta & Smith, PRL 108, 070502 (2012)).  O(d^3)."""
    m = np.asarray(m, dtype=complex)
    _check_finite(m, "matrix")
    evals, evecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    desc = evals[::-1]
    shifts = (np.cumsum(desc) - 1.0) / np.arange(1, len(desc) + 1)
    shift = shifts[np.flatnonzero(desc > shifts)[-1]]
    proj = (evecs * np.maximum(evals - shift, 0.0)) @ evecs.conj().T
    return validate_density((proj + proj.conj().T) / 2.0)


def purity_stats(rho: DensityMatrix) -> PurityStats:
    """Purity tr(rho^2) together with its real/imaginary element sums."""
    m = rho.matrix
    re2 = float(np.sum(m.real**2))
    im2 = float(np.sum(m.imag**2))
    return PurityStats(purity=re2 + im2, purity_re=re2, purity_im=im2)


def random_pure(d: int, rng: RandomStream) -> DensityMatrix:
    """Haar-random pure state |v><v| from a normalized complex-normal vector."""
    check_dimension(d)
    z = rng.normals(2 * d)
    v = z[:d] + 1j * z[d:]
    v /= np.linalg.norm(v)
    return validate_density(np.outer(v, v.conj()))


def random_mixed(d: int, rank: int, rng: RandomStream) -> DensityMatrix:
    """Random rank-`rank` mixed state G G^dag / tr(G G^dag), G complex Ginibre d x rank."""
    check_dimension(d)
    check_rank(rank, d)
    z = rng.normals(2 * d * rank)
    g = (z[: d * rank] + 1j * z[d * rank :]).reshape(d, rank)
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0  # kill rounding asymmetry
    m /= np.trace(m).real
    return validate_density(m)


def hs_distance_sq(a: np.ndarray, b: np.ndarray):
    """Squared Hilbert-Schmidt distance sum |a_nm - b_nm|^2, one per matrix of a stack.
    The squares go into one float array and the difference's own imaginary half; neither
    operand is written."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape[-2:] != b.shape[-2:]:
        raise ShapeMismatch(f"operands differ in shape: {a.shape} vs {b.shape}")
    diff = a - b
    sq = np.square(diff.real)
    im = diff.imag
    sq += np.square(im, out=im)
    return np.sum(sq, axis=(-2, -1))


def eig_hermitian_2x2(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigensystem of a 2x2 Hermitian matrix.

    Writes m = [[t+z, x-iy], [x+iy, t-z]] with t, z, x, y real; then the
    eigenvalues are t -+ r with r = sqrt(x^2+y^2+z^2).  Returns
    (eigenvalues ascending, eigenvector columns), orthonormal and with a
    deterministic phase convention.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ShapeMismatch(f"expected a 2x2 matrix, got shape {m.shape}")
    _check_hermitian(m, "2x2 matrix")

    t = (m[0, 0].real + m[1, 1].real) / 2.0
    z = (m[0, 0].real - m[1, 1].real) / 2.0
    x = m[1, 0].real
    y = m[1, 0].imag
    rho2 = x * x + y * y
    r = np.sqrt(rho2 + z * z)
    evals = np.array([t - r, t + r])

    if rho2 == 0.0:
        # Already diagonal; order columns to match ascending eigenvalues.
        if z > 0.0:
            evecs = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        else:
            evecs = np.eye(2, dtype=complex)
        return evals, evecs

    # r - z computed cancellation-free for either sign of z.
    rmz = rho2 / (r + z) if z >= 0.0 else r - z
    c = np.sqrt(2.0 * r * rmz)
    evecs = np.array(
        [[-rmz / c, (x - 1j * y) / c], [(x + 1j * y) / c, rmz / c]], dtype=complex
    )
    return evals, evecs
