"""Exact forward model of weak-value tomography.

A d-dimensional system couples to a qubit pointer (initially |0><0|)
through U_n = exp(-i g |a_n><a_n| (x) sigma_x), then the system is
post-selected in a Fourier basis unbiased to {|a_n>}.  The surviving
pointer carries the weak value W_nj in two quadrature observables, and
the full set {W_nj} linearly reconstructs the state.

Tensor ordering is system (x) device everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexOutOfRange,
    InvalidBases,
    NotPositive,
    ShapeMismatch,
    StrengthMismatch,
    StrengthOutOfRange,
    UndefinedWeakValue,
)
from .qmath import EIGENVALUE_TOL, DensityMatrix, _check_finite, check_dimension

# Post-selection outcomes with probability at or below this are undefined-but-unused.
PROB_DEFINED_TOL = 1e-12
# Guard against evaluating 1/sin(g) or 1/cos(g/2) at a singular point.
SINGULAR_TOL = 1e-9
# Largest |B^dag B - I| entry of a basis matrix B taken as unitary.
UNITARY_TOL = 1e-10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
DEVICE_ZERO = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)  # pointer |0><0|


@dataclass(frozen=True, eq=False)
class MeasurementBases:
    """Coupling basis {|a_n>} and post-selection basis {|psi_j>} as column matrices, each
    unitary and kept as a read-only copy, with every |<psi_j|a_n>|^2 > PROB_DEFINED_TOL:
    the reconstruction divides by each overlap."""

    dim: int
    a_basis: np.ndarray    # column n is |a_n>
    psi_basis: np.ndarray  # column j is |psi_j>

    def __post_init__(self):
        for name, basis in (("a_basis", self.a_basis), ("psi_basis", self.psi_basis)):
            if np.shape(basis) != (self.dim, self.dim):
                raise ShapeMismatch(f"{name} of shape {np.shape(basis)} is not "
                                    f"{self.dim}x{self.dim}")
            basis = np.array(basis, dtype=complex)  # its own copy: the caller may write theirs
            _check_finite(basis, name)
            dev = np.max(np.abs(basis.conj().T @ basis - np.eye(self.dim)))
            if dev > UNITARY_TOL:
                raise InvalidBases(f"{name} is not unitary: max |B^dag B - I| = {dev:.3e} "
                                   f"exceeds {UNITARY_TOL:.0e}")
            basis.flags.writeable = False
            object.__setattr__(self, name, basis)
        # Here, not between a law and a draw: a draw right after a BLAS matmul ran 10x slower.
        overlaps = self.psi_basis.conj().T @ self.a_basis
        overlaps.flags.writeable = False
        weights = np.abs(overlaps) ** 2
        if weights.min() <= PROB_DEFINED_TOL:
            j, n = np.unravel_index(np.argmin(weights), weights.shape)
            raise InvalidBases(f"|<psi_j|a_n>|^2 = {weights[j, n]:.3e} at (j={j}, n={n}) is "
                               f"not above {PROB_DEFINED_TOL:.0e}")
        object.__setattr__(self, "_overlaps", overlaps)

    def overlaps(self) -> np.ndarray:
        """Matrix O[j, n] = <psi_j|a_n>, computed once when the bases are built; read-only."""
        return self._overlaps


@dataclass(frozen=True)
class CouplingStrengths:
    """The pair (g_R, g_I) of coupling strengths, each in (0, pi) and clear of its singular ends."""

    g_r: float
    g_i: float

    def __post_init__(self):
        for name, g in (("g_r", self.g_r), ("g_i", self.g_i)):
            if not 0.0 < g < np.pi:
                raise StrengthOutOfRange(f"{name} = {g!r} outside the open interval (0, pi)")
            check_strength(g, name)


@dataclass(frozen=True, eq=False)
class PointerObservables:
    """The two pointer quadrature observables built at strength g."""

    sigma_r: np.ndarray
    sigma_i: np.ndarray
    g: float


@dataclass(frozen=True, eq=False)
class ConditionalDeviceEnsemble:
    """Post-selected pointer states for one coupling index n.

    probs[j] is the probability of post-selection outcome j; device_states[j]
    is the normalized 2x2 pointer state, or None when probs[j] <= 1e-12.
    """

    n: int
    g: float
    probs: np.ndarray
    device_states: tuple


@dataclass(frozen=True, eq=False)
class WeakValueTable:
    """Weak values W[n][j] with their post-selection probabilities P[n][j].

    undefined[n][j] marks entries whose post-selection probability vanished;
    such entries hold 0 and are rejected if reconstruction needs them.  `reconstruct`
    maps the table over the bases it was built in.
    """

    bases: MeasurementBases
    entries: np.ndarray
    probs: np.ndarray
    undefined: np.ndarray


def fourier_mub(d: int) -> MeasurementBases:
    """Computational basis plus the Fourier basis with <psi_j|a_n> = e^{2pi i jn/d}/sqrt(d)."""
    check_dimension(d)
    jn = np.outer(np.arange(d), np.arange(d))
    # Components <a_n|psi_j> are the conjugates of the defining overlaps.
    psi = np.exp(-2j * np.pi * jn / d) / np.sqrt(d)
    return MeasurementBases(dim=d, a_basis=np.eye(d, dtype=complex), psi_basis=psi)


def _check_index(n: int, d: int) -> None:
    if not 0 <= n < d:
        raise IndexOutOfRange(f"basis index {n} outside 0..{d - 1}")


def _check_bases(bases: MeasurementBases, d: int) -> None:
    if bases.dim != d:
        raise ShapeMismatch(f"bases built for d={bases.dim}, state has d={d}")


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) of two stacks of matrices, batch axes broadcast, as np.kron's product."""
    k = a[..., :, None, :, None] * b[..., None, :, None, :]
    return k.reshape(*k.shape[:-4], k.shape[-4] * k.shape[-3], -1)


def _coupling_unitaries(a_cols: np.ndarray, gs) -> np.ndarray:
    """U[g, n] = exp(-i gs[g] |a_n><a_n| (x) sigma_x), 2d x 2d; |a_n> is column n of a_cols."""
    # exp(-i g P (x) sigma_x) = (I-P) (x) I + P (x) (cos g I - i sin g sigma_x)
    # exactly, because P (x) sigma_x squares to P (x) I.
    proj = a_cols.T[:, :, None] * a_cols.T.conj()[:, None, :]  # np.outer's product, per column
    g = _finite_strengths(gs)[:, None, None, None]
    v = np.cos(g) * np.eye(2, dtype=complex) - 1j * np.sin(g) * SIGMA_X
    eye = np.eye(len(a_cols), dtype=complex)
    return _kron(eye - proj, np.eye(2, dtype=complex)) + _kron(proj, v)


def coupling_unitary(n: int, g: float, d: int) -> np.ndarray:
    """The 2d x 2d system-pointer coupling unitary for coupling index n."""
    check_dimension(d)
    _check_index(n, d)
    return _coupling_unitaries(np.eye(d, dtype=complex)[:, [n]], [g])[0, 0]


def _finite_strengths(g) -> np.ndarray:
    """A strength or an array of them as floats; a NaN or inf is refused before it can warn."""
    g = np.asarray(g, dtype=float)
    finite = np.isfinite(g)
    if not finite.all():
        raise StrengthOutOfRange(f"g = {g[~finite][0]} is not finite")
    return g


def check_strength(g: float, name: str = "g") -> None:
    """Reject a non-finite strength, or one at which 1/sin(g) or 1/cos(g/2) is singular."""
    if not math.isfinite(g):  # first: `|sin g| < tol` is False for NaN
        raise StrengthOutOfRange(f"{name} = {g} is not finite")
    s = np.sin(g)
    half_c = np.cos(g / 2.0)
    if abs(s) < SINGULAR_TOL or abs(half_c) < SINGULAR_TOL:
        raise StrengthOutOfRange(
            f"{name} = {g!r}: sin(g) = {s:.3e} or cos(g/2) = {half_c:.3e} too close to singular"
        )


def pointer_observables(g: float) -> PointerObservables:
    """Quadrature observables sigma_R = (g/sin g)[sigma_y - tan(g/2)(I - sigma_z)]
    and sigma_I = (g/sin g) sigma_x."""
    check_strength(g)
    scale = g / np.sin(g)
    sigma_r = scale * (SIGMA_Y - np.tan(g / 2.0) * (np.eye(2, dtype=complex) - SIGMA_Z))
    sigma_i = scale * SIGMA_X
    return PointerObservables(sigma_r=sigma_r, sigma_i=sigma_i, g=g)


def _postselected_pointers(rho: DensityMatrix, ns, gs, bases: MeasurementBases) -> tuple:
    """couple_and_postselect for every strength gs[g] and coupling index ns[n] at once:
    the pointer states rho_d[g, n, j] (2x2, NaN where P <= 1e-12) and the probabilities
    P[g, n, j].  Each (g, n) still builds its full 2d x 2d unitary and joint state."""
    d = rho.dim
    _check_bases(bases, d)
    for n in ns:
        _check_index(n, d)

    u = _coupling_unitaries(bases.a_basis[:, ns], gs)
    joint = u @ _kron(rho.matrix, DEVICE_ZERO) @ u.conj().swapaxes(-1, -2)
    # Partial inner product <psi_j| . |psi_j> over the system factor.
    blocks = joint.reshape(*u.shape[:2], d, 2, d, 2)
    m = np.einsum("aj,gnaibk,bj->gnjik", bases.psi_basis.conj(), blocks, bases.psi_basis)
    m = (m + np.conj(np.swapaxes(m, -1, -2))) / 2.0  # kill rounding asymmetry

    probs = _clamp_probs(np.einsum("...ii->...", m).real, d)
    defined = (probs > PROB_DEFINED_TOL)[..., None, None]
    states = np.divide(m, probs[..., None, None], out=np.full_like(m, np.nan), where=defined)
    return states, probs


def couple_and_postselect(
    rho: DensityMatrix, n: int, g: float, bases: MeasurementBases
) -> ConditionalDeviceEnsemble:
    """Couple to |a_n>, post-select each |psi_j>, return outcome probabilities
    and the conditional pointer states."""
    states, probs = (x[0, 0] for x in _postselected_pointers(rho, [n], [g], bases))
    device = tuple(s if p > PROB_DEFINED_TOL else None for s, p in zip(states, probs))
    return ConditionalDeviceEnsemble(n=n, g=g, probs=probs, device_states=device)


def _features(rho: DensityMatrix, bases: MeasurementBases) -> tuple:
    """The pointer features of rho, linear in rho: A[j] = <psi_j|rho|psi_j>,
    B[n, j] = <psi_j|a_n><a_n|rho|psi_j> and C[n, j] = |<psi_j|a_n>|^2 <a_n|rho|a_n>."""
    _check_bases(bases, rho.dim)
    overlaps = bases.overlaps().T  # [n, j] = <psi_j|a_n>
    rho_psi = rho.matrix @ bases.psi_basis
    a = np.einsum("aj,aj->j", bases.psi_basis.conj(), rho_psi).real
    b = overlaps * (bases.a_basis.conj().T @ rho_psi)
    rho_nn = np.einsum("an,an->n", bases.a_basis.conj(), rho.matrix @ bases.a_basis).real
    c = np.abs(overlaps) ** 2 * rho_nn[:, None]
    return a, b, c


def _pointer_parts(features: tuple, g) -> tuple:
    """(M00, M01, M11) of every unnormalised post-selected pointer state M[n, j] (M10 =
    conj M01) at strength g, or a 1-D stack of g on a leading axis, from `_features`:
        M00 = A_j + 2(cos g - 1) Re B_nj + (cos g - 1)^2 C_nj
        M01 = i sin g (conj B_nj + (cos g - 1) C_nj)
        M11 = sin^2 g C_nj"""
    a, b, c = features
    g = _finite_strengths(g)[..., None, None]
    cm1, s = np.cos(g) - 1.0, np.sin(g)
    return a + 2.0 * cm1 * b.real + cm1 * cm1 * c, 1j * s * (b.conj() + cm1 * c), s * s * c


def pointer_blocks(rho: DensityMatrix, g, bases: MeasurementBases) -> tuple[np.ndarray, np.ndarray]:
    """Every unnormalised post-selected pointer state M[n, j] (2x2) at strength g, or a
    1-D stack of g on a leading axis, and P[n, j] = tr M[n, j]: the closed form of
    couple_and_postselect, stacked from `_pointer_parts`."""
    m00, m01, m11 = _pointer_parts(_features(rho, bases), g)
    blocks = np.stack([m00, m01, m01.conj(), m11], axis=-1).reshape(*m00.shape, 2, 2)
    return blocks, _clamp_probs(m00 + m11, rho.dim)


def _clamp_probs(probs: np.ndarray, d: int) -> np.ndarray:
    """Probabilities tr(rho E), 0 <= E <= I, rounding below zero clamped to 0: the one floor
    of the forward model's readers, -d EIGENVALUE_TOL, which no validate_density state crosses."""
    if probs.min() < -d * EIGENVALUE_TOL:
        raise NotPositive(f"outcome probability {probs.min():.3e} below {-d * EIGENVALUE_TOL:.0e}")
    return np.where(probs < 0.0, 0.0, probs)


def weak_values_exact(rho: DensityMatrix, bases: MeasurementBases, g) -> WeakValueTable:
    """Definitional weak values W_nj = B_nj / P_j(n) = <psi_j|a_n><a_n|rho|psi_j> / P_j(n),
    with P_j(n) the physical post-selection probability under coupling g.
    A 1-D array g gives every array of the table a leading strength axis."""
    features = _features(rho, bases)  # one pass: P and the numerator B share it
    m00, _, m11 = _pointer_parts(features, g)
    probs = _clamp_probs(m00 + m11, rho.dim)
    defined = probs > PROB_DEFINED_TOL
    entries = np.divide(features[1], probs, out=np.zeros(probs.shape, dtype=complex), where=defined)
    return WeakValueTable(bases=bases, entries=entries, probs=probs, undefined=~defined)


def _read_weak_values(states, probs, sigma_r, sigma_i, g) -> np.ndarray:
    """W = (1/2g)[-tr(rho_d sigma_R) + i tr(rho_d sigma_I)] of a stack of pointer
    states rho_d, the other arguments broadcast against it; NaN where P <= 1e-12."""
    re = -np.trace(states @ sigma_r, axis1=-2, axis2=-1).real
    im = np.trace(states @ sigma_i, axis1=-2, axis2=-1).real
    return np.where(probs > PROB_DEFINED_TOL, (re + 1j * im) / (2.0 * g), np.nan + 1j * np.nan)


def weak_value_from_device(
    ens: ConditionalDeviceEnsemble, obs: PointerObservables
) -> np.ndarray:
    """Weak values read off the pointer: W_j = (1/2g)[-tr(rho_d sigma_R) + i tr(rho_d sigma_I)].

    Entries whose post-selection probability vanished come back as NaN.
    """
    if abs(ens.g - obs.g) > 1e-12:
        raise StrengthMismatch(f"ensemble built at g={ens.g!r}, observables at g={obs.g!r}")
    states = np.array([np.full((2, 2), np.nan) if s is None else s for s in ens.device_states])
    return _read_weak_values(states, ens.probs, obs.sigma_r, obs.sigma_i, ens.g)


def reconstruction_map(pw: np.ndarray, overlaps: np.ndarray) -> np.ndarray:
    """out[n][m] = sum_j pw[n][j] overlaps[j][m] / overlaps[j][n] for every row n at once;
    with overlaps = bases.overlaps() this is the linear map from P_j W_nj to rho.  A stack
    of tables is one 2-D matmul over all its rows (a stacked matmul calls BLAS once per
    table), with the same bits per table; pw is not written."""
    scaled = pw / overlaps.T
    return (scaled.reshape(-1, len(overlaps)) @ overlaps).reshape(scaled.shape)


def reconstruct(table: WeakValueTable) -> np.ndarray:
    """Assemble rho[n][m] = sum_j P_j(n) (<psi_j|a_m>/<psi_j|a_n>) W_nj over the table's own
    bases, one state per table of a stack (see weak_values_exact)."""
    if table.undefined.any():
        *_, n, j = np.argwhere(table.undefined)[0]
        raise UndefinedWeakValue(
            f"weak value undefined at (n={n}, j={j}): post-selection probability vanished"
        )
    return reconstruction_map(table.probs * table.entries, table.bases.overlaps())


def marginal_device_state(rho: DensityMatrix, n: int, g: float) -> np.ndarray:
    """Pointer state after coupling to |a_n>, before post-selection
    (partial trace over the system)."""
    d = rho.dim
    u = coupling_unitary(n, g, d)
    joint = u @ _kron(rho.matrix, DEVICE_ZERO) @ u.conj().T
    return np.einsum("aiak->ik", joint.reshape(d, 2, d, 2))
