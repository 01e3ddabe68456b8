"""Exception types raised by the tomography package.

Everything derives from :class:`TomographyError` so callers can catch one
base class.  Messages name the violated invariant and, where it makes
sense, the measured deviation.
"""


class TomographyError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(TomographyError):
    """Operands have incompatible or non-square shapes."""


class NotFinite(TomographyError):
    """A matrix entry is NaN or infinite."""


class NotHermitian(TomographyError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class TraceNotOne(TomographyError):
    """Density matrix trace differs from 1 beyond tolerance."""


class NotPositive(TomographyError):
    """Eigenvalue (or probability) below the negativity tolerance."""


class InvalidDimension(TomographyError):
    """System dimension outside the supported range (d >= 2)."""


class InvalidRank(TomographyError):
    """Requested mixed-state rank not in 1..d."""


class IndexOutOfRange(TomographyError):
    """Basis index n outside 0..d-1."""


class StrengthOutOfRange(TomographyError):
    """Coupling strength g outside (0, pi) or too close to a singular point."""


class StrengthMismatch(TomographyError):
    """Pointer observables built for a different strength than the ensemble."""


class UndefinedWeakValue(TomographyError):
    """Post-selection probability vanished; the weak value is undefined."""


class IncompleteStats(TomographyError):
    """Sufficient statistics are missing one or more (n, quadrature) configs."""


class StateFileError(TomographyError):
    """State file is missing, malformed, or contains non-finite entries."""
