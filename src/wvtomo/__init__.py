"""Weak-value quantum state tomography: exact protocol model, shot-level
Monte Carlo estimator, and closed-form mean-square-error theory."""

from .errors import (
    IncompleteStats,
    IndexOutOfRange,
    InvalidBases,
    InvalidDimension,
    InvalidRank,
    NotFinite,
    NotHermitian,
    NotPositive,
    ShapeMismatch,
    StateFileError,
    StrengthMismatch,
    StrengthOutOfRange,
    TomographyError,
    TraceNotOne,
    UndefinedWeakValue,
)
from .montecarlo import (
    MseReport,
    OutcomeDistribution,
    SufficientStats,
    TomographyEstimate,
    assemble_estimate,
    estimate_pw,
    exact_mse_oracle,
    outcome_distribution,
    run_experiment,
    sample_shots,
)
from .protocol import (
    ConditionalDeviceEnsemble,
    CouplingStrengths,
    MeasurementBases,
    PointerObservables,
    WeakValueTable,
    couple_and_postselect,
    coupling_unitary,
    fourier_mub,
    marginal_device_state,
    pointer_observables,
    reconstruct,
    weak_value_from_device,
    weak_values_exact,
)
from .qmath import (
    DensityMatrix,
    PurityStats,
    eig_hermitian_2x2,
    hs_distance_sq,
    project_to_density,
    purity_stats,
    random_mixed,
    random_pure,
    validate_density,
)
from .rng import RandomStream
from .statefile import read_state_file, write_state_file
from .theory import (
    TheoryInput,
    mse_hermitized,
    mse_hermitized_exact,
    mse_hermitized_optimal,
    mse_raw,
    mse_raw_optimal,
    numeric_optimal_strengths,
    optimal_strengths,
    scaled_mse_menu,
)

__version__ = "0.1.0"
