"""Single-photon detection with an NV spin electrometer.

A photoreceptive molecule switches its electric dipole field when it absorbs
a photon; a nearby two-level spin sensor precesses differently under the two
fields. This package evolves the sensor state under either hypothesis (a
batched Bloch-vector propagator in production; closed forms, fixed-step RK4
and a superoperator exponential as cross-checks), builds the minimal-error
projector pair that decides between them, and quantifies error
probabilities, optimal measurement times, multi-sensor suppression, and the
arrival-time jitter of the underlying photon.
"""

from .discrimination import (
    DiscriminationReport,
    ErrorCurve,
    HelstromDecomposition,
    PovmPair,
    helstrom_operator,
    min_error,
    min_error_grid,
    optimal_time_analytic,
    optimal_time_search,
    povm_pair,
    standard_basis_error,
    standard_basis_error_grid,
)
from .dynamics import (
    EvolutionSpec,
    Method,
    Trajectory,
    bloch_generator,
    bloch_propagators,
    evolve_closed_axial_field,
    evolve_closed_dephasing,
    evolve_closed_transverse,
    evolve_pair,
    evolve_pair_grid,
    integrate_master_equation,
    liouvillian,
    propagate_superoperator,
)
from .errors import ConfigError, NumericalInvariantError, PreconditionError
from .hamiltonian import (
    FieldConfig,
    HamiltonianSpectrum,
    NoiseKind,
    NoiseModel,
    NvParameters,
    hamiltonian_full,
    hamiltonian_two_level,
    lindblad_operator,
    spectrum,
)
from .linalg import (
    DensityMatrix2,
    EigenPair2,
    bloch_vector,
    check_bloch_norms,
    expm_batch,
    expm_small,
    herm_eigen2,
)
from .protocol import (
    ArrayErrorCurve,
    BzSweepPoint,
    Click,
    DetectionRun,
    MeasurementSchedule,
    PreparationState,
    array_error_curve,
    fit_decay_rate,
    majority_vote_error,
    run_turn_on_batch,
    run_turn_on_protocol,
    simulate_click,
    superposition_bz_sweep,
)

__all__ = [
    "ArrayErrorCurve",
    "BzSweepPoint",
    "Click",
    "ConfigError",
    "DensityMatrix2",
    "DetectionRun",
    "DiscriminationReport",
    "EigenPair2",
    "ErrorCurve",
    "EvolutionSpec",
    "FieldConfig",
    "HamiltonianSpectrum",
    "HelstromDecomposition",
    "MeasurementSchedule",
    "Method",
    "NoiseKind",
    "NoiseModel",
    "NumericalInvariantError",
    "NvParameters",
    "PovmPair",
    "PreconditionError",
    "PreparationState",
    "Trajectory",
    "array_error_curve",
    "bloch_generator",
    "bloch_propagators",
    "bloch_vector",
    "check_bloch_norms",
    "evolve_closed_axial_field",
    "evolve_closed_dephasing",
    "evolve_closed_transverse",
    "evolve_pair",
    "evolve_pair_grid",
    "expm_batch",
    "expm_small",
    "fit_decay_rate",
    "hamiltonian_full",
    "hamiltonian_two_level",
    "helstrom_operator",
    "herm_eigen2",
    "integrate_master_equation",
    "lindblad_operator",
    "liouvillian",
    "majority_vote_error",
    "min_error",
    "min_error_grid",
    "optimal_time_analytic",
    "optimal_time_search",
    "povm_pair",
    "propagate_superoperator",
    "run_turn_on_batch",
    "run_turn_on_protocol",
    "simulate_click",
    "spectrum",
    "standard_basis_error",
    "standard_basis_error_grid",
    "superposition_bz_sweep",
]

__version__ = "0.1.0"
