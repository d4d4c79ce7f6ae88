"""Single-photon detection with an NV spin electrometer.

A photoreceptive molecule switches its electric dipole field when it absorbs
a photon; a nearby two-level spin sensor precesses differently under the two
fields. This package writes down the Bloch generator of either hypothesis in
closed form, evolves the sensor state with one batched Bloch-vector
propagator, decides between them with one vectorized minimal-error
(Helstrom) measurement, and quantifies error probabilities, optimal
measurement times, multi-sensor suppression, and the arrival-time jitter of
the underlying photon. The independent routes the tests check the package
against (the 2x2 Hamiltonian, jump operator and 4x4 Liouvillian, closed-form
propagators, RK4, a superoperator exponential, the operator form of the
Helstrom measurement) are in ``tests/oracles.py``, outside the package.
"""

from .discrimination import (
    helstrom_decision,
    min_error_grid,
    optimal_time_search,
    standard_basis_error_grid,
)
from .dynamics import bloch_generators, evolve_bloch
from .errors import ConfigError, PreconditionError
from .hamiltonian import FieldConfig, NoiseModel, NvParameters, PreparationState, bloch_generator
from .linalg import expm_batch
from .protocol import fit_decay_rate, majority_vote_error, turn_on_blocks

__version__ = "0.1.0"
