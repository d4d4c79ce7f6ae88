"""Time evolution of the two-level sensor state under each field hypothesis.

Every modeled hypothesis has a time-independent Hamiltonian and a Hermitian
jump operator, so the master equation

    drho/dt = -i [H, rho] + L rho L' - (1/2) {L' L, rho},   L' = adjoint of L,

(H in rad/s) is a linear map r' = M r on the Bloch vector, with M a real
3x3 matrix. :func:`bloch_generators` builds M once per hypothesis and
:func:`propagate_generators` evaluates exp(M t) over a whole time array
with batched scaling-and-squaring (:func:`nvdetect.linalg.expm_batch`).
Every production grid is uniform (a ``np.linspace``); for one of n points,
t_k = t_0 + k h, the exponentials are the products
exp(M t_jB) exp(M i h) with k = j B + i and B = ceil(sqrt(n)), so about
2 sqrt(n) matrices are exponentiated instead of n. Any other time array,
including the golden-section batches of the optimal-time search (fewer than
PRODUCT_MIN_POINTS points each) and the two segment lengths of a protocol
cycle, gets one exponential per time.

This is the only propagator in the package. The independent reference
routes the tests check it against (closed forms, RK4, a 4x4 superoperator
exponential) live in ``tests/oracles.py``.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import PreconditionError
from .hamiltonian import (
    FieldConfig,
    NoiseKind,
    NoiseModel,
    NvParameters,
    hamiltonian_two_level,
    lindblad_operator,
)
from .linalg import (
    DensityMatrix2,
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bloch_vector,
    check_bloch_norms,
    dagger,
    expm_batch,
)

#: Smallest uniform time grid that :func:`propagate_generators` evaluates as a
#: product of two exponential stacks. Measured on a 2-vCPU Xeon, the product
#: and one exponential per time cost the same at about 16 points; from 24
#: points on the product is faster.
PRODUCT_MIN_POINTS = 24


def liouvillian(hamiltonian: np.ndarray, lindblad: np.ndarray | None) -> np.ndarray:
    """4x4 master-equation generator acting on column-stacked rho.

    vec(A rho B) = (B^T kron A) vec(rho), so the commutator becomes
    -i (I kron H - H^T kron I) and the dissipator
    conj(L) kron L - (1/2)(I kron L^dag L + (L^dag L)^T kron I).
    """
    h = np.asarray(hamiltonian, dtype=complex)
    gen = -1j * (_kron2(IDENTITY_2, h) - _kron2(h.T, IDENTITY_2))
    if lindblad is not None:
        l = np.asarray(lindblad, dtype=complex)
        if float(np.max(np.abs(l))) > 0.0:
            lsq = dagger(l) @ l
            gen = gen + _kron2(np.conj(l), l)
            gen = gen - 0.5 * (_kron2(IDENTITY_2, lsq) + _kron2(lsq.T, IDENTITY_2))
    return gen


def _kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron for two 2x2 matrices (the same products, without its overhead)."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def _noise_direction_fields(fields: FieldConfig):
    """Per-hypothesis field used for the electric noise axis.

    A hypothesis whose transverse field vanishes inherits the other
    hypothesis's direction (the switch direction defines the common axis);
    only if both vanish is the electric noise direction undefined.
    """
    e0, e1 = fields.e0, fields.e1
    t0 = complex(e0[0], e0[1])
    t1 = complex(e1[0], e1[1])
    dir0 = e0 if abs(t0) > 0 else e1
    dir1 = e1 if abs(t1) > 0 else e0
    return dir0, dir1


def _hypothesis_operators(fields: FieldConfig, params: NvParameters, noise: NoiseModel):
    """((H0, L0), (H1, L1)) of the baseline and switched hypotheses; a jump
    operator is None without noise. The electric-noise axis follows each
    hypothesis's own static field direction."""
    h0 = hamiltonian_two_level(params, fields.e0, fields.b_z)
    h1 = hamiltonian_two_level(params, fields.e1, fields.b_z)
    if noise.kind is NoiseKind.ELECTRIC_ALONG_FIELD and noise.rate > 0.0:
        dir0, dir1 = _noise_direction_fields(fields)
        l0 = lindblad_operator(dir0, noise)
        l1 = lindblad_operator(dir1, noise)
    elif noise.kind is NoiseKind.MAGNETIC_AXIAL and noise.rate > 0.0:
        l0 = lindblad_operator(fields.e0, noise)
        l1 = lindblad_operator(fields.e1, noise)
    else:
        l0 = l1 = None
    return (h0, l0), (h1, l1)


#: vec(I) and the columns vec(sigma_x), vec(sigma_y), vec(sigma_z), column-stacked
#: like :func:`liouvillian`, so vec(rho) = (vec(I) + PAULI_VEC r) / 2.
_IDENTITY_VEC = IDENTITY_2.flatten(order="F")
_PAULI_VEC = np.column_stack([s.flatten(order="F") for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)])


def bloch_generator(hamiltonian: np.ndarray, lindblad: np.ndarray | None) -> np.ndarray:
    """Real 3x3 generator M of r' = M r, projected from :func:`liouvillian`.

    With r_k = Tr(sigma_k rho) = vec(sigma_k)^H vec(rho) the master equation
    becomes r' = (S^H G S / 2) r + S^H G vec(I) / 2, S the Pauli columns and
    G the 4x4 generator. The drift term vanishes because a Hermitian jump
    operator makes the dissipator unital; it is checked, not assumed.
    """
    gen = liouvillian(hamiltonian, lindblad)
    proj = dagger(_PAULI_VEC) @ gen
    drift = float(np.max(np.abs(proj @ _IDENTITY_VEC)))
    if drift > 1e-12 * max(1.0, float(np.max(np.abs(gen)))):
        raise PreconditionError(f"the channel is not unital (Bloch drift {drift!r}); "
                                "the jump operator must be Hermitian")
    return 0.5 * (proj @ _PAULI_VEC).real


def bloch_generators(fields: FieldConfig, params: NvParameters, noise: NoiseModel) -> np.ndarray:
    """Bloch generators of the baseline and switched hypotheses: shape (2, 3, 3)."""
    ops = _hypothesis_operators(fields, params, noise)
    return np.stack([bloch_generator(h, l) for h, l in ops])


def propagate_generators(gens: np.ndarray, times) -> np.ndarray:
    """exp(M t) of every generator of a (g, 3, 3) stack at every time: shape
    (g, n, 3, 3).

    A uniform grid of at least PRODUCT_MIN_POINTS points, ``times`` equal to
    ``np.linspace(times[0], times[-1], n)``, is evaluated as the product
    exp(M t_jB) exp(M i h), k = j B + i, with h the grid step and
    B = ceil(sqrt(n)): one batched exponential over the about sqrt(n) grid
    points t_jB and the B steps i h, and one batched 3x3 product. Any other
    array gets one exponential per time, so its result does not depend on
    the other times.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or np.any(times < 0.0):
        raise PreconditionError("times must be a 1-d array of nonnegative values")
    n = len(times)
    if n < PRODUCT_MIN_POINTS or not np.array_equal(times, np.linspace(times[0], times[-1], n)):
        return expm_batch(gens[:, None] * times[None, :, None, None])
    block = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    steps = np.arange(block) * ((times[-1] - times[0]) / (n - 1))
    coarse = times[::block]
    maps = expm_batch(gens[:, None] * np.concatenate([coarse, steps])[None, :, None, None])
    product = maps[:, : len(coarse), None] @ maps[:, None, len(coarse) :]
    return product.reshape(len(gens), -1, 3, 3)[:, :n]


def evolve_bloch(gens: np.ndarray, r_init, times) -> np.ndarray:
    """Bloch vector exp(M t) r_init of every generator at every time: shape
    (g, n, 3). Vectors longer than 1 + 1e-12 raise NumericalInvariantError."""
    return check_bloch_norms(propagate_generators(gens, times) @ np.asarray(r_init, dtype=float))


def evolve_pair_grid(
    fields: FieldConfig,
    params: NvParameters,
    noise: NoiseModel,
    rho0: DensityMatrix2,
    times,
) -> tuple[np.ndarray, np.ndarray]:
    """Bloch vectors of both hypotheses at every time, as two (n, 3) arrays.

    Each hypothesis's Bloch generator is built once and exponentiated over
    the whole array by :func:`propagate_generators`. Output vectors longer
    than 1 + 1e-12 raise NumericalInvariantError.
    """
    r = evolve_bloch(bloch_generators(fields, params, noise), bloch_vector(rho0), times)
    return r[0], r[1]

