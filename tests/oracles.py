"""Independent reference routes that the tests check the package against.

Production writes each hypothesis's Bloch generator in closed form
(``nvdetect.hamiltonian.bloch_generator``) and propagates it with one batched
Bloch-vector kernel (:mod:`nvdetect.dynamics`). The routes here are
deliberately independent of that kernel and of each other. They start from
the 2x2 Hamiltonian (rad/s, :func:`hamiltonian_two_level`, or its traceless
part :func:`traceless_hamiltonian`) and the jump operator
(:func:`lindblad_operator`): the 4x4 Liouvillian (:func:`liouvillian`) and
its projection onto the Pauli basis (:func:`projected_bloch_generator`),
three closed-form propagators for the analytically solvable regimes (pure
transverse field; transverse field plus axial magnetic field; transverse
field with collinear dephasing), a fixed-step RK4 integrator of the master
equation, and a 4x4 superoperator exponential. :func:`evolve_pair` runs one
of them on both field hypotheses, from the traceless Hamiltonian: the
common shift of 2 pi 2.87 GHz cancels from the dynamics, but carrying it
costs the superoperator about 1e-11 in the Bloch vector.

The package decides between the hypotheses from Bloch vectors
(``nvdetect.discrimination.helstrom_decision``). The reference here is the
operator form of the same Helstrom measurement: a closed-form 2x2
eigensolver (:func:`herm_eigen2`) applied to P1 rho1 - P0 rho0, explicit
projectors built from its eigenvectors, and traces of density matrices
(:func:`min_error`, :func:`standard_basis_error`); :func:`density_matrix`
turns the package's Bloch vectors into the matrices it takes.
The package stores Bloch vectors as rows x, y, z, shape (3, n);
:func:`min_error_vectors` and :func:`worst_bloch_norm` compute the same
decision and norm on (n, 3) arrays with numpy's last-axis sums, a bit-for-bit
reference for the package's row arithmetic.

Also here: the one-matrix exponential :func:`expm_small`, the 3x3
ground-state Hamiltonian and its spectrum, the per-click readout and
per-click transcript of the turn-on protocol, the analytic optimal measurement time of a collinear
switch, and an optimal-time search by golden section with one kernel call
per point. Only tests import this module; nothing in the package does.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from nvdetect.discrimination import min_error_grid
from nvdetect.dynamics import _noise_direction_fields, bloch_generators, evolve_bloch
from nvdetect.errors import NumericalInvariantError, PreconditionError
from nvdetect.hamiltonian import (
    TWO_PI,
    FieldConfig,
    NoiseKind,
    NoiseModel,
    NvParameters,
    _checked_priors,
)
from nvdetect.linalg import TAYLOR_TERMS, DensityMatrix2, bloch_vector

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(m.T)


def axial_shift(params: NvParameters, e_field) -> float:
    """Common m = +-1 shift (zero-field splitting plus axial Stark) in rad/s."""
    return TWO_PI * (params.zero_field_splitting + params.d_parallel * float(e_field[2]))


def traceless_hamiltonian(params: NvParameters, e_field, b_z: float) -> np.ndarray:
    """b.sigma in rad/s: the two-level Hamiltonian without its common shift,
    b = (Re c, Im c, Zeeman rate), c the transverse coupling."""
    e_perp = params.transverse_coupling(e_field)
    bz = params.zeeman_rate(b_z)
    return np.array([[bz, np.conj(e_perp)], [e_perp, -bz]], dtype=complex)


def hamiltonian_two_level(params: NvParameters, e_field, b_z: float) -> np.ndarray:
    """Ground-state Hamiltonian on span{|+1>, |-1>} in rad/s.

    Transverse electric fields couple |+1> and |-1> directly; the common
    diagonal shift is retained even though it cancels from all dynamics.
    """
    return traceless_hamiltonian(params, e_field, b_z) + axial_shift(params, e_field) * IDENTITY_2


def lindblad_operator(e_field, noise: NoiseModel) -> np.ndarray:
    """Dephasing jump operator in sqrt(1/s).

    Electric noise fluctuates along the static transverse field direction, so
    its operator is sqrt(kappa/2) [[0, u*], [u, 0]] with u the unit transverse
    phase; axial magnetic noise gives sqrt(kappa/2) sigma_z.
    """
    if noise.kind is NoiseKind.NONE or noise.rate == 0.0:
        return np.zeros((2, 2), dtype=complex)
    amp = math.sqrt(noise.rate / 2.0)
    if noise.kind is NoiseKind.MAGNETIC_AXIAL:
        return amp * SIGMA_Z.copy()
    ex, ey = float(e_field[0]), float(e_field[1])
    if ex == 0.0 and ey == 0.0:
        raise PreconditionError(
            "electric noise direction undefined: hypothesis has no transverse field"
        )
    # an exact power-of-two rescale first, so a subnormal field still has a
    # unit direction (|5e-324 + 5e-324 i| rounds to 5e-324)
    _, exponent = math.frexp(max(abs(ex), abs(ey)))
    transverse = complex(math.ldexp(ex, -exponent), math.ldexp(ey, -exponent))
    unit = transverse / abs(transverse)
    return amp * np.array([[0.0, np.conj(unit)], [unit, 0.0]], dtype=complex)


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


#: vec(I) and the columns vec(sigma_x), vec(sigma_y), vec(sigma_z), column-stacked
#: like :func:`liouvillian`, so vec(rho) = (vec(I) + PAULI_VEC r) / 2.
_IDENTITY_VEC = IDENTITY_2.flatten(order="F")
_PAULI_VEC = np.column_stack([s.flatten(order="F") for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)])


def projected_bloch_generator(hamiltonian: np.ndarray, lindblad: np.ndarray | None) -> np.ndarray:
    """Real 3x3 generator M of r' = M r, projected from :func:`liouvillian`.

    With r_k = Tr(sigma_k rho) = vec(sigma_k)^H vec(rho) the master equation
    becomes r' = (S^H G S / 2) r + S^H G vec(I) / 2, S the Pauli columns and
    G the 4x4 generator. The drift term vanishes because a Hermitian jump
    operator makes the dissipator unital; it is checked, not assumed.

    The dissipator is quadratic in L, so it is projected from L scaled by an
    exact power of two to unit size and scaled back once: at a subnormal rate
    each product in L^dag L would otherwise round on the subnormal grid (a
    rate of 2.2250738585e-313 came out 2 units, 4e-11 relative, short).
    """
    m = _projected_generator(liouvillian(hamiltonian, None))
    top = 0.0 if lindblad is None else float(np.max(np.abs(lindblad)))
    if top > 0.0:
        _, exponent = math.frexp(top)
        scaled = np.asarray(lindblad, dtype=complex) * 2.0 ** -exponent
        dissipator = _projected_generator(liouvillian(np.zeros((2, 2)), scaled))
        m = m + np.ldexp(dissipator, 2 * exponent)
    return m


def _projected_generator(gen: np.ndarray) -> np.ndarray:
    """0.5 Re(S^H G S) of a 4x4 generator G, after checking its Bloch drift."""
    proj = dagger(_PAULI_VEC) @ gen
    drift = float(np.max(np.abs(proj @ _IDENTITY_VEC)))
    if drift > 1e-12 * max(1.0, float(np.max(np.abs(gen)))):
        raise PreconditionError(f"the channel is not unital (Bloch drift {drift!r}); "
                                "the jump operator must be Hermitian")
    return 0.5 * (proj @ _PAULI_VEC).real


def hypothesis_operators(fields: FieldConfig, params: NvParameters, noise: NoiseModel):
    """((H0, L0), (H1, L1)) of the baseline and switched hypotheses, H the
    traceless Hamiltonian; a jump operator is None without noise. The
    electric-noise axis follows the rule of production
    (``nvdetect.dynamics._noise_direction_fields``)."""
    h0 = traceless_hamiltonian(params, fields.e0, fields.b_z)
    h1 = traceless_hamiltonian(params, fields.e1, fields.b_z)
    if noise.kind is NoiseKind.NONE or noise.rate == 0.0:
        return (h0, None), (h1, None)
    dir0, dir1 = _noise_direction_fields(fields)
    return (h0, lindblad_operator(dir0, noise)), (h1, lindblad_operator(dir1, noise))


#: Default internal step: 1/200 of the fastest precession period and of T2.
DEFAULT_STEP_DIVISOR = 200.0
#: Hard precondition: steps may never exceed 1/20 of the precession period.
MAX_STEP_DIVISOR = 20.0


class Route(enum.Enum):
    CLOSED_TRANSVERSE = "closed_transverse"
    CLOSED_AXIAL_FIELD = "closed_axial_field"
    CLOSED_DEPHASING = "closed_dephasing"
    CLOSED = "closed"  # whichever closed form applies; error if none does
    RK4 = "rk4"
    SUPEROPERATOR = "superoperator"


@dataclass(frozen=True)
class EvolutionSpec:
    """One hypothesis to propagate: Hamiltonian (rad/s), optional jump
    operator (sqrt(1/s)) and initial state."""

    hamiltonian: np.ndarray
    lindblad: np.ndarray | None = None
    rho0: DensityMatrix2 = field(default_factory=DensityMatrix2.pole_plus)


@dataclass(frozen=True)
class Trajectory:
    """States sampled on a strictly increasing time grid."""

    times: np.ndarray
    states: tuple[DensityMatrix2, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.states):
            raise PreconditionError("times and states must have equal length")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise PreconditionError("times must be strictly increasing")

    def bloch(self) -> np.ndarray:
        return np.array([bloch_vector(s) for s in self.states])


def expm_small(m: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """exp(scale * m) for one matrix up to 4x4.

    Scaling and squaring around a Taylor series, after removing the mean
    diagonal (trace/dim) which only contributes a scalar factor. Series
    terms are added until they fall below 1e-20 relative, so the result is
    accurate to ~1e-12 or better for the norms used here.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise PreconditionError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] > 4:
        raise PreconditionError(f"dimension {m.shape[0]} exceeds supported maximum 4")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise PreconditionError("matrix entries must be finite")
    dim = m.shape[0]
    a = scale * m
    mu = np.trace(a) / dim
    a = a - mu * np.eye(dim, dtype=complex)

    norm1 = float(np.max(np.sum(np.abs(a), axis=0))) if dim else 0.0
    squarings = max(0, int(math.ceil(math.log2(norm1 / 0.5))) if norm1 > 0.5 else 0)
    b = a / (2.0 ** squarings)

    result = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for k in range(1, 40):
        term = term @ b / k
        result = result + term
        if float(np.max(np.abs(term))) <= 1e-20 * max(1.0, float(np.max(np.abs(result)))):
            break
    for _ in range(squarings):
        result = result @ result
    return np.exp(mu) * result


def expm_horner(a: np.ndarray) -> np.ndarray:
    """exp(a) for every matrix of a stack, as ``nvdetect.linalg.expm_batch``
    computes it but with the TAYLOR_TERMS-term Taylor series in Horner form
    (17 matrix products): the reference of its Paterson-Stockmeyer
    evaluation. The scaling to a 1-norm <= 1/2 and the squarings are the
    same, and neither has a trace shift.
    """
    a = np.asarray(a)
    eye = np.eye(a.shape[-1], dtype=a.dtype)
    norm1 = np.max(np.sum(np.abs(a), axis=-2), axis=-1)
    squarings = np.ceil(np.log2(np.maximum(norm1, 0.5) / 0.5))
    b = a / np.exp2(squarings)[..., None, None]
    result = eye + b / TAYLOR_TERMS
    for k in range(TAYLOR_TERMS - 1, 0, -1):
        result = eye + (b @ result) / k
    for j in range(int(np.max(squarings, initial=0.0))):
        result = np.where((squarings > j)[..., None, None], result @ result, result)
    return result


@dataclass(frozen=True)
class HamiltonianSpectrum:
    """Ground-state eigenfrequencies in rad/s: 0 and the split +-1 pair."""

    eps0: float
    eps_plus: float
    eps_minus: float
    delta_eps: float


def hamiltonian_full(params: NvParameters, e_field, b_z: float) -> np.ndarray:
    """3x3 ground-state Hamiltonian over (|+1>, |0>, |-1>) in rad/s.

    The |0> row and column stay zero because only axial magnetic fields are
    modeled; transverse electric fields couple |+1> and |-1> directly.
    """
    d = axial_shift(params, e_field)
    e_perp = params.transverse_coupling(e_field)
    bz = params.zeeman_rate(b_z)
    h = np.zeros((3, 3), dtype=complex)
    h[0, 0] = d + bz
    h[2, 2] = d - bz
    h[0, 2] = np.conj(e_perp)
    h[2, 0] = e_perp
    return h


def spectrum(params: NvParameters, e_field, b_z: float) -> HamiltonianSpectrum:
    """Eigenfrequencies {0, D +- delta} with delta = sqrt(|coupling|^2 + zeeman^2)."""
    d = axial_shift(params, e_field)
    e_perp = params.transverse_coupling(e_field)
    bz = params.zeeman_rate(b_z)
    delta = math.hypot(abs(e_perp), bz)
    return HamiltonianSpectrum(eps0=0.0, eps_plus=d + delta, eps_minus=d - delta, delta_eps=delta)


def _hamiltonian_parts(h: np.ndarray) -> tuple[float, float, complex]:
    """Split a 2x2 Hermitian Hamiltonian into (mean shift, axial half-split,
    transverse coupling), all rad/s."""
    h = np.asarray(h, dtype=complex)
    if h.shape != (2, 2):
        raise PreconditionError(f"two-level Hamiltonian must be 2x2, got {h.shape}")
    scale = max(1.0, float(np.max(np.abs(h))))
    if abs(h[0, 1] - np.conj(h[1, 0])) > 1e-9 * scale or abs(h[0, 0].imag) > 1e-9 * scale:
        raise PreconditionError("two-level Hamiltonian must be Hermitian")
    mean = 0.5 * (h[0, 0].real + h[1, 1].real)
    axial = 0.5 * (h[0, 0].real - h[1, 1].real)
    return mean, axial, complex(h[1, 0])


def _lindblad_parts(lindblad: np.ndarray | None) -> tuple[float, np.ndarray | None]:
    """Extract (rate kappa, unit direction matrix) from sqrt(kappa/2)*sigma_n."""
    if lindblad is None:
        return 0.0, None
    l = np.asarray(lindblad, dtype=complex)
    if l.shape != (2, 2):
        raise PreconditionError(f"jump operator must be 2x2, got {l.shape}")
    norm2 = float(np.max(np.abs(dagger(l) @ l)))
    if norm2 == 0.0:
        return 0.0, None
    kappa = 2.0 * norm2
    return kappa, l / math.sqrt(norm2)


def _is_pole_plus(rho0: DensityMatrix2) -> bool:
    return bool(np.max(np.abs(rho0.matrix - DensityMatrix2.pole_plus().matrix)) <= 1e-12)


def _require_pole_plus(rho0: DensityMatrix2, what: str) -> None:
    if not _is_pole_plus(rho0):
        raise PreconditionError(f"{what} is only valid from the |+1><+1| initial state")


def evolve_closed_transverse(hamiltonian: np.ndarray, rho0: DensityMatrix2, t: float) -> DensityMatrix2:
    """Unitary solution for a pure transverse drive from |+1><+1|.

    Populations go as cos^2(w t) / sin^2(w t) with w = |coupling| and the
    coherence as -(i u / 2) sin(2 w t), u the coupling's unit phase.
    """
    _, axial, coupling = _hamiltonian_parts(hamiltonian)
    scale = max(1.0, abs(coupling), abs(axial))
    if abs(axial) > 1e-9 * scale:
        raise PreconditionError("closed transverse form requires zero axial splitting")
    _require_pole_plus(rho0, "closed transverse form")
    w = abs(coupling)
    if w == 0.0:
        return rho0
    unit = coupling / w
    cos2 = math.cos(w * t) ** 2
    off = -0.5j * unit * math.sin(2.0 * w * t)
    return DensityMatrix2(np.array([[cos2, np.conj(off)], [off, 1.0 - cos2]], dtype=complex))


def evolve_closed_axial_field(hamiltonian: np.ndarray, rho0: DensityMatrix2, t: float) -> DensityMatrix2:
    """Unitary solution with both transverse drive and axial splitting, from
    |+1><+1|. Populations oscillate at the total rate sqrt(b^2 + w^2) but only
    the transverse fraction w^2 of the population can transfer."""
    _, axial, coupling = _hamiltonian_parts(hamiltonian)
    _require_pole_plus(rho0, "closed axial-field form")
    w = abs(coupling)
    total = math.hypot(axial, w)
    if total == 0.0:
        return rho0
    r11 = (axial * axial + w * w * math.cos(total * t) ** 2) / (total * total)
    off = (coupling / (2.0 * total * total)) * (
        axial * (1.0 - math.cos(2.0 * total * t)) - 1.0j * total * math.sin(2.0 * total * t)
    )
    return DensityMatrix2(np.array([[r11, np.conj(off)], [off, 1.0 - r11]], dtype=complex))


def evolve_closed_dephasing(
    hamiltonian: np.ndarray,
    lindblad: np.ndarray,
    rho0: DensityMatrix2,
    t: float,
) -> DensityMatrix2:
    """Transverse drive with dephasing along the same axis, from |+1><+1|.

    The oscillations of the zero-noise solution acquire a factor exp(-kappa t).
    """
    _, axial, coupling = _hamiltonian_parts(hamiltonian)
    scale = max(1.0, abs(coupling), abs(axial))
    if abs(axial) > 1e-9 * scale:
        raise PreconditionError("closed dephasing form requires zero axial splitting")
    _require_pole_plus(rho0, "closed dephasing form")
    kappa, direction = _lindblad_parts(lindblad)
    w = abs(coupling)
    if kappa == 0.0:
        return evolve_closed_transverse(hamiltonian, rho0, t)
    decay = math.exp(-kappa * t)
    if w == 0.0:
        # Pure dephasing of the pole state: populations relax toward 1/2.
        r11 = 0.5 * (1.0 + decay)
        return DensityMatrix2(np.array([[r11, 0.0], [0.0, 1.0 - r11]], dtype=complex))
    unit = coupling / w
    noise_unit = complex(direction[1, 0])
    if min(abs(noise_unit - unit), abs(noise_unit + unit)) > 1e-9:
        raise PreconditionError("closed dephasing form requires noise collinear with the drive")
    r11 = 0.5 * (1.0 + decay * math.cos(2.0 * w * t))
    off = -0.5j * unit * decay * math.sin(2.0 * w * t)
    return DensityMatrix2(np.array([[r11, np.conj(off)], [off, 1.0 - r11]], dtype=complex))


def default_step(hamiltonian: np.ndarray, t2: float = math.inf) -> float:
    """Default integrator step: DEFAULT_STEP_DIVISOR points per precession
    period (rate = twice the traceless Hamiltonian norm) and per T2."""
    _, axial, coupling = _hamiltonian_parts(hamiltonian)
    rate = 2.0 * math.hypot(axial, abs(coupling))
    candidates = []
    if rate > 0.0:
        candidates.append(2.0 * math.pi / (DEFAULT_STEP_DIVISOR * rate))
    if math.isfinite(t2):
        candidates.append(t2 / DEFAULT_STEP_DIVISOR)
    return min(candidates) if candidates else 1e-9


def _max_step(hamiltonian: np.ndarray, t2: float) -> float:
    _, axial, coupling = _hamiltonian_parts(hamiltonian)
    rate = 2.0 * math.hypot(axial, abs(coupling))
    bound = math.inf
    if rate > 0.0:
        bound = 2.0 * math.pi / (MAX_STEP_DIVISOR * rate)
    if math.isfinite(t2):
        bound = min(bound, t2 / (MAX_STEP_DIVISOR * 5.0))
    return bound


def _eigmin2(m: np.ndarray) -> float:
    half_sum = 0.5 * (m[0, 0].real + m[1, 1].real)
    rad = math.hypot(0.5 * (m[0, 0].real - m[1, 1].real), abs(m[1, 0]))
    return half_sum - rad


def integrate_master_equation(
    spec: EvolutionSpec,
    t_end: float,
    dt: float | None = None,
    store_times=None,
) -> Trajectory:
    """Classic fixed-step RK4 integration of the master equation.

    Every internal step is re-Hermitized and trace-renormalized; the applied
    correction must stay below 1e-9 and the smallest eigenvalue above -1e-9,
    otherwise the run aborts with a diagnostic. Store times may be any subset
    of [0, t_end]; each segment is integrated with a uniform substep <= dt so
    sample points are hit exactly.
    """
    if t_end < 0.0:
        raise PreconditionError("t_end must be nonnegative")
    h = np.asarray(spec.hamiltonian, dtype=complex)
    kappa, _ = _lindblad_parts(spec.lindblad)
    t2 = math.inf if kappa == 0.0 else 1.0 / kappa
    if dt is None:
        dt = default_step(h, t2)
    bound = _max_step(h, t2)
    if dt <= 0.0 or dt > bound:
        raise PreconditionError(f"step {dt!r} violates the step-size policy (max {bound!r})")

    if store_times is None:
        n_samples = min(501, max(2, int(round(t_end / dt)) + 1))
        store_times = np.linspace(0.0, t_end, n_samples) if t_end > 0 else np.array([0.0])
    store_times = np.asarray(store_times, dtype=float)
    if store_times[0] < 0.0 or store_times[-1] > t_end * (1 + 1e-12) + 1e-300:
        raise PreconditionError("store_times must lie within [0, t_end]")

    lind = None if spec.lindblad is None else np.asarray(spec.lindblad, dtype=complex)
    has_noise = lind is not None and float(np.max(np.abs(lind))) > 0.0
    if has_noise:
        lind_dag = dagger(lind)
        lind_sq = lind_dag @ lind

    def rhs(r: np.ndarray) -> np.ndarray:
        out = -1j * (h @ r - r @ h)
        if has_noise:
            out = out + lind @ r @ lind_dag - 0.5 * (lind_sq @ r + r @ lind_sq)
        return out

    rho = np.array(spec.rho0.matrix, dtype=complex)
    states: list[DensityMatrix2] = []
    t_now = 0.0
    for t_target in store_times:
        seg = t_target - t_now
        if seg < -1e-18:
            raise PreconditionError("store_times must be sorted ascending")
        if seg > 1e-18:
            n_sub = max(1, int(math.ceil(seg / dt - 1e-12)))
            sub = seg / n_sub
            for _ in range(n_sub):
                k1 = rhs(rho)
                k2 = rhs(rho + 0.5 * sub * k1)
                k3 = rhs(rho + 0.5 * sub * k2)
                k4 = rhs(rho + sub * k3)
                rho = rho + (sub / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
                herm = 0.5 * (rho + np.conj(rho.T))
                trace = herm.trace().real
                correction = max(float(np.max(np.abs(rho - herm))), abs(trace - 1.0))
                if correction >= 1e-9:
                    raise NumericalInvariantError(
                        f"integrator correction {correction!r} at t~{t_now!r} exceeds 1e-9; "
                        "reduce the step"
                    )
                rho = herm / trace
                if _eigmin2(rho) < -1e-9:
                    raise NumericalInvariantError(
                        f"state positivity violated beyond 1e-9 at t~{t_now!r}"
                    )
        t_now = t_target
        states.append(DensityMatrix2(rho.copy()))
    return Trajectory(times=store_times, states=tuple(states))


def propagate_superoperator(spec: EvolutionSpec, t: float) -> DensityMatrix2:
    """Single-shot propagation by exponentiating the 4x4 generator."""
    gen = liouvillian(spec.hamiltonian, spec.lindblad)
    vec = spec.rho0.matrix.flatten(order="F")
    out = (expm_small(gen, t) @ vec).reshape((2, 2), order="F")
    out = 0.5 * (out + np.conj(out.T))
    out = out / out.trace().real
    return DensityMatrix2(out)


def _applicable_closed_form(
    hamiltonian: np.ndarray, lindblad: np.ndarray | None, rho0: DensityMatrix2
) -> Route | None:
    kappa, direction = _lindblad_parts(lindblad)
    _, axial, coupling = _hamiltonian_parts(hamiltonian)
    scale = max(1.0, abs(coupling), abs(axial))
    if not _is_pole_plus(rho0):
        return None
    if kappa == 0.0:
        return Route.CLOSED_AXIAL_FIELD if abs(axial) > 1e-9 * scale else Route.CLOSED_TRANSVERSE
    if (
        abs(axial) <= 1e-9 * scale
        and direction is not None
        and abs(complex(direction[0, 0])) < 1e-12
        and (
            abs(coupling) == 0.0
            or min(
                abs(complex(direction[1, 0]) - coupling / abs(coupling)),
                abs(complex(direction[1, 0]) + coupling / abs(coupling)),
            )
            <= 1e-9
        )
    ):
        return Route.CLOSED_DEPHASING
    return None


def _single_hypothesis(
    hamiltonian: np.ndarray,
    lindblad: np.ndarray | None,
    rho0: DensityMatrix2,
    t: float,
    method: Route,
    dt: float | None = None,
) -> DensityMatrix2:
    kappa, _ = _lindblad_parts(lindblad)

    if method is Route.CLOSED:
        resolved = _applicable_closed_form(hamiltonian, lindblad, rho0)
        if resolved is None:
            raise PreconditionError("no closed-form propagator applies to this configuration")
        method = resolved

    if method is Route.CLOSED_TRANSVERSE:
        if kappa > 0.0:
            raise PreconditionError("closed transverse form requires zero noise")
        return evolve_closed_transverse(hamiltonian, rho0, t)
    if method is Route.CLOSED_AXIAL_FIELD:
        if kappa > 0.0:
            raise PreconditionError("closed axial-field form requires zero noise")
        return evolve_closed_axial_field(hamiltonian, rho0, t)
    if method is Route.CLOSED_DEPHASING:
        return evolve_closed_dephasing(hamiltonian, lindblad, rho0, t)
    if method is Route.SUPEROPERATOR:
        return propagate_superoperator(
            EvolutionSpec(hamiltonian=hamiltonian, lindblad=lindblad, rho0=rho0), t
        )
    if method is Route.RK4:
        spec = EvolutionSpec(hamiltonian=hamiltonian, lindblad=lindblad, rho0=rho0)
        if t == 0.0:
            return rho0
        return integrate_master_equation(spec, t, dt=dt, store_times=np.array([t])).states[-1]
    raise PreconditionError(f"unknown method {method!r}")


def evolve_pair(
    fields: FieldConfig,
    params: NvParameters,
    noise: NoiseModel,
    rho0: DensityMatrix2,
    t: float,
    method: Route,
    dt: float | None = None,
) -> tuple[DensityMatrix2, DensityMatrix2]:
    """Evolve the shared initial state under both hypotheses for time t by
    the reference route ``method`` (``dt`` overrides the RK4 step), with the
    operators of :func:`hypothesis_operators`."""
    (h0, l0), (h1, l1) = hypothesis_operators(fields, params, noise)
    return (
        _single_hypothesis(h0, l0, rho0, t, method, dt=dt),
        _single_hypothesis(h1, l1, rho0, t, method, dt=dt),
    )


def density_matrix(r) -> DensityMatrix2:
    """(I + x sigma_x + y sigma_y + z sigma_z) / 2 of a Bloch vector r,
    validated: the inverse of ``nvdetect.linalg.bloch_vector``."""
    x, y, z = (float(c) for c in r)
    return DensityMatrix2(0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]]))


@dataclass(frozen=True)
class EigenPair2:
    """Eigensystem of a 2x2 Hermitian matrix: values descending, orthonormal
    column eigenvectors with a deterministic phase (first nonzero component
    real and positive)."""

    eigenvalues: tuple[float, float]
    eigenvectors: np.ndarray = field(repr=False)

    @property
    def vector_plus(self) -> np.ndarray:
        return self.eigenvectors[:, 0]

    @property
    def vector_minus(self) -> np.ndarray:
        return self.eigenvectors[:, 1]


def _fix_phase(v: np.ndarray) -> np.ndarray:
    for comp in v:
        if abs(comp) > 1e-14:
            return v * (np.conj(comp) / abs(comp))
    return v


def herm_eigen2(m: np.ndarray) -> EigenPair2:
    """Closed-form eigendecomposition of a 2x2 Hermitian matrix.

    The degenerate case returns the canonical basis. Branches pick whichever
    analytic null-vector row is better conditioned, and the second vector is
    the exact orthogonal complement of the first.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise PreconditionError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise PreconditionError("matrix entries must be finite")
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m - np.conj(m.T))) > 1e-12 * scale:
        raise PreconditionError("herm_eigen2 requires a Hermitian matrix (1e-12)")
    a = m[0, 0].real
    c = m[1, 1].real
    b = m[1, 0]
    half_diff = 0.5 * (a - c)
    rad = math.hypot(half_diff, abs(b))
    lam_plus = 0.5 * (a + c) + rad
    lam_minus = 0.5 * (a + c) - rad

    if rad <= 1e-15 * scale:
        vecs = np.eye(2, dtype=complex)
    else:
        cand_a = np.array([np.conj(b), lam_plus - a], dtype=complex)
        cand_b = np.array([lam_plus - c, b], dtype=complex)
        v_plus = cand_a if np.linalg.norm(cand_a) >= np.linalg.norm(cand_b) else cand_b
        v_plus = v_plus / np.linalg.norm(v_plus)
        v_minus = np.array([-np.conj(v_plus[1]), np.conj(v_plus[0])], dtype=complex)
        vecs = np.column_stack([_fix_phase(v_plus), _fix_phase(v_minus)])
    return EigenPair2(eigenvalues=(float(lam_plus), float(lam_minus)), eigenvectors=vecs)


@dataclass(frozen=True)
class HelstromDecomposition:
    """Eigensystem of the weighted state difference; lambda_plus >= lambda_minus."""

    lambda_plus: float
    lambda_minus: float
    phi_plus: np.ndarray = field(repr=False)
    phi_minus: np.ndarray = field(repr=False)
    priors: tuple[float, float] = (0.5, 0.5)


@dataclass(frozen=True)
class PovmPair:
    """Projector pair: pi1 clicks for "field switched", pi0 for "baseline"."""

    pi0: np.ndarray = field(repr=False)
    pi1: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class DiscriminationReport:
    """Error budget of one measurement: total, dark-count, and false-negative
    probabilities."""

    p_err: float
    p_dc: float
    p_fn: float


def helstrom_operator(
    rho0: DensityMatrix2,
    rho1: DensityMatrix2,
    priors: tuple[float, float] = (0.5, 0.5),
) -> HelstromDecomposition:
    """Spectral decomposition of P1 rho1 - P0 rho0."""
    p0, p1 = _checked_priors(priors)
    pair = herm_eigen2(p1 * rho1.matrix - p0 * rho0.matrix)
    return HelstromDecomposition(
        lambda_plus=pair.eigenvalues[0],
        lambda_minus=pair.eigenvalues[1],
        phi_plus=pair.vector_plus,
        phi_minus=pair.vector_minus,
        priors=(float(p0), float(p1)),
    )


def povm_pair(decomposition: HelstromDecomposition) -> PovmPair:
    """Build the projector pair from the decomposition.

    Eigenvectors with nonnegative eigenvalue feed pi1, strictly negative ones
    pi0; zero eigenvalues therefore land in pi1, so a degenerate (identical
    states) decision yields pi1 = identity. When both eigenvalues fall on one
    side, that projector is set to the identity exactly instead of being
    summed from two rank-one projectors.
    """
    zero = np.zeros((2, 2), dtype=complex)
    if decomposition.lambda_minus >= 0.0:
        return PovmPair(pi0=zero, pi1=IDENTITY_2.copy())
    if decomposition.lambda_plus < 0.0:
        return PovmPair(pi0=IDENTITY_2.copy(), pi1=zero)
    phi_plus, phi_minus = decomposition.phi_plus, decomposition.phi_minus
    return PovmPair(
        pi0=np.outer(phi_minus, np.conj(phi_minus)), pi1=np.outer(phi_plus, np.conj(phi_plus))
    )


def min_error(
    rho0: DensityMatrix2,
    rho1: DensityMatrix2,
    priors: tuple[float, float] = (0.5, 0.5),
) -> DiscriminationReport:
    """Minimal-error report for discriminating rho0 from rho1 by the operator
    form. The trace-form and eigenvalue-form error probabilities must agree
    to 1e-12."""
    dec = helstrom_operator(rho0, rho1, priors)
    pair = povm_pair(dec)
    p0, p1 = dec.priors
    p_dc = float(np.trace(rho0.matrix @ pair.pi1).real)
    p_fn = float(np.trace(rho1.matrix @ pair.pi0).real)
    p_trace = p0 * p_dc + p1 * p_fn
    p_eigen = 0.5 * (1.0 - abs(dec.lambda_plus) - abs(dec.lambda_minus))
    if abs(p_trace - p_eigen) > 1e-12:
        raise NumericalInvariantError(
            f"error-probability formulas disagree: trace={p_trace!r} eigen={p_eigen!r}"
        )
    return DiscriminationReport(
        p_err=min(max(p_trace, 0.0), 1.0),
        p_dc=min(max(p_dc, 0.0), 1.0),
        p_fn=min(max(p_fn, 0.0), 1.0),
    )


class VectorDecision(NamedTuple):
    """:func:`min_error_vectors`' report: clipped p_err, p_dc and p_fn, the
    eigenvalues, and the (n, 3) unit vectors of v."""

    p_err: np.ndarray
    p_dc: np.ndarray
    p_fn: np.ndarray
    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    unit: np.ndarray


def min_error_vectors(r0, r1, priors: tuple[float, float] = (0.5, 0.5)) -> VectorDecision:
    """The Helstrom report of every row of two (n, 3) Bloch-vector arrays, by
    numpy's reductions over the last axis: the vector-major formulas that the
    package's row arithmetic on (3, n) arrays must reproduce bit for bit."""
    p0, p1 = _checked_priors(priors)
    r0, r1 = np.asarray(r0, dtype=float), np.asarray(r1, dtype=float)
    v = p1 * r1 - p0 * r0
    length = np.sqrt(np.sum(v * v, axis=-1))
    lam_plus = 0.5 * ((p1 - p0) + length)
    lam_minus = 0.5 * ((p1 - p0) - length)
    unit = v / np.where(length > 0.0, length, 1.0)[..., None]
    all_pi1, all_pi0 = lam_minus >= 0.0, lam_plus < 0.0
    p_dc = np.where(all_pi1, 1.0, np.where(all_pi0, 0.0, 0.5 * (1.0 + np.sum(unit * r0, axis=-1))))
    p_fn = np.where(all_pi1, 0.0, np.where(all_pi0, 1.0, 0.5 * (1.0 - np.sum(unit * r1, axis=-1))))
    return VectorDecision(np.clip(p0 * p_dc + p1 * p_fn, 0.0, 1.0), np.clip(p_dc, 0.0, 1.0),
                          np.clip(p_fn, 0.0, 1.0), lam_plus, lam_minus, unit)


def worst_bloch_norm(r) -> float:
    """The longest Bloch vector of an (..., 3) array, by numpy's sum over the last axis."""
    return float(np.max(np.sqrt(np.sum(r * r, axis=-1)), initial=0.0))


#: Fixed readout projectors of the fluorescence basis: staying in |+1> reads
#: "baseline", arriving in |-1> reads "field switched".
STANDARD_PI0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
STANDARD_PI1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def standard_basis_error(
    rho0: DensityMatrix2,
    rho1: DensityMatrix2,
    priors: tuple[float, float] = (0.5, 0.5),
    best_assignment: bool = False,
) -> float:
    """Error probability of the fixed standard-basis readout, as traces;
    ``best_assignment`` returns the cheaper of the two outcome labelings."""
    p0, p1 = _checked_priors(priors)
    p_err = p0 * float(np.trace(rho0.matrix @ STANDARD_PI1).real) + p1 * float(
        np.trace(rho1.matrix @ STANDARD_PI0).real
    )
    if best_assignment:
        p_err = min(p_err, 1.0 - p_err)
    return min(max(p_err, 0.0), 1.0)


def simulate_click(rho_true: DensityMatrix2, povm: PovmPair, rng: np.random.Generator) -> bool:
    """One stochastic readout, True (bright) with probability Tr(rho Pi1),
    clipped to [0, 1].

    Readout is treated as instantaneous relative to the spin dynamics. This
    is the per-click reference of the turn-on protocol, which draws the same
    ``rng.random()`` values of a run's generator in bulk, one
    ``rng.random((cycles, n_sensors))`` array per cycle slice.
    """
    p_bright = min(max(float(np.trace(rho_true.matrix @ povm.pi1).real), 0.0), 1.0)
    return rng.random() < p_bright


def straddling_state(fields, params, noise, rho_init, t_start, t_end, t_star) -> DensityMatrix2:
    """The state read out at t_end of a cycle prepared at t_start that the
    switch at t_star straddles: the baseline superoperator up to t_star, the
    switched one after it."""
    (h0, l0), (h1, l1) = hypothesis_operators(fields, params, noise)
    mid = propagate_superoperator(EvolutionSpec(h0, l0, rho_init), t_star - t_start)
    return propagate_superoperator(EvolutionSpec(h1, l1, mid), t_end - t_star)


def reference_transcript(
    fields, params, noise, t_cycle, n_cycles, t_star, n_sensors, seed, preparation
) -> dict:
    """One run of the turn-on protocol, click by click: one generator,
    ``default_rng(seed)``, for the run and one :func:`simulate_click` per
    cycle and sensor in that order (cycle-major), every cycle state propagated
    afresh by the superoperator and read out with the operator-form
    projectors of the static problem at t_cycle.

    Returns the run's per-cycle sensor clicks (``bright``), their count
    (``n_bright``), majority and confidence, and the estimated switch
    ``interval`` (None without a confident bright cycle or an informative
    switch), as lists that compare equal to the ``tolist()`` of one run of a
    ``nvdetect.protocol.ClickBlock``.
    """
    rho_init = preparation.density_matrix()
    rho_dark, rho_bright = evolve_pair(
        fields, params, noise, rho_init, t_cycle, method=Route.SUPEROPERATOR
    )
    povm = povm_pair(helstrom_operator(rho_dark, rho_bright, fields.priors))
    informative = min_error(rho_dark, rho_bright, fields.priors).p_err < 0.5 - 1e-6
    rng = np.random.default_rng(seed)
    bright, n_bright, majority, confident = [], [], [], []
    for cycle in range(n_cycles):
        t_start, t_end = cycle * t_cycle, (cycle + 1) * t_cycle
        if t_star >= t_end:
            rho = rho_dark
        elif t_star <= t_start:
            rho = rho_bright
        else:
            rho = straddling_state(fields, params, noise, rho_init, t_start, t_end, t_star)
        votes = [simulate_click(rho, povm, rng) for _ in range(n_sensors)]
        bright.append(votes)
        n_bright.append(sum(votes))
        majority.append(2 * sum(votes) > n_sensors)
        confident.append(abs(2 * sum(votes) - n_sensors) >= 2 or n_sensors == 1)

    return {
        "bright": bright,
        "n_bright": n_bright,
        "majority": majority,
        "confident": confident,
        "interval": bracket(majority, confident, t_cycle) if informative else None,
    }


def bracket(majority, confident, t_cycle):
    """The estimated switch interval (lo, hi) of one run from its per-cycle
    majorities and confidence flags (sequences of bools), cycle by cycle in
    Python floats, or None without a confident bright cycle.

    hi is the end of the first confident bright cycle. lo is the start of
    the last confident dark cycle before it, or two cycles before hi
    (floored at 0) without one; an interval wider than two cycles is clipped
    to two cycles about its center.
    """
    n_cycles = len(majority)
    firsts = [i for i in range(n_cycles) if confident[i] and majority[i]]
    if not firsts:
        return None
    first = firsts[0]
    dark = [i for i in range(first) if confident[i] and not majority[i]]
    hi = (first + 1) * t_cycle
    if not dark:
        return (max(0.0, hi - 2.0 * t_cycle), hi)
    lo = dark[-1] * t_cycle
    if hi - lo > 2.0 * t_cycle:
        center = 0.5 * (lo + hi)
        lo, hi = center - t_cycle, center + t_cycle
    return (lo, hi)


def optimal_time_analytic(de_x: float, n: int = 1, params: NvParameters | None = None) -> float:
    """n-th quarter-period time of a collinear switch:
    n * pi / (2 |coupling change|).

    Odd n are the zero-decoherence error minima (the hypothesis states are
    then orthogonal); even n are revivals where the states coincide. The
    formula identifies the minima while the dephasing rate stays small
    compared to the switch coupling.
    """
    if de_x == 0.0:
        raise PreconditionError("optimal time undefined for a zero field switch")
    if n < 1:
        raise PreconditionError(f"n must be a positive integer, got {n!r}")
    params = params or NvParameters()
    return n * math.pi / (2.0 * TWO_PI * params.d_perp * abs(de_x))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def optimal_time_search_sequential(
    fields: FieldConfig,
    params: NvParameters,
    noise: NoiseModel,
    rho0: DensityMatrix2,
    window: tuple[float, float],
    n_grid: int = 2048,
) -> tuple[float, float]:
    """Global minimum of p_err(t) over a window, one kernel call per point.

    The independent reference of ``nvdetect.discrimination.optimal_time_search``,
    which refines the basin with zoomed uniform scans instead: dense sampling
    (n_grid + 1 points, one grid propagation) locates the basin at the
    earliest point within the flat tolerance of the scanned minimum, which is
    the answer when p_err is flat there; golden section refines it to 1e-10 s,
    or to two ulp of t where floats lie further apart, with one-point
    propagations. The flat tolerance is max(32, theta_max) ulp
    of 1/2, theta_max = 2 t_hi max ||b.sigma||_2 over both hypotheses (the
    spectral norm of the traceless Hamiltonian is |b|). Exact ties of the
    refinement break toward smaller t. The two searches agree on t to
    1e-10 s wherever p_err's bottom is deep enough to resolve it, not bit
    for bit.
    """
    t_lo, t_hi = window
    if not (0.0 <= t_lo < t_hi):
        raise PreconditionError(f"invalid search window {window!r}")
    if t_hi > 10.0 * params.t2:
        raise PreconditionError("search window must not extend beyond 10*T2")
    if n_grid < 2000:
        raise PreconditionError("dense sampling requires at least 2000 intervals")

    states = partial(evolve_bloch, bloch_generators(fields, params, noise), bloch_vector(rho0))

    def p_err(times) -> np.ndarray:
        r0, r1 = states(times)
        return min_error_grid(r0, r1, fields.priors).p_err

    def objective(t: float) -> float:
        return float(p_err(np.array([t]))[0])

    rate = max(
        np.linalg.norm(traceless_hamiltonian(params, e, fields.b_z), 2) for e in (fields.e0, fields.e1)
    )
    grid = np.linspace(t_lo, t_hi, n_grid + 1)
    values = p_err(grid)
    floor = np.min(values) + max(32.0, 2.0 * rate * t_hi) * math.ulp(0.5)
    idx = next(k for k, p in enumerate(values) if p <= floor)  # earliest near-minimum point
    if idx == 0 and values[1] <= floor:  # flat: idx - 1 lies above the floor unless idx is 0
        return float(grid[0]), float(values[0])

    lo = grid[max(idx - 1, 0)]
    hi = grid[min(idx + 1, n_grid)]
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    while hi - lo > max(1e-10, 2.0 * math.ulp(hi)):  # floats of t near 1e6 s lie 1.2e-10 s apart
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = objective(x2)
    t_star = 0.5 * (lo + hi)
    p_star = objective(t_star)
    if values[idx] < p_star:
        t_star, p_star = float(grid[idx]), float(values[idx])
    return float(t_star), float(p_star)
