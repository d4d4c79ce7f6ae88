"""Time evolution of the two-level sensor state under each field hypothesis.

Production route: every modeled hypothesis has a time-independent
Hamiltonian and a Hermitian jump operator, so the master equation

    drho/dt = -i [H, rho] + L rho L' - (1/2) {L' L, rho},   L' = adjoint of L,

(H in rad/s) is a linear map r' = M r on the Bloch vector, with M a real
3x3 matrix. :func:`bloch_generators` builds M once per hypothesis and
:func:`propagate_generators` evaluates exp(M t) over a whole time array
with batched scaling-and-squaring (:func:`nvdetect.linalg.expm_batch`).
Every production grid is uniform (a ``np.linspace``); for one of n points,
t_k = t_0 + k h, the exponentials are the products
exp(M t_jB) exp(M i h) with k = j B + i and B = ceil(sqrt(n)), so about
2 sqrt(n) matrices are exponentiated instead of n. Any other time array,
including the one-point steps of the optimal-time search and the two
segment lengths of a protocol cycle, gets one exponential per time.

Cross-check routes, chosen by ``method``: three closed-form propagators for
the analytically solvable regimes (pure transverse field; transverse field
plus axial magnetic field; transverse field with collinear dephasing), a
fixed-step RK4 integrator, and a 4x4 superoperator exponential. They are
deliberately independent of the Bloch kernel and of each other.
"""
from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalInvariantError, PreconditionError
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
    expm_small,
)

#: Default internal step: 1/200 of the fastest precession period and of T2.
DEFAULT_STEP_DIVISOR = 200.0
#: Hard precondition: steps may never exceed 1/20 of the precession period.
MAX_STEP_DIVISOR = 20.0
#: Smallest uniform time grid that :func:`propagate_generators` evaluates as a
#: product of two exponential stacks. Measured on a 2-vCPU Xeon, the product
#: and one exponential per time cost the same at about 16 points; from 24
#: points on the product is faster.
PRODUCT_MIN_POINTS = 24


class Method(enum.Enum):
    CLOSED_TRANSVERSE = "closed_transverse"
    CLOSED_AXIAL_FIELD = "closed_axial_field"
    CLOSED_DEPHASING = "closed_dephasing"
    CLOSED = "closed"  # whichever closed form applies; error if none does
    RK4 = "rk4"
    SUPEROPERATOR = "superoperator"
    AUTO = "auto"  # the batched Bloch-vector kernel


@dataclass(frozen=True)
class EvolutionSpec:
    """One hypothesis to propagate: Hamiltonian (rad/s), optional jump
    operator (sqrt(1/s)), initial state, and preferred method."""

    hamiltonian: np.ndarray
    lindblad: np.ndarray | None = None
    rho0: DensityMatrix2 = field(default_factory=DensityMatrix2.pole_plus)
    method: Method = Method.AUTO


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


def write_trajectory_csv(path, trajectory: Trajectory) -> None:
    """CSV export: time, Re/Im of every density-matrix entry, Bloch x/y/z."""
    from .config import format_float  # deterministic 17-digit format

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["t", "re_r11", "im_r11", "re_r12", "im_r12",
             "re_r21", "im_r21", "re_r22", "im_r22", "x", "y", "z"]
        )
        for t, state in zip(trajectory.times, trajectory.states):
            m = state.matrix
            x, y, z = bloch_vector(state)
            entries = (m[0, 0], m[0, 1], m[1, 0], m[1, 1])
            writer.writerow(
                [format_float(t)]
                + [format_float(v) for e in entries for v in (e.real, e.imag)]
                + [format_float(x), format_float(y), format_float(z)]
            )


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


def _require_pole_plus(rho0: DensityMatrix2, what: str) -> None:
    if not rho0.is_close_to(DensityMatrix2.pole_plus(), atol=1e-12):
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


def propagate_superoperator(spec: EvolutionSpec, t: float) -> DensityMatrix2:
    """Single-shot propagation by exponentiating the 4x4 generator."""
    gen = liouvillian(spec.hamiltonian, spec.lindblad)
    vec = spec.rho0.matrix.flatten(order="F")
    out = (expm_small(gen, t) @ vec).reshape((2, 2), order="F")
    out = 0.5 * (out + np.conj(out.T))
    out = out / out.trace().real
    return DensityMatrix2(out)


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


def bloch_propagators(
    fields: FieldConfig, params: NvParameters, noise: NoiseModel, times
) -> np.ndarray:
    """exp(M_h t) of both hypotheses h at every time: shape (2, n, 3, 3)."""
    return propagate_generators(bloch_generators(fields, params, noise), times)


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
    method: Method = Method.AUTO,
) -> tuple[np.ndarray, np.ndarray]:
    """Bloch vectors of both hypotheses at every time, as two (n, 3) arrays.

    ``Method.AUTO`` is the production kernel: each hypothesis's Bloch
    generator is built once and exponentiated over the whole array by
    :func:`propagate_generators`. Any other method loops
    :func:`evolve_pair` over the points as a cross-check. Output vectors
    longer than 1 + 1e-12 raise NumericalInvariantError.
    """
    if method is not Method.AUTO:
        pairs = [evolve_pair(fields, params, noise, rho0, float(t), method=method) for t in times]
        return tuple(np.array([bloch_vector(p[k]) for p in pairs]).reshape(-1, 3) for k in (0, 1))
    r = evolve_bloch(bloch_generators(fields, params, noise), bloch_vector(rho0), times)
    return r[0], r[1]


def _applicable_closed_form(
    hamiltonian: np.ndarray, lindblad: np.ndarray | None, rho0: DensityMatrix2
) -> Method | None:
    kappa, direction = _lindblad_parts(lindblad)
    _, axial, coupling = _hamiltonian_parts(hamiltonian)
    scale = max(1.0, abs(coupling), abs(axial))
    if not rho0.is_close_to(DensityMatrix2.pole_plus(), atol=1e-12):
        return None
    if kappa == 0.0:
        return Method.CLOSED_AXIAL_FIELD if abs(axial) > 1e-9 * scale else Method.CLOSED_TRANSVERSE
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
        return Method.CLOSED_DEPHASING
    return None


def _single_hypothesis(
    hamiltonian: np.ndarray,
    lindblad: np.ndarray | None,
    rho0: DensityMatrix2,
    t: float,
    method: Method,
    dt: float | None = None,
) -> DensityMatrix2:
    kappa, _ = _lindblad_parts(lindblad)

    if method is Method.CLOSED:
        resolved = _applicable_closed_form(hamiltonian, lindblad, rho0)
        if resolved is None:
            raise PreconditionError("no closed-form propagator applies to this configuration")
        method = resolved

    if method is Method.CLOSED_TRANSVERSE:
        if kappa > 0.0:
            raise PreconditionError("closed transverse form requires zero noise")
        return evolve_closed_transverse(hamiltonian, rho0, t)
    if method is Method.CLOSED_AXIAL_FIELD:
        if kappa > 0.0:
            raise PreconditionError("closed axial-field form requires zero noise")
        return evolve_closed_axial_field(hamiltonian, rho0, t)
    if method is Method.CLOSED_DEPHASING:
        return evolve_closed_dephasing(hamiltonian, lindblad, rho0, t)
    if method is Method.SUPEROPERATOR:
        return propagate_superoperator(
            EvolutionSpec(hamiltonian=hamiltonian, lindblad=lindblad, rho0=rho0), t
        )
    if method is Method.RK4:
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
    method: Method = Method.AUTO,
    dt: float | None = None,
) -> tuple[DensityMatrix2, DensityMatrix2]:
    """Evolve the shared initial state under both hypotheses for time t.

    ``Method.AUTO`` is a one-point :func:`evolve_pair_grid`; any other method
    forces that cross-check route (``dt`` overrides the RK4 step). The
    electric-noise axis follows each hypothesis's own static field direction.
    """
    if method is Method.AUTO:
        r0, r1 = evolve_pair_grid(fields, params, noise, rho0, np.array([float(t)]))
        return DensityMatrix2.from_bloch(r0[0]), DensityMatrix2.from_bloch(r1[0])
    (h0, l0), (h1, l1) = _hypothesis_operators(fields, params, noise)
    return (
        _single_hypothesis(h0, l0, rho0, t, method, dt=dt),
        _single_hypothesis(h1, l1, rho0, t, method, dt=dt),
    )
