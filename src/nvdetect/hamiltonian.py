"""The sensor's parameters, the two field hypotheses and their noise, and
the Bloch generator of each hypothesis.

Unit system
-----------
Every Hamiltonian is divided by hbar, so its terms are angular frequencies
in rad/s and never joule-scale numbers. Electric fields are V/m, magnetic
fields Tesla, times seconds. The dipole coefficients are stored as the
conventional Hz.m/V numbers (their action on a field is multiplied by 2*pi
to land in rad/s).

The basis is (|+1>, |-1>): only an axial magnetic field is accepted, which
keeps |0> decoupled from the m = +-1 pair, so the 3x3 ground-state
Hamiltonian reduces to its 2x2 corner block. That block is a common shift
(zero-field splitting plus axial Stark shift) plus b.sigma, and the shift
cancels from all dynamics, so :func:`bloch_generator` builds the Bloch
generator from b alone.
"""
import enum
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import PreconditionError

TWO_PI = 2.0 * math.pi
HBAR = 1.054571817e-34  # J s
MU_B = 9.2740100783e-24  # J/T


@dataclass(frozen=True)
class NvParameters:
    """Ground-state energy parameters and relaxation times of the sensor.

    zero_field_splitting : Hz, gap between m=0 and m=+-1 at zero field
    d_parallel, d_perp   : Hz m/V, axial / transverse dipole coefficients
    t2                   : s, dephasing time (kappa = 1/t2); may be inf
    g_factor             : dimensionless electron g-factor

    zero_field_splitting and d_parallel (times E_z) only shift |+1> and |-1>
    together, which cancels from the two-level dynamics: no computation reads
    them, and they are kept so that configs naming them still load.
    Population relaxation (T1) is not modelled: spin flips are ignored. The
    field metadata is the range the run config admits (see :mod:`.config`).
    """

    zero_field_splitting: float = field(default=2.87e9, metadata={"above": 0.0})
    d_parallel: float = field(default=0.0035, metadata={"above": 0.0})
    d_perp: float = field(default=0.17, metadata={"above": 0.0})
    t2: float = field(default=10e-6, metadata={"above": 0.0, "null": math.inf})
    g_factor: float = field(default=2.0028, metadata={"above": 0.0})

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not value > 0.0:
                raise PreconditionError(f"NvParameters.{f.name} must be strictly positive, got {value!r}")

    @property
    def kappa(self) -> float:
        """Dephasing rate 1/T2 in 1/s (0 for infinite T2)."""
        return 0.0 if math.isinf(self.t2) else 1.0 / self.t2

    def transverse_coupling(self, e_field) -> complex:
        """d_perp (E_x + i E_y) expressed in rad/s."""
        ex, ey = float(e_field[0]), float(e_field[1])
        return TWO_PI * self.d_perp * complex(ex, ey)

    def zeeman_rate(self, b_z: float) -> float:
        """g mu_B B_z / hbar in rad/s."""
        return self.g_factor * MU_B * float(b_z) / HBAR

    def transfer_time(self, e_field, n: int = 1) -> float:
        """n pi / (2 |coupling|) in s, the n-th quarter period of the
        precession driven by the transverse part of e_field (inf without
        one). Started from |+1>, a pure transverse drive has moved the whole
        population to |-1> at odd n and back at even n."""
        c = self.transverse_coupling(e_field)
        coupling = math.hypot(c.real, c.imag)  # abs(c), but inf rather than OverflowError
        return n * math.pi / (2.0 * coupling) if coupling else math.inf


@dataclass(frozen=True)
class FieldConfig:
    """The two detection hypotheses: baseline field e0 and switched field e0+de.

    e0, de : (E_x, E_y, E_z) in V/m; de is the photon-induced change
    b_z    : axial magnetic field, Tesla
    priors : (P0, P1), a-priori probabilities of baseline / switched field
    """

    e0: tuple[float, float, float] = (0.0, 0.0, 0.0)
    de: tuple[float, float, float] = (1e6, 0.0, 0.0)
    b_z: float = 0.0
    priors: tuple[float, float] = (0.5, 0.5)

    def __post_init__(self) -> None:
        if len(self.e0) != 3 or len(self.de) != 3:
            raise PreconditionError("e0 and de must be 3-vectors in V/m")
        _checked_priors(self.priors)

    @property
    def e1(self) -> tuple[float, float, float]:
        return tuple(a + b for a, b in zip(self.e0, self.de))


def _checked_priors(priors: tuple[float, float]) -> tuple[float, float]:
    """(P0, P1), after checking that both are nonnegative and sum to 1."""
    p0, p1 = priors
    if p0 < 0.0 or p1 < 0.0 or abs(p0 + p1 - 1.0) > 1e-12:
        raise PreconditionError(f"priors must be nonnegative and sum to 1, got {priors!r}")
    return p0, p1


class NoiseKind(enum.Enum):
    ELECTRIC_ALONG_FIELD = "electric_along_field"
    MAGNETIC_AXIAL = "magnetic_axial"
    NONE = "none"


@dataclass(frozen=True)
class NoiseModel:
    """Markovian dephasing channel: which axis fluctuates and how fast (1/s)."""

    kind: NoiseKind = NoiseKind.ELECTRIC_ALONG_FIELD
    rate: float = field(default=1e5, metadata={"min": 0.0})

    def __post_init__(self) -> None:
        if self.rate < 0.0:
            raise PreconditionError(f"noise rate must be >= 0, got {self.rate!r}")

    @classmethod
    def electric(cls, rate: float) -> "NoiseModel":
        return cls(NoiseKind.ELECTRIC_ALONG_FIELD, rate)

    @classmethod
    def magnetic(cls, rate: float) -> "NoiseModel":
        return cls(NoiseKind.MAGNETIC_AXIAL, rate)

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls(NoiseKind.NONE, 0.0)


def bloch_generator(
    params: NvParameters, e_field, b_z: float, noise: NoiseModel, noise_field
) -> np.ndarray:
    """Real 3x3 generator M of the Bloch equation r' = M r of one hypothesis.

    The two-level Hamiltonian is H = a I + b.sigma (rad/s) with
    b = (Re c, Im c, w_z), c the transverse coupling of ``e_field`` and w_z
    the Zeeman rate of ``b_z``; the common shift a never enters. The jump
    operator is L = sqrt(kappa/2) n.sigma, kappa the noise rate and n a unit
    vector: z for axial magnetic noise, the transverse direction of
    ``noise_field`` for electric noise. Then

        M = 2 [b]x - kappa (I - n n^T),

    [b]x the cross-product matrix (the dephasing Bloch equations, Nielsen &
    Chuang section 8.3). A Hermitian L makes the channel unital, so there is
    no drift term. kappa enters as 2 s^2 with s = sqrt(kappa/2) rounded, the
    rate that L itself carries, so a rate such as 1/T2 = 1/1e-5 gives the
    same generator as the Liouvillian of L in ``tests/oracles.py``.
    """
    c = params.transverse_coupling(e_field)
    bx, by, bz = 2.0 * c.real, 2.0 * c.imag, 2.0 * params.zeeman_rate(b_z)
    m = np.array([[0.0, -bz, by], [bz, 0.0, -bx], [-by, bx, 0.0]])
    if noise.kind is NoiseKind.NONE or noise.rate == 0.0:
        return m
    if noise.kind is NoiseKind.MAGNETIC_AXIAL:
        n = np.array([0.0, 0.0, 1.0])
    else:
        ex, ey = float(noise_field[0]), float(noise_field[1])
        if ex == 0.0 and ey == 0.0:
            raise PreconditionError(
                "electric noise direction undefined: hypothesis has no transverse field"
            )
        # an exact power-of-two rescale first, so a subnormal field still has a
        # unit direction (|5e-324 + 5e-324 i| rounds to 5e-324)
        _, exponent = math.frexp(max(abs(ex), abs(ey)))
        transverse = complex(math.ldexp(ex, -exponent), math.ldexp(ey, -exponent))
        unit = transverse / abs(transverse)
        n = np.array([unit.real, unit.imag, 0.0])
    amplitude = math.sqrt(noise.rate / 2.0)
    return m - 2.0 * amplitude * amplitude * (np.eye(3) - np.outer(n, n))
